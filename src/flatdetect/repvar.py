"""Numerical search for unitary representations of a presented group.

A point of the representation variety assigns a unitary matrix to each
generator; the relator defect, the sum over relators of ||W - I||_F^2,
measures how far the relators are from the identity.  The solver starts from
a Haar-random point, all generators drawn at once: one array of complex
Gaussians ``(gens, n, n)`` and one batched QR with the phases of R's
diagonal moved into Q (the same stream and matrices as one draw per
generator, ``haar_unitary``).  It then runs
Riemannian Levenberg-Marquardt on the product of unitary groups
(Yamashita-Fukushima, Computing 2001; Absil-Mahony-Sepulchre, Optimization
Algorithms on Matrix Manifolds, ch. 8): a step Omega, one skew-Hermitian
matrix per generator, solves the damped Gauss-Newton equations
(J^T J + mu I) Omega = -J^T (W - I) with mu = lambda ||W - I||, and the trial
point is the polar factor of U (I + Omega), so every iterate stays unitary to
machine precision.  A trial is accepted when the defect falls; lambda shrinks
on an accepted trial and grows on a rejected one.

J is never formed.  The prefix and suffix products of the relators, built
from the products the defect multiplies and written step by step into a
preallocated buffer, give one factor pair (A, B) per (letter, relator)
term: J(Omega) sums A Omega_g B per relator and J^T(Y) the skew-Hermitian
part of A^H Y B^H per generator, each two batched matmuls over all terms
and one sum, so memory stays O(terms k^2).  The normal equations are solved
by conjugate gradients on skew-Hermitian stacks, updated in place.  The
iterate, the step and every trial point are one stack ``(gens, k, k)``; the
relators are compiled once per solve and grouped by length, so that all
relators of one length multiply as one stack.  A solve makes two buffers,
one holding the products of the held point and one for the trials, which
trade places when a trial is accepted.  At a critical point above
tolerance, where no trial is accepted or the step's predicted decrease
drowns in the defect's rounding, the point gets a seeded random kick.
``max_unitarity_defect`` is the largest ``unitarity_defect`` of the held
iterates, which are buffered and checked UNITARITY_CHUNK at a time, so the
check's memory stays bounded however many iterations run.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass, field

import numpy as np

from .presentation import GroupPresentation, Word, evaluate_word, matrix_stack, spell

INITIAL_DAMPING = 1.0  # lambda of the damping mu = lambda * ||W - I||
DAMPING_DOWN = 0.3  # lambda's factor on an accepted trial, down to MIN_DAMPING
DAMPING_UP = 4.0  # and on a rejected one
MIN_DAMPING = 1e-8
CG_TOLERANCE = 0.1  # relative residual of the normal equations
ROUNDING = 1e-15  # relative rounding of the defect
MAX_BACKTRACKS = 40
MAX_PERTURBATIONS = 20  # stall escapes before giving up
UNITARITY_CHUNK = 64  # held iterates per unitarity_defect call


def unitarity_defect(point) -> float | np.ndarray:
    """Largest ||M^H M - I||_F over one assignment's square matrices, 0 for
    none (NaN fails any bound).

    ``point`` is a RepPoint or an array ``(gens, k, k)``, giving a float, or
    a stack ``(..., gens, k, k)`` of assignments, giving one value per
    assignment.
    """
    m = matrix_stack(point)
    gram = m.conj().swapaxes(-1, -2) @ m - np.eye(m.shape[-1])
    d = np.linalg.norm(gram, axis=(-2, -1)).max(axis=-1, initial=0.0)
    return float(d) if d.ndim == 0 else d


@dataclass(frozen=True)
class RepPoint:
    """An assignment of one unitary matrix per generator: ``matrices`` is one
    read-only complex stack ``(gens, k, k)``."""

    matrices: np.ndarray

    def __post_init__(self):
        m = matrix_stack(self.matrices).copy()
        if m.ndim != 3:
            raise ValueError(f"a point is one stack (gens, k, k), got shape {m.shape}")
        m.setflags(write=False)
        object.__setattr__(self, "matrices", m)

    @property
    def dimension(self) -> int:
        return self.matrices.shape[-1]

    def unitarity_defect(self) -> float:
        return unitarity_defect(self.matrices)


@dataclass(frozen=True)
class SolveConfig:
    tolerance: float = 1e-8
    max_iter: int = 2000
    seed: int = 0

    def __post_init__(self):
        if not self.tolerance > 0:  # NaN too
            raise ValueError("tolerance must be positive")
        if not isinstance(self.max_iter, (int, np.integer)):
            raise ValueError(f"max_iter must be an integer, got {self.max_iter!r}")
        if self.max_iter < 0:
            raise ValueError("max_iter must be nonnegative")


@dataclass(frozen=True)
class SolveResult:
    point: RepPoint
    defect: float
    iterations: int
    converged: bool
    defect_history: tuple[float, ...] = field(repr=False, default=())
    max_unitarity_defect: float = 0.0
    backtracks: int = 0  # rejected trial points


def relator_defect(p, G: GroupPresentation) -> float | np.ndarray:
    """Sum over relators r of ||r(p) - I||_F^2; zero iff p satisfies all relators.

    ``p`` is a RepPoint, giving a float, or a stack ``(..., gens, k, k)`` of
    assignments, giving one value per assignment.
    """
    mats = matrix_stack(p)
    if mats.shape[-3] < len(G.generators):
        raise ValueError(
            f"point assigns {mats.shape[-3]} matrices, group has "
            f"{len(G.generators)} generators"
        )
    eye = np.eye(mats.shape[-1])
    total = np.zeros(mats.shape[:-3])
    for r in G.relators:
        total = total + np.linalg.norm(evaluate_word(r, mats) - eye, axis=(-2, -1)) ** 2
    return float(total) if total.ndim == 0 else total


def _haar_unitaries(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """``count`` Haar-distributed unitaries ``(count, n, n)`` via QR of complex
    Gaussians (Mezzadri recipe): one draw of ``(count, 2, n, n)`` normals,
    matrix i from the pair (real, imaginary) ``[i]``, and one batched QR with
    the phases of R's diagonal moved into Q."""
    g = rng.standard_normal((count, 2, n, n))
    q, r = np.linalg.qr((g[:, 0] + 1j * g[:, 1]) / np.sqrt(2))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """One Haar-distributed unitary ``(n, n)``."""
    return _haar_unitaries(rng, 1, n)[0]


def _polar(y: np.ndarray) -> np.ndarray:
    """The unitary polar factor of each matrix of a stack ``(..., k, k)``."""
    u, _, vh = np.linalg.svd(y)
    return u @ vh


def _squared_norms(x: np.ndarray) -> list[float]:
    """``float(np.linalg.norm(m) ** 2)`` for each matrix m of a stack
    ``(N, k, k)``, bit for bit: the same strided dot products of the real
    and imaginary parts, and the same scalar square of their root."""
    flat = x.reshape(len(x), x.shape[1] * x.shape[2])
    sq = np.vecdot(flat.real, flat.real) + np.vecdot(flat.imag, flat.imag)
    return [float(v ** 2) for v in np.sqrt(sq)]


class _Relators:
    """Spelled relators compiled once per solve for stacked evaluation and
    their linearization.

    Relators of one length L form a group, evaluated by stacked matmuls
    over its R relators: ``letters`` ``(L, R)`` indexes the stack
    ``[U_1 .. U_g, U_1^H .. U_g^H]``.  An evaluation keeps every product in
    one buffer of k x k slots: I and 0, each group's factors M_j, its
    prefix products P_j = M_1 ... M_j for j >= 2 (P_0 is I, P_1 is M_1),
    its suffix products S_j = M_{j+1} ... M_L for j < L (S_L is I), and
    last the negated copy of I, 0, the factors and the prefixes.  Every
    block holds a group letter-major, ``(L, R)``, so each step of a product
    chain is one stacked matmul written into its block: ``prefix_steps``
    and ``suffix_steps`` hold the (left, right, out) slot slices in order,
    and ``buffer`` makes a buffer with their views built once.
    The groups' relators, one after another, are the rows of the residual
    W - I, read from the slots ``ends``; ``rel_order`` puts the rows back
    in relator order, so that the defect sums as a loop over relators
    would.  An empty relator contributes nothing and is dropped.

    A (letter, relator) pair is a term, whose factors (A, B) sit at the
    slots ``pick``.  ``apply`` takes the terms group by group and
    letter-major and sums each group's ``(L, R)`` block over its letters;
    ``adjoint`` takes them, under ``by_gen``, sorted stably by generator,
    each generator that appears in no relator given one zero term, and sums
    each generator's run starting at ``gen_starts``.
    """

    def __init__(self, relators: tuple[Word, ...], gens: int, dim: int):
        if any(abs(s) != 1 for r in relators for _, s in r.letters):
            raise ValueError("relators must be spelled as letters of exponent +1 or -1")
        self.eye = np.eye(dim, dtype=complex)
        by_length: dict[int, list[int]] = {}
        for i, r in enumerate(relators):
            if r.letters:
                by_length.setdefault(len(r), []).append(i)
        factors = sum(L * len(members) for L, members in by_length.items())
        prefixes = factors - sum(map(len, by_length.values()))  # P_2 .. P_L of each relator
        self.negated = 2 + factors + prefixes
        negated_at = self.negated + factors  # the negated copy of slots 0 .. negated
        self.slots = negated_at + self.negated
        f_at, p_at, s_at = 2, 2 + factors, 2 + factors + prefixes
        self.groups, self.prefix_steps, self.suffix_steps = [], [], []
        letters, ends, rows = [], [], []
        owners, term_rows, pick_a, pick_b = [], [], [], []  # per term, group by group
        for L, members in by_length.items():
            R, row = len(members), len(rows)
            # the first slot of each R relators' block; first slot 0 stands
            # for I, one slot read by every relator
            factor = [f_at + j * R for j in range(L)]
            prefix = [0, f_at] + [p_at + j * R for j in range(L - 1)]  # P_0 .. P_L
            suffix = [s_at + j * R for j in range(L)] + [0]  # S_0 .. S_L

            def span(first, R=R):
                return slice(first, first + R) if first else slice(0, 1)

            self.prefix_steps += [(span(prefix[j]), span(factor[j]), span(prefix[j + 1]))
                                  for j in range(1, L)]
            self.suffix_steps += [(span(factor[j]), span(suffix[j + 1]), span(suffix[j]))
                                  for j in reversed(range(L))]
            self.groups.append((L, R, slice(len(owners), len(owners) + L * R),
                                slice(row, row + R)))
            for j in range(L):
                for r, i in enumerate(members):
                    g, s = relators[i].letters[j]
                    # A = P_{j+1}, B = S_{j+1} at a letter U_g; A = -P_j, B = S_j at U_g^H
                    at = j + (s > 0)
                    a = prefix[at] + r if prefix[at] else 0
                    letters.append(g + gens * (s < 0))
                    owners.append(g)
                    term_rows.append(row + r)
                    pick_a.append(a if s > 0 else negated_at + a)
                    pick_b.append(suffix[at] + r if suffix[at] else 0)
            ends += range(prefix[L], prefix[L] + R)
            rows += members
            f_at, p_at, s_at = f_at + L * R, p_at + (L - 1) * R, s_at + L * R
        self.letters, self.ends = np.array(letters, dtype=int), np.array(ends, dtype=int)
        self.rel_order = sorted(range(len(rows)), key=rows.__getitem__)
        self.owners = np.array(owners, dtype=int)
        self.pick = np.array(pick_a, dtype=int), np.array(pick_b, dtype=int)
        # a generator in no relator gets one zero term: A = 0, B = I
        absent = sorted(set(range(gens)).difference(owners))
        owners += absent
        order = sorted(range(len(owners)), key=owners.__getitem__)
        self.by_gen = tuple(np.array([c[t] for t in order], dtype=int) for c in (
            term_rows + [0] * len(absent), pick_a + [1] * len(absent), pick_b + [0] * len(absent)))
        runs = [owners[t] for t in order]
        self.gen_starts = np.array([bisect.bisect_left(runs, g) for g in range(gens)], dtype=int)

    def buffer(self):
        """A slot buffer with I and 0 filled, and the views of each (left,
        right, out) step of its prefix and its suffix chains, built once."""
        buf = np.empty((self.slots, *self.eye.shape), dtype=complex)
        buf[0], buf[1] = self.eye, 0.0
        return buf, *([(buf[a], buf[b], buf[out]) for a, b, out in steps]
                      for steps in (self.prefix_steps, self.suffix_steps))

    def defect(self, mats: np.ndarray, buffer=None):
        """The defect at the stack ``mats`` ``(gens, k, k)``, summed over
        relators in order, and the products a linearization reuses: the
        slot ``buffer`` (a new one by default), with the factors and the
        prefixes filled, and the residual rows W - I."""
        stack = np.concatenate([mats, mats.conj().swapaxes(-1, -2)])
        if buffer is None:
            buffer = self.buffer()
        buf, prefix_steps, _ = buffer
        np.take(stack, self.letters, axis=0, out=buf[2:2 + len(self.letters)], mode="clip")
        for a, b, out in prefix_steps:
            np.matmul(a, b, out=out)
        diff = buf[self.ends] - self.eye
        norms = _squared_norms(diff)
        defect = 0.0
        for i in self.rel_order:  # left to right: sum() compensates on Python >= 3.12
            defect += norms[i]
        return defect, (buffer, diff)

    def linearize(self, products):
        """The residual rows W - I ``(R, k, k)`` and the term factors (A, B)
        of the differential of the relators, in both term orders, at the
        point whose ``defect`` built ``products``.

        Moving each U_g to U_g (I + Omega_g), Omega_g skew-Hermitian, moves a
        relator W = M_1 ... M_L to first order by the sum over its letters
        of A Omega_g B: A = P_j and B = S_j when M_j = U_g, A = -P_{j-1}
        and B = S_{j-1} when M_j = U_g^H, where P_j = M_1 ... M_j and
        S_j = M_{j+1} ... M_L.
        """
        (buf, _, suffix_steps), residual = products
        for a, b, out in suffix_steps:
            np.matmul(a, b, out=out)
        np.negative(buf[:self.negated], out=buf[-self.negated:])
        _, pick_a, pick_b = self.by_gen
        return residual, (buf[self.pick[0]], buf[self.pick[1]], buf[pick_a], buf[pick_b])

    def apply(self, terms, omega: np.ndarray) -> np.ndarray:
        """J(Omega): per relator row, the sum over its letters of A Omega_g B."""
        a, b, _, _ = terms
        moved = a @ omega[self.owners] @ b
        out = np.empty((len(self.ends), *omega.shape[1:]), dtype=complex)
        for L, R, at, rows in self.groups:
            np.add.reduce(moved[at].reshape(L, R, *omega.shape[1:]), axis=0, out=out[rows])
        return out

    def adjoint(self, terms, y: np.ndarray) -> np.ndarray:
        """J^T(Y) for the real trace inner product: per generator, the
        skew-Hermitian part of the sum of its terms A^H Y_r B^H, which is
        minus that of the sum of their adjoints B Y_r^H A."""
        _, _, a, b = terms
        yh = y[self.by_gen[0]].conj().swapaxes(-1, -2)
        out = np.add.reduceat(b @ yh @ a, self.gen_starts)
        return (out.conj().swapaxes(-1, -2) - out) / 2.0


def _skew(x: np.ndarray) -> np.ndarray:
    """The skew-Hermitian part of each matrix of a stack ``(..., k, k)``."""
    return (x - x.conj().swapaxes(-1, -2)) / 2.0


def _inner(x: np.ndarray, y: np.ndarray) -> float:
    """The real trace inner product Re tr(x^H y), summed over a stack."""
    return float(np.vdot(x, y).real)


def _lm_step(relators: _Relators, terms, grad, mu: float) -> np.ndarray:
    """Solve (J^T J + mu I) Omega = -grad for skew-Hermitian stacks Omega by
    conjugate gradients, to CG_TOLERANCE relative to ||grad|| and at most
    one iteration per real unknown; the CG vectors update in place."""
    x = np.zeros_like(grad)
    r = -grad
    p = r.copy()
    rr = _inner(r, r)
    stop = CG_TOLERANCE**2 * rr
    for _ in range(grad.size):
        if rr <= stop:
            break
        hp = relators.adjoint(terms, relators.apply(terms, p))
        hp += mu * p
        alpha = rr / _inner(p, hp)
        x += alpha * p
        r -= alpha * hp
        rr, rr_old = _inner(r, r), rr
        p *= rr / rr_old
        p += r
    return x


def solve_representation(
    G: GroupPresentation, n: int, cfg: SolveConfig = SolveConfig()
) -> SolveResult:
    """Find a point of Hom(G, U(n)) with relator defect <= cfg.tolerance.

    Deterministic given cfg.seed.  On non-convergence the best iterate found
    is returned with converged=False rather than raising.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if not G.generators:
        raise ValueError("solving needs at least one generator")
    rng = np.random.default_rng(cfg.seed)
    mats = _haar_unitaries(rng, len(G.generators), n)
    relators = _Relators(tuple(spell(r) for r in G.relators), len(G.generators), n)

    # the products of the held point, and a buffer for the trials
    spare = relators.buffer()
    defect, products = relators.defect(mats, relators.buffer())
    history = [defect]
    # the held iterates, checked for unitarity UNITARITY_CHUNK at a time
    held = np.empty((UNITARITY_CHUNK, *mats.shape), dtype=complex)
    held[0], count, udefs = mats, 1, []
    best = (mats, defect)
    perturbations = backtracks = 0
    iters = 0
    damping = INITIAL_DAMPING

    while defect > cfg.tolerance and iters < cfg.max_iter:
        iters += 1
        residual, terms = relators.linearize(products)
        grad = relators.adjoint(terms, residual)  # half the gradient of the defect
        accepted = False
        if _inner(grad, grad) > 1e-28:
            for _ in range(MAX_BACKTRACKS):
                omega = _lm_step(relators, terms, grad, damping * np.sqrt(defect))
                if -_inner(grad, omega) <= ROUNDING * defect:
                    break  # the model's decrease would drown in the defect's rounding
                trial = _polar(mats + mats @ omega)
                tdefect, tproducts = relators.defect(trial, spare)
                if tdefect < defect:
                    spare = products[0]
                    mats, defect, products = trial, tdefect, tproducts
                    damping = max(damping * DAMPING_DOWN, MIN_DAMPING)
                    accepted = True
                    break
                backtracks += 1
                damping *= DAMPING_UP
        if not accepted:
            # Stalled at a critical point above tolerance: kick along a
            # seeded random tangent direction and keep going.
            if perturbations >= MAX_PERTURBATIONS:
                break
            perturbations += 1
            draws = rng.standard_normal((len(mats), 2, n, n))
            mats = _polar(mats + 1e-2 * mats @ _skew(draws[:, 0] + 1j * draws[:, 1]))
            defect, products = relators.defect(mats, products[0])
            damping = INITIAL_DAMPING
        history.append(defect)
        if count == UNITARITY_CHUNK:
            udefs += unitarity_defect(held).tolist()
            count = 0
        held[count] = mats
        count += 1
        if defect < best[1]:
            best = (mats, defect)

    udefs += unitarity_defect(held[:count]).tolist()
    if best[1] < defect:
        mats, defect = best
    return SolveResult(
        point=RepPoint(mats),
        defect=defect,
        iterations=iters,
        converged=defect <= cfg.tolerance,
        defect_history=tuple(history),
        max_unitarity_defect=functools.reduce(max, udefs),  # in order: max keeps an earlier NaN
        backtracks=backtracks,
    )
