"""Numerical search for unitary representations of a presented group.

A point of the representation variety assigns a unitary matrix to each
generator; the relator defect, the sum over relators of ||W - I||_F^2,
measures how far the relators are from the identity.  The solver runs
Riemannian Levenberg-Marquardt on the product of unitary groups
(Yamashita-Fukushima, Computing 2001; Absil-Mahony-Sepulchre, Optimization
Algorithms on Matrix Manifolds, ch. 8): a step Omega, one skew-Hermitian
matrix per generator, solves the damped Gauss-Newton equations
(J^T J + mu I) Omega = -J^T (W - I) with mu = lambda ||W - I||, and the trial
point is the polar factor of U (I + Omega), so every iterate stays unitary to
machine precision.  A trial is accepted when the defect falls; lambda shrinks
on an accepted trial and grows on a rejected one.

J is never formed.  The prefix and suffix products of the relators, built
from the products the defect multiplies, give one factor pair (A, B) per
(letter, relator) term: J(Omega) sums A Omega_g B per relator and J^T(Y) the
skew-Hermitian part of A^H Y B^H per generator, each two batched matmuls and
one sum over terms, so memory stays O(terms k^2).  The normal equations are
solved by conjugate gradients on skew-Hermitian stacks.  The iterate, the
step and every trial point are one stack ``(gens, k, k)``; the relators are
compiled once per solve and grouped by length, so that all relators of one
length multiply as one stack.  At a critical point above tolerance, where no
trial is accepted or the step's predicted decrease drowns in the defect's
rounding, the point gets a seeded random kick.
"""

from __future__ import annotations

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
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
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


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian (Mezzadri recipe)."""
    g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _polar(y: np.ndarray) -> np.ndarray:
    """The unitary polar factor of each matrix of a stack ``(..., k, k)``."""
    u, _, vh = np.linalg.svd(y)
    return u @ vh


def _squared_norms(x: np.ndarray) -> list[float]:
    """``float(np.linalg.norm(m) ** 2)`` for each matrix m of a stack
    ``(N, k, k)``, bit for bit: the same strided dot products of the real
    and imaginary parts, and the same scalar square of their root."""
    flat = x.reshape(len(x), -1)
    sq = np.vecdot(flat.real, flat.real) + np.vecdot(flat.imag, flat.imag)
    return [float(v ** 2) for v in np.sqrt(sq)]


class _Relators:
    """Spelled relators compiled once per solve for stacked evaluation and
    their linearization.

    Relators of one length L form a group: ``letters`` ``(L, R)`` indexes
    the stack ``[U_1 .. U_g, U_1^H .. U_g^H]``, ``inverse`` ``(L, R, 1, 1)``
    marks the letters of exponent -1 and ``owners`` ``(L, R)`` names each
    letter's generator, so that each group is evaluated by stacked matmuls
    over its R relators; the groups' relators, one after another, are the
    rows of the residual, and ``rows`` slices a group's.  ``rel_order``
    puts the rows back in relator order, so that the defect sums as a loop
    over relators would.  A (letter, relator) pair is a term; ``order``
    sorts the terms, stacked group by group and letter-major, by generator,
    and ``present`` and ``gen_starts`` index them for the per-generator sum
    of ``adjoint``.  An empty relator contributes nothing and is dropped.
    """

    def __init__(self, relators: tuple[Word, ...], gens: int, dim: int):
        if any(abs(s) != 1 for r in relators for _, s in r.letters):
            raise ValueError("relators must be spelled as letters of exponent +1 or -1")
        self.gens = gens
        self.eye = np.eye(dim, dtype=complex)
        by_length: dict[int, list[int]] = {}
        for i, r in enumerate(relators):
            if r.letters:
                by_length.setdefault(len(r), []).append(i)
        self.groups = []
        rows, term_gens = {}, []  # relator i -> its row; per term
        for members in by_length.values():
            letters = np.array(
                [[g + gens * (s < 0) for g, s in relators[i].letters] for i in members]
            ).T
            owners, base = letters % gens, len(rows)
            rows.update((i, base + r) for r, i in enumerate(members))
            self.groups.append((letters, (letters >= gens)[..., None, None], owners,
                                slice(base, len(rows))))
            term_gens += owners.ravel().tolist()
        self.rel_order = [rows[i] for i in sorted(rows)]
        self.order = np.argsort(term_gens, kind="stable")
        self.present, self.gen_starts = np.unique(
            np.array(term_gens, dtype=int)[self.order], return_index=True)

    def defect(self, mats: np.ndarray):
        """The defect at the stack ``mats`` ``(gens, k, k)``, summed over
        relators in order, and the products a linearization reuses: per
        group the factors ``(L, R, k, k)``, the prefix products M_1 ... M_j
        for j = 1 .. L, each ``(R, k, k)``, and W - I."""
        stack = np.concatenate([mats, mats.conj().swapaxes(-1, -2)])
        products, norms = [], []
        for letters, *_ in self.groups:
            factors = stack[letters]
            prefixes = [factors[0]]
            for f in factors[1:]:
                prefixes.append(prefixes[-1] @ f)
            diff = prefixes[-1] - self.eye
            products.append((factors, prefixes, diff))
            norms += _squared_norms(diff)
        defect = 0.0
        for i in self.rel_order:  # left to right: sum() compensates on Python >= 3.12
            defect += norms[i]
        return defect, products

    def linearize(self, products):
        """The residual rows W - I ``(R, k, k)`` and, per group, the term
        factors (A, B), each ``(L, R, k, k)``, of the differential of the
        relators at the point whose ``defect`` built ``products``.

        Moving each U_g to U_g (I + Omega_g), Omega_g skew-Hermitian, moves a
        relator W = M_1 ... M_L to first order by the sum over its letters
        of A Omega_g B: A = P_j and B = S_j when M_j = U_g, A = -P_{j-1}
        and B = S_{j-1} when M_j = U_g^H, where P_j = M_1 ... M_j and
        S_j = M_{j+1} ... M_L.
        """
        a, b, residual = [], [], []
        for (_, inverse, *_), (factors, prefixes, diff) in zip(self.groups, products):
            eye = np.broadcast_to(self.eye, diff.shape)
            suffixes = [eye]  # S_L, S_{L-1}, ..., S_0
            for f in factors[::-1]:
                suffixes.append(f @ suffixes[-1])
            s = np.stack(suffixes[::-1])
            p = np.stack([eye, *prefixes])
            a.append(np.where(inverse, -p[:-1], p[1:]))
            b.append(np.where(inverse, s[:-1], s[1:]))
            residual.append(diff)
        return np.concatenate(residual), a, b

    def apply(self, a, b, omega: np.ndarray) -> np.ndarray:
        """J(Omega): per relator row, the sum over its letters of A Omega_g B."""
        return np.concatenate([(ag @ omega[owners] @ bg).sum(0)
                               for (_, _, owners, _), ag, bg in zip(self.groups, a, b)])

    def adjoint(self, a, b, y: np.ndarray) -> np.ndarray:
        """J^T(Y) for the real trace inner product: per generator, the
        skew-Hermitian part of the sum of its terms A^H Y_r B^H, which is
        minus that of the sum of their adjoints B Y_r^H A."""
        yh = y.conj().swapaxes(-1, -2)
        terms = np.concatenate([(bg @ yh[rows] @ ag).reshape(-1, *y.shape[1:])
                                for (_, _, _, rows), ag, bg in zip(self.groups, a, b)])
        out = np.zeros((self.gens, *y.shape[1:]), dtype=complex)
        out[self.present] = np.add.reduceat(terms[self.order], self.gen_starts)
        return -_skew(out)


def _skew(x: np.ndarray) -> np.ndarray:
    """The skew-Hermitian part of each matrix of a stack ``(..., k, k)``."""
    return (x - x.conj().swapaxes(-1, -2)) / 2.0


def _inner(x: np.ndarray, y: np.ndarray) -> float:
    """The real trace inner product Re tr(x^H y), summed over a stack."""
    return float(np.vdot(x, y).real)


def _lm_step(relators: _Relators, a, b, grad, mu: float) -> np.ndarray:
    """Solve (J^T J + mu I) Omega = -grad for skew-Hermitian stacks Omega by
    conjugate gradients, to CG_TOLERANCE relative to ||grad|| and at most
    one iteration per real unknown."""
    x = np.zeros_like(grad)
    r = -grad
    p = r
    rr = _inner(r, r)
    stop = CG_TOLERANCE**2 * rr
    for _ in range(grad.size):
        if rr <= stop:
            break
        hp = relators.adjoint(a, b, relators.apply(a, b, p)) + mu * p
        alpha = rr / _inner(p, hp)
        x = x + alpha * p
        r = r - alpha * hp
        rr, rr_old = _inner(r, r), rr
        p = r + (rr / rr_old) * p
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
    mats = np.stack([haar_unitary(rng, n) for _ in G.generators])
    relators = _Relators(tuple(spell(r) for r in G.relators), len(G.generators), n)

    defect, products = relators.defect(mats)
    history = [defect]
    max_udef = unitarity_defect(mats)
    best = (mats, defect)
    perturbations = backtracks = 0
    iters = 0
    damping = INITIAL_DAMPING

    while defect > cfg.tolerance and iters < cfg.max_iter:
        iters += 1
        residual, a, b = relators.linearize(products)
        grad = relators.adjoint(a, b, residual)  # half the gradient of the defect
        accepted = False
        if _inner(grad, grad) > 1e-28:
            for _ in range(MAX_BACKTRACKS):
                omega = _lm_step(relators, a, b, grad, damping * np.sqrt(defect))
                if -_inner(grad, omega) <= ROUNDING * defect:
                    break  # the model's decrease would drown in the defect's rounding
                trial = _polar(mats + mats @ omega)
                tdefect, tproducts = relators.defect(trial)
                if tdefect < defect:
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
            defect, products = relators.defect(mats)
            damping = INITIAL_DAMPING
        history.append(defect)
        max_udef = max(max_udef, unitarity_defect(mats))
        if defect < best[1]:
            best = (mats, defect)

    if best[1] < defect:
        mats, defect = best
    return SolveResult(
        point=RepPoint(mats),
        defect=defect,
        iterations=iters,
        converged=defect <= cfg.tolerance,
        defect_history=tuple(history),
        max_unitarity_defect=max_udef,
        backtracks=backtracks,
    )
