"""Numerical search for unitary representations of a presented group.

A point of the representation variety assigns a unitary matrix to each
generator; the relator defect measures how far the relators are from the
identity.  The solver runs projected gradient descent on the product of
unitary groups: the Euclidean gradient of the defect is projected to the
skew-Hermitian tangent space and the iterate is pulled back by a polar
retraction, so every iterate stays unitary to machine precision.

The iterate, its gradients and every trial point are one stack
``(gens, k, k)``.  A backtracking line search shrinks the step until the
Armijo condition holds: each trial retracts the whole stack with one batched
SVD and evaluates only the defect, and the gradient is computed once per
accepted step, from the prefix products that trial's defect built.  The
relators are compiled once per solve and grouped by length, so that all
relators of one length multiply as one stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .presentation import GroupPresentation, Word, evaluate_word, matrix_stack, spell

ARMIJO = 0.1  # sufficient-decrease constant; large enough to reject
              # edge-of-stability oscillation
INITIAL_STEP = 1.0
STEP_SHRINK = 0.5
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
    backtracks: int = 0  # rejected line-search trials


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
    """Spelled relators compiled once per solve for stacked evaluation.

    Relators of one length L form a group: ``letters`` ``(L, R)`` indexes
    the stack ``[U_1 .. U_g, U_1^H .. U_g^H]`` and ``inverse``
    ``(L, R, 1, 1)`` marks the letters of exponent -1, so that each group is
    evaluated by stacked matmuls over its R relators.  ``rel_order`` and
    ``term_order`` put the groups' relators and (letter, relator) terms back
    in relator-major, letter-minor order, and ``entries`` sends each entry
    of the terms, in that order, to its generator's entry of the gradient:
    sums accumulate in the order of a loop over relators and letters.  An
    empty relator contributes nothing and is dropped.
    """

    def __init__(self, relators: tuple[Word, ...], gens: int, dim: int):
        if any(abs(s) != 1 for r in relators for _, s in r.letters):
            raise ValueError("relators must be spelled as letters of exponent +1 or -1")
        self.shape = (gens, dim, dim)
        self.eye = np.eye(dim, dtype=complex)
        by_length: dict[int, list[int]] = {}
        for i, r in enumerate(relators):
            if r.letters:
                by_length.setdefault(len(r), []).append(i)
        self.groups = []
        rel_pos, term_pos = {}, {}  # relator i / its letter (i, j) -> stacked position
        for length, members in by_length.items():
            letters = np.array(
                [[g + gens * (s < 0) for g, s in relators[i].letters] for i in members]
            ).T
            self.groups.append((letters, (letters >= gens)[..., None, None]))
            # the group's terms stack letter-major: (letter j, relator r) at j * R + r
            base = len(term_pos)
            for r, i in enumerate(members):
                rel_pos[i] = len(rel_pos)
                term_pos.update({(i, j): base + j * len(members) + r for j in range(length)})
        self.rel_order = [rel_pos[i] for i in sorted(rel_pos)]
        self.term_order = np.array([term_pos[t] for t in sorted(term_pos)], dtype=int)
        # the entries of each term's generator in the flattened gradient stack
        term_gens = np.array([relators[i].letters[j][0] for i, j in sorted(term_pos)], dtype=int)
        self.entries = (term_gens[:, None] * dim * dim + np.arange(dim * dim)).ravel()

    def defect(self, mats: np.ndarray):
        """The defect at the stack ``mats`` ``(gens, k, k)``, summed over
        relators in order, and the products a gradient reuses: per group
        the factors ``(L, R, k, k)``, the prefix products M_1 ... M_j for
        j = 1 .. L, each ``(R, k, k)``, and W - I."""
        stack = np.concatenate([mats, mats.conj().swapaxes(-1, -2)])
        products, norms = [], []
        for letters, _ in self.groups:
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

    def gradients(self, products) -> np.ndarray:
        """Per-generator Euclidean gradients ``(gens, k, k)`` of the defect
        (real trace inner product) from the products of ``defect``.

        For a relator W = M_1 ... M_L and its j-th letter U_g, the
        differential of ||W - I||^2 contributes 2 P^H (W - I) S^H when the
        letter is U_g and 2 S (W - I)^H P when it is U_g^H, where P, S are
        the prefix and suffix products around position j.
        """
        k = self.shape[-1]
        terms = []
        for (_, inverse), (factors, prefixes, diff) in zip(self.groups, products):
            eye = np.broadcast_to(self.eye, diff.shape)
            suffixes = [eye]  # the products after letters L, L - 1, ..., 1
            for f in factors[:0:-1]:
                suffixes.append(f @ suffixes[-1])
            s = np.stack(suffixes[::-1])
            p = np.stack([eye, *prefixes[:-1]])
            left = np.where(inverse, s, p.conj().swapaxes(-1, -2))
            mid = np.where(inverse, diff.conj().swapaxes(-1, -2), diff)
            right = np.where(inverse, p, s.conj().swapaxes(-1, -2))
            terms.append(((2.0 * left) @ mid @ right).reshape(-1, k, k))
        grads = np.zeros(self.shape, dtype=complex)
        if terms:
            ordered = np.concatenate(terms)[self.term_order]
            np.add.at(grads.reshape(-1), self.entries, ordered.reshape(-1))
        return grads


def _riemannian_gradients(mats: np.ndarray, egrads: np.ndarray) -> np.ndarray:
    """Project Euclidean gradients to the tangent spaces U * skew(U^H G)."""
    x = mats.conj().swapaxes(-1, -2) @ egrads
    return mats @ ((x - x.conj().swapaxes(-1, -2)) / 2.0)


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
    egrads = relators.gradients(products)
    history = [defect]
    max_udef = unitarity_defect(mats)
    best = (mats, defect)
    perturbations = backtracks = 0
    iters = 0
    step = INITIAL_STEP

    while defect > cfg.tolerance and iters < cfg.max_iter:
        iters += 1
        rgrads = _riemannian_gradients(mats, egrads)
        gnorm2 = sum(_squared_norms(rgrads))
        accepted = False
        if gnorm2 > 1e-28:
            # warm-start from twice the last accepted step so the search can
            # grow along flat valleys, then backtrack as usual; a trial costs
            # one defect, and only the accepted one a gradient
            step = min(2.0 * step, 1e6)
            for _ in range(MAX_BACKTRACKS):
                trial = _polar(mats - step * rgrads)
                tdefect, products = relators.defect(trial)
                if tdefect <= defect - ARMIJO * step * gnorm2:
                    mats, defect = trial, tdefect
                    egrads = relators.gradients(products)
                    accepted = True
                    break
                backtracks += 1
                step *= STEP_SHRINK
        if not accepted:
            # Stalled at a critical point above tolerance: kick along a
            # seeded random tangent direction and keep going.
            if perturbations >= MAX_PERTURBATIONS:
                break
            perturbations += 1
            draws = rng.standard_normal((len(mats), 2, n, n))
            a = draws[:, 0] + 1j * draws[:, 1]
            skew = (a - a.conj().swapaxes(-1, -2)) / 2.0
            mats = _polar(mats + 1e-2 * mats @ skew)
            defect, products = relators.defect(mats)
            egrads = relators.gradients(products)
            step = INITIAL_STEP
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
