"""Numerical search for unitary representations of a presented group.

A point of the representation variety assigns a unitary matrix to each
generator; the relator defect measures how far the relators are from the
identity.  The solver runs projected gradient descent on the product of
unitary groups: the Euclidean gradient of the defect is projected to the
skew-Hermitian tangent space and the iterate is pulled back by a polar
retraction, so every iterate stays unitary to machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .presentation import GroupPresentation, Word, evaluate_word, spell

# Retractions keep iterates unitary to ~1e-15; anything above this is a bug.
UNITARITY_TOL = 1e-9

ARMIJO = 0.1  # sufficient-decrease constant; large enough to reject
              # edge-of-stability oscillation
INITIAL_STEP = 1.0
STEP_SHRINK = 0.5
MAX_BACKTRACKS = 40
MAX_PERTURBATIONS = 20  # stall escapes before giving up


def unitarity_defect(mats) -> float | np.ndarray:
    """Largest ||M^H M - I||_F over one assignment's square matrices.

    ``mats`` is a sequence of k x k matrices, giving a float, or a stack
    ``(..., gens, k, k)`` of assignments, giving one value per assignment.
    """
    m = np.asarray(mats)
    gram = m.conj().swapaxes(-1, -2) @ m - np.eye(m.shape[-1])
    d = np.linalg.norm(gram, axis=(-2, -1)).max(axis=-1)
    return float(d) if d.ndim == 0 else d


@dataclass(frozen=True)
class RepPoint:
    """An assignment of one unitary matrix per generator (immutable)."""

    matrices: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not self.matrices:
            raise ValueError("RepPoint needs at least one matrix")
        n = self.matrices[0].shape[0]
        frozen = []
        for m in self.matrices:
            m = np.asarray(m, dtype=complex)
            if m.shape != (n, n):
                raise ValueError(f"dimension mismatch: {m.shape} vs ({n}, {n})")
            m = m.copy()
            m.setflags(write=False)
            frozen.append(m)
        object.__setattr__(self, "matrices", tuple(frozen))

    @property
    def dimension(self) -> int:
        return self.matrices[0].shape[0]

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


def relator_defect(p, G: GroupPresentation) -> float | np.ndarray:
    """Sum over relators r of ||r(p) - I||_F^2; zero iff p satisfies all relators.

    ``p`` is a RepPoint, giving a float, or a stack ``(..., gens, k, k)`` of
    assignments, giving one value per assignment.
    """
    mats = np.asarray(getattr(p, "matrices", p))
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


def verify_homomorphism(p: RepPoint, G: GroupPresentation, tol: float) -> bool:
    return relator_defect(p, G) <= tol and p.unitarity_defect() <= tol


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian (Mezzadri recipe)."""
    g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _polar(y: np.ndarray) -> np.ndarray:
    u, _, vh = np.linalg.svd(y)
    return u @ vh


def _defect_and_gradients(mats: list[np.ndarray], relators: tuple[Word, ...]):
    """Defect plus per-generator Euclidean gradients (real trace inner product).

    Each relator must be spelled letter by letter (see ``presentation.spell``).
    For a relator W = M_1 ... M_L and the j-th factor a power of U_g, the
    differential of ||W - I||^2 contributes 2 P^H (W - I) S^H when the factor
    is U_g and 2 S (W - I)^H P when it is U_g^H, where P, S are the prefix and
    suffix products around position j.
    """
    if any(abs(s) != 1 for r in relators for _, s in r.letters):
        raise ValueError("relators must be spelled as letters of exponent +1 or -1")
    n = mats[0].shape[0]
    eye = np.eye(n, dtype=complex)
    grads = [np.zeros((n, n), dtype=complex) for _ in mats]
    defect = 0.0
    for rel in relators:
        factors = [mats[g] if s == 1 else mats[g].conj().T for g, s in rel.letters]
        L = len(factors)
        prefixes = [eye]
        for f in factors:
            prefixes.append(prefixes[-1] @ f)
        suffixes = [eye] * (L + 1)
        for j in range(L - 1, -1, -1):
            suffixes[j] = factors[j] @ suffixes[j + 1]
        w = prefixes[L]
        diff = w - eye
        defect += float(np.linalg.norm(diff) ** 2)
        for j, (g, s) in enumerate(rel.letters):
            p, suf = prefixes[j], suffixes[j + 1]
            if s == 1:
                grads[g] += 2.0 * p.conj().T @ diff @ suf.conj().T
            else:
                grads[g] += 2.0 * suf @ diff.conj().T @ p
    return defect, grads


def _riemannian_gradients(mats, egrads):
    """Project Euclidean gradients to the tangent spaces U * skew(U^H G)."""
    out = []
    for u, g in zip(mats, egrads):
        x = u.conj().T @ g
        out.append(u @ ((x - x.conj().T) / 2.0))
    return out


def solve_representation(
    G: GroupPresentation, n: int, cfg: SolveConfig = SolveConfig()
) -> SolveResult:
    """Find a point of Hom(G, U(n)) with relator defect <= cfg.tolerance.

    Deterministic given cfg.seed.  On non-convergence the best iterate found
    is returned with converged=False rather than raising.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    rng = np.random.default_rng(cfg.seed)
    mats = [haar_unitary(rng, n) for _ in G.generators]
    relators = tuple(spell(r) for r in G.relators)  # once per solve, not per step

    defect, egrads = _defect_and_gradients(mats, relators)
    history = [defect]
    max_udef = unitarity_defect(mats)
    best = ([m.copy() for m in mats], defect)
    perturbations = 0
    iters = 0
    step = INITIAL_STEP

    while defect > cfg.tolerance and iters < cfg.max_iter:
        iters += 1
        rgrads = _riemannian_gradients(mats, egrads)
        gnorm2 = sum(float(np.linalg.norm(g) ** 2) for g in rgrads)
        accepted = False
        if gnorm2 > 1e-28:
            # warm-start from twice the last accepted step so the search can
            # grow along flat valleys, then backtrack as usual
            step = min(2.0 * step, 1e6)
            for _ in range(MAX_BACKTRACKS):
                trial = [_polar(u - step * g) for u, g in zip(mats, rgrads)]
                tdefect, tgrads = _defect_and_gradients(trial, relators)
                if tdefect <= defect - ARMIJO * step * gnorm2:
                    mats, defect, egrads = trial, tdefect, tgrads
                    accepted = True
                    break
                step *= STEP_SHRINK
        if not accepted:
            # Stalled at a critical point above tolerance: kick along a
            # seeded random tangent direction and keep going.
            if perturbations >= MAX_PERTURBATIONS:
                break
            perturbations += 1
            kicked = []
            for u in mats:
                a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                skew = (a - a.conj().T) / 2.0
                kicked.append(_polar(u + 1e-2 * u @ skew))
            mats = kicked
            defect, egrads = _defect_and_gradients(mats, relators)
            step = INITIAL_STEP
        history.append(defect)
        max_udef = max(max_udef, unitarity_defect(mats))
        if defect < best[1]:
            best = ([m.copy() for m in mats], defect)

    if best[1] < defect:
        mats, defect = best[0], best[1]
    point = RepPoint(tuple(mats))
    return SolveResult(
        point=point,
        defect=defect,
        iterations=iters,
        converged=defect <= cfg.tolerance,
        defect_history=tuple(history),
        max_unitarity_defect=max_udef,
    )
