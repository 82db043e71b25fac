import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from flatdetect.presentation import (
    GroupPresentation,
    Word,
    evaluate_word,
    free_abelian,
    free_group,
    klein_bottle,
    parse_presentation,
    spell,
    surface_group,
)
from flatdetect.repvar import (
    CG_TOLERANCE,
    INITIAL_DAMPING,
    DAMPING_DOWN,
    DAMPING_UP,
    MAX_BACKTRACKS,
    MAX_PERTURBATIONS,
    MIN_DAMPING,
    ROUNDING,
    UNITARITY_CHUNK,
    RepPoint,
    SolveConfig,
    haar_unitary,
    relator_defect,
    solve_representation,
    unitarity_defect,
    _haar_unitaries,
    _Relators,
)

Z2 = free_abelian(2)


def verify_homomorphism(p: RepPoint, G: GroupPresentation, tol: float) -> bool:
    return relator_defect(p, G) <= tol and p.unitarity_defect() <= tol


# ---------------------------------------------------------------------------
# Reference: the defect and a dense Jacobian built relator by relator and
# letter by letter, and the Levenberg-Marquardt loop written out over an
# earlier, independent implementation of the stacked relators (per-letter
# product lists, np.where-selected term factors, one concatenation per
# apply and adjoint) and of the conjugate-gradient step, kept verbatim below.
# The stacked defect must agree with the first bit for bit, the matrix-free
# linearization with the second, the solver bit for bit with the third.
# ---------------------------------------------------------------------------


def _reference_defect(mats, relators):
    """The defect relator by relator and letter by letter (relators spelled
    as letters of exponent +-1)."""
    eye = np.eye(mats.shape[-1], dtype=complex)
    defect = 0.0
    for rel in relators:
        w = eye
        for g, s in rel.letters:
            w = w @ (mats[g] if s == 1 else mats[g].conj().T)
        defect += float(np.linalg.norm(w - eye) ** 2)
    return defect


def _real(x):
    """The real coordinates of a complex stack, for the real trace inner product."""
    x = np.asarray(x)
    return np.concatenate([x.real.ravel(), x.imag.ravel()])


def _dense_jacobian(mats, relators):
    """The real matrix of Omega -> d/dt W(U (I + t Omega)) at t = 0 on the
    ambient (gens, k, k) complex stacks: rows are the nonempty relators'
    entries, columns each generator's entries, real then imaginary.  Built
    letter by letter: the derivative of M_1 ... M_L is the sum over j of
    M_1 ... M_{j-1} dM_j M_{j+1} ... M_L, with dM_j = U E when M_j = U and
    -E U^H when M_j = U^H."""
    gens, k = len(mats), mats.shape[-1]
    rels = [r for r in relators if r.letters]
    cols = []
    for part in (1.0, 1j):
        for g in range(gens):
            for entry in range(k * k):
                e = np.zeros(k * k, dtype=complex)
                e[entry] = part
                e = e.reshape(k, k)
                col = np.zeros((len(rels), k, k), dtype=complex)
                for row, rel in enumerate(rels):
                    factors = [mats[h] if s == 1 else mats[h].conj().T for h, s in rel.letters]
                    for j, (h, s) in enumerate(rel.letters):
                        if h == g:
                            d = mats[g] @ e if s == 1 else -e @ mats[g].conj().T
                            col[row] += np.linalg.multi_dot(
                                [np.eye(k), *factors[:j], d, *factors[j + 1:], np.eye(k)])
                cols.append(col)
    # columns in _real order: the real parts of all entries, then the imaginary
    return np.stack([_real(c) for c in cols], axis=1), len(rels)


def _skew(x):
    return (x - x.conj().swapaxes(-1, -2)) / 2.0


def _random_skew(rng, shape):
    return _skew(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _reference_haar(rng: np.random.Generator, n: int) -> np.ndarray:
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


class _ReferenceRelators:
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


def _inner(x: np.ndarray, y: np.ndarray) -> float:
    """The real trace inner product Re tr(x^H y), summed over a stack."""
    return float(np.vdot(x, y).real)


def _reference_lm_step(relators: _ReferenceRelators, a, b, grad, mu: float) -> np.ndarray:
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



def _linearization(mats, relators):
    """_Relators, residual rows and term factors at the stack ``mats``."""
    rels = _Relators(relators, len(mats), mats.shape[-1])
    _, products = rels.defect(mats)
    return (rels, *rels.linearize(products)) if rels.groups else (rels, None, None)


@st.composite
def _presentations(draw):
    """Up to three generators and up to four relators of mixed lengths; a
    relator may reduce to runs of larger exponent or to the empty word."""
    gens = draw(st.integers(1, 3))
    letter = st.tuples(st.integers(0, gens - 1), st.sampled_from((1, -1)))
    relators = draw(st.lists(st.lists(letter, max_size=7), max_size=4))
    return GroupPresentation(tuple("abc"[:gens]), tuple(Word(tuple(r)) for r in relators))


FREE2 = GroupPresentation(("a", "b"))
KLEIN_FOUR = parse_presentation("gens: a b ; rels: a a , b b , a b a b ;")


@settings(max_examples=150, deadline=None)
@given(_presentations(), st.integers(1, 4), st.integers(0, 2**32 - 1), st.booleans())
@example(FREE2, 2, 0, True)
@example(KLEIN_FOUR, 2, 0, True)
def test_defect_and_jacobian_equal_the_references_built_letter_by_letter(G, k, seed, unitary):
    """On Haar unitary and on random (non-unitary) stacks: the defect bit for
    bit, J and J^T against the dense Jacobian."""
    rng = np.random.default_rng(seed)
    shape = (len(G.generators), k, k)
    mats = (np.stack([haar_unitary(rng, k) for _ in G.generators]) if unitary
            else rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    relators = tuple(spell(r) for r in G.relators)
    rels, residual, terms = _linearization(mats, relators)
    assert rels.defect(mats)[0] == _reference_defect(mats, relators)
    dense, count = _dense_jacobian(mats, relators)
    if not rels.groups:
        assert count == 0
        return
    rows = rels.rel_order  # the residual row of each nonempty relator, in order
    omega = _random_skew(rng, mats.shape)
    y = rng.standard_normal(residual.shape) + 1j * rng.standard_normal(residual.shape)
    applied = rels.apply(terms, omega)
    assert np.allclose(_real(applied[rows]), dense @ _real(omega), atol=1e-12)
    back = np.split(dense.T @ _real(y[rows]), 2)
    ambient = (back[0] + 1j * back[1]).reshape(mats.shape)
    adjoint = rels.adjoint(terms, y)
    assert np.allclose(adjoint, _skew(ambient), atol=1e-12)
    assert np.array_equal(adjoint, -adjoint.conj().swapaxes(-1, -2))  # skew-Hermitian


@settings(max_examples=100, deadline=None)
@given(_presentations(), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_adjoint_identity(G, k, seed):
    """<J Omega, Y> = <Omega, J^T Y> in the real trace inner product."""
    rng = np.random.default_rng(seed)
    mats = np.stack([haar_unitary(rng, k) for _ in G.generators])
    rels, residual, terms = _linearization(mats, tuple(spell(r) for r in G.relators))
    assume(rels.groups)
    omega = _random_skew(rng, mats.shape)
    y = rng.standard_normal(residual.shape) + 1j * rng.standard_normal(residual.shape)
    left = np.vdot(rels.apply(terms, omega), y).real
    right = np.vdot(omega, rels.adjoint(terms, y)).real
    assert abs(left - right) <= 1e-12 * (1 + abs(left))


def _reference_solve(G, n, cfg):
    """The solver's loop over _ReferenceRelators and _reference_lm_step, with
    one Haar draw per generator and a unitarity check per held iterate:
    (matrices, defect, iterations, defect_history, max_unitarity_defect,
    backtracks)."""
    rng = np.random.default_rng(cfg.seed)
    mats = np.stack([haar_unitary(rng, n) for _ in G.generators])
    rels = _ReferenceRelators(tuple(spell(r) for r in G.relators), len(G.generators), n)
    defect, products = rels.defect(mats)
    history, max_udef, best = [defect], unitarity_defect(mats), (mats, defect)
    kicks = backtracks = iters = 0
    damping = INITIAL_DAMPING
    while defect > cfg.tolerance and iters < cfg.max_iter:
        iters += 1
        residual, a, b = rels.linearize(products)
        grad = rels.adjoint(a, b, residual)
        accepted = False
        tries = MAX_BACKTRACKS if np.vdot(grad, grad).real > 1e-28 else 0
        for _ in range(tries):
            omega = _reference_lm_step(rels, a, b, grad, damping * np.sqrt(defect))
            if -np.vdot(grad, omega).real <= ROUNDING * defect:
                break
            trial = _polar(mats + mats @ omega)
            tdefect, tproducts = rels.defect(trial)
            if tdefect < defect:
                mats, defect, products = trial, tdefect, tproducts
                damping = max(damping * DAMPING_DOWN, MIN_DAMPING)
                accepted = True
                break
            backtracks += 1
            damping *= DAMPING_UP
        if not accepted:
            if kicks == MAX_PERTURBATIONS:
                break
            kicks += 1
            draws = rng.standard_normal((len(mats), 2, n, n))
            mats = _polar(mats + 1e-2 * mats @ _skew(draws[:, 0] + 1j * draws[:, 1]))
            defect, products = rels.defect(mats)
            damping = INITIAL_DAMPING
        history.append(defect)
        max_udef = max(max_udef, unitarity_defect(mats))
        if defect < best[1]:
            best = (mats, defect)
    if best[1] < defect:
        mats, defect = best
    return mats, defect, iters, tuple(history), max_udef, backtracks


def _assert_solves_equal(G, n, cfg):
    res = solve_representation(G, n, cfg)
    mats, defect, iters, history, max_udef, backtracks = _reference_solve(G, n, cfg)
    assert res.point.matrices.tobytes() == mats.tobytes()
    assert res.defect == defect
    assert res.iterations == iters
    assert res.defect_history == history
    assert res.max_unitarity_defect == max_udef
    assert res.backtracks == backtracks
    return res


@settings(max_examples=60, deadline=None)
@given(
    _presentations(), st.integers(1, 4), st.integers(0, 2**32 - 1), st.integers(0, 30)
)
@example(FREE2, 3, 0, 30)
def test_solve_equals_the_reference_loop_bit_for_bit(G, k, seed, max_iter):
    _assert_solves_equal(G, k, SolveConfig(max_iter=max_iter, seed=seed))


@pytest.mark.parametrize(
    "G, n, seed",
    [
        (klein_bottle(), 2, 0),
        (surface_group(2), 3, 1),
        (free_abelian(3), 4, 2),
        # stalls at a local minimum of defect 6: 20 seeded kicks, then the
        # solver gives up unconverged
        (KLEIN_FOUR, 3, 0),
    ],
)
def test_full_solves_equal_the_reference_loop_bit_for_bit(G, n, seed):
    res = _assert_solves_equal(G, n, SolveConfig(seed=seed))
    assert res.converged != (G is KLEIN_FOUR)
    if G is KLEIN_FOUR:  # its unitarity checks cross many chunk boundaries
        assert res.iterations == 435 and 435 % UNITARITY_CHUNK
        assert res.iterations > 5 * UNITARITY_CHUNK


@pytest.mark.parametrize("gens, n", [(1, 1), (1, 3), (4, 2), (6, 6)])
def test_the_batched_haar_draw_equals_per_generator_draws_bit_for_bit(gens, n):
    batch, rng = np.random.default_rng(gens * n), np.random.default_rng(gens * n)
    stack = _haar_unitaries(batch, gens, n)
    draws = np.stack([_reference_haar(rng, n) for _ in range(gens)])
    assert stack.shape == (gens, n, n) and stack.tobytes() == draws.tobytes()
    assert batch.bit_generator.state == rng.bit_generator.state  # the same stream consumed
    assert haar_unitary(batch, n).tobytes() == _reference_haar(rng, n).tobytes()


def test_a_stalled_solve_kicks_then_gives_up():
    res = solve_representation(KLEIN_FOUR, 3, SolveConfig(seed=0))
    assert not res.converged and abs(res.defect - 6.0) < 1e-9
    assert res.iterations < SolveConfig().max_iter  # stopped by the kick budget
    # a kick leaves the local minimum, so the defect rises 20 times
    rises = sum(b > a for a, b in zip(res.defect_history, res.defect_history[1:]))
    assert rises == MAX_PERTURBATIONS


# ROADMAP item 6's probe cases: (group, dimension); gradient descent took up to
# 208, 94, 727, 78 and 21 iterations on 40 seeds
PROBES = [
    (klein_bottle(), 4),
    (free_abelian(3), 3),
    (surface_group(2), 6),
    (surface_group(2), 2),
    (surface_group(3), 3),
]


@pytest.mark.parametrize("G, n", PROBES)
def test_iterations_on_the_probe_groups_stay_bounded(G, n):
    for seed in range(12):
        res = solve_representation(G, n, SolveConfig(seed=seed))
        assert res.converged and res.iterations <= 15, (seed, res.iterations)


def test_defect_trivial_point_is_zero():
    p = RepPoint((np.eye(3, dtype=complex), np.eye(3, dtype=complex)))
    assert relator_defect(p, Z2) == 0.0


def test_defect_commuting_diagonals_zero():
    p = RepPoint((np.diag([1j, -1j]), np.diag([np.exp(0.3j), np.exp(1.1j)])))
    assert relator_defect(p, Z2) < 1e-28


def test_defect_anticommuting_pair_is_eight():
    # oracle: brute-force 2x2 arithmetic with the Pauli pair X, Z
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    Z = np.array([[1, 0], [0, -1]], dtype=complex)
    comm = X @ Z @ X.conj().T @ Z.conj().T
    expected = np.linalg.norm(comm - np.eye(2)) ** 2
    assert abs(expected - 8.0) < 1e-12

    p = RepPoint((X, Z))
    assert abs(relator_defect(p, Z2) - 8.0) < 1e-12


def test_defect_conjugation_invariant():
    rng = np.random.default_rng(2)
    p = RepPoint((haar_unitary(rng, 3), haar_unitary(rng, 3)))
    u = haar_unitary(rng, 3)
    q = RepPoint(tuple(u @ m @ u.conj().T for m in p.matrices))
    assert abs(relator_defect(p, Z2) - relator_defect(q, Z2)) < 1e-10


def test_defect_invariant_under_relator_free_reduction():
    rng = np.random.default_rng(3)
    p = RepPoint((haar_unitary(rng, 2), haar_unitary(rng, 2)))
    padded = Word(((0, 1), (1, 1), (1, -1), (1, 1), (0, -1), (1, -1)))
    G1 = parse_presentation("gens: a b; rels: a b a^-1 b^-1;")
    G2 = parse_presentation("gens: a b; rels: ;")
    G2 = type(G2)(G2.generators, (padded,))
    assert abs(relator_defect(p, G1) - relator_defect(p, G2)) < 1e-12


def _moved(mats, omega, t):
    return mats @ (np.eye(mats.shape[-1]) + t * omega)


def test_linearization_matches_central_finite_differences():
    # oracle: central differences of the relator products and of the defect
    # along U_g -> U_g (I + t Omega_g)
    rng = np.random.default_rng(7)
    mats = np.stack([haar_unitary(rng, 3), haar_unitary(rng, 3)])
    G = klein_bottle()
    rels, residual, terms = _linearization(mats, G.relators)
    eps = 1e-6
    for _ in range(3):
        omega = _random_skew(rng, mats.shape)
        plus, minus = _moved(mats, omega, eps), _moved(mats, omega, -eps)
        words = [(evaluate_word(r, plus) - evaluate_word(r, minus)) / (2 * eps)
                 for r in G.relators]
        assert np.allclose(rels.apply(terms, omega), words, atol=1e-8)
        slope = (relator_defect(plus, G) - relator_defect(minus, G)) / (2 * eps)
        grad = 2 * rels.adjoint(terms, residual)
        assert abs(slope - np.vdot(grad, omega).real) < 1e-7


def test_linearization_of_a_relator_with_runs_matches_finite_differences():
    # a a b is stored as the runs ((0, 2), (1, 1)); the linearization takes it spelled
    rng = np.random.default_rng(11)
    mats = np.stack([haar_unitary(rng, 2), haar_unitary(rng, 2)])
    G = parse_presentation("gens: a b ; rels: a a b ;")
    assert G.relators[0].letters == ((0, 2), (1, 1))
    with pytest.raises(ValueError, match="spelled"):
        _Relators(G.relators, 2, 2)
    rels, residual, terms = _linearization(mats, tuple(spell(r) for r in G.relators))

    def word(ms):
        # oracle: A A B written out directly
        return ms[0] @ ms[0] @ ms[1]

    eps = 1e-6
    omega = _random_skew(rng, mats.shape)
    derivative = (word(_moved(mats, omega, eps)) - word(_moved(mats, omega, -eps))) / (2 * eps)
    assert np.allclose(rels.apply(terms, omega)[0], derivative, atol=1e-8)
    assert np.allclose(residual[0], word(mats) - np.eye(2), atol=1e-15)


def test_solve_free_group_converges_instantly():
    res = solve_representation(free_group(3), 4, SolveConfig(seed=9))
    assert res.converged
    assert res.iterations == 0
    assert res.defect == 0.0


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"tolerance": float("nan")}, "tolerance must be positive"),
        ({"tolerance": 0.0}, "tolerance must be positive"),
        ({"tolerance": -1e-8}, "tolerance must be positive"),
        ({"max_iter": 2.5}, "max_iter must be an integer, got 2.5"),
        ({"max_iter": 3.0}, "max_iter must be an integer, got 3.0"),
        ({"max_iter": "3"}, "max_iter must be an integer"),
        ({"max_iter": -1}, "max_iter must be nonnegative"),
    ],
)
def test_solve_config_refuses_what_the_cli_flags_refuse(kwargs, message):
    # a NaN tolerance would leave the solve unconverged after 0 iterations
    with pytest.raises(ValueError, match=message):
        SolveConfig(**kwargs)


def test_solve_config_takes_numpy_integers_and_an_infinite_tolerance():
    assert SolveConfig(max_iter=np.int64(3)).max_iter == 3
    res = solve_representation(Z2, 2, SolveConfig(tolerance=float("inf"), seed=1))
    assert res.converged and res.iterations == 0


def test_solve_needs_a_generator():
    with pytest.raises(ValueError, match="at least one generator"):
        solve_representation(GroupPresentation(()), 2)


def test_solve_z2_in_u2():
    res = solve_representation(Z2, 2, SolveConfig(seed=1))
    assert res.converged
    assert res.defect <= 1e-8
    assert verify_homomorphism(res.point, Z2, 1e-6)


def test_solve_genus2_in_u1_no_iterations():
    # U(1) is abelian, so all commutators vanish at any starting point
    res = solve_representation(surface_group(2), 1, SolveConfig(seed=4))
    assert res.converged
    assert res.iterations == 0


def test_solve_descent_and_retraction_properties():
    res = solve_representation(klein_bottle(), 2, SolveConfig(seed=0))
    h = res.defect_history
    # accepted steps never increase the defect (seeded kicks may, but none
    # should fire on this instance)
    assert all(b <= a + 1e-12 for a, b in zip(h, h[1:]))
    assert res.max_unitarity_defect <= 1e-10


def test_solve_deterministic_given_seed():
    r1 = solve_representation(Z2, 2, SolveConfig(seed=12))
    r2 = solve_representation(Z2, 2, SolveConfig(seed=12))
    for a, b in zip(r1.point.matrices, r2.point.matrices):
        assert np.array_equal(a, b)
    r3 = solve_representation(Z2, 2, SolveConfig(seed=13))
    assert any(
        not np.array_equal(a, b)
        for a, b in zip(r1.point.matrices, r3.point.matrices)
    )


def test_solve_nonconvergence_flag_with_zero_iterations():
    res = solve_representation(Z2, 2, SolveConfig(seed=5, max_iter=0))
    assert not res.converged
    assert res.defect > 1e-8  # a random Haar pair virtually never commutes


def test_defects_of_a_stack_are_per_point():
    rng = np.random.default_rng(4)
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    Z = np.array([[1, 0], [0, -1]], dtype=complex)
    points = [
        RepPoint((np.eye(2, dtype=complex), np.eye(2, dtype=complex))),
        RepPoint((X, Z)),
        RepPoint((haar_unitary(rng, 2), 2 * haar_unitary(rng, 2))),
    ]
    stack = np.array([p.matrices for p in points])
    assert np.allclose(
        relator_defect(stack, Z2), [relator_defect(p, Z2) for p in points], atol=1e-12
    )
    assert np.allclose(
        unitarity_defect(stack), [p.unitarity_defect() for p in points], atol=1e-12
    )
    assert unitarity_defect(stack)[2] > 1


# a commutator, runs of exponent 3 and -2, a single letter and a relator that
# reduces to the empty word
RUNS_GROUP = GroupPresentation(("a", "b", "c"), (
    Word(((0, 1), (1, 1), (0, -1), (1, -1))), Word(((0, 3), (2, -2))), Word(((2, 1),)),
    Word(((1, 1), (1, -1))),
))


def _reference_defects(mats: np.ndarray) -> tuple[float, float]:
    """The relator defect of RUNS_GROUP and the unitarity defect of one
    assignment ``(gens, k, k)``, relator by relator and letter by letter."""
    relators = _reference_defect(mats, tuple(spell(r) for r in RUNS_GROUP.relators))
    eye = np.eye(mats.shape[-1])
    return relators, max(np.linalg.norm(m.conj().T @ m - eye) for m in mats)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("kind", ["haar", "gaussian", "nan"])
def test_stacked_defects_match_the_per_point_reference(k, kind):
    """Both defects of a stack ``(2, 3, gens, k, k)``, and of each of its
    points ``(gens, k, k)`` (the form the solver passes), are the reference
    values to 1e-12, for fibres of 1 to 6 dimensions; NaN fails every bound."""
    rng = np.random.default_rng(k)
    if kind == "haar":
        stack = np.array([haar_unitary(rng, k) for _ in range(18)])
    else:
        stack = (rng.standard_normal((18, k, k)) + 1j * rng.standard_normal((18, k, k))) / k
    stack = stack.reshape(2, 3, 3, k, k)
    if kind == "nan":
        stack[1, 2, 0, k - 1, 0] = np.nan
    want = np.array([_reference_defects(stack[i]) for i in np.ndindex(2, 3)]).reshape(2, 3, 2)
    got = np.stack([relator_defect(stack, RUNS_GROUP), unitarity_defect(stack)], axis=-1)
    assert got.shape == (2, 3, 2)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    for i in np.ndindex(2, 3):
        point = (relator_defect(RepPoint(stack[i]), RUNS_GROUP), unitarity_defect(stack[i]))
        assert all(type(d) is float for d in point)
        np.testing.assert_allclose(point, want[i], rtol=1e-12, atol=1e-12)
    finite = np.isfinite(got).all(axis=-1)
    assert finite.tolist() == [[True] * 3, [True, True, kind != "nan"]]
    assert not (got[~finite] <= np.inf).any()
    assert (got[..., 1] <= 1e-12).all() == (kind == "haar")


def test_verify_homomorphism_examples():
    p = RepPoint((np.eye(2, dtype=complex), np.eye(2, dtype=complex)))
    assert verify_homomorphism(p, Z2, 0.0)
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    Z = np.array([[1, 0], [0, -1]], dtype=complex)
    assert not verify_homomorphism(RepPoint((X, Z)), Z2, 1e-6)


def test_rep_point_immutable():
    p = RepPoint((np.eye(2, dtype=complex),))
    with pytest.raises(ValueError):
        p.matrices[0][0, 0] = 5.0


def test_rep_point_holds_one_read_only_stack():
    mats = np.stack([np.eye(2), np.diag([1.0, -1.0])])
    p = RepPoint(mats)
    assert p.matrices.shape == (2, 2, 2) and p.matrices.dtype == complex
    assert p.dimension == 2
    assert not p.matrices.flags.writeable
    mats[0, 0, 0] = 5.0  # the point holds its own copy
    assert p.matrices[0, 0, 0] == 1.0
    with pytest.raises(ValueError, match="dimension mismatch"):
        RepPoint((np.eye(2), np.eye(3)))
    with pytest.raises(ValueError, match="one stack"):
        RepPoint(np.stack([mats, mats]))


def test_unitarity_defect_of_no_matrices_is_zero_and_nan_fails():
    assert unitarity_defect(np.zeros((0, 3, 3))) == 0.0
    assert unitarity_defect(np.zeros((4, 0, 3, 3))).tolist() == [0.0] * 4
    assert not unitarity_defect(np.full((1, 2, 2), np.nan)) <= 1.0
    assert relator_defect(np.zeros((4, 0, 1, 1)), GroupPresentation(())).tolist() == [0.0] * 4


def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(0)
    for n in (1, 2, 5):
        u = haar_unitary(rng, n)
        assert np.allclose(u.conj().T @ u, np.eye(n), atol=1e-12)


def _counting(monkeypatch, name, rejected=()):
    """Count the calls of the method ``_Relators.<name>``; the calls numbered
    in ``rejected`` report an infinite defect, so their trial is rejected."""
    calls = [0]
    method = getattr(_Relators, name)

    def counted(self, *args):
        calls[0] += 1
        out = method(self, *args)
        return (np.inf, out[1]) if calls[0] in rejected else out

    monkeypatch.setattr(_Relators, name, counted)
    return calls


@pytest.mark.parametrize(
    "G, n, cfg, rejected, broke",
    [
        (klein_bottle(), 2, SolveConfig(seed=0), (), False),
        # the first two trials, then the first of the third iteration
        (klein_bottle(), 2, SolveConfig(seed=0), (2, 3, 6), False),
        (surface_group(2), 3, SolveConfig(seed=1), (2,), False),
        (Z2, 2, SolveConfig(seed=5, max_iter=0), (), False),
        (KLEIN_FOUR, 3, SolveConfig(seed=0), (), True),  # kicks, then gives up
    ],
)
def test_backtracks_count_the_rejected_trials(monkeypatch, G, n, cfg, rejected, broke):
    defects = _counting(monkeypatch, "defect", rejected)
    linearizations = _counting(monkeypatch, "linearize")
    res = solve_representation(G, n, cfg)
    # every iteration linearizes once; every defect after the first belongs
    # to a trial (accepted or rejected) or a kick, and each iteration
    # accepts a trial, kicks, or gives up
    assert linearizations[0] == res.iterations
    assert res.backtracks + res.iterations - broke == defects[0] - 1
    assert res.backtracks == len(rejected)
