import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from flatdetect.presentation import (
    GroupPresentation,
    Word,
    free_abelian,
    free_group,
    klein_bottle,
    parse_presentation,
    spell,
    surface_group,
)
from flatdetect.repvar import (
    ARMIJO,
    INITIAL_STEP,
    MAX_BACKTRACKS,
    MAX_PERTURBATIONS,
    STEP_SHRINK,
    RepPoint,
    SolveConfig,
    haar_unitary,
    relator_defect,
    solve_representation,
    unitarity_defect,
    _Relators,
    _riemannian_gradients,
)

Z2 = free_abelian(2)


def verify_homomorphism(p: RepPoint, G: GroupPresentation, tol: float) -> bool:
    return relator_defect(p, G) <= tol and p.unitarity_defect() <= tol


# ---------------------------------------------------------------------------
# Reference: the list-based defect, gradients and solver loop, one matrix per
# generator, that the stacked solver replaced.  The stacked code must agree
# with it bit for bit.
# ---------------------------------------------------------------------------


def _reference_polar(y):
    u, _, vh = np.linalg.svd(y)
    return u @ vh


def _reference_defect_and_gradients(mats, relators):
    """Defect plus per-generator Euclidean gradients, relator by relator and
    letter by letter (relators spelled as letters of exponent +-1)."""
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


def _reference_riemannian_gradients(mats, egrads):
    out = []
    for u, g in zip(mats, egrads):
        x = u.conj().T @ g
        out.append(u @ ((x - x.conj().T) / 2.0))
    return out


def _reference_solve(G, n, cfg):
    """(matrices, defect, iterations, defect_history, max_unitarity_defect)."""
    rng = np.random.default_rng(cfg.seed)
    mats = [haar_unitary(rng, n) for _ in G.generators]
    relators = tuple(spell(r) for r in G.relators)
    defect, egrads = _reference_defect_and_gradients(mats, relators)
    history = [defect]
    max_udef = unitarity_defect(mats)
    best = ([m.copy() for m in mats], defect)
    perturbations = 0
    iters = 0
    step = INITIAL_STEP
    while defect > cfg.tolerance and iters < cfg.max_iter:
        iters += 1
        rgrads = _reference_riemannian_gradients(mats, egrads)
        gnorm2 = sum(float(np.linalg.norm(g) ** 2) for g in rgrads)
        accepted = False
        if gnorm2 > 1e-28:
            step = min(2.0 * step, 1e6)
            for _ in range(MAX_BACKTRACKS):
                trial = [_reference_polar(u - step * g) for u, g in zip(mats, rgrads)]
                tdefect, tgrads = _reference_defect_and_gradients(trial, relators)
                if tdefect <= defect - ARMIJO * step * gnorm2:
                    mats, defect, egrads = trial, tdefect, tgrads
                    accepted = True
                    break
                step *= STEP_SHRINK
        if not accepted:
            if perturbations >= MAX_PERTURBATIONS:
                break
            perturbations += 1
            kicked = []
            for u in mats:
                a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                skew = (a - a.conj().T) / 2.0
                kicked.append(_reference_polar(u + 1e-2 * u @ skew))
            mats = kicked
            defect, egrads = _reference_defect_and_gradients(mats, relators)
            step = INITIAL_STEP
        history.append(defect)
        max_udef = max(max_udef, unitarity_defect(mats))
        if defect < best[1]:
            best = ([m.copy() for m in mats], defect)
    if best[1] < defect:
        mats, defect = best[0], best[1]
    return tuple(mats), defect, iters, tuple(history), max_udef


def _defect_and_gradients(mats, relators):
    """The stacked defect and gradients at the stack ``mats``."""
    mats = np.asarray(mats)
    rels = _Relators(relators, len(mats), mats.shape[-1])
    defect, products = rels.defect(mats)
    return defect, rels.gradients(products)


@st.composite
def _presentations(draw):
    """Up to three generators and up to four relators of mixed lengths; a
    relator may reduce to runs of larger exponent or to the empty word."""
    gens = draw(st.integers(1, 3))
    letter = st.tuples(st.integers(0, gens - 1), st.sampled_from((1, -1)))
    relators = draw(st.lists(st.lists(letter, max_size=7), max_size=4))
    return GroupPresentation(tuple("abc"[:gens]), tuple(Word(tuple(r)) for r in relators))


FREE2 = GroupPresentation(("a", "b"))


@settings(max_examples=150, deadline=None)
@given(_presentations(), st.integers(1, 4), st.integers(0, 2**32 - 1))
@example(FREE2, 2, 0)
def test_stacked_defect_and_gradients_equal_the_reference_bit_for_bit(G, k, seed):
    rng = np.random.default_rng(seed)
    shape = (len(G.generators), k, k)
    mats = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    relators = tuple(spell(r) for r in G.relators)
    defect, grads = _defect_and_gradients(mats, relators)
    ref_defect, ref_grads = _reference_defect_and_gradients(list(mats), relators)
    assert defect == ref_defect
    assert np.array_equal(grads, ref_grads)
    rgrads = _riemannian_gradients(mats, grads)
    assert np.array_equal(rgrads, _reference_riemannian_gradients(list(mats), ref_grads))


def _assert_solves_equal(G, n, cfg):
    res = solve_representation(G, n, cfg)
    mats, defect, iters, history, max_udef = _reference_solve(G, n, cfg)
    assert np.array_equal(res.point.matrices, mats)
    assert res.defect == defect
    assert res.iterations == iters
    assert res.defect_history == history
    assert res.max_unitarity_defect == max_udef
    return res


@settings(max_examples=60, deadline=None)
@given(
    _presentations(), st.integers(1, 4), st.integers(0, 2**32 - 1), st.integers(0, 30)
)
@example(FREE2, 3, 0, 30)
def test_solve_equals_the_reference_solver_bit_for_bit(G, k, seed, max_iter):
    _assert_solves_equal(G, k, SolveConfig(max_iter=max_iter, seed=seed))


KLEIN_FOUR = parse_presentation("gens: a b ; rels: a a , b b , a b a b ;")


@pytest.mark.parametrize(
    "G, n, seed",
    [
        (klein_bottle(), 2, 0),
        (surface_group(2), 3, 1),
        (free_abelian(3), 4, 2),
        # stalls: 20 seeded kicks, then the solver gives up unconverged
        (KLEIN_FOUR, 3, 0),
    ],
)
def test_full_solves_equal_the_reference_solver_bit_for_bit(G, n, seed):
    _assert_solves_equal(G, n, SolveConfig(seed=seed))


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


def test_gradient_matches_finite_differences():
    # oracle: central finite differences of the ambient defect
    rng = np.random.default_rng(7)
    mats = np.stack([haar_unitary(rng, 2), haar_unitary(rng, 2)])
    G = klein_bottle()
    _, grads = _defect_and_gradients(mats, G.relators)

    eps = 1e-6
    for gi in range(2):
        num = np.zeros((2, 2), dtype=complex)
        for r in range(2):
            for c in range(2):
                for delta in (1.0, 1j):
                    plus = mats.copy()
                    minus = mats.copy()
                    plus[gi, r, c] += eps * delta
                    minus[gi, r, c] -= eps * delta
                    fp, _ = _defect_and_gradients(plus, G.relators)
                    fm, _ = _defect_and_gradients(minus, G.relators)
                    deriv = (fp - fm) / (2 * eps)
                    num[r, c] += deriv * delta  # real + i * imag parts
        assert np.allclose(num, grads[gi], atol=1e-5)


def test_gradient_of_a_relator_with_runs_matches_finite_differences():
    # a a b is stored as the runs ((0, 2), (1, 1)); the gradient takes it spelled
    rng = np.random.default_rng(11)
    mats = np.stack([haar_unitary(rng, 2), haar_unitary(rng, 2)])
    G = parse_presentation("gens: a b ; rels: a a b ;")
    assert G.relators[0].letters == ((0, 2), (1, 1))
    with pytest.raises(ValueError, match="spelled"):
        _Relators(G.relators, 2, 2)
    relators = tuple(spell(r) for r in G.relators)
    _, grads = _defect_and_gradients(mats, relators)

    def defect(ms):
        # oracle: ||A A B - I||^2 written out directly
        return float(np.linalg.norm(ms[0] @ ms[0] @ ms[1] - np.eye(2)) ** 2)

    eps = 1e-6
    for gi in range(2):
        num = np.zeros((2, 2), dtype=complex)
        for r in range(2):
            for c in range(2):
                for delta in (1.0, 1j):
                    plus = mats.copy()
                    minus = mats.copy()
                    plus[gi, r, c] += eps * delta
                    minus[gi, r, c] -= eps * delta
                    num[r, c] += (defect(plus) - defect(minus)) / (2 * eps) * delta
        assert np.allclose(num, grads[gi], atol=1e-5)


def test_solve_free_group_converges_instantly():
    res = solve_representation(free_group(3), 4, SolveConfig(seed=9))
    assert res.converged
    assert res.iterations == 0
    assert res.defect == 0.0


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


def test_riemannian_gradient_is_tangent():
    rng = np.random.default_rng(8)
    mats = np.stack([haar_unitary(rng, 3), haar_unitary(rng, 3)])
    _, egrads = _defect_and_gradients(mats, Z2.relators)
    for u, rg in zip(mats, _riemannian_gradients(mats, egrads)):
        x = u.conj().T @ rg
        assert np.allclose(x, -x.conj().T, atol=1e-12)  # skew-Hermitian


def _counting(monkeypatch, name):
    """Count the calls of the method ``_Relators.<name>``."""
    calls = [0]
    method = getattr(_Relators, name)

    def counted(self, *args):
        calls[0] += 1
        return method(self, *args)

    monkeypatch.setattr(_Relators, name, counted)
    return calls


@pytest.mark.parametrize(
    "G, n, cfg, broke",
    [
        (klein_bottle(), 2, SolveConfig(seed=0), False),
        (surface_group(2), 3, SolveConfig(seed=1), False),
        (Z2, 2, SolveConfig(seed=5, max_iter=0), False),
        (KLEIN_FOUR, 3, SolveConfig(seed=0), True),  # kicks, then gives up
    ],
)
def test_backtracks_count_the_rejected_trials(monkeypatch, G, n, cfg, broke):
    defects = _counting(monkeypatch, "defect")
    gradients = _counting(monkeypatch, "gradients")
    res = solve_representation(G, n, cfg)
    # every defect after the first belongs to a line-search trial or a kick;
    # every gradient after the first to an accepted trial or a kick
    accepted_or_kicked = gradients[0] - 1
    assert res.backtracks + accepted_or_kicked == defects[0] - 1
    # each iteration accepts a step, kicks, or gives up
    assert accepted_or_kicked == res.iterations - broke
    if cfg.max_iter:
        assert res.backtracks > 0
    else:
        assert res.backtracks == 0
