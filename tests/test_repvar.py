import numpy as np
import pytest

from flatdetect.presentation import (
    Word,
    free_abelian,
    free_group,
    klein_bottle,
    parse_presentation,
    spell,
    surface_group,
)
from flatdetect.repvar import (
    RepPoint,
    SolveConfig,
    haar_unitary,
    relator_defect,
    solve_representation,
    unitarity_defect,
    verify_homomorphism,
    _defect_and_gradients,
    _riemannian_gradients,
)

Z2 = free_abelian(2)


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
    mats = [haar_unitary(rng, 2), haar_unitary(rng, 2)]
    G = klein_bottle()
    _, grads = _defect_and_gradients(mats, G.relators)

    eps = 1e-6
    for gi in range(2):
        num = np.zeros((2, 2), dtype=complex)
        for r in range(2):
            for c in range(2):
                for delta in (1.0, 1j):
                    plus = [m.copy() for m in mats]
                    minus = [m.copy() for m in mats]
                    plus[gi][r, c] += eps * delta
                    minus[gi][r, c] -= eps * delta
                    fp, _ = _defect_and_gradients(plus, G.relators)
                    fm, _ = _defect_and_gradients(minus, G.relators)
                    deriv = (fp - fm) / (2 * eps)
                    num[r, c] += deriv * delta  # real + i * imag parts
        assert np.allclose(num, grads[gi], atol=1e-5)


def test_gradient_of_a_relator_with_runs_matches_finite_differences():
    # a a b is stored as the runs ((0, 2), (1, 1)); the gradient takes it spelled
    rng = np.random.default_rng(11)
    mats = [haar_unitary(rng, 2), haar_unitary(rng, 2)]
    G = parse_presentation("gens: a b ; rels: a a b ;")
    assert G.relators[0].letters == ((0, 2), (1, 1))
    with pytest.raises(ValueError, match="spelled"):
        _defect_and_gradients(mats, G.relators)
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
                    plus = [m.copy() for m in mats]
                    minus = [m.copy() for m in mats]
                    plus[gi][r, c] += eps * delta
                    minus[gi][r, c] -= eps * delta
                    num[r, c] += (defect(plus) - defect(minus)) / (2 * eps) * delta
        assert np.allclose(num, grads[gi], atol=1e-5)


def test_solve_free_group_converges_instantly():
    res = solve_representation(free_group(3), 4, SolveConfig(seed=9))
    assert res.converged
    assert res.iterations == 0
    assert res.defect == 0.0


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


def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(0)
    for n in (1, 2, 5):
        u = haar_unitary(rng, n)
        assert np.allclose(u.conj().T @ u, np.eye(n), atol=1e-12)


def test_riemannian_gradient_is_tangent():
    rng = np.random.default_rng(8)
    mats = [haar_unitary(rng, 3), haar_unitary(rng, 3)]
    _, egrads = _defect_and_gradients(mats, Z2.relators)
    for u, rg in zip(mats, _riemannian_gradients(mats, egrads)):
        x = u.conj().T @ rg
        assert np.allclose(x, -x.conj().T, atol=1e-12)  # skew-Hermitian
