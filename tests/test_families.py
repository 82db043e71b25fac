import contextlib
import dataclasses
import io
import itertools
import json
import random
import re
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path
from typing import Sequence
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flatdetect import cli, detect, families
from flatdetect.charforms import (
    MultiForm,
    UnderSampledLoopError,
    _accumulate,
    _permutation_sign,
    format_combination,
    winding_number,
    xgen,
    zgen,
)
from flatdetect.detect import (
    _COLUMNS,
    SIGN_CONVENTIONS,
    DetectionReport,
    SparseMatrix,
    _combine,
    rational_homology,
)
from flatdetect.families import (
    DisjointUnionSpace,
    Family,
    FinitePointSet,
    KleinBottleCover,
    ParameterSpace,
    ProductSpace,
    SublatticeCover,
    TorusGrid,
    character_family_Zn,
    circle_cover,
    direct_sum,
    disjoint_union,
    extend_free_product,
    holonomy_loop,
    induce_family,
    numeric_c1_windings,
    pullback_family,
    tensor_families,
    trivial_family,
    verify_family,
)
from flatdetect.repvar import relator_defect, unitarity_defect
from flatdetect.presentation import (
    GroupPresentation,
    PresentationError,
    Word,
    commutator,
    evaluate_word,
    format_presentation,
    format_word,
    free_abelian,
    free_group,
    free_reduce,
    klein_bottle,
    parse_presentation,
    spell,
)


# ---------------------------------------------------------------------------
# parameter spaces
# ---------------------------------------------------------------------------


def test_torus_grid_points_and_loop():
    g = TorusGrid(2, 4)
    assert g.components == ((4, 4),)
    loop = g.axis_loop(0, 1, samples=8)
    assert loop.shape == (9, 2)
    assert loop[-1].tolist() == [0.0, 1.0]  # closes mod 1
    with pytest.raises(ValueError):
        TorusGrid(2, 1)


def test_product_loop_holds_other_factor_at_its_first_point():
    # the first point of a factor is its origin: every other coordinate is 0
    left = ProductSpace(FinitePointSet(2), TorusGrid(1, 4))
    assert left.axis_loop(1, 0).tolist() == [[j / 4] for j in range(5)]
    right = ProductSpace(TorusGrid(1, 2), TorusGrid(2, 2))
    assert right.axis_loop(0, 2).tolist() == [[0.0, 0.0, j / 2] for j in range(3)]


def test_union_loop_is_the_component_loop():
    u = DisjointUnionSpace(FinitePointSet(1), ProductSpace(FinitePointSet(2), TorusGrid(1, 2)))
    # component 2 is the right side's second component
    assert u.axis_loop(2, 0).tolist() == [[j / 2] for j in range(3)]
    with pytest.raises(ValueError, match="out of range"):
        u.axis_loop(0, 0)


def test_component_bound_is_checked_before_the_components_are_built(tmp_path, monkeypatch):
    # 2^24 components would take seconds to build; the count alone refuses them
    big = FinitePointSet(families.MAX_COMPONENTS)
    with pytest.raises(ValueError, match="of 16777216 components is more than the 4096"):
        ProductSpace(big, big)
    (tmp_path / "e.grp").write_text("gens: ; rels: ;\n")
    point = expr = "trivial(group=e.grp)"
    for _ in range(13):  # a point pair tensored in 13 times: 2^13 components
        expr = f"tensor(union({point}, {point}), {expr})"
    (tmp_path / "f.fam").write_text(expr + "\n")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert cli.run(["family", "build", "--expr", str(tmp_path / "f.fam")]) == 3
    assert "a parameter space of 8192 components is more than the 4096" in err.getvalue()
    monkeypatch.setattr(families, "MAX_COMPONENTS", 6)
    assert ProductSpace(FinitePointSet(2), FinitePointSet(3)).n_components == 6
    assert DisjointUnionSpace(FinitePointSet(2), FinitePointSet(4)).n_components == 6
    with pytest.raises(ValueError, match="of 7 components is more than the 6"):
        DisjointUnionSpace(FinitePointSet(3), FinitePointSet(4))


@st.composite
def _space_tree(draw, depth: int = 2):
    """A parameter space and, from the definitions, its per-component grid
    resolutions: products pair components left-major, unions concatenate."""
    kind = draw(st.sampled_from(["torus", "points"] + (["product", "union"] if depth else [])))
    if kind == "torus":
        # at r = 10, j * (1 / r) and j / r differ in the last bit for some j
        r = draw(st.sampled_from([2, 3, 10]))
        dim = 1 if r == 10 else draw(st.integers(1, 2))
        return TorusGrid(dim, r), [(r,) * dim]
    if kind == "points":
        count = draw(st.integers(1, 3))
        return FinitePointSet(count), [()] * count
    (left, rl), (right, rr) = draw(_space_tree(depth - 1)), draw(_space_tree(depth - 1))
    if kind == "union":
        return DisjointUnionSpace(left, right), rl + rr
    return ProductSpace(left, right), [a + b for a in rl for b in rr]


@settings(max_examples=60, deadline=None)
@given(_space_tree())
def test_space_tree_components_follow_the_definitions(tree):
    space, res = tree
    assert space.components == tuple(res)
    assert space.n_components == len(res)
    assert [space.component_x_dim(ci) for ci in range(len(res))] == [len(r) for r in res]


def test_base_dim_is_derived_from_group_and_forms():
    assert character_family_Zn(3, 2).base_dim == 3
    t = tensor_families(character_family_Zn(1, 2), trivial_family(free_group(2)))
    assert t.base_dim == 3
    assert induce_family(character_family_Zn(2, 2), KleinBottleCover()).base_dim is None


def test_every_space_is_one_parameter_space_value():
    spaces = [
        TorusGrid(2, 3),
        FinitePointSet(2),
        ProductSpace(TorusGrid(1, 2), FinitePointSet(2)),
        DisjointUnionSpace(FinitePointSet(1), TorusGrid(1, 4)),
    ]
    assert all(type(s) is ParameterSpace for s in spaces)
    assert [s.describe() for s in spaces] == [
        "T^2[3]", "pts[2]", "(T^1[2] x pts[2])", "(pts[1] | T^1[4])",
    ]
    assert spaces[2] == ProductSpace(TorusGrid(1, 2), FinitePointSet(2))
    assert spaces[2] != DisjointUnionSpace(TorusGrid(1, 2), FinitePointSet(2))
    with pytest.raises(ValueError, match="point count"):
        FinitePointSet(0)
    with pytest.raises(ValueError, match="torus dimension"):
        TorusGrid(0, 4)


def test_component_bookkeeping():
    u = DisjointUnionSpace(TorusGrid(1, 4), FinitePointSet(3))
    assert u.n_components == 4
    assert u.component_x_dim(0) == 1
    assert u.component_x_dim(2) == 0
    p = ProductSpace(TorusGrid(1, 2), TorusGrid(2, 2))
    assert p.n_components == 1
    assert p.component_x_dim(0) == 3
    assert u.components == ((4,), (), (), ())
    p = ProductSpace(
        DisjointUnionSpace(TorusGrid(1, 2), FinitePointSet(1)),
        DisjointUnionSpace(TorusGrid(2, 3), FinitePointSet(1)),
    )
    assert p.components == ((2, 3, 3), (2,), (3, 3), ())  # left-major


# ---------------------------------------------------------------------------
# character families
# ---------------------------------------------------------------------------


def test_character_family_values():
    f = character_family_Zn(1, 4)
    assert np.allclose(f.evaluate([0.0]).matrices[0], [[1.0]])
    assert np.allclose(f.evaluate([0.5]).matrices[0], [[-1.0]])


def test_evaluate_rejects_nested_points_and_wrong_components():
    t = tensor_families(character_family_Zn(1, 4), character_family_Zn(1, 4))
    assert np.allclose(t.evaluate([0.25, 0.5]).matrices[1], [[-1.0]])
    for bad in (((0.25,), (0.5,)), [0.25], 0):
        with pytest.raises(ValueError, match="not a stack of rows"):
            t.evaluate(bad)
    with pytest.raises(ValueError, match="not a stack of rows of component 1"):
        t.evaluate_batch(np.zeros((1, 2)), 1)


def test_character_family_chern():
    """char_zn builds its factors 1 + z_j^x_j as stores directly; its form
    equals the product of the same factors built through the public API."""
    expected = MultiForm.constant(1)
    for n in range(1, 9):
        expected = expected * (1 + zgen(n) * xgen(n))
        ch = character_family_Zn(n, 2 + n).chern[0]
        assert ch == expected
        assert ch.terms() == expected.terms() and len(ch.terms()) == 2**n


def test_character_family_verifies():
    assert verify_family(character_family_Zn(2, 8))


# ---------------------------------------------------------------------------
# tensor
# ---------------------------------------------------------------------------


def test_tensor_scalar_characters_multiply():
    f = character_family_Zn(1, 4)
    g = character_family_Zn(1, 4)
    t = tensor_families(f, g)
    x, y = 0.25, 0.75
    rep = t.evaluate([x, y])
    assert np.allclose(
        rep.matrices[0] @ rep.matrices[1],
        [[np.exp(2j * np.pi * (x + y))]],
    )


def test_tensor_dimensions_multiply():
    two = direct_sum(character_family_Zn(1, 4), character_family_Zn(1, 4))
    three = direct_sum(two, character_family_Zn(1, 4))
    t = tensor_families(two, three)
    assert t.fiber_dims == (6,)


def test_tensor_chern_is_product():
    f = character_family_Zn(1, 4)
    g = character_family_Zn(2, 4)
    t = tensor_families(f, g)
    shifted = g.chern[0].shift(z_offset=1, x_offset=1)
    assert t.chern[0] == f.chern[0] * shifted


def test_tensor_trace_identity_on_samples():
    f = character_family_Zn(1, 4)
    g = direct_sum(character_family_Zn(1, 4), character_family_Zn(1, 4))
    t = tensor_families(f, g)
    for pl, pr in itertools.product(np.arange(4) / 4, repeat=2):
        A = f.evaluate([pl]).matrices[0]
        B = g.evaluate([pr]).matrices[0]
        K = t.evaluate([pl, pr]).matrices[0] @ t.evaluate([pl, pr]).matrices[1]
        # product of the two generator images equals A (x) B
        assert abs(np.trace(np.kron(A, B)) - np.trace(A) * np.trace(B)) < 1e-10
        assert np.allclose(K, np.kron(A, B), atol=1e-10)


def test_tensor_verifies_as_homomorphism():
    t = tensor_families(character_family_Zn(1, 3), character_family_Zn(1, 3))
    assert verify_family(t)


# ---------------------------------------------------------------------------
# extend across free products
# ---------------------------------------------------------------------------


def test_extend_second_generator_acts_trivially():
    F2 = free_group(2, ("a", "b"))
    f = extend_free_product(character_family_Zn(1, 4, ("a",)), F2)
    rep = f.evaluate([0.25])
    assert np.allclose(rep.matrices[0], [[1j]])
    assert np.allclose(rep.matrices[1], [[1.0]])
    assert verify_family(f)
    assert f.chern[0] == 1 + zgen(1) * xgen(1)


def test_extend_relabels_base_generators():
    F2 = free_group(2, ("a", "b"))
    f = extend_free_product(character_family_Zn(1, 4, ("b",)), F2)
    assert f.chern[0] == 1 + zgen(2) * xgen(1)


def test_extend_trivial_family_stays_trivial():
    F2 = free_group(2, ("a", "b"))
    t = trivial_family(free_group(1, ("a",)), dim=2)
    e = extend_free_product(t, F2)
    rep = e.evaluate(())
    assert all(np.allclose(m, np.eye(2)) for m in rep.matrices)


def test_extend_generator_mismatch():
    F2 = free_group(2, ("a", "b"))
    with pytest.raises(ValueError, match="absent"):
        extend_free_product(character_family_Zn(1, 4, ("c",)), F2)


def test_extend_rejects_mixed_relators():
    G = free_abelian(2, ("a", "b"))  # commutator mixes the factors
    with pytest.raises(ValueError, match="mixes"):
        extend_free_product(character_family_Zn(1, 4, ("a",)), G)


def test_extend_accepts_rotated_and_inverted_relators_of_the_family_group():
    E = parse_presentation("gens: a b ; rels: a a b b ;")
    for rels in ("a b b a", "b^-1 b^-1 a^-1 a^-1", "b^-1 a^-1 a^-1 b^-1 , c c"):
        G = parse_presentation(f"gens: c a b ; rels: {rels} ;")
        assert verify_family(extend_free_product(trivial_family(E), G))
    z2 = character_family_Zn(2, 4, ("a", "b"))
    G = parse_presentation("gens: a b c ; rels: b a^-1 b^-1 a ;")
    assert verify_family(extend_free_product(z2, G))


def test_extend_rejects_ambient_relators_foreign_to_the_family_group():
    z2 = character_family_Zn(2, 4, ("a", "b"))
    for rels in ("a b a b^-1", "a b"):
        G = parse_presentation(f"gens: a b ; rels: {rels} ;")
        with pytest.raises(ValueError, match=re.escape(f"relator '{rels}' is not")):
            extend_free_product(z2, G)
    # the other direction: F3 is not <a, b | a a b b> * F
    E = parse_presentation("gens: a b ; rels: a a b b ;")
    with pytest.raises(ValueError, match=re.escape(
            "relator 'a a b b' of the family's group is not an ambient relator")):
        extend_free_product(trivial_family(E), parse_presentation("gens: c a b ; rels: ;"))


# ---------------------------------------------------------------------------
# disjoint union and direct sum
# ---------------------------------------------------------------------------


def test_disjoint_union_structure():
    f = character_family_Zn(1, 4)
    u = disjoint_union(f, f)
    assert u.space.n_components == 2
    assert u.fiber_dims == (1, 1)
    assert u.chern == f.chern + f.chern
    assert verify_family(u)


def test_disjoint_union_group_mismatch():
    with pytest.raises(ValueError, match="same group"):
        disjoint_union(character_family_Zn(1, 4), character_family_Zn(2, 4))


def test_disjoint_union_mixed_ranks_allowed():
    f = character_family_Zn(1, 4)
    g = direct_sum(f, f)
    u = disjoint_union(f, g)
    assert u.fiber_dims == (1, 2)
    assert verify_family(u)


def test_direct_sum_ranks_and_chern_add():
    f = character_family_Zn(2, 4)
    s = direct_sum(f, f)
    assert s.fiber_dims == (2,)
    assert s.chern[0] == 2 * f.chern[0]
    assert verify_family(s)


def test_direct_sum_space_mismatch():
    with pytest.raises(ValueError, match="same parameter space"):
        direct_sum(character_family_Zn(1, 4), character_family_Zn(1, 8))


# ---------------------------------------------------------------------------
# covers: pullback and induction
# ---------------------------------------------------------------------------


def test_circle_cover_rewrite():
    cov = circle_cover(2)
    assert cov.index == 2
    assert cov.rewrite(Word(((0, 1), (0, 1)))) == Word(((0, 1),))
    assert cov.rewrite(Word(((0, 1),))) is None


def test_induce_trivial_from_double_cover_is_swap():
    # oracle: direct block construction for the regular representation of Z/2
    triv = trivial_family(free_abelian(1))
    cov = circle_cover(2)
    ind = induce_family(triv, cov)
    m = ind.evaluate(()).matrices[0]
    assert np.allclose(m, [[0, 1], [1, 0]])
    assert abs(np.trace(m)) < 1e-14


def test_induce_character_from_double_cover():
    # oracle: block matrix arithmetic: Ind(a) = [[0, e^{2 pi i x}], [1, 0]]
    f = character_family_Zn(1, 8)
    cov = circle_cover(2)
    ind = induce_family(f, cov)
    x = 3 / 8
    a = ind.evaluate([x]).matrices[0]
    phase = np.exp(2j * np.pi * x)
    assert np.allclose(a, [[0, phase], [1, 0]])
    assert abs(np.trace(a)) < 1e-14
    assert abs(np.trace(a @ a) - 2 * phase) < 1e-12
    assert ind.chern[0] == 2 + zgen(1) * xgen(1)
    assert verify_family(ind)


def test_induce_klein_bottle_blocks():
    # oracle: hand-computed blocks for cosets {e, b}:
    #   a -> diag(e^{2 pi i x1}, e^{-2 pi i x1}),  b -> [[0, e^{2 pi i x2}], [1, 0]]
    f = character_family_Zn(2, 8)
    cov = KleinBottleCover()
    ind = induce_family(f, cov)
    x1, x2 = 1 / 8, 3 / 8
    rep = ind.evaluate([x1, x2])
    p1 = np.exp(2j * np.pi * x1)
    p2 = np.exp(2j * np.pi * x2)
    assert np.allclose(rep.matrices[0], np.diag([p1, np.conj(p1)]))
    assert np.allclose(rep.matrices[1], [[0, p2], [1, 0]])
    assert ind.chern is None  # no rational base model for the Klein bottle
    assert verify_family(ind)


def test_induced_family_is_homomorphic_at_all_grid_points():
    ind = induce_family(character_family_Zn(2, 4), KleinBottleCover())
    assert verify_family(ind)
    grid = np.array(list(itertools.product(np.arange(4) / 4, repeat=2)))
    stack = ind.evaluate_batch(grid)
    assert relator_defect(stack, ind.group).max() <= 1e-12
    assert unitarity_defect(stack).max() <= 1e-12


def test_induction_character_identity_circle():
    f = character_family_Zn(1, 8)
    cov = circle_cover(3)
    ind = induce_family(f, cov)
    x = [5 / 8]
    rho = f.evaluate(x)
    for exps in itertools.product([1, -1], repeat=4):
        for L in range(5):
            w = free_reduce(Word(tuple((0, e) for e in exps[:L])))
            lhs = np.trace(evaluate_word(w, ind.evaluate(x)))
            rhs = sum(
                np.trace(evaluate_word(h, rho))
                for t in cov.cosets
                if (h := cov.rewrite(free_reduce(t.inverse() * w * t))) is not None
            )
            assert abs(lhs - rhs) < 1e-8


def test_invalid_coset_system():
    f = character_family_Zn(1, 4)
    cov = circle_cover(2, cosets=[Word(()), Word(((0, 1), (0, 1)))])
    # both representatives in the same coset: a*t_j never lands anywhere
    with pytest.raises(ValueError, match="invalid coset system"):
        induce_family(f, cov)


def test_pullback_speeds_up_character():
    f = character_family_Zn(1, 8)
    cov = circle_cover(3)
    p = pullback_family(f, cov)
    x = 1 / 8
    assert np.allclose(p.evaluate([x]).matrices[0], [[np.exp(2j * np.pi * 3 * x)]])
    assert p.chern[0] == 1 + 3 * zgen(1) * xgen(1)


def test_sublattice_cover_torus():
    amb = free_abelian(2)
    cov = SublatticeCover(amb, [[2, 0], [0, 1]], [Word(()), Word(((0, 1),))])
    assert cov.index == 2
    # a^2 b^-1 is in the sublattice, a b is not
    assert cov.rewrite(Word(((0, 1), (0, 1), (1, -1)))) == Word(((0, 1), (1, -1)))
    assert cov.rewrite(Word(((0, 1), (1, 1)))) is None
    ind = induce_family(pullback_family(character_family_Zn(2, 4), cov), cov)
    assert ind.fiber_dims == (2,)
    assert verify_family(ind)


def test_sublattice_index_is_exact_for_large_unimodular_basis():
    # det = (2^40+1)(2^40-1) - 2^80 = -1; a float determinant reads 0.0 here
    big = 2**40
    cov = SublatticeCover(free_abelian(2), [[big + 1, big], [big, big - 1]], [Word(())])
    assert cov.index == 1
    with pytest.raises(ValueError, match="singular"):
        SublatticeCover(free_abelian(2), [[big, big], [big, big]], [Word(())])


def test_cover_words_hold_each_entry_as_one_run():
    big = 2**40
    cov = SublatticeCover(free_abelian(2), [[big + 1, big], [big, big - 1]], [Word(())])
    assert cov.sub_generator_words == (
        Word(((0, big + 1), (1, big))),
        Word(((0, big), (1, big - 1))),
    )
    # the inverse basis is [[1 - big, big], [big, -1 - big]]
    assert cov.rewrite(Word(((0, 1),))) == Word(((0, 1 - big), (1, big)))
    assert KleinBottleCover().sub_generator_words == (Word(((0, 1),)), Word(((1, 2),)))
    assert [c.letters for c in circle_cover(3).cosets] == [(), ((0, 1),), ((0, 2),)]


def test_klein_cover_fields():
    # every field pinned: diag(1, 2) on Z^2, b reversing a
    cov = KleinBottleCover()
    assert cov.ambient == klein_bottle()
    assert cov.cosets == (Word(()), Word(((1, 1),)))
    assert (cov.det, cov.adjugate, cov.index) == (2, ((2, 0), (0, 1)), 2)
    assert cov.holonomy == ((1, 1), (-1, 1))
    assert cov.sub_generator_words == (Word(((0, 1),)), Word(((1, 2),)))
    assert cov.label == cov.describe() == "klein_even(index=2)"
    words = KleinBottleCover(klein_bottle(), [Word(()), Word(((1, -1),))])
    assert words == dataclasses.replace(cov, cosets=(Word(()), Word(((1, -1),))))


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: KleinBottleCover(cosets=[Word(())]), "need 2 coset representatives, got 1"),
        (lambda: KleinBottleCover(cosets=[]), "need 2 coset representatives, got 0"),
        (lambda: circle_cover(3, cosets=[Word(())] * 4), "need 3 coset representatives, got 4"),
        (lambda: KleinBottleCover(free_abelian(2)), "lacks the cover's relator 't1 t2 t1 t2^-1'"),
        (lambda: KleinBottleCover(free_abelian(3)), "basis must be 3 x 3"),
        (lambda: circle_cover(2, free_abelian(2)), "basis must be 2 x 2"),
        # the model relators hold, but another ambient relator does not
        (lambda: circle_cover(2, parse_presentation("gens: a ; rels: a a ;")),
         "ambient relator 'a a' does not hold in the cover's model group"),
        (lambda: KleinBottleCover(parse_presentation("gens: a b ; rels: b a b^-1 a , b b ;")),
         "ambient relator 'b b' does not hold in the cover's model group"),
    ],
)
def test_every_cover_runs_the_constructor_checks(make, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        make()


@given(st.lists(st.tuples(st.integers(0, 1), st.integers(-6, 6)), max_size=8))
def test_klein_rewrite_of_runs_matches_the_spelled_word(runs):
    # oracle: the same word written letter by letter
    spelled = [(g, 1 if e > 0 else -1) for g, e in runs for _ in range(abs(e))]
    cov = KleinBottleCover()
    assert cov.rewrite(Word(tuple(runs))) == cov.rewrite(Word(tuple(spelled)))


def _exponent_sum(w: Word, g: int) -> int:
    return sum(e for h, e in w.letters if h == g)


def reduce_rows(rows) -> list[dict]:
    """Forward elimination over Q of sparse rows ``{column: nonzero
    Fraction}``, in order: row i minus the multiples of the earlier nonzero
    reduced rows that clear their pivots (least columns) from it.  Returns
    the reduced rows in input order, each empty exactly when its row depends
    on the rows before it; sorted by pivot, the nonzero ones are echelon.
    The reference of ``detect._dependencies``, which eliminates in integers."""
    pivots: dict = {}  # pivot column -> its reduced row
    out = []
    for row in rows:
        row = dict(row)
        # a pivot row is zero left of its pivot, so clearing pivots in
        # ascending order never refills a cleared one
        while (hit := min((col for col in row if col in pivots), default=None)) is not None:
            prow = pivots[hit]
            factor = row[hit] / prow[hit]
            for col, v in prow.items():
                _accumulate(row, col, -factor * v)
        if row:
            pivots[min(row)] = row
        out.append(row)
    return out


def _det_and_inverse(m: Sequence[Sequence]) -> tuple[Fraction, list | None]:
    """Reference determinant and inverse of a square rational matrix over Q;
    the inverse is None when singular.  ``reduce_rows`` on [m | I] keeps the
    determinant and leaves rows upper triangular on m once sorted by pivot;
    reducing them again in descending pivot order leaves m's diagonal."""
    n = len(m)
    rows = reduce_rows(
        {**{j: Fraction(v) for j, v in enumerate(row) if v}, n + i: Fraction(1)}
        for i, row in enumerate(m)
    )
    pivots = [min(row) for row in rows]
    if any(p >= n for p in pivots):  # a row of m depends on the rows before it
        return Fraction(0), None
    det = Fraction((-1) ** sum(a > b for i, a in enumerate(pivots) for b in pivots[i + 1:]))
    for p, row in zip(pivots, rows):
        det *= row[p]
    diagonal = {min(row): row for row in reduce_rows(sorted(rows, key=min, reverse=True))}
    return det, [[diagonal[p].get(n + j, 0) / diagonal[p][p] for j in range(n)] for p in range(n)]


def _sublattice_rewrite_ref(basis, w: Word):
    """The rational rewrite: the basis inverse times the exponent sums,
    None unless every coordinate is an integer."""
    _, inverse = _det_and_inverse(basis)
    v = [_exponent_sum(w, g) for g in range(len(basis))]
    coeffs = [sum(Fraction(a) * x for a, x in zip(row, v)) for row in inverse]
    if any(c.denominator != 1 for c in coeffs):
        return None
    return free_reduce(Word(tuple((j, int(c)) for j, c in enumerate(coeffs))))


def _klein_rewrite_ref(w: Word):
    """The normal form a^m b^n: moving a past an odd power of b inverts it."""
    m = n = 0
    for g, e in w.letters:
        if g == 1:
            n += e
        else:
            m += e if n % 2 == 0 else -e
    if n % 2:
        return None
    return free_reduce(Word(((0, m), (1, n // 2))))


_ENTRY = st.one_of(
    st.integers(-3, 3),
    st.integers(2**40 - 2, 2**40 + 2),
    st.integers(-(2**40) - 2, -(2**40) + 2),
)


@st.composite
def _runs(draw, v):
    """A word whose exponent sums are ``v``: each sum split into two runs,
    the runs in random order, so that a generator's runs need not meet."""
    runs = []
    for g, total in enumerate(v):
        part = draw(st.integers(-3, 3))
        runs += [(g, part), (g, total - part)]
    return Word(tuple(draw(st.permutations(runs))))


@st.composite
def _cover_and_word(draw):
    """A random cover with its reference rewrite, and a word in the ambient
    generators that lies in the subgroup about half of the time."""
    if draw(st.booleans()):
        runs = draw(st.lists(st.tuples(st.integers(0, 1), _ENTRY), max_size=8))
        return KleinBottleCover(), _klein_rewrite_ref, Word(tuple(runs))
    n = draw(st.integers(1, 3))
    small = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                          min_size=n, max_size=n)
                 .filter(lambda m: _det_and_inverse(m)[0] != 0))
    basis = [row[:] for row in small]
    for _ in range(2 if n > 1 else 0):  # unimodular shears with entries near 2^40
        i, j = draw(st.permutations(range(n)))[:2]
        t = draw(_ENTRY)
        basis[i] = [a + t * b for a, b in zip(basis[i], basis[j])]
    # rewrite reads no coset, so any |det| words make a cover of this lattice
    index = abs(int(_det_and_inverse(small)[0]))
    cover = SublatticeCover(free_abelian(n), basis, [Word(())] * index)
    coords = draw(st.lists(_ENTRY, min_size=n, max_size=n))
    offset = draw(st.lists(st.integers(-1, 1), min_size=n, max_size=n) | st.just([0] * n))
    v = [sum(basis[i][j] * coords[j] for j in range(n)) + offset[i] for i in range(n)]
    return cover, lambda w: _sublattice_rewrite_ref(basis, w), draw(_runs(v))


@settings(max_examples=300, deadline=None)
@given(_cover_and_word())
def test_cover_rewrite_matches_the_rational_and_klein_references(case):
    cover, reference, w = case
    assert cover.rewrite(w) == reference(w)


def _searched_blocks(cover):
    """The index^2 search that the keyed coset table replaced, kept as its
    reference: per generator g and representative t_j, every t_i with
    t_i^-1 g t_j in the subgroup, which must be exactly one."""
    blocks = []
    for gi, name in enumerate(cover.ambient.generators):
        g = Word(((gi, 1),))
        blocks.append([])
        for j, tj in enumerate(cover.cosets):
            hits = [(i, h) for i, ti in enumerate(cover.cosets)
                    if (h := cover.rewrite(free_reduce(ti.inverse() * g * tj))) is not None]
            if len(hits) != 1:
                raise ValueError(f"invalid coset system: generator {name!r} times "
                                 f"representative {j} hits {len(hits)} cosets")
            blocks[-1].append(hits[0])
    return blocks


@st.composite
def _cover_with_cosets(draw):
    """The Klein cover with two random coset words (valid when their b-sums
    differ in parity), or a sublattice cover of Z^n, n <= 3, of index <= 12:
    a lower-triangular basis T, whose box of 0 <= v_i < T[i][i] holds one
    vector per coset, times unimodular shears.  Its coset words are the box
    vectors in random order, each moved by a lattice vector and split into
    runs; half of the time one word is then replaced by another's coset mate."""
    if draw(st.booleans()):
        runs = st.lists(st.tuples(st.integers(0, 1), st.integers(-3, 3)), max_size=6)
        return KleinBottleCover(cosets=[Word(tuple(draw(runs))) for _ in range(2)])
    n = draw(st.integers(1, 3))
    diagonal = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)
                    .filter(lambda d: np.prod(d) <= 12))
    basis = [[diagonal[i] if i == j else draw(st.integers(-3, 3)) if j < i else 0
              for j in range(n)] for i in range(n)]
    box = list(itertools.product(*map(range, diagonal)))
    for _ in range(2 if n > 1 else 0):  # column j += t column k: the same lattice
        j, k = draw(st.permutations(range(n)))[:2]
        t = draw(st.integers(-3, 3))
        for row in basis:
            row[j] += t * row[k]
    words = []
    for v in draw(st.permutations(box)):
        c = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        words.append(draw(_runs([v[i] + sum(basis[i][j] * c[j] for j in range(n))
                                 for i in range(n)])))
    if len(words) > 1 and draw(st.booleans()):
        k, m = draw(st.permutations(range(len(words))))[:2]
        lattice = Word(tuple((i, sum(row)) for i, row in enumerate(basis)))
        words[k] = words[m] * lattice
    return SublatticeCover(free_abelian(n), basis, words)


@settings(max_examples=300, deadline=None)
@given(_cover_with_cosets())
def test_keyed_coset_table_equals_the_index_squared_search(cover):
    """Induction's coset table, one coset key per word, gives the search's
    blocks, and its message when a coset is hit other than once."""
    f = character_family_Zn(len(cover.sub_generator_words), 2)
    with mock.patch.object(families, "_word_blocks", lambda f, G, blocks, *rest: blocks):
        try:
            expected = _searched_blocks(cover)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                induce_family(f, cover)
            return
        assert induce_family(f, cover) == expected


@given(st.integers(0, 4).flatmap(
    lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n)
))
def test_det_adjugate_matches_the_leibniz_formula(m):
    n = len(m)
    det, adjugate = families._det_adjugate(m)
    leibniz = sum(
        (-1) ** sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
        * np.prod([m[i][perm[i]] for i in range(n)], dtype=object)
        for perm in itertools.permutations(range(n))
    )
    assert det == leibniz
    if det == 0:
        assert adjugate is None
    else:
        product = [[sum(m[i][k] * adjugate[k][j] for k in range(n)) for j in range(n)]
                   for i in range(n)]
        assert product == [[det * (i == j) for j in range(n)] for i in range(n)]


@st.composite
def _square_matrices(draw):
    """Square integer matrices up to 4 x 4 with entries small or near +-2^40,
    some made singular by a row that is a multiple of another, or zero."""
    n = draw(st.integers(0, 4))
    m = draw(st.lists(st.lists(_ENTRY, min_size=n, max_size=n), min_size=n, max_size=n))
    if n and draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        c = draw(st.integers(-3, 3)) if i != j else 0
        m[i] = [c * v for v in m[j]]
    return m


@settings(max_examples=300, deadline=None)
@given(_square_matrices())
def test_det_adjugate_matches_the_fraction_reference(m):
    n = len(m)
    det, adjugate = families._det_adjugate(m)
    ref_det, ref_inverse = _det_and_inverse(m)
    assert type(det) is int and det == ref_det
    if det == 0:
        assert adjugate is None and ref_inverse is None
        return
    assert adjugate == [[det * v for v in row] for row in ref_inverse]
    product = [[sum(m[i][k] * adjugate[k][j] for k in range(n)) for j in range(n)]
               for i in range(n)]
    assert product == [[det * (i == j) for j in range(n)] for i in range(n)]


def test_sublattice_rejects_nonabelian_ambient():
    with pytest.raises(ValueError, match=re.escape("lacks the cover's relator 'a b a^-1 b^-1'")):
        SublatticeCover(klein_bottle(), [[2, 0], [0, 1]], [Word(()), Word(((0, 1),))])


@pytest.mark.parametrize(
    "make, relator",
    [
        (lambda: SublatticeCover(free_group(2, "ab"), [[2, 0], [0, 1]],
                                 [Word(()), Word(((0, 1),))]), "a b a^-1 b^-1"),
        (lambda: KleinBottleCover(free_group(2, "ab")), "a b a b^-1"),
        (lambda: circle_cover(2, free_group(1, "a")), None),
        (lambda: SublatticeCover(free_abelian(2), [[2, 0], [0, 1]],
                                 [Word(()), Word(((0, 1),))]), None),
    ],
)
def test_cover_ambient_needs_the_model_relators(make, relator):
    """A relator walk passes vacuously over a group without relators, so a
    cover also needs each relator of its model group (Z^n, or the Klein
    group) among the ambient relators; Z^1 has none to need."""
    if relator is None:
        make()
        return
    with pytest.raises(ValueError, match=re.escape(f"relator {relator!r}")):
        make()


def _cyclically_reduced(letters):
    """The cyclic reduction of a word given as letters (generator, +-1)."""
    out = list(free_reduce(Word(tuple(letters))).letters)
    out = [(g, 1 if e > 0 else -1) for g, e in out for _ in range(abs(e))]
    while len(out) > 1 and out[0] == (out[-1][0], -out[-1][1]):
        out = out[1:-1]
    return tuple(out)


def _letters(text):
    return _cyclically_reduced(parse_presentation(f"gens: a b ; rels: {text} ;").relators[0].letters)


# cyclically reduced relators over a, b, so that every rotation stays freely
# reduced and rewriting one as a rotation of it or of its inverse presents the
# same group; the two model relators are drawn about a third of the time
_RELATOR = st.one_of(
    st.sampled_from(("a b a b^-1", "a b a^-1 b^-1")).map(_letters),
    st.sampled_from(("a a", "a b", "a a b b", "b b b", "a b^-1 a b")).map(_letters),
    st.lists(st.tuples(st.integers(0, 1), st.sampled_from((1, -1))), min_size=1,
             max_size=6).map(_cyclically_reduced).filter(bool),
)
_REWRITE = st.tuples(st.integers(0, 7), st.booleans())  # a rotation, an inversion
# a relator of E, of G or of both, and how each group's copy is rewritten
_SHARED_RELATOR = st.tuples(
    _RELATOR, st.sampled_from(((True, True), (True, False), (False, True))),
    _REWRITE, _REWRITE,
)


def _rewrite(letters, shift, invert):
    if invert:
        letters = tuple((g, -e) for g, e in reversed(letters))
    shift %= len(letters)
    return letters[shift:] + letters[:shift]


def _group_map_decisions(tmp, e_rels, g_rels):
    """Every group-map decision over E = <a, b | e_rels> and G = <a, b |
    g_rels>: None for a refusal, else what was built, without the groups."""
    E = GroupPresentation(("a", "b"), tuple(map(Word, e_rels)))
    G = GroupPresentation(("a", "b"), tuple(map(Word, g_rels)))
    # G * <c | c c>, the ambient group of an extension of a family of E
    GF = GroupPresentation(("a", "b", "c"), G.relators + (Word(((2, 2),)),))
    basis, cosets = [[2, 0], [0, 1]], [Word(()), Word(((0, 1),))]
    makers = [
        lambda: extend_free_product(trivial_family(E), GF),
        lambda: extend_free_product(character_family_Zn(2, 2, ("a", "b")), GF),
        lambda: SublatticeCover(G, basis, cosets),
        lambda: KleinBottleCover(G),
        lambda: pullback_family(trivial_family(E, 2), SublatticeCover(G, basis, cosets)),
        lambda: pullback_family(trivial_family(E, 2), KleinBottleCover(G)),
        lambda: induce_family(trivial_family(E), SublatticeCover(G, basis, cosets)),
        lambda: induce_family(trivial_family(E), KleinBottleCover(G)),
    ]
    out = []
    for make in makers:
        try:
            built = make()
        except ValueError:
            out.append(None)
            continue
        if isinstance(built, Family):
            out.append((built.structure, built.fiber_dims, built.chern))
        else:
            out.append(dataclasses.replace(built, ambient=None))
    (tmp / "g.grp").write_text(format_presentation(G) + "\n")
    for expr in ("pullback(trivial(group=g.grp, dim=2), group=g.grp)",
                 "pullback(trivial(group=g.grp, dim=2), cover=klein_even, group=g.grp)",
                 "induce(char_zn(2, 2), cosets=[e, b], group=g.grp)",
                 "induce(char_zn(2, 2), cover=klein_even, group=g.grp)"):
        (tmp / "f.fam").write_text(expr + "\n")
        (tmp / "f.json").unlink(missing_ok=True)
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(["family", "build", "--expr", str(tmp / "f.fam"),
                            "--out", str(tmp / "f.json")])
        record = json.loads((tmp / "f.json").read_text()) if code == 0 else None
        out.append((code, record and {k: v for k, v in record.items() if k != "group"}))
    return out


@settings(max_examples=80, deadline=None)
@given(st.lists(_SHARED_RELATOR, max_size=3))
def test_rotating_or_inverting_relators_changes_no_group_map_decision(relators):
    """extend, pullback, induce, both cover models and the CLI's inferred and
    explicit klein_even decide alike when each relator is written as any
    rotation of itself or of its inverse."""
    canonical = ([r for r, (in_e, _), _, _ in relators if in_e],
                 [r for r, (_, in_g), _, _ in relators if in_g])
    rewritten = ([_rewrite(r, *e) for r, (in_e, _), e, _ in relators if in_e],
                 [_rewrite(r, *g) for r, (_, in_g), _, g in relators if in_g])
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        assert _group_map_decisions(tmp, *rewritten) == _group_map_decisions(tmp, *canonical)


def test_skew_sublattice_pullback_exact_matches_numeric():
    # u1 = a, u2 = a b^2: a non-diagonal index-2 sublattice; the pulled-back
    # character coefficients must match the determinant windings exactly
    f = character_family_Zn(2, 4)
    cov = SublatticeCover(f.group, [[1, 1], [0, 2]], [Word(()), Word(((1, 1),))])
    assert cov.index == 2
    pulled = pullback_family(f, cov)
    wind = numeric_c1_windings(pulled, samples=32)[0]
    exact = [
        [int(pulled.chern[0].coefficient((("z", j + 1), ("x", i + 1)))) for i in range(2)]
        for j in range(2)
    ]
    assert wind == exact == [[1, 0], [1, 2]]
    ind = induce_family(pulled, cov)
    assert verify_family(ind)
    assert ind.chern[0] == 2 * f.chern[0]


# ---------------------------------------------------------------------------
# numeric bridges
# ---------------------------------------------------------------------------


def test_holonomy_loop_closes():
    f = character_family_Zn(1, 8)
    loop = holonomy_loop(f, Word(((0, 1),)), samples=16)
    assert len(loop) == 17
    assert np.allclose(loop[0], loop[-1], atol=1e-12)


def test_numeric_c1_matches_exact_coefficients():
    # exact z_j^x_i coefficient of the rank-n character family is delta_ij;
    # numeric winding reproduces it exactly, sign included
    f = character_family_Zn(2, 8)
    wind = numeric_c1_windings(f, samples=32)[0]
    exact = [
        [
            f.chern[0].coefficient((("z", j + 1), ("x", i + 1)))
            for i in range(2)
        ]
        for j in range(2)
    ]
    assert wind == exact == [[1, 0], [0, 1]]


def test_numeric_c1_of_induced_circle_family():
    ind = induce_family(character_family_Zn(1, 8), circle_cover(2))
    wind = numeric_c1_windings(ind, samples=32)[0]
    assert wind[0][0] == ind.chern[0].coefficient((("z", 1), ("x", 1))) == 1


def test_families_of_the_group_without_generators_verify():
    e = GroupPresentation(())
    triv = trivial_family(e, 2)
    for f in (triv, extend_free_product(triv, e)):
        assert verify_family(f)
        assert f.chern == (MultiForm.constant(2),)
        p = f.evaluate(())
        assert p.matrices.shape == (0, 2, 2) and p.dimension == 2
        assert p.unitarity_defect() == 0.0


def _broken_torus_family() -> Family:
    """Z^2 in U(2) over a circle: a swaps the two lines, b puts the phase
    e^{2 pi i x} on the first line alone, so a b a^-1 b^-1 moves the phase
    to the other line and is not the identity."""
    return Family(
        group=free_abelian(2, ("a", "b")),
        space=TorusGrid(1, 4),
        perm=(np.array([[1, 0], [0, 1]]),),
        phase=(np.array([[[0], [0]], [[1], [0]]]),),
        structure="broken",
    )


def test_family_invariant_failure_detected(tmp_path, monkeypatch):
    bad = _broken_torus_family()
    # the dense stacks agree: the commutator is diag(e^{-2 pi i x}, e^{2 pi i x})
    x = np.array([[0.25]])
    assert relator_defect(bad.evaluate_batch(x), bad.group)[0] == pytest.approx(4.0)
    assert relator_defect(bad.evaluate_batch([[0.0]]), bad.group)[0] == 0.0
    message = "component 0: relator 'a b a^-1 b^-1' does not compose to the identity"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        verify_family(bad)
    (tmp_path / "z2.grp").write_text("gens: a b ; rels: a b a^-1 b^-1 ;\n")
    (tmp_path / "f.fam").write_text("trivial(group=z2.grp)\n")
    monkeypatch.setattr(families, "trivial_family", lambda group, dim=1: bad)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert cli.run(["family", "build", "--expr", str(tmp_path / "f.fam"),
                        "--out", str(tmp_path / "f.json")]) == 5
    assert err.getvalue() == f"family verification failed: {message}\n"
    assert not (tmp_path / "f.json").exists()


def test_verify_names_the_failing_component():
    good = trivial_family(free_abelian(2, ("a", "b")), 2)
    good = Family(good.group, TorusGrid(1, 4), good.perm,
                  (np.zeros((2, 2, 1), dtype=int),), "good")
    with pytest.raises(ValueError, match="^component 1: relator 'a b a"):
        verify_family(disjoint_union(good, _broken_torus_family()))


@pytest.mark.parametrize("perm, phase, message", [
    ([[0, 0], [0, 1]], np.zeros((2, 2, 1), int), "a perm row is not a permutation of range(2)"),
    ([[0, 2], [0, 1]], np.zeros((2, 2, 1), int), "a perm row is not a permutation of range(2)"),
    ([[0.0, 1.0], [0, 1]], np.zeros((2, 2, 1), int), "perm must be an integer array (2, k)"),
    ([[0, 1]], np.zeros((2, 2, 1), int), "perm must be an integer array (2, k)"),
    ([[0, 1], [1, 0]], np.zeros((2, 2, 1)), "phase must be an integer array (2, 2, 1)"),
    ([[0, 1], [1, 0]], np.zeros((2, 2, 2), int), "phase must be an integer array (2, 2, 1)"),
    ([[0, 1], [1, 0]], np.zeros((2, 1, 1), int), "phase must be an integer array (2, 2, 1)"),
    ([[0, 1], [1, 0]], np.full((2, 2, 1), 2**61, dtype=np.int64),
     "a word of 4 letters over phase exponents up to 2305843009213693952"),
])
def test_family_rejects_malformed_monomial_data(perm, phase, message):
    G = free_abelian(2)
    with pytest.raises(ValueError, match=re.escape(message)):
        Family(G, TorusGrid(1, 4), (np.asarray(perm),), (phase,))
    with pytest.raises(ValueError, match="one perm and one phase array per connected component"):
        Family(G, TorusGrid(1, 4), (np.array([[0], [0]]),) * 2, (np.zeros((2, 1, 1), int),))
    with pytest.raises(ValueError, match="one perm and one phase array per connected component"):
        Family(G, DisjointUnionSpace(TorusGrid(1, 4), TorusGrid(1, 4)),
               (np.array([[0], [0]]),) * 2, (np.zeros((2, 1, 1), int),))
    f = Family(G, TorusGrid(1, 4), (np.array([[1, 0], [0, 1]]),),
               (np.array([[[1], [-1]], [[0], [0]]]),))
    assert f.fiber_dims == (2,) and not f.perm[0].flags.writeable
    assert f.perm[0].dtype == f.phase[0].dtype == np.int64


def test_union_routes_components_past_the_left_side_to_the_right():
    pair = disjoint_union(character_family_Zn(1, 2), character_family_Zn(1, 2))
    u = disjoint_union(
        extend_free_product(trivial_family(free_group(1), 2), free_group(1)),
        disjoint_union(trivial_family(free_group(1), 3), trivial_family(free_group(1), 1)),
    )
    assert np.isclose(pair.evaluate_batch([[0.5]], 1)[0, 0, 0, 0], -1)
    assert u.space.components == ((), (), ())
    assert [u.evaluate((), ci).matrices[0].shape for ci in range(3)] == [(2, 2), (3, 3), (1, 1)]
    with pytest.raises(ValueError, match="component 3"):
        u.evaluate((), 3)


def test_axis_loop_zero_samples_is_not_the_default():
    with pytest.raises(ValueError, match="at least one step"):
        TorusGrid(1, 4).axis_loop(0, 0, samples=0)


# ---------------------------------------------------------------------------
# batch evaluation against per-point references
# ---------------------------------------------------------------------------
#
# Each strategy draws a family together with a reference rule ref(ci, point)
# that builds the list of generator matrices at one point from the
# definitions: np.kron for tensor, block diagonals for sum, coset blocks for
# induce, word products for pullback.


def _word_product(w: Word, mats) -> np.ndarray:
    out = np.eye(mats[0].shape[0], dtype=complex)
    for g, e in w.letters:
        for _ in range(abs(e)):
            out = out @ (mats[g] if e > 0 else mats[g].conj().T)
    return out


def _block_diag(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n = a.shape[0]
    out = np.zeros((n + b.shape[0],) * 2, dtype=complex)
    out[:n, :n] = a
    out[n:, n:] = b
    return out


def _diagonal_cover(ks) -> SublatticeCover:
    """The sublattice diag(ks) of Z^n, cosets a_1^i_1 ... a_n^i_n."""
    n = len(ks)
    basis = [[ks[i] if i == j else 0 for j in range(n)] for i in range(n)]
    cosets = [
        Word(tuple((i, 1) for i, e in enumerate(exps) for _ in range(e)))
        for exps in itertools.product(*(range(k) for k in ks))
    ]
    return SublatticeCover(free_abelian(n), basis, cosets)


def _induce_ref(ref, cover, n_ambient: int):
    reps = cover.cosets

    def r(ci, x):
        rho = ref(ci, x)
        k, c = rho[0].shape[0], len(reps)
        mats = []
        for gi in range(n_ambient):
            m = np.zeros((k * c, k * c), dtype=complex)
            for (i, ti), (j, tj) in itertools.product(enumerate(reps), repeat=2):
                h = cover.rewrite(free_reduce(ti.inverse() * Word(((gi, 1),)) * tj))
                if h is not None:
                    m[i * k : (i + 1) * k, j * k : (j + 1) * k] = _word_product(h, rho)
            mats.append(m)
        return mats

    return r


@st.composite
def _zn_tree(draw, n: int, depth: int):
    """A family of free_abelian(n) and its reference rule."""
    kinds = ["char", "trivial"] + (["sum", "union", "pullback", "induce"] if depth else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "char":
        f = character_family_Zn(n, draw(st.integers(2, 3)))
        return f, lambda ci, x: [np.array([[np.exp(2j * np.pi * v)]]) for v in x]
    if kind == "trivial":
        dim = draw(st.integers(1, 2))
        return trivial_family(free_abelian(n), dim), lambda ci, x: [np.eye(dim)] * n
    f, rf = draw(_zn_tree(n, depth - 1))
    cover = _diagonal_cover(draw(st.lists(st.integers(1, 2), min_size=n, max_size=n)))

    def pulled(ci, x):
        return [_word_product(w, rf(ci, x)) for w in cover.sub_generator_words]

    if kind == "pullback":
        return pullback_family(f, cover), pulled
    if kind == "induce":
        return induce_family(f, cover), _induce_ref(rf, cover, n)
    if kind == "sum":  # a second summand over the same space
        g, rg = draw(st.sampled_from([
            (f, rf),
            (pullback_family(f, cover), pulled),
            (induce_family(f, cover), _induce_ref(rf, cover, n)),
        ]))
        return direct_sum(f, g), lambda ci, x: [
            _block_diag(a, b) for a, b in zip(rf(ci, x), rg(ci, x))
        ]
    g, rg = draw(_zn_tree(n, depth - 1))
    nl = f.space.n_components

    def union_ref(ci, x):
        return rf(ci, x) if ci < nl else rg(ci - nl, x)

    return disjoint_union(f, g), union_ref


@st.composite
def _family_tree(draw):
    top = draw(st.sampled_from(["zn", "tensor", "extend", "klein"]))
    if top == "zn":
        return draw(_zn_tree(draw(st.integers(1, 2)), 2))
    if top == "klein":
        f, rf = draw(_zn_tree(2, 1))
        cover = KleinBottleCover()
        return induce_family(f, cover), _induce_ref(rf, cover, 2)
    if top == "extend":
        n = draw(st.integers(1, 2))
        f, rf = draw(_zn_tree(n, 1))
        # the extra free generator comes first, so f's generators move
        G = GroupPresentation(
            ("e",) + f.group.generators,
            tuple(Word(tuple((g + 1, s) for g, s in r.letters)) for r in f.group.relators),
        )

        def extended(ci, x):
            mats = rf(ci, x)
            return [np.eye(mats[0].shape[0])] + list(mats)

        return extend_free_product(f, G), extended
    f, rf = draw(_zn_tree(draw(st.integers(1, 2)), 1))
    g, rg = draw(_zn_tree(draw(st.integers(1, 2)), 1))
    nr = g.space.n_components

    def tensored(ci, x):
        cl, cr = divmod(ci, nr)
        dl = f.space.component_x_dim(cl)
        A, B = rf(cl, x[:dl]), rg(cr, x[dl:])
        a, b = A[0].shape[0], B[0].shape[0]
        return [np.kron(m, np.eye(b)) for m in A] + [np.kron(np.eye(a), m) for m in B]

    return tensor_families(f, g), tensored


@settings(max_examples=100, deadline=None)
@given(_family_tree())
def test_batch_evaluation_matches_per_point_references(tree):
    """The scattered stacks are the references' matrices, the exact verdict
    passes, and the float defects of the whole grid, the check the exact one
    replaced, stay within its tolerance."""
    fam, ref = tree
    assert verify_family(fam)
    for ci, res in enumerate(fam.space.components):
        grid = np.array(list(itertools.product(*(np.arange(r) / r for r in res))), dtype=float)
        pts = grid[:8]
        k = fam.fiber_dims[ci]
        stack = fam.evaluate_batch(pts, ci)
        assert stack.shape == (len(pts), len(fam.group.generators), k, k)
        for mats, point in zip(stack, pts):
            assert np.allclose(mats, np.array(ref(ci, point)), rtol=0, atol=1e-12)
        single = np.array(fam.evaluate(pts[-1], ci).matrices)
        assert np.allclose(single, stack[-1], rtol=0, atol=1e-12)
        dense = fam.evaluate_batch(grid.reshape(len(grid), len(res)), ci)
        assert relator_defect(dense, fam.group).max() <= 1e-8
        assert unitarity_defect(dense).max() <= 1e-8


@settings(max_examples=100, deadline=None)
@given(_family_tree(), st.data())
def test_word_composition_equals_the_dense_product(tree, data):
    fam, _ = tree
    runs = st.tuples(st.integers(0, len(fam.group.generators) - 1), st.integers(-3, 3))
    w = Word(tuple(data.draw(st.lists(runs, max_size=6))))
    coords = st.floats(0, 1, exclude_max=True, allow_subnormal=False)
    for ci, (perm, phase) in enumerate(zip(fam.perm, fam.phase)):
        _, k, d = phase.shape
        x = np.array(data.draw(st.lists(coords, min_size=3 * d, max_size=3 * d))).reshape(3, d)
        s, v = families._word_data(w, perm, phase)
        want = np.zeros((3, k, k), dtype=complex)
        want[:, s, np.arange(k)] = np.exp(2j * np.pi * (x @ v.T))
        assert np.allclose(evaluate_word(w, fam.evaluate_batch(x, ci)), want, rtol=0, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(_family_tree(), st.data(), st.sampled_from([1, 7, 2**20]))
def test_stacked_relator_checks_equal_the_one_word_checks(tree, data, cells):
    """_holding decides each word as _holds does, over words of mixed run
    exponents (empty ones, runs of 0 and of -3..3, the group's relators,
    words times their inverses, commutators), in chunks of any size."""
    fam, _ = tree
    gens = len(fam.group.generators)
    runs = st.tuples(st.integers(0, gens - 1), st.integers(-3, 3))
    words = [Word(tuple(r)) for r in data.draw(st.lists(st.lists(runs, max_size=5), max_size=12))]
    words += [*fam.group.relators, *(w * w.inverse() for w in words[:2]),
              *(commutator(a, b) for a, b in zip(words[:3], words[1:4]))]
    saved, families.HOLDING_CELLS = families.HOLDING_CELLS, cells
    try:
        held = families._holding(words, fam.perm, fam.phase)
        assert held.tolist() == [[families._holds(w, perm, phase) for w in words]
                                 for perm, phase in zip(fam.perm, fam.phase)]
    finally:
        families.HOLDING_CELLS = saved


@settings(max_examples=100, deadline=None)
@given(_family_tree(), st.data())
def test_a_descriptor_relator_holds_exactly_where_its_float_defect_vanishes(tree, data):
    """Every family passes the relator check against the presentation
    complex of its own group; with a random word r added as a relator, it
    passes exactly when r's float defect at random points of every
    component is 0, and else names r and the first component it fails on."""
    fam, _ = tree
    G = fam.group
    detect._check_base_labels(detect.PresentationComplex("G", G), [fam])
    runs = st.tuples(st.integers(0, len(G.generators) - 1), st.integers(-3, 3))
    r = free_reduce(Word(tuple(data.draw(st.lists(runs, max_size=6)))))
    d = detect.PresentationComplex("G", GroupPresentation(G.generators, (*G.relators, r)))
    rng = np.random.default_rng(0)
    failing = [
        ci for ci in range(fam.space.n_components)
        if relator_defect(fam.evaluate_batch(rng.random((4, fam.space.component_x_dim(ci))), ci),
                          GroupPresentation(G.generators, (r,))).max() > 1e-8
    ]
    if not failing:
        detect._check_base_labels(d, [fam])
        return
    word = " ".join(f"z{g + 1}" + ("" if e > 0 else "^-1") for g, e in r.letters
                    for _ in range(abs(e)))
    with pytest.raises(PresentationError, match=re.escape(
            f"is no family of G: its relator {word!r} does not hold on component {failing[0]}")):
        detect._check_base_labels(d, [fam])


@settings(max_examples=100, deadline=None)
@given(_family_tree(), st.integers(0, 8))
def test_float_windings_equal_the_data_sums(tree, extra):
    """The numeric pairing and ``forms chern`` read each determinant winding
    from the data: on every component, the winding of each generator along
    each axis equals sum_j V_g[j][a], which ``forms chern`` reads at any
    number of samples above the aliasing bound and refuses at the bound."""
    fam, _ = tree
    sums = [phase.sum(axis=1).tolist() for phase in fam.phase]  # (gens, d) per component
    turns = max([abs(c) for comp in sums for per_axis in comp for c in per_axis], default=0)
    samples = max(3, 2 * turns + 1) + extra
    gens = range(len(fam.group.generators))
    assert [families.axis_windings(fam, gens, ci)
            for ci in range(fam.space.n_components)] == sums
    assert numeric_c1_windings(fam, samples) == sums
    if turns:
        with pytest.raises(UnderSampledLoopError, match="aliases"):
            numeric_c1_windings(fam, 2 * turns)


@settings(max_examples=100, deadline=None)
@given(_family_tree(), st.integers(1, 8))
def test_data_windings_equal_lapack_windings(tree, extra):
    """An independent float check of the windings read from the data: at
    any number of samples above twice the largest turn, each equals
    ``winding_number`` of its generator's slice of the dense stack along
    the axis loop, whose determinants LAPACK computes."""
    fam, _ = tree
    turns = max((abs(c) for phase in fam.phase for c in phase.sum(axis=1).ravel().tolist()),
                default=0)
    samples = max(2, 2 * turns) + extra
    for ci, rows in enumerate(numeric_c1_windings(fam, samples)):
        for axis in range(fam.space.component_x_dim(ci)):
            stack = fam.evaluate_batch(fam.space.axis_loop(ci, axis, samples), ci)
            assert [winding_number(stack[:, g]) for g in range(len(rows))] == [
                row[axis] for row in rows]


# The pairing loop as it built its labels and tags before they were built in
# bulk, kept verbatim as the reference the current one must equal.
def _reference_pairing(d, fams, cycles, tables, mode) -> DetectionReport:
    top, prefix, unit, xname = _COLUMNS[mode]
    comps, col_labels = [], []  # every component's table and {x-part: column}, in column order
    for fi, (f, per_family) in enumerate(zip(fams, tables)):
        for ci, table in enumerate(per_family):
            x_dim, columns = f.space.component_x_dim(ci), {}
            for q in range(min(x_dim, top) + 1):
                for mono in itertools.combinations(range(1, x_dim + 1), q):
                    xpart = "^".join(xname.format(i) for i in mono) or unit
                    columns[mono] = len(col_labels)
                    col_labels.append(prefix.format(fi=fi, ci=ci) + xpart)
            comps.append((table, columns))
    rows = []
    for cycle in cycles:
        row = {}
        for table, columns in comps:
            for xkey, v in _combine(table, cycle).items():
                if v and (j := columns.get(xkey)) is not None:
                    row[j] = v
        rows.append(dict(sorted(row.items())))
    row_labels = tuple(c.label for c in rational_homology(d))
    width = len(col_labels)
    detected = tuple(map(bool, rows))
    undetected = tuple(label for label, hit in zip(row_labels, detected) if not hit)
    reduced = reduce_rows({**row, width + i: Fraction(1)} for i, row in enumerate(rows))
    kernel = [row for row in reduced if min(row) >= width]
    witness = None
    if kernel and all(detected):
        terms = sorted(kernel[0].items())
        witness = format_combination((row_labels[j - width], c / terms[0][1]) for j, c in terms)
    return DetectionReport(
        group=d.describe(),
        families=tuple(f.structure for f in fams),
        row_labels=row_labels,
        col_labels=tuple(col_labels),
        sparse=SparseMatrix(tuple(rows), width),
        detected=detected,
        verdict="undetected" if kernel else "FD-certified",
        undetected_classes=undetected,
        mode=mode,
        sign_conventions=SIGN_CONVENTIONS,
        witness=witness,
    )


def _both_pairings(d, fams):
    """Every report the exact and the numeric pairing of ``fams`` against
    ``d`` build (the exact one when every family has character data, the
    numeric one of the first family on d's classes of degree <= 1), each
    with the reference's report on the same tables."""
    reports = []
    pairing = detect._pairing

    def both(*args):
        reports.append((pairing(*args), _reference_pairing(*args)))
        return reports[-1][0]

    low = detect._group_class(d.label, [c for c in d.classes if c.degree <= 1], d.z_dim,
                              d.relators)
    with mock.patch.object(detect, "_pairing", both):
        if all(f.chern is not None for f in fams):
            detect.detection_matrix(d, fams)
        detect.numeric_detection_report(low, fams[0])
    return reports


def _with_combinations(d, combos):
    """``d`` with a class ``w{k}`` per (a, b, m) in ``combos``, a and b
    classes of one degree, of cycle a + m b unless that is 0: a row that
    depends on the others."""
    extra = []
    for k, (a, b, m) in enumerate(combos):
        cycle = dict(a.cycle)
        for z, c in b.cycle:
            cycle[z] = cycle.get(z, 0) + m * c
        if cycle := tuple((z, c) for z, c in sorted(cycle.items()) if c):
            extra.append(detect.BasisClass(f"w{k}", a.degree, cycle))
    return detect._group_class(d.label, [*d.classes, *extra], d.z_dim, d.relators)


@settings(max_examples=100, deadline=None)
@given(_family_tree(), st.data())
def test_the_pairing_builds_the_reference_labels_rows_and_witness(tree, data):
    """Exactly and numerically, over one or two families of one group and
    its presentation complex with dependent classes added, the pairing's
    report, its column and row labels, sparse rows, detected flags and
    witness among its fields, is the reference's."""
    fam, _ = tree
    d = detect.PresentationComplex("G", fam.group)
    combos = []
    for _ in range(data.draw(st.integers(0, 3))):
        a = data.draw(st.sampled_from(d.classes))
        b = data.draw(st.sampled_from([c for c in d.classes if c.degree == a.degree]))
        combos.append((a, b, data.draw(st.integers(-2, 2))))
    d = _with_combinations(d, combos)
    fams = [fam] * data.draw(st.integers(1, 2))
    for new, old in _both_pairings(d, fams):
        assert new == old


def test_the_pairing_of_a_union_of_unequal_components_has_the_reference_witness():
    """A union of a 2-torus and a point component, against Z^2 with the
    class z1 + z2 added, in both modes: columns of unequal x-parts, the
    numeric ``rank`` and ``loop_x{i}`` ones, and a witness."""
    fam = disjoint_union(character_family_Zn(2, 3), trivial_family(free_abelian(2), 2))
    d = detect.FreeAbelian(2)
    z1, z2 = (c for c in d.classes if c.degree == 1)
    reports = _both_pairings(_with_combinations(d, [(z1, z2, 1)]), [fam, fam])
    assert [new == old for new, old in reports] == [True, True]
    exact, numeric = (new for new, _ in reports)
    assert exact.col_labels[:5] == ("f0.c0.1", "f0.c0.x1", "f0.c0.x2", "f0.c0.x1^x2", "f0.c1.1")
    assert numeric.col_labels == ("c0.rank", "c0.loop_x1", "c0.loop_x2", "c1.rank")
    assert exact.witness == numeric.witness == "z1 + z2 - w0"


@pytest.mark.parametrize("k, turns", [(4, 2**63), (8, 2**64)])
def test_axis_windings_sum_exactly_past_int64(k, turns):
    # k phases of 2^61 sum to k 2^61: an int64 sum would wrap, to -2^63 for
    # k = 4 and to 0, no turn at all, for k = 8
    fam = Family(free_group(1), TorusGrid(1, 2), [[list(range(k))]],
                 [np.full((1, k, 1), 2**61)])
    with pytest.raises(UnderSampledLoopError, match=f"^det of 'g1' on component 0 turns {turns} "
                       "times along axis 1, which a loop of 64 samples aliases"):
        numeric_c1_windings(fam, 64)


def test_numeric_windings_refuse_loops_of_fewer_than_two_steps():
    # one step of two samples reads every turn as 0, and no step is no loop;
    # a turn that one step aliases is refused as such first
    still = Family(free_group(1), TorusGrid(1, 2), [[[0]]], [np.zeros((1, 1, 1), dtype=int)])
    no_gens = Family(free_group(0), TorusGrid(1, 2), [np.zeros((0, 1), dtype=int)],
                     [np.zeros((0, 1, 1), dtype=int)])
    with pytest.raises(UnderSampledLoopError,
                       match="^need at least three samples on a closed loop, got 2$"):
        numeric_c1_windings(still, 1)
    with pytest.raises(UnderSampledLoopError, match="^det of 'g1' on component 0 turns 0 "):
        numeric_c1_windings(still, 0)
    with pytest.raises(UnderSampledLoopError, match="^det of 't1' on component 0 turns 1 "):
        numeric_c1_windings(character_family_Zn(1, 8), 1)
    assert numeric_c1_windings(no_gens, 1) == [[]]
    with pytest.raises(ValueError, match="^a loop needs at least one step, got 0$"):
        numeric_c1_windings(no_gens, 0)
    # a point component has no loop to refuse
    assert numeric_c1_windings(trivial_family(free_group(1)), 0) == [[[]]]


@settings(max_examples=100, deadline=None)
@given(_family_tree(), st.lists(st.integers(1, 64), min_size=1, max_size=3))
def test_monomial_determinants_equal_lapack(tree, sample_counts):
    """The determinant of each generator is sign(sigma_g) e^{2 pi i c . x},
    c = sum_j V_g[j], so it turns uniformly, c_a times along axis a, as the
    windings read from the data say; LAPACK's det of the evaluated stack
    stays the oracle."""
    fam, _ = tree
    for ci in range(fam.space.n_components):
        signs = np.array([_permutation_sign(row) for row in fam.perm[ci].tolist()])
        rates = fam.phase[ci].sum(axis=1)  # (generators, axes)
        for axis in range(fam.space.component_x_dim(ci)):
            for samples in sample_counts:
                x = fam.space.axis_loop(ci, axis, samples)
                read = signs * np.exp(2j * np.pi * (x @ rates.T))
                assert np.abs(read - np.linalg.det(fam.evaluate_batch(x, ci))).max() <= 1e-12


# ---------------------------------------------------------------------------
# one pullback path, against the two bodies it replaced
# ---------------------------------------------------------------------------
#
# Each reference returns (evaluation rule, character forms) as the separate
# extend_free_product and pullback_family built them.


def _extend_reference(f: Family, G: GroupPresentation):
    positions = [G.generator_index(name) for name in f.group.generators]

    def ev(x, ci):
        A = f.evaluate_batch(x, ci)
        k = A.shape[-1]
        shape = (len(x), len(G.generators), k, k)
        out = np.broadcast_to(np.eye(k, dtype=complex), shape).copy()
        out[:, positions] = A
        return out

    chern = None
    if f.chern is not None:
        images = [zgen(pos + 1) for pos in positions]
        chern = tuple(ch.subst_z(images) for ch in f.chern)
    return ev, chern


def _pullback_reference(f: Family, cover):
    words = cover.sub_generator_words

    def ev(x, ci):
        rep = f.evaluate_batch(x, ci)
        return np.stack([evaluate_word(w, rep) for w in words], axis=1)

    chern = None
    # only a sublattice has a rational basis inverse; the Klein cover has none
    if not any(-1 in signs for signs in cover.holonomy) and f.chern is not None:
        # the basis columns are the exponent sums of the subgroup generators
        basis = zip(*([_exponent_sum(w, g) for g in range(len(words))] for w in words))
        images = [
            sum((v * zgen(j + 1) for j, v in enumerate(row)), MultiForm())
            for row in basis
        ]
        chern = tuple(ch.subst_z(images) for ch in f.chern)
    return ev, chern


def _assert_same_family(fam: Family, ref):
    ev, chern = ref
    assert fam.chern == chern
    for ci, res in enumerate(fam.space.components):
        grid = itertools.product(*(np.arange(r) / r for r in res))
        pts = np.array(list(itertools.islice(grid, 8)), dtype=float)
        assert np.allclose(fam.evaluate_batch(pts, ci), ev(pts, ci), rtol=0, atol=1e-12)


@st.composite
def _free_product_split(draw):
    """A family f and a free product G = E * F of its group E with a group F
    on new generators, all generators in a random order."""
    f, _ = draw(_family_tree())
    E = f.group
    extra = [f"h{i + 1}" for i in range(draw(st.integers(0, 2)))]
    names = draw(st.permutations(list(E.generators) + extra))
    at = {name: names.index(name) for name in names}
    rels = [Word(tuple((at[E.generators[g]], e) for g, e in r.letters)) for r in E.relators]
    if extra:  # F may have relators of its own
        runs = draw(st.lists(
            st.tuples(st.sampled_from(extra), st.integers(-3, 3)), max_size=3,
        ))
        rels.append(Word(tuple((at[name], e) for name, e in runs)))
    return f, GroupPresentation(tuple(names), tuple(rels))


@settings(max_examples=60, deadline=None)
@given(_free_product_split())
def test_extend_is_the_pullback_along_the_retraction(split):
    f, G = split
    _assert_same_family(extend_free_product(f, G), _extend_reference(f, G))


# A float word power, and the phase e^{2 pi i V . x} alike, drifts by about
# 1e-15 per unit of exponent (2.7e-13 near 2^8, 1.2e-12 near 2^10, 5e-10 near
# 2^19), so dense stacks compare to 1e-12 along shears near 2^8; the exact
# data compares along shears near 2^40.
_SHEAR = st.one_of(
    st.integers(-3, 3),
    st.integers(2**8 - 2, 2**8 + 2),
    st.integers(-(2**8) - 2, -(2**8) + 2),
)
_BIG_SHEAR = st.one_of(
    st.integers(2**40 - 2, 2**40 + 2),
    st.integers(-(2**40) - 2, -(2**40) + 2),
)


@st.composite
def _sublattice_pullback(draw, shears=_SHEAR):
    """A family of Z^n and a sublattice cover: a unimodular shear with
    entries from ``shears`` times a small diagonal, with its cosets."""
    n = draw(st.integers(1, 2))
    f, _ = draw(_zn_tree(n, 1))
    if n == 1:
        shear = [[draw(st.sampled_from([1, -1]))]]
    else:
        t, s = draw(shears), draw(st.integers(-1, 1))
        shear = [[1 + t * s, t], [s, 1]]  # det 1
        if draw(st.booleans()):
            shear = shear[::-1]
    d = draw(st.lists(st.integers(1, 2), min_size=n, max_size=n))
    basis = [[v * d[j] for j, v in enumerate(row)] for row in shear]
    cosets = [
        Word(tuple((i, sum(row[j] * e[j] for j in range(n))) for i, row in enumerate(shear)))
        for e in itertools.product(*(range(dj) for dj in d))
    ]
    return f, SublatticeCover(f.group, basis, cosets)


@settings(max_examples=60, deadline=None)
@given(_sublattice_pullback())
def test_sublattice_pullback_matches_the_basis_substitution(case):
    f, cover = case
    _assert_same_family(pullback_family(f, cover), _pullback_reference(f, cover))


def _run_reference(perm, phase, e: int):
    """The data (s, v) of a run g^e, g acting by ``perm`` and ``phase``, by
    cycle arithmetic in Python ints: line j passes the lines c_0 = j, c_1, ...
    of its cycle of L lines, so it ends at c_(e mod L) with the exponents of
    e // L whole turns and of e mod L steps more."""
    perm, phase = list(perm), [list(map(int, row)) for row in phase]
    if e < 0:
        inverse = [perm.index(j) for j in range(len(perm))]
        perm, phase, e = inverse, [[-a for a in phase[i]] for i in inverse], -e
    s, v = [], []
    for j in range(len(perm)):
        cycle = [j]
        while perm[cycle[-1]] != j:
            cycle.append(perm[cycle[-1]])
        turns, steps = divmod(e, len(cycle))
        s.append(cycle[steps])
        v.append([turns * sum(col) + sum(col[:steps])
                  for col in zip(*(phase[c] for c in cycle))])
    return s, v


def _word_reference(w: Word, perm, phase):
    k, d = phase.shape[1:]
    out = list(range(k)), [[0] * d for _ in range(k)]
    for g, e in w.letters:
        s, v = _run_reference(perm[g], phase[g], e)
        out = [out[0][j] for j in s], [[a + b for a, b in zip(v[j], out[1][s[j]])]
                                       for j in range(k)]
    return out


@settings(max_examples=60, deadline=None)
@given(_sublattice_pullback(_BIG_SHEAR))
def test_pullback_data_is_exact_for_shears_near_2_pow_40(case):
    f, cover = case
    pulled = pullback_family(f, cover)
    assert verify_family(pulled)
    for ci in range(f.space.n_components):
        want = [_word_reference(w, f.perm[ci], f.phase[ci]) for w in cover.sub_generator_words]
        assert pulled.perm[ci].tolist() == [s for s, _ in want]
        assert pulled.phase[ci].tolist() == [v for _, v in want]


def test_klein_pullback_keeps_the_exact_form_of_a_trivial_family():
    # the pullback along <a, b^2> <= Klein of the rank-2 trivial family is
    # the rank-2 trivial family of Z^2, form included; the basis-matrix
    # substitution dropped the form because the Klein cover has no basis
    triv = trivial_family(klein_bottle(), 2)
    pulled = pullback_family(triv, KleinBottleCover())
    assert pulled.chern == trivial_family(free_abelian(2), 2).chern == (MultiForm.constant(2),)
    assert pulled.base_dim == 2
    ref_ev, ref_chern = _pullback_reference(triv, KleinBottleCover())
    assert ref_chern is None
    _assert_same_family(pulled, (ref_ev, pulled.chern))
    # a family without forms still has none after the pullback
    ind = induce_family(character_family_Zn(2, 4), KleinBottleCover())
    _assert_same_family(
        pullback_family(ind, KleinBottleCover()), _pullback_reference(ind, KleinBottleCover())
    )


@pytest.mark.parametrize("n", range(1, 8))
def test_char_zn_form_is_the_product_of_its_factors_in_order(n):
    reference = MultiForm.constant(1)
    for j in range(1, n + 1):
        reference = reference * (1 + zgen(j) * xgen(j))
    assert character_family_Zn(n, 2).chern == (reference,)


def test_char_zn_past_the_term_budget_is_refused_from_its_halves(monkeypatch):
    products = []
    wedge = families.MultiForm.__mul__

    def counted(a, b):
        products.append(len(a.terms()) * len(b.terms()) if isinstance(b, MultiForm) else 0)
        return wedge(a, b)

    monkeypatch.setattr(families.MultiForm, "__mul__", counted)
    with pytest.raises(ValueError, match="256 and 512 terms takes 131072 term products"):
        character_family_Zn(17, 2)
    # the refused product of the halves, 2^8 and 2^9 terms, comes after
    # products of at most 2^4 x 2^5 term pairs, not after building char_zn(16)
    assert products[-1] == 2**17 and max(products[:-1]) == 2**9


# ---------------------------------------------------------------------------
# the relator rule, keyed by least rotations, against the table of rotations it replaced
# ---------------------------------------------------------------------------


def _relator_rotations(E: GroupPresentation) -> frozenset:
    """The letters of every cyclic rotation of each relator of E and of its
    inverse, each run spelled out as letters of exponent +-1."""
    own = set()
    for r in E.relators:
        letters = spell(r).letters
        for w in (letters, tuple((g, -e) for g, e in reversed(letters))):
            own.update(w[i:] + w[:i] for i in range(len(w)))
    return frozenset(own)


def _first_foreign_relator(G: GroupPresentation, E: GroupPresentation, images) -> str | None:
    """The first relator of G whose image is neither trivial nor in the
    rotation table of E, formatted; None when there is none."""
    own = _relator_rotations(E)
    for rel in G.relators:
        image = tuple((images[g], e) for g, e in spell(rel).letters if g in images)
        if image and image not in own:
            return format_word(rel, G)
    return None


def _edit(letters, n, draw):
    """``letters`` with one letter changed, dropped, added or swapped with
    its neighbour, of generators below n."""
    letters = list(letters)
    at = draw(st.integers(0, len(letters)))
    kind = draw(st.sampled_from(("change", "drop", "add", "swap")))
    letter = (draw(st.integers(0, n - 1)), draw(st.sampled_from((1, -1))))
    if kind == "add" or not letters:
        letters.insert(at, letter)
    elif kind == "swap" and at + 1 < len(letters):
        letters[at], letters[at + 1] = letters[at + 1], letters[at]
    else:
        at = min(at, len(letters) - 1)
        letters[at:at + 1] = [letter] if kind == "change" else []
    return letters


@st.composite
def _relator_check(draw):
    """(G, E, images): E on 1-12 generators with relators of 0-12 letters,
    periodic ones among them, or with 12-36 shuffles of one letter multiset,
    which share length and letters; G on E's generators, permuted, plus up to
    two killed ones, with relators that are rotations or inversions of E's,
    edits of them, powers of E's periods, shuffles of that multiset or random
    words."""
    n = draw(st.integers(1, 12))
    letter = st.tuples(st.integers(0, n - 1), st.sampled_from((1, -1)))
    period = st.lists(letter, min_size=1, max_size=4)
    shuffle = st.permutations(draw(st.lists(letter, min_size=2, max_size=8)))
    if draw(st.booleans()):
        e_rels = draw(st.lists(shuffle, min_size=12, max_size=36))
    else:
        e_rels = draw(st.lists(st.one_of(
            st.lists(letter, max_size=12),
            st.tuples(period, st.integers(1, 3)).map(lambda pk: pk[0] * pk[1]),
        ), max_size=4))
    E = GroupPresentation(tuple(f"e{i}" for i in range(n)), tuple(map(Word, map(tuple, e_rels))))
    extra = draw(st.integers(0, 2))
    perm = draw(st.permutations(range(n + extra)))
    images = {perm[i]: i for i in range(n)}  # G's generator perm[i] maps to e_i
    spelled = [spell(r).letters for r in E.relators if r.letters]
    g_rels = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("rotation", "rotation", "edit", "power", "shuffle",
                                     "random")))
        if kind in ("rotation", "edit", "power") and spelled:
            w = draw(st.sampled_from(spelled))
            if kind == "power":  # (a b)^3 against (a b)^2 b a and the like
                w = w[:draw(st.integers(1, len(w)))] * draw(st.integers(1, 3))
            if draw(st.booleans()):
                w = tuple((g, -e) for g, e in reversed(w))
            shift = draw(st.integers(0, len(w) - 1))
            w = w[shift:] + w[:shift]
            if kind == "edit":
                w = _edit(w, n, draw)
        elif kind == "shuffle":
            w = draw(shuffle)
        else:
            w = draw(st.lists(letter, min_size=1, max_size=12))
        w = [(perm[g], e) for g, e in w]
        for _ in range(draw(st.integers(0, 2)) if extra else 0):  # killed letters
            w.insert(draw(st.integers(0, len(w))), (draw(st.sampled_from(perm[n:])), 1))
        g_rels.append(Word(tuple(w)))
    G = GroupPresentation(tuple(f"g{i}" for i in range(n + extra)), tuple(g_rels))
    return G, E, images


@settings(max_examples=300, deadline=None)
@given(_relator_check())
def test_relator_text_rule_decides_as_the_rotation_table(case):
    G, E, images = case
    expected = _first_foreign_relator(G, E, images)
    if expected is None:
        families._check_relators(G, E, images, "{}")
    else:
        with pytest.raises(ValueError) as err:
            families._check_relators(G, E, images, "{}")
        assert str(err.value) == expected


@pytest.mark.parametrize("e_rel, g_rel, holds", [
    ("e1 e11", "e11 e1", True),
    ("e11 e1", "e1 e1", False),  # '1+ 1+ ' lies inside '11+ 1+ 11+ 1+ ' off a letter
    ("e1 e2 e1 e2 e1 e2", "e1 e2 e1 e2 e2 e1", False),  # (a b)^3, (a b)^2 b a
    ("e1 e2 e1 e2 e1 e2", "e2 e1 e2 e1 e2 e1", True),
    ("e1 e2 e1 e2 e1 e2", "e2^-1 e1^-1 e2^-1 e1^-1 e2^-1 e1^-1", True),
    ("e1 e1^-1", "e1", False),  # E's relator reduces to the empty word, matching none
    ("e1 e2 e1^-1 e2^-1", "e1 e2 e1^-1 e2^-1", True),  # literally E's relator
    ("e1 e1^-1", "e3 e3^-1", True),  # both reduce to the empty word
])
def test_relator_text_rule_examples(e_rel, g_rel, holds):
    names = " ".join(f"e{i}" for i in range(12))
    E = parse_presentation(f"gens: {names} ; rels: {e_rel} ;")
    G = parse_presentation(f"gens: {names} ; rels: {g_rel} ;")
    images = dict(enumerate(range(12)))
    assert (_first_foreign_relator(G, E, images) is None) == holds
    if holds:
        families._check_relators(G, E, images)
    else:
        with pytest.raises(ValueError, match="is not a relator"):
            families._check_relators(G, E, images)


@pytest.mark.parametrize("g_rel, holds", [
    ("e1 k e1 e2", True),  # image e1 e1 e2: E's relator e1^2 e2 once reduced
    ("e2 e1 k e1", True),
    ("e1 k e1^-1 e2", False),  # image e1 e1^-1 e2
    ("e1 k e1 e2^-1", False),
])
def test_relator_rule_keys_an_image_literal_only_after_reduction(g_rel, holds):
    """The killed letter k splits a run of e1 in two: the image's runs are
    not E's stored runs, so the rule keys the image by its least rotation
    and decides as the rotation table does."""
    E = parse_presentation("gens: e1 e2 ; rels: e1 e1 e2 ;")
    G = parse_presentation(f"gens: e1 e2 k ; rels: {g_rel} ;")
    images = {0: 0, 1: 1}
    assert (_first_foreign_relator(G, E, images) is None) == holds
    spy = mock.Mock(wraps=families._least_rotation)
    with mock.patch.object(families, "_least_rotation", spy):
        if holds:
            families._check_relators(G, E, images)
        else:
            with pytest.raises(ValueError, match=re.escape(f"ambient relator {g_rel!r} is not")):
                families._check_relators(G, E, images)
    assert spy.call_count == 3  # E's relator, its inverse, then the image


def test_literal_relators_pass_without_rotation_keys(monkeypatch):
    """Against a Z^6 group file written as the benchmark writes one, every
    relator is literal: the cover's model check and the induction key no
    rotation.  A rotated commutator still reaches the rotation keys."""
    def refuse(runs):
        raise AssertionError("keyed by rotation")

    monkeypatch.setattr(families, "_least_rotation", refuse)
    gens = [f"g{i}" for i in range(1, 7)]
    rels = " , ".join(f"{a} {b} {a}^-1 {b}^-1" for a, b in itertools.combinations(gens, 2))
    G = parse_presentation(f"gens: {' '.join(gens)} ; rels: {rels} ;")
    basis = [[2 if i == j and i in (1, 4) else int(i == j) for j in range(6)] for i in range(6)]
    cosets = [Word(()), Word(((1, 1),)), Word(((4, 1),)), Word(((1, 1), (4, 1)))]
    induced = induce_family(character_family_Zn(6, 4), SublatticeCover(G, basis, cosets))
    assert verify_family(induced)
    rotated = G.relators[:-1] + (Word(G.relators[-1].letters[1:] + G.relators[-1].letters[:1]),)
    with pytest.raises(AssertionError, match="keyed by rotation"):
        SublatticeCover(GroupPresentation(G.generators, rotated), basis, cosets)


def _reduced_word(names: str, length: int, rng) -> str:
    letters: list[str] = []
    while len(letters) < length:
        letter = rng.choice(names) + rng.choice(("", "^-1"))
        if not letters or letters[-1][0] != letter[0] or letters[-1] == letter:
            letters.append(letter)
    return " ".join(letters)


def test_long_relators_are_checked_in_memory_linear_in_their_length(tmp_path):
    """A relator of 8000 letters: the table of its rotations took about 1 GB."""
    rng = random.Random(0)
    free_word, z2_word = _reduced_word("cd", 8000, rng), _reduced_word("ab", 8000, rng)
    (tmp_path / "f.grp").write_text(f"gens: a b c d ; rels: a b a^-1 b^-1 , {free_word} ;\n")
    (tmp_path / "z.grp").write_text(f"gens: a b ; rels: a b a^-1 b^-1 , {z2_word} ;\n")
    (tmp_path / "ext.fam").write_text("extend(char_zn(2, 8, gens=[a, b]), group=f.grp)\n")
    (tmp_path / "ind.fam").write_text(
        "induce(char_zn(2, 8), cover=sublattice([[2, 0], [0, 1]]), cosets=[e, a], group=z.grp)\n"
    )
    codes, err = [], io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            for name in ("ext", "ind"):
                codes.append(cli.run(["family", "build", "--expr", str(tmp_path / f"{name}.fam"),
                                      "--out", str(tmp_path / f"{name}.json")]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert codes == [0, 3]
    assert err.getvalue() == (f"error: ambient relator {z2_word!r} does not hold in the "
                              "cover's model group\n")
    assert peak < 50 * 2**20


def _per_image_stack(f: Family, images: Sequence[Word], x, ci):
    """A pullback's stack as the per-image loop built it: generator p acts
    by ``f`` at the word ``images[p]``."""
    rep = f.evaluate_batch(x, ci)
    out = np.empty((len(x), len(images)) + rep.shape[-2:], dtype=complex)
    for p, w in enumerate(images):
        out[:, p] = evaluate_word(w, rep)
    return out


def _extend_case(split):
    f, G = split
    images = [Word(((f.group.generator_index(name), 1),)) if name in f.group.generators
              else Word(()) for name in G.generators]
    return f, extend_free_product(f, G), images


def _pullback_case(case):
    f, cover = case
    return f, pullback_family(f, cover), cover.sub_generator_words


@settings(max_examples=60, deadline=None)
@given(st.one_of(_free_product_split().map(_extend_case),
                 _sublattice_pullback().map(_pullback_case)), st.data())
def test_block_evaluator_matches_the_per_image_stacks(case, data):
    f, pulled, images = case
    for ci in range(f.space.n_components):
        d = f.space.component_x_dim(ci)
        coords = st.floats(0, 1, exclude_max=True, allow_subnormal=False)
        x = np.array(data.draw(st.lists(coords, min_size=3 * d, max_size=3 * d))).reshape(3, d)
        assert np.allclose(pulled.evaluate_batch(x, ci), _per_image_stack(f, images, x, ci),
                           rtol=0, atol=1e-12)
