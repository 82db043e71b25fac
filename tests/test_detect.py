import collections
import functools
import itertools
import json
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from flatdetect import detect
from flatdetect.charforms import MultiForm, winding_number, xgen, zgen
from flatdetect.cli import build_descriptor, parse_expression
from flatdetect.detect import (
    BasisClass,
    DetectionError,
    DirectProduct,
    FiniteIndexSuper,
    Free,
    FreeAbelian,
    FreeProduct,
    SurfaceClosed,
    betti_inequality_check,
    bm_obstruction,
    detection_matrix,
    numeric_detection_report,
    rational_homology,
    slant_contract,
    transfer_scaling_check,
    unitary_poincare_polynomial,
)
from flatdetect.families import (
    Family,
    FinitePointSet,
    KleinBottleCover,
    SublatticeCover,
    TorusGrid,
    character_family_Zn,
    circle_cover,
    direct_sum,
    disjoint_union,
    _abelianize,
    _pullback,
    extend_free_product,
    induce_family,
    numeric_c1_windings,
    pullback_family,
    tensor_families,
    trivial_family,
)
from flatdetect.presentation import (
    GroupPresentation, PresentationError, Word, commutator, evaluate_word, format_word,
    free_abelian, free_group, free_reduce, klein_bottle, parse_presentation, spell,
    surface_group,
)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def _rank_over_Q(rows):
    """Row rank of a rational matrix by Gaussian elimination."""
    m = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = Fraction(1) / m[rank][col]
        m[rank] = [v * inv for v in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def _surface_betti_oracle(genus):
    """Betti numbers from the one-vertex CW structure: a single 2-cell glued
    along the product of commutators; boundary maps computed explicitly."""
    G = surface_group(genus)
    n1 = len(G.generators)
    # d1: each 1-cell is a loop at the unique vertex
    d1 = [[Fraction(0)] for _ in range(n1)]
    # d2: exponent sums of the attaching word
    exps = [0] * n1
    for g, s in G.relators[0].letters:
        exps[g] += s
    d2 = [exps]
    r1 = _rank_over_Q(d1)
    r2 = _rank_over_Q(d2)
    b0 = 1 - r1 + 0
    b1 = n1 - r1 - r2
    b2 = 1 - r2
    return (b0, b1, b2)


def _naive_char_zn_terms(n):
    """Brute-force expansion of prod_j (1 + z_j x_j) with explicit
    transposition-counting signs; independent of MultiForm."""
    terms = {}
    for subset in itertools.chain.from_iterable(
        itertools.combinations(range(1, n + 1), q) for q in range(n + 1)
    ):
        labels = []
        for j in subset:
            labels.extend([("z", j), ("x", j)])
        # bubble sort into canonical order (z's before x's, by index)
        key = lambda l: (0 if l[0] == "z" else 1, l[1])
        sign = 1
        arr = list(labels)
        for i in range(len(arr)):
            for j in range(len(arr) - 1 - i):
                if key(arr[j]) > key(arr[j + 1]):
                    arr[j], arr[j + 1] = arr[j + 1], arr[j]
                    sign = -sign
        terms[tuple(arr)] = sign
    return terms


# ---------------------------------------------------------------------------
# rational homology
# ---------------------------------------------------------------------------


def test_betti_free_abelian():
    assert FreeAbelian(3).betti() == (1, 3, 3, 1)
    assert FreeAbelian(1).betti() == (1, 1)


def test_betti_free_group():
    assert Free(2).betti() == (1, 2)
    assert Free(0).betti() == (1,)


def test_betti_surface_matches_cellular_oracle():
    assert _surface_betti_oracle(2) == (1, 4, 1)
    assert SurfaceClosed(2).betti() == (1, 4, 1)
    assert SurfaceClosed(1).betti() == _surface_betti_oracle(1)


def _magnus_degree_two(w, n):
    """The degree-2 Magnus coefficients c[i][j] (of X_i X_j) of w, each
    generator g sent to 1 + X_g and g^-1 to 1 - X_g + X_g^2, truncated past
    degree 2; independent of the library's omega."""
    a = [0] * n
    c = [[0] * n for _ in range(n)]
    for g, e in spell(w).letters:
        for i in range(n):
            c[i][g] += a[i] * e
        c[g][g] += e < 0
        a[g] += e
    return c


def _antisymmetric(c):
    """Twice the antisymmetrised part, {(i, j): c_ij - c_ji} over base labels i < j."""
    return {(i + 1, j + 1): c[i][j] - c[j][i]
            for i, j in itertools.combinations(range(len(c)), 2) if c[i][j] != c[j][i]}


@pytest.mark.parametrize("genus", [1, 2, 3, 4])
def test_surface_classes_match_the_cellular_oracle_and_the_magnus_sign(genus):
    """Betti numbers from the cellular oracle; the fundamental cycle is +1 at
    every handle z_{2i-1}^z_{2i}, the antisymmetrised degree-2 Magnus
    coefficients of the relator, so the exact row reads -1 at x_{2i-1}^x_{2i}."""
    surface = SurfaceClosed(genus)
    assert surface.betti() == _surface_betti_oracle(genus)
    _, ones, (fundamental,) = _by_degree(surface)
    assert [c.label for c in ones] == [f"z{i}" for i in range(1, 2 * genus + 1)]
    twice = _antisymmetric(_magnus_degree_two(surface_group(genus).relators[0], 2 * genus))
    assert twice == {(2 * i - 1, 2 * i): 2 for i in range(1, genus + 1)}
    assert dict(fundamental.cycle) == {z: Fraction(v, 2) for z, v in twice.items()}
    rep = detection_matrix(SurfaceClosed(genus), [character_family_Zn(2 * genus, 4)])
    assert rep.verdict == "FD-certified"
    row = dict(zip(rep.col_labels, rep.matrix[-1]))
    handles = {f"f0.c0.x{2 * i - 1}^x{2 * i}" for i in range(1, genus + 1)}
    assert {col for col, e in row.items() if e} == handles
    assert all(row[col] == -1 for col in handles)


def test_presentation_complex_of_klein_and_of_a_repeated_relator():
    """The Klein group has Betti numbers (1, 1); a relator given twice gives
    two degree-2 rows of one cycle under distinct labels; a kernel vector of
    cycle 0 stays a row, labeled by its relators, and is undetected by a
    family of its group, while a family of Z^2 is refused."""
    klein = detect.PresentationComplex("klein", klein_bottle())
    assert klein.betti() == (1, 1)
    assert [c.label for c in klein.classes] == ["pt", "z2"]
    twice = detect.PresentationComplex(
        "twice", parse_presentation("gens: a b ; rels: a b a^-1 b^-1 , a b a^-1 b^-1 ;"))
    assert [(c.label, c.cycle) for c in _by_degree(twice)[2]] == [
        ("z1^z2", (((1, 2), 1),)), ("r2", (((1, 2), 1),))]
    torsion_group = parse_presentation("gens: a b ; rels: a a , a a a , b a b^-1 a^-1 ;")
    torsion = detect.PresentationComplex("torsion", torsion_group)
    assert [(c.label, c.cycle) for c in _by_degree(torsion)[2]] == [
        ("-3*r1 + 2*r2", ()), ("-z1^z2", (((1, 2), -1),))]
    # char_zn(2, 4) is a family of Z^2, where a a does not hold
    with pytest.raises(PresentationError, match=re.escape(
            "is no family of torsion: its relator 'z1 z1' does not hold on component 0")):
        detection_matrix(torsion, [character_family_Zn(2, 4)])
    # a family of the group itself, <b> = Z with a trivial: z1^z2 is 0 in H_2 too
    f = _pullback(character_family_Zn(1, 4), torsion_group, [Word(()), Word(((0, 1),))], "b")
    rep = detection_matrix(torsion, [f])
    assert rep.verdict == "undetected" and rep.undetected_classes == ("-3*r1 + 2*r2", "-z1^z2")


def test_a_failing_cross_commutator_is_refused_first_in_order_on_its_first_component():
    """direct_product(free(2), free(2)) asks the cross commutators [z1, z3],
    [z1, z4], [z2, z3], [z2, z4] of a family of F4, in that order.  On the
    pullback of the Klein family along a -> 1, b -> x, c -> y, d -> x, only
    the commutators with b or d fail ([x, y] does not hold); the first of
    them is [z2, z3], named on component 1, the trivial family being
    component 0.  Against free(2) x free(1), whose cross commutators are
    only [z1, z3] and [z2, z3], that same relator fails first."""
    F4 = free_group(4, "abcd")
    klein = induce_family(character_family_Zn(2, 8), KleinBottleCover())
    images = [Word(()), Word(((0, 1),)), Word(((1, 1),)), Word(((0, 1),))]
    fam = disjoint_union(trivial_family(F4, 2), _pullback(klein, F4, images, "k"))
    d = DirectProduct(Free(2), Free(2))
    assert d.relators == tuple(commutator(Word(((i, 1),)), Word(((j, 1),)))
                               for i in range(2) for j in range(2, 4))
    with pytest.raises(PresentationError, match=re.escape(
            "family 0 (union(trivial(dim=2), k)) is no family of direct_product(free(2), "
            "free(2)): its relator 'z2 z3 z2^-1 z3^-1' does not hold on component 1")):
        detection_matrix(d, [fam])
    f3 = disjoint_union(trivial_family(free_group(3, "abc"), 2),
                        _pullback(klein, free_group(3, "abc"), images[:3], "k"))
    with pytest.raises(PresentationError, match=re.escape(
            "its relator 'z2 z3 z2^-1 z3^-1' does not hold on component 1")):
        detection_matrix(DirectProduct(Free(2), Free(1)), [f3])
    # with b and d sent to 1 every cross commutator holds, and the next check
    # speaks: the Klein family has no exact character
    trivial_images = [Word(()), Word(()), Word(((1, 1),)), Word(())]
    held = disjoint_union(trivial_family(F4, 2), _pullback(klein, F4, trivial_images, "k"))
    with pytest.raises(DetectionError, match="lacks exact character data"):
        detection_matrix(d, [held])


def test_presentation_complex_degree_two_basis_under_non_unit_pivots():
    """<a | a^2, a^3, a^5>: the rows 2, 3, 5 eliminate over Q with non-unit
    pivots, and the kernel's basis is pinned: each dependent row is reduced
    by the rows before it, scaled to a primitive integer vector."""
    d = detect.PresentationComplex(
        "g", parse_presentation("gens: a ; rels: a a , a a a , a a a a a ;"))
    assert [(c.label, c.degree, c.cycle) for c in d.classes] == [
        ("pt", 0, (((), 1),)), ("-3*r1 + 2*r2", 2, ()), ("-5*r1 + 2*r3", 2, ())]


@pytest.mark.parametrize("rank", [0, 1, 2, 3])
def test_presentation_complex_is_the_torus_model_through_degree_two(rank):
    """free_abelian(n) keeps the torus model: its presentation 2-complex
    agrees through degree 2 and misses degree >= 3."""
    torus = FreeAbelian(rank)
    complex_ = detect.PresentationComplex(torus.label, free_abelian(rank))
    assert _by_degree(complex_) == _by_degree(torus)[:3]
    assert (complex_ == torus) == (rank <= 2)


def test_exponent_sum_budget_refuses_before_elimination(monkeypatch):
    monkeypatch.setattr(detect, "MAX_RELATION_CELLS", 4)
    # zero rows are not counted: every relator of surface(3) sums to zero
    assert SurfaceClosed(3).betti() == (1, 6, 1)
    G = parse_presentation("gens: a b c ; rels: a b , b c , a b a^-1 b^-1 ;")
    monkeypatch.setattr(detect, "reduce_rows", None)  # no elimination may start
    with pytest.raises(ValueError, match=re.escape(
            "g has an exponent-sum matrix of 2 nonzero rows and 3 columns, more than "
            "the 4 cells eliminated at most")):
        detect.PresentationComplex("g", G)


def test_exponent_sum_budget_is_shared_by_the_leaves_of_one_expression(tmp_path, monkeypatch):
    grp = tmp_path / "g.grp"
    grp.write_text("gens: a b c ; rels: a b , b c , a b a^-1 b^-1 ;\n")  # 2 x 3 cells
    leaf = f"group({grp})"
    monkeypatch.setattr(detect, "MAX_RELATION_CELLS", 12)
    eliminated = []
    real = detect.reduce_rows
    monkeypatch.setattr(detect, "reduce_rows", lambda rows: eliminated.append(1) or real(rows))
    pair = build_descriptor(parse_expression(f"free_product({leaf}, {leaf})"))
    assert pair.betti() == (1, 2, 2) and len(eliminated) == 2
    with pytest.raises(ValueError, match=re.escape(
            f"{leaf} has an exponent-sum matrix of 2 nonzero rows and 3 columns, more than "
            "the 0 cells left of the 12 eliminated at most in one expression")):
        build_descriptor(parse_expression(f"direct_product({leaf}, free_product({leaf}, {leaf}))"))
    assert len(eliminated) == 4  # the third leaf is refused before its elimination
    # free and surface leaves have no nonzero rows; each expression has a budget
    # of its own, and a group built outside one is bounded on its own
    both = f"free_product(surface(2), free_product(free(3), free_product({leaf}, {leaf})))"
    assert build_descriptor(parse_expression(both)).betti() == (1, 9, 3)
    G = parse_presentation(grp.read_text())
    assert all(detect.PresentationComplex("g", G).betti() == (1, 1, 1) for _ in range(3))


def _reversed_commutator(n: int) -> str:
    """<g0, ..., g(n-1) | [u, v]>, u = g0 ... g(n-1) and v its reverse: the
    relator sums to zero and its cycle is 0, yet omega reads 3 n^2 - 2 n
    prefix sums (the two joins where a letter repeats are runs of 2)."""
    names = [f"g{i}" for i in range(n)]
    u, v = " ".join(names), " ".join(reversed(names))
    inverse = " ".join(f"{g}^-1" for g in reversed(names))
    return f"gens: {u} ; rels: {u} {v} {inverse} {' '.join(f'{g}^-1' for g in names)} ;\n"


def test_cycle_term_budget_refuses_before_any_omega(monkeypatch):
    built = detect.PresentationComplex("g", parse_presentation(_reversed_commutator(209)))
    assert [(c.label, c.cycle) for c in _by_degree(built)[2]] == [("r1", ())]  # 130625 read
    G = parse_presentation(_reversed_commutator(210))
    monkeypatch.setattr(detect, "_omega", None)  # no omega may start
    with pytest.raises(ValueError, match=re.escape(
            "g reads 131880 prefix sums building its degree-2 cycles, more than the 131072 "
            "read at most")):
        detect.PresentationComplex("g", G)
    # the reads of every kernel vector add up: two of 4 each pass a bound of 7
    monkeypatch.setattr(detect, "MAX_CYCLE_TERMS", 7)
    twice = parse_presentation("gens: a b ; rels: a b a^-1 b^-1 , b a b^-1 a^-1 ;")
    with pytest.raises(ValueError, match="g reads 8 prefix sums"):
        detect.PresentationComplex("g", twice)


def _twice_wedge(u, v, n):
    """2 (ab(u) ^ ab(v)), {(i, j): coefficient} over base labels i < j."""
    a, b = _abelianize(u, n), _abelianize(v, n)
    return {(i + 1, j + 1): 2 * (a[i] * b[j] - a[j] * b[i])
            for i, j in itertools.combinations(range(n), 2) if a[i] * b[j] != a[j] * b[i]}


def _added(*terms):
    out = {}
    for term in terms:
        for z, v in term.items():
            out[z] = out.get(z, 0) + v
    return {z: v for z, v in out.items() if v}


_N_OMEGA = 4
# words built from letters by products, commutators and conjugates
_OMEGA_WORDS = st.recursive(
    st.tuples(st.integers(0, _N_OMEGA - 1), st.sampled_from((1, -1))).map(lambda l: Word((l,))),
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda uv: uv[0] * uv[1]),
        st.tuples(inner, inner).map(lambda uv: commutator(*uv)),
        st.tuples(inner, inner).map(lambda uv: uv[0] * uv[1] * uv[0].inverse()),
    ),
    max_leaves=8,
)


@settings(max_examples=200, deadline=None)
@given(_OMEGA_WORDS, _OMEGA_WORDS)
def test_omega_satisfies_the_hand_formulas(u, v):
    """omega(uv) = omega(u) + omega(v) + 1/2 ab(u)^ab(v), omega([u, v]) =
    ab(u)^ab(v), omega is the antisymmetrised degree-2 Magnus coefficient and
    is unchanged by free reduction; the library returns twice omega."""
    def twice(w):
        return detect._omega(w)

    cross = _twice_wedge(u, v, _N_OMEGA)
    assert twice(u * v) == _added(twice(u), twice(v), {z: c // 2 for z, c in cross.items()})
    assert twice(commutator(u, v)) == cross
    for w in (u, v, u * v):
        assert twice(w) == _antisymmetric(_magnus_degree_two(w, _N_OMEGA))
        assert twice(free_reduce(w)) == twice(w)


def test_betti_free_product_adds_in_positive_degrees():
    d = FreeProduct(FreeAbelian(2), Free(3))
    assert d.betti() == (1, 5, 1)


def test_betti_direct_product_is_kunneth_convolution():
    d = DirectProduct(FreeAbelian(2), FreeAbelian(1))
    assert d.betti() == (1, 3, 3, 1)


def test_finite_index_super_requires_table():
    with pytest.raises(TypeError, match="homology"):
        FiniteIndexSuper(FreeAbelian(2), 2, "klein")
    d = FiniteIndexSuper(FreeAbelian(2), 2, "klein", (("pt",), ("b",)))
    assert d.betti() == (1, 1)
    # Betti numbers end at the top class's degree, so trailing empty rows read no zero
    assert FiniteIndexSuper(FreeAbelian(2), 2, "klein", (("pt",), ("b",), ())).betti() == (1, 1)


def test_class_budget_refuses_a_descriptor_before_building_it(monkeypatch):
    with pytest.raises(ValueError, match=r"^free_abelian\(17\) has 2\^17 homology classes, "
                       r"more than the 65536 built at most$"):
        FreeAbelian(17)
    assert FreeAbelian(16).betti()[8] == 12870  # exactly the budget
    monkeypatch.setattr(detect, "MAX_CLASSES", 8)
    assert sum(FreeAbelian(3).betti()) == 8
    assert sum(DirectProduct(Free(1), FreeAbelian(2)).betti()) == 8
    for build, count in [
        (lambda: FreeAbelian(4), "2^4"),
        (lambda: FreeAbelian(10**100), f"2^{10**100}"),
        (lambda: Free(8), 9),
        (lambda: SurfaceClosed(4), 10),
        (lambda: DirectProduct(Free(2), FreeAbelian(2)), 12),
        (lambda: FreeProduct(FreeAbelian(3), FreeAbelian(2)), 11),
    ]:
        with pytest.raises(ValueError, match=rf" has {re.escape(str(count))} homology classes, "
                           "more than the 8 built at most$"):
            build()


def test_cell_budget_refuses_a_pairing_before_building_its_tables(monkeypatch):
    fams = [character_family_Zn(2, 2), character_family_Zn(2, 2)]
    monkeypatch.setattr(detect, "MAX_CELLS", 32)  # 4 classes x 8 columns
    assert detection_matrix(FreeAbelian(2), fams).verdict == "FD-certified"
    monkeypatch.setattr(detect, "MAX_CELLS", 31)
    monkeypatch.setattr(MultiForm, "split_z", None)  # no table may be built
    with pytest.raises(PresentationError, match=re.escape(
            "the detection matrix of free_abelian(2) has 4 rows and 8 columns, "
            "more than the 31 cells computed at most")):
        detection_matrix(FreeAbelian(2), fams)


_POINT = (((), 1),)
# the per-degree basis value the flat class list replaced: per degree a tuple of classes
_PerDegree = collections.namedtuple("_PerDegree", "classes z_dim")


def _by_degree(d):
    """A group class's flat class list grouped per degree 0..top."""
    degrees = [[] for _ in range(d.classes[-1].degree + 1)]
    for c in d.classes:
        degrees[c.degree].append(c)
    return tuple(map(tuple, degrees))


def _reference_shift_basis(b, z_offset, tag):
    shifted = tuple(
        tuple(
            BasisClass(
                label=f"{tag}{c.label}",
                degree=c.degree,
                cycle=tuple((tuple(i + z_offset for i in z), k) for z, k in c.cycle)
                if c.cycle is not None
                else None,
            )
            for c in degree
        )
        for degree in b.classes
    )
    return _PerDegree(shifted, b.z_dim)


def _reference_homology(spec):
    """The per-degree construction of the basis of a group class spec
    ``(kind, args)`` that the flat class list replaced, kept as the
    reference it must agree with.  Raises ValueError on a homology table
    whose degree-0 row is not one label."""
    kind, args = spec
    if kind == "free_abelian":
        (n,) = args
        degrees = []
        for q in range(n + 1):
            classes = []
            for subset in itertools.combinations(range(1, n + 1), q):
                label = "pt" if q == 0 else "^".join(f"z{i}" for i in subset)
                classes.append(BasisClass(label, q, ((subset, 1),)))
            degrees.append(tuple(classes))
        return _PerDegree(tuple(degrees), n)
    if kind == "free":
        (n,) = args
        point = (BasisClass("pt", 0, _POINT),)
        if n == 0:
            return _PerDegree((point,), 0)
        ones = tuple(BasisClass(f"z{i}", 1, (((i,), 1),)) for i in range(1, n + 1))
        return _PerDegree((point, ones), n)
    if kind == "surface":
        # a_i and b_i are the cycles z_{2i-1} and z_{2i}; the fundamental
        # class is the sum of the handles z_{2i-1}^z_{2i}
        (g,) = args
        point = (BasisClass("pt", 0, _POINT),)
        ones = tuple(BasisClass(f"z{i}", 1, (((i,), 1),)) for i in range(1, 2 * g + 1))
        handles = tuple(((2 * i - 1, 2 * i), 1) for i in range(1, g + 1))
        label = " + ".join(f"z{a}^z{b}" for (a, b), _ in handles)
        return _PerDegree((point, ones, (BasisClass(label, 2, handles),)), 2 * g)
    if kind == "free_product":
        bl = _reference_homology(args[0])
        br = _reference_shift_basis(_reference_homology(args[1]), bl.z_dim, "R.")
        top = max(len(bl.classes), len(br.classes))
        degrees = [(BasisClass("pt", 0, _POINT),)]
        for q in range(1, top):
            row = []
            if q < len(bl.classes):
                row.extend(bl.classes[q])
            if q < len(br.classes):
                row.extend(br.classes[q])
            degrees.append(tuple(row))
        return _PerDegree(tuple(degrees), bl.z_dim + br.z_dim)
    if kind == "direct_product":
        bl = _reference_homology(args[0])
        br = _reference_shift_basis(_reference_homology(args[1]), bl.z_dim, "R.")
        top = (len(bl.classes) - 1) + (len(br.classes) - 1)
        degrees = []
        for q in range(top + 1):
            row = []
            for ql in range(len(bl.classes)):
                qr = q - ql
                if not 0 <= qr < len(br.classes):
                    continue
                for cl in bl.classes[ql]:
                    for cr in br.classes[qr]:
                        cycle = (
                            tuple((zl + zr, a * b) for zl, a in cl.cycle for zr, b in cr.cycle)
                            if cl.cycle is not None and cr.cycle is not None
                            else None
                        )
                        label = (
                            cl.label
                            if cr.degree == 0
                            else (cr.label if cl.degree == 0 else f"{cl.label}x{cr.label}")
                        )
                        row.append(BasisClass(label, q, cycle))
            degrees.append(tuple(row))
        return _PerDegree(tuple(degrees), bl.z_dim + br.z_dim)
    sub, _, _, table = args
    _reference_homology(sub)
    if len(table) == 0 or len(table[0]) != 1:
        raise ValueError("a homology table needs exactly one degree-0 label")
    degrees = tuple(
        tuple(BasisClass(label, q, None if q else _POINT) for label in labels)
        for q, labels in enumerate(table)
    )
    return _PerDegree(degrees, 0)


_CONSTRUCTORS = {
    "free": Free,
    "free_abelian": FreeAbelian,
    "surface": SurfaceClosed,
    "free_product": FreeProduct,
    "direct_product": DirectProduct,
    "finite_index_super": FiniteIndexSuper,
}


def _from_spec(spec):
    """The group class of a spec, built through the library constructors."""
    kind, args = spec
    if kind in ("free_product", "direct_product"):
        args = tuple(map(_from_spec, args))
    elif kind == "finite_index_super":
        args = (_from_spec(args[0]), *args[1:])
    return _CONSTRUCTORS[kind](*args)


def _spec_text(spec, tables=True):
    """The expression of a spec; without ``tables`` it is the describe() text,
    which leaves out the homology table."""
    kind, args = spec
    if kind in ("free", "free_abelian", "surface"):
        return f"{kind}({args[0]})"
    if kind != "finite_index_super":
        return f"{kind}({_spec_text(args[0], tables)}, {_spec_text(args[1], tables)})"
    sub, index, label, table = args
    text = f"{kind}({_spec_text(sub, tables)}, {index}, {label}"
    if tables:
        text += ", homology=[" + ", ".join(f"[{', '.join(row)}]" for row in table) + "]"
    return text + ")"


_LABEL_ROWS = st.lists(st.sampled_from(["pt", "a", "b", "c"]), max_size=3).map(tuple)


def _specs(tables):
    """Group class specs (kind, args), nested up to four leaves; a
    finite-index supergroup's table is drawn from ``tables``."""
    return st.recursive(
        st.one_of(
            st.tuples(st.just("free"), st.tuples(st.integers(0, 3))),
            st.tuples(st.just("free_abelian"), st.tuples(st.integers(0, 3))),
            st.tuples(st.just("surface"), st.tuples(st.integers(1, 3))),
        ),
        lambda inner: st.one_of(
            st.tuples(st.sampled_from(["free_product", "direct_product"]),
                      st.tuples(inner, inner)),
            st.tuples(st.just("finite_index_super"),
                      st.tuples(inner, st.integers(2, 3), st.just("t"), tables)),
        ),
        max_leaves=4,
    )


@settings(max_examples=300, deadline=None)
@given(_specs(st.lists(_LABEL_ROWS, max_size=4).map(tuple)))
def test_rational_homology_matches_per_degree_reference(spec):
    try:
        expected = _reference_homology(spec)
    except ValueError:
        with pytest.raises(ValueError, match="one degree-0 label"):
            _from_spec(spec)
        return
    got = _from_spec(spec)
    degrees = list(expected.classes)
    while not degrees[-1]:  # the flat value ends at its top class's degree
        degrees.pop()
    assert _by_degree(got) == tuple(degrees)
    assert rational_homology(got) == got.classes == sum(degrees, ())
    assert got.betti() == tuple(map(len, degrees))
    assert got.z_dim == expected.z_dim


def _cycle_form(cycle):
    """A cycle as the form sum of coefficient * z-monomial."""
    return sum(
        (k * MultiForm({tuple(("z", i) for i in z): 1}) for z, k in cycle), MultiForm()
    )


# 64 x 512 = 32768 classes, within the budget: the one product of that size
# checked, as the reference wedges take about 0.6 s for it; drawn products
# are kept to at most 2^12 classes
_LARGE_PRODUCT = dict(
    left=("direct_product", (("free", (3,)),
                             ("direct_product", (("free", (3,)), ("free", (3,)))))),
    right=("direct_product", (("free_abelian", (3,)),
                              ("direct_product", (("free_abelian", (3,)), ("surface", (3,)))))),
)


@settings(max_examples=200, deadline=None)
@given(_specs(st.lists(_LABEL_ROWS, min_size=1, max_size=3).map(
    lambda rows: (("pt",), *rows[1:]))), _specs(st.just((("pt",), ("a",)))))
@example(**_LARGE_PRODUCT)
@example(  # 72 x 1024 = 73728 classes, past the budget
    left=("direct_product", (("free", (2,)),
                             ("direct_product", (("free", (2,)), ("surface", (3,)))))),
    right=("direct_product", (("direct_product", (("free", (1,)), ("free_abelian", (3,)))),
                              ("direct_product", (("free_abelian", (3,)), ("surface", (3,)))))),
)
def test_direct_product_cycles_are_products_of_the_factor_cycles(left, right):
    """Each class of a direct product is the wedge of its factors' cycles,
    the right one shifted past the left's base labels, or has no cycle when
    a factor has none; a product of more classes than the budget is refused."""
    lg, rg = _from_spec(left), _from_spec(right)
    classes = len(lg.classes) * len(rg.classes)
    if classes > detect.MAX_CLASSES:
        with pytest.raises(ValueError, match=f"more than the {detect.MAX_CLASSES} built at most"):
            DirectProduct(lg, rg)
        return
    assume(classes <= 2**12 or dict(left=left, right=right) == _LARGE_PRODUCT)
    shift = lg.z_dim
    # the product's classes are the pairs, ordered by degree and then pair order
    pairs = sorted(
        ((cl, cr) for cl in lg.classes for cr in rg.classes),
        key=lambda pair: pair[0].degree + pair[1].degree,
    )
    got = DirectProduct(lg, rg).classes
    assert len(got) == len(pairs)
    for c, (cl, cr) in zip(got, pairs):
        assert c.degree == cl.degree + cr.degree
        if cl.cycle is None or cr.cycle is None:
            assert c.cycle is None
            continue
        right_form = _cycle_form(cr.cycle).shift(z_offset=shift)
        assert _cycle_form(c.cycle) == _cycle_form(cl.cycle) * right_form
        assert all(list(z) == sorted(set(z)) for z, _ in c.cycle)


_VALID_TABLES = st.builds(
    lambda point, rows: ((point,), *rows),
    st.sampled_from(["pt", "a"]),
    st.lists(_LABEL_ROWS, max_size=2),
)


@settings(max_examples=150, deadline=None)
@given(_specs(_VALID_TABLES))
def test_parsed_descriptor_equals_the_library_value(spec):
    text = _spec_text(spec)
    d = build_descriptor(parse_expression(text))
    assert d == _from_spec(spec)
    assert d.describe() == _spec_text(spec, tables=False)


# ---------------------------------------------------------------------------
# slant contraction
# ---------------------------------------------------------------------------


def test_contract_point_class():
    ch = 1 + zgen(1) * xgen(1)
    cls = BasisClass("pt", 0, _POINT)
    assert slant_contract(ch, cls) == MultiForm.constant(1)


def test_contract_circle_class():
    ch = 1 + zgen(1) * xgen(1)
    cls = BasisClass("z1", 1, (((1,), 1),))
    assert slant_contract(ch, cls) == xgen(1)


def test_contract_trivial_bundle_kills_reduced_classes():
    ch = MultiForm.constant(1)
    assert slant_contract(ch, BasisClass("z1", 1, (((1,), 1),))).is_zero()
    assert slant_contract(ch, BasisClass("z1^z2", 2, (((1, 2), 1),))).is_zero()


def test_contract_modelless_class_rejected():
    with pytest.raises(DetectionError, match="numeric"):
        slant_contract(MultiForm.constant(1), BasisClass("fundamental", 2, None))


def test_slant_module_property_randomized():
    rng = random.Random(31)
    for _ in range(100):
        ch1 = _random_form(rng, zmax=3, xmax=3)
        ch2 = _random_form(rng, zmax=0, xmax=5)  # no base labels
        mono = tuple(sorted(rng.sample([1, 2, 3], rng.randint(0, 3))))
        lhs = (ch1 * ch2).contract_z(mono)
        rhs = ch1.contract_z(mono) * ch2
        assert lhs == rhs


def test_slant_naturality_restriction_commutes():
    rng = random.Random(32)
    for _ in range(100):
        ch = _random_form(rng, zmax=3, xmax=4)
        keep = [1, 2]
        mono = tuple(sorted(rng.sample([1, 2, 3], rng.randint(0, 2))))
        assert ch.contract_z(mono).restrict_x(keep) == ch.restrict_x(keep).contract_z(mono)


def _random_form(rng, zmax, xmax, max_terms=4):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        zpart = tuple(("z", i) for i in sorted(rng.sample(range(1, zmax + 1), rng.randint(0, zmax))) ) if zmax else ()
        xpart = tuple(("x", i) for i in sorted(rng.sample(range(1, xmax + 1), rng.randint(0, xmax))) ) if xmax else ()
        coeff = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        terms[zpart + xpart] = coeff
    return MultiForm(terms)


# ---------------------------------------------------------------------------
# detection matrices
# ---------------------------------------------------------------------------


def _is_signed_permutation(matrix):
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        return False
    for row in matrix:
        nz = [e for e in row if e != 0]
        if len(nz) != 1 or abs(nz[0]) != 1:
            return False
    for col in zip(*matrix):
        if sum(1 for e in col if e != 0) != 1:
            return False
    return True


def test_detection_zn_signed_permutation_vs_oracle():
    for n in (1, 2, 3):
        f = character_family_Zn(n, 4)
        rep = detection_matrix(FreeAbelian(n), [f])
        assert rep.verdict == "FD-certified"
        assert _is_signed_permutation(rep.matrix)
        # oracle: entries from the naive expansion
        naive = _naive_char_zn_terms(n)
        basis = FreeAbelian(n).classes
        for cls, row in zip(basis, rep.matrix):
            for (f_i, c_i, mono), entry in zip(
                [(0, 0, m) for m in _x_monos(n)], row
            ):
                ((zpart, _),) = cls.cycle
                labels = tuple(("z", i) for i in zpart) + tuple(
                    ("x", i) for i in mono
                )
                assert entry == naive.get(labels, 0)


def _x_monos(n):
    out = []
    for q in range(n + 1):
        out.extend(itertools.combinations(range(1, n + 1), q))
    return out


def _reference_matrix(d, fams):
    """Cell-by-cell pairing: slant_contract each component form against each
    class, then read off each x-monomial's coefficient, in the column order
    of detection_matrix.  Each cell is also checked against the cycle's
    combination of the form's own coefficients of z-part ^ x-part: a z-part
    is a canonical prefix, so contracting it strips it with no sign."""
    rows = []
    for cls in d.classes:
        row = []
        for f in fams:
            for ci in range(f.space.n_components):
                contracted = slant_contract(f.chern[ci], cls)
                for mono in _x_monos(f.space.component_x_dim(ci)):
                    xlabels = [("x", i) for i in mono]
                    cell = contracted.coefficient(xlabels)
                    assert cell == sum(
                        k * f.chern[ci].coefficient([("z", i) for i in z] + xlabels)
                        for z, k in cls.cycle
                    )
                    row.append(cell)
        rows.append(tuple(row))
    return tuple(rows)


@st.composite
def _sublattice_cover(draw, n):
    """An upper-triangular sublattice of Z^n with diagonal entries d_i; the
    box 0 <= v_i < d_i holds exactly one representative of each coset."""
    diag = draw(st.lists(st.integers(1, 2), min_size=n, max_size=n))
    basis = [
        [diag[i] if i == j else (draw(st.integers(-2, 2)) if i < j else 0)
         for j in range(n)]
        for i in range(n)
    ]
    cosets = [
        Word(tuple((i, 1) for i in range(n) for _ in range(v[i])))
        for v in itertools.product(*(range(d) for d in diag))
    ]
    return SublatticeCover(free_abelian(n), basis, cosets)


@st.composite
def _random_form_family(draw, n):
    """A family of Z^n over a torus whose character form has random terms."""
    x_dim = draw(st.integers(1, 3))
    terms = draw(
        st.dictionaries(
            st.tuples(
                st.sets(st.integers(1, n), max_size=n),
                st.sets(st.integers(1, x_dim), max_size=x_dim),
            ).map(lambda zx: tuple(("z", i) for i in sorted(zx[0]))
                  + tuple(("x", i) for i in sorted(zx[1]))),
            st.fractions(min_value=-3, max_value=3, max_denominator=4),
            max_size=8,
        )
    )
    return Family(
        group=free_abelian(n),
        space=TorusGrid(x_dim, 2),
        perm=(np.zeros((n, 1), dtype=int),),
        phase=(np.zeros((n, 1, x_dim), dtype=int),),
        structure="random",
        chern=(MultiForm(terms),),
    )


@st.composite
def _leaf_family(draw, n):
    kind = draw(st.sampled_from(["char", "induce", "pullback", "random"]))
    if kind == "char":
        return character_family_Zn(n, 2)
    if kind == "random":
        return draw(_random_form_family(n))
    cover = draw(_sublattice_cover(n))
    if kind == "induce":
        return induce_family(character_family_Zn(n, 2), cover)
    return pullback_family(character_family_Zn(n, 2), cover)


@st.composite
def _union_or_leaf(draw, max_rank):
    n = draw(st.integers(1, max_rank))
    f = draw(_leaf_family(n))
    if draw(st.booleans()):
        return disjoint_union(f, draw(_leaf_family(n)))
    return f


@st.composite
def _exact_families(draw):
    """char_zn, sublattice induce/pullback and random-form families of ranks
    1..3, their disjoint unions, and tensor products of those."""
    if draw(st.booleans()):
        return draw(_union_or_leaf(3))
    return tensor_families(draw(_union_or_leaf(2)), draw(_union_or_leaf(2)))


_SLOW_DATA = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _padded(f, n):
    """``f`` as a family of n >= f.base_dim generators: the trivial family
    of the extra ones adds base labels and leaves the form unchanged."""
    return tensor_families(f, trivial_family(free_abelian(n - f.base_dim)))


def _canonical(report):
    """The report's sparse rows, one per class, hold no zero entry and
    ascending columns within its width, one column per label."""
    rows, width = report.sparse.rows, report.sparse.width
    assert width == len(report.col_labels) and len(rows) == len(report.row_labels)
    for row in rows:
        assert all(row.values()) and list(row) == sorted(row) and set(row) <= set(range(width))
    return report


@_SLOW_DATA
@given(st.lists(_exact_families(), min_size=1, max_size=2))
def test_detection_matrix_equals_cellwise_slant_contraction(fams):
    n = max(f.base_dim for f in fams)
    fams = [_padded(f, n) for f in fams]
    d = FreeAbelian(n)
    assert _canonical(detection_matrix(d, fams)).matrix == _reference_matrix(d, fams)


def test_json_dumps_of_a_reports_dict_raises_rather_than_writing_other_json():
    """A report's "matrix" is its SparseMatrix, which only the CLI's writer
    emits (as dense rows of "p/q" strings); plain ``json`` refuses it."""
    report = detection_matrix(FreeAbelian(2), [character_family_Zn(2, 4)])
    assert report.to_json_dict()["matrix"] is report.sparse
    message = "^Object of type SparseMatrix is not JSON serializable$"
    for indent in (None, 2):
        with pytest.raises(TypeError, match=message):
            json.dumps(report.to_json_dict(), indent=indent)


@st.composite
def _product_descriptors(draw):
    """Direct and free products, nested once: the right factor's cycles
    are shifted past the left factor's z-labels."""
    factor = st.builds(
        lambda cls, k: cls(k), st.sampled_from([Free, FreeAbelian]), st.integers(0, 3)
    )
    combine = st.sampled_from([DirectProduct, FreeProduct])
    left = draw(factor)
    if draw(st.booleans()):
        left = draw(combine)(left, draw(factor))
    return draw(combine)(left, draw(factor))


@_SLOW_DATA
@given(_exact_families(), _product_descriptors())
def test_detection_matrix_equals_cellwise_on_product_bases(f, d):
    # the smaller side is padded: the family by trivial generators, the
    # descriptor by a free factor
    if d.z_dim < f.base_dim:
        d = FreeProduct(d, Free(f.base_dim - d.z_dim))
    f = _padded(f, d.z_dim)
    assert _canonical(detection_matrix(d, [f])).matrix == _reference_matrix(d, [f])


@st.composite
def _random_cycles(draw, n):
    """Classes of random rational cycles in n base labels: per class a
    degree q and up to three distinct q-subsets with nonzero coefficients."""
    classes = []
    for j in range(draw(st.integers(1, 4))):
        q = draw(st.integers(0, n))
        subsets = draw(st.lists(
            st.sets(st.integers(1, n), min_size=q, max_size=q).map(lambda z: tuple(sorted(z))),
            min_size=1, max_size=3, unique=True,
        ))
        coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
        classes.append(BasisClass(f"c{j}", q, tuple((z, draw(coefficients)) for z in subsets)))
    return classes


@_SLOW_DATA
@given(_exact_families(), st.data())
def test_pairing_a_cycle_is_the_sum_of_its_terms_contractions(f, data):
    """Slant contraction against a multi-term rational cycle is the sum of
    its terms' contractions, and every detection-matrix cell is that form's
    coefficient of the cell's x-monomial: the cycle's combination of the
    character form's coefficients."""
    n = f.base_dim
    classes = data.draw(_random_cycles(n))
    d = detect._group_class("cycles", classes, n)
    rows = detection_matrix(d, [f]).matrix
    for cls, row in zip(d.classes, rows):
        cells = iter(row)
        for ci, ch in enumerate(f.chern):
            form = slant_contract(ch, cls)
            assert form == sum((k * ch.contract_z(z) for z, k in cls.cycle), MultiForm())
            for mono in _x_monos(f.space.component_x_dim(ci)):
                xlabels = [("x", i) for i in mono]
                assert next(cells) == form.coefficient(xlabels) == sum(
                    k * ch.coefficient([("z", i) for i in z] + xlabels) for z, k in cls.cycle
                )
        assert next(cells, None) is None


# ---------------------------------------------------------------------------
# certificates: full row rank, and the witness of dependent rows
# ---------------------------------------------------------------------------


@st.composite
def _z2_cover(draw):
    """The sublattice of Z^2 spanned by the columns of a random matrix m with
    1 <= |det m| <= 3, with one representative per coset: v and u share a
    coset when adj(m) (v - u) = 0 mod det m, and the box [0, |det m|)^2
    meets every coset."""
    a, b, c, d = draw(st.tuples(*[st.integers(-2, 2)] * 4).filter(
        lambda m: 1 <= abs(m[0] * m[3] - m[1] * m[2]) <= 3
    ))
    det = a * d - b * c
    reps = []
    for x, y in itertools.product(range(abs(det)), repeat=2):
        if not any((d * (x - u) - b * (y - v)) % det == 0
                   and (a * (y - v) - c * (x - u)) % det == 0 for u, v in reps):
            reps.append((x, y))
    cosets = [free_reduce(Word(((0, x), (1, y)))) for x, y in reps]
    return SublatticeCover(free_abelian(2), [[a, b], [c, d]], cosets)


@st.composite
def _z2_tree(draw, depth: int = 2):
    """A family of Z^2: char_zn, pullback and induce along random sublattices,
    sum (with a pullback or induction of itself, over the same space) and
    union."""
    kinds = ["char"] + (["pullback", "induce", "sum", "union"] if depth else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "char":
        return character_family_Zn(2, 2)
    f = draw(_z2_tree(depth - 1))
    if kind == "union":
        return disjoint_union(f, draw(_z2_tree(depth - 1)))
    cover = draw(_z2_cover())
    g = draw(st.sampled_from([pullback_family, induce_family]))(f, cover)
    if kind == "sum":
        return direct_sum(f, g)
    return pullback_family(f, cover) if kind == "pullback" else induce_family(f, cover)


def _combination(text, labels):
    """{row index: coefficient} of a witness such as "z1 - 3/2*z1^z2"."""
    tokens = ["+"] + text.split(" ")
    out = {}
    for op, term in zip(tokens[::2], tokens[1::2]):
        coefficient, _, label = term.rpartition("*")
        out[labels.index(label)] = Fraction(coefficient or 1) * (-1 if op == "-" else 1)
    return out


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(_z2_tree(), min_size=1, max_size=3))
def test_certified_exactly_at_full_row_rank_and_the_witness_pairs_to_zero(fams):
    report = detection_matrix(FreeAbelian(2), fams)
    rows = report.matrix
    full = _rank_over_Q(rows) == len(rows)
    assert (report.verdict == "FD-certified") == full
    assert (report.witness is not None) == (not full and all(report.detected))
    assert ("witness" in report.to_json_dict()) == (report.witness is not None)
    if report.witness is not None:
        coefficients = _combination(report.witness, report.row_labels)
        assert coefficients[min(coefficients)] == 1
        for col in range(len(report.col_labels)):
            assert sum(c * rows[i][col] for i, c in coefficients.items()) == 0
        # the first dependency in row order: the rows before its last are independent
        last = max(coefficients)
        assert _rank_over_Q(rows[:last]) == _rank_over_Q(rows[: last + 1]) == last


def test_rows_equal_but_nonzero_are_not_certified():
    char = character_family_Zn(2, 4)

    def swapped(m):
        return direct_sum(char, pullback_family(char, SublatticeCover(char.group, m, [Word(())])))

    report = detection_matrix(
        FreeAbelian(2), [swapped([[0, 1], [1, 0]]), swapped([[-1, 0], [0, -1]])]
    )
    assert all(report.detected) and report.undetected_classes == ()
    assert report.row_labels[1:3] == ("z1", "z2") and report.matrix[1] == report.matrix[2]
    assert report.verdict == "undetected"
    assert report.to_json_dict()["witness"] == "z1 - z2"
    assert "witness" not in detection_matrix(FreeAbelian(2), [char]).to_json_dict()


@_SLOW_DATA
@given(_z2_tree())
def test_numeric_windings_equal_the_exact_coefficients_sign_included(f):
    windings = numeric_c1_windings(f, 64)
    for ci, per_generator in enumerate(windings):
        for g, per_axis in enumerate(per_generator):
            for axis, w in enumerate(per_axis):
                assert w == f.chern[ci].coefficient((("z", g + 1), ("x", axis + 1)))


def test_detection_trivial_family_detects_only_point():
    rep = detection_matrix(FreeAbelian(2), [trivial_family(free_abelian(2))])
    assert rep.matrix[0][0] == 1
    assert all(all(e == 0 for e in row) for row in rep.matrix[1:])
    assert rep.verdict == "undetected"
    assert set(rep.undetected_classes) == {"z1", "z2", "z1^z2"}


def test_detection_free_group_two_extended_families():
    F2 = free_group(2, ("a", "b"))
    fa = extend_free_product(character_family_Zn(1, 4, ("a",)), F2)
    fb = extend_free_product(character_family_Zn(1, 4, ("b",)), F2)
    rep = detection_matrix(Free(2), [disjoint_union(fa, fb)])
    assert rep.verdict == "FD-certified"
    # cross pairings vanish exactly: a-family columns against the b-class
    labels = rep.row_labels
    za, zb = labels.index("z1"), labels.index("z2")
    fa_cols = [i for i, c in enumerate(rep.col_labels) if ".c0." in c]
    fb_cols = [i for i, c in enumerate(rep.col_labels) if ".c1." in c]
    assert all(rep.matrix[zb][i] == 0 for i in fa_cols)
    assert all(rep.matrix[za][i] == 0 for i in fb_cols)
    assert any(rep.matrix[za][i] != 0 for i in fa_cols)
    assert any(rep.matrix[zb][i] != 0 for i in fb_cols)


def test_detection_union_concatenates_columns():
    f = character_family_Zn(2, 4)
    g = direct_sum(f, f)
    du = disjoint_union(f, g)
    rf = detection_matrix(FreeAbelian(2), [f])
    rg = detection_matrix(FreeAbelian(2), [g])
    ru = detection_matrix(FreeAbelian(2), [du])
    assert len(ru.col_labels) == len(rf.col_labels) + len(rg.col_labels)
    for i in range(len(ru.matrix)):
        assert ru.matrix[i] == rf.matrix[i] + rg.matrix[i]


def test_detection_span_closure_under_union():
    # span(union) = span(f) + span(g), exactly: column spaces over Q
    f = character_family_Zn(2, 4)
    g = direct_sum(f, trivial_grid_family(f))
    du = disjoint_union(f, g)
    rf = detection_matrix(FreeAbelian(2), [f])
    rg = detection_matrix(FreeAbelian(2), [g])
    ru = detection_matrix(FreeAbelian(2), [du])
    cols_f = list(zip(*rf.matrix))
    cols_g = list(zip(*rg.matrix))
    cols_u = list(zip(*ru.matrix))
    assert _rank_over_Q(cols_u) == _rank_over_Q(cols_f + cols_g)


def trivial_grid_family(model: Family, dim: int = 1) -> Family:
    gens, space = len(model.group.generators), model.space
    return Family(
        group=model.group,
        space=space,
        perm=tuple(np.tile(np.arange(dim), (gens, 1)) for _ in space.components),
        phase=tuple(np.zeros((gens, dim, len(res)), dtype=int) for res in space.components),
        structure=f"trivial_grid(dim={dim})",
        chern=(MultiForm.constant(dim),) * model.space.n_components,
    )


def test_detection_direct_sum_with_trivial_fixes_reduced_rows():
    f = character_family_Zn(2, 4)
    s = direct_sum(f, trivial_grid_family(f))
    rf = detection_matrix(FreeAbelian(2), [f])
    rs = detection_matrix(FreeAbelian(2), [s])
    assert rf.matrix[1:] == rs.matrix[1:]
    assert rs.matrix[0][0] == rf.matrix[0][0] + 1


def test_detection_tensor_kunneth_kron_with_signs():
    from flatdetect.families import tensor_families

    f = character_family_Zn(1, 4)
    g = character_family_Zn(2, 4)
    t = tensor_families(f, g)
    rf = detection_matrix(FreeAbelian(1), [f])
    rg = detection_matrix(FreeAbelian(2), [g])
    rt = detection_matrix(DirectProduct(FreeAbelian(1), FreeAbelian(2)), [t])

    basis_l = FreeAbelian(1).classes
    basis_r = FreeAbelian(2).classes
    monos_l = _x_monos(1)
    monos_r = _x_monos(2)

    # row/column index maps for the product report
    row_index = {lbl: i for i, lbl in enumerate(rt.row_labels)}
    col_index = {lbl: i for i, lbl in enumerate(rt.col_labels)}

    for il, cl in enumerate(basis_l):
        for ir, cr in enumerate(basis_r):
            label = (
                cl.label
                if cr.degree == 0
                else (f"R.{cr.label}" if cl.degree == 0 else f"{cl.label}xR.{cr.label}")
            )
            for jl, ml in enumerate(monos_l):
                for jr, mr in enumerate(monos_r):
                    mono = tuple(f"x{i}" for i in ml) + tuple(
                        f"x{i + 1}" for i in mr
                    )
                    col = "f0.c0." + ("1" if not mono else "^".join(mono))
                    got = rt.matrix[row_index[label]][col_index[col]]
                    sign = (-1) ** (cr.degree * len(ml))
                    expected = sign * rf.matrix[il][jl] * rg.matrix[ir][jr]
                    assert got == expected, (label, col)


def test_detection_requires_exact_chern():
    ind = induce_family(character_family_Zn(2, 4), KleinBottleCover())
    with pytest.raises(DetectionError, match="numeric pairing path"):
        detection_matrix(detect.PresentationComplex("klein", klein_bottle()), [ind])


def test_detection_modelless_class_routed_to_numeric():
    d = FiniteIndexSuper(Free(1), 2, "t", (("pt",), ("t",)))  # no base labels, as the family
    with pytest.raises(DetectionError, match="class 't' .* numeric pairing path"):
        detection_matrix(d, [trivial_family(GroupPresentation((), ()))])


# ---------------------------------------------------------------------------
# numeric pairing path
# ---------------------------------------------------------------------------


def test_numeric_report_klein_bottle():
    ind = induce_family(character_family_Zn(2, 8), KleinBottleCover())
    d = FiniteIndexSuper(FreeAbelian(2), 2, "klein", (("pt",), ("b",)))
    rep = numeric_detection_report(d, ind, samples=32)
    assert rep.verdict == "FD-certified"
    assert rep.mode == "numeric"
    b_row = rep.matrix[rep.row_labels.index("b")]
    assert any(abs(e) >= 1 for e in b_row)


def test_numeric_report_rejects_degree_two_tables():
    d = FiniteIndexSuper(FreeAbelian(2), 2, "torus", (("pt",), ("a", "b"), ("top",)))
    ind = induce_family(character_family_Zn(2, 4), KleinBottleCover())
    with pytest.raises(DetectionError, match="degree"):
        numeric_detection_report(d, ind)


@st.composite
def _numeric_families(draw):
    """A Klein-induced family without exact data, alone, tensored with
    char_zn(1) on either side, or summed with the one induced along the
    cosets e, b^-1."""
    resolution = draw(st.sampled_from([4, 8]))
    k = induce_family(character_family_Zn(2, resolution), KleinBottleCover())
    kind = draw(st.sampled_from(["klein", "tensor", "tensor_left", "sum"]))
    if kind == "tensor":
        return tensor_families(k, character_family_Zn(1, resolution))
    if kind == "tensor_left":
        return tensor_families(character_family_Zn(1, resolution), k)
    if kind == "sum":
        cover = KleinBottleCover(cosets=[Word(()), Word(((1, -1),))])
        return direct_sum(k, induce_family(character_family_Zn(2, resolution), cover))
    return k


def _word_winding(f, w, ci, axis, samples):
    """The winding of det of the word's holonomy along one axis loop."""
    loop = f.evaluate_batch(f.space.axis_loop(ci, axis, samples), ci)
    return winding_number(evaluate_word(w, loop))


@_SLOW_DATA
@given(st.data())
def test_numeric_cell_equals_the_winding_of_the_word(data):
    """A degree-1 label of 1 to 4 runs pairs as the cycle of its exponent
    sums; each cell equals the winding of the whole word's determinant."""
    f = data.draw(_numeric_families())
    runs = st.tuples(
        st.integers(0, len(f.group.generators) - 1), st.sampled_from([-2, -1, 1, 2])
    )
    words = [
        Word(tuple(r))
        for r in data.draw(st.lists(st.lists(runs, min_size=1, max_size=4), min_size=1, max_size=3))
    ]
    labels = tuple(format_word(w, f.group) for w in words)
    rep = numeric_detection_report(
        FiniteIndexSuper(FreeAbelian(2), 2, "words", (("pt",), labels)), f
    )
    for row, w in enumerate(words, start=1):
        for ci in range(f.space.n_components):
            for axis in range(f.space.component_x_dim(ci)):
                cell = rep.matrix[row][rep.col_labels.index(f"c{ci}.loop_x{axis + 1}")]
                assert type(cell) is Fraction
                assert cell == _word_winding(f, w, ci, axis, 64), (labels[row - 1], ci, axis)


@st.composite
def _exact_leaf(draw, n):
    f = character_family_Zn(n, 4)
    if draw(st.booleans()):
        return pullback_family(f, draw(_sublattice_cover(n)))
    return f


@st.composite
def _exact_trees(draw):
    """char_zn of rank 1 or 2 or its pullback along a sublattice, alone,
    summed with another such family of its rank, or tensored with one."""
    f = draw(_exact_leaf(draw(st.integers(1, 2))))
    kind = draw(st.sampled_from(["leaf", "sum", "tensor"]))
    if kind == "sum":
        return direct_sum(f, draw(_exact_leaf(f.base_dim)))
    if kind == "tensor":
        return tensor_families(f, draw(_exact_leaf(draw(st.integers(1, 2)))))
    return f


@_SLOW_DATA
@given(_exact_trees())
def test_numeric_pairing_equals_the_exact_pairing_in_degree_le_1(f):
    """For the same descriptor of degree <= 1, free(n) or the free product
    of n copies of free(1), the numeric rows equal the exact rows on the
    matching rank/1 and loop_x/x columns, and the generator rows' loop_x
    cells, read from the data, equal the floats ``forms chern`` winds."""
    n = len(f.group.generators)
    wound = numeric_c1_windings(f)
    for d in (Free(n), functools.reduce(FreeProduct, [Free(1)] * n)):
        exact = detection_matrix(d, [f])
        numeric = _canonical(numeric_detection_report(d, f))
        assert numeric.row_labels == exact.row_labels
        assert len(numeric.row_labels) == n + 1
        for n_row, e_row in zip(numeric.matrix, exact.matrix):
            for ci in range(f.space.n_components):
                for i in range(f.space.component_x_dim(ci) + 1):
                    n_col = f"c{ci}." + (f"loop_x{i}" if i else "rank")
                    e_col = f"f0.c{ci}." + (f"x{i}" if i else "1")
                    assert (n_row[numeric.col_labels.index(n_col)]
                            == e_row[exact.col_labels.index(e_col)]), (d.describe(), n_col)
        for g, n_row in enumerate(numeric.matrix[1:]):
            for ci, per_gen in enumerate(wound):
                assert [n_row[numeric.col_labels.index(f"c{ci}.loop_x{a + 1}")]
                        for a in range(len(per_gen[g]))] == per_gen[g], (d.describe(), g, ci)


def test_a_family_of_another_group_is_refused_before_pairing():
    """Both pairings read base labels by position, so each checks the
    family's generator count first, with the message of the CLI's exit 3."""
    message = r"^family 0 \(char_zn\(4, 2\)\) has 4 base labels, but free_abelian\(2\) has 2$"
    f = character_family_Zn(4, 2)
    with pytest.raises(PresentationError, match=message):
        detection_matrix(FreeAbelian(2), [f])
    with pytest.raises(PresentationError, match=message):
        numeric_detection_report(FreeAbelian(2), f)
    # a descriptor without base labels reads its classes as words
    rep = numeric_detection_report(FiniteIndexSuper(Free(1), 2, "t", (("pt",), ("t1 t2",))), f)
    assert rep.row_labels == ("pt", "t1 t2")


# ---------------------------------------------------------------------------
# transfer scaling
# ---------------------------------------------------------------------------


def test_transfer_scaling_circle_covers():
    f = character_family_Zn(1, 8)
    for k in (2, 3, 5):
        assert transfer_scaling_check(f, k, cover=circle_cover(k, f.group))


def test_transfer_scaling_identity_cover():
    f = character_family_Zn(1, 8)
    assert transfer_scaling_check(f, 1, cover=circle_cover(1, f.group))


def test_transfer_scaling_torus_cover():
    f = character_family_Zn(2, 4)
    cov = SublatticeCover(f.group, [[2, 0], [0, 1]], [Word(()), Word(((0, 1),))])
    assert transfer_scaling_check(f, 2, cover=cov)


def test_transfer_trivial_family_point_pairing_is_index():
    for k in (2, 3):
        triv = trivial_family(free_abelian(1))
        cov = circle_cover(k, triv.group)
        ind = induce_family(pullback_family(triv, cov), cov)
        rep = detection_matrix(FreeAbelian(1), [ind])
        assert rep.matrix[0][0] == k


def test_transfer_scaling_index_mismatch():
    f = character_family_Zn(1, 4)
    with pytest.raises(DetectionError, match="index"):
        transfer_scaling_check(f, 3, cover=circle_cover(2, f.group))


def test_transfer_scaling_unsupported_cover():
    f = character_family_Zn(2, 4)
    with pytest.raises(DetectionError, match="unsupported cover"):
        transfer_scaling_check(f, 2, cover=KleinBottleCover())


# ---------------------------------------------------------------------------
# obstruction arithmetic and Betti inequality
# ---------------------------------------------------------------------------


def test_bm_obstruction_examples():
    assert bm_obstruction(2, 10) == (11, 7, True)
    assert bm_obstruction(2, 2) == (3, 0, False)
    assert bm_obstruction(3, 4) == (9, 3, True)


def test_bm_obstruction_validation():
    with pytest.raises(ValueError):
        bm_obstruction(1, 2)
    with pytest.raises(ValueError):
        bm_obstruction(2, 1)


def test_unitary_poincare_polynomial():
    # U(1) ~ S^1, U(2) ~ S^1 x S^3 rationally
    assert unitary_poincare_polynomial(1) == [1, 1]
    p2 = unitary_poincare_polynomial(2)
    assert sum(p2) == 4
    assert p2[0] == 1 and p2[1] == 1 and p2[3] == 1 and p2[4] == 1


def test_betti_inequality_examples():
    assert betti_inequality_check(1, 1) == (2, 2, True)
    assert betti_inequality_check(2, 1) == (4, 3, True)
    assert betti_inequality_check(2, 2) == (16, 3, True)


def test_betti_inequality_matches_torus_oracle():
    # Hom(F_2, U(1)) is the 2-torus; its Betti sum from the cellular oracle
    lhs, rhs, holds = betti_inequality_check(2, 1)
    assert lhs == sum(_surface_betti_oracle(1))
    assert rhs == 1 + 2
    assert holds
