import itertools
import math
import random
import re
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flatdetect import charforms
from flatdetect.charforms import (
    GridConnection,
    IntegralityError,
    MultiForm,
    UnderSampledLoopError,
    chern_number,
    numerical_curvature,
    poincare_connection,
    _canonical,
    _check_label,
    _labels,
    wedge,
    winding_number,
    xgen,
    zgen,
)


# ---------------------------------------------------------------------------
# exterior algebra
# ---------------------------------------------------------------------------


def test_wedge_anticommutes():
    zx = zgen(1) * xgen(1)
    xz = xgen(1) * zgen(1)
    assert zx == -xz
    assert not (zx + xz)


def test_wedge_square_of_generator_vanishes():
    assert (zgen(2) * zgen(2)).is_zero()
    assert (xgen(1) * xgen(1)).is_zero()


def test_wedge_expansion_two_line_characters():
    a = 1 + zgen(1) * xgen(1)
    b = 1 + zgen(2) * xgen(2)
    prod = a * b
    expected = (
        MultiForm.constant(1)
        + zgen(1) * xgen(1)
        + zgen(2) * xgen(2)
        + zgen(1) * xgen(1) * zgen(2) * xgen(2)
    )
    assert prod == expected
    # degree-2 blocks commute: z1^x1 and z2^x2 in either order
    assert (zgen(1) * xgen(1)) * (zgen(2) * xgen(2)) == (zgen(2) * xgen(2)) * (
        zgen(1) * xgen(1)
    )


def test_canonical_ordering_sign():
    # x1^z1 stored as -z1^x1
    f = xgen(1) * zgen(1)
    assert f.coefficient((("z", 1), ("x", 1))) == -1


@st.composite
def term_dicts(draw):
    """Constructor input: up to four terms of up to three labels each, in any order."""
    n_terms = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n_terms):
        labels = draw(
            st.lists(
                st.tuples(st.sampled_from(["z", "x"]), st.integers(1, 3)),
                max_size=3,
                unique=True,
            )
        )
        coeff = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 4)))
        terms[tuple(labels)] = terms.get(tuple(labels), Fraction(0)) + coeff
    return terms


def forms():
    return term_dicts().map(MultiForm)


@settings(max_examples=150)
@given(forms(), forms(), forms())
def test_wedge_associative_and_distributive(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(forms())
def test_serialization_roundtrip(f):
    assert MultiForm.from_records(f.to_records()) == f


@given(forms())
def test_split_z_buckets_each_term_under_its_z_part(f):
    """split_z holds every term once, {z-indices: {x-indices: coefficient}},
    and equal coefficients are one Fraction object."""
    want: dict = {}
    for labels, c in f.terms():
        zs = tuple(i for k, i in labels if k == "z")
        want.setdefault(zs, {})[tuple(i for k, i in labels if k == "x")] = c
    split = f.split_z()
    assert split == want
    values = [c for bucket in split.values() for c in bucket.values()]
    assert len(set(map(id, values))) == len(set(values))


def _assert_canonical_store(form):
    """The store invariant: each key is a pair (z-indices, x-indices) of
    positive ints that is its own canonical order (sign +1), each numerator
    is a nonzero int over one int denominator of at least 1 (1 for the zero
    form), the pair is in lowest terms, and re-canonicalising the terms
    changes nothing."""
    for mono, c in form._terms.items():
        zs, xs = mono
        assert all(type(i) is int and i >= 1 for i in zs + xs)
        assert _canonical(_labels(mono)) == (mono, 1)
        assert type(c) is int and c != 0
    assert type(form._den) is int and form._den >= 1
    assert form._terms or form._den == 1
    assert math.gcd(form._den, *form._terms.values()) == 1
    again = MultiForm(dict(form.terms()))
    assert (again._terms, again._den) == (form._terms, form._den)


@settings(max_examples=150)
@given(
    forms(),
    forms(),
    st.integers(-3, 3),
    st.integers(0, 2),
    st.integers(0, 2),
    st.lists(st.integers(1, 3), max_size=3),
    st.lists(st.integers(1, 3), max_size=2, unique=True),
)
def test_operations_return_canonical_stores(a, b, scalar, dz, dx, keep, zs):
    images = [zgen(2) - zgen(1), 2 * zgen(3), zgen(1) + xgen(1)]
    for r in (
        a + b, a - b, -a, a * scalar, scalar * a, a * Fraction(scalar, 2), a * b,
        wedge(a, b), a.shift(z_offset=dz, x_offset=dx), a.restrict_x(keep),
        a.contract_z(zs), a.subst_z(images),
    ):
        _assert_canonical_store(r)


def _reference_key(lab):
    """z-labels before x-labels, each kind by index."""
    return (0 if lab[0] == "z" else 1, lab[1])


def _canonical_reference(labels):
    """Insertion sort into canonical order, counting transpositions.  Every
    label is checked before a repeat returns None, so [z1, z1, z0] raises
    (an earlier sort returned None for it, having stopped at the repeat)."""
    labels = list(labels)
    for lab in labels:
        _check_label(lab)
    seen = set()
    for lab in labels:
        if lab in seen:
            return None
        seen.add(lab)
    sign = 1
    for i in range(1, len(labels)):
        j = i
        while j > 0 and _reference_key(labels[j - 1]) > _reference_key(labels[j]):
            labels[j - 1], labels[j] = labels[j], labels[j - 1]
            sign = -sign
            j -= 1
    return tuple(labels), sign


@settings(max_examples=300)
@given(
    st.lists(st.tuples(st.sampled_from(["z", "x"]), st.integers(1, 4)), max_size=8),
    st.lists(
        st.tuples(st.integers(0, 8), st.sampled_from([("y", 1), ("z", 0), ("x", -1)])),
        max_size=2,
    ),
)
def test_canonical_matches_insertion_sort_reference(labels, bad):
    for at, lab in bad:
        labels.insert(at, lab)
    try:
        expected = _canonical_reference(labels)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            _canonical(labels)
    else:
        got = _canonical(labels)
        assert (None if got is None else (_labels(got[0]), got[1])) == expected


_INDICES = st.lists(st.integers(1, 6), max_size=4, unique=True).map(lambda i: tuple(sorted(i)))


@st.composite
def _monomial_pairs(draw):
    """Two stored monomials a, b: in about half of the pairs b's indices are
    shifted past a's in one kind or in both, so that its kinds follow a's;
    unshifted ones often share an index, and any kind may be empty."""
    (za, xa), (zb, xb) = draw(st.tuples(_INDICES, _INDICES)), draw(st.tuples(_INDICES, _INDICES))
    shift = draw(st.sampled_from(("none", "none", "none", "z", "x", "both")))
    if shift in ("z", "both"):
        zb = tuple(i + max(za, default=0) for i in zb)
    if shift in ("x", "both"):
        xb = tuple(j + max(xa, default=0) for j in xb)
    return (za, xa), (zb, xb)


@settings(max_examples=500)
@given(_monomial_pairs())
def test_merge_matches_the_sorting_reference(pair):
    """a's labels followed by b's, sorted by the insertion-sort reference:
    the merged monomial and its sign, or None on a repeated label."""
    a, b = pair
    got = charforms._merge(a, b)
    expected = _canonical_reference(_labels(a) + _labels(b))
    assert (None if got is None else (_labels(got[0]), got[1])) == expected


@settings(max_examples=150)
@given(term_dicts())
def test_terms_and_records_list_by_degree_then_labels(raw):
    """terms() and to_records() list the reference's canonical monomials by
    degree, then by labels, z before x and each kind by index."""
    expected: dict = {}
    for labels, c in raw.items():
        canon = _canonical_reference(labels)
        if canon is not None:
            expected[canon[0]] = expected.get(canon[0], 0) + canon[1] * c
    expected_terms = sorted(
        ((m, c) for m, c in expected.items() if c),
        key=lambda kv: (len(kv[0]), [_reference_key(lab) for lab in kv[0]]),
    )
    f = MultiForm(raw)
    assert f.terms() == expected_terms
    assert f.to_records() == [
        [[f"{k}{i}" for k, i in m], c.numerator, c.denominator] for m, c in expected_terms
    ]


def test_constructor_sorts_a_long_term_in_bounded_time():
    """One sort per outside monomial: 20000 shuffled labels build well
    inside 5 s, which merging them in one label at a time, quadratic in the
    label count, does not."""
    labels = [(k, i) for k in ("z", "x") for i in range(1, 10001)]
    random.Random(0).shuffle(labels)
    start = time.perf_counter()
    f = MultiForm({tuple(labels): 1})
    assert time.perf_counter() - start < 5
    [(mono, c)] = f.terms()
    assert mono == tuple(sorted(labels, key=_reference_key)) and abs(c) == 1
    # swapping two labels flips the sign
    labels[0], labels[1] = labels[1], labels[0]
    assert MultiForm({tuple(labels): 1}) == -f


def test_scalar_zero_and_constructor_input_errors():
    f = 1 + zgen(1) * xgen(1)
    assert (f * 0)._terms == {} and (0 * f)._terms == {}
    with pytest.raises(ValueError, match=re.escape("bad label ('z', 0)")):
        MultiForm({(("z", 1), ("z", 1), ("z", 0)): 1})
    with pytest.raises(ValueError, match=re.escape("bad label ('x', 0)")):
        f.shift(x_offset=-1)
    with pytest.raises(TypeError, match="cannot interpret"):
        "z1" * f


def test_shift_and_restrict():
    f = zgen(1) * xgen(2) + xgen(1)
    g = f.shift(z_offset=3, x_offset=1)
    assert g == zgen(4) * xgen(3) + xgen(2)
    assert f.restrict_x([1]) == xgen(1)
    assert f.restrict_x([1, 2]) == f


def test_contract_z_prefix_semantics():
    ch = 1 + zgen(1) * xgen(1)
    assert ch.contract_z(()) == MultiForm.constant(1)
    assert ch.contract_z((1,)) == xgen(1)
    assert ch.contract_z((2,)).is_zero()


def test_subst_z_linear_substitution():
    # z1 -> 2 z1: pullback along the double cover of the circle
    f = 1 + zgen(1) * xgen(1)
    g = f.subst_z([2 * zgen(1)])
    assert g == 1 + 2 * zgen(1) * xgen(1)
    # substitution is an algebra map
    h = (zgen(1) * zgen(2)).subst_z([zgen(2), zgen(1)])
    assert h == -(zgen(1) * zgen(2))


def _subst_reference(form, images):
    """Expand each term by distributivity: pick one term of images[i-1] for
    each z_i (x_i stays itself), concatenate the picked labels in order and
    let the constructor sort them (sign) or drop a repeat."""
    total = MultiForm()
    for mono, c in form.terms():
        factors = [
            images[i - 1].terms() if k == "z" else [(((k, i),), 1)] for k, i in mono
        ]
        for picks in itertools.product(*factors):
            labels = sum((m for m, _ in picks), ())
            total = total + MultiForm({labels: c * math.prod(v for _, v in picks)})
    return total


@settings(max_examples=150)
@given(
    forms(),
    st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4), min_size=3, max_size=3),
)
def test_subst_z_matches_product_expansion(f, rows):
    # z_i -> sum_j rows[i-1][j-1] z_j: a random integer linear image of z1..z3
    images = [sum((c * zgen(j + 1) for j, c in enumerate(row)), MultiForm()) for row in rows]
    assert f.subst_z(images) == _subst_reference(f, images)


def fractions(lo=-3, hi=3):
    """Rationals p/q with lo <= p <= hi and denominators 1..4."""
    return st.builds(Fraction, st.integers(lo, hi), st.integers(1, 4))


@settings(max_examples=150)
@given(
    forms(),
    st.lists(st.lists(fractions(), min_size=4, max_size=4), min_size=3, max_size=3),
)
def test_subst_z_with_rational_images_matches_product_expansion(f, rows):
    # z_i -> sum_j rows[i-1][j-1] z_j with denominators 1..4, so the
    # z-parts' image products reach the common denominator over different ones
    images = [sum((c * zgen(j + 1) for j, c in enumerate(row)), MultiForm()) for row in rows]
    got = f.subst_z(images)
    assert got == _subst_reference(f, images)
    _assert_canonical_store(got)


def _fraction_reference(pairs):
    """Accumulate (labels, Fraction) pairs by canonical monomial (the
    insertion-sort reference), dropping repeats and zero sums."""
    out: dict = {}
    for labels, c in pairs:
        canon = _canonical_reference(labels)
        if canon is not None:
            out[canon[0]] = out.get(canon[0], Fraction(0)) + canon[1] * c
    return {m: c for m, c in out.items() if c}


@settings(max_examples=150)
@given(forms(), forms(), fractions(-4, 4))
def test_ring_operations_match_fraction_reference(a, b, scalar):
    """The int store's sums, wedges and rational multiples have the
    coefficients of the same operations done in Fractions on ``terms()``."""
    ta, tb = a.terms(), b.terms()
    cases = (
        (a + b, _fraction_reference(ta + tb)),
        (a * b, _fraction_reference((ma + mb, ca * cb) for ma, ca in ta for mb, cb in tb)),
        (scalar * a, _fraction_reference((m, scalar * c) for m, c in ta)),
    )
    for got, expected in cases:
        assert dict(got.terms()) == expected
        assert all(got.coefficient(m) == c for m, c in expected.items())
        assert all(type(c) is Fraction for _, c in got.terms())
        _assert_canonical_store(got)


# ---------------------------------------------------------------------------
# grid connections
# ---------------------------------------------------------------------------


def test_poincare_samples():
    c = poincare_connection(8)
    assert c.samples[1, 0, 3, 0, 0] == 0  # A_x at z = 0
    assert np.isclose(c.samples[1, 4, 0, 0, 0], -1j * np.pi)  # A_x at z = 1/2
    assert np.all(c.samples[0] == 0)  # A_z = 0


def test_zero_connection_zero_curvature():
    c = GridConnection(2, 16, 2, np.zeros((2, 16, 16, 2, 2)))
    F = numerical_curvature(c)
    assert np.max(np.abs(F)) == 0.0
    n, res = chern_number(c)
    assert n == 0 and res < 1e-12


def test_poincare_curvature_constant():
    c = poincare_connection(64)
    F = numerical_curvature(c)[0, 1]
    assert np.max(np.abs(F - 2j * np.pi)) <= 1e-9


def test_gauge_shift_leaves_curvature_unchanged():
    c = poincare_connection(32)
    shifted = np.array(c.samples)
    shifted[1] += 0.37j
    c2 = GridConnection(2, 32, 1, shifted)
    assert np.allclose(numerical_curvature(c)[0, 1], numerical_curvature(c2)[0, 1])


def test_chern_number_poincare_is_minus_one():
    n, res = chern_number(poincare_connection(64))
    assert n == -1
    assert res <= 1e-6


def test_chern_number_conjugate_sum_cancels():
    r = 32
    samples = np.zeros((2, r, r, 2, 2), dtype=complex)
    z = np.arange(r) / r
    samples[1, :, :, 0, 0] = (-2j * np.pi * z)[:, None]
    samples[1, :, :, 1, 1] = (+2j * np.pi * z)[:, None]
    c = GridConnection(2, r, 2, samples)
    n, res = chern_number(c)
    assert n == 0 and res < 1e-9


def test_chern_number_flags_non_integral():
    # unit flux through half the x-columns only: total flux is ~half a quantum
    r = 32
    samples = np.zeros((2, r, r, 1, 1), dtype=complex)
    z = np.arange(r) / r
    window = (np.arange(r) < r // 2).astype(float)
    samples[1, :, :, 0, 0] = (-2j * np.pi * z)[:, None] * window[None, :]
    with pytest.raises(IntegralityError):
        chern_number(GridConnection(2, r, 1, samples))


def test_chern_number_needs_distinct_axes():
    with pytest.raises(ValueError):
        chern_number(poincare_connection(8), (1, 1))


# ---------------------------------------------------------------------------
# winding numbers
# ---------------------------------------------------------------------------


def _scalar_loop(fn, samples=257):
    ts = np.linspace(0.0, 1.0, samples)
    return [np.array([[fn(t)]]) for t in ts]


def test_winding_constant_loop():
    assert winding_number(_scalar_loop(lambda t: 1.7 + 0.2j)) == 0


def test_winding_basic_convention():
    assert winding_number(_scalar_loop(lambda t: np.exp(2j * np.pi * t))) == 1
    assert winding_number(_scalar_loop(lambda t: np.exp(-2j * np.pi * t))) == -1


def test_winding_diagonal_determinant():
    # oracle: brute-force accumulated argument of det = e^{2pi i t} e^{-4pi i t}
    ts = np.linspace(0.0, 1.0, 513)
    dets = np.exp(2j * np.pi * ts) * np.exp(-4j * np.pi * ts)
    acc = np.angle(dets[1:] / dets[:-1]).sum() / (2 * np.pi)
    assert round(acc) == -1

    loop = [
        np.diag([np.exp(2j * np.pi * t), np.exp(-4j * np.pi * t)]) for t in ts
    ]
    assert winding_number(loop) == -1


def test_winding_undersampled_error():
    loop = _scalar_loop(lambda t: np.exp(2j * np.pi * t), samples=3)
    with pytest.raises(UnderSampledLoopError):
        winding_number(loop)


def test_winding_two_sample_closed_loop_is_undersampled():
    # one step of 2*pi wraps to angle 0: refused, not read as winding 0
    loop = _scalar_loop(lambda t: np.exp(2j * np.pi * t), samples=2)
    with pytest.raises(UnderSampledLoopError):
        winding_number(loop)


def test_winding_open_loop_error():
    ts = np.linspace(0.0, 0.9, 100)
    loop = [np.array([[np.exp(2j * np.pi * t)]]) for t in ts]
    with pytest.raises(ValueError, match="not closed"):
        winding_number(loop)


def test_winding_additive_under_block_sums():
    rng = np.random.default_rng(21)
    ts = np.linspace(0.0, 1.0, 257)
    for _ in range(25):
        k1, k2 = rng.integers(-3, 4, size=2)
        loop = [
            np.diag([np.exp(2j * np.pi * k1 * t), np.exp(2j * np.pi * k2 * t)])
            for t in ts
        ]
        assert winding_number(loop) == k1 + k2


def test_winding_homotopy_stability():
    rng = np.random.default_rng(22)
    ts = np.linspace(0.0, 1.0, 257)
    base = [np.array([[np.exp(2j * np.pi * 2 * t)]]) for t in ts]
    pert = rng.uniform(-0.04, 0.04, len(ts)) + 1j * rng.uniform(-0.04, 0.04, len(ts))
    pert[-1] = pert[0]  # keep the loop closed
    bumped = [m * (1 + p) for m, p in zip(base, pert)]
    assert winding_number(bumped) == winding_number(base) == 2


def _refused_loops():
    """One loop failing each check of a winding, in the order they run:
    two samples, not closed, a zero matrix, a jump of pi."""
    ts = np.linspace(0.0, 1.0, 9)
    turn = [np.array([[np.exp(2j * np.pi * t)]]) for t in ts]
    zero = [m.copy() for m in turn]
    zero[4] = np.zeros((1, 1))
    return {
        "two samples": _scalar_loop(lambda t: np.exp(2j * np.pi * t), samples=2),
        "not closed": turn[:-1],
        "singular": zero,
        "pi jump": [np.array([[np.exp(2j * np.pi * 4 * t)]]) for t in ts],
    }


@pytest.mark.parametrize("case, error, message", [
    ("two samples", UnderSampledLoopError, "need at least three samples on a closed loop, got 2"),
    ("not closed", ValueError, "loop is not closed: first and last samples differ by 0.765 "
     "(bound 1e-9)"),
    ("singular", ValueError, "loop contains a (numerically) singular matrix"),
    ("pi jump", UnderSampledLoopError,
     "adjacent determinant arguments jump by >= pi; sample more finely"),
])
def test_winding_number_refuses_each_check(case, error, message):
    with pytest.raises(ValueError) as raised:
        winding_number(_refused_loops()[case])
    assert type(raised.value) is error
    assert str(raised.value) == message


def test_exact_numeric_cross_validation():
    # the z^x coefficient of the rank-1 character family and the integrated
    # first Chern number of its standard connection agree in absolute value;
    # the relative sign is the globally recorded convention
    from flatdetect.charforms import SIGN_CONVENTIONS
    from flatdetect.families import character_family_Zn

    exact = character_family_Zn(1, 8).chern[0].coefficient((("z", 1), ("x", 1)))
    numeric, residual = chern_number(poincare_connection(64))
    assert residual <= 1e-6
    assert abs(numeric) == abs(int(exact)) == 1
    assert numeric == -int(exact)
    assert "relation" in SIGN_CONVENTIONS


def test_a_wedge_past_the_term_budget_is_refused_before_any_work(monkeypatch):
    monkeypatch.setattr(charforms, "MAX_TERM_PRODUCTS", 6)
    two, three = 1 + zgen(1), xgen(1) + xgen(2) + zgen(2)
    assert two * three == three + zgen(1) * three  # 2 x 3 term pairs: exactly the budget
    four = two * (1 + xgen(3))
    with pytest.raises(ValueError, match=r"^a wedge of forms of 4 and 3 terms takes 12 "
                       r"term products, more than the 6 computed at most$"):
        four * three
    # the products inside a substitution count too
    with pytest.raises(ValueError, match="more than the 6 computed at most"):
        (zgen(1) * zgen(2) * xgen(1)).subst_z([three, four])

