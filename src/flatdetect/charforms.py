"""Exact exterior algebra over Q, grid Chern-Weil, and winding numbers.

MultiForm is an element of the rational exterior algebra on degree-1
generators of two kinds: z-labels (base/group directions) and x-labels
(parameter directions).  A monomial is stored as a pair (z-indices,
x-indices) of strictly increasing tuples, all z's before all x's; the sign
of bringing a product into that order (``_merge``) is absorbed into the
coefficient.  Coefficients are int numerators over one common positive
denominator, in lowest terms, so products and sums multiply and add ints
and reduce once; Fractions appear only at the boundary.  Every store is
canonical with no zero numerator, so operations build canonical stores
directly.  Label kinds exist only at the boundary: outside input (the
constructor, ``coefficient``, ``from_records``) is checked and sorted once
(``_canonical``), and ``terms`` and ``to_records`` turn pairs back into
labels and coefficients back into Fractions.

Sign conventions (the global dictionary reported alongside results):
the exact pipeline normalizes the rank-1 character bundle on the 2-torus to
character 1 + z^x with coefficient +1; the numeric pipeline reports
c1 = (i/2pi) tr F, which evaluates to -1 on the same bundle.  That -1 is
chern_number's alone: holonomy determinant windings equal the exact z^x
coefficients, sign included, both those ``forms chern`` reads from a
family's monomial data (numeric_c1_windings) and those ``winding_number``
winds from any loop of matrices.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

import numpy as np

# Label = (kind, index), kind in {"z", "x"}, index >= 1.
Label = tuple[str, int]

SIGN_CONVENTIONS = {
    "exact": "character of the rank-1 torus character bundle normalized to 1 + z1^x1",
    "numeric": "first Chern number c1 = (i/2pi) * integral of tr F (midpoint rule)",
    "relation": "numeric c1 = -1 times the exact z^x coefficient on the 2-torus",
}

INTEGRALITY_TOL = 1e-6
# the most term pairs one wedge product multiplies: char_zn(16, 2) and the
# tensor of two char_zn(8, 2) reach it, each built in about 0.12 s on a
# shared 2-core VM (CPython 3.11), and each further rank doubles the pairs
MAX_TERM_PRODUCTS = 2**16


class IntegralityError(ValueError):
    """A numerically integrated Chern number was too far from an integer."""

    def __init__(self, value: complex, residual: float):
        super().__init__(f"non-integral Chern number {value} (residual {residual:.3g})")
        self.value = value
        self.residual = residual


class UnderSampledLoopError(ValueError):
    """Too few samples to read a winding: fewer than three on the loop, a
    determinant read from a family's data that turns c times along a loop
    of at most 2 |c| steps, or adjacent determinant arguments that jump by
    >= pi (``winding_number``); refine the sampling."""


def _check_label(lab: Label):
    kind, idx = lab
    if kind not in ("z", "x") or idx < 1:
        raise ValueError(f"bad label {lab!r}")


def _labels(mono) -> tuple[Label, ...]:
    """The labels of a stored monomial (z-indices, x-indices), in order."""
    return tuple(("z", i) for i in mono[0]) + tuple(("x", j) for j in mono[1])


def _merge(a, b):
    """Merge two stored monomials; returns (merged, sign) or None if a
    generator repeats (the product is zero).  Ordering za^xa^zb^xb moves zb
    past xa, then each kind's inversions are counted by bisection, unless
    each kind of a lies below b's, when the kinds concatenate in order."""
    (za, xa), (zb, xb) = a, b
    n = len(xa) * len(zb)
    if (not za or not zb or za[-1] < zb[0]) and (not xa or not xb or xa[-1] < xb[0]):
        return (za + zb, xa + xb), -1 if n % 2 else 1
    for sa, sb in ((za, zb), (xa, xb)):
        for j in sb:
            k = bisect_left(sa, j)
            if k < len(sa) and sa[k] == j:
                return None
            n += len(sa) - k
    return (tuple(sorted(za + zb)), tuple(sorted(xa + xb))), -1 if n % 2 else 1


def _accumulate(store: dict, mono, c) -> None:
    """Add ``c`` to the coefficient of ``mono``, dropping the term on cancellation."""
    c += store.get(mono, 0)
    if c:
        store[mono] = c
    else:
        store.pop(mono, None)


def _check_products(a: int, b: int) -> None:
    """Refuse a wedge of forms of ``a`` and ``b`` terms past MAX_TERM_PRODUCTS
    term pairs, before any work."""
    if a * b > MAX_TERM_PRODUCTS:
        raise ValueError(
            f"a wedge of forms of {a} and {b} terms takes {a * b} "
            f"term products, more than the {MAX_TERM_PRODUCTS} computed at most"
        )


def _wedge_terms(a: dict, b: dict) -> dict:
    """Product of two term dicts keyed by stored monomials; refused before
    any work past MAX_TERM_PRODUCTS term pairs."""
    _check_products(len(a), len(b))
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            merged = _merge(ma, mb)
            if merged is not None:
                _accumulate(out, merged[0], merged[1] * ca * cb)
    return out


def _canonical(labels: Iterable[Label]):
    """Bring arbitrary labels into canonical order with one sort; returns
    (stored monomial, sign) or None when a label repeats.  The sign is that
    of the sorting permutation.  Every label is checked first, so a bad one
    raises even next to a repeat."""
    labels = tuple(labels)
    for lab in labels:
        _check_label(lab)
    keys = [(kind == "x", idx) for kind, idx in labels]
    if len(set(keys)) < len(keys):
        return None
    perm = sorted(range(len(keys)), key=keys.__getitem__)
    mono = tuple(tuple(keys[i][1] for i in perm if keys[i][0] == is_x) for is_x in (False, True))
    return mono, _permutation_sign(perm)


def _permutation_sign(perm: list[int]) -> int:
    """The sign of a permutation of range(len(perm)), read off its cycles;
    consumes ``perm``."""
    parity = len(perm)
    for start in range(len(perm)):
        if perm[start] >= 0:
            parity -= 1  # a cycle of m elements is m - 1 transpositions
            i = start
            while perm[i] >= 0:
                perm[i], i = -1, perm[i]
    return -1 if parity % 2 else 1


class MultiForm:
    """Exterior-algebra element with exact rational coefficients, stored as
    nonzero int numerators over one positive common denominator ``_den``, in
    lowest terms: gcd(_den, *numerators) == 1, and _den == 1 for the zero
    form.  The public queries (``terms``, ``coefficient``, ``split_z``)
    return Fractions."""

    __slots__ = ("_terms", "_den")

    def __init__(self, terms=None):
        store: dict = {}
        for labels, coeff in (terms or {}).items():
            coeff = Fraction(coeff)
            canon = _canonical(labels) if coeff else None
            if canon is not None:
                _accumulate(store, canon[0], canon[1] * coeff)
        # each Fraction is in lowest terms, so over the lcm of their
        # denominators the numerators share no factor with it
        den = lcm(*(c.denominator for c in store.values()))
        self._terms = {m: c.numerator * (den // c.denominator) for m, c in store.items()}
        self._den = den

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, c) -> "MultiForm":
        return cls({(): Fraction(c)})

    @classmethod
    def generator(cls, kind: str, index: int) -> "MultiForm":
        return cls({((kind, index),): Fraction(1)})

    @classmethod
    def _of_store(cls, store: dict, den: int = 1) -> "MultiForm":
        """Wrap a canonical store (strictly increasing index pairs, nonzero
        int numerators) over the denominator ``den`` >= 1, dividing out the
        common factor; skips re-canonicalising."""
        if den > 1:
            g = gcd(den, *store.values())
            if g > 1:
                store = {m: c // g for m, c in store.items()}
                den //= g
        form = cls.__new__(cls)
        form._terms, form._den = store, den
        return form

    # -- queries -----------------------------------------------------------

    def terms(self):
        """(labels, coefficient) pairs by degree, then by labels (z before x,
        each by index): a z-part ranks after the longer z-parts it begins."""
        order = sorted(
            self._terms, key=lambda m: (len(m[0]) + len(m[1]), m[0] + (float("inf"),), m[1])
        )
        return [(_labels(m), Fraction(self._terms[m], self._den)) for m in order]

    def coefficient(self, labels: Iterable[Label]) -> Fraction:
        canon = _canonical(labels)
        if canon is None:
            return Fraction(0)
        return Fraction(canon[1] * self._terms.get(canon[0], 0), self._den)

    def is_zero(self) -> bool:
        return not self._terms

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        den = lcm(self._den, other._den)
        scale = den // self._den
        store = {m: c * scale for m, c in self._terms.items()}
        scale = den // other._den
        for m, c in other._terms.items():
            _accumulate(store, m, c * scale)
        return MultiForm._of_store(store, den)

    __radd__ = __add__

    def __neg__(self):
        return MultiForm._of_store({m: -c for m, c in self._terms.items()}, self._den)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            p, q = other.as_integer_ratio()
            return MultiForm._of_store(
                {m: c * p for m, c in self._terms.items()} if p else {}, self._den * q
            )
        other = _coerce(other)
        return MultiForm._of_store(_wedge_terms(self._terms, other._terms), self._den * other._den)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return _coerce(other) * self

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiForm.constant(other)
        if not isinstance(other, MultiForm):
            return NotImplemented
        return self._den == other._den and self._terms == other._terms

    def __hash__(self):
        return hash((frozenset(self._terms.items()), self._den))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return format_combination(
            ("^".join(f"{k}{i}" for k, i in mono), c) for mono, c in self.terms()
        )

    # -- structural operations ----------------------------------------------

    def shift(self, z_offset: int = 0, x_offset: int = 0) -> "MultiForm":
        """Translate label indices (disjointifying label sets before a product);
        an index shifted below 1 raises as a bad label."""
        store = {}
        for (zs, xs), c in self._terms.items():
            zs, xs = tuple(i + z_offset for i in zs), tuple(j + x_offset for j in xs)
            for lab in _labels((zs[:1], xs[:1])):  # the least index of each kind
                _check_label(lab)
            store[zs, xs] = c
        return MultiForm._of_store(store, self._den)

    def restrict_x(self, keep: Iterable[int]) -> "MultiForm":
        """Restriction to a parameter sub-torus: drop terms using other x-labels."""
        keep = set(keep)
        return MultiForm._of_store(
            {m: c for m, c in self._terms.items() if keep.issuperset(m[1])}, self._den
        )

    def _split_numerators(self) -> dict[tuple[int, ...], dict[tuple[int, ...], int]]:
        """``split_z`` on the numerators, over ``_den``."""
        out: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
        for (zs, xs), c in self._terms.items():
            out.setdefault(zs, {})[xs] = c
        return out

    def split_z(self) -> dict[tuple[int, ...], dict[tuple[int, ...], Fraction]]:
        """Bucket the terms by z-part in one pass: {z-indices: {x-indices:
        coefficient}}.  A stored monomial is its z-part before its x-part,
        so splitting them needs no sign.  Equal numerators share one Fraction."""
        den = self._den
        fracs = {c: Fraction(c, den) for c in set(self._terms.values())}
        out: dict[tuple[int, ...], dict[tuple[int, ...], Fraction]] = {}
        for (zs, xs), c in self._terms.items():
            out.setdefault(zs, {})[xs] = fracs[c]
        return out

    def contract_z(self, z_indices: Sequence[int]) -> "MultiForm":
        """Pair the base part against the class dual to the monomial
        z_{i1}^...^z_{ip}: the x-parts of the terms whose full z-part is
        exactly that monomial, in one pass over the terms."""
        if len(set(z_indices)) != len(tuple(z_indices)):
            raise ValueError("repeated index in contraction monomial")
        zs = tuple(sorted(z_indices))
        return MultiForm._of_store(
            {((), m[1]): c for m, c in self._terms.items() if m[0] == zs}, self._den
        )

    def subst_z(self, images: Sequence["MultiForm"]) -> "MultiForm":
        """Algebra substitution z_i -> images[i-1] (each of pure degree 1),
        leaving x-labels fixed.  Used for cover pullbacks and transfers.
        Each image is coerced once.  Each z-part's x-terms are brought over
        one common denominator, the lcm of the z-parts' image-product
        denominators, and each term of the product of that z-part's images
        is wedged with them straight into the output numerators, under the
        one term-pair budget of every wedge.  The product of the images of
        every z-part prefix is expanded once."""
        parts = self._split_numerators()
        images = dict(enumerate(map(_coerce, images), 1))
        dens = {}
        for zpart in parts:
            den = 1
            for i in zpart:
                if i not in images:
                    raise ValueError(f"no image for z{i}")
                den *= images[i]._den
            dens[zpart] = den
        common = lcm(*dens.values())
        products = {(): {((), ()): 1}}  # z-part prefix -> product of its images
        out: dict = {}
        for zpart, xterms in parts.items():
            known = len(zpart)
            while zpart[:known] not in products:
                known -= 1
            for k in range(known, len(zpart)):
                image = images[zpart[k]]._terms
                products[zpart[:k + 1]] = _wedge_terms(products[zpart[:k]], image)
            product, scale = products[zpart], common // dens[zpart]
            _check_products(len(product), len(xterms))
            for mono, c in product.items():
                c *= scale
                for xs, cx in xterms.items():
                    merged = _merge(mono, ((), xs))
                    if merged is not None:
                        _accumulate(out, merged[0], merged[1] * c * cx)
        return MultiForm._of_store(out, common * self._den)

    # -- serialization -------------------------------------------------------

    def to_records(self):
        return [
            [[f"{k}{i}" for k, i in mono], c.numerator, c.denominator]
            for mono, c in self.terms()
        ]

    @classmethod
    def from_records(cls, records) -> "MultiForm":
        """Inverse of ``to_records``; raises ValueError on a malformed record."""
        if not isinstance(records, (list, tuple)):
            raise ValueError(f"form records must be a list, got {records!r}")
        terms = {}
        for rec in records:
            if not _is_record(rec):
                raise ValueError(f"bad form record {rec!r}")
            labels, num, den = rec
            terms[tuple((s[0], int(s[1:])) for s in labels)] = Fraction(num, den)
        return cls(terms)


def _is_record(rec) -> bool:
    """[labels, numerator, denominator]: labels such as "z1", integers that
    are not bools (JSON's true and false), and a nonzero denominator.  The
    label kind and index are checked by _check_label."""
    return (
        isinstance(rec, (list, tuple))
        and len(rec) == 3
        and isinstance(rec[0], (list, tuple))
        and all(isinstance(s, str) and s[1:].isdecimal() for s in rec[0])
        and all(isinstance(v, int) and not isinstance(v, bool) for v in rec[1:])
        and rec[2] != 0
    )


def format_combination(terms: Iterable[tuple[str, Fraction]]) -> str:
    """A rational combination of named terms as ``a - 2*b + 1/2*c``: a term
    of coefficient 1 is its name, -1 its negated name, and an empty name
    stands for the constant; "0" when there are no terms."""
    parts = []
    for name, c in terms:
        if not name:
            parts.append(str(c))
        elif c == 1:
            parts.append(name)
        elif c == -1:
            parts.append(f"-{name}")
        else:
            parts.append(f"{c}*{name}")
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def reduce_rows(rows: Iterable[dict]) -> list[dict]:
    """Forward elimination over Q of sparse rows ``{column: nonzero
    Fraction}``, in order: row i minus the multiples of the earlier nonzero
    reduced rows that clear their pivots (least columns) from it.  Returns
    the reduced rows in input order, each empty exactly when its row depends
    on the rows before it; sorted by pivot, the nonzero ones are echelon."""
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


def _coerce(v) -> MultiForm:
    if isinstance(v, MultiForm):
        return v
    if isinstance(v, (int, Fraction)):
        return MultiForm.constant(v)
    raise TypeError(f"cannot interpret {v!r} as a MultiForm")


def wedge(a: MultiForm, b: MultiForm) -> MultiForm:
    """Graded-anticommutative product with exact rational coefficients."""
    return _coerce(a) * _coerce(b)


def zgen(i: int) -> MultiForm:
    return MultiForm.generator("z", i)


def xgen(i: int) -> MultiForm:
    return MultiForm.generator("x", i)


# ---------------------------------------------------------------------------
# Grid connections and numerical Chern-Weil
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridConnection:
    """Connection coefficient samples on a flat torus grid.

    ``samples[axis][i1, ..., id]`` is the k x k coefficient matrix of the
    covariant derivative along ``axis`` at the grid node (i1/r, ..., id/r).
    """

    dim: int
    resolution: int
    fiber_dim: int
    samples: np.ndarray

    def __post_init__(self):
        expected = (self.dim,) + (self.resolution,) * self.dim + (self.fiber_dim,) * 2
        arr = np.asarray(self.samples, dtype=complex)
        if arr.shape != expected:
            raise ValueError(f"sample shape {arr.shape} != expected {expected}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)


def poincare_connection(resolution: int) -> GridConnection:
    """Rank-1 connection on the 2-torus with A_z = 0 and A_x = -2*pi*i*z.

    This is the standard connection on the character line bundle over
    (z, x) in S^1 x S^1; its curvature is constant.
    """
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    r = resolution
    samples = np.zeros((2, r, r, 1, 1), dtype=complex)
    z = np.arange(r) / r
    samples[1, :, :, 0, 0] = (-2j * np.pi * z)[:, None]
    return GridConnection(dim=2, resolution=r, fiber_dim=1, samples=samples)


def _principal_difference(delta: np.ndarray) -> np.ndarray:
    """Reduce connection-sample differences modulo 2*pi*i per entry.

    Samples of a connection on a nontrivial bundle jump by multiples of
    2*pi*i at the periodic seam (the transition function winds); reducing
    each difference to its principal representative makes the finite
    difference exact for the linear connections in scope.
    """
    return delta - 2j * np.pi * np.round(delta.imag / (2 * np.pi))


def numerical_curvature(c: GridConnection) -> np.ndarray:
    """Per-cell curvature matrices F[mu, nu] on grid plaquettes.

    Centered finite differences with periodic wraparound; the component
    convention is fixed so the connection with samples A_x = -2*pi*i*z has
    F[z, x] = +2*pi*i:  F_mn = d_n A_m - d_m A_n + [A_m, A_n].
    For rank 1 the commutator vanishes.
    """
    d, r, k = c.dim, c.resolution, c.fiber_dim
    h = 1.0 / r
    F = np.zeros((d, d) + (r,) * d + (k, k), dtype=complex)
    A = c.samples
    for mu in range(d):
        for nu in range(mu + 1, d):
            dmu_Anu = _edge_avg_derivative(A[nu], mu, nu, h)
            dnu_Amu = _edge_avg_derivative(A[mu], nu, mu, h)
            Amu_c = _cell_average(A[mu], mu, nu)
            Anu_c = _cell_average(A[nu], mu, nu)
            comm = Amu_c @ Anu_c - Anu_c @ Amu_c
            Fmn = dnu_Amu - dmu_Anu + comm
            F[mu, nu] = Fmn
            F[nu, mu] = -Fmn
    return F


def _edge_avg_derivative(field: np.ndarray, diff_axis: int, other_axis: int, h: float):
    """Cell-centered derivative along diff_axis: forward differences on the
    two opposite edges of the (diff_axis, other_axis) plaquette, averaged."""
    fwd = _principal_difference(np.roll(field, -1, axis=diff_axis) - field) / h
    return (fwd + np.roll(fwd, -1, axis=other_axis)) / 2.0


def _cell_average(field: np.ndarray, ax1: int, ax2: int):
    s1 = np.roll(field, -1, axis=ax1)
    s2 = np.roll(field, -1, axis=ax2)
    s12 = np.roll(s1, -1, axis=ax2)
    return (field + s1 + s2 + s12) / 4.0


def chern_number(c: GridConnection, cycle: tuple[int, int] = (0, 1)):
    """First Chern number (i/2pi) * integral of tr F over the coordinate
    2-torus spanned by the two axes, by the midpoint rule.

    Returns (nearest integer, rounding residual); raises IntegralityError
    when the residual exceeds INTEGRALITY_TOL.
    """
    mu, nu = cycle
    if mu == nu:
        raise ValueError("cycle axes must be distinct")
    F = numerical_curvature(c)[mu, nu]
    # restrict to the (mu, nu) plane through the origin in the other axes
    index: list = [slice(None)] * c.dim
    for ax in range(c.dim):
        if ax not in (mu, nu):
            index[ax] = 0
    plane = F[tuple(index)]
    tr = np.trace(plane, axis1=-2, axis2=-1)
    integral = tr.sum() / (c.resolution**2)
    value = 1j / (2 * np.pi) * integral
    nearest = int(np.round(value.real))
    residual = float(abs(value - nearest))
    if residual > INTEGRALITY_TOL:
        raise IntegralityError(value, residual)
    return nearest, residual


def winding_number(loop) -> int:
    """Total winding of det along a closed loop of invertible matrices.

    Convention: t -> e^{2*pi*i*t} sampled in increasing t has winding +1.
    ``loop`` is a sequence of scalars or of k x k matrices, or a stack
    ``(samples, k, k)``, whose determinants LAPACK computes.  The checks
    run in order, and the first failed refuses the loop: at least three
    samples, closed (first = last within 1e-9), no (numerically) singular
    matrix, and sampled finely enough that consecutive determinant
    arguments differ by less than pi.
    """
    mats = np.asarray(loop, dtype=complex)
    if mats.ndim < 3:
        mats = mats.reshape(len(mats), 1, 1)
    dets = np.linalg.det(mats)
    if len(dets) < 3:
        # a closed loop of two samples is one step of 2*pi, which reads as 0
        raise UnderSampledLoopError(
            f"need at least three samples on a closed loop, got {len(dets)}"
        )
    gap = np.linalg.norm(mats[0] - mats[-1])
    if gap > 1e-9:
        raise ValueError(
            f"loop is not closed: first and last samples differ by {gap:.3g} (bound 1e-9)"
        )
    if np.abs(dets).min() < 1e-12:
        raise ValueError("loop contains a (numerically) singular matrix")
    steps = np.angle(dets[1:] / dets[:-1])
    if np.abs(steps).max() >= np.pi * (1 - 1e-9):
        raise UnderSampledLoopError(
            "adjacent determinant arguments jump by >= pi; sample more finely"
        )
    return int(np.round(steps.sum() / (2 * np.pi)))
