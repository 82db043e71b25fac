"""Rational homology bases, detection pairings, and detectability certificates.

Rational K-homology is represented throughout by rational homology via the
character isomorphism.  A group class is one value, ``GroupClass(label,
basis)``, built with its basis by ``Free``, ``FreeAbelian``,
``SurfaceClosed``, ``FreeProduct``, ``DirectProduct`` or ``FiniteIndexSuper``.
Where the classifying space has a torus/wedge model, its homology classes are
dual to monomials in the base (z) labels; pairing a family against a class
contracts the family's exact character form on that monomial.  Families
without exact character data can pair degree <= 1 classes numerically
through determinant windings.

Basis conventions: base generators are ordered z1 < z2 < ..., parameter
generators x1 < x2 < ..., monomials sorted base-before-parameter; signs from
reordering are absorbed into coefficients, never dropped.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .charforms import SIGN_CONVENTIONS, MultiForm, format_combination, reduce_rows
from .families import Cover, Family, axis_windings, induce_family, pullback_family
from .presentation import PresentationError, Word, parse_word

SCOPE_NOTE = (
    "Detectability is certified only over the structured parameter spaces "
    "supported by this toolkit (torus grids, finite point sets, and their "
    "products and disjoint unions), not over arbitrary finite complexes."
)


# the most homology classes a descriptor builds (free_abelian(16) has 2^16)
MAX_CLASSES = 2**16


class DetectionError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Group classes and their rational homology bases
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BasisClass:
    """A labeled rational homology class; ``monomial`` is the dual z-monomial
    in the group's torus/wedge model when one exists."""

    label: str
    degree: int
    monomial: tuple[int, ...] | None


@dataclass(frozen=True)
class HomologyBasis:
    classes: tuple[tuple[BasisClass, ...], ...]  # per degree
    z_dim: int

    def betti(self) -> tuple[int, ...]:
        return tuple(len(cs) for cs in self.classes)

    def all_classes(self):
        return [c for degree in self.classes for c in degree]


@dataclass(frozen=True)
class GroupClass:
    """A group class: its expression ``label`` and the labeled basis of the
    rational homology of its classifying space."""

    label: str
    basis: HomologyBasis

    def describe(self) -> str:
        return self.label


def _group_class(label: str, classes: Sequence[BasisClass], top: int, z_dim: int) -> GroupClass:
    """Group a flat class list by degree 0..top, keeping the order within
    each degree."""
    degrees = [[] for _ in range(top + 1)]
    for c in classes:
        degrees[c.degree].append(c)
    return GroupClass(label, HomologyBasis(tuple(map(tuple, degrees)), z_dim))


def _check_count(label: str, count: int, text: str | None = None) -> None:
    """Refuse a descriptor of more than MAX_CLASSES classes before building
    them; ``text`` names a count too large to write out."""
    if count > MAX_CLASSES:
        raise ValueError(
            f"{label} has {text or count} homology classes, more than the "
            f"{MAX_CLASSES} built at most"
        )


def _torus(label: str, rank: int, top: int) -> GroupClass:
    """The torus model of rank ``rank`` truncated above degree ``top``, which
    is ``rank`` (2^rank classes) or at most 1 (a wedge, 1 + rank classes)."""
    if top == rank:  # 2^rank, capped just past the bound
        _check_count(label, 2 ** min(rank, MAX_CLASSES.bit_length()), f"2^{rank}")
    else:
        _check_count(label, 1 + rank * top)
    classes = [
        BasisClass("^".join(f"z{i}" for i in subset) or "pt", q, subset)
        for q in range(top + 1)
        for subset in itertools.combinations(range(1, rank + 1), q)
    ]
    return _group_class(label, classes, top, rank)


def Free(rank: int) -> GroupClass:
    if rank < 0:
        raise ValueError("rank must be >= 0")
    # a wedge of circles stops at degree 1
    return _torus(f"free({rank})", rank, min(rank, 1))


def FreeAbelian(rank: int) -> GroupClass:
    if rank < 0:
        raise ValueError("rank must be >= 0")
    return _torus(f"free_abelian({rank})", rank, rank)


def SurfaceClosed(genus: int) -> GroupClass:
    if genus < 1:
        raise ValueError("genus must be >= 1")
    label = f"surface({genus})"
    if genus == 1:
        return _torus(label, 2, 2)
    _check_count(label, 2 * genus + 2)
    ones = [BasisClass(f"{ab}{i}", 1, None) for i in range(1, genus + 1) for ab in "ab"]
    classes = [BasisClass("pt", 0, ()), *ones, BasisClass("fundamental", 2, None)]
    return _group_class(label, classes, 2, 2 * genus)


def _factors(left: GroupClass, right: GroupClass):
    """The classes of both factors, the right's labels prefixed ``R.`` and
    its monomials shifted past the left's z-labels, and the joint z_dim."""
    shift = left.basis.z_dim
    right_classes = [
        BasisClass(
            f"R.{c.label}",
            c.degree,
            None if c.monomial is None else tuple(i + shift for i in c.monomial),
        )
        for c in right.basis.all_classes()
    ]
    return left.basis.all_classes(), right_classes, shift + right.basis.z_dim


def FreeProduct(left: GroupClass, right: GroupClass) -> GroupClass:
    label = f"free_product({left.describe()}, {right.describe()})"
    _check_count(label, 1 + sum(left.basis.betti()[1:]) + sum(right.basis.betti()[1:]))
    lc, rc, z_dim = _factors(left, right)
    positive = [c for c in lc + rc if c.degree > 0]
    top = max(len(left.basis.classes), len(right.basis.classes)) - 1
    return _group_class(label, [BasisClass("pt", 0, ()), *positive], top, z_dim)


def DirectProduct(left: GroupClass, right: GroupClass) -> GroupClass:
    label = f"direct_product({left.describe()}, {right.describe()})"
    _check_count(label, sum(left.basis.betti()) * sum(right.basis.betti()))
    lc, rc, z_dim = _factors(left, right)
    classes = [
        BasisClass(
            "x".join(c.label for c in (cl, cr) if c.degree > 0) or cl.label,
            cl.degree + cr.degree,
            None if None in (cl.monomial, cr.monomial) else cl.monomial + cr.monomial,
        )
        for cl in lc
        for cr in rc
    ]
    top = len(left.basis.classes) + len(right.basis.classes) - 2
    return _group_class(label, classes, top, z_dim)


def FiniteIndexSuper(
    sub: GroupClass, index: int, label: str, homology: Sequence[Sequence[str]]
) -> GroupClass:
    """A finite-index supergroup of ``sub``; its rational homology cannot be
    derived here and is given as a table of labels per degree, with exactly
    one label (the point class) in degree 0."""
    if index < 2:
        raise ValueError("index must be >= 2")
    if not homology or len(homology[0]) != 1:
        raise ValueError("a homology table needs exactly one degree-0 label")
    classes = [BasisClass(name, q, None) for q, names in enumerate(homology) for name in names]
    return _group_class(
        f"finite_index_super({sub.describe()}, {index}, {label})",
        classes, len(homology) - 1, 0,
    )


def rational_homology(d: GroupClass) -> HomologyBasis:
    """Labeled basis of the rational homology of the classifying space."""
    return d.basis


# ---------------------------------------------------------------------------
# Slant contraction and detection matrices
# ---------------------------------------------------------------------------


def slant_contract(ch: MultiForm, cls: BasisClass) -> MultiForm:
    """Contract a character form against a homology basis class: extract the
    parameter forms paired with the base monomial dual to the class."""
    if cls.monomial is None:
        raise DetectionError(
            f"class {cls.label!r} has no exact model; use the numeric pairing "
            "path (numeric_detection_report)"
        )
    return ch.contract_z(cls.monomial)


def _x_monomials(x_dim: int):
    out = []
    for q in range(x_dim + 1):
        out.extend(itertools.combinations(range(1, x_dim + 1), q))
    return out


@dataclass(frozen=True)
class DetectionReport:
    group: str
    families: tuple[str, ...]
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    matrix: tuple[tuple[Fraction, ...], ...]
    detected: tuple[bool, ...]
    verdict: str                      # "FD-certified" | "undetected"
    undetected_classes: tuple[str, ...]
    mode: str                         # "exact" | "numeric"
    sign_conventions: dict
    scope_note: str = SCOPE_NOTE
    witness: str | None = None        # a vanishing class combination, when rows are dependent

    def to_json_dict(self) -> dict:
        out = {
            "kind": "detection_report",
            "group": self.group,
            "families": list(self.families),
            "rows": list(self.row_labels),
            "columns": list(self.col_labels),
            # most cells are zero, and Fraction(0) formats as "0/1"
            "matrix": [
                [f"{e.numerator}/{e.denominator}" if e else "0/1" for e in row]
                for row in self.matrix
            ],
            "detected": list(self.detected),
            "verdict": self.verdict,
            "undetected_classes": list(self.undetected_classes),
            "mode": self.mode,
            "sign_conventions": dict(self.sign_conventions),
            "scope_note": self.scope_note,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def _assemble_report(d, fams, row_labels, col_labels, matrix, mode):
    """The report of a pairing matrix, certified exactly when its rows are
    independent over Q.  Each row gets a tag column of its own, so that the
    first dependent row reduces to its combination of rows: the witness."""
    width = len(col_labels)
    rows = [{j: e for j, e in enumerate(row) if e} for row in matrix]
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
        col_labels=col_labels,
        matrix=tuple(tuple(row) for row in matrix),
        detected=detected,
        verdict="undetected" if kernel else "FD-certified",
        undetected_classes=undetected,
        mode=mode,
        sign_conventions=SIGN_CONVENTIONS,
        witness=witness,
    )


def detection_matrix(
    d: GroupClass, fams: Sequence[Family]
) -> DetectionReport:
    """The exact detection matrix: one row per homology basis class, one
    column per parameter monomial of each family component, entries the
    rational coefficients of the contracted character forms.

    Disjoint unions contribute the concatenation of their components'
    columns.  Every family must carry exact character data.

    One pass per component form: each is split once by z-part
    (``MultiForm.split_z``) and every cell is then two dict lookups, so the
    cost is linear in the number of terms plus the number of cells.  Entries
    equal ``slant_contract(form, cls).coefficient(x-monomial)``.
    """
    basis = rational_homology(d)
    classes = basis.all_classes()
    for cls in classes:
        if cls.monomial is None:
            raise DetectionError(
                f"class {cls.label!r} of {d.describe()} has no exact model; "
                "use the numeric pairing path (numeric_detection_report)"
            )
    columns = []  # (family index, component index, x-monomial)
    splits = {}  # (family index, component index) -> ch.split_z()
    for fi, f in enumerate(fams):
        if f.chern is None:
            raise DetectionError(
                f"family {fi} ({f.structure}) lacks exact character data; "
                "use the numeric pairing path (numeric_detection_report)"
            )
        for ci in range(f.space.n_components):
            splits[fi, ci] = f.chern[ci].split_z()
            for mono in _x_monomials(f.space.component_x_dim(ci)):
                columns.append((fi, ci, mono))
    col_labels = tuple(
        f"f{fi}.c{ci}." + ("1" if not mono else "^".join(f"x{i}" for i in mono))
        for fi, ci, mono in columns
    )
    col_keys = [((fi, ci), tuple(("x", i) for i in mono)) for fi, ci, mono in columns]
    zero = Fraction(0)
    matrix = []
    for cls in classes:
        zpart = tuple(sorted(cls.monomial))
        parts = {comp: split.get(zpart, {}) for comp, split in splits.items()}
        matrix.append([parts[comp].get(xkey, zero) for comp, xkey in col_keys])
    row_labels = tuple(c.label for c in classes)
    return _assemble_report(d, fams, row_labels, col_labels, matrix, "exact")


def numeric_detection_report(
    d: GroupClass,
    f: Family,
    samples: int = 64,
) -> DetectionReport:
    """Numeric pairing for families without exact character data.

    Degree-0 classes pair to the fiber rank per component; degree-1 classes,
    whose labels must parse as words in the family's group, pair to the
    winding of det(holonomy) along each parameter-axis loop.  Higher-degree
    classes are outside the numeric path.
    """
    basis = rational_homology(d)
    if len(basis.classes) > 2 and any(len(cs) for cs in basis.classes[2:]):
        raise DetectionError(
            "the numeric pairing path supports degree <= 1 classes only"
        )
    components = range(f.space.n_components)
    col_labels = []
    for ci in components:
        col_labels.append(f"c{ci}.rank")
        for axis in range(f.space.component_x_dim(ci)):
            col_labels.append(f"c{ci}.loop_x{axis + 1}")
    classes = basis.all_classes()
    words = []
    for c in (c for c in classes if c.degree == 1):
        try:
            words.append(parse_word(c.label, f.group))
        except PresentationError:
            raise PresentationError(
                f"class {c.label!r} of {d.describe()} is not a word in the family's "
                f"generators ({', '.join(f.group.generators)})"
            ) from None
    # per degree-1 class, in order: its windings per component and axis
    windings = iter(zip(*(axis_windings(f, words, ci, samples) for ci in components)))
    matrix = []
    for cls in classes:
        row = []
        if cls.degree == 0:
            for ci in components:
                row.append(Fraction(f.fiber_dims[ci]))
                row.extend([Fraction(0)] * f.space.component_x_dim(ci))
        else:
            for per_axis in next(windings):
                row.append(Fraction(0))
                row.extend(Fraction(k) for k in per_axis)
        matrix.append(row)
    row_labels = tuple(c.label for c in classes)
    return _assemble_report(d, [f], row_labels, tuple(col_labels), matrix, "numeric")


# ---------------------------------------------------------------------------
# Transfer scaling, obstruction arithmetic, Betti inequality
# ---------------------------------------------------------------------------


def transfer_scaling_check(f: Family, index: int, *, cover: Cover) -> bool:
    """Check that pulling a family ``f`` of the ambient group back along a
    structured cover and inducing it up again multiplies every
    detection-matrix entry by exactly the index."""
    if any(-1 in signs for signs in cover.holonomy):
        raise DetectionError(
            f"unsupported cover description {cover.describe()!r}: no rational model"
        )
    if cover.index != index:
        raise DetectionError(
            f"cover has index {cover.index}, expected {index}"
        )
    ambient = FreeAbelian(len(cover.ambient.generators))
    round_trip = induce_family(pullback_family(f, cover), cover)
    base = detection_matrix(ambient, [f])
    scaled = detection_matrix(ambient, [round_trip])
    if base.col_labels != scaled.col_labels or base.row_labels != scaled.row_labels:
        return False
    return all(
        index * a == b
        for ra, rb in zip(base.matrix, scaled.matrix)
        for a, b in zip(ra, rb)
    )


def bm_obstruction(f: int, index: int) -> tuple[int, int, bool]:
    """Euler-characteristic arithmetic for an amalgam of free groups over a
    common finite-index subgroup: the subgroup rank is
    g = index*(f - 1) + 1, and the kernel of a map Q^g -> Q^{2f} has rank at
    least max(0, g - 2f).  A strictly positive bound excludes detectability
    of some class for a simple group with these data; bound zero is
    inconclusive.
    """
    if f < 2:
        raise ValueError("free rank must be >= 2")
    if index < 2:
        raise ValueError("index must be >= 2")
    g = index * (f - 1) + 1
    h2_lower_bound = max(0, g - 2 * f)
    return g, h2_lower_bound, h2_lower_bound > 0


def unitary_poincare_polynomial(n: int) -> list[int]:
    """Coefficients of prod_{i=1..n} (1 + t^{2i-1}), the Poincare polynomial
    of the n-dimensional unitary group."""
    coeffs = [1]
    for i in range(1, n + 1):
        deg = 2 * i - 1
        new = coeffs + [0] * deg
        for k, c in enumerate(coeffs):
            new[k + deg] += c
        coeffs = new
    return coeffs


def betti_inequality_check(m: int, n: int) -> tuple[int, int, bool]:
    """Compare total Betti numbers: the representation space of the rank-m
    free group in U(n) is U(n)^m, with Betti sum (sum of U(n) Betti)^m; the
    classifying space is a wedge of m circles, with Betti sum 1 + m."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    total_un = sum(unitary_poincare_polynomial(n))
    lhs = total_un**m
    rhs = 1 + m
    return lhs, rhs, lhs >= rhs
