"""Rational homology bases, detection pairings, and detectability certificates.

Rational K-homology is represented throughout by rational homology via the
character isomorphism.  A group class is one value, ``GroupClass(label,
classes, z_dim, relators)``, its classes in degree order, built by ``Free``,
``FreeAbelian``, ``SurfaceClosed``, ``PresentationComplex``, ``FreeProduct``,
``DirectProduct`` or ``FiniteIndexSuper``.  Every class but a
``FiniteIndexSuper`` label has its rational cycle, (z-part, coefficient)
pairs in the base (z) labels.  Both pairings run one loop: a class is a
cycle {z-part: coefficient}, a family component a table {z-part: {x-part:
value}} (index tuples), and a cell the cycle's combination of table entries.
Both read base label z_i as the family's generator i, so both check first
the family's generator count, then that each of the group's ``relators``
holds on the family at every parameter.  Exactly, a
table is the component's character form split by z-part.  Numerically, for
families without exact character data, a table holds the fiber rank and
the determinant windings of the generators the cycles read, integers of the
family's monomial data; a class
without a cycle (a ``FiniteIndexSuper`` label) is read as a word, the cycle
of its exponent sums.

Basis conventions: base generators are ordered z1 < z2 < ..., parameter
generators x1 < x2 < ..., monomials sorted base-before-parameter; signs from
reordering are absorbed into coefficients, never dropped.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .charforms import SIGN_CONVENTIONS, MultiForm, format_combination
from .families import (MAX_EXPONENT, Cover, Family, _abelianize, _check_exponents, _holding,
                       _letters, axis_windings, induce_family, pullback_family)
from .presentation import (GroupPresentation, PresentationError, Word, format_word, free_abelian,
                           free_group, free_reduce, parse_word, surface_group)

SCOPE_NOTE = (
    "Detectability is certified only over the structured parameter spaces "
    "supported by this toolkit (torus grids, finite point sets, and their "
    "products and disjoint unions), not over arbitrary finite complexes."
)


# the most homology classes a descriptor builds (free_abelian(16) has 2^16)
MAX_CLASSES = 2**16
# the most cells (nonzero rows x columns) of exponent-sum matrices eliminated
# for one group, or in all for the leaves of one descriptor expression (see
# ``expression_budget``): 0.08-0.12 s at a dense 64 x 64 in a shared 2-core VM
MAX_RELATION_CELLS = 2**12
# the most prefix sums read building the degree-2 cycles: surface(32767) reads 131068
MAX_CYCLE_TERMS = 2**17
# the most cells (rows x columns) of an exact detection matrix: free_abelian(11)
# against char_zn(11, 2) has 2^22 and takes 3.1 s and 440 MB in a shared
# 2-core VM; each further rank costs about 4x
MAX_CELLS = 2**22


class DetectionError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Group classes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BasisClass:
    """A labeled rational homology class; ``cycle`` is its rational cycle in
    the torus of the group's torsion-free abelianization, (z-part,
    coefficient) pairs with distinct sorted z-parts, or None without a model
    (a positive-degree class of ``FiniteIndexSuper``)."""

    label: str
    degree: int
    cycle: tuple[tuple[tuple[int, ...], Fraction | int], ...] | None


@dataclass(frozen=True)
class GroupClass:
    """A group class: its expression ``label``, the labeled basis of the
    rational homology of its classifying space in degree order, the number
    of base (z) labels its cycles read, and the relators, words in the base
    labels (z_i is generator i - 1), that a family of it must satisfy."""

    label: str
    classes: tuple[BasisClass, ...]
    z_dim: int
    relators: tuple[Word, ...] = ()

    def describe(self) -> str:
        return self.label

    def betti(self) -> tuple[int, ...]:
        degrees = [c.degree for c in self.classes]
        return tuple(map(degrees.count, range(degrees[-1] + 1)))


def _group_class(label: str, classes: Sequence[BasisClass], z_dim: int,
                 relators: tuple[Word, ...] = ()) -> GroupClass:
    """Order a class list by degree, keeping the order within each degree."""
    return GroupClass(label, tuple(sorted(classes, key=lambda c: c.degree)), z_dim, relators)


def _check_count(label: str, count: int, text: str | None = None) -> None:
    """Refuse a descriptor of more than MAX_CLASSES classes before building
    them; ``text`` names a count too large to write out."""
    if count > MAX_CLASSES:
        raise ValueError(
            f"{label} has {text or count} homology classes, more than the "
            f"{MAX_CLASSES} built at most"
        )


_POINT = (((), 1),)  # the point class's cycle: the empty z-part, coefficient 1


def _prefix_sums(w: Word):
    """Each run (g, e) of w with the nonzero exponent sums {h: p} of the prefix before it."""
    prefix = {}
    for g, e in w.letters:
        yield g, e, prefix
        if p := prefix.pop(g, 0) + e:
            prefix[g] = p


def _omega(w: Word) -> dict[tuple[int, int], int]:
    """Twice w's cycle omega(w), {(i, j): int}: 1/2 sum over its letters of (the exponent
    sum of the prefix before it) ^ (the letter), reading the prefix's nonzero sums only."""
    twice = {}
    for g, e, prefix in _prefix_sums(w):
        for h, p in prefix.items():
            if h != g:
                key, v = ((h + 1, g + 1), p * e) if h < g else ((g + 1, h + 1), -p * e)
                twice[key] = twice.get(key, 0) + v
    return {z: v for z, v in twice.items() if v}


# the exponent-sum cells the presentation complexes of the descriptor
# expression being built have eliminated so far, or None outside one
_CELLS_SPENT: ContextVar[list[int] | None] = ContextVar("cells_spent", default=None)


@contextmanager
def expression_budget():
    """Bound the exponent-sum cells that all presentation complexes built
    inside eliminate by one MAX_RELATION_CELLS, as the leaves of one
    descriptor expression share it."""
    token = _CELLS_SPENT.set([0])
    try:
        yield
    finally:
        _CELLS_SPENT.reset(token)


def _exponent_sums(label: str, G: GroupPresentation, spent: int) -> list[dict[int, int]]:
    """G's exponent-sum matrix, a row {generator: sum} per relator, refused past
    MAX_RELATION_CELLS nonzero rows x columns, less the ``spent`` ones, before
    anything eliminates it."""
    # sorted, a word's runs of one generator merge into one
    rows = [dict(free_reduce(Word(tuple(sorted(r.letters)))).letters) for r in G.relators]
    if spent + (nonzero := sum(map(bool, rows))) * (n := len(G.generators)) > MAX_RELATION_CELLS:
        left = (f"{MAX_RELATION_CELLS - spent} cells left of the {MAX_RELATION_CELLS} "
                "eliminated at most in one expression" if spent else
                f"{MAX_RELATION_CELLS} cells eliminated at most")
        raise PresentationError(f"{label} has an exponent-sum matrix of {nonzero} nonzero rows "
                                f"and {n} columns, more than the {left}")
    return rows


def _dependencies(rows, width: int) -> tuple[set[int], list[dict[int, int]]]:
    """Forward elimination of sparse rows {column < width: nonzero int or
    Fraction} in input order, in integers: row i is scaled by the lcm of its
    denominators, carried in tag column width + i, and less the multiples of
    the earlier independent rows that clear their pivots (least columns),
    each step that scales it divided by its content.  Returns the pivots of
    the independent rows and, for each dependent row in order, its primitive
    integer dependency {row index: coefficient}, positive at that row."""
    pivots: dict = {}  # pivot column -> its reduced row
    kernel = []
    for i, row in enumerate(rows):
        if (scale := math.lcm(*(v.denominator for v in row.values()))) == 1:
            row = {c: v.numerator for c, v in row.items()}
        else:
            row = {c: v.numerator * (scale // v.denominator) for c, v in row.items()}
        row[width + i] = scale
        # a pivot row is zero left of its pivot, so clearing pivots in
        # ascending order never refills a cleared one
        while hits := row.keys() & pivots.keys():
            prow = pivots[hit := min(hits)]
            a, b = prow[hit], row[hit]
            g = math.gcd(a, b) if a > 0 else -math.gcd(a, b)  # a > 0 keeps the tag positive
            a, b = a // g, b // g
            if a != 1:
                row = {c: a * v for c, v in row.items()}
            for c, v in prow.items():
                if x := row.get(c, 0) - b * v:
                    row[c] = x
                else:
                    del row[c]
            if a != 1 and (g := math.gcd(*row.values())) != 1:
                row = {c: v // g for c, v in row.items()}
        if (p := min(row)) < width:
            pivots[p] = row
        else:
            g = math.gcd(*row.values())
            kernel.append({c - width: v // g for c, v in sorted(row.items())})
    return set(pivots), kernel


def PresentationComplex(label: str, G: GroupPresentation) -> GroupClass:
    """Degrees 0..2 of the rational homology of G's presentation 2-complex: H_1, the cokernel
    of the exponent-sum matrix, has a class z{g} per generator g that is no pivot of its
    elimination; H_2, its kernel, a class per primitive integer kernel vector n, of cycle sum_k n_k
    omega(r_k), labeled by that cycle or, if 0 or a label already, by n.  Sound by Hopf's
    formula for families of G, complete if aspherical.  Elimination is refused past
    MAX_RELATION_CELLS, counted across an ``expression_budget``, and every omega past
    MAX_CYCLE_TERMS prefix sums read in all."""
    n = len(G.generators)
    spent = _CELLS_SPENT.get() or [0]  # a count of its own outside an expression
    rows = _exponent_sums(label, G, spent[0])
    spent[0] += sum(map(bool, rows)) * n
    pivots, kernel = _dependencies(rows, n)
    _check_count(label, 1 + n - len(pivots) + len(kernel))
    reads = {k: sum(len(p) for *_, p in _prefix_sums(G.relators[k]))
             for k in {k for vec in kernel for k in vec}}
    if (total := sum(reads[k] for vec in kernel for k in vec)) > MAX_CYCLE_TERMS:
        raise ValueError(f"{label} reads {total} prefix sums building its degree-2 cycles, more "
                         f"than the {MAX_CYCLE_TERMS} read at most")
    omegas = {k: _omega(G.relators[k]) for k in reads}
    classes = [BasisClass("pt", 0, _POINT)]
    classes += [BasisClass(f"z{g + 1}", 1, (((g + 1,), 1),)) for g in range(n) if g not in pivots]
    taken = set()  # no relator combination reads as a cycle
    for vec in kernel:
        twice: dict = {}
        for k, c in vec.items():
            for z, v in omegas[k].items():
                twice[z] = twice.get(z, 0) + c * v
        cycle = tuple((z, Fraction(v, 2)) for z, v in sorted(twice.items()) if v)
        name = format_combination(("^".join(f"z{i}" for i in z), c) for z, c in cycle)
        if not cycle or name in taken:
            name = format_combination((f"r{k + 1}", c) for k, c in sorted(vec.items()))
        taken.add(name)
        classes.append(BasisClass(name, 2, cycle))
    return _group_class(label, classes, n, G.relators)


def Free(rank: int) -> GroupClass:
    if rank < 0:
        raise ValueError("rank must be >= 0")
    label = f"free({rank})"
    _check_count(label, 1 + rank)
    return PresentationComplex(label, free_group(rank))


def FreeAbelian(rank: int) -> GroupClass:
    """The torus model: the presentation 2-complex would miss degree >= 3."""
    if rank < 0:
        raise ValueError("rank must be >= 0")
    label = f"free_abelian({rank})"
    _check_count(label, 2 ** min(rank, MAX_CLASSES.bit_length()), f"2^{rank}")  # 2^rank, capped
    axes = range(1, rank + 1)
    names = [f"z{i}" for i in axes]
    classes = [
        BasisClass("^".join(part) or "pt", q, ((subset, 1),))
        for q in range(rank + 1)
        for subset, part in zip(itertools.combinations(axes, q), itertools.combinations(names, q))
    ]
    return _group_class(label, classes, rank, free_abelian(rank).relators)


def SurfaceClosed(genus: int) -> GroupClass:
    label = f"surface({genus})"
    _check_count(label, 2 * genus + 2)
    return PresentationComplex(label, surface_group(genus))


def _factors(left: GroupClass, right: GroupClass):
    """The classes of both factors, the right's labels prefixed ``R.`` and
    its cycles and relators shifted past the left's z-labels, the joint
    z_dim and both factors' relators."""
    shift = left.z_dim
    right_classes = [
        BasisClass(
            f"R.{c.label}",
            c.degree,
            None if c.cycle is None
            else tuple((tuple(i + shift for i in z), k) for z, k in c.cycle),
        )
        for c in right.classes
    ]
    relators = left.relators + tuple(Word(tuple((g + shift, e) for g, e in r.letters))
                                     for r in right.relators)
    return list(left.classes), right_classes, shift + right.z_dim, relators


def FreeProduct(left: GroupClass, right: GroupClass) -> GroupClass:
    label = f"free_product({left.describe()}, {right.describe()})"
    _check_count(label, len(left.classes) + len(right.classes) - 1)
    lc, rc, *joint = _factors(left, right)
    positive = [c for c in lc + rc if c.degree > 0]
    return _group_class(label, [BasisClass("pt", 0, _POINT), *positive], *joint)


def DirectProduct(left: GroupClass, right: GroupClass) -> GroupClass:
    label = f"direct_product({left.describe()}, {right.describe()})"
    _check_count(label, len(left.classes) * len(right.classes))
    lc, rc, z_dim, relators = _factors(left, right)
    # every left generator commutes with every right one: [z_i, z_j], each
    # built as one word of shared letters
    up, down = [(g, 1) for g in range(z_dim)], [(g, -1) for g in range(z_dim)]
    relators += tuple(Word((up[i], up[j], down[i], down[j]))
                      for i in range(left.z_dim) for j in range(left.z_dim, z_dim))
    # the product of the two cycles: every right index is past every left
    # one, so z-parts concatenate in order, with no sign; a degree-0 factor
    # leaves the label of the other (the left one's when both are)
    classes = [
        BasisClass(
            f"{cl.label}x{cr.label}" if cl.degree and cr.degree
            else cr.label if cr.degree else cl.label,
            cl.degree + cr.degree,
            None if cl.cycle is None or cr.cycle is None
            else tuple([(zl + zr, a * b) for zl, a in cl.cycle for zr, b in cr.cycle]),
        )
        for cl in lc
        for cr in rc
    ]
    return _group_class(label, classes, z_dim, relators)


def FiniteIndexSuper(
    sub: GroupClass, index: int, label: str, homology: Sequence[Sequence[str]]
) -> GroupClass:
    """A finite-index supergroup of ``sub``; its rational homology cannot be
    derived here and is given as a table of labels per degree, with exactly
    one label (the point class) in degree 0.  The positive-degree labels have
    no cycle: the numeric pairing reads them as words of the family's group."""
    if index < 2:
        raise ValueError("index must be >= 2")
    if not homology or len(homology[0]) != 1:
        raise ValueError("a homology table needs exactly one degree-0 label")
    classes = [BasisClass(name, q, None if q else _POINT)
               for q, names in enumerate(homology) for name in names]
    return _group_class(f"finite_index_super({sub.describe()}, {index}, {label})", classes, 0)


def rational_homology(d: GroupClass) -> tuple[BasisClass, ...]:
    """Labeled basis of the rational homology of the classifying space, in degree order."""
    return d.classes


# ---------------------------------------------------------------------------
# Slant contraction and detection matrices
# ---------------------------------------------------------------------------


def slant_contract(ch: MultiForm, cls: BasisClass) -> MultiForm:
    """Contract a character form against a homology basis class: the
    combination, over the class's cycle, of the parameter forms paired with
    each base monomial."""
    if cls.cycle is None:
        raise DetectionError(
            f"class {cls.label!r} has no exact model; use the numeric pairing "
            "path (numeric_detection_report)"
        )
    return sum((c * ch.contract_z(z) for z, c in cls.cycle), MultiForm())


@dataclass(frozen=True)
class SparseMatrix:
    """A matrix ``width`` columns wide as its rows {column: nonzero Fraction}, columns
    ascending; the CLI's writer emits it as dense "p/q" rows, ``json.dumps`` refuses it."""

    rows: tuple[dict[int, Fraction], ...]
    width: int


@dataclass(frozen=True)
class DetectionReport:
    """One pairing's report.  ``sparse`` holds its matrix, a row per class and
    a column per ``col_labels`` entry; ``matrix`` is its dense view of Fraction
    rows, built on each read.  ``to_json_dict`` is the payload the CLI writes."""

    group: str
    families: tuple[str, ...]
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    sparse: SparseMatrix
    detected: tuple[bool, ...]
    verdict: str                      # "FD-certified" | "undetected"
    undetected_classes: tuple[str, ...]
    mode: str                         # "exact" | "numeric"
    sign_conventions: dict
    scope_note: str = SCOPE_NOTE
    witness: str | None = None        # a vanishing class combination, when rows are dependent

    @property
    def matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        zero, width = Fraction(0), self.sparse.width
        return tuple(tuple(row.get(j, zero) for j in range(width)) for row in self.sparse.rows)

    def to_json_dict(self) -> dict:
        out = {
            "kind": "detection_report",
            "group": self.group,
            "families": list(self.families),
            "rows": list(self.row_labels),
            "columns": list(self.col_labels),
            "matrix": self.sparse,
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


# mode -> (the highest x-degree a column reaches, the column label's prefix
# for family fi and component ci, its x-monomial part for () and for each x_i)
_COLUMNS = {
    "exact": (float("inf"), "f{fi}.c{ci}.", "1", "x{}"),
    "numeric": (1, "c{ci}.", "rank", "loop_x{}"),
}


def _combine(table, cycle):
    """A cycle's combination of one table's buckets, {x-part: value}: the
    bucket itself for one term of coefficient 1, so exact cells stay lookups."""
    if len(cycle) == 1 and 1 in cycle.values():
        return table.get(next(iter(cycle)), {})
    out = {}
    for zpart, c in cycle.items():
        for xkey, v in table.get(zpart, {}).items():
            out[xkey] = out.get(xkey, 0) + c * v
    return out


def _pairing(d, fams, cycles, tables, mode) -> DetectionReport:
    """The one pairing loop: class i of ``d`` is ``cycles[i]``, {z-part:
    coefficient}, family fi's component ci is ``tables[fi][ci]``, {z-part:
    {x-part: value}}, and each cell combines one column's entries.  The
    rows certify when independent over Q; else the first dependency among
    them, scaled to 1 at its first row, is the witness."""
    top, prefix, unit, xname = _COLUMNS[mode]
    comps, col_labels = [], []  # every component's table and {x-part: column}, in column order
    for fi, (f, per_family) in enumerate(zip(fams, tables)):
        for ci, table in enumerate(per_family):
            x_dim, head = f.space.component_x_dim(ci), prefix.format(fi=fi, ci=ci)
            axes = range(1, x_dim + 1)
            names = [xname.format(i) for i in axes]
            degrees = range(min(x_dim, top) + 1)
            monos = [m for q in degrees for m in itertools.combinations(axes, q)]
            start = len(col_labels)
            comps.append((table, dict(zip(monos, range(start, start + len(monos))))))
            col_labels += [head + ("^".join(part) or unit)
                           for q in degrees for part in itertools.combinations(names, q)]
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
    kernel = _dependencies(rows, width)[1]
    witness = None
    if kernel and all(detected):
        first = next(iter(kernel[0].values()))
        witness = format_combination((row_labels[j], Fraction(c, first))
                                     for j, c in kernel[0].items())
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


def _check_base_labels(d: GroupClass, fams: Sequence[Family]) -> None:
    """Refuse a family of another group before pairing, ahead of every other
    check: a cycle's base label z_i pairs with the family's generator i by
    position, so the family needs d's count of base labels, and each of d's
    relators must hold on it at every parameter: it is one of the family
    group's relators, or it composes to (id, 0) on every component, as in
    ``verify_family``.  A relator that might compose past MAX_EXPONENT is
    refused before composing."""
    for fi, f in enumerate(fams):
        name, n = f"family {fi} ({f.structure})", len(f.group.generators)
        if n != d.z_dim:
            raise PresentationError(f"{name} has {n} base labels, but {d.describe()} has {d.z_dim}")
        own = set(f.group.relators)
        pending = [r for r in d.relators if r not in own]
        if not pending:
            continue  # the family's data is composed only to check a relator
        # the relators before the first that might compose past MAX_EXPONENT
        # compose as stacks on every component; the first to fail, in order,
        # is refused before that one
        stop = next((i for i, r in enumerate(pending)
                     if _letters(r) * f.exponent_bound > MAX_EXPONENT), len(pending))
        holding = _holding(pending[:stop], f.perm, f.phase)
        failing = np.flatnonzero(~holding.all(axis=0))
        if len(failing):
            r, ci = pending[failing[0]], int(np.argmin(holding[:, failing[0]]))
            word = format_word(r, free_group(n, [f"z{i}" for i in range(1, n + 1)]))
            raise PresentationError(f"{name} is no family of {d.describe()}: its "
                                    f"relator {word!r} does not hold on component {ci}")
        if stop < len(pending):
            try:
                _check_exponents(_letters(pending[stop]), f.exponent_bound)
            except ValueError as exc:
                raise PresentationError(f"{name} against {d.describe()}: {exc}") from None


def detection_matrix(
    d: GroupClass, fams: Sequence[Family]
) -> DetectionReport:
    """The exact detection matrix: one row per homology basis class, one
    column per parameter monomial of each family component, entries the
    rational coefficients of the contracted character forms.

    Disjoint unions contribute the concatenation of their components'
    columns.  Every family must carry exact character data.

    Each component form is split once by z-part into its table and each
    class is its cycle, so a row reads only its cycle's buckets, and the cost
    is linear in the terms read plus the columns: no zero cell is built.  Entries
    equal ``slant_contract(form, cls).coefficient(x-monomial)``.  A matrix
    of more than MAX_CELLS cells is refused before any table is built.
    """
    _check_base_labels(d, fams)
    classes = rational_homology(d)
    for cls in classes:
        if cls.cycle is None:
            raise DetectionError(
                f"class {cls.label!r} of {d.describe()} has no exact model; "
                "use the numeric pairing path (numeric_detection_report)"
            )
    for fi, f in enumerate(fams):
        if f.chern is None:
            raise DetectionError(
                f"family {fi} ({f.structure}) lacks exact character data; "
                "use the numeric pairing path (numeric_detection_report)"
            )
    # every x-monomial of a component is a column
    columns = sum(2 ** len(res) for f in fams for res in f.space.components)
    if len(classes) * columns > MAX_CELLS:
        raise PresentationError(
            f"the detection matrix of {d.describe()} has {len(classes)} rows and "
            f"{columns} columns, more than the {MAX_CELLS} cells computed at most"
        )
    tables = [[ch.split_z() for ch in f.chern] for f in fams]
    cycles = [dict(cls.cycle) for cls in classes]
    return _pairing(d, fams, cycles, tables, "exact")


def numeric_detection_report(d: GroupClass, f: Family) -> DetectionReport:
    """Numeric pairing for families without exact character data.

    A class pairs through its cycle, whose base labels are the family's
    generators by position: the point z-part pairs to the fiber rank per
    component, and z_i to generator i's winding of det(holonomy) along each
    parameter axis a, the integer sum_j V_i[j][a] of its monomial data
    (``axis_windings``); no float is evaluated.  A class without a
    cycle (a ``FiniteIndexSuper`` label) is read as a word in the family's
    group, the cycle of its exponent sums.  Higher degrees do not pair.
    """
    if d.z_dim:  # a descriptor without base labels pairs by words alone
        _check_base_labels(d, [f])
    classes = rational_homology(d)
    if classes[-1].degree > 1:
        raise DetectionError("the numeric pairing path supports degree <= 1 classes only")
    n = len(f.group.generators)
    cycles = []
    for c in classes:
        if c.cycle is not None:
            cycles.append(dict(c.cycle))
            continue
        try:
            word = parse_word(c.label, f.group)
        except PresentationError:
            raise PresentationError(
                f"class {c.label!r} of {d.describe()} is not a word in the family's "
                f"generators ({', '.join(f.group.generators)})"
            ) from None
        cycles.append({(g + 1,): e for g, e in enumerate(_abelianize(word, n)) if e})
    read = sorted({z for cycle in cycles for z in cycle if z})
    tables = [{(): {(): Fraction(k)}} for k in f.fiber_dims]
    for ci, table in enumerate(tables):
        for z, per_axis in zip(read, axis_windings(f, [z[0] - 1 for z in read], ci)):
            table[z] = {(a + 1,): Fraction(k) for a, k in enumerate(per_axis)}
    return _pairing(d, [f], cycles, [tables], "numeric")


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
    return all({j: index * e for j, e in ra.items()} == rb
               for ra, rb in zip(base.sparse.rows, scaled.sparse.rows))


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
