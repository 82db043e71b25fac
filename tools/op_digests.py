"""Digest the CLI behaviour of every benchmark op of one seed.

    python3 tools/op_digests.py --src SRC --seed 3

Imports flatdetect from the source tree SRC and the benchmark's input
generator (``bench/workloads.py``) from this checkout, writes the inputs of
every workload into a fresh temporary directory, runs every op in process
through ``flatdetect.cli.run`` and prints one line per op:

    workload index exit-code stdout-digest stderr-digest out-digest verdict label

where ``verdict`` is the benchmark oracle's on the op's exit code and
``--out`` bytes: ``ok``, or its reason (``no output`` when the op wrote no
file).  A changed out-digest with ``ok`` on both sides is an op whose bytes
moved while it kept its exit code and its oracle, as a solver that reaches
another point of the representation variety gives.  The ops after the
benchmark's have no oracle and print no verdict.

After the benchmark ops come the ``descriptors`` ops: ``detect run`` on each
of ``DESCRIPTORS``, group descriptors the benchmark never builds (``group``
ones read the ``DESCRIPTOR_GROUPS`` files by absolute path), against one
exact family and one Klein-bottle family (the numeric path), then on
each of ``EXACT_DESCRIPTORS`` against the exact family alone, and then on
``group`` of each of ``DESCRIPTOR_GROUPS`` against the one-dimensional
trivial family of its own group, whose report rows list the group's
homology basis, among them a degree-2 class read from a kernel vector that
the integer elimination divides by its content.  Then come
the ``abelianizations`` ops: ``detect run`` on each of ``ABELIANIZATIONS``,
group files with a relator that does not hold in Z^2, against a family of
Z^2 and then against a Klein-bottle family, and then on each pair of
``RELATOR_PAIRS``, a descriptor whose relators the pairing composes on the
family: a commutator, of exponent sums 0, that does not hold on the
Klein-bottle family, and relators that all hold on a trivial family of the
free group.  Then come the ``families`` ops: ``family build`` on each of
``FAMILIES``, the ``extend`` and ``pullback`` expressions the benchmark
never builds, families of the group with no generators, inductions and a
pullback along ``klein_even`` over a Klein-bottle group whose relator is
rotated, an extension into Z^2 * Z, and two group files with one relator of
``LONG_RELATOR`` letters: an extension into Z^2 * <c, d | long word> that
builds, and an induction over <a, b | [a, b], long word> that the cover
refuses, and then inductions along ``circle(4)`` and ``circle(5)``, whose
relators compose over fibres of 4 and 5 dimensions (``circle(256)`` of the
``covers`` ops composes over 256).  Then come the ``windings`` ops: the
``WINDINGS`` argv, ``forms chern`` on the pullback along ``circle(65)``,
whose determinant turns 65 times along its axis, at 64 samples (refused as
under-sampled, not read as 1) and at 256, and the numeric ``detect run`` of
its tensor with a Klein-bottle family, which samples no loop and reads the
130 turns of its t1 determinant, and then ``forms chern`` on a family of a
group with no generators, on a union with a point component, on sums of
Klein-bottle tensors of fibre dimensions 4 and 8, at 64 samples and at 65536
(``families.MAX_LOOP_SAMPLES``), on ``char_zn(1, 8)`` at 3 samples, the
fewest that wind, and on the tensor of a Klein-bottle family with a sum of
pullbacks whose line exponents near +-1e8 cancel to windings of 0, 2 and 4,
and the numeric ``detect run`` of that tensor.  Then come the ``numeric`` ops: ``detect
run`` on each of ``NUMERIC``, numeric pairings the benchmark never runs (labels read as
words, a sum, an induction of a point family, an extension into a free
product and a union of Klein-bottle families, two Klein-bottle families,
refused, and a trivial family, with character data, alone and in a union
with a Klein-bottle family).  Then come the ``covers`` ops:
``family build`` on each of ``COVERS``, inductions and pullbacks along
explicit and inferred covers with and without their own coset words,
including ones a cover or the family's group rejects, ones with too few or
too many coset words, ones of index past the bound ``families.MAX_INDEX``,
an unknown cover, and coset words with inverse runs and lattice offsets
(two along non-diagonal sublattices of Z^3, two along the Klein cover, the
last refused for a coset hit twice), and then ``BUDGETS``, inputs past the
bounds on homology classes, term products of a wedge, detection-matrix cells,
parameter-space components, the cells of a group file's exponent-sum matrix
and the prefix sums read building its degree-2 cycles, each to be refused
with exit 3 before the work starts, one family of exactly
``families.MAX_COMPONENTS`` components, ``surface(32767)``, the largest
surface built, refused by the family's base labels, and a free product of
two group files whose cells reach the bound on elimination together.
Then come the ``certificates`` ops: ``detect run`` on each of ``CERTIFICATES``,
family sets whose pairing rows are nonzero but linearly dependent.  Then
come the ``transfers`` ops: ``detect run`` on each of ``TRANSFERS``, families
induced along a cover whose substituted forms keep a denominator other than
1 until the index scales them.  Then come the ``solver`` ops: ``rep solve``
on each of ``SOLVER``, presentations the benchmark's ladder never solves
(several relator lengths, generators in no relator, no relators at all, a
solve that stalls and gives up, and ``--max-iter 1``).  Then
come the ``forms`` ops: ``forms eval`` on each payload of ``FORMS``, wedges
and sums of serialized forms whose labels come unsorted and x before z,
hold a repeated label or a term that cancels, are bad (``y1``, ``z0``) or
large (``z1000000``), or reach past ``charforms.MAX_TERM_PRODUCTS``,
one record of ``LONG_RECORD`` shuffled labels, a sum and a wedge of
records over denominators 2, 3 and 6, and a record whose numerator is a JSON
boolean.  Last come the ``usage`` ops: the
argv sequence ``USAGE`` (usage errors, flags given and left to their
defaults, an unknown flag after a full command, which the top-level usage
reports, a bare ``detect``, help at the top, a middle and a leaf command,
and an abbreviated flag) run in order and then in reverse in the same
process, so that state leaking from one parse into the next shows, and that
an argv parsed straight by its leaf parser reads as one parsed through the
whole tree, and then ``DIGIT_LIMIT``,
inputs holding an integer literal past Python's digit limit for int
conversion; ``COLUMNS`` is fixed at 80 for them, so that usage text wraps
alike on every terminal.  No block after the benchmark ops depends on the
seed.

The temporary directory's path is replaced by ``<run>`` before digesting, so
file names in messages agree between runs.  A missing ``--out`` file digests
as ``-``.  Two source trees behave byte-identically on the seed when their
listings are equal, e.g.

    python3 tools/op_digests.py --src ../parent/src --seed 3 > parent.txt
    python3 tools/op_digests.py --src src --seed 3 > change.txt
    diff parent.txt change.txt

Every op runs in one process, so by the first command every submodule the
listing needs has loaded, and the listing cannot show what a fresh process
loads for one command.  That import boundary is checked by
``test_each_command_runs_only_the_modules_it_uses`` in ``tests/test_cli.py``,
one fresh interpreter per command.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

DESCRIPTORS = (
    "surface(1)",
    "surface(2)",
    "free_product(free(2), free_abelian(2))",
    "direct_product(free_product(free(1), free(1)), free_abelian(2))",
    "free_product(surface(2), free(1))",
    "direct_product(free_abelian(1), "
    "finite_index_super(free_abelian(2), 2, klein, homology=[[pt], [b]]))",
    "direct_product(surface(1), free_product(free(0), free_abelian(2)))",
    "free_product(finite_index_super(free(1), 2, k, homology=[[pt], [a]]), free_abelian(1))",
    "free_abelian(1)",
    "free(2)",
    "finite_index_super(free_abelian(2), 2, klein, homology=[[pt], [a b, b a^-1, b b]])",
    "free_product(free(1), free(1))",
    "group(<run>/klein.grp)",
    "group(<run>/s2.grp)",
    "group(<run>/torsion.grp)",
)
# descriptors whose base-label count differs from the exact family's
EXACT_DESCRIPTORS = ("free_abelian(16)", "surface(3)", "surface(4)")
# the group files ``group(...)`` reads, ``<run>`` standing for the run directory:
# surface(2), a group whose degree-2 rows are one of cycle 0 (-3 r1 + 2 r2)
# and two of the cycle z1^z2, the second labeled by its relator r4, and
# <a | a^2, a^3, a^5>, whose dependent rows have non-unit pivots: its degree-2
# rows are -3 r1 + 2 r2 and -5 r1 + 2 r3, and a group whose second degree-2
# class, -9/2*z1^z2 + 10*z2^z3, is the cycle of a kernel vector that the
# elimination divides by its content
DESCRIPTOR_GROUPS = {
    "s2.grp": "gens: a1 b1 a2 b2 ; rels: a1 b1 a1^-1 b1^-1 a2 b2 a2^-1 b2^-1 ;\n",
    "torsion.grp": "gens: a b c d ; rels: a a , a a a , a b a^-1 b^-1 , a b a^-1 b^-1 ;\n",
    "pivots.grp": "gens: a ; rels: a a , a a a , a a a a a ;\n",
    "content.grp": "gens: a b c ; rels: a a b b b , a a a b b , a b a^-1 b^-1 , c c a^-1 b , "
    "a b c a b c ;\n",
}
DESCRIPTOR_FAMILIES = {
    "exact": "char_zn(4, 2)",
    "klein": "induce(char_zn(2, 8), cosets=[e, b], group=klein.grp)",
}
FAMILIES = (
    "extend(char_zn(1, 8, gens=[b]), group=f2.grp)",
    "pullback(char_zn(1, 8), cover=circle(3))",
    "pullback(char_zn(2, 4), cover=sublattice([[1, 1], [0, 2]]), cosets=[e, b], "
    "group=z2.grp)",
    "pullback(induce(char_zn(2, 8), cosets=[e, b], group=klein.grp), "
    "cover=klein_even, group=klein.grp)",
    "pullback(trivial(group=klein.grp, dim=2), cover=klein_even, group=klein.grp)",
    "trivial(group=e.grp)",
    "extend(trivial(group=e.grp), group=e.grp)",
    "extend(char_zn(2, 8, gens=[a, b]), group=klein.grp)",
    "extend(char_zn(2, 8, gens=[a, b]), group=f2.grp)",
    "induce(char_zn(2, 8), cosets=[e, b], group=klein_rotated.grp)",
    "induce(char_zn(2, 8), cover=klein_even, cosets=[e, b], group=klein_rotated.grp)",
    "pullback(trivial(group=klein_rotated.grp, dim=2), cover=klein_even, "
    "group=klein_rotated.grp)",
    "extend(char_zn(2, 8, gens=[a, b]), group=z2_free.grp)",
    "extend(char_zn(2, 8, gens=[a, b]), group=long_free.grp)",
    "induce(char_zn(2, 8), cover=sublattice([[2, 0], [0, 1]]), cosets=[e, a], "
    "group=long_z2.grp)",
    "induce(char_zn(1, 8), cover=circle(4))",
    "induce(char_zn(1, 8), cover=circle(5))",
)
COVERS = (
    "induce(char_zn(1, 8), cover=circle(3), cosets=[e, t1])",
    "pullback(char_zn(1, 8), cover=circle(3), cosets=[e, t1])",
    "induce(char_zn(1, 8), cover=circle(2), cosets=[e, a], group=z1.grp)",
    "induce(char_zn(2, 8), cover=klein_even, cosets=[e, b^-1], group=klein.grp)",
    "induce(char_zn(2, 8), cover=klein_even, cosets=[e, a], group=klein.grp)",
    "induce(char_zn(2, 8), cover=sublattice([[1, 1], [0, 2]]), cosets=[e, b], group=z2.grp)",
    "induce(char_zn(2, 8), cover=sublattice([[0, 1], [2, 0]]), cosets=[e, b], group=z2.grp)",
    "induce(char_zn(2, 8), cover=sublattice([[2, 0], [0, 1]]), cosets=[e], group=z2.grp)",
    "induce(char_zn(2, 8), cover=sublattice([[2, 0], [0, 1]]), cosets=[e, a], group=klein.grp)",
    "induce(char_zn(2, 8), cover=klein_even, cosets=[e, b], group=z2.grp)",
    "pullback(char_zn(2, 8), cover=klein_even)",
    "pullback(extend(char_zn(1, 8, gens=[a]), group=f2.grp), "
    "cover=sublattice([[1, 0], [0, 2]]), cosets=[e, b], group=z2.grp)",
    "induce(induce(char_zn(2, 8), cosets=[e, b], group=klein.grp), "
    "cover=sublattice([[2, 0], [0, 1]]), cosets=[e, a], group=z2.grp)",
    "pullback(char_zn(1, 8), cover=circle(100000))",
    "induce(char_zn(1, 3), cover=circle(512))",
    "induce(char_zn(1, 3), cover=circle(256))",
    "induce(char_zn(2, 8), cover=klein_even, cosets=[e], group=klein.grp)",
    "induce(char_zn(2, 8), cosets=[e, b, a], group=klein.grp)",
    "pullback(trivial(group=klein.grp, dim=2), cover=klein_even, cosets=[e, b, a], "
    "group=klein.grp)",
    "pullback(trivial(group=klein.grp, dim=2), cosets=[e], group=klein.grp)",
    "pullback(char_zn(2, 8), cover=bogus)",
    "induce(char_zn(2, 4), cover=sublattice([[2, 0], [0, 1]]), cosets=[e, a], group=f2.grp)",
    # coset words with inverse runs and lattice offsets, two along non-diagonal bases
    "induce(char_zn(3, 4), cover=sublattice([[2, 1, 0], [0, 2, 0], [0, 0, 1]]), "
    "cosets=[c^-1 c, a, b, a b^-1 b b], group=z3.grp)",
    "induce(char_zn(3, 4), cover=sublattice([[1, 0, 0], [1, 3, 0], [0, 0, 1]]), "
    "cosets=[c a^-1 a c^-1, b^-1, b b b b a a a], group=z3.grp)",
    "induce(char_zn(2, 8), cover=klein_even, cosets=[a a b, a^-1], group=klein.grp)",
    "induce(char_zn(2, 8), cover=klein_even, cosets=[b^-1 a b b, b a a a], group=klein.grp)",
)
# argv of each ``windings`` op, file names relative to the run directory
WINDINGS = (
    ("forms", "chern", "--family", "alias.fam", "--resolution", "64"),
    ("forms", "chern", "--family", "alias.fam", "--resolution", "256"),
    ("detect", "run", "--group", "free(3)", "--families", "alias_klein.fam"),
    ("forms", "chern", "--family", "no_gens.fam", "--resolution", "64"),
    ("forms", "chern", "--family", "point.fam", "--resolution", "64"),
    ("forms", "chern", "--family", "fibre4.fam", "--resolution", "64"),
    ("forms", "chern", "--family", "fibre8.fam", "--resolution", "64"),
    ("forms", "chern", "--family", "fibre4.fam", "--resolution", "65536"),
    ("forms", "chern", "--family", "fibre8.fam", "--resolution", "65536"),
    ("forms", "chern", "--family", "char.fam", "--resolution", "3"),
    ("forms", "chern", "--family", "cancel.fam", "--resolution", "64"),
    ("detect", "run", "--group", "finite_index_super(free_abelian(4), 2, k, homology=[[pt], [b]])",
     "--families", "cancel.fam"),
)
_ALIAS = "pullback(char_zn(1, 8), cover=circle(65), group=z1.grp)"
_TK = f"tensor(char_zn(1, 4), {DESCRIPTOR_FAMILIES['klein']})"
_T4 = f"tensor(sum(char_zn(1, 4), char_zn(1, 4)), {DESCRIPTOR_FAMILIES['klein']})"
# line exponents near +-1e8 whose determinant windings cancel to 0, 2 and 4
_NEAR_1E8 = ("pullback(char_zn(2, 8), cover=sublattice([[{}, {}], [1, 1]]), cosets=[e], "
             "group=z2.grp)")
_CANCEL = (f"sum({_NEAR_1E8.format(100000001, 100000000)}, "
           f"{_NEAR_1E8.format(-99999999, -100000000)})")
WINDING_FILES = {
    "alias.fam": _ALIAS + "\n",
    "alias_klein.fam": f"tensor({_ALIAS}, {DESCRIPTOR_FAMILIES['klein']})\n",
    "no_gens.fam": "trivial(group=e.grp)\n",
    "point.fam": "union(char_zn(1, 8, gens=[a]), trivial(group=z1.grp))\n",
    "fibre4.fam": f"sum({_TK}, {_TK})\n",
    "fibre8.fam": f"sum({_T4}, {_T4})\n",
    "char.fam": "char_zn(1, 8)\n",
    "cancel.fam": f"tensor({_CANCEL}, {DESCRIPTOR_FAMILIES['klein']})\n",
}
# (group descriptor, family expressions) of each ``numeric`` op, a numeric
# ``detect run`` the benchmark never runs: degree-1 labels read as words (``b
# b`` pairs to twice b's windings, the commutator to zero), a sum of two
# Klein-bottle families, a Klein-bottle induction of a family over a point,
# an extension of a Klein-bottle family into <a, b | a b a b^-1> * <c>, a
# union of two Klein-bottle families (one family of two components), two
# Klein-bottle families, which the numeric path refuses, and a trivial family
# of the Klein group, which has character data but pairs numerically, since
# the label b has no cycle, alone and in a union with a Klein-bottle family
_KLEIN = DESCRIPTOR_FAMILIES["klein"]
_KLEIN_B = "finite_index_super(free_abelian(2), 2, klein, homology=[[pt], [{}]])"
NUMERIC = (
    (_KLEIN_B.format("b b"), (_KLEIN,)),
    (_KLEIN_B.format("a b a^-1 b^-1"), (_KLEIN,)),
    (_KLEIN_B.format("b"), (f"sum({_KLEIN}, {_KLEIN})",)),
    (_KLEIN_B.format("b"), ("induce(trivial(group=z2.grp), cosets=[e, b], group=klein.grp)",)),
    (_KLEIN_B.format("b"), (f"extend({_KLEIN}, group=klein_free.grp)",)),
    ("free(3)", (f"extend({_KLEIN}, group=klein_free.grp)",)),
    (_KLEIN_B.format("b"), (f"union({_KLEIN}, {_KLEIN})",)),
    (_KLEIN_B.format("b"), (_KLEIN, _KLEIN)),
    (_KLEIN_B.format("b"), ("trivial(group=klein.grp)",)),
    (_KLEIN_B.format("b"), (f"union(trivial(group=klein.grp), {_KLEIN})",)),
)
NUMERIC_FILES = {"klein_free.grp": "gens: a b c ; rels: a b a b^-1 ;\n"}
# argv of each budget op, the last ``covers`` ops, file names relative to the
# run directory: a descriptor of more homology classes than are built, a
# character form of more term products than are computed, and an exact
# detection matrix of more cells than are computed, and parameter spaces of
# 2^12 components (the bound, built) and 2^13 components (refused); then the
# largest surface built, 65536 classes, refused by the family's base labels,
# a group file whose exponent-sum matrix is past the bound on elimination, and
# one whose single relator [u, v] sums to zero but reads 3 n^2 - 2 n = 131880
# prefix sums building its cycle, past ``detect.MAX_CYCLE_TERMS``; last a free
# product of two group files each at the bound on elimination, whose second
# leaf passes the bound the expression's leaves share
BUDGETS = (
    ("detect", "run", "--group", "free_abelian(17)", "--families", "z2.fam"),
    ("family", "build", "--expr", "zn17.fam"),
    ("detect", "run", "--group", "free_abelian(12)", "--families", "zn12.fam"),
    ("family", "build", "--expr", "comp12.fam"),
    ("family", "build", "--expr", "comp13.fam"),
    ("detect", "run", "--group", "surface(32767)", "--families", "z2.fam"),
    ("detect", "run", "--group", "group(<run>/dense.grp)", "--families", "z2.fam"),
    ("detect", "run", "--group", "group(<run>/commutator.grp)", "--families", "z2.fam"),
    ("detect", "run", "--group", "free_product(group(<run>/bound.grp), group(<run>/bound.grp))",
     "--families", "z2.fam"),
)


def _components(levels: int) -> str:
    """A family of 2^levels components over the trivial group: a point pair
    tensored with itself ``levels`` times."""
    expr = "trivial(group=e.grp)"
    for _ in range(levels):
        expr = f"tensor(union(trivial(group=e.grp), trivial(group=e.grp)), {expr})"
    return expr + "\n"


def _reversed_commutator(gens: int) -> str:
    """A group file of one relator [u, v], u = g0 ... g(gens-1) and v its reverse."""
    names = [f"g{i}" for i in range(gens)]
    words = [names, names[::-1], [f"{g}^-1" for g in names[::-1]], [f"{g}^-1" for g in names]]
    return f"gens: {' '.join(names)} ; rels: {' '.join(sum(words, []))} ;\n"


def _dense_group(gens: int, rels: int, length: int) -> str:
    """A group file of random relators whose exponent-sum matrix is dense."""
    rng = random.Random(1)
    names = [f"g{i}" for i in range(gens)]
    words = (" ".join(rng.choice(names) for _ in range(length)) for _ in range(rels))
    return f"gens: {' '.join(names)} ; rels: {' , '.join(words)} ;\n"


BUDGET_FILES = {
    "z2.fam": "char_zn(2, 8)\n",
    "dense.grp": _dense_group(64, 65, 128),
    "bound.grp": _dense_group(64, 64, 128),
    "commutator.grp": _reversed_commutator(210),
    "zn17.fam": "char_zn(17, 2)\n",
    "zn12.fam": "char_zn(12, 2)\n",
    "comp12.fam": _components(12),
    "comp13.fam": _components(13),
}
LONG_RELATOR = 8000


def _reduced_word(names: str, length: int, rng: random.Random) -> str:
    """A random freely reduced word of ``length`` letters in ``names``."""
    letters: list[str] = []
    while len(letters) < length:
        letter = rng.choice(names) + rng.choice(("", "^-1"))
        if not letters or letters[-1][0] != letter[0] or letters[-1] == letter:
            letters.append(letter)
    return " ".join(letters)


_RNG = random.Random(0)
Z3_GROUP = "gens: a b c ; rels: a b a^-1 b^-1 , a c a^-1 c^-1 , b c b^-1 c^-1 ;\n"
GROUP_FILES = {
    "klein.grp": "gens: a b ; rels: a b a b^-1 ;\n",
    "f2.grp": "gens: a b ; rels: ;\n",
    "z2.grp": "gens: a b ; rels: a b a^-1 b^-1 ;\n",
    "z3.grp": Z3_GROUP,
    "e.grp": "gens: ; rels: ;\n",
    "z1.grp": "gens: a ; rels: ;\n",
    # the Klein-bottle group with its relator rotated, and Z^2 * Z
    "klein_rotated.grp": "gens: a b ; rels: b a b^-1 a ;\n",
    "z2_free.grp": "gens: a b c ; rels: a b a^-1 b^-1 ;\n",
    # Z^2 * <c, d | long word>, and Z^2 with a long word as a second relator
    "long_free.grp": "gens: a b c d ; rels: a b a^-1 b^-1 , "
                     f"{_reduced_word('cd', LONG_RELATOR, _RNG)} ;\n",
    "long_z2.grp": "gens: a b ; rels: a b a^-1 b^-1 , "
                   f"{_reduced_word('ab', LONG_RELATOR, _RNG)} ;\n",
}
# group files against a family of Z^2, which is no family of either: Z/3 x Z,
# whose z1^z2 is 0 in H_2, and the Klein-bottle group; then against a family
# of the Klein-bottle group, on which a a a of Z/3 x Z does not hold
ABELIANIZATIONS = {
    "t3.grp": "gens: a b ; rels: a a a , a b a^-1 b^-1 ;\n",
    "klein.grp": GROUP_FILES["klein.grp"],
}
ABELIANIZATION_FAMILIES = {
    "z2.fam": "char_zn(2, 4)",
    "klein.fam": DESCRIPTOR_FAMILIES["klein"],
}
# (group descriptor, {run} standing for its files' directory; family file):
# [a, b] = a^2 in the Klein-bottle group, so Z^2's commutator does not hold
# on its family, while every relator of Z/3 x Z holds on a trivial family of
# the free group, which then pairs
RELATOR_PAIRS = (
    ("group({run}/z2.grp)", "klein.fam"),
    ("free_abelian(2)", "klein.fam"),
    ("group({run}/t3.grp)", "f2_trivial.fam"),
)
# (group descriptor, family expressions) of each ``certificates`` op: families
# whose rows are all nonzero but linearly dependent (z1 and z2 pair alike)
CERTIFICATES = (
    ("free_abelian(2)", tuple(
        f"sum(char_zn(2, 4), pullback(char_zn(2, 4), cover=sublattice({m}), "
        "cosets=[e], group=z2.grp))"
        for m in ("[[0, 1], [1, 0]]", "[[-1, 0], [0, -1]]")
    )),
)

# (group descriptor, family expression) of each ``transfers`` op: the
# substituted images of an induction along the index-3 sublattice spanned by
# a, a b^3 and c are z1 - 1/3 z2, 1/3 z2 and z3
TRANSFERS = (
    ("free_abelian(3)", "induce(char_zn(3, 4), cover=sublattice([[1, 1, 0], [0, 3, 0], "
     "[0, 0, 1]]), cosets=[e, b, b b], group=z3.grp)"),
)

# (group file name, text) of the ``solver`` ops' presentations: relators of
# three spelled lengths (several length groups), generators in no relator
# with one and with two length groups, a relator-less free group, the Klein
# four-group, and a relator in which each generator has ten letters
SOLVER_GROUPS = {
    "mixed.grp": "gens: a b c ; rels: a a b^-1 , a b a^-1 b^-1 , c c c a b , b c b^-1 c^-1 ;\n",
    "unused.grp": "gens: a b c ; rels: a b a^-1 b^-1 ;\n",
    "unused_mixed.grp": "gens: a b c d ; rels: a b a^-1 b^-1 , d d d ;\n",
    "free.grp": "gens: a b ; rels: ;\n",
    "v4.grp": "gens: a b ; rels: a a , b b , a b a b ;\n",
    "long.grp": "gens: a b ; rels: " + "a b " * 5 + "a^-1 b^-1 " * 5 + ";\n",
}
# (group file, dimension, seed, extra flags) of each ``solver`` op: the
# Klein four-group's seed-0 solve in U(3) stalls at defect 6 and gives up
# after 435 iterations (exit 4), and ``--max-iter 1`` stops unconverged
SOLVER = (
    ("mixed.grp", 2, 0, ()),
    ("mixed.grp", 3, 1, ()),
    ("mixed.grp", 4, 2, ()),
    ("mixed.grp", 1, 3, ()),
    ("unused.grp", 3, 0, ()),
    ("unused_mixed.grp", 2, 0, ()),
    ("free.grp", 3, 0, ()),
    ("v4.grp", 3, 0, ()),
    ("v4.grp", 1, 0, ()),
    ("long.grp", 3, 4, ()),
    ("mixed.grp", 3, 0, ("--max-iter", "1")),
)

LONG_RECORD = 8000


def _long_record() -> list:
    """One record of LONG_RECORD labels, z1... and x1... shuffled."""
    labels = [f"{k}{i}" for k in "zx" for i in range(1, LONG_RECORD // 2 + 1)]
    random.Random(2).shuffle(labels)
    return [labels, 3, 2]


# (label, payload) of each ``forms`` op
_THIRDS = [[["z1", "x1"], 1, 2], [["x2"], 1, 3], [["z1"], -2, 3]]
_MIXED = [[["x2", "z3", "x1"], 1, 2], [["z1"], -3, 1], [["x1", "z2"], 2, 3]]
FORMS = (
    ("wedge of unsorted labels, x before z",
     {"op": "wedge",
      "operands": [_MIXED, [[["z2", "x3"], 5, 1], [[], 1, 1], [["x4", "z4"], 1, 1]]]}),
    ("sum of unsorted labels, x before z",
     {"op": "sum", "operands": [_MIXED, [[["z3", "x1", "x2"], 1, 2], [["z1"], 3, 1]]]}),
    ("wedge with a repeated label and a zero product",
     {"op": "wedge",
      "operands": [[[["z1", "x1"], 1, 1], [["x2", "x2"], 1, 1], [["x2"], 1, 1]],
                   [[["z1"], 1, 1]]]}),
    ("sum whose terms cancel",
     {"op": "sum", "operands": [[[["z1", "x1"], 1, 1], [["x2"], 1, 1]], [[["x1", "z1"], 1, 1]]]}),
    ("bad label y1", {"op": "sum", "operands": [[[["z1", "y1"], 1, 1]]]}),
    ("bad label z0", {"op": "wedge", "operands": [[[["x1"], 1, 1]], [[["z0"], 1, 1]]]}),
    ("large index z1000000",
     {"op": "wedge", "operands": [[[["z1000000", "x1"], 1, 1]], [[["z999999"], 2, 1]]]}),
    ("wedge of 257 by 257 terms, past the term budget",
     {"op": "wedge", "operands": [[[[f"z{i}"], 1, 1] for i in range(1, 258)]] * 2}),
    (f"one record of {LONG_RECORD} shuffled labels",
     {"op": "wedge", "operands": [[_long_record()], [[["z4001"], 1, 1], [["x1"], 1, 1]]]}),
    ("sum of records over denominators 2, 3 and 6",
     {"op": "sum", "operands": [_THIRDS, [[["x1", "z1"], 1, 6], [["x2"], -1, 6], [[], 5, 6]]]}),
    ("wedge of records over denominators 2, 3 and 6",
     {"op": "wedge", "operands": [_THIRDS, [[["z2"], 3, 2], [["x3"], 1, 6], [[], -1, 3]]]}),
    ("record with a boolean numerator", {"op": "sum", "operands": [[[["z1"], True, 1]]]}),
)

# argv of each ``usage`` op, file names relative to the run directory
USAGE = (
    ("rep", "solve", "--presentation", "z2.grp", "--dim", "0"),
    ("rep", "solve", "--presentation", "z2.grp", "--dim", "2", "--tol", "1e-3",
     "--seed", "7", "--max-iter", "1", "--out", "solve.json"),
    ("rep", "solve", "--presentation", "z2.grp", "--dim", "2"),
    ("report", "--group", "free_abelian(2)", "--families", "z2.fam",
     "--out", "report.json"),
    ("report", "--bm", "2", "2"),
    ("report", "--families", "z2.fam"),
    ("forms", "chern", "--family", "z2.fam", "--resolution", "65537"),
    ("detect", "run", "--group", "free_abelian(2)", "--families", "z2.fam", "--bogus"),
    ("detect",),
    ("detect", "-h"),
    ("rep", "solve", "-h"),
    ("-h",),
    ("rep", "solve", "--pres", "z2.grp", "--dim", "2"),
)
LONG_INT = "1" + "0" * 5000
DIGIT_LIMIT = (
    ("family", "build", "--expr", "long.fam"),
    ("detect", "run", "--group", f"free_abelian({LONG_INT})", "--families", "z2.fam"),
    ("forms", "eval", "--in", "long.json"),
)
USAGE_FILES = {
    "z2.grp": GROUP_FILES["z2.grp"],
    "z2.fam": "char_zn(2, 8)\n",
    "long.fam": f"char_zn(2, {LONG_INT})\n",
    "long.json": f'[[["z1"], {LONG_INT}, 1]]\n',
}


def _descriptor_ops(run_dir: Path):
    """(argv, label) of every ``descriptors`` op; writes its input files."""
    (run_dir / "klein.grp").write_text(GROUP_FILES["klein.grp"])
    for name, text in DESCRIPTOR_GROUPS.items():
        (run_dir / name).write_text(text)
        (run_dir / f"own_{name}.fam").write_text(f"trivial(group={name})\n")
    paths = {}
    for name, expr in DESCRIPTOR_FAMILIES.items():
        paths[name] = run_dir / f"{name}.fam"
        paths[name].write_text(expr + "\n")
    for group in DESCRIPTORS:
        for name, path in paths.items():
            argv = ["detect", "run", "--group", group.replace("<run>", str(run_dir)),
                    "--families", str(path)]
            yield argv, f"detect run {group} vs {name}"
    for group in EXACT_DESCRIPTORS:
        argv = ["detect", "run", "--group", group, "--families", str(paths["exact"])]
        yield argv, f"detect run {group} vs exact"
    for name in DESCRIPTOR_GROUPS:
        argv = ["detect", "run", "--group", f"group({run_dir / name})",
                "--families", str(run_dir / f"own_{name}.fam")]
        yield argv, f"detect run group(<run>/{name}) vs trivial(group={name})"


def _abelianization_ops(run_dir: Path):
    """(argv, label) of every ``abelianizations`` op; writes its input files."""
    for name, text in ABELIANIZATIONS.items():
        (run_dir / name).write_text(text)
    for fam, expr in ABELIANIZATION_FAMILIES.items():
        (run_dir / fam).write_text(expr + "\n")
        for name in ABELIANIZATIONS:
            argv = ["detect", "run", "--group", f"group({run_dir / name})",
                    "--families", str(run_dir / fam)]
            yield argv, f"detect run group(<run>/{name}) vs {expr}"
    for name in ("z2.grp", "f2.grp"):
        (run_dir / name).write_text(GROUP_FILES[name])
    (run_dir / "f2_trivial.fam").write_text("trivial(group=f2.grp)\n")
    for group, fam in RELATOR_PAIRS:
        expr = (run_dir / fam).read_text().strip()
        argv = ["detect", "run", "--group", group.format(run=run_dir),
                "--families", str(run_dir / fam)]
        yield argv, f"detect run {group.format(run='<run>')} vs {expr}"


def _family_ops(run_dir: Path, exprs=FAMILIES):
    """(argv, out path, label) of ``family build`` on each of ``exprs``, the
    ``families`` ops by default; writes its input files."""
    for name, text in GROUP_FILES.items():
        (run_dir / name).write_text(text)
    for i, expr in enumerate(exprs):
        fam, out = run_dir / f"f{i}.fam", run_dir / f"f{i}.json"
        fam.write_text(expr + "\n")
        yield ["family", "build", "--expr", str(fam), "--out", str(out)], out, expr


def _winding_ops(run_dir: Path):
    """(argv, label) of every ``windings`` op; writes its input files."""
    for name, text in {**GROUP_FILES, **WINDING_FILES}.items():
        (run_dir / name).write_text(text)
    for argv in WINDINGS:
        yield [str(run_dir / a) if a.endswith(".fam") else a for a in argv], " ".join(argv)


def _numeric_ops(run_dir: Path):
    """(argv, label) of every ``numeric`` op; writes its input files."""
    for name, text in {**GROUP_FILES, **NUMERIC_FILES}.items():
        (run_dir / name).write_text(text)
    for i, (group, exprs) in enumerate(NUMERIC):
        paths = []
        for j, expr in enumerate(exprs):
            paths.append(run_dir / f"n{i}f{j}.fam")
            paths[-1].write_text(expr + "\n")
        argv = ["detect", "run", "--group", group, "--families", *map(str, paths)]
        yield argv, f"detect run {group} vs {'; '.join(exprs)}"


def _cover_ops(run_dir: Path):
    """(argv, out path, label) of every ``covers`` op; writes its input files."""
    yield from _family_ops(run_dir, COVERS)
    for name, text in BUDGET_FILES.items():
        (run_dir / name).write_text(text)
    for argv in BUDGETS:
        yield ([str(run_dir / a) if a.endswith(".fam") else a.replace("<run>", str(run_dir))
                for a in argv], None, " ".join(argv))


def _certificate_ops(run_dir: Path):
    """(argv, label) of every ``certificates`` op; writes its input files."""
    (run_dir / "z2.grp").write_text(GROUP_FILES["z2.grp"])
    for i, (group, exprs) in enumerate(CERTIFICATES):
        paths = []
        for j, expr in enumerate(exprs):
            paths.append(run_dir / f"c{i}f{j}.fam")
            paths[-1].write_text(expr + "\n")
        argv = ["detect", "run", "--group", group, "--families", *map(str, paths)]
        yield argv, f"detect run {group} vs {'; '.join(exprs)}"


def _transfer_ops(run_dir: Path):
    """(argv, label) of every ``transfers`` op; writes its input files."""
    (run_dir / "z3.grp").write_text(Z3_GROUP)
    for i, (group, expr) in enumerate(TRANSFERS):
        fam = run_dir / f"t{i}.fam"
        fam.write_text(expr + "\n")
        argv = ["detect", "run", "--group", group, "--families", str(fam)]
        yield argv, f"detect run {group} vs {expr}"


def _solver_ops(run_dir: Path):
    """(argv, out path, label) of every ``solver`` op; writes its input files."""
    for name, text in SOLVER_GROUPS.items():
        (run_dir / name).write_text(text)
    for i, (name, dim, seed, extra) in enumerate(SOLVER):
        out = run_dir / f"s{i}.json"
        argv = ["rep", "solve", "--presentation", str(run_dir / name), "--dim", str(dim),
                "--seed", str(seed), *extra, "--out", str(out)]
        yield argv, out, " ".join(["rep solve", name, f"U({dim})", f"seed {seed}", *extra])


def _form_ops(run_dir: Path):
    """(argv, out path, label) of every ``forms`` op; writes its input files."""
    for i, (label, payload) in enumerate(FORMS):
        path, out = run_dir / f"form{i}.json", run_dir / f"form{i}.out.json"
        path.write_text(json.dumps(payload) + "\n")
        yield ["forms", "eval", "--in", str(path), "--out", str(out)], out, label


def _usage_ops(run_dir: Path):
    """(argv, out path, label) of every ``usage`` op; writes its input files
    and removes an op's ``--out`` file just before yielding the op."""
    for name, text in USAGE_FILES.items():
        (run_dir / name).write_text(text)
    for argv in (*USAGE, *reversed(USAGE), *DIGIT_LIMIT):
        out = run_dir / argv[-1] if "--out" in argv else None
        if out:
            out.unlink(missing_ok=True)
        label = " ".join(argv).replace(LONG_INT, "1<5000 zeros>")
        yield [str(run_dir / a) if a.endswith((".grp", ".fam", ".json")) else a
               for a in argv], out, label


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", required=True, type=Path, help="source tree holding flatdetect")
    ap.add_argument("--seed", required=True, type=int)
    args = ap.parse_args(argv)

    src = args.src.resolve()
    sys.path.insert(0, str(src))
    import flatdetect.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"flatdetect imported from {cli.__file__}, not {src}")
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    tmp = Path(tempfile.mkdtemp(prefix="op-digests-")).resolve()
    marker = str(tmp).encode()

    def digest(data: bytes) -> str:
        return hashlib.sha256(data.replace(marker, b"<run>")).hexdigest()[:16]

    def run_op(workload, i, argv, out_path, label, check=None):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(list(argv))
        data = out_path.read_bytes() if out_path and out_path.exists() else None
        verdict = []
        if check:
            verdict = ["no output" if data is None else check(code, data) or "ok"]
        print(
            workload, i, code, digest(out.getvalue().encode()),
            digest(err.getvalue().encode()), "-" if data is None else digest(data),
            *verdict, label,
        )

    try:
        for workload in workloads.WORKLOADS:
            run_dir = tmp / f"{workload}-{args.seed}"
            run_dir.mkdir()
            for i, op in enumerate(workloads.generate(workload, args.seed, run_dir)):
                run_op(workload, i, op.argv, op.out, op.label, op.check)
        run_dir = tmp / "descriptors"
        run_dir.mkdir()
        for i, (argv, label) in enumerate(_descriptor_ops(run_dir)):
            run_op("descriptors", i, argv, None, label)
        run_dir = tmp / "abelianizations"
        run_dir.mkdir()
        for i, (argv, label) in enumerate(_abelianization_ops(run_dir)):
            run_op("abelianizations", i, argv, None, label)
        run_dir = tmp / "families"
        run_dir.mkdir()
        for i, (argv, out, label) in enumerate(_family_ops(run_dir)):
            run_op("families", i, argv, out, label)
        run_dir = tmp / "windings"
        run_dir.mkdir()
        for i, (argv, label) in enumerate(_winding_ops(run_dir)):
            run_op("windings", i, argv, None, label)
        run_dir = tmp / "numeric"
        run_dir.mkdir()
        for i, (argv, label) in enumerate(_numeric_ops(run_dir)):
            run_op("numeric", i, argv, None, label)
        run_dir = tmp / "covers"
        run_dir.mkdir()
        for i, (argv, out, label) in enumerate(_cover_ops(run_dir)):
            run_op("covers", i, argv, out, label)
        run_dir = tmp / "certificates"
        run_dir.mkdir()
        for i, (argv, label) in enumerate(_certificate_ops(run_dir)):
            run_op("certificates", i, argv, None, label)
        run_dir = tmp / "transfers"
        run_dir.mkdir()
        for i, (argv, label) in enumerate(_transfer_ops(run_dir)):
            run_op("transfers", i, argv, None, label)
        run_dir = tmp / "solver"
        run_dir.mkdir()
        for i, (argv, out, label) in enumerate(_solver_ops(run_dir)):
            run_op("solver", i, argv, out, label)
        run_dir = tmp / "forms"
        run_dir.mkdir()
        for i, (argv, out, label) in enumerate(_form_ops(run_dir)):
            run_op("forms", i, argv, out, label)
        run_dir = tmp / "usage"
        run_dir.mkdir()
        os.environ["COLUMNS"] = "80"  # argparse wraps usage text at the terminal width
        for i, (argv, out, label) in enumerate(_usage_ops(run_dir)):
            run_op("usage", i, argv, out, label)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
