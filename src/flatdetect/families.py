"""Parameterized families of unitary representations and their combinators.

A Family bundles a structured parameter space, the monomial data of its
representations and (when the build tree supports it) the exact character
form of the associated bundle.  Character data is propagated structurally by
the combinators, never inferred numerically; the numeric pipeline validates
it independently.

A parameter space is one ParameterSpace value: its ``components``, one tuple
of per-axis grid resolutions per connected component, () for a point, and a
label; tori, point sets, products and disjoint unions are functions building
one.  A point of a component is a row of coordinates in [0, 1), one per axis;
a product space concatenates the left factor's coordinates with the right
factor's, and a disjoint union tells its sides apart by component index
alone.

Every family the combinators build is monomial (Mackey; Serre, Linear
Representations of Finite Groups, section 7): generator g sends basis line j
to line sigma_g(j) with the phase e^{2 pi i V_g[j] . x}, and neither the
permutation sigma_g nor the integer matrix V_g depends on x.  A Family holds
those integer arrays per component, and each combinator composes its
arguments' arrays, on first use: words compose by (sigma_a, V_a)(sigma_b, V_b)
= (sigma_a o sigma_b, V_b + V_a o sigma_b).  So verification is exact and holds
for every x: each relator must compose to (id, 0), and every matrix is
unitary by construction.  The determinant windings are integers of that
data too: det(rho(g)) turns sum_j V_g[j][a] times along axis a.
``axis_windings`` reads them, for ``forms chern`` (``numeric_c1_windings``)
and the numeric pairing alike, with no float evaluated;
``evaluate_batch`` scatters the phase factors e^{2 pi i V . x} into a dense
stack ``(points, generators, k, k)`` at any real coordinates.

A cover is one Cover value (coset words, an integer lattice and holonomy
signs, all +1 but for the Klein group's b) with one integer ``rewrite``.
A word acts on Z^n by its walk, a translation and axis signs, and walks
compose in integers: an induction walks each coset word once and reads its
whole coset table, keys and subgroup words, from those walks by the
cover's adjugate, with no word built per table entry;
``SublatticeCover``, ``circle_cover`` and ``KleinBottleCover`` build one
through one constructor, whose fraction-free (Bareiss) elimination gives the
lattice's determinant and adjugate, and which checks the coset count of every
cover and that the ambient group has the relators of the cover's model group
(Z^n, or the Klein-bottle group).  The transfer alone reads the basis
inverse, as adjugate / det.

Restriction along a cover and extension across a free product G = E * F are
one operation, the pullback along a homomorphism given by generator images:
a cover pulls back along the inclusion of its subgroup, and ``extend`` along
the retraction G -> E that kills F's generators.  Every group map, a
cover's too, is checked by one relator rule, ``_check_relators``: an image
that is literally one of the target's relators passes by one set lookup,
and any other is keyed by its least rotation, in time linear in its length;
nothing is cached from one check to the next.  One block composer,
``_word_blocks``, serves pullbacks and inductions alike.  Every pullback
substitutes the abelianized images into the exact form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Iterable, Sequence

import numpy as np

from .charforms import MultiForm, UnderSampledLoopError
from .presentation import (
    GroupPresentation,
    Word,
    direct_product,
    evaluate_word,
    format_word,
    free_abelian,
    free_reduce,
    klein_bottle,
)
from .repvar import RepPoint

# the most samples on one parameter-axis loop (forms chern --resolution); a
# loop of n samples reads a winding c when 2 |c| < n.  Windings are read from
# the monomial data, so no loop is built and n costs no time or memory
MAX_LOOP_SAMPLES = 2**16
# the largest index of a circle cover, and of a cover induced along; an
# induction's dense stack holds a (k * index)^2 matrix per point and generator
MAX_INDEX = 2**8
# the most connected components of a parameter space; a product multiplies the
# counts, so nested products pass any bound in a few hundred bytes (a family
# build of 2^12 components takes 0.25 s on a 2-core Xeon VM)
MAX_COMPONENTS = 2**12
# the largest phase exponent a word may compose to: a word of L letters over
# exponents of at most m composes to at most L m, and below 2^63 every partial
# sum is exact in int64
MAX_EXPONENT = 2**62
# integers of monomial data a relator check composes at a time
HOLDING_CELLS = 2**20


# ---------------------------------------------------------------------------
# Parameter spaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParameterSpace:
    """A parameter space: per connected component a tuple of per-axis grid
    resolutions, () for a point, and the ``label`` ``describe()`` prints."""

    components: tuple[tuple[int, ...], ...]
    label: str

    @property
    def n_components(self) -> int:
        return len(self.components)

    def component_x_dim(self, ci: int) -> int:
        return len(self.components[ci])

    def axis_loop(self, ci: int, axis: int, samples: int | None = None) -> np.ndarray:
        """The closed loop along one axis of component ``ci`` as rows of
        coordinates: every other coordinate stays at 0, and the axis runs
        through j / samples for j = 0..samples (default: its grid)."""
        res = self.components[ci]
        if not 0 <= axis < len(res):
            raise ValueError(f"axis {axis} out of range")
        if samples is None:
            samples = res[axis]
        if samples < 1:
            raise ValueError(f"a loop needs at least one step, got {samples}")
        x = np.zeros((samples + 1, len(res)))
        x[:, axis] = np.arange(samples + 1) / samples
        return x

    def describe(self) -> str:
        return self.label


def TorusGrid(dim: int, resolution: int) -> ParameterSpace:
    """The d-torus sampled on a uniform grid, coordinates in [0, 1)."""
    if dim < 1:
        raise ValueError("torus dimension must be >= 1")
    if resolution < 2:
        raise ValueError("resolution must be >= 2 per axis")
    return ParameterSpace(((resolution,) * dim,), f"T^{dim}[{resolution}]")


def FinitePointSet(count: int) -> ParameterSpace:
    if count < 1:
        raise ValueError("point count must be >= 1")
    return ParameterSpace(((),) * count, f"pts[{count}]")


def ProductSpace(left: ParameterSpace, right: ParameterSpace) -> ParameterSpace:
    """Components in left-major order; a point's coordinates are the left
    factor's followed by the right factor's."""
    _check_components(left.n_components * right.n_components)
    components = tuple(a + b for a in left.components for b in right.components)
    return ParameterSpace(components, f"({left.label} x {right.label})")


def DisjointUnionSpace(left: ParameterSpace, right: ParameterSpace) -> ParameterSpace:
    _check_components(left.n_components + right.n_components)
    return ParameterSpace(left.components + right.components, f"({left.label} | {right.label})")


def _check_components(count: int) -> None:
    if count > MAX_COMPONENTS:
        raise ValueError(f"a parameter space of {count} components is more than the "
                         f"{MAX_COMPONENTS} supported at most")


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------


class Family:
    """A family of representations of ``group`` over ``space``, as monomial
    data per connected component ci.

    ``perm[ci]`` is an integer array ``(generators, k)``, each row a
    permutation of range(k), and ``phase[ci]`` an integer array
    ``(generators, k, d)``, with ``k`` the fibre dimension and ``d =
    space.component_x_dim(ci)``: at the point x of the component, generator g
    sends basis line j to line ``perm[ci][g, j]`` with the phase
    e^{2 pi i phase[ci][g, j] . x}.  Malformed data raises ValueError; the
    arrays are kept as read-only int64 copies.  The combinators build a
    family by ``Family._composed``, which composes the data on first use of
    ``perm`` or ``phase``, so that exact pairing composes nothing.

    ``exponent_bound`` bounds every |phase entry| from the start: a family
    whose relators might compose past MAX_EXPONENT raises ValueError when it
    is built.  ``chern``, when present, holds one exact character form per
    connected component of the space; its degree-0 part equals the fiber
    dimension.
    """

    def __init__(self, group: GroupPresentation, space: ParameterSpace, perm, phase,
                 structure: str = "family", chern: tuple[MultiForm, ...] | None = None):
        n, gens = space.n_components, len(group.generators)
        if len(perm) != n or len(phase) != n:
            raise ValueError(f"one perm and one phase array per connected component required: "
                             f"{n} components, {len(perm)} perm and {len(phase)} phase")
        perms, phases = [], []
        for ci, (p, v) in enumerate(zip(perm, phase)):
            p, v = np.asarray(p), np.asarray(v)
            if p.dtype.kind not in "iu" or p.ndim != 2 or len(p) != gens:
                raise ValueError(f"component {ci}: perm must be an integer array "
                                 f"({gens}, k), got {p.dtype} {p.shape}")
            k = p.shape[1]
            if not (np.sort(p, axis=1) == np.arange(k)).all():
                raise ValueError(f"component {ci}: a perm row is not a permutation of range({k})")
            shape = (gens, k, space.component_x_dim(ci))
            if v.dtype.kind not in "iu" or v.shape != shape:
                raise ValueError(f"component {ci}: phase must be an integer array {shape}, "
                                 f"got {v.dtype} {v.shape}")
            perms.append(p)
            phases.append(v)
        self._setup(group, space, tuple(p.shape[1] for p in perms),
                    max([0, *map(_largest, phases)]), structure, chern)
        self._cache = tuple(map(_frozen, perms)), tuple(map(_frozen, phases))

    @classmethod
    def _composed(cls, group, space, fiber_dims, exponent_bound, compose, structure, chern):
        """A family whose data ``compose()`` returns, as lists of arrays per
        component, on first use."""
        f = cls.__new__(cls)
        f._setup(group, space, fiber_dims, exponent_bound, structure, chern)
        f._compose, f._cache = compose, None
        return f

    def _setup(self, group, space, fiber_dims, exponent_bound, structure, chern):
        if chern is not None and len(chern) != space.n_components:
            raise ValueError("one character form per connected component required")
        _check_exponents(max([1, *map(_letters, group.relators)]), exponent_bound)
        self.group, self.space, self.fiber_dims = group, space, fiber_dims
        self.exponent_bound, self.structure, self.chern = exponent_bound, structure, chern

    def _data(self) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
        """(perm, phase), composed on the first call; the combinators' own
        compositions call it directly, one frame per nesting level fewer
        than through the properties."""
        if self._cache is None:
            perm, phase = self._compose()
            self._cache = tuple(map(_frozen, perm)), tuple(map(_frozen, phase))
        return self._cache

    @property
    def perm(self) -> tuple[np.ndarray, ...]:
        return self._data()[0]

    @property
    def phase(self) -> tuple[np.ndarray, ...]:
        return self._data()[1]

    def __repr__(self) -> str:
        return f"Family({self.structure})"

    @property
    def base_dim(self) -> int | None:
        """The number of base (z) labels of the group's torus/wedge model,
        one per generator; None for a family without character forms."""
        return len(self.group.generators) if self.chern is not None else None

    def evaluate_batch(self, x, component: int = 0) -> np.ndarray:
        """The stack ``(P, generators, k, k)`` at the rows of coordinates
        ``x`` (shape ``(P, d)``) of points of one component: one scatter of
        the phase factors e^{2 pi i V_g[j] . x} ``(P, generators, k)`` into
        the permuted positions, factor j of generator g at (sigma_g(j), j)."""
        x = np.asarray(x, dtype=float)
        space = self.space
        if not (0 <= component < space.n_components and x.ndim == 2
                and x.shape[1] == space.component_x_dim(component)):
            raise ValueError(f"not a stack of rows of component {component}: {x.shape}")
        factors = np.exp(2j * np.pi * np.moveaxis(self.phase[component] @ x.T, -1, 0))
        perm = self.perm[component]
        gens, k = perm.shape
        out = np.zeros(factors.shape + (k,), dtype=complex)
        out[:, np.arange(gens)[:, None], perm, np.arange(k)] = factors
        return out

    def evaluate(self, x, component: int = 0) -> RepPoint:
        """The representation at one point, given by its coordinates: the
        batch rule on one row."""
        return RepPoint(self.evaluate_batch([x], component)[0])


def _frozen(a: np.ndarray) -> np.ndarray:
    a = a.astype(np.int64)
    a.setflags(write=False)
    return a


def _letters(w: Word) -> int:
    return sum(abs(e) for _, e in w.letters)


def _largest(phase: np.ndarray) -> int:
    """The largest |entry| of an integer array, as a Python int."""
    return max(-int(phase.min()), int(phase.max())) if phase.size else 0


def _check_exponents(letters: int, largest: int) -> None:
    if letters * largest > MAX_EXPONENT:
        raise ValueError(f"a word of {letters} letters over phase exponents up to {largest} "
                         f"may compose to {letters * largest}, more than the "
                         f"{MAX_EXPONENT} composed at most")


def _mul(a, b):
    """The product of monomial data (s, v), line j to s[j] with exponents
    v[j]: first b, then a."""
    return a[0][b[0]], b[1] + a[1][b[0]]


def _product(runs):
    """The monomial data (s, v) of the product of ``runs``, pairs (data,
    exponent) in order, or None for no runs.  A negative run takes the
    inverse (s^-1, -v o s^-1), and a run O(log |exponent|) products by
    repeated squaring.  The caller bounds the exponents by
    ``_check_exponents``, so that int64 sums stay exact."""
    out = None
    for m, e in runs:
        if e < 0:
            inverse = np.argsort(m[0])
            m = inverse, -m[1][inverse]
        e = abs(e)
        while e:
            if e & 1:
                out = m if out is None else _mul(out, m)
            e >>= 1
            if e:
                m = _mul(m, m)
    return out


def _word_data(w: Word, perm: np.ndarray, phase: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The monomial data (s, v) of the word ``w`` under the generators' data
    ``perm`` ``(gens, k)`` and ``phase`` ``(gens, k, d)``; (id, 0) for the
    empty word."""
    out = _product(((perm[g], phase[g]), e) for g, e in w.letters)
    if out is None:
        k, d = phase.shape[1:]
        return np.arange(k), np.zeros((k, d), dtype=np.int64)
    return out


def _holds(w: Word, perm: np.ndarray, phase: np.ndarray) -> bool:
    """Whether ``w`` composes to (id, 0) under the generators' data, i.e.
    holds at every parameter."""
    s, v = _word_data(w, perm, phase)
    return (s == np.arange(len(s))).all() and not v.any()


def _holding(words: Sequence[Word], perms: Sequence[np.ndarray],
             phases: Sequence[np.ndarray]) -> np.ndarray:
    """``_holds`` of each of ``words`` on each component's data ``perms[c]``,
    ``phases[c]``, as an array ``(components, words)``.  Words whose runs
    have the same exponents compose together, HOLDING_CELLS integers of data
    at a time, as one permutation of all their lines (line j of the r-th
    word is r k + j)."""
    shapes: dict[tuple[int, ...], tuple[list[int], list[tuple[int, ...]]]] = {}
    for i, w in enumerate(words):
        gens, exponents = zip(*w.letters) if w.letters else ((), ())
        rows, runs = shapes.setdefault(exponents, ([], []))
        rows.append(i)
        runs.append(gens)
    out = np.ones((len(perms), len(words)), dtype=bool)
    for exponents, (rows, runs) in shapes.items():
        if not any(exponents):
            continue  # words of no letters hold
        rows, runs = np.array(rows), np.array(runs, dtype=np.int64)
        for held, perm, phase in zip(out, perms, phases):
            _, k, d = phase.shape
            step = max(1, HOLDING_CELLS // (k * (d + 1) * len(exponents)))
            for at in range(0, len(rows), step):
                gens = runs[at:at + step].T
                lines = gens.shape[1] * k
                first = np.arange(0, lines, k)[:, None]
                data = zip(perm[gens] + first, phase[gens])  # per run (R, k), (R, k, d)
                s, v = _product(((p.reshape(lines), u.reshape(lines, d)), e)
                                for (p, u), e in zip(data, exponents))
                held[rows[at:at + step]] = ((s.reshape(-1, k) == first + np.arange(k)).all(axis=1)
                                            & ~v.reshape(len(first), k * d).any(axis=1))
    return out


def verify_family(f: Family) -> bool:
    """Check that ``f`` is a family of ``f.group`` at every parameter, not
    only on the grid: on each component every relator composes to (id, 0).

    Raises ValueError on the first violation, components in order, naming
    the component and the relator; also when a character form's degree-0
    part differs from the fibre dimension.  Unitarity and the fibre
    dimensions hold by construction.
    """
    for ci, (perm, phase) in enumerate(zip(f.perm, f.phase)):
        if f.chern is not None:
            rank = f.chern[ci].coefficient(())
            if rank != f.fiber_dims[ci]:
                raise ValueError(
                    f"component {ci}: character rank {rank} != fiber "
                    f"dimension {f.fiber_dims[ci]}"
                )
        for r in f.group.relators:
            if not _holds(r, perm, phase):
                raise ValueError(f"component {ci}: relator {format_word(r, f.group)!r} "
                                 "does not compose to the identity")
    return True


def character_family_Zn(
    n: int, resolution: int, generators: Sequence[str] | None = None
) -> Family:
    """The standard character family of Z^n over the n-torus:
    the j-th generator maps to e^{2 pi i x_j} in U(1)."""
    if n < 1:
        raise ValueError("rank must be >= 1")
    ch = _wedge_all([MultiForm._of_store({((), ()): 1, ((j,), (j,)): 1}) for j in range(1, n + 1)])
    return Family._composed(
        free_abelian(n, generators), TorusGrid(n, resolution), (1,), 1,
        lambda: ([np.zeros((n, 1), dtype=int)], [np.eye(n, dtype=int)[:, None, :]]),
        f"char_zn({n}, {resolution})", (ch,),
    )


def _wedge_all(forms: Sequence[MultiForm]) -> MultiForm:
    """The wedge product of ``forms`` in order, each half first: the largest
    product comes last, so a product past ``charforms.MAX_TERM_PRODUCTS`` is
    refused once the halves are built, not after all but the last factor."""
    if len(forms) == 1:
        return forms[0]
    mid = len(forms) // 2
    return _wedge_all(forms[:mid]) * _wedge_all(forms[mid:])


def trivial_family(group: GroupPresentation, dim: int = 1) -> Family:
    """The constant trivial representation of ``group`` on a single point."""
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    gens = len(group.generators)
    return Family._composed(
        group, FinitePointSet(1), (dim,), 0,
        lambda: ([np.tile(np.arange(dim), (gens, 1))], [np.zeros((gens, dim, 0), dtype=int)]),
        f"trivial(dim={dim})", (MultiForm.constant(dim),),
    )


def tensor_families(f: Family, g: Family) -> Family:
    """Pointwise Kronecker product, (left argument) x (right argument);
    a family of the direct-product group over the product space.  Line
    (i, j) of a fibre is line i b + j, b the right fibre's dimension: a left
    generator moves i by its permutation with its phases on the left
    coordinates, a right generator moves j with its phases on the right."""
    space = ProductSpace(f.space, g.space)

    def compose():
        perms, phases = [], []
        for s, v in zip(*f._data()):
            for t, u in zip(*g._data()):
                (gl, a, dl), (gr, b, dr) = v.shape, u.shape
                perms.append(np.concatenate([
                    (s[:, :, None] * b + np.arange(b)).reshape(gl, a * b),
                    (np.arange(a)[:, None] * b + t[:, None, :]).reshape(gr, a * b),
                ]))
                phases.append(np.concatenate([
                    np.concatenate([np.repeat(v, b, axis=1), np.zeros((gl, a * b, dr), int)], 2),
                    np.concatenate([np.zeros((gr, a * b, dl), int), np.tile(u, (1, a, 1))], 2),
                ]))
        return perms, phases

    chern = None
    if f.chern is not None and g.chern is not None:
        chern = tuple(
            a * b.shift(z_offset=f.base_dim, x_offset=f.space.component_x_dim(cl))
            for cl, a in enumerate(f.chern) for b in g.chern
        )
    return Family._composed(
        direct_product(f.group, g.group), space,
        tuple(a * b for a in f.fiber_dims for b in g.fiber_dims),
        max(f.exponent_bound, g.exponent_bound), compose,
        f"tensor({f.structure}, {g.structure})", chern,
    )


def extend_free_product(f: Family, G: GroupPresentation) -> Family:
    """Extend a family across a free product G = E * F, where E is the
    family's group: the pullback along the retraction G -> E that sends
    generators of the other free factor F to the identity.  G must be E * F:
    no relator mixes the factors, and both G -> E and E -> G pass the rule."""
    names = set(f.group.generators)
    missing = names - set(G.generators)
    if missing:
        raise ValueError(f"generators {sorted(missing)} absent from the ambient group")
    retract = {gi: f.group.generator_index(name)
               for gi, name in enumerate(G.generators) if name in names}
    for rel in G.relators:
        used = {gi for gi, _ in rel.letters}
        if used & retract.keys() and used - retract.keys():
            raise ValueError("ambient relator mixes both free factors; not a free product")
    _check_relators(G, f.group, retract)
    _check_relators(f.group, G, {i: gi for gi, i in retract.items()},
                    "relator {!r} of the family's group is not an ambient relator, "
                    "up to rotation and inversion")
    images = tuple(
        Word(((retract[gi], 1),)) if gi in retract else Word(()) for gi in range(len(G.generators))
    )
    return _pullback(f, G, images, f"extend({f.structure} -> {'*'.join(G.generators)})")


def _check_relators(G: GroupPresentation, E: GroupPresentation, images: dict[int, int],
                    message: str = "ambient relator {!r} is not a relator of the family's "
                                   "group, up to rotation and inversion") -> None:
    """The one relator rule of every group map: G -> E, generator p to
    ``images[p]`` and the others to the identity, is a homomorphism when each
    relator of G maps to the identity or, letter by letter, to a cyclic
    rotation of one of E's relators or of its inverse; else a ValueError
    formats ``message`` with the first relator of G that does not.  An
    image whose runs are literally one of E's stored relators passes by one
    set lookup; any other is keyed by its least rotation and looked up among
    those of E's relators and their inverses, built on the first such image."""
    literal, own = {r.letters for r in E.relators}, None
    for rel in G.relators:
        runs = tuple((images[g], e) for g, e in rel.letters if g in images)
        if runs in literal:
            continue
        if own is None:
            own = {_least_rotation(w.letters) for r in E.relators for w in (r, r.inverse())}
        image = _least_rotation(runs)
        if image and image not in own:
            raise ValueError(message.format(format_word(rel, G)))


def _least_rotation(runs: Sequence[tuple[int, int]]) -> tuple[int, ...]:
    """The least cyclic rotation of a word's runs spelled letter by letter, g^+-1 coded
    2g or 2g + 1, by the two-pointer search: a mismatch rules out k + 1 starts."""
    s = [2 * g + (e < 0) for g, e in runs for _ in range(abs(e))]
    n, i, j, k = len(s), 0, 1, 0
    while j < n and k < n:  # the rotations at i and j agree on k letters
        a, b = s[(i + k) % n], s[(j + k) % n]
        if a == b:
            k += 1
        else:
            i, j, k = (i, j + k + 1, 0) if a < b else (j, max(i + k + 1, j + 1), 0)
    return tuple(s[i:] + s[:i])


def disjoint_union(f: Family, g: Family) -> Family:
    """The same group over the disjoint union of the parameter spaces."""
    if f.group != g.group:
        raise ValueError("disjoint_union requires the same group on both sides")
    chern = (
        f.chern + g.chern if (f.chern is not None and g.chern is not None) else None
    )
    return Family._composed(
        f.group, DisjointUnionSpace(f.space, g.space), f.fiber_dims + g.fiber_dims,
        max(f.exponent_bound, g.exponent_bound),
        lambda: tuple(a + b for a, b in zip(f._data(), g._data())),
        f"union({f.structure}, {g.structure})", chern,
    )


def direct_sum(f: Family, g: Family) -> Family:
    """Blockwise direct sum of two families over the same space."""
    if f.group != g.group:
        raise ValueError("direct_sum requires the same group")
    if f.space != g.space:
        raise ValueError("direct_sum requires the same parameter space")

    def compose():
        (fp, fv), (gp, gv) = f._data(), g._data()
        return ([np.concatenate([s, t + s.shape[1]], 1) for s, t in zip(fp, gp)],
                [np.concatenate([v, u], 1) for v, u in zip(fv, gv)])

    chern = None
    if f.chern is not None and g.chern is not None:
        chern = tuple(a + b for a, b in zip(f.chern, g.chern))
    return Family._composed(
        f.group, f.space, tuple(a + b for a, b in zip(f.fiber_dims, g.fiber_dims)),
        max(f.exponent_bound, g.exponent_bound), compose,
        f"sum({f.structure}, {g.structure})", chern,
    )


# ---------------------------------------------------------------------------
# Structured covers (subgroup data is always supplied, never computed)
# ---------------------------------------------------------------------------


def _det_adjugate(m: Sequence[Sequence[int]]) -> tuple[int, list[list[int]] | None]:
    """Determinant and adjugate (None when singular) of a square integer
    matrix by fraction-free (Bareiss) Gauss-Jordan elimination on [m | I]:
    each step scales the other rows by the pivot and divides exactly by the
    last one, leaving d I | d m^-1 with d = det(m) up to the swaps' sign."""
    n = len(m)
    rows = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    sign, prev = 1, 1
    for k in range(n):
        p = next((i for i in range(k, n) if rows[i][k]), None)
        if p is None:
            return 0, None
        if p != k:
            rows[k], rows[p] = rows[p], rows[k]
            sign = -sign
        pivot = rows[k]
        for i, row in enumerate(rows):
            if i != k:
                rows[i] = [(pivot[k] * a - row[k] * b) // prev for a, b in zip(row, pivot)]
        prev = pivot[k]
    return sign * prev, [[sign * v for v in row[n:]] for row in rows]


def _abelianize(w: Word, n: int) -> list[int]:
    v = [0] * n
    for g, e in w.letters:
        v[g] += e
    return v


def _walk(holonomy: Sequence[Sequence[int]], w: Word) -> tuple[list[int], list[int]]:
    """The translation and axis signs a word moves Z^n by, run by run:
    generator g translates by e_g, then multiplies axis i by holonomy[g][i]."""
    v = [0] * len(holonomy)
    signs = [1] * len(holonomy)
    for g, e in w.letters:
        v[g] += e * signs[g]
        if e % 2:
            signs = [s * h for s, h in zip(signs, holonomy[g])]
    return v, signs


@dataclass(frozen=True)
class Cover:
    """A finite-index free abelian subgroup H of ``ambient``, as data.
    Ambient generator g translates Z^n by e_g, then multiplies axis i by
    ``holonomy[g][i]`` (+-1, and +1 for i = g).  H is the set of elements of
    trivial holonomy whose translation lies in the lattice of the basis with
    determinant ``det`` and integer ``adjugate``; ``sub_generator_words``
    spell the basis columns, H's generators.  Every holonomy maps the lattice
    to itself (all signs are +1, or the lattice is Klein's diag(1, 2) under
    diag(-1, 1)), so two words lie in one left coset of H exactly when their
    walks end with equal signs and translations equal modulo the lattice."""

    ambient: GroupPresentation
    cosets: tuple[Word, ...]
    det: int
    adjugate: tuple[tuple[int, ...], ...]
    holonomy: tuple[tuple[int, ...], ...]
    sub_generator_words: tuple[Word, ...]
    index: int
    label: str

    def rewrite(self, w: Word) -> Word | None:
        """Membership test plus rewrite into subgroup generators, or None."""
        return self._rewrite(*_walk(self.holonomy, w))

    def _rewrite(self, v: Sequence[int], signs: Sequence[int]) -> Word | None:
        """``rewrite`` of a word that walks to translation ``v`` and axis
        signs ``signs``: in H, the walk ends with all signs +1 and det | adj v."""
        if -1 in signs:
            return None
        coeffs = []
        for row in self.adjugate:
            c, r = divmod(sum(map(mul, row, v)), self.det)
            if r:
                return None
            coeffs.append(c)
        return Word(tuple((i, c) for i, c in enumerate(coeffs) if c))

    def _coset(self, v: Sequence[int], signs: Sequence[int]) -> tuple:
        """The key of the left coset wH of a word w that walks to ``v`` and
        ``signs``: the signs and adj v mod det."""
        return tuple(signs), tuple(sum(map(mul, row, v)) % self.det for row in self.adjugate)

    def describe(self) -> str:
        return self.label


def _lattice_cover(
    ambient: GroupPresentation, basis: Sequence[Sequence[int]],
    holonomy: tuple[tuple[int, ...], ...], cosets: Iterable[Word], label: str,
) -> Cover:
    """The one constructor of a Cover, from integer data: ``basis`` columns
    are the subgroup generators' exponents, the j-th prod_i a_i^{basis[i][j]}.
    It checks, in order: the basis is n x n for n ambient generators; each
    relator of the model group (Z^n, or the Klein-bottle group when some sign
    is -1) is an ambient relator, by ``_check_relators``; each ambient relator
    walks to translation 0, signs +1; det != 0; |det| coset words."""
    n = len(ambient.generators)
    mat = [[int(v) for v in row] for row in basis]
    if len(mat) != n or any(len(row) != n for row in mat):
        raise ValueError(f"basis must be {n} x {n} (columns = subgroup generators)")
    model = (GroupPresentation(ambient.generators, klein_bottle().relators)
             if any(-1 in signs for signs in holonomy) else free_abelian(n, ambient.generators))
    _check_relators(model, ambient, {i: i for i in range(n)},
                    "ambient group lacks the cover's relator {!r}, up to rotation and inversion")
    for rel in ambient.relators:
        if _walk(holonomy, rel) != ([0] * n, [1] * n):
            raise ValueError(f"ambient relator {format_word(rel, ambient)!r} does not "
                             "hold in the cover's model group")
    det, adjugate = _det_adjugate(mat)
    if det == 0:
        raise ValueError("sublattice basis is singular")
    index = abs(det)
    cosets = tuple(map(free_reduce, cosets))
    if len(cosets) != index:
        raise ValueError(f"need {index} coset representatives, got {len(cosets)}")
    words = (Word(tuple((i, row[j]) for i, row in enumerate(mat))) for j in range(n))
    return Cover(ambient, cosets, det, tuple(map(tuple, adjugate)), holonomy,
                 tuple(map(free_reduce, words)), index, f"{label}(index={index})")


def SublatticeCover(
    ambient: GroupPresentation, basis: Sequence[Sequence[int]], cosets: Sequence[Word]
) -> Cover:
    """A finite-index sublattice of a free abelian group, with coset
    representatives given as words in the ambient generators."""
    n = len(ambient.generators)
    return _lattice_cover(ambient, basis, ((1,) * n,) * n, cosets, "sublattice")


def circle_cover(k: int, ambient: GroupPresentation | None = None, cosets=None) -> Cover:
    """The k-fold cover kZ <= Z with coset representatives e, a, ..., a^{k-1}
    unless given."""
    if k < 1:
        raise ValueError("index must be >= 1")
    _check_index(k)
    cosets = [Word(((0, j),)) for j in range(k)] if cosets is None else cosets
    return SublatticeCover(ambient or free_abelian(1), [[k]], cosets)


def _check_index(index: int) -> None:
    if index > MAX_INDEX:
        raise ValueError(f"cover index {index} is more than the {MAX_INDEX} supported at most")


def KleinBottleCover(ambient: GroupPresentation | None = None, cosets=None) -> Cover:
    """The index-2 free abelian subgroup <a, b^2> of the Klein-bottle group
    <a, b | a b a b^-1>, with coset representatives e and b unless given: the
    lattice diag(1, 2) of Z^2, where b reverses a."""
    cosets = [Word(()), Word(((1, 1),))] if cosets is None else cosets
    return _lattice_cover(ambient or klein_bottle(), [[1, 0], [0, 2]], ((1, 1), (-1, 1)),
                          cosets, "klein_even")


def _linear_forms(m: Iterable[Sequence]) -> list[MultiForm]:
    """Row i of a rational matrix (ints or Fractions) as the base form
    sum_j m[i][j] z_{j+1}: an int store of its nonzero entries over the lcm
    of their denominators, with no labels to check or sort."""
    forms = []
    for row in m:
        den = lcm(*(v.denominator for v in row if v))
        forms.append(MultiForm._of_store(
            {((j + 1,), ()): v.numerator * (den // v.denominator) for j, v in enumerate(row) if v},
            den))
    return forms


def _word_blocks(
    f: Family, group: GroupPresentation, blocks: Sequence[Sequence[tuple[int, Word]]],
    structure: str, chern: tuple[MultiForm, ...] | None,
) -> Family:
    """The one composer of every group map: generator p of ``group`` acts by
    c x c blocks, c = len(blocks[p]); for the j-th entry (i, w) of
    ``blocks[p]``, block (i, j) is ``f`` at the word w, every other is zero.
    So line l of block j goes to line s[l] of block i with exponents v[l],
    (s, v) the word's data on each component of ``f``."""
    c = len(blocks[0]) if blocks else 1  # a group without generators has one coset
    words: dict[Word, int] = {}  # each distinct word, composed once per component
    slots = [[words.setdefault(w, len(words)) for _, w in row] for row in blocks]
    longest = max([1, *map(_letters, words)])
    _check_exponents(longest, f.exponent_bound)

    def compose():
        shape = (len(blocks), c)
        index = np.array(slots, dtype=np.int64).reshape(shape)
        targets = np.array([[i for i, _ in row] for row in blocks], dtype=np.int64).reshape(shape)
        perms, phases = [], []
        for perm, phase in zip(*f._data()):
            _, k, d = phase.shape
            data = [_word_data(w, perm, phase) for w in words]
            s = np.array([p for p, _ in data], dtype=np.int64).reshape(len(words), k)
            v = np.array([u for _, u in data], dtype=np.int64).reshape(len(words), k, d)
            perms.append((targets[:, :, None] * k + s[index]).reshape(shape[0], c * k))
            phases.append(v[index].reshape(shape[0], c * k, d))
        return perms, phases

    return Family._composed(group, f.space, tuple(k * c for k in f.fiber_dims),
                            longest * f.exponent_bound, compose, structure, chern)


def _pullback(
    f: Family, group: GroupPresentation, images: Sequence[Word], structure: str
) -> Family:
    """The pullback of ``f`` along the homomorphism ``group`` -> ``f.group``
    sending generator p to the word ``images[p]``: generator p acts by that
    word, one block of ``_word_blocks``, and the exact form substitutes the
    abelianized images, z_i by sum_p (exponent sum of generator i in
    ``images[p]``) z_{p+1}."""
    chern = None
    if f.chern is not None:
        abelian = (_abelianize(w, len(f.group.generators)) for w in images)
        subst = _linear_forms(zip(*abelian))  # row i: generator i in each image
        chern = tuple(ch.subst_z(subst) for ch in f.chern)
    return _word_blocks(f, group, [[(0, w)] for w in images], structure, chern)


def pullback_family(f: Family, cover: Cover) -> Family:
    """Restrict a family along a structured cover: the pullback along the
    inclusion of the subgroup, whose generators act by their ambient words.
    ``f`` must be a family of the cover's ambient group, generators matched
    by position."""
    n = len(cover.ambient.generators)
    if len(f.group.generators) != n:
        raise ValueError("family group does not match the cover's ambient group")
    _check_relators(cover.ambient, f.group, {gi: gi for gi in range(n)})
    structure = f"pullback({f.structure}, {cover.describe()})"
    sub = free_abelian(len(cover.sub_generator_words))
    return _pullback(f, sub, cover.sub_generator_words, structure)


def induce_family(f: Family, cover: Cover) -> Family:
    """Pointwise induction along a structured cover, to its ambient group.

    For each parameter x and ambient generator g, block (i, j) of the induced
    matrix is rho_x(t_i^-1 g t_j) whenever that element lies in the subgroup
    (rewritten through the cover), and zero otherwise; the t_i are the
    cover's coset words.  ``f`` must be a family of the cover's free abelian
    subgroup, generators matched by position, and the index at most MAX_INDEX.
    """
    G = cover.ambient
    n = len(cover.sub_generator_words)
    if len(f.group.generators) != n:
        raise ValueError("family group does not match the cover's subgroup")
    _check_relators(free_abelian(n), f.group, {i: i for i in range(n)})
    _check_index(cover.index)

    # Per ambient generator g and representative t_j: the one coset t_i with
    # t_i^-1 g t_j in the subgroup, the representative keyed like g t_j, and
    # that element as a subgroup word.  As every pair hits exactly one coset,
    # the representatives lie in distinct cosets, and j -> i is a permutation.
    # Each t_j is walked once, to (v_j, s_j); as walks compose, g t_j walks
    # to (e_g + h_g v_j, h_g s_j), h_g the holonomy of g, and t_i^-1 g t_j
    # from there by t_i^-1, to (s_i (gv - v_i), s_i gs), all in integers.
    walks = [_walk(cover.holonomy, t) for t in cover.cosets]
    keyed: dict[tuple, list[int]] = {}
    for i, walk in enumerate(walks):
        keyed.setdefault(cover._coset(*walk), []).append(i)
    blocks: list[list[tuple[int, Word]]] = []
    for gi, h in enumerate(cover.holonomy):
        blocks.append([])
        for j, (v, signs) in enumerate(walks):
            gv = [a * x for a, x in zip(h, v)]
            gv[gi] += 1
            gs = [a * s for a, s in zip(h, signs)]
            hits = keyed.get(cover._coset(gv, gs), [])
            if len(hits) != 1:
                raise ValueError(
                    f"invalid coset system: generator {G.generators[gi]!r} times "
                    f"representative {j} hits {len(hits)} cosets"
                )
            i = hits[0]
            vi, si = walks[i]
            blocks[-1].append((i, cover._rewrite([s * (a - b) for s, a, b in zip(si, gv, vi)],
                                                 [s * t for s, t in zip(si, gs)])))

    chern = None
    if f.chern is not None and not any(-1 in signs for signs in cover.holonomy):
        # transfer on the rational exterior algebra: index * (pullback)^{-1} = index * adj / det
        images = _linear_forms([Fraction(a, cover.det) for a in row] for row in cover.adjugate)
        chern = tuple(cover.index * ch.subst_z(images) for ch in f.chern)
    return _word_blocks(f, G, blocks, f"induce({f.structure}, {cover.describe()})", chern)


# ---------------------------------------------------------------------------
# Numeric bridges
# ---------------------------------------------------------------------------


def holonomy_loop(
    f: Family,
    w: Word,
    component: int = 0,
    axis: int = 0,
    samples: int | None = None,
) -> np.ndarray:
    """Holonomy matrices of a word along a closed parameter-axis loop, as a
    stack ``(samples + 1, k, k)``."""
    x = f.space.axis_loop(component, axis, samples)
    return evaluate_word(w, f.evaluate_batch(x, component))


def axis_windings(
    f: Family, gens: Sequence[int], ci: int, samples: int
) -> list[list[int]]:
    """Winding of det(rho(g)) of each generator index g of ``gens`` along
    each parameter axis of component ``ci``, read from the monomial data:
    the determinant turns uniformly, c = sum_j V_g[j][a] times along axis a,
    summed as Python ints, which do not wrap as int64 sums would.

    A loop of ``samples`` steps aliases such a turn when 2 |c| >= samples,
    so that raises UnderSampledLoopError: no cell is read that a loop of
    ``samples`` samples could not read."""
    phase = f.phase[ci]
    out = []
    for g in gens:
        out.append([sum(column) for column in phase[g].T.tolist()])
        for axis, turns in enumerate(out[-1]):
            if 2 * abs(turns) >= samples:
                raise UnderSampledLoopError(
                    f"det of {f.group.generators[g]!r} on component {ci} turns {turns} times "
                    f"along axis {axis + 1}, which a loop of {samples} samples aliases; "
                    "sample more finely"
                )
    return out


def numeric_c1_windings(f: Family, samples: int = 64):
    """Winding of det(holonomy) of each generator along each parameter axis,
    per component: ``axis_windings`` of every generator, read from the
    monomial data with no float evaluated.  A turn that a loop of
    ``samples`` steps would alias is refused as under-sampled, the first in
    generator-major, axis-minor order; on a component with an axis, so is a
    loop of one step (two samples wind nothing), and a loop of no step
    raises ValueError.  The counterpart of the exact z^x coefficients."""
    gens = range(len(f.group.generators))
    out = []
    for ci in range(f.space.n_components):
        out.append(axis_windings(f, gens, ci, samples))
        if samples < 2 and f.space.component_x_dim(ci):
            if samples < 1:  # reached only with no generators to alias
                raise ValueError(f"a loop needs at least one step, got {samples}")
            if gens:  # a closed loop of two samples is one step of 2*pi, which reads as 0
                raise UnderSampledLoopError(
                    f"need at least three samples on a closed loop, got {samples + 1}"
                )
    return out
