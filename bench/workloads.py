"""Seeded inputs for the benchmark workloads.

Every workload is a fixed ladder: how many operations of each shape and size
make up one pass.  The seed picks everything else -- generator names, file
names, operation order, tensor splits, sublattice covers, subcommand
(``detect run`` or ``report``), grid resolutions where they do not change
the cost, and the solver seeds of ``rep solve``.  Runs with different seeds
therefore execute different inputs but comparable work, so their spread
measures the machine and the program, not the luck of the draw.

Each operation is one ``flatdetect`` argv list plus an oracle built from how
the input was constructed; no stored reference output is needed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import oracles


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    out: Path
    label: str
    check: Callable[[int, bytes], str | None]


class _Files:
    """Writes input files into one run directory, each name used once."""

    def __init__(self, root: Path):
        self.root = root
        self.count = 0

    def write(self, stem: str, suffix: str, text: str) -> Path:
        self.count += 1
        path = self.root / f"{stem}{self.count:04d}{suffix}"
        path.write_text(text + "\n")
        return path

    def out(self) -> Path:
        self.count += 1
        return self.root / f"out{self.count:04d}.json"


def _presentation(gens, rels) -> str:
    return f"gens: {' '.join(gens)} ; rels: {' , '.join(rels)} ;"


def _commutators(gens) -> list[str]:
    return [f"{a} {b} {a}^-1 {b}^-1" for a, b in itertools.combinations(gens, 2)]


def _names(rng: random.Random, k: int) -> list[str]:
    prefix = rng.choice(("g", "h", "s", "u"))
    return [f"{prefix}{i + 1}" for i in range(k)]


# ---------------------------------------------------------------------------
# exact_pairing: detection matrices of exact families
# ---------------------------------------------------------------------------

# (kind, rank, ops per pass); free-group ops cycle through free(5..7) and
# omit one generator in every fourth op.  Free-group ops take a few ms,
# rank 5 about 60 ms, rank 6 about 0.4 s, rank 7 about 2 s: the median falls
# inside the rank-5 block and p90 inside the rank-6 block.
EXACT_LADDER = (("free", 0, 28), ("zn", 5, 45), ("zn", 6, 25), ("zn", 7, 2))
EXACT_SMOKE = (("zn", 5, 1),)


def _exact_cmd(rng, group: str, fams: list[Path]):
    argv = ["detect", "run", "--group", group, "--families", *map(str, fams)]
    report, bm = False, None
    if rng.random() < 0.5:
        argv[:2] = ["report"]
        report = True
        if rng.random() < 0.5:
            # (free rank, index) pairs whose Euler bound is zero: not excluded
            bm = rng.choice(((2, 2), (2, 3), (3, 2)))
            argv += ["--bm", str(bm[0]), str(bm[1])]
    return argv, report, bm


def _exact_zn_op(rng, files: _Files, n: int, shape: str, ambient: dict) -> Op:
    group = f"free_abelian({n})"
    scales = None
    if shape == "char":
        gens = f", gens=[{', '.join(_names(rng, n))}]" if rng.random() < 0.5 else ""
        expr = f"char_zn({n}, {rng.randint(2, 64)}{gens})"
    elif shape == "tensor":
        p = rng.randint(1, n - 1)
        expr = (
            f"tensor(char_zn({p}, {rng.randint(2, 64)}), "
            f"char_zn({n - p}, {rng.randint(2, 64)}))"
        )
        if rng.random() < 0.5:
            group = f"direct_product(free_abelian({p}), free_abelian({n - p}))"
    else:  # induce along a diagonal sublattice of index 2 or 4
        grp_path, gens = ambient[n]
        doubled = sorted(rng.sample(range(n), rng.choice((1, 2))))
        basis = [[(2 if i in doubled else 1) if i == j else 0 for j in range(n)]
                 for i in range(n)]
        cosets = [
            " ".join(gens[i] for i in sub) or "e"
            for q in range(len(doubled) + 1)
            for sub in itertools.combinations(doubled, q)
        ]
        rng.shuffle(cosets)
        expr = (
            f"induce(char_zn({n}, {rng.randint(2, 64)}), "
            f"cover=sublattice({basis}), cosets=[{', '.join(cosets)}], "
            f"group={grp_path.name})"
        )
        scales = (2 ** len(doubled), [basis[i][i] for i in range(n)])
    fam = files.write("zn", ".fam", expr)
    argv, report, bm = _exact_cmd(rng, group, [fam])
    out = files.out()
    return Op(
        tuple(argv) + ("--out", str(out)),
        out,
        f"{argv[0]} Z^{n} {shape}",
        partial(oracles.zn_report, n=n, scales=scales, report=report, bm=bm),
    )


def _exact_free_op(rng, files: _Files, k: int, missing: bool, free_grp) -> Op:
    grp_path, gens = free_grp[k]
    covered = list(range(k))
    omitted = covered.pop(rng.randrange(k)) if missing else None
    rng.shuffle(covered)
    parts = [
        f"extend(char_zn(1, {rng.randint(2, 64)}, gens=[{gens[i]}]), "
        f"group={grp_path.name})"
        for i in covered
    ]
    if rng.random() < 0.5:
        expr = parts[0]
        for p in parts[1:]:
            expr = f"union({expr}, {p})"
        fams = [files.write("free", ".fam", expr)]
    else:
        fams = [files.write("free", ".fam", p) for p in parts]
    argv, report, bm = _exact_cmd(rng, f"free({k})", fams)
    out = files.out()
    return Op(
        tuple(argv) + ("--out", str(out)),
        out,
        f"{argv[0]} free({k})",
        partial(oracles.free_report, k=k, omitted=omitted, report=report, bm=bm),
    )


def _exact(rng: random.Random, files: _Files, ladder) -> list[Op]:
    ambient, free_grp = {}, {}
    for n in (5, 6, 7):
        gens = _names(rng, n)
        ambient[n] = (files.write("zn", ".grp", _presentation(gens, _commutators(gens))), gens)
        gens = _names(rng, n)
        free_grp[n] = (files.write("free", ".grp", _presentation(gens, [])), gens)
    ops = []
    for kind, n, count in ladder:
        if kind == "free":
            for i in range(count):
                ops.append(_exact_free_op(rng, files, 5 + i % 3, i % 4 == 3, free_grp))
        else:
            shapes = ["char", "tensor", "induce"]
            rng.shuffle(shapes)
            for i in range(count):
                ops.append(_exact_zn_op(rng, files, n, shapes[i % 3], ambient))
    return ops


# ---------------------------------------------------------------------------
# Family shapes shared by the two numeric workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Shape:
    """A family expression with the data its construction implies."""

    expr: str
    gens: tuple[str, ...]
    fiber: int
    windings: tuple[tuple[int, ...], ...]  # det winding [generator][axis]

    @property
    def axes(self) -> int:
        return len(self.windings[0])


def char_shape(n: int, r: int, gens) -> Shape:
    eye = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    return Shape(f"char_zn({n}, {r}, gens=[{', '.join(gens)}])", tuple(gens), 1, eye)


def sum_shape(f: Shape, g: Shape) -> Shape:
    w = tuple(tuple(a + b for a, b in zip(rf, rg)) for rf, rg in zip(f.windings, g.windings))
    return Shape(f"sum({f.expr}, {g.expr})", f.gens, f.fiber + g.fiber, w)


def klein_shape(r: int, gens, grp: Path) -> Shape:
    # induced from <a, b^2>: det(a) has winding 0, det(b) = -rho(b^2) winds once
    return Shape(
        f"induce(char_zn(2, {r}), cosets=[e, {gens[1]}], group={grp.name})",
        tuple(gens), 2, ((0, 0), (0, 1)),
    )


def tensor_shape(f: Shape, g: Shape) -> Shape:
    # det(A kron I_m) = det(A)^m and det(I_k kron B) = det(B)^k
    w = tuple(tuple(x * g.fiber for x in row) + (0,) * g.axes for row in f.windings)
    w += tuple((0,) * f.axes + tuple(x * f.fiber for x in row) for row in g.windings)
    return Shape(f"tensor({f.expr}, {g.expr})", f.gens + g.gens, f.fiber * g.fiber, w)


def describe(shape: str, size=None) -> str:
    """Readable name of a shape, with "." for sizes left to the seed."""
    r = [str(x) for x in size] if size else [".", "."]
    klein = f"induce(char_zn(2, {r[-1]}), klein)"
    return {
        "c3": f"char_zn(3, {r[0]})",
        "sum3": f"sum(char_zn(3, {r[0]}), same)",
        "klein": klein,
        "tk": f"tensor(char_zn(1, {r[0]}), {klein})",
        "t4": f"tensor(sum(char_zn(1, {r[0]}), same), {klein})",
    }[shape]


class _Shapes:
    """Seeded shape builders; sizes come from the ladders."""

    def __init__(self, rng: random.Random, files: _Files):
        self.rng = rng
        self.klein_gens = rng.choice((("a", "b"), ("p", "q"), ("u", "v")))
        self.klein_grp = files.write(
            "klein", ".grp",
            _presentation(self.klein_gens, [
                f"{self.klein_gens[0]} {self.klein_gens[1]} "
                f"{self.klein_gens[0]} {self.klein_gens[1]}^-1"
            ]),
        )

    def _char_gens(self, n):
        return self.rng.choice((("x", "y", "z"), ("t1", "t2", "t3"), ("c", "d", "f")))[:n]

    def build(self, shape: str, size: tuple[int, ...]) -> Shape:
        if shape == "c3":
            return char_shape(3, size[0], self._char_gens(3))
        if shape == "sum3":
            gens = self._char_gens(3)
            return sum_shape(char_shape(3, size[0], gens), char_shape(3, size[0], gens))
        k = klein_shape(size[-1], self.klein_gens, self.klein_grp)
        if shape == "klein":
            return k
        c = char_shape(1, size[0], self._char_gens(1))
        if shape == "tk":
            return tensor_shape(c, k)
        if shape == "t4":
            return tensor_shape(sum_shape(c, c), k)
        raise ValueError(f"unknown shape {shape!r}")


# ---------------------------------------------------------------------------
# numeric_grid: family build, i.e. verify_family over every grid point
# ---------------------------------------------------------------------------

# (shape, grid sizes, ops per pass).  Sizes are resolutions per axis; for
# tk/t4 the first is the char_zn(1) axis and the second the Klein family's.
# 85 small grids hold the median.  Of the 15 full-size grids (up to 24^3
# and 128^2 points), nine equal ones sit around p90 so that it reads one size.
GRID_LADDER = (
    ("c3", (6,), 6), ("c3", (7,), 6), ("c3", (8,), 5),
    ("sum3", (6,), 6), ("sum3", (7,), 5),
    ("klein", (16,), 6), ("klein", (20,), 6), ("klein", (24,), 6), ("klein", (28,), 6),
    ("tk", (4, 8), 6), ("tk", (4, 10), 6), ("tk", (6, 8), 5),
    ("t4", (2, 8), 6), ("t4", (4, 8), 5), ("t4", (2, 12), 5),
    ("klein", (64,), 1),
    ("sum3", (16,), 9),
    ("c3", (20,), 1), ("c3", (24,), 1), ("klein", (128,), 1),
    ("tk", (4, 32), 1), ("t4", (2, 48), 1),
)
GRID_SMOKE = (("klein", (8,), 1),)


def _numeric_grid(rng: random.Random, files: _Files, ladder) -> list[Op]:
    shapes = _Shapes(rng, files)
    ops = []
    for shape, size, count in ladder:
        for _ in range(count):
            s = shapes.build(shape, size)
            fam = files.write("grid", ".fam", s.expr)
            out = files.out()
            ops.append(Op(
                ("family", "build", "--expr", str(fam), "--out", str(out)),
                out,
                f"family build {describe(shape, size)}",
                partial(oracles.family_record, fiber=s.fiber),
            ))
    return ops


# ---------------------------------------------------------------------------
# numeric_loops: determinant windings along 1-D axis loops
# ---------------------------------------------------------------------------

# ("detect", shape, 0, ops) pairs a Klein-bearing family numerically through
# `detect run` (64 samples per loop); ("chern", shape, resolution, ops) runs
# `forms chern`.  The median falls in the middle of the 40 t4 detect ops,
# p90 inside the chern block, among ten ops of about equal cost.
LOOPS_LADDER = (
    ("detect", "klein", 0, 15), ("detect", "tk", 0, 15), ("detect", "t4", 0, 40),
    ("chern", "c3", 256, 2), ("chern", "c3", 512, 2), ("chern", "c3", 1024, 2),
    ("chern", "sum3", 256, 2), ("chern", "sum3", 512, 2),
    ("chern", "klein", 256, 2), ("chern", "klein", 512, 2), ("chern", "klein", 1024, 2),
    ("chern", "tk", 256, 4), ("chern", "tk", 512, 3),
    ("chern", "t4", 256, 4), ("chern", "t4", 512, 3),
)
LOOPS_SMOKE = (("detect", "klein", 0, 1), ("chern", "klein", 256, 1))


def _numeric_loops(rng: random.Random, files: _Files, ladder) -> list[Op]:
    shapes = _Shapes(rng, files)
    b = shapes.klein_gens[1]
    group = f"finite_index_super(free_abelian(2), 2, klein, homology=[[pt], [{b}]])"
    ops = []
    for kind, shape, res, count in ladder:
        for _ in range(count):
            # loop cost does not depend on the grid, so its size is free
            s = shapes.build(shape, (rng.randint(2, 16), rng.randint(8, 64)))
            fam = files.write("loop", ".fam", s.expr)
            out = files.out()
            if kind == "detect":
                b_row = s.windings[s.gens.index(b)]
                ops.append(Op(
                    ("detect", "run", "--group", group, "--families", str(fam),
                     "--out", str(out)),
                    out,
                    f"detect run {describe(shape)}",
                    partial(oracles.numeric_report, fiber=s.fiber, b_windings=b_row),
                ))
            else:
                resolution = res + rng.randint(-8, 8)
                ops.append(Op(
                    ("forms", "chern", "--family", str(fam),
                     "--resolution", str(resolution), "--out", str(out)),
                    out,
                    f"forms chern {describe(shape)} @{res}",
                    partial(oracles.windings, expected=s.windings),
                ))
    return ops


# ---------------------------------------------------------------------------
# solve: rep solve on small presentations
# ---------------------------------------------------------------------------


def _solve_groups(rng: random.Random):
    """name -> (generators, relators as lists of (generator, sign))."""
    x, y = rng.choice((("a", "b"), ("c", "d"), ("p", "q")))

    def surface(g):
        gens = [n for i in range(g) for n in (f"{x}{i + 1}", f"{y}{i + 1}")]
        rel = []
        for i in range(g):
            a, b = gens[2 * i], gens[2 * i + 1]
            rel += [(a, 1), (b, 1), (a, -1), (b, -1)]
        return gens, [rel]

    def free_abelian(n):
        gens = [f"t{i + 1}" for i in range(n)]
        return gens, [[(a, 1), (b, 1), (a, -1), (b, -1)]
                      for a, b in itertools.combinations(gens, 2)]

    klein = ([x, y], [[(x, 1), (y, 1), (x, 1), (y, -1)]])
    z2, z2_rels = free_abelian(2)
    cross = [[(s, 1), (g, 1), (s, -1), (g, -1)] for s in z2 for g in klein[0]]
    return {
        "surface(2)": surface(2),
        "surface(3)": surface(3),
        "klein": klein,
        "free_abelian(2)": free_abelian(2),
        "free_abelian(3)": free_abelian(3),
        "free_abelian(2)xklein": (z2 + klein[0], z2_rels + klein[1] + cross),
    }


# (group, dim, ops per pass): every group in U(2)..U(6), except Z^2 x Klein
# in U(2) and U(3) only and at a third of the weight.  Its solves have the
# heaviest tail (past 1 s in U(2..3), past 2 s in U(4..6)); at full weight
# the seeds it draws swing a pass's total time by 12-15% from seed to seed.
SOLVE_LADDER = tuple(
    (group, dim, 30)
    for group in ("surface(2)", "surface(3)", "klein", "free_abelian(2)", "free_abelian(3)")
    for dim in range(2, 7)
) + (("free_abelian(2)xklein", 2, 10), ("free_abelian(2)xklein", 3, 10))
SOLVE_SMOKE = (("klein", 2, 1),)
SOLVE_TOL = 1e-8


def _solve(rng: random.Random, files: _Files, ladder) -> list[Op]:
    groups = _solve_groups(rng)
    paths = {}
    for name, (gens, rels) in groups.items():
        text = [" ".join(g if s == 1 else f"{g}^-1" for g, s in r) for r in rels]
        paths[name] = files.write("solve", ".grp", _presentation(gens, text))
    ops = []
    for name, dim, count in ladder:
        for _ in range(count):
            out = files.out()
            ops.append(Op(
                ("rep", "solve", "--presentation", str(paths[name]),
                 "--dim", str(dim), "--tol", repr(SOLVE_TOL),
                 "--seed", str(rng.randrange(2**31)), "--out", str(out)),
                out,
                f"rep solve {name} U({dim})",
                partial(oracles.rep_point, group=groups[name], dim=dim, tol=SOLVE_TOL),
            ))
    return ops


_GENERATORS = {
    "exact_pairing": (_exact, EXACT_LADDER, EXACT_SMOKE),
    "numeric_grid": (_numeric_grid, GRID_LADDER, GRID_SMOKE),
    "numeric_loops": (_numeric_loops, LOOPS_LADDER, LOOPS_SMOKE),
    "solve": (_solve, SOLVE_LADDER, SOLVE_SMOKE),
}


def generate(workload: str, seed: int, run_dir: Path, smoke: bool = False) -> list[Op]:
    """Write the inputs of one pass into ``run_dir``; return its ops in order.
    ``smoke`` swaps the ladder for a one- or two-op one."""
    gen, ladder, smoke_ladder = _GENERATORS[workload]
    rng = random.Random(f"{workload}:{seed}")
    ops = gen(rng, _Files(run_dir), smoke_ladder if smoke else ladder)
    rng.shuffle(ops)
    return ops


WORKLOADS = tuple(_GENERATORS)
