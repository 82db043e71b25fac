"""Deterministic command-line front end.

Subcommands: ``parse``, ``rep solve``, ``family build``, ``forms chern``,
``forms eval``, ``detect run``, ``report``.  Identical inputs and seed
produce byte-identical outputs; exact results are serialized as rational
strings, floats appear only in numeric diagnostics.

Exit codes: 0 success, 2 usage error, 3 input parse error, 4 solver
non-convergence, 5 obstruction or verification failure.

Family/descriptor expressions are a small call language, e.g.::

    char_zn(2, 32)
    union(extend(char_zn(1, 16, gens=[a]), group=f2.grp),
          extend(char_zn(1, 16, gens=[b]), group=f2.grp))
    induce(char_zn(2, 32), cosets=[e, b], group=klein.grp)

with ``e`` denoting the empty word in coset lists.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

import numpy as np

from . import charforms, detect, families, repvar
from .presentation import (
    GroupPresentation,
    PresentationError,
    Word,
    format_presentation,
    klein_bottle,
    parse_presentation,
    parse_word,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_NONCONVERGENCE = 4
EXIT_OBSTRUCTION = 5


# ---------------------------------------------------------------------------
# Expression language
# ---------------------------------------------------------------------------


class ExprError(ValueError):
    pass


_EXPR_TOKEN = re.compile(
    r"""
    (?P<path>[\w.-]*[.][\w.-]+|[\w.-]*/[\w./-]+)
  | (?P<num>-?\d+)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*(?:\^-1)?)
  | (?P<punct>[()\[\],=])
    """,
    re.VERBOSE,
)


def _expr_tokens(text: str):
    for line in text.splitlines():
        line = line.split("#", 1)[0]
        pos = 0
        while pos < len(line):
            if line[pos].isspace():
                pos += 1
                continue
            m = _EXPR_TOKEN.match(line, pos)
            if not m:
                raise ExprError(f"bad character {line[pos]!r} in expression")
            kind = m.lastgroup
            yield kind, m.group(0)
            pos = m.end()
    yield "end", ""


class Call:
    def __init__(self, name, args, kwargs):
        self.name = name
        self.args = args
        self.kwargs = kwargs

    def __repr__(self):
        return f"Call({self.name}, {self.args}, {self.kwargs})"


class _ExprParser:
    def __init__(self, text: str):
        self.tokens = list(_expr_tokens(text))
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, value: str):
        kind, tok = self.next()
        if tok != value:
            raise ExprError(f"expected {value!r}, got {tok!r}")

    def parse(self):
        value = self.value()
        kind, tok = self.peek()
        if kind != "end":
            raise ExprError(f"trailing input {tok!r}")
        return value

    def value(self):
        kind, tok = self.peek()
        if kind == "num":
            self.next()
            return int(tok)
        if kind == "path":
            self.next()
            return tok
        if tok == "[":
            return self.list_value()
        if kind == "ident":
            self.next()
            if self.peek()[1] == "(":
                return self.call(tok)
            return tok
        raise ExprError(f"unexpected token {tok!r}")

    def call(self, name: str) -> Call:
        self.expect("(")
        args, kwargs = [], {}
        if self.peek()[1] != ")":
            while True:
                kind, tok = self.peek()
                if kind == "ident" and self.tokens[self.pos + 1][1] == "=":
                    self.next()
                    self.next()
                    kwargs[tok] = self.value()
                else:
                    if kwargs:
                        raise ExprError("positional argument after keyword argument")
                    args.append(self.value())
                kind, tok = self.peek()
                if tok == ",":
                    self.next()
                    continue
                break
        self.expect(")")
        return Call(name, args, kwargs)

    def list_value(self):
        self.expect("[")
        items = []
        while self.peek()[1] != "]":
            items.append(self.list_item())
            if self.peek()[1] == ",":
                self.next()
        self.expect("]")
        return items

    def list_item(self):
        # a list item is either a plain value or a word (several letters)
        kind, tok = self.peek()
        if kind == "ident" and self.tokens[self.pos + 1][1] not in ("(", "="):
            letters = [self.next()[1]]
            while self.peek()[0] == "ident":
                letters.append(self.next()[1])
            if len(letters) == 1 and letters[0] == "e":
                return ""
            return " ".join(letters)
        return self.value()


def parse_expression(text: str):
    return _ExprParser(text).parse()


# ---------------------------------------------------------------------------
# Building families and descriptors from expressions
# ---------------------------------------------------------------------------


# constructor -> (positional arity, required keywords, optional keywords)
_SIGNATURES = {
    "char_zn": (2, (), ("gens",)),
    "trivial": (0, ("group",), ("dim",)),
    "tensor": (2, (), ()),
    "union": (2, (), ()),
    "sum": (2, (), ()),
    "extend": (1, ("group",), ()),
    "induce": (1, (), ("cover", "subgroup", "cosets", "group")),
    "pullback": (1, (), ("cover", "subgroup", "cosets", "group")),
    "circle": (1, (), ()),
    "sublattice": (1, (), ()),
    "free": (1, (), ()),
    "free_abelian": (1, (), ()),
    "surface": (1, (), ()),
    "free_product": (2, (), ()),
    "direct_product": (2, (), ()),
    "finite_index_super": (3, (), ("homology",)),
}


def _check_signature(call: Call) -> None:
    """Raise ExprError when a known constructor gets the wrong number of
    positional arguments, lacks a required keyword or gets an unknown one."""
    if call.name not in _SIGNATURES:
        return
    arity, required, optional = _SIGNATURES[call.name]
    if len(call.args) != arity:
        raise ExprError(
            f"{call.name} takes {arity} positional argument(s), got {len(call.args)}"
        )
    missing = [k for k in required if k not in call.kwargs]
    if missing:
        raise ExprError(f"{call.name} needs keyword argument(s) {', '.join(missing)}")
    unknown = sorted(set(call.kwargs) - set(required) - set(optional))
    if unknown:
        raise ExprError(
            f"{call.name} got unknown keyword argument(s) {', '.join(unknown)}"
        )


def _load_presentation(value, basedir: Path) -> GroupPresentation:
    if isinstance(value, GroupPresentation):
        return value
    path = Path(value)
    if not path.is_absolute():
        path = basedir / path
    return parse_presentation(path.read_text())


def _as_words(items, G: GroupPresentation) -> list[Word]:
    return [parse_word(s, G) for s in items]


_KLEIN_RELATOR = ((0, 1), (1, 1), (0, 1), (1, -1))


def _looks_like_klein(G: GroupPresentation) -> bool:
    return (
        len(G.generators) == 2
        and len(G.relators) == 1
        and G.relators[0].letters == _KLEIN_RELATOR
    )


def _build_cover(call, base_family, kwargs, basedir):
    kind = kwargs.get("cover") or kwargs.get("subgroup")
    if isinstance(kind, Call):
        _check_signature(kind)
    ambient = (
        _load_presentation(kwargs["group"], basedir) if "group" in kwargs else None
    )
    if isinstance(kind, Call) and kind.name == "circle":
        return families.circle_cover(kind.args[0], ambient)
    if isinstance(kind, Call) and kind.name == "sublattice":
        if ambient is None:
            raise ExprError("sublattice cover needs group=FILE")
        cosets = _as_words(kwargs.get("cosets", []), ambient)
        return families.SublatticeCover(ambient, kind.args[0], cosets)
    if kind == "klein_even" or (kind is None and ambient and _looks_like_klein(ambient)):
        cover = families.KleinBottleCover()
        if ambient is not None:
            if not _looks_like_klein(ambient):
                raise ExprError("group file does not present the Klein-bottle group")
            cover.ambient = ambient
        return cover
    if kind is None and ambient is not None and len(ambient.generators) == 1:
        cosets = kwargs.get("cosets")
        if cosets:
            return families.circle_cover(len(cosets), ambient)
    raise ExprError("unsupported cover description for induce")


def build_family(ast, basedir: Path) -> families.Family:
    if not isinstance(ast, Call):
        raise ExprError(f"expected a family expression, got {ast!r}")
    _check_signature(ast)
    name, args, kwargs = ast.name, ast.args, ast.kwargs
    if name == "char_zn":
        gens = kwargs.get("gens")
        return families.character_family_Zn(args[0], args[1], gens)
    if name == "trivial":
        G = _load_presentation(kwargs["group"], basedir)
        return families.trivial_family(G, kwargs.get("dim", 1))
    if name == "tensor":
        return families.tensor_families(
            build_family(args[0], basedir), build_family(args[1], basedir)
        )
    if name == "union":
        return families.disjoint_union(
            build_family(args[0], basedir), build_family(args[1], basedir)
        )
    if name == "sum":
        return families.direct_sum(
            build_family(args[0], basedir), build_family(args[1], basedir)
        )
    if name == "extend":
        G = _load_presentation(kwargs["group"], basedir)
        return families.extend_free_product(build_family(args[0], basedir), G)
    if name == "induce":
        inner = build_family(args[0], basedir)
        cover = _build_cover(ast, inner, kwargs, basedir)
        cosets = (
            _as_words(kwargs["cosets"], cover.ambient) if "cosets" in kwargs else None
        )
        return families.induce_family(inner, cover, cosets)
    if name == "pullback":
        inner = build_family(args[0], basedir)
        cover = _build_cover(ast, inner, kwargs, basedir)
        return families.pullback_family(inner, cover)
    raise ExprError(f"unknown family constructor {name!r}")


def build_descriptor(ast) -> detect.GroupClassDescriptor:
    if not isinstance(ast, Call):
        raise ExprError(f"expected a group descriptor, got {ast!r}")
    _check_signature(ast)
    name, args, kwargs = ast.name, ast.args, ast.kwargs
    if name == "free":
        return detect.Free(args[0])
    if name == "free_abelian":
        return detect.FreeAbelian(args[0])
    if name == "surface":
        return detect.SurfaceClosed(args[0])
    if name == "free_product":
        return detect.FreeProduct(build_descriptor(args[0]), build_descriptor(args[1]))
    if name == "direct_product":
        return detect.DirectProduct(
            build_descriptor(args[0]), build_descriptor(args[1])
        )
    if name == "finite_index_super":
        homology = kwargs.get("homology")
        table = (
            tuple(tuple(level if isinstance(level, list) else [level]) for level in homology)
            if homology is not None
            else None
        )
        return detect.FiniteIndexSuper(
            build_descriptor(args[0]), args[1], str(args[2]), table
        )
    raise ExprError(f"unknown group descriptor {name!r}")


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _emit(obj: dict, out: str | None) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _matrix_records(m: np.ndarray):
    return [[[v.real, v.imag] for v in row] for row in np.asarray(m)]


def _family_record(f: families.Family) -> dict:
    return {
        "kind": "family",
        "structure": f.structure,
        "group": format_presentation(f.group),
        "space": f.space.describe(),
        "fiber_dims": list(f.fiber_dims),
        "base_dim": f.base_dim,
        "chern": [ch.to_records() for ch in f.chern] if f.chern is not None else None,
    }


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_parse(ns) -> int:
    G = parse_presentation(Path(ns.presentation).read_text())
    _emit(
        {
            "kind": "presentation",
            "generators": list(G.generators),
            "relator_count": len(G.relators),
            "text": format_presentation(G),
        },
        ns.out,
    )
    return EXIT_OK


def _cmd_rep_solve(ns) -> int:
    G = parse_presentation(Path(ns.presentation).read_text())
    cfg = repvar.SolveConfig(tolerance=ns.tol, max_iter=ns.max_iter, seed=ns.seed)
    result = repvar.solve_representation(G, ns.dim, cfg)
    _emit(
        {
            "kind": "rep_point",
            "dimension": ns.dim,
            "generators": list(G.generators),
            "matrices": {
                name: _matrix_records(m)
                for name, m in zip(G.generators, result.point.matrices)
            },
            "defect": result.defect,
            "iterations": result.iterations,
            "converged": result.converged,
        },
        ns.out,
    )
    return EXIT_OK if result.converged else EXIT_NONCONVERGENCE


def _cmd_family_build(ns) -> int:
    path = Path(ns.expr)
    f = build_family(parse_expression(path.read_text()), path.parent)
    try:
        families.verify_family(f)
    except ValueError as exc:
        sys.stderr.write(f"family verification failed: {exc}\n")
        return EXIT_OBSTRUCTION
    _emit(_family_record(f), ns.out)
    return EXIT_OK


def _cmd_forms_chern(ns) -> int:
    path = Path(ns.family)
    f = build_family(parse_expression(path.read_text()), path.parent)
    windings = families.numeric_c1_windings(f, ns.resolution)
    _emit(
        {
            "kind": "chern_windings",
            "family": f.structure,
            "generators": list(f.group.generators),
            "windings": windings,
            "sign_conventions": charforms.SIGN_CONVENTIONS,
        },
        ns.out,
    )
    return EXIT_OK


def _cmd_forms_eval(ns) -> int:
    payload = json.loads(Path(ns.infile).read_text())
    op = payload.get("op", "wedge")
    forms = [charforms.MultiForm.from_records(r) for r in payload["operands"]]
    if not forms:
        raise ExprError("no operands")
    acc = forms[0]
    for f in forms[1:]:
        acc = acc * f if op == "wedge" else acc + f
    _emit({"kind": "multiform", "op": op, "records": acc.to_records()}, ns.out)
    return EXIT_OK


def _cmd_detect_run(ns) -> int:
    descriptor = build_descriptor(parse_expression(ns.group))
    fams = []
    for fpath in ns.families:
        path = Path(fpath)
        fams.append(build_family(parse_expression(path.read_text()), path.parent))
    if all(f.chern is not None for f in fams):
        report = detect.detection_matrix(descriptor, fams)
    else:
        if len(fams) != 1:
            raise detect.DetectionError(
                "the numeric pairing path takes a single family"
            )
        report = detect.numeric_detection_report(descriptor, fams[0])
    _emit(report.to_json_dict(), ns.out)
    return EXIT_OK if report.verdict == "FD-certified" else EXIT_OBSTRUCTION


def _cmd_report(ns) -> int:
    out: dict = {"kind": "report"}
    status = EXIT_OK
    if ns.group:
        code = _cmd_detect_like(ns, out)
        status = max(status, code)
    if ns.bm:
        f, index = ns.bm
        g, bound, excluded = detect.bm_obstruction(f, index)
        out["obstruction"] = {
            "free_rank": f,
            "index": index,
            "subgroup_rank": g,
            "h2_lower_bound": bound,
            "excluded": excluded,
        }
        if excluded:
            out["verdict"] = "obstructed"
            status = max(status, EXIT_OBSTRUCTION)
    _emit(out, ns.out)
    return status


def _cmd_detect_like(ns, out: dict) -> int:
    descriptor = build_descriptor(parse_expression(ns.group))
    fams = []
    for fpath in ns.families or []:
        path = Path(fpath)
        fams.append(build_family(parse_expression(path.read_text()), path.parent))
    report = detect.detection_matrix(descriptor, fams)
    out["detection"] = report.to_json_dict()
    out["verdict"] = report.verdict
    return EXIT_OK if report.verdict == "FD-certified" else EXIT_OBSTRUCTION


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _build_argparser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="flatdetect")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("parse", help="normalize a presentation file")
    sp.add_argument("--presentation", required=True)
    sp.add_argument("--out")
    sp.set_defaults(fn=_cmd_parse)

    rep = sub.add_parser("rep", help="representation variety commands")
    repsub = rep.add_subparsers(dest="subcommand", required=True)
    rs = repsub.add_parser("solve", help="solve for a representation point")
    rs.add_argument("--presentation", required=True)
    rs.add_argument("--dim", type=int, required=True)
    rs.add_argument("--tol", type=float, default=1e-8)
    rs.add_argument("--seed", type=int, default=0)
    rs.add_argument("--max-iter", type=int, default=2000)
    rs.add_argument("--out")
    rs.set_defaults(fn=_cmd_rep_solve)

    fam = sub.add_parser("family", help="family construction commands")
    famsub = fam.add_subparsers(dest="subcommand", required=True)
    fb = famsub.add_parser("build", help="build and verify a family expression")
    fb.add_argument("--expr", required=True)
    fb.add_argument("--out")
    fb.set_defaults(fn=_cmd_family_build)

    forms = sub.add_parser("forms", help="characteristic form commands")
    formssub = forms.add_subparsers(dest="subcommand", required=True)
    fc = formssub.add_parser("chern", help="numeric winding Chern data of a family")
    fc.add_argument("--family", required=True)
    fc.add_argument("--resolution", type=int, default=64)
    fc.add_argument("--out")
    fc.set_defaults(fn=_cmd_forms_chern)
    fe = formssub.add_parser("eval", help="combine serialized forms")
    fe.add_argument("--in", dest="infile", required=True)
    fe.add_argument("--out")
    fe.set_defaults(fn=_cmd_forms_eval)

    det = sub.add_parser("detect", help="detection pairing commands")
    detsub = det.add_subparsers(dest="subcommand", required=True)
    dr = detsub.add_parser("run", help="compute a detection report")
    dr.add_argument("--group", required=True)
    dr.add_argument("--families", nargs="+", required=True)
    dr.add_argument("--out")
    dr.set_defaults(fn=_cmd_detect_run)

    rp = sub.add_parser("report", help="combined detection / obstruction report")
    rp.add_argument("--group")
    rp.add_argument("--families", nargs="*")
    rp.add_argument("--bm", nargs=2, type=int, metavar=("FREE_RANK", "INDEX"))
    rp.add_argument("--out")
    rp.set_defaults(fn=_cmd_report)

    return p


def run(argv: list[str]) -> int:
    parser = _build_argparser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return ns.fn(ns)
    except (PresentationError, ExprError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    except FileNotFoundError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    except (detect.DetectionError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_OBSTRUCTION


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
