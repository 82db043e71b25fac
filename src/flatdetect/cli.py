"""Deterministic command-line front end.

Subcommands: ``parse``, ``rep solve``, ``family build``, ``forms chern``,
``forms eval``, ``detect run``, ``report``.  Identical inputs and seed
produce byte-identical outputs, which one writer, ``_write``, emits as
``json.dumps(sort_keys=True, indent=2)`` would; exact results are rational
strings, floats appear only in numeric diagnostics.

Exit codes: 0 success, 2 usage error (including flag values out of range), 3
input error (an unreadable or unwritable file, input nested too deeply, a
malformed expression or payload, including values a constructor rejects, a
presentation with no generators to solve for, a family paired with a group it
is not a family of (by its generator count, or a relator of the group that
does not hold on the family or might compose past ``families.MAX_EXPONENT``
on it) or a class label that is no word of its group, a pullback or induction
of a family of another group than the cover's, a coset list of another length
than the cover's index, a cover index above ``families.MAX_INDEX``, a family
whose phase exponents might compose past ``families.MAX_EXPONENT``, a group
descriptor of more than ``detect.MAX_CLASSES`` homology classes, a group
descriptor (all its leaves together) of more than ``detect.MAX_RELATION_CELLS``
exponent-sum cells,
a descriptor of more than ``detect.MAX_CYCLE_TERMS`` prefix sums read, a
wedge of forms past ``charforms.MAX_TERM_PRODUCTS`` term products, or an exact
detection matrix of more than ``detect.MAX_CELLS`` cells),
4 solver non-convergence,
5 obstruction or verification failure.

Family/descriptor expressions are a small call language, e.g.::

    char_zn(2, 32)
    union(extend(char_zn(1, 16, gens=[a]), group=f2.grp),
          extend(char_zn(1, 16, gens=[b]), group=f2.grp))
    induce(char_zn(2, 32), cosets=[e, b], group=klein.grp)

with ``e`` denoting the empty word in coset lists.

The argument parser is built on the first ``run`` call and reused by every
later one in the process; it holds no per-call state, since each parse
returns a fresh namespace.  An argv that starts with a full command path
(``detect run``, ``report``, ...) goes straight to that command's leaf
parser, the tree's own, which parses it as the tree would; any other argv
goes through the tree.  Within one ``run`` call a group file that
expressions name (``group=f2.grp``) is read and parsed once, however often
they name it; the next call reads it again.

Importing this module imports ``presentation`` and no other submodule:
``charforms``, ``detect``, ``families`` and ``repvar`` are read as
attributes of the package (``fd.detect``), which imports each on the first
read, and nothing here reads one at import or while the parser is built.
So ``parse`` runs ``presentation`` alone, ``rep solve`` adds ``repvar``,
``family build`` and ``forms`` add ``families``, ``charforms`` and
``repvar``, and ``detect run`` and ``report`` run all.
"""

from __future__ import annotations

import argparse
import functools
import json
import operator
import re
import sys
from contextvars import ContextVar
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

import numpy as np

import flatdetect as fd
from .presentation import (
    GroupPresentation,
    PresentationError,
    format_presentation,
    free_abelian,
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
            return _int_literal(tok)
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


def _int_literal(tok: str) -> int:
    """The integer of a literal, or an ExprError past int's digit limit."""
    try:
        return int(tok)
    except ValueError as exc:
        digits = len(tok.lstrip("-"))
        raise ExprError(
            f"integer literal too long to convert ({digits} digits, "
            f"the limit is {sys.get_int_max_str_digits()})"
        ) from exc


def parse_expression(text: str):
    return _ExprParser(text).parse()


# ---------------------------------------------------------------------------
# Building families and descriptors from expressions
# ---------------------------------------------------------------------------


# A constructor's kind is "family", "cover" or "descriptor"; arguments of
# those kinds are nested calls, and other arguments must fit their _TYPES
# entry.  A cover builds (families constructor, keyword arguments, ambient
# when group= is absent), which _cover completes with its caller's keywords.
_KINDS = {  # kind -> (message for a non-call, message for an unknown name)
    "family": ("expected a family expression, got {!r}", "unknown family constructor {!r}"),
    "cover": ("unsupported cover description for {caller}",) * 2,
    "descriptor": ("expected a group descriptor, got {!r}", "unknown group descriptor {!r}"),
}

# argument type -> (description, shape): a Python type, [shape] for a list
# of that shape, or a tuple of alternative shapes
_TYPES = {
    "int": ("an integer", int),
    "name": ("a name", str),
    "file": ("a file name", str),
    "words": ("a list of words", [str]),
    "matrix": ("a list of integer rows", [[int]]),
    "homology": ("a list of label lists", [(str, [str])]),
}


def _fits(value, shape) -> bool:
    if isinstance(shape, list):
        return isinstance(value, list) and all(_fits(v, shape[0]) for v in value)
    if isinstance(shape, tuple):
        return any(_fits(value, s) for s in shape)
    return isinstance(value, shape)


def _cover(caller: str, cover, cosets, group):
    """The cover given by ``cover=``, else inferred from ``group=`` (two
    generators, or one with ``cosets=``), built once on ``group=`` or the
    cover's own ambient, with the ``cosets=`` words when given."""
    if cover is None and group is not None and len(group.generators) == 2:
        cover = _CONSTRUCTORS["klein_even"][-1]()
    elif cover is None and group is not None and len(group.generators) == 1 and cosets:
        cover = _CONSTRUCTORS["circle"][-1](len(cosets))
    elif cover is None:
        raise ExprError(f"unsupported cover description for {caller}")
    make, args, ambient = cover
    ambient = group or ambient
    if ambient is None:
        raise ExprError("sublattice cover needs group=FILE")
    if cosets is not None:
        args = {**args, "cosets": [parse_word(s, ambient) for s in cosets]}
    return make(ambient=ambient, **args)


def _finite_index_super(sub, index, label, homology):
    homology = [lv if isinstance(lv, list) else [lv] for lv in homology]
    return fd.detect.FiniteIndexSuper(sub, index, label, homology)


_COVER_KEYWORDS = {"cover": "cover", "cosets": "words", "group": "file"}

# name -> (kind, positional types, keyword types, required keywords, builder).
# The builders look up fd.families.* and fd.detect.* when called, so that
# building the table imports neither module, and wrappers installed on them
# (a tracer's, say) see every family and descriptor built.
_CONSTRUCTORS = {
    "char_zn": ("family", ("int", "int"), {"gens": "words"}, (),
                lambda n, res, gens=None: fd.families.character_family_Zn(n, res, gens)),
    "trivial": ("family", (), {"group": "file", "dim": "int"}, ("group",),
                lambda group, dim=1: fd.families.trivial_family(group, dim)),
    "tensor": ("family", ("family", "family"), {}, (),
               lambda f, g: fd.families.tensor_families(f, g)),
    "union": ("family", ("family", "family"), {}, (),
              lambda f, g: fd.families.disjoint_union(f, g)),
    "sum": ("family", ("family", "family"), {}, (), lambda f, g: fd.families.direct_sum(f, g)),
    "extend": ("family", ("family",), {"group": "file"}, ("group",),
               lambda f, group: fd.families.extend_free_product(f, group)),
    "induce": ("family", ("family",), _COVER_KEYWORDS, (),
               lambda f, cover=None, cosets=None, group=None:
               fd.families.induce_family(f, _cover("induce", cover, cosets, group))),
    "pullback": ("family", ("family",), _COVER_KEYWORDS, (),
                 lambda f, cover=None, cosets=None, group=None:
                 fd.families.pullback_family(f, _cover("pullback", cover, cosets, group))),
    "circle": ("cover", ("int",), {}, (),
               lambda k: (fd.families.circle_cover, {"k": k}, free_abelian(1))),
    "sublattice": ("cover", ("matrix",), {}, (), lambda basis: (
        fd.families.SublatticeCover, {"basis": basis, "cosets": []}, None)),
    "klein_even": ("cover", (), {}, (), lambda: (fd.families.KleinBottleCover, {}, klein_bottle())),
    "free": ("descriptor", ("int",), {}, (), lambda n: fd.detect.Free(n)),
    "free_abelian": ("descriptor", ("int",), {}, (), lambda n: fd.detect.FreeAbelian(n)),
    "surface": ("descriptor", ("int",), {}, (), lambda g: fd.detect.SurfaceClosed(g)),
    "group": ("descriptor", ("name",), {}, (), lambda path: fd.detect.PresentationComplex(
        f"group({path})", parse_presentation(Path(path).read_text()))),
    "free_product": ("descriptor", ("descriptor",) * 2, {}, (),
                     lambda a, b: fd.detect.FreeProduct(a, b)),
    "direct_product": ("descriptor", ("descriptor",) * 2, {}, (),
                       lambda a, b: fd.detect.DirectProduct(a, b)),
    "finite_index_super": ("descriptor", ("descriptor", "int", "name"),
                           {"homology": "homology"}, ("homology",), _finite_index_super),
}


# the group files read so far in the ``run`` call under way, {path:
# presentation}, or None outside one
_GROUPS: ContextVar[dict[Path, GroupPresentation] | None] = ContextVar("groups", default=None)


def _group_file(path: Path) -> GroupPresentation:
    """The presentation in ``path``, read and parsed once per ``run`` call."""
    groups = _GROUPS.get()
    if groups is None:
        return parse_presentation(path.read_text())
    if (G := groups.get(path)) is None:
        G = groups[path] = parse_presentation(path.read_text())
    return G


def _argument(value, typ: str, where: str, basedir: Path | None, caller: str):
    if typ in _KINDS:
        return _build(value, typ, basedir, caller)
    what, shape = _TYPES[typ]
    if not _fits(value, shape):
        raise ExprError(f"{where} must be {what}, got {value!r}")
    return _group_file(basedir / value) if typ == "file" else value


def _build(ast, kind: str, basedir: Path | None, caller: str | None = None):
    """Check a call of ``kind`` (an argument of ``caller``) against
    _CONSTRUCTORS, build its arguments in order and then the call; a
    builder's ValueError becomes an ExprError."""
    if kind == "cover" and isinstance(ast, str):
        ast = Call(ast, [], {})  # a bare cover name, as in cover=klein_even
    not_a_call, unknown = _KINDS[kind]
    if not isinstance(ast, Call):
        raise ExprError(not_a_call.format(ast, caller=caller))
    name = ast.name
    entry = _CONSTRUCTORS.get(name)
    if entry is None or entry[0] != kind:
        raise ExprError(unknown.format(name, caller=caller))
    _, arg_types, kw_types, required, builder = entry
    if len(ast.args) != len(arg_types):
        raise ExprError(
            f"{name} takes {len(arg_types)} positional argument(s), got {len(ast.args)}"
        )
    missing = [k for k in required if k not in ast.kwargs]
    if missing:
        raise ExprError(f"{name} needs keyword argument(s) {', '.join(missing)}")
    extra = sorted(set(ast.kwargs) - set(kw_types))
    if extra:
        raise ExprError(f"{name} got unknown keyword argument(s) {', '.join(extra)}")
    args = [
        _argument(v, t, f"{name} argument {i}", basedir, name)
        for i, (v, t) in enumerate(zip(ast.args, arg_types), 1)
    ]
    kwargs = {
        k: _argument(ast.kwargs[k], t, f"{name} keyword {k}", basedir, name)
        for k, t in kw_types.items()
        if k in ast.kwargs
    }
    try:
        return builder(*args, **kwargs)
    except ValueError as exc:
        raise ExprError(str(exc)) from exc


def build_family(ast, basedir: Path) -> fd.families.Family:
    return _build(ast, "family", basedir)


def build_descriptor(ast) -> fd.detect.GroupClass:
    with fd.detect.expression_budget():  # one exponent-sum budget for all leaves
        return _build(ast, "descriptor", None)


def _load_family(path: str) -> fd.families.Family:
    path = Path(path)
    return build_family(parse_expression(path.read_text()), path.parent)


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _float(v: float) -> str:
    """A float as ``json`` writes it, a subclass (numpy.float64) as a float."""
    text = float.__repr__(v)
    return _NONFINITE.get(text, text)


# exact type -> its writer (rep solve's matrices hold numpy.float64); _write tests subclasses
_SCALARS = {str: _quote, int: int.__repr__, float: _float, np.float64: _float,
            bool: lambda v: "true" if v else "false", type(None): lambda v: "null"}
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # float.__repr__ -> json


def _write(obj, indent: str, out: list[str]) -> None:
    """Append to ``out`` what ``json.dumps(obj, sort_keys=True, indent=2)`` writes at
    ``indent``, keys being strings, and a ``detect.SparseMatrix`` as its dense "p/q"
    rows: the all-"0/1" row, cell j at a fixed offset, with the nonzero cells spliced in."""
    scalar = _SCALARS.get(type(obj))
    if scalar is not None:
        out.append(scalar(obj))
        return
    inner = indent + "  "
    brackets = "{}" if isinstance(obj, dict) else "[]"
    head, sep, start = brackets[0] + inner, "," + inner, len(out)
    if isinstance(obj, dict):
        for k, v in sorted(obj.items()):
            out.append(f"{head}{_quote(k)}: ")
            head = sep
            _write(v, inner, out)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            out.append(head)
            head = sep
            _write(v, inner, out)
    elif isinstance(obj, fd.detect.SparseMatrix):
        cell = inner + "  "
        zero = "[" + ",".join([f'{cell}"0/1"'] * obj.width) + f"{inner}]" if obj.width else "[]"
        first, step = 1 + len(cell), 6 + len(cell)
        for row in obj.rows:
            out.append(head)
            head, pos = sep, 0
            for j, e in row.items():
                at = first + j * step
                out += (zero[pos:at], f'"{e.numerator}/{e.denominator}"')
                pos = at + 5
            out.append(zero[pos:])
    else:
        for t in (str, int, float):  # a subclass, tested in json's order
            if isinstance(obj, t):
                out.append(_SCALARS[t](obj))
                return
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    out.append(indent + brackets[1] if len(out) > start else brackets)


def _emit(obj: dict, out: str | None) -> None:
    _write(obj, "\n", chunks := [])
    text = "".join(chunks + ["\n"])
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _matrix_records(m: np.ndarray):
    return [[[v.real, v.imag] for v in row] for row in np.asarray(m)]


def _family_record(f: fd.families.Family) -> dict:
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
    if not G.generators:
        raise PresentationError("rep solve needs at least one generator")
    cfg = fd.repvar.SolveConfig(tolerance=ns.tol, max_iter=ns.max_iter, seed=ns.seed)
    result = fd.repvar.solve_representation(G, ns.dim, cfg)
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
    f = _load_family(ns.expr)
    try:
        fd.families.verify_family(f)
    except ValueError as exc:
        sys.stderr.write(f"family verification failed: {exc}\n")
        return EXIT_OBSTRUCTION
    _emit(_family_record(f), ns.out)
    return EXIT_OK


def _cmd_forms_chern(ns) -> int:
    f = _load_family(ns.family)
    windings = fd.families.numeric_c1_windings(f, ns.resolution)
    _emit(
        {
            "kind": "chern_windings",
            "family": f.structure,
            "generators": list(f.group.generators),
            "windings": windings,
            "sign_conventions": fd.charforms.SIGN_CONVENTIONS,
        },
        ns.out,
    )
    return EXIT_OK


_FORM_OPS = {"wedge": operator.mul, "sum": operator.add}


def _cmd_forms_eval(ns) -> int:
    payload = json.loads(Path(ns.infile).read_text(), parse_int=_int_literal)
    if not isinstance(payload, dict):
        raise ExprError("forms payload must be a JSON object")
    op = payload.get("op", "wedge")
    if not isinstance(op, str) or op not in _FORM_OPS:
        raise ExprError(f"unknown op {op!r}: expected one of wedge, sum")
    operands = payload.get("operands")
    if not isinstance(operands, list):
        raise ExprError("operands must be a list of form record lists")
    if not operands:
        raise ExprError("no operands")
    try:
        acc = functools.reduce(
            _FORM_OPS[op], [fd.charforms.MultiForm.from_records(r) for r in operands]
        )
    except ValueError as exc:  # a malformed record, or a wedge past the term budget
        raise ExprError(str(exc)) from exc
    _emit({"kind": "multiform", "op": op, "records": acc.to_records()}, ns.out)
    return EXIT_OK


def _detection(ns) -> fd.detect.DetectionReport:
    """The exact detection matrix when every family has character data and
    every class of the descriptor a cycle, else the numeric report of the
    single family."""
    descriptor = build_descriptor(parse_expression(ns.group))
    fams = [_load_family(p) for p in ns.families or []]
    if (all(f.chern is not None for f in fams)
            and all(c.cycle is not None for c in descriptor.classes)):
        return fd.detect.detection_matrix(descriptor, fams)
    if len(fams) != 1:
        raise fd.detect.DetectionError("the numeric pairing path takes a single family")
    return fd.detect.numeric_detection_report(descriptor, fams[0])


def _cmd_detect_run(ns) -> int:
    report = _detection(ns)
    _emit(report.to_json_dict(), ns.out)
    return EXIT_OK if report.verdict == "FD-certified" else EXIT_OBSTRUCTION


def _cmd_report(ns) -> int:
    if ns.families and not ns.group:
        sys.stderr.write("error: report --families needs --group\n")
        return EXIT_USAGE
    out: dict = {"kind": "report"}
    status = EXIT_OK
    if ns.group:
        report = _detection(ns)
        out["detection"] = report.to_json_dict()
        out["verdict"] = report.verdict
        status = EXIT_OK if report.verdict == "FD-certified" else EXIT_OBSTRUCTION
    if ns.bm:
        f, index = ns.bm
        g, bound, excluded = fd.detect.bm_obstruction(f, index)
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


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _checked(convert, ok, need: str):
    """An argparse type that converts the flag text, then requires ok(value)."""

    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{need}, got {text}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


_POSITIVE = _checked(int, lambda v: v >= 1, "must be >= 1")
_NONNEGATIVE = _checked(int, lambda v: v >= 0, "must be >= 0")


def _resolution(text: str) -> int:
    """A ``forms chern --resolution`` value, checked against
    ``families.MAX_LOOP_SAMPLES`` as it is parsed, not as the parser is built."""
    high = fd.families.MAX_LOOP_SAMPLES
    return _checked(int, lambda v: 2 <= v <= high, f"must be >= 2 and <= {high}")(text)


_resolution.__name__ = "int"  # argparse names it in "invalid int value"


# command path -> its leaf parser, the one that sets ``fn``: the very parser
# objects of the tree, recorded as _build_argparser adds them
_LEAVES: dict[tuple[str, ...], argparse.ArgumentParser] = {}


@functools.cache
def _build_argparser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="flatdetect")
    sub = p.add_subparsers(dest="command", required=True)

    def leaf(parent, path: tuple[str, ...], fn, help: str) -> argparse.ArgumentParser:
        _LEAVES[path] = lp = parent.add_parser(path[-1], help=help)
        lp.set_defaults(fn=fn)
        return lp

    sp = leaf(sub, ("parse",), _cmd_parse, "normalize a presentation file")
    sp.add_argument("--presentation", required=True)
    sp.add_argument("--out")

    rep = sub.add_parser("rep", help="representation variety commands")
    repsub = rep.add_subparsers(dest="subcommand", required=True)
    rs = leaf(repsub, ("rep", "solve"), _cmd_rep_solve, "solve for a representation point")
    rs.add_argument("--presentation", required=True)
    rs.add_argument("--dim", type=_POSITIVE, required=True)
    rs.add_argument(
        "--tol", type=_checked(float, lambda v: v > 0, "must be > 0"), default=1e-8
    )
    rs.add_argument("--seed", type=_NONNEGATIVE, default=0)
    rs.add_argument("--max-iter", type=_NONNEGATIVE, default=2000)
    rs.add_argument("--out")

    fam = sub.add_parser("family", help="family construction commands")
    famsub = fam.add_subparsers(dest="subcommand", required=True)
    fb = leaf(famsub, ("family", "build"), _cmd_family_build,
              "build and verify a family expression")
    fb.add_argument("--expr", required=True)
    fb.add_argument("--out")

    forms = sub.add_parser("forms", help="characteristic form commands")
    formssub = forms.add_subparsers(dest="subcommand", required=True)
    fc = leaf(formssub, ("forms", "chern"), _cmd_forms_chern,
              "numeric winding Chern data of a family")
    fc.add_argument("--family", required=True)
    fc.add_argument("--resolution", default=64, type=_resolution)
    fc.add_argument("--out")
    fe = leaf(formssub, ("forms", "eval"), _cmd_forms_eval, "combine serialized forms")
    fe.add_argument("--in", dest="infile", required=True)
    fe.add_argument("--out")

    det = sub.add_parser("detect", help="detection pairing commands")
    detsub = det.add_subparsers(dest="subcommand", required=True)
    dr = leaf(detsub, ("detect", "run"), _cmd_detect_run, "compute a detection report")
    dr.add_argument("--group", required=True)
    dr.add_argument("--families", nargs="+", required=True)
    dr.add_argument("--out")

    rp = leaf(sub, ("report",), _cmd_report, "combined detection / obstruction report")
    rp.add_argument("--group")
    rp.add_argument("--families", nargs="*")
    rp.add_argument(
        "--bm", nargs=2, type=_checked(int, lambda v: v >= 2, "must be >= 2"),
        metavar=("FREE_RANK", "INDEX"),
    )
    rp.add_argument("--out")

    return p


def _parse(argv: list[str]) -> argparse.Namespace:
    """argv's namespace, less ``command`` and ``subcommand``: parsed by its
    leaf parser when argv starts with a full command path, as the tree
    parses it there, else through the tree (an unknown or partial command,
    a top-level flag, ``--``)."""
    parser = _build_argparser()
    for depth in (2, 1):
        leaf = _LEAVES.get(tuple(argv[:depth]))
        if leaf is not None:
            ns, extra = leaf.parse_known_args(argv[depth:])
            if extra:  # the tree's message, under the top-level usage
                parser.error(f"unrecognized arguments: {' '.join(extra)}")
            return ns
    return parser.parse_args(argv)


def run(argv: list[str]) -> int:
    try:
        ns = _parse(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    token = _GROUPS.set({})
    try:
        return ns.fn(ns)
    except (
        PresentationError, ExprError, json.JSONDecodeError, UnicodeDecodeError, OSError
    ) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    except RecursionError:
        sys.stderr.write("error: input nested too deeply\n")
        return EXIT_PARSE
    except MemoryError:
        sys.stderr.write("error: input too large to allocate\n")
        return EXIT_PARSE
    except ValueError as exc:  # detect.DetectionError among them
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_OBSTRUCTION
    finally:
        _GROUPS.reset(token)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
