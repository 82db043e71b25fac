import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import flatdetect
from flatdetect import cli
from flatdetect.cli import (
    Call,
    ExprError,
    build_descriptor,
    build_family,
    parse_expression,
    run,
)
from flatdetect.detect import FiniteIndexSuper, FreeAbelian, SparseMatrix
from flatdetect.presentation import parse_presentation

Z2_SRC = "gens: a b ; rels: a b a^-1 b^-1 ;\n"
KLEIN_SRC = "gens: a b ; rels: a b a b^-1 ;\n"


def _encode(obj) -> str:
    """``obj`` as the CLI's writer writes a payload."""
    cli._write(obj, "\n", chunks := [])
    return "".join(chunks)


def _dense(obj):
    """``obj`` with every SparseMatrix in it replaced by its dense rows of "p/q" strings."""
    if isinstance(obj, SparseMatrix):
        return [[f"{row[j].numerator}/{row[j].denominator}" if j in row else "0/1"
                 for j in range(obj.width)] for row in obj.rows]
    if isinstance(obj, dict):
        return {k: _dense(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_dense(v) for v in obj]
    return obj


@pytest.fixture(autouse=True, scope="module")
def emitted_as_json_dumps_writes():
    """Every text a subcommand emits here, to --out or to stdout, is the one
    ``json.dumps(sort_keys=True, indent=2)`` writes for its payload with the
    sparse matrix expanded."""
    emit = cli._emit

    def checked(obj, out):
        real, sys.stdout = sys.stdout, io.StringIO()
        try:
            emit(obj, out)
            text = Path(out).read_text() if out else sys.stdout.getvalue()
        finally:
            captured, sys.stdout = sys.stdout, real
        real.write(captured.getvalue())
        assert text == json.dumps(_dense(obj), sort_keys=True, indent=2) + "\n"

    cli._emit = checked
    yield
    cli._emit = emit


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "z2.grp").write_text(Z2_SRC)
    (tmp_path / "klein.grp").write_text(KLEIN_SRC)
    (tmp_path / "z2.fam").write_text("char_zn(2, 8)\n")
    (tmp_path / "klein.fam").write_text(
        "induce(char_zn(2, 8), cosets=[e, b], group=klein.grp)\n"
    )
    return tmp_path


# ---------------------------------------------------------------------------
# expression language
# ---------------------------------------------------------------------------


def test_parse_expression_nested_call():
    ast = parse_expression("tensor(char_zn(1, 4), char_zn(2, 8))")
    assert isinstance(ast, Call)
    assert ast.name == "tensor"
    assert ast.args[0].name == "char_zn"
    assert ast.args[1].args == [2, 8]


def test_parse_expression_kwargs_and_words():
    ast = parse_expression("induce(char_zn(2, 32), cosets=[e, b], group=klein.grp)")
    assert ast.kwargs["cosets"] == ["", "b"]
    assert ast.kwargs["group"] == "klein.grp"


def test_parse_expression_word_items():
    ast = parse_expression("f(cosets=[e, a b^-1, b])")
    assert ast.kwargs["cosets"] == ["", "a b^-1", "b"]


def test_parse_expression_nested_lists():
    ast = parse_expression("sublattice([[2, 0], [0, 1]])")
    assert ast.args == [[[2, 0], [0, 1]]]


def test_parse_expression_errors():
    with pytest.raises(ExprError):
        parse_expression("char_zn(2, 8) trailing")
    with pytest.raises(ExprError):
        parse_expression("char_zn(2,")
    with pytest.raises(ExprError):
        parse_expression("!bad")


def test_build_descriptor_variants():
    d = build_descriptor(parse_expression("direct_product(free(2), free_abelian(1))"))
    assert d.describe() == "direct_product(free(2), free_abelian(1))"
    d2 = build_descriptor(
        parse_expression(
            "finite_index_super(free_abelian(2), 2, klein, homology=[[pt], [b]])"
        )
    )
    assert d2 == FiniteIndexSuper(FreeAbelian(2), 2, "klein", (("pt",), ("b",)))


def test_build_family_induce_with_inferred_cover(workdir):
    ast = parse_expression("induce(char_zn(2, 32), cosets=[e, b], group=klein.grp)")
    f = build_family(ast, workdir)
    assert f.fiber_dims == (2,)
    assert f.group.generators == ("a", "b")


def test_build_family_induce_named_klein_cover_keeps_group_names(workdir):
    (workdir / "kxy.grp").write_text("gens: x y ; rels: x y x y^-1 ;\n")
    ast = parse_expression(
        "induce(char_zn(2, 32), cover=klein_even, cosets=[e, y], group=kxy.grp)"
    )
    f = build_family(ast, workdir)
    assert f.fiber_dims == (2,)
    assert f.group.generators == ("x", "y")


@pytest.mark.parametrize(
    "expr",
    [
        "induce(char_zn(2, 8), cosets=[e, b], group={})",
        "induce(char_zn(2, 8), cover=klein_even, cosets=[e, b], group={})",
        "pullback(trivial(group={}, dim=2), group={})",
        "pullback(trivial(group={}, dim=2), cover=klein_even, group={})",
    ],
)
def test_a_rotated_klein_relator_builds_like_the_canonical_one(workdir, expr):
    """The inferred and the explicit klein_even accept the Klein-bottle group
    whatever rotation of its relator, or of the inverse, the file writes."""
    (workdir / "rot.grp").write_text("gens: a b ; rels: b a b^-1 a ;\n")
    (workdir / "inv.grp").write_text("gens: a b ; rels: b a^-1 b^-1 a^-1 ;\n")
    records = {}
    for grp in ("klein.grp", "rot.grp", "inv.grp"):
        (workdir / "k.fam").write_text(expr.format(grp, grp) + "\n")
        out = workdir / f"{grp}.json"
        assert run(["family", "build", "--expr", str(workdir / "k.fam"), "--out", str(out)]) == 0
        records[grp] = json.loads(out.read_text())
        del records[grp]["group"]  # an induced family prints the file's relator
    canonical = records.pop("klein.grp")
    assert records == {"rot.grp": canonical, "inv.grp": canonical}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def test_parse_roundtrip(workdir, capsys):
    code = run(["parse", "--presentation", str(workdir / "z2.grp")])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert parse_presentation(out["text"]) == parse_presentation(Z2_SRC)


def test_parse_bad_file_exit3(workdir):
    bad = workdir / "bad.grp"
    bad.write_text("gens a ; rels: ;")
    assert run(["parse", "--presentation", str(bad)]) == 3
    assert run(["parse", "--presentation", str(workdir / "missing.grp")]) == 3


def test_usage_error_exit2():
    assert run(["bogus"]) == 2
    assert run(["rep", "solve"]) == 2  # missing required flags


def test_argument_parser_is_built_once_and_lazily():
    assert cli._build_argparser() is cli._build_argparser()
    env = {**os.environ, "PYTHONPATH": str(Path(flatdetect.__file__).parents[1])}
    probe = "import flatdetect.cli as c; print(c._build_argparser.cache_info().currsize)"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.stdout == "0\n", proc.stderr


# Which flatdetect submodules have run, in a fresh interpreter, after an
# import or one command.  The package imports a submodule on the first read
# of its name, so a module in sys.modules is one that has run; the probe
# lists the plain modules there and reads none of their attributes.
_EXECUTED = (
    "import sys, types\n"
    "print(sorted(n.split('.', 1)[1] for n, m in list(sys.modules.items())\n"
    "             if n.startswith('flatdetect.') and type(m) is types.ModuleType))\n"
)
_COMPUTE = {"charforms", "detect", "families", "presentation", "repvar"}


@pytest.mark.parametrize(
    "module, argv, executed",
    [
        ("flatdetect", None, set()),
        ("flatdetect.cli", None, {"cli", "presentation"}),
        ("flatdetect.cli", ["parse", "--presentation", "z2.grp"], {"cli", "presentation"}),
        ("flatdetect.cli", ["rep", "solve", "--presentation", "z2.grp", "--dim", "2"],
         {"cli", "presentation", "repvar"}),
        ("flatdetect.cli", ["family", "build", "--expr", "z2.fam"],
         {"cli"} | _COMPUTE - {"detect"}),
        ("flatdetect.cli", ["detect", "run", "--group", "free_abelian(2)", "--families", "z2.fam"],
         {"cli"} | _COMPUTE),
    ],
    ids=["import-package", "import-cli", "parse", "rep-solve", "family-build", "detect-run"],
)
def test_each_command_runs_only_the_modules_it_uses(workdir, module, argv, executed):
    env = {**os.environ, "PYTHONPATH": str(Path(flatdetect.__file__).parents[1])}
    probe = f"import {module}\n"
    if argv is not None:
        probe += f"assert flatdetect.cli.run({argv + ['--out', 'out.json']!r}) == 0\n"
    proc = subprocess.run(
        [sys.executable, "-c", probe + _EXECUTED],
        capture_output=True, text=True, env=env, cwd=workdir, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{sorted(executed)}\n"


# One process parses usage errors, flags given and flags left to their
# defaults, in one order and then in the other; a default or namespace that
# leaked from one call into the next would change a rerun's outcome.
_PARSE_SEQUENCE = [
    ["rep", "solve", "--presentation", "z2.grp", "--dim", "0"],
    ["rep", "solve", "--presentation", "z2.grp", "--dim", "2",
     "--tol", "1e-3", "--seed", "7", "--max-iter", "1", "--out", "solve.json"],
    ["rep", "solve", "--presentation", "z2.grp", "--dim", "2"],
    ["report", "--group", "free_abelian(2)", "--families", "z2.fam", "--out", "report.json"],
    ["report", "--bm", "2", "2"],
    ["report", "--families", "z2.fam"],
]


def test_reused_parser_keeps_no_state_between_calls(workdir, capsys):
    def outcome(argv):
        argv = [str(workdir / a) if a.endswith((".grp", ".fam", ".json")) else a for a in argv]
        out = Path(argv[-1]) if "--out" in argv else None
        if out:
            out.unlink(missing_ok=True)
        code = run(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err, out.read_bytes() if out else None

    first = [outcome(argv) for argv in _PARSE_SEQUENCE]
    assert [o[0] for o in first] == [2, 4, 0, 0, 0, 2]
    assert all(o[3] for o in first if o[3] is not None)
    again = [outcome(argv) for argv in reversed(_PARSE_SEQUENCE)]
    assert again[::-1] == first


# every leaf command with valid flags, given and left to their defaults
_LEAF_ARGVS = [
    ["parse", "--presentation", "z2.grp", "--out", "p.json"],
    ["rep", "solve", "--presentation", "z2.grp", "--dim", "2", "--tol", "1e-3",
     "--seed", "7", "--max-iter", "5", "--out", "s.json"],
    ["rep", "solve", "--presentation", "z2.grp", "--dim", "2"],
    ["family", "build", "--expr", "z2.fam"],
    ["forms", "chern", "--family", "z2.fam", "--resolution", "128"],
    ["forms", "eval", "--in", "f.json"],
    ["detect", "run", "--group", "free_abelian(2)", "--families", "z2.fam", "klein.fam"],
    ["report", "--group", "free_abelian(2)", "--families", "z2.fam", "--bm", "2", "3"],
    ["report", "--families"],
    ["report"],
]
# argvs that parse, fail to parse or ask for help, at every level of the tree
_DISPATCH_ARGVS = [
    *_LEAF_ARGVS,
    *([*argv, "--bogus"] for argv in _LEAF_ARGVS),  # unknown flag: the top-level usage
    ["rep", "solve", "--presentation", "z2.grp"],  # a required flag missing
    ["detect", "run", "--group", "free_abelian(2)", "--families"],
    ["rep", "solve", "--presentation", "z2.grp", "--dim", "0"],
    ["rep", "solve", "--presentation", "z2.grp", "--dim", "-1"],
    ["rep", "solve", "--presentation", "z2.grp", "--dim", "2", "--seed"],
    ["forms", "chern", "--family", "z2.fam", "--resolution", "65537"],
    ["report", "--bm", "1", "2"],
    ["-h"], ["detect", "-h"], ["detect", "run", "-h"], ["report", "-h"], ["rep", "solve", "--help"],
    ["rep", "solve", "--pres", "z2.grp", "--dim", "2"],  # an abbreviated flag
    ["rep", "solve", "--presentation=z2.grp", "--dim=2", "--max-iter=3"],
    ["detect", "run", "--group", "free(2)", "--families", "z2.fam", "--", "klein.fam"],
    ["parse", "run"], ["report", "run"],  # a stray positional after a leaf
    ["bogus"], ["detect"], ["detect", "bogus"], ["rep", "--dim", "2"], [],
    ["--", "parse", "--presentation", "z2.grp"],
]


@pytest.fixture
def recorded_commands(monkeypatch):
    """The namespaces the commands are called with: the parser tree is rebuilt
    around stand-ins for every command that record their namespace and return 0."""
    seen = []
    for name in ("_cmd_parse", "_cmd_rep_solve", "_cmd_family_build", "_cmd_forms_chern",
                 "_cmd_forms_eval", "_cmd_detect_run", "_cmd_report"):
        monkeypatch.setattr(cli, name, lambda ns: seen.append(ns) or 0)
    cli._build_argparser.cache_clear()
    yield seen
    cli._build_argparser.cache_clear()  # the next build takes the real commands


@pytest.mark.parametrize("argv", _DISPATCH_ARGVS, ids=lambda argv: " ".join(argv) or "empty")
def test_run_parses_every_argv_as_the_whole_tree_does(recorded_commands, capsys, argv):
    """``run`` exits, prints and calls its command as a parse through the
    whole parser tree does, with that parse's namespace less the ``command``
    and ``subcommand`` names of the tree's inner parsers."""
    got = (run(argv), *capsys.readouterr())
    try:
        ns = cli._build_argparser().parse_args(argv)
    except SystemExit as exc:
        assert got == (2 if exc.code else 0, *capsys.readouterr())
        assert recorded_commands == []
        return
    assert got == (0, "", "")

    def named(ns):
        return {k: v for k, v in vars(ns).items() if k not in ("command", "subcommand")}

    assert list(map(named, recorded_commands)) == [named(ns)]


def test_a_group_file_is_read_once_per_call_and_again_on_the_next(workdir, capsys, monkeypatch):
    """However often one ``run`` call's expressions name a group file, it is
    parsed once; the next call reads it again."""
    monkeypatch.chdir(workdir)
    (workdir / "f2.grp").write_text(F2 := "gens: a b ; rels: ;\n")
    halves = [f"extend(char_zn(1, 4, gens=[{g}]), group=f2.grp)" for g in "ab"]
    (workdir / "union.fam").write_text(f"union({halves[0]}, {halves[1]})\n")
    for g, half in zip("ab", halves):
        (workdir / f"{g}.fam").write_text(half + "\n")
    parsed = []
    parse = cli.parse_presentation
    monkeypatch.setattr(cli, "parse_presentation", lambda text: parsed.append(text) or parse(text))
    for fams in (["union.fam"], ["a.fam", "b.fam"]):
        parsed.clear()
        assert run(["detect", "run", "--group", "free(2)", "--families", *fams]) == 0
        assert parsed == [F2]
    capsys.readouterr()
    (workdir / "f2.grp").write_text(F3 := "gens: a b c ; rels: ;\n")
    parsed.clear()
    assert run(["detect", "run", "--group", "free(2)", "--families", "a.fam", "b.fam"]) == 3
    assert parsed == [F3]
    assert "has 3 base labels, but free(2) has 2" in capsys.readouterr().err


_LONG_INT = "1" + "0" * 5000


@pytest.mark.parametrize(
    "argv, name, text",
    [
        (["family", "build", "--expr"], "long.fam", f"char_zn(2, {_LONG_INT})"),
        (["detect", "run", "--families", "z2.fam", "--group"], None,
         f"free_abelian({_LONG_INT})"),
        (["forms", "eval", "--in"], "long.json", f'[[["z1"], {_LONG_INT}, 1]]'),
    ],
    ids=["fam", "group", "forms-eval"],
)
def test_integer_literal_past_the_digit_limit_exit3(workdir, capsys, argv, name, text):
    if name:
        (workdir / name).write_text(text + "\n")
        text = str(workdir / name)
    argv = [str(workdir / a) if a.endswith(".fam") else a for a in argv]
    assert run([*argv, text]) == 3
    assert capsys.readouterr().err == (
        "error: integer literal too long to convert "
        f"(5001 digits, the limit is {sys.get_int_max_str_digits()})\n"
    )


def test_rep_solve_success_and_determinism(workdir):
    out1 = workdir / "p1.json"
    out2 = workdir / "p2.json"
    args = ["rep", "solve", "--presentation", str(workdir / "z2.grp"),
            "--dim", "2", "--seed", "5", "--tol", "1e-8"]
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    rec = json.loads(out1.read_text())
    assert rec["converged"] is True
    assert rec["defect"] <= 1e-8
    assert set(rec["matrices"]) == {"a", "b"}


def test_rep_solve_nonconvergence_exit4(workdir):
    code = run(
        ["rep", "solve", "--presentation", str(workdir / "z2.grp"),
         "--dim", "2", "--seed", "5", "--max-iter", "0",
         "--out", str(workdir / "nc.json")]
    )
    assert code == 4
    assert json.loads((workdir / "nc.json").read_text())["converged"] is False


def test_rep_solve_without_generators_exit3(workdir, capsys):
    (workdir / "none.grp").write_text("gens: ; rels: ;\n")
    assert parse_presentation("gens: ; rels: ;").generators == ()
    out = workdir / "none.json"
    code = run(
        ["rep", "solve", "--presentation", str(workdir / "none.grp"),
         "--dim", "2", "--out", str(out)]
    )
    assert code == 3
    assert capsys.readouterr().err == "error: rep solve needs at least one generator\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "group, fam, counts",
    [
        ("free_abelian(2)", "z4.fam", "char_zn(4, 2)) has 4 base labels, but free_abelian(2) has 2"),
        ("surface(1)", "z4.fam", "char_zn(4, 2)) has 4 base labels, but surface(1) has 2"),
        ("free_abelian(3)", "z2.fam", "char_zn(2, 8)) has 2 base labels, but free_abelian(3) has 3"),
        # every relator must hold on the family: Z/3 x Z, whose z1^z2 would
        # certify though it is 0 in H_2, and the Klein group
        ("group(t3.grp)", "z2.fam", "is no family of group(t3.grp): its relator 'z1 z1 z1' "
         "does not hold on component 0"),
        ("group(klein.grp)", "z2.fam", "is no family of group(klein.grp): its relator "
         "'z1 z2 z1 z2^-1' does not hold on component 0"),
    ],
)
def test_exact_family_of_another_group_exit3(workdir, capsys, monkeypatch, group, fam, counts):
    monkeypatch.chdir(workdir)
    (workdir / "t3.grp").write_text("gens: a b ; rels: a a a , a b a^-1 b^-1 ;\n")
    (workdir / "z4.fam").write_text("char_zn(4, 2)\n")
    path = str(workdir / fam)
    for argv in (
        ["detect", "run", "--group", group, "--families", path],
        ["report", "--group", group, "--families", path],
        ["detect", "run", "--group", group, "--families", str(workdir / "z2.fam"), path],
    ):
        out = workdir / "mismatch.json"
        assert run(argv + ["--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: family ") and err.endswith(counts + "\n")
        assert err.count("\n") == 1 and not out.exists()


def test_base_label_count_is_checked_before_pairing(workdir, capsys, monkeypatch):
    def pairing(*args, **kwargs):
        raise AssertionError("paired a family of another group")
    monkeypatch.setattr(flatdetect.detect, "_pairing", pairing)
    for command in (["detect", "run"], ["report"]):
        for group, fam, counts in (
            ("free_abelian(3)", "z2.fam", "char_zn(2, 8)) has 2 base labels, but "
             "free_abelian(3) has 3"),
            ("free(3)", "klein.fam", "induce(char_zn(2, 8), klein_even(index=2))) has 2 "
             "base labels, but free(3) has 3"),
        ):
            argv = command + ["--group", group, "--families", str(workdir / fam)]
            assert run(argv) == 3
            assert capsys.readouterr().err == f"error: family 0 ({counts}\n"


def test_detect_run_z2_certified(workdir):
    out = workdir / "rep.json"
    code = run(
        ["detect", "run", "--group", "free_abelian(2)",
         "--families", str(workdir / "z2.fam"), "--out", str(out)]
    )
    assert code == 0
    rec = json.loads(out.read_text())
    assert rec["verdict"] == "FD-certified"
    assert rec["mode"] == "exact"
    assert len(rec["matrix"]) == 4
    assert rec["matrix"][0][0] == "1/1"
    assert "scope_note" in rec and "sign_conventions" in rec


def test_detect_run_klein_numeric(workdir):
    out = workdir / "klein_rep.json"
    code = run(
        ["detect", "run",
         "--group", "finite_index_super(free_abelian(2), 2, klein, homology=[[pt], [b]])",
         "--families", str(workdir / "klein.fam"), "--out", str(out)]
    )
    assert code == 0
    rec = json.loads(out.read_text())
    assert rec["verdict"] == "FD-certified"
    assert rec["mode"] == "numeric"


@pytest.mark.parametrize(
    "group, message",
    [
        # the numeric path checks the base-label count as the exact one does
        ("free_abelian(1)", "family 0 (induce(char_zn(2, 8), klein_even(index=2))) has 2 base "
         "labels, but free_abelian(1) has 1"),
        ("free(5)", "family 0 (induce(char_zn(2, 8), klein_even(index=2))) has 2 base "
         "labels, but free(5) has 5"),
        # and the relators: [a, b] = a^2 in the Klein group, so the commutator,
        # of exponent sums 0, does not hold on the Klein family
        ("group(z2.grp)", "family 0 (induce(char_zn(2, 8), klein_even(index=2))) is no family "
         "of group(z2.grp): its relator 'z1 z2 z1^-1 z2^-1' does not hold on component 0"),
        ("free_abelian(2)", "family 0 (induce(char_zn(2, 8), klein_even(index=2))) is no family "
         "of free_abelian(2): its relator 'z1 z2 z1^-1 z2^-1' does not hold on component 0"),
        # nor do b b and a a a
        ("group(b2.grp)", "family 0 (induce(char_zn(2, 8), klein_even(index=2))) is no family "
         "of group(b2.grp): its relator 'z2 z2' does not hold on component 0"),
        ("group(t3.grp)", "family 0 (induce(char_zn(2, 8), klein_even(index=2))) is no family "
         "of group(t3.grp): its relator 'z1 z1 z1' does not hold on component 0"),
        # a descriptor without base labels pairs by its labels alone
        ("finite_index_super(free_abelian(2), 2, klein, homology=[[pt], [c]])",
         "class 'c' of finite_index_super(free_abelian(2), 2, klein) is not a word in the "
         "family's generators (a, b)"),
    ],
)
def test_numeric_pairing_of_another_group_exit3(workdir, capsys, monkeypatch, group, message):
    monkeypatch.chdir(workdir)
    (workdir / "b2.grp").write_text("gens: a b ; rels: b b ;\n")
    (workdir / "t3.grp").write_text("gens: a b ; rels: a a a , a b a^-1 b^-1 ;\n")
    for command in (["detect", "run"], ["report"]):
        out = workdir / "n.json"
        argv = command + ["--group", group, "--families", str(workdir / "klein.fam")]
        assert run(argv + ["--out", str(out)]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


def test_a_family_on_which_every_relator_holds_pairs(workdir, monkeypatch):
    """Every relator of Z/3 x Z holds on a trivial family of the free group,
    although a a a is none of its group's relators: it pairs, undetected."""
    monkeypatch.chdir(workdir)
    (workdir / "t3.grp").write_text("gens: a b ; rels: a a a , a b a^-1 b^-1 ;\n")
    (workdir / "f2.grp").write_text("gens: a b ; rels: ;\n")
    (workdir / "trivial.fam").write_text("trivial(group=f2.grp)\n")
    assert run(["detect", "run", "--group", "group(t3.grp)", "--families", "trivial.fam",
                "--out", "t.json"]) == 5
    assert json.loads(Path("t.json").read_text())["verdict"] == "undetected"


def test_a_relator_that_might_compose_past_the_bound_exit3(workdir, capsys, monkeypatch):
    """The family builds under its own bound 2^59 + 1, but a relator of 8
    letters might compose past 2^62 on it: refused before composing."""
    monkeypatch.chdir(workdir)
    (workdir / "c2.grp").write_text("gens: a b ; rels: a b a^-1 b^-1 a b a^-1 b^-1 ;\n")
    (workdir / "big.fam").write_text(
        "pullback(char_zn(2, 4), cover=sublattice([[288230376151711745, 288230376151711744], "
        "[288230376151711744, 288230376151711743]]), cosets=[e], group=z2.grp)\n")
    assert run(["family", "build", "--expr", str(workdir / "big.fam"),
                "--out", str(workdir / "big.json")]) == 0
    assert run(["detect", "run", "--group", "group(c2.grp)",
                "--families", str(workdir / "big.fam")]) == 3
    assert capsys.readouterr().err == (
        "error: family 0 (pullback(char_zn(2, 4), sublattice(index=1))) against group(c2.grp): "
        "a word of 8 letters over phase exponents up to 576460752303423489 may compose to "
        "4611686018427387912, more than the 4611686018427387904 composed at most\n")


@pytest.mark.parametrize(
    "group, rows",
    [("free(2)", ["pt", "z1", "z2"]), ("free_product(free(1), free(1))", ["pt", "z1", "R.z1"])],
)
def test_model_classes_pair_a_numeric_family_by_position(workdir, group, rows):
    """A model class pairs by position on the numeric path too: z1 is the
    Klein family's generator a, whose determinant does not wind."""
    for command in (["detect", "run"], ["report"]):
        out = workdir / "n.json"
        argv = command + ["--group", group, "--families", str(workdir / "klein.fam")]
        assert run(argv + ["--out", str(out)]) == 5
        rec = json.loads(out.read_text())
        rec = rec.get("detection", rec)
        assert rec["mode"] == "numeric" and rec["rows"] == rows
        assert rec["verdict"] == "undetected" and rec["undetected_classes"] == [rows[1]]


def test_a_label_without_a_cycle_pairs_an_exact_family_numerically(workdir, monkeypatch):
    """A finite_index_super label has no cycle, so a family with character
    data pairs numerically against it, as its union with the Klein family
    does: the trivial family's rows are the union's c0.rank column, and b,
    read as a word, is undetected."""
    monkeypatch.chdir(workdir)
    (workdir / "trivial.fam").write_text("trivial(group=klein.grp)\n")
    klein = (workdir / "klein.fam").read_text().strip()
    (workdir / "union.fam").write_text(f"union(trivial(group=klein.grp), {klein})\n")
    group = "finite_index_super(free_abelian(2), 2, klein, homology=[[pt], [b]])"
    recs = {}
    for fam, code in [("union.fam", 0), ("trivial.fam", 5)]:
        for command in (["detect", "run"], ["report"]):
            assert run(command + ["--group", group, "--families", fam, "--out", "d.json"]) == code
            rec = json.loads(Path("d.json").read_text())
            recs[fam, command[0]] = rec.get("detection", rec)
        assert recs[fam, "report"] == recs[fam, "detect"]
    union, trivial = recs["union.fam", "detect"], recs["trivial.fam", "detect"]
    assert trivial["mode"] == union["mode"] == "numeric"
    assert trivial["rows"] == union["rows"] == ["pt", "b"]
    assert trivial["columns"] == ["c0.rank"]
    rank = union["columns"].index("c0.rank")
    assert trivial["matrix"] == [[row[rank]] for row in union["matrix"]] == [["1/1"], ["0/1"]]
    assert trivial["undetected_classes"] == ["b"]


@pytest.mark.parametrize("genus", [2, 3, 4])
def test_surface_groups_certify_exactly(workdir, genus):
    """surface(g) against char_zn(2g, 4): the classes of the presentation
    2-complex certify, and the fundamental row is -1 at each handle."""
    fam = workdir / "torus.fam"
    fam.write_text(f"char_zn({2 * genus}, 4)\n")
    out = workdir / "surface.json"
    argv = ["detect", "run", "--group", f"surface({genus})", "--families", str(fam)]
    assert run(argv + ["--out", str(out)]) == 0
    rec = json.loads(out.read_text())
    assert rec["verdict"] == "FD-certified" and rec["mode"] == "exact"
    fundamental = " + ".join(f"z{2 * i - 1}^z{2 * i}" for i in range(1, genus + 1))
    assert rec["rows"] == ["pt", *(f"z{i}" for i in range(1, 2 * genus + 1)), fundamental]
    handles = {f"f0.c0.x{2 * i - 1}^x{2 * i}" for i in range(1, genus + 1)}
    assert rec["matrix"][-1] == ["-1/1" if c in handles else "0/1" for c in rec["columns"]]


def test_group_file_descriptor_matches_the_built_in_groups(workdir, monkeypatch):
    """group(FILE), read from the working directory, gives surface(2)'s exact
    report and the Klein group's numeric matrix, rows pt and z2."""
    monkeypatch.chdir(workdir)
    (workdir / "s2.grp").write_text(
        "gens: a1 b1 a2 b2 ; rels: a1 b1 a1^-1 b1^-1 a2 b2 a2^-1 b2^-1 ;\n")
    (workdir / "z4.fam").write_text("char_zn(4, 4)\n")
    recs, names = [], []
    for group, fam in [("surface(2)", "z4.fam"), ("group(s2.grp)", "z4.fam"),
                       ("finite_index_super(free_abelian(2), 2, klein, homology=[[pt], [b]])",
                        "klein.fam"),
                       ("group(klein.grp)", "klein.fam")]:
        assert run(["detect", "run", "--group", group, "--families", fam, "--out", "d.json"]) == 0
        recs.append(json.loads(Path("d.json").read_text()))
        names.append(recs[-1].pop("group"))
    assert names[1::2] == ["group(s2.grp)", "group(klein.grp)"] and recs[1] == recs[0]
    assert recs[3]["mode"] == "numeric" and recs[3]["rows"] == ["pt", "z2"]
    assert recs[3]["matrix"] == recs[2]["matrix"] and recs[2]["rows"] == ["pt", "b"]


def test_detect_run_undetected_exit5(workdir):
    (workdir / "z1.fam").write_text("char_zn(1, 4)\n")
    (workdir / "z1only.fam").write_text(
        "extend(char_zn(1, 4, gens=[a]), group=f2.grp)\n"
    )
    (workdir / "f2.grp").write_text("gens: a b ; rels: ;\n")
    code = run(
        ["detect", "run", "--group", "free(2)",
         "--families", str(workdir / "z1only.fam"),
         "--out", str(workdir / "u.json")]
    )
    assert code == 5
    assert json.loads((workdir / "u.json").read_text())["verdict"] == "undetected"


def test_detect_run_dependent_rows_exit5_with_witness(workdir):
    for name, m in (("swap", "[[0, 1], [1, 0]]"), ("conj", "[[-1, 0], [0, -1]]")):
        (workdir / f"{name}.fam").write_text(
            f"sum(char_zn(2, 4), pullback(char_zn(2, 4), cover=sublattice({m}), "
            "cosets=[e], group=z2.grp))\n"
        )
    out = workdir / "w.json"
    code = run(
        ["detect", "run", "--group", "free_abelian(2)", "--families",
         str(workdir / "swap.fam"), str(workdir / "conj.fam"), "--out", str(out)]
    )
    assert code == 5
    rec = json.loads(out.read_text())
    assert rec["verdict"] == "undetected" and rec["undetected_classes"] == []
    assert rec["witness"] == "z1 - z2"


@pytest.mark.parametrize(
    "expr", ["trivial(group=e.grp)", "extend(trivial(group=e.grp), group=e.grp)"]
)
def test_family_build_of_the_group_without_generators(workdir, expr):
    (workdir / "e.grp").write_text("gens: ; rels: ;\n")
    (workdir / "e.fam").write_text(expr + "\n")
    out = workdir / "e.json"
    assert run(["family", "build", "--expr", str(workdir / "e.fam"), "--out", str(out)]) == 0
    rec = json.loads(out.read_text())
    assert rec["fiber_dims"] == [1] and rec["base_dim"] == 0


def test_extend_rejects_ambient_relators_foreign_to_the_family_group(workdir, capsys):
    (workdir / "f2.grp").write_text("gens: a b ; rels: ;\n")
    (workdir / "k.fam").write_text("extend(char_zn(2, 8, gens=[a, b]), group=klein.grp)\n")
    (workdir / "f.fam").write_text("extend(char_zn(2, 8, gens=[a, b]), group=f2.grp)\n")
    k, f = str(workdir / "k.fam"), str(workdir / "f.fam")
    capsys.readouterr()
    for argv in (["family", "build", "--expr", k],
                 ["detect", "run", "--group", "free_abelian(2)", "--families", k]):
        assert run(argv) == 3
        assert capsys.readouterr().err == (
            "error: ambient relator 'a b a b^-1' is not a relator of the "
            "family's group, up to rotation and inversion\n"
        )
    # F2 is no free product Z^2 * F: the family's commutator is no ambient relator
    for argv in (["family", "build", "--expr", f, "--out", str(workdir / "f.json")],
                 ["detect", "run", "--group", "free_abelian(2)", "--families", f]):
        assert run(argv) == 3
        assert capsys.readouterr().err == (
            "error: relator 'a b a^-1 b^-1' of the family's group is not an "
            "ambient relator, up to rotation and inversion\n"
        )
    assert not (workdir / "f.json").exists()


def test_cover_over_an_ambient_without_the_model_relators_exit3(workdir, capsys):
    (workdir / "f2.grp").write_text("gens: a b ; rels: ;\n")
    (workdir / "c.fam").write_text(
        "induce(char_zn(2, 4), cover=sublattice([[2, 0], [0, 1]]), cosets=[e, a], "
        "group=f2.grp)\n"
    )
    assert run(["family", "build", "--expr", str(workdir / "c.fam")]) == 3
    assert capsys.readouterr().err == (
        "error: ambient group lacks the cover's relator 'a b a^-1 b^-1', "
        "up to rotation and inversion\n"
    )


def test_pullback_rejects_a_family_of_another_group(workdir, capsys):
    (workdir / "f2.grp").write_text("gens: a b ; rels: ;\n")
    foreign = {
        "pullback(char_zn(2, 8), cover=klein_even)": "a b a b^-1",
        "pullback(extend(char_zn(1, 8, gens=[a]), group=f2.grp), "
        "cover=sublattice([[1, 0], [0, 2]]), cosets=[e, b], group=z2.grp)": "a b a^-1 b^-1",
    }
    capsys.readouterr()
    for expr, relator in foreign.items():
        (workdir / "p.fam").write_text(expr + "\n")
        assert run(["family", "build", "--expr", str(workdir / "p.fam")]) == 3
        assert capsys.readouterr().err == (
            f"error: ambient relator {relator!r} is not a relator of the "
            "family's group, up to rotation and inversion\n"
        )
    for expr in (
        "pullback(char_zn(1, 8), cover=circle(3))",
        "pullback(char_zn(2, 4), cover=sublattice([[1, 1], [0, 2]]), cosets=[e, b], group=z2.grp)",
        "pullback(induce(char_zn(2, 8), cosets=[e, b], group=klein.grp), "
        "cover=klein_even, group=klein.grp)",
        "pullback(trivial(group=klein.grp, dim=2), cover=klein_even, group=klein.grp)",
    ):
        (workdir / "p.fam").write_text(expr + "\n")
        out = workdir / "p.json"
        assert run(["family", "build", "--expr", str(workdir / "p.fam"), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["structure"].startswith("pullback(")


def test_induce_rejects_a_family_of_another_group(workdir, capsys):
    (workdir / "p.fam").write_text(
        "induce(induce(char_zn(2, 8), cosets=[e, b], group=klein.grp), "
        "cover=sublattice([[2, 0], [0, 1]]), cosets=[e, a], group=z2.grp)\n"
    )
    assert run(["family", "build", "--expr", str(workdir / "p.fam")]) == 3
    assert capsys.readouterr().err == (
        "error: ambient relator 't1 t2 t1^-1 t2^-1' is not a relator of the "
        "family's group, up to rotation and inversion\n"
    )
    (workdir / "p.fam").write_text(
        "induce(char_zn(2, 8), cover=sublattice([[2, 0], [0, 1]]), cosets=[e, a], group=z2.grp)\n"
    )
    assert run(["family", "build", "--expr", str(workdir / "p.fam")]) == 0


def test_cover_index_past_the_bound_exit3(workdir, capsys, monkeypatch):
    fam, out = workdir / "c.fam", workdir / "c.json"
    for expr in ("pullback(char_zn(1, 8), cover=circle(1000000))",
                 "induce(char_zn(1, 3), cover=circle(1000000))"):
        fam.write_text(expr + "\n")
        assert run(["family", "build", "--expr", str(fam), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "error: cover index 1000000 is more than the 256 supported at most\n"
        )
        assert not out.exists()
    for expr in ("pullback(char_zn(1, 8), cover=circle(256))",
                 "induce(char_zn(1, 3), cover=circle(256))"):
        fam.write_text(expr + "\n")
        assert run(["family", "build", "--expr", str(fam), "--out", str(out)]) == 0
    # induce checks the index of any cover; a sublattice's pullback is not bounded
    monkeypatch.setattr(flatdetect.families, "MAX_INDEX", 1)
    cover = "cover=sublattice([[1, 1], [0, 2]]), cosets=[e, b], group=z2.grp"
    fam.write_text(f"induce(char_zn(2, 8), {cover})\n")
    assert run(["family", "build", "--expr", str(fam)]) == 3
    assert capsys.readouterr().err == "error: cover index 2 is more than the 1 supported at most\n"
    fam.write_text(f"pullback(char_zn(2, 8), {cover})\n")
    assert run(["family", "build", "--expr", str(fam), "--out", str(out)]) == 0


def test_named_covers_take_the_group_and_coset_words(workdir, capsys):
    (workdir / "z1.grp").write_text("gens: a ; rels: ;\n")
    fam = workdir / "c.fam"
    cases = {
        # a Klein cover with its own representatives, b^-1 in b's coset
        "induce(char_zn(2, 8), cover=klein_even, cosets=[e, b^-1], group=klein.grp)":
            ("gens: a b ; rels: a b a b^-1 ;", [2]),
        "induce(char_zn(1, 8), cover=circle(2), cosets=[e, a], group=z1.grp)":
            ("gens: a ; rels:  ;", [2]),
    }
    for expr, (group, fibers) in cases.items():
        fam.write_text(expr + "\n")
        out = workdir / "c.json"
        assert run(["family", "build", "--expr", str(fam), "--out", str(out)]) == 0
        rec = json.loads(out.read_text())
        assert (rec["group"], rec["fiber_dims"]) == (group, fibers)
    # coset words of the cover's own ambient group are parsed and counted
    fam.write_text("induce(char_zn(1, 8), cover=circle(3), cosets=[e, t1])\n")
    capsys.readouterr()
    assert run(["family", "build", "--expr", str(fam)]) == 3
    assert capsys.readouterr().err == "error: need 3 coset representatives, got 2\n"


@pytest.mark.parametrize("build", ["induce(char_zn({n}, 8), {cover})",
                                   "pullback(trivial(group={group}, dim=2), {cover})"])
@pytest.mark.parametrize(
    "n, group, cover, cosets, index",
    [
        (1, "z1.grp", "cover=circle(3), cosets=[e, t1]", 2, 3),
        (1, "z1.grp", "cover=circle(2), cosets=[e, a, a a], group=z1.grp", 3, 2),
        (1, "z1.grp", "cover=circle(2), cosets=[]", 0, 2),
        (2, "z2.grp", "cover=sublattice([[2, 0], [0, 1]]), cosets=[e], group=z2.grp", 1, 2),
        (2, "z2.grp", "cover=sublattice([[2, 0], [0, 1]]), cosets=[e, a, b], group=z2.grp", 3, 2),
        (2, "klein.grp", "cover=klein_even, cosets=[e]", 1, 2),
        (2, "klein.grp", "cover=klein_even, cosets=[e, b, a], group=klein.grp", 3, 2),
        (2, "klein.grp", "cosets=[e], group=klein.grp", 1, 2),
        (2, "klein.grp", "cosets=[e, b, b a], group=klein.grp", 3, 2),
    ],
)
def test_every_cover_counts_its_coset_words(
    workdir, capsys, build, n, group, cover, cosets, index
):
    (workdir / "z1.grp").write_text("gens: a ; rels: ;\n")
    fam = workdir / "c.fam"
    fam.write_text(build.format(n=n, group=group, cover=cover) + "\n")
    out = workdir / "c.json"
    assert run(["family", "build", "--expr", str(fam), "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        f"error: need {index} coset representatives, got {cosets}\n"
    )
    assert not out.exists()


def test_descriptor_over_the_class_budget_exit3(workdir, capsys):
    code = run(["detect", "run", "--group", "free_abelian(17)",
                "--families", str(workdir / "z2.fam")])
    assert code == 3
    assert capsys.readouterr().err == (
        "error: free_abelian(17) has 2^17 homology classes, more than the 65536 built at most\n"
    )


@pytest.mark.parametrize(
    "module, name, argv",
    [
        (flatdetect.repvar, "solve_representation",
         ["rep", "solve", "--presentation", "z2.grp", "--dim", "1000000"]),
        (flatdetect.families, "numeric_c1_windings",
         ["forms", "chern", "--family", "z2.fam", "--resolution", "65536"]),
    ],
)
def test_input_too_large_to_allocate_exit3(workdir, capsys, monkeypatch, module, name, argv):
    def exhausted(*args, **kwargs):
        raise MemoryError
    monkeypatch.setattr(module, name, exhausted)
    argv = [str(workdir / a) if a.endswith((".grp", ".fam")) else a for a in argv]
    assert run(argv) == 3
    assert capsys.readouterr().err == "error: input too large to allocate\n"


def test_family_build_and_verify(workdir):
    out = workdir / "fam.json"
    code = run(["family", "build", "--expr", str(workdir / "klein.fam"),
                "--out", str(out)])
    assert code == 0
    rec = json.loads(out.read_text())
    assert rec["fiber_dims"] == [2]
    assert rec["chern"] is None


def test_family_build_of_a_cover_with_entries_near_2_pow_40(workdir, capsys):
    # exact composition passes at every resolution; float powers of 2^40
    # drifted past a grid check's tolerance at resolution 64
    big = 2**40
    cover = f"sublattice([[{big + 1}, {big}], [{big}, {big - 1}]])"
    for resolution in (4, 64):
        (workdir / "big.fam").write_text(
            f"pullback(char_zn(2, {resolution}), cover={cover}, cosets=[e], group=z2.grp)\n"
        )
        out = workdir / "big.json"
        assert run(["family", "build", "--expr", str(workdir / "big.fam"),
                    "--out", str(out)]) == 0
        chern = json.loads(out.read_text())["chern"][0]
        assert [["z1", "x1"], big + 1, 1] in chern
        assert [["z1", "x2"], big, 1] in chern


def test_family_build_refuses_exponents_past_the_composition_bound(workdir, capsys):
    # a unimodular pullback with entries near 2^70: int64 exponents would wrap
    big = 2**70
    cover = f"sublattice([[{big + 1}, {big}], [{big}, {big - 1}]])"
    (workdir / "huge.fam").write_text(
        f"pullback(char_zn(2, 4), cover={cover}, cosets=[e], group=z2.grp)\n"
    )
    out = workdir / "huge.json"
    for argv in (["family", "build", "--expr"], ["forms", "chern", "--family"]):
        assert run([*argv, str(workdir / "huge.fam"), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"error: a word of {2 * big + 1} letters over phase exponents up to 1 may "
            f"compose to {2 * big + 1}, more than the {2**62} composed at most\n"
        )
        assert not out.exists()


def test_forms_chern_refuses_a_2_pow_40_winding_as_under_sampled(workdir, capsys):
    # det(t1) turns 2^40 + 1 times along x1: 64 samples alias it
    big = 2**40
    cover = f"sublattice([[{big + 1}, {big}], [{big}, {big - 1}]])"
    (workdir / "big.fam").write_text(
        f"pullback(char_zn(2, 64), cover={cover}, cosets=[e], group=z2.grp)\n"
    )
    capsys.readouterr()
    assert run(["forms", "chern", "--family", str(workdir / "big.fam")]) == 5
    assert capsys.readouterr().err == (
        f"error: det of 't1' on component 0 turns {big + 1} times along axis 1, which a "
        "loop of 64 samples aliases; sample more finely\n"
    )


def test_windings_past_half_the_samples_are_refused_not_aliased(workdir, capsys):
    # det(t1) turns 65 times along x1: 64 samples read it as 1, 256 as 65
    (workdir / "z1.grp").write_text("gens: a ; rels: ;\n")
    pulled = "pullback(char_zn(1, 8), cover=circle(65), group=z1.grp)"
    (workdir / "alias.fam").write_text(pulled + "\n")
    (workdir / "tensor.fam").write_text(
        f"tensor({pulled}, induce(char_zn(2, 8), cosets=[e, b], group=klein.grp))\n"
    )
    fam, out = str(workdir / "alias.fam"), workdir / "out.json"
    assert run(["family", "build", "--expr", fam, "--out", str(out)]) == 0
    assert [["z1", "x1"], 65, 1] in json.loads(out.read_text())["chern"][0]
    assert run(["forms", "chern", "--family", fam, "--resolution", "256",
                "--out", str(out)]) == 0
    assert json.loads(out.read_text())["windings"] == [[[65]]]
    out.unlink()
    message = ("error: det of 't1' on component 0 turns {} times along axis 1, which a "
               "loop of 64 samples aliases; sample more finely\n")
    assert run(["forms", "chern", "--family", fam, "--resolution", "64",
                "--out", str(out)]) == 5
    assert capsys.readouterr().err == message.format(65)
    # the numeric pairing of the tensor samples no loop: it reads det(t1 x I_2)
    # turning 130 times, and z2 pairs to nothing
    assert run(["detect", "run", "--group", "free(3)", "--families",
                str(workdir / "tensor.fam"), "--out", str(out)]) == 5
    assert capsys.readouterr().err == ""
    report = json.loads(out.read_text())
    assert report["matrix"][1] == ["0/1", "130/1", "0/1", "0/1"]
    assert (report["verdict"], report["undetected_classes"]) == ("undetected", ["z2"])


@pytest.mark.parametrize(
    "expr, matrix",
    [
        ("{klein}", [["2/1", "0/1", "0/1"], ["0/1", "0/1", "1/1"]]),
        ("tensor(char_zn(1, 8), {klein})",
         [["2/1", "0/1", "0/1", "0/1"], ["0/1", "0/1", "0/1", "1/1"]]),
        ("tensor(sum(char_zn(1, 8), char_zn(1, 8)), {klein})",
         [["4/1", "0/1", "0/1", "0/1"], ["0/1", "0/1", "0/1", "2/1"]]),
    ],
)
def test_the_numeric_pairing_evaluates_no_float(workdir, monkeypatch, expr, matrix):
    # the cells are integers of the monomial data: with every float route
    # raising, the report keeps the matrix the float windings gave, and the
    # 130 turns of the tensor below are read, as no loop is sampled
    def evaluated(*args, **kwargs):
        raise AssertionError("a float was evaluated")

    monkeypatch.setattr(flatdetect.families.Family, "evaluate_batch", evaluated)
    monkeypatch.setattr(flatdetect.charforms, "winding_number", evaluated)
    klein = "induce(char_zn(2, 8), cosets=[e, b], group=klein.grp)"
    (workdir / "f.fam").write_text(expr.format(klein=klein) + "\n")
    group = "finite_index_super(free_abelian(2), 2, klein, homology=[[pt], [b]])"
    out = workdir / "out.json"
    assert run(["detect", "run", "--group", group, "--families", str(workdir / "f.fam"),
                "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert (report["matrix"], report["verdict"]) == (matrix, "FD-certified")
    (workdir / "z1.grp").write_text("gens: a ; rels: ;\n")
    (workdir / "alias.fam").write_text(
        f"tensor(pullback(char_zn(1, 8), cover=circle(65), group=z1.grp), {klein})\n"
    )
    assert run(["detect", "run", "--group", "free(3)", "--families",
                str(workdir / "alias.fam"), "--out", str(out)]) == 5
    assert json.loads(out.read_text())["matrix"][1] == ["0/1", "130/1", "0/1", "0/1"]


@pytest.mark.parametrize(
    "expr, windings",
    [
        ("{klein}", [[[0, 0], [0, 1]]]),
        ("tensor(char_zn(1, 8), {klein})", [[[2, 0, 0], [0, 0, 0], [0, 0, 1]]]),
        ("tensor(sum(char_zn(1, 8), char_zn(1, 8)), {klein})",
         [[[4, 0, 0], [0, 0, 0], [0, 0, 2]]]),
    ],
)
def test_forms_chern_evaluates_no_float(workdir, monkeypatch, expr, windings):
    # forms chern reads the windings from the monomial data, as the numeric
    # pairing does: with every float route raising, the windings stand
    def evaluated(*args, **kwargs):
        raise AssertionError("a float was evaluated")

    monkeypatch.setattr(flatdetect.families.Family, "evaluate_batch", evaluated)
    monkeypatch.setattr(flatdetect.charforms, "winding_number", evaluated)
    klein = "induce(char_zn(2, 8), cosets=[e, b], group=klein.grp)"
    (workdir / "f.fam").write_text(expr.format(klein=klein) + "\n")
    out = workdir / "out.json"
    assert run(["forms", "chern", "--family", str(workdir / "f.fam"), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["windings"] == windings


def test_forms_chern_winds_cancelling_exponents_near_1e8(workdir, capsys):
    # the line exponents are about +-1e8 but the determinants turn 0, 2 and
    # 4 times: forms chern reads the windings the pairings read, which float
    # phase factors of such exponents cannot, as they leave a loop open by 4e-8
    pulled = ("pullback(char_zn(2, 8), cover=sublattice([[{}, {}], [1, 1]]), cosets=[e], "
              "group=z2.grp)")
    half = (f"sum({pulled.format(100000001, 100000000)}, "
            f"{pulled.format(-99999999, -100000000)})")
    klein = "induce(char_zn(2, 8), cosets=[e, b], group=klein.grp)"
    (workdir / "sum.fam").write_text(half + "\n")
    (workdir / "tensor.fam").write_text(f"tensor({half}, {klein})\n")
    out = workdir / "out.json"
    wound = {}
    for name in ("sum", "tensor"):
        assert run(["forms", "chern", "--family", str(workdir / f"{name}.fam"),
                    "--out", str(out)]) == 0
        (wound[name],) = json.loads(out.read_text())["windings"]
    assert wound["tensor"] == [[4, 4, 0, 0], [0, 4, 0, 0], [0, 0, 0, 0], [0, 0, 0, 2]]
    # the loop_x cells of the numeric pairing, one row per generator
    group = "finite_index_super(free_abelian(4), 2, k, homology=[[pt], [{}]])"
    assert run(["detect", "run", "--group", group.format("b"), "--families",
                str(workdir / "tensor.fam"), "--out", str(out)]) == 0
    assert run(["detect", "run", "--group", group.format("t1, t2, a, b"), "--families",
                str(workdir / "tensor.fam"), "--out", str(out)]) == 5
    report = json.loads(out.read_text())
    assert report["rows"] == ["pt", "t1", "t2", "a", "b"]
    assert [[Fraction(c) for c in row[1:]] for row in report["matrix"][1:]] == wound["tensor"]
    # the exact z^x cells of the sum, rows z1 and z2, columns x1 and x2
    assert run(["detect", "run", "--group", "free_abelian(2)", "--families",
                str(workdir / "sum.fam"), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["rows"][1:3] == ["z1", "z2"]
    assert [[Fraction(c) for c in row[1:3]] for row in report["matrix"][1:3]] == wound["sum"]


def test_family_build_walks_no_grid(workdir, capsys):
    # verification composes relators, so grids of 10^23 and 10^12 points build
    (workdir / "huge.fam").write_text("char_zn(1, 99999999999999999999999)\n")
    (workdir / "big.fam").write_text("char_zn(3, 10000)\n")
    fam = str(workdir / "huge.fam")
    out = workdir / "huge.json"
    for path, space in ((fam, "T^1[99999999999999999999999]"),
                        (str(workdir / "big.fam"), "T^3[10000]")):
        assert run(["family", "build", "--expr", path, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["space"] == space
    # windings sample their own loops, so the grid size does not matter
    assert run(["forms", "chern", "--family", fam, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["windings"] == [[[1]]]


def test_forms_chern_windings(workdir):
    out = workdir / "w.json"
    code = run(["forms", "chern", "--family", str(workdir / "z2.fam"),
                "--resolution", "16", "--out", str(out)])
    assert code == 0
    rec = json.loads(out.read_text())
    assert rec["windings"] == [[[1, 0], [0, 1]]]


@pytest.mark.parametrize(
    "expr, resolution",
    [
        ("char_zn(2, 8)", "3"),
        ("{klein}", "64"),
        ("tensor(sum(char_zn(1, 4), char_zn(1, 4)), {klein})", "65536"),
        ("pullback(char_zn(1, 8), cover=circle(65), group=z1.grp)", "64"),
    ],
)
def test_forms_chern_builds_no_dense_stack(workdir, capsys, monkeypatch, expr, resolution):
    # forms chern winds the phase factors themselves: with the dense
    # evaluation raising, every byte and exit code stays that of the run
    # without it, a refusal included
    def evaluated(*args, **kwargs):
        raise AssertionError("a dense stack was evaluated")

    (workdir / "z1.grp").write_text("gens: a ; rels: ;\n")
    klein = "induce(char_zn(2, 8), cosets=[e, b], group=klein.grp)"
    (workdir / "f.fam").write_text(expr.format(klein=klein) + "\n")
    out = workdir / "out.json"
    argv = ["forms", "chern", "--family", str(workdir / "f.fam"), "--resolution", resolution,
            "--out", str(out)]
    want = run(argv), capsys.readouterr(), out.read_bytes() if out.exists() else None
    out.unlink(missing_ok=True)
    monkeypatch.setattr(flatdetect.families.Family, "evaluate_batch", evaluated)
    assert (run(argv), capsys.readouterr(),
            out.read_bytes() if out.exists() else None) == want


def test_forms_eval_wedge(workdir):
    payload = {
        "op": "wedge",
        "operands": [
            [[["z1"], 1, 1], [[], 1, 1]],
            [[["x1"], 1, 1]],
        ],
    }
    inp = workdir / "forms.json"
    inp.write_text(json.dumps(payload))
    out = workdir / "res.json"
    assert run(["forms", "eval", "--in", str(inp), "--out", str(out)]) == 0
    rec = json.loads(out.read_text())
    assert rec["records"] == [[["x1"], 1, 1], [["z1", "x1"], 1, 1]]


def test_exact_work_past_its_budgets_exit3(workdir, capsys, monkeypatch):
    (workdir / "zn17.fam").write_text("char_zn(17, 2)\n")
    (workdir / "zn12.fam").write_text("char_zn(12, 2)\n")
    out = workdir / "out.json"
    cases = [
        (["family", "build", "--expr", str(workdir / "zn17.fam")],
         "a wedge of forms of 256 and 512 terms takes 131072 term products, "
         "more than the 65536 computed at most"),
        (["detect", "run", "--group", "free_abelian(12)", "--families", str(workdir / "zn12.fam")],
         "the detection matrix of free_abelian(12) has 4096 rows and 4096 columns, "
         "more than the 4194304 cells computed at most"),
    ]
    names = " ".join(f"g{i}" for i in range(64))
    dense = workdir / "dense.grp"  # 65 nonzero rows of 64 columns
    dense.write_text(f"gens: {names} ; rels: {' , '.join([names] * 65)} ;\n")
    cases.append((
        ["detect", "run", "--group", f"group({dense})", "--families", str(workdir / "z2.fam")],
        f"group({dense}) has an exponent-sum matrix of 65 nonzero rows and 64 columns, "
        "more than the 4096 cells eliminated at most",
    ))
    names = [f"g{i}" for i in range(210)]  # [u, v], u = g0 ... g209, v its reverse
    words = [names, names[::-1], [f"{g}^-1" for g in names[::-1]], [f"{g}^-1" for g in names]]
    long = workdir / "commutator.grp"  # sums to zero and cycles to 0, but reads 3 n^2 - 2 n
    long.write_text(f"gens: {' '.join(names)} ; rels: {' '.join(sum(words, []))} ;\n")
    cases.append((
        ["detect", "run", "--group", f"group({long})", "--families", str(workdir / "z2.fam")],
        f"group({long}) reads 131880 prefix sums building its degree-2 cycles, "
        "more than the 131072 read at most",
    ))
    for argv, message in cases:
        assert run(argv + ["--out", str(out)]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
    monkeypatch.setattr(flatdetect.charforms, "MAX_TERM_PRODUCTS", 3)
    payload = {"op": "wedge", "operands": [[[["z1"], 1, 1], [[], 1, 1]]] * 2}
    (workdir / "forms.json").write_text(json.dumps(payload))
    assert run(["forms", "eval", "--in", str(workdir / "forms.json"), "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "error: a wedge of forms of 2 and 2 terms takes 4 term products, "
        "more than the 3 computed at most\n"
    )
    assert not out.exists()


def test_report_obstruction_exit5(workdir):
    out = workdir / "bm.json"
    assert run(["report", "--bm", "2", "10", "--out", str(out)]) == 5
    rec = json.loads(out.read_text())
    assert rec["obstruction"]["subgroup_rank"] == 11
    assert rec["obstruction"]["excluded"] is True
    assert rec["verdict"] == "obstructed"


def test_report_inconclusive_exit0(workdir):
    out = workdir / "bm0.json"
    assert run(["report", "--bm", "2", "2", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["obstruction"]["excluded"] is False


def test_report_numeric_detection_matches_detect_run(workdir):
    group = "finite_index_super(free_abelian(2), 2, klein, homology=[[pt], [b]])"
    fam = str(workdir / "klein.fam")
    d, r = workdir / "d.json", workdir / "r.json"
    assert run(["detect", "run", "--group", group, "--families", fam, "--out", str(d)]) == 0
    assert run(["report", "--group", group, "--families", fam, "--out", str(r)]) == 0
    rec = json.loads(r.read_text())
    assert rec["detection"] == json.loads(d.read_text())
    assert rec["detection"]["mode"] == "numeric"
    assert rec["verdict"] == "FD-certified"


def test_report_families_without_group_exit2(workdir, capsys):
    out = workdir / "nogroup.json"
    assert run(["report", "--families", str(workdir / "z2.fam"), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: report --families needs --group\n"
    assert not out.exists()


def test_report_with_detection(workdir):
    out = workdir / "full.json"
    code = run(["report", "--group", "free_abelian(2)",
                "--families", str(workdir / "z2.fam"),
                "--bm", "2", "2", "--out", str(out)])
    assert code == 0
    rec = json.loads(out.read_text())
    assert rec["verdict"] == "FD-certified"
    assert rec["detection"]["verdict"] == "FD-certified"


def test_detect_run_deterministic_bytes(workdir):
    a, b = workdir / "a.json", workdir / "b.json"
    args = ["detect", "run", "--group", "free_abelian(2)",
            "--families", str(workdir / "z2.fam")]
    run(args + ["--out", str(a)])
    run(args + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "expr, message",
    [
        ("char_zn(2)", "char_zn takes 2 positional argument(s), got 1"),
        ("char_zn(2, 16, gen=[a])", "char_zn got unknown keyword argument(s) gen"),
        ("tensor(char_zn(1, 4), char_zn(1))", "char_zn takes 2 positional argument(s), got 1"),
        ("trivial(dim=2)", "trivial needs keyword argument(s) group"),
        ("induce(char_zn(1, 4), cover=circle())", "circle takes 1 positional argument(s), got 0"),
        ("char_zn(0, 16)", "rank must be >= 1"),
        ("char_zn(a, 4)", "char_zn argument 1 must be an integer, got 'a'"),
        ("char_zn(1, 4, gens=a)", "char_zn keyword gens must be a list of words, got 'a'"),
        ("trivial(group=3)", "trivial keyword group must be a file name, got 3"),
        (
            "induce(char_zn(1, 4), cover=sublattice([[a]]), cosets=[e], group=z1.grp)",
            "sublattice argument 1 must be a list of integer rows, got [['a']]",
        ),
        (
            "induce(char_zn(1, 4), cover=sublattice([[9223372036854775808]]), cosets=[e], "
            "group=z1.grp)",
            "need 9223372036854775808 coset representatives, got 1",
        ),
        (
            "induce(char_zn(1, 4), subgroup=circle(2))",
            "induce got unknown keyword argument(s) subgroup",
        ),
        ("induce(char_zn(1, 4), cover=bogus)", "unsupported cover description for induce"),
        ("pullback(char_zn(1, 4), cover=bogus)", "unsupported cover description for pullback"),
        ("pullback(char_zn(1, 4), cover=3)", "unsupported cover description for pullback"),
        ("pullback(char_zn(1, 4))", "unsupported cover description for pullback"),
        ("induce(char_zn(1, 4))", "unsupported cover description for induce"),
        (
            "induce(char_zn(2, 4), cover=klein_even, group=z2.grp)",
            "ambient group lacks the cover's relator 'a b a b^-1', up to rotation and inversion",
        ),
        ("char_zn(2, 4, gens=[a b, c])", "invalid generator identifier 'a b'"),
    ],
)
def test_family_signature_errors_exit3(workdir, capsys, expr, message):
    (workdir / "z1.grp").write_text("gens: a ; rels: ;\n")
    (workdir / "bad.fam").write_text(expr + "\n")
    out = workdir / "bad.json"
    code = run(["family", "build", "--expr", str(workdir / "bad.fam"), "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_descriptor_signature_error_exit3(workdir, capsys):
    code = run(["detect", "run", "--group", "free()", "--families", str(workdir / "z2.fam")])
    assert code == 3
    assert capsys.readouterr().err == "error: free takes 1 positional argument(s), got 0\n"


@pytest.mark.parametrize(
    "group, message",
    [
        ("free(-1)", "rank must be >= 0"),
        ("group(3)", "group argument 1 must be a name, got 3"),
        ("group(missing.grp)", "[Errno 2] No such file or directory: 'missing.grp'"),
        ("char_zn(1, 4)", "unknown group descriptor 'char_zn'"),
        (
            "finite_index_super(free_abelian(2), 2, klein, homology=3)",
            "finite_index_super keyword homology must be a list of label lists, got 3",
        ),
        (
            "finite_index_super(free(2), 2, klein)",
            "finite_index_super needs keyword argument(s) homology",
        ),
        (
            "finite_index_super(free_abelian(2), 2, k, homology=[])",
            "a homology table needs exactly one degree-0 label",
        ),
        (
            "finite_index_super(free_abelian(2), 2, k, homology=[[], [b]])",
            "a homology table needs exactly one degree-0 label",
        ),
        (
            "finite_index_super(free_abelian(2), 2, k, homology=[[pt, q], [b]])",
            "a homology table needs exactly one degree-0 label",
        ),
    ],
)
def test_descriptor_value_and_type_errors_exit3(workdir, capsys, group, message):
    code = run(["detect", "run", "--group", group, "--families", str(workdir / "z2.fam")])
    assert code == 3
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "payload",
    [
        {"op": "bogus", "operands": [[[["x1"], 1, 1]]]},
        {"op": "wedge", "operands": [[[["q1"], 1, 1]]]},
        {"op": "wedge", "operands": [[[["x1"], 1, 0]]]},
        {"op": "wedge", "operands": [[[["x1"], "1", 1]]]},
        {"op": "wedge", "operands": [[[["z1"], True, 1]]]},
        {"op": "wedge", "operands": [[[["z1"], 1, True]]]},
        {"op": "wedge", "operands": [5]},
        {"op": "wedge", "operands": 5},
        {"op": "wedge", "operands": []},
        [{"op": "wedge"}],
    ],
)
def test_forms_eval_malformed_payload_exit3(workdir, capsys, payload):
    inp = workdir / "bad_forms.json"
    inp.write_text(json.dumps(payload))
    out = workdir / "bad_res.json"
    assert run(["forms", "eval", "--in", str(inp), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["parse", "--presentation", "adir"],
        ["parse", "--presentation", "bad.grp"],
        ["parse", "--presentation", "z2.grp", "--out", "adir"],
        ["rep", "solve", "--presentation", "adir", "--dim", "2"],
        ["rep", "solve", "--presentation", "bad.grp", "--dim", "2"],
        ["family", "build", "--expr", "adir"],
        ["family", "build", "--expr", "bad.fam"],
        ["family", "build", "--expr", "group_is_dir.fam"],
        ["family", "build", "--expr", "z2.fam", "--out", "adir"],
        ["forms", "chern", "--family", "bad.fam"],
        ["forms", "eval", "--in", "adir"],
        ["forms", "eval", "--in", "bad.json"],
        ["detect", "run", "--group", "free(2)", "--families", "adir"],
        ["detect", "run", "--group", "free(2)", "--families", "bad.fam"],
        ["report", "--group", "free(2)", "--families", "bad.fam"],
        ["report", "--bm", "2", "2", "--out", "adir"],
    ],
)
def test_unreadable_or_unwritable_file_exit3(workdir, capsys, argv):
    (workdir / "adir").mkdir()
    for name in ("bad.grp", "bad.fam", "bad.json"):
        (workdir / name).write_bytes(b"\xff\xfe not utf-8\n")
    (workdir / "group_is_dir.fam").write_text("trivial(group=adir)\n")
    files = ("adir", "bad.grp", "bad.fam", "bad.json", "group_is_dir.fam", "z2.grp", "z2.fam")
    assert run([str(workdir / a) if a in files else a for a in argv]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "command, name, text",
    [
        (["family", "build", "--expr"], "deep.fam",
         "union(" * 330 + "char_zn(1, 2)" + ", char_zn(1, 2))" * 330),
        (["family", "build", "--expr"], "deep_gens.fam",
         "char_zn(1, 4, gens=" + "[" * 1000 + "a" + "]" * 1000 + ")"),
        (["forms", "eval", "--in"], "deep.json", "[" * 5000 + "]" * 5000),
    ],
    ids=["union", "gens", "json"],
)
def test_input_nested_too_deeply_exit3(workdir, capsys, command, name, text):
    (workdir / name).write_text(text + "\n")
    assert run([*command, str(workdir / name)]) == 3
    assert capsys.readouterr().err == "error: input nested too deeply\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["rep", "solve", "--presentation", "z2.grp", "--dim", "0"],
        ["rep", "solve", "--presentation", "z2.grp", "--dim", "2", "--tol", "-1"],
        ["rep", "solve", "--presentation", "z2.grp", "--dim", "2", "--tol", "nan"],
        ["rep", "solve", "--presentation", "z2.grp", "--dim", "2", "--seed", "-1"],
        ["rep", "solve", "--presentation", "z2.grp", "--dim", "2", "--max-iter", "-1"],
        ["forms", "chern", "--family", "z2.fam", "--resolution", "-4"],
        ["report", "--bm", "1", "2"],
        ["report", "--bm", "2", "1"],
        ["forms", "chern", "--family", "z2.fam", "--resolution", "0"],
        ["forms", "chern", "--family", "z2.fam", "--resolution", "1"],
        ["forms", "chern", "--family", "z2.fam", "--resolution", "65537"],
    ],
)
def test_out_of_range_flags_exit2(workdir, capsys, argv):
    assert run([str(workdir / a) if a.endswith((".grp", ".fam")) else a for a in argv]) == 2
    assert "error: argument" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["1", "65537"])
def test_resolution_out_of_range_names_its_bounds(workdir, capsys, value):
    argv = ["forms", "chern", "--family", str(workdir / "z2.fam"), "--resolution", value]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.endswith(
        f"error: argument --resolution: must be >= 2 and <= 65536, got {value}\n"
    ), err


# A grammar fuzz over the expression language.  Inputs come from two
# grammars with the same shape.  The strict one follows the documented
# signatures, so its inputs reach the builders (and fail there or succeed).
# The loose one may put junk in any slot (an unknown or wrong-kind
# constructor, a value of another type), drop a required keyword, and add an
# extra argument or an unknown keyword.  Nesting is bounded and integers stay
# small: tensor products add ranks, and a circle cover of index k makes k
# coset blocks.
_WORDS = st.sampled_from(["[]", "[e]", "[e, a]", "[e, b]", "[a, b]", "[e, a, a a]", "[c]"])
_FILE = st.sampled_from(["z1.grp", "z2.grp", "klein.grp", "f2.grp", "missing.grp"])
_MATRIX = st.sampled_from(["[[2]]", "[[3]]", "[[2, 0], [0, 1]]", "[[1, 1], [0, 2]]", "[[0]]"])
_HOMOLOGY = st.sampled_from(["[[pt], [b]]", "[pt, [b]]", "[[pt], [a b]]", "[[pt]]"])
_JUNK = st.sampled_from(
    ["a", "e", "klein", "z2.grp", "[a]", "[[a]]", "[[1]]", "3", "-1",
     "bogus(1)", "free(2)", "char_zn(1, 4)", "circle(2)", "klein_even"]
)


def _grammar(ints, slot, extra, strict: bool):
    """(family, descriptor) expression strategies; ``slot`` wraps every
    argument strategy and ``extra`` draws arguments to append."""

    def call(name, args, required=None, optional=None):
        required, optional = dict(required or {}), dict(optional or {})
        if not strict:  # a required keyword may go missing
            optional.update(required)
            required = {}
        return st.builds(
            lambda a, kw, more: "{}({})".format(
                name, ", ".join(a + more + [f"{k}={v}" for k, v in kw.items()])
            ),
            st.tuples(*map(slot, args)).map(list),
            st.fixed_dictionaries(
                {k: slot(v) for k, v in required.items()},
                optional={k: slot(v) for k, v in optional.items()},
            ),
            extra,
        )

    def unary(inner):
        cover = st.one_of(
            call("circle", [ints]), call("sublattice", [_MATRIX]), st.just("klein_even")
        )
        covered = {"cover": cover, "cosets": _WORDS, "group": _FILE}
        return st.one_of(
            call("extend", [inner], {"group": _FILE}),
            call("induce", [inner], optional=covered),
            call("pullback", [inner], optional=covered),
        )

    def binary(names, inner):
        return st.one_of(*(call(n, [inner, inner]) for n in names))

    leaf = st.one_of(
        call("char_zn", [ints, ints], optional={"gens": _WORDS}),
        call("trivial", [], {"group": _FILE}, {"dim": ints}),
    )
    part = st.one_of(leaf, unary(leaf))
    family = st.one_of(
        part,
        binary(("tensor", "union", "sum"), part),
        unary(binary(("tensor", "union", "sum"), leaf)),
    )
    dleaf = st.one_of(*(call(n, [ints]) for n in ("free", "free_abelian", "surface")))
    dpart = st.one_of(dleaf, binary(("free_product", "direct_product"), dleaf))
    descriptor = st.one_of(
        dpart,
        call(
            "finite_index_super",
            [dpart, ints, st.sampled_from(["klein", "k2"])],
            {"homology": _HOMOLOGY},
        ),
    )
    return family, descriptor


_STRICT = _grammar(st.sampled_from("12345"), lambda s: s, st.just([]), True)
_LOOSE = _grammar(
    st.integers(-3, 5).map(str),
    lambda s: st.one_of(s, _JUNK),
    st.sampled_from([[], ["7"], ["bogus=1"], ["subgroup=circle(2)"]]),
    False,
)


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    group=st.one_of(_STRICT[1], _LOOSE[1]),
    family=st.one_of(_STRICT[0], _LOOSE[0]),
)
def test_expression_fuzz_total_and_report_matches_detect_run(workdir, capsys, group, family):
    (workdir / "z1.grp").write_text("gens: a ; rels: ;\n")
    (workdir / "f2.grp").write_text("gens: a b ; rels: ;\n")
    (workdir / "fuzz.fam").write_text(family + "\n")
    d, r = workdir / "fuzz_d.json", workdir / "fuzz_r.json"
    d.unlink(missing_ok=True)
    r.unlink(missing_ok=True)
    fam = str(workdir / "fuzz.fam")
    capsys.readouterr()
    code_d = run(["detect", "run", "--group", group, "--families", fam, "--out", str(d)])
    err_d = capsys.readouterr().err
    code_r = run(["report", "--group", group, "--families", fam, "--out", str(r)])
    err_r = capsys.readouterr().err
    assert code_d in (0, 2, 3, 4, 5)
    assert (code_r, err_r) == (code_d, err_d)
    assert err_d.count("\n") <= 1 and "Traceback" not in err_d
    assert d.exists() == r.exists()
    if d.exists():
        assert json.loads(r.read_text())["detection"] == json.loads(d.read_text())


_TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\ud800\U0001f600'),
                          st.characters()))
_SCALARS = st.one_of(
    _TEXT,
    st.integers(-(2**80), 2**80),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 1e300, 5e-324]),
    st.floats(),
    st.floats().map(np.float64),
    st.booleans(),
    st.none(),
)


@st.composite
def _sparse_matrices(draw):
    """Widths 0..40, rows of nonzero Fractions, negative and non-integral
    ones too, at ascending columns, and all-zero rows."""
    width = draw(st.integers(0, 40))
    entries = st.fractions(min_value=-10, max_value=10, max_denominator=12).filter(bool)
    rows = draw(st.lists(st.dictionaries(st.integers(0, width - 1), entries)
                         if width else st.just({}), max_size=4))
    return SparseMatrix(tuple(dict(sorted(row.items())) for row in rows), width)


_PAYLOADS = st.recursive(
    st.one_of(_SCALARS, _sparse_matrices()),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(_PAYLOADS)
def test_the_writer_writes_what_json_dumps_writes(obj):
    assert _encode(obj) == json.dumps(_dense(obj), sort_keys=True, indent=2)


def test_the_writer_writes_sparse_rows_at_their_columns():
    m = SparseMatrix(({0: Fraction(-1, 2), 2: Fraction(3)}, {}, {1: Fraction(7, 5)}), 3)
    assert json.loads(_encode({"m": [m]})) == {
        "m": [[["-1/2", "0/1", "3/1"], ["0/1", "0/1", "0/1"], ["0/1", "7/5", "0/1"]]]
    }
    assert _encode(SparseMatrix((), 0)) == _encode(SparseMatrix((), 5)) == "[]"
    assert _encode(SparseMatrix(({},), 0)) == "[\n  []\n]"


def test_the_writer_refuses_what_json_dumps_refuses():
    for obj in ({1, 2}, Fraction(1, 2), np.int64(3), {"a": object()}):
        with pytest.raises(TypeError):
            json.dumps(obj, sort_keys=True, indent=2)
        with pytest.raises(TypeError):
            _encode(obj)


def test_python_dash_m_entry_point(workdir):
    env = {**os.environ, "PYTHONPATH": str(Path(flatdetect.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "flatdetect", "parse", "--presentation", str(workdir / "z2.grp")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["generators"] == ["a", "b"]
