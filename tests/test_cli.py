import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import flatdetect
from flatdetect.cli import (
    Call,
    ExprError,
    build_descriptor,
    build_family,
    parse_expression,
    run,
)
from flatdetect.presentation import parse_presentation

Z2_SRC = "gens: a b ; rels: a b a^-1 b^-1 ;\n"
KLEIN_SRC = "gens: a b ; rels: a b a b^-1 ;\n"


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
    assert d2.homology == (("pt",), ("b",))


def test_build_family_induce_with_inferred_cover(workdir):
    ast = parse_expression("induce(char_zn(2, 32), cosets=[e, b], group=klein.grp)")
    f = build_family(ast, workdir)
    assert f.fiber_dims == (2,)
    assert f.group.generators == ("a", "b")


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


def test_family_build_and_verify(workdir):
    out = workdir / "fam.json"
    code = run(["family", "build", "--expr", str(workdir / "klein.fam"),
                "--out", str(out)])
    assert code == 0
    rec = json.loads(out.read_text())
    assert rec["fiber_dims"] == [2]
    assert rec["chern"] is None


def test_forms_chern_windings(workdir):
    out = workdir / "w.json"
    code = run(["forms", "chern", "--family", str(workdir / "z2.fam"),
                "--resolution", "16", "--out", str(out)])
    assert code == 0
    rec = json.loads(out.read_text())
    assert rec["windings"] == [[[1, 0], [0, 1]]]


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
    ],
)
def test_family_signature_errors_exit3(workdir, capsys, expr, message):
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


def test_python_dash_m_entry_point(workdir):
    env = {**os.environ, "PYTHONPATH": str(Path(flatdetect.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "flatdetect", "parse", "--presentation", str(workdir / "z2.grp")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["generators"] == ["a", "b"]
