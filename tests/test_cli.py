"""End-to-end CLI behaviour: output formats, exit codes, report schema."""

import json
import os
import subprocess
import sys
import time
from importlib import resources

import jsonschema
import pytest

from dicksonmui.algebra import exact_div
from dicksonmui.arith import ratio_mod
from dicksonmui.cli import main
from dicksonmui.verify import run_suite


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out.rstrip("\n"), out.err


def test_invariant_examples(capsys):
    code, out, _ = run(capsys, "invariant", "--p", "3", "--name", "V", "--k", "2")
    assert code == 0 and out == "y2^3 + 2*y2*y1^2"
    code, out, _ = run(capsys, "invariant", "--p", "3", "--name", "Q", "--n", "1", "--s", "0")
    assert code == 0 and out == "y1^2"
    code, out, _ = run(capsys, "invariant", "--p", "3", "--name", "Q", "--n", "1", "--s", "1")
    assert code == 0 and out == "1"


def test_invariant_formats(capsys):
    code, out, _ = run(capsys, "invariant", "--p", "3", "--name", "U", "--k", "2",
                       "--format", "latex")
    assert code == 0 and out == "x_{1} y_{2} + 2 x_{2} y_{1}"
    code, out, _ = run(capsys, "invariant", "--p", "3", "--name", "U", "--k", "2",
                       "--format", "json")
    data = json.loads(out)
    assert data["p"] == 3 and len(data["terms"]) == 2


def test_invariant_usage_errors(capsys):
    code, _, err = run(capsys, "invariant", "--p", "4", "--name", "V", "--k", "2")
    assert code == 2 and "odd prime" in err
    code, _, err = run(capsys, "invariant", "--p", "3", "--name", "V")
    assert code == 2
    code, _, err = run(capsys, "invariant", "--p", "3", "--name", "Q", "--n", "1")
    assert code == 2 and "Q_{n,s}" in err


def test_steenrod_apply(capsys):
    code, out, _ = run(capsys, "steenrod", "apply", "--p", "3", "--op", "P^1",
                       "--expr", "y2^3 + 2*y2*y1^2")
    assert code == 0 and out == "2*y2^3*y1^2 + y2*y1^4"
    code, out, _ = run(capsys, "steenrod", "apply", "--p", "3", "--op", "beta",
                       "--expr", "x1", "--pairs", "1")
    assert code == 0 and out == "y1"
    code, _, err = run(capsys, "steenrod", "apply", "--p", "3", "--op", "Q^1",
                       "--expr", "y1")
    assert code == 2 and "P^r" in err


def test_steenrod_apply_infers_pairs(capsys):
    code, _, err = run(capsys, "steenrod", "apply", "--p", "3", "--op", "P^1",
                       "--expr", "2")
    assert code == 2 and "--pairs" in err


def test_steenrod_milnor(capsys):
    code, out, _ = run(capsys, "steenrod", "milnor", "--p", "3", "--S", "0",
                       "--R", "0", "--expr", "x1")
    assert code == 0 and out == "y1"
    # inadmissible in the element's degree: domain error, not a crash
    code, _, err = run(capsys, "steenrod", "milnor", "--p", "3",
                       "--R", "14", "--expr", "y1^2")
    assert code == 2 and "inadmissible" in err


def test_closed_form(capsys):
    code, out, _ = run(capsys, "closed-form", "--p", "3", "--family", "Q",
                       "--n", "1", "--s", "0", "--r", "1")
    assert code == 0 and out == "2*y1^4"
    code, out, _ = run(capsys, "closed-form", "--p", "3", "--family", "V",
                       "--k", "1", "--r", "4", "--format", "json")
    data = json.loads(out)
    assert code == 0 and data["applicable"] is False
    assert data["value"]["terms"] == []
    code, _, err = run(capsys, "closed-form", "--p", "3", "--family", "U",
                       "--n", "2", "--r", "0")
    assert code == 2 and "--k" in err


def test_closed_form_q_accepts_s_equal_n(capsys):
    # Q_{n,n} = 1, which power_on_q accepts; the CLI agrees
    code, out, _ = run(capsys, "closed-form", "--p", "3", "--family", "Q",
                       "--n", "1", "--s", "1", "--r", "0")
    assert code == 0 and out == "1"
    code, _, err = run(capsys, "closed-form", "--p", "3", "--family", "Q",
                       "--n", "1", "--s", "2", "--r", "0")
    assert code == 2 and err == "error: s must lie in 0..n\n"


@pytest.mark.parametrize("argv, message", [
    (("invariant", "--name", "L", "--k", "2", "--s", "3"), "s must lie in 0..k"),
    (("invariant", "--name", "L", "--k", "2", "--s", "-1"), "s must lie in 0..k"),
    (("invariant", "--name", "M", "--k", "2", "--s", "2"), "s must lie in 0..k-1"),
    (("invariant", "--name", "M", "--k", "2", "--s", "-1"), "s must lie in 0..k-1"),
    (("invariant", "--name", "Mtilde", "--n", "2", "--s", "2"), "s must lie in -1..n-1"),
    (("invariant", "--name", "Mtilde", "--n", "2", "--s", "-2"), "s must lie in -1..n-1"),
    (("invariant", "--name", "Q", "--n", "2", "--s", "3"), "s must lie in 0..n"),
    (("invariant", "--name", "Q", "--n", "2", "--s", "-1"), "s must lie in 0..n"),
    (("closed-form", "--family", "M", "--n", "2", "--s", "2", "--r", "1"),
     "s must lie in -1..n-1"),
    (("closed-form", "--family", "M", "--n", "2", "--s", "-2", "--r", "1"),
     "s must lie in -1..n-1"),
    (("closed-form", "--family", "Q", "--n", "2", "--s", "3", "--r", "1"),
     "s must lie in 0..n"),
    (("closed-form", "--family", "Q", "--n", "2", "--s", "-1", "--r", "1"),
     "s must lie in 0..n"),
])
def test_out_of_range_s_is_the_library_error(capsys, argv, message):
    # the range checks live in the library; the CLI prints its ValueError
    code, out, err = run(capsys, argv[0], "--p", "3", *argv[1:])
    assert code == 2 and out == ""
    assert err == "error: %s\n" % message


@pytest.mark.parametrize("argv, code, out, err", [
    (("invariant", "--p", "4", "--name", "V", "--k", "2"), 2, "",
     "error: p must be an odd prime, got 4\n"),
    (("closed-form", "--p", "3", "--family", "U", "--k", "0", "--r", "0"), 0, "x1", ""),
    (("closed-form", "--p", "3", "--family", "V", "--k", "0", "--r", "1"), 0, "y1^3", ""),
    (("closed-form", "--p", "3", "--family", "Q", "--n", "1", "--s", "0", "--r", "-1"), 2, "",
     "error: r must be >= 0\n"),
    (("table", "--p", "3", "--family", "V", "--k", "0"), 0, "r  V_1\n0  V_1\n1  V_1^3", ""),
    (("invariant", "--p", "3", "--name", "L", "--n", "0"), 0, "1", ""),
    (("invariant", "--p", "3", "--name", "V", "--k", "0"), 2, "", "error: k must be >= 1\n"),
    # St^{(),()} is the identity
    (("steenrod", "milnor", "--p", "3", "--R", "", "--expr", "y1"), 0, "y1", ""),
    (("verify", "--suite", "core", "--budget", "-1"), 2, "",
     "error: budget must be an integer >= 0, got -1\n"),
    # a negative index meets the family's rule, not the context's rule on m
    (("invariant", "--p", "3", "--name", "Ltilde", "--n", "-1"), 2, "", "error: n must be >= 0\n"),
    (("invariant", "--p", "3", "--name", "V", "--k", "-1"), 2, "", "error: k must be >= 1\n"),
    (("invariant", "--p", "3", "--name", "Q", "--n", "-1", "--s", "0"), 2, "",
     "error: n must be >= 0\n"),
    (("closed-form", "--p", "3", "--family", "U", "--r", "1", "--k", "-2"), 2, "",
     "error: k must be >= 0\n"),
    (("closed-form", "--p", "3", "--family", "Q", "--r", "1", "--n", "-1", "--s", "0"), 2, "",
     "error: n must be >= 1\n"),
    (("table", "--p", "3", "--family", "Q", "--n", "-1"), 2, "", "error: n must be >= 0\n"),
    # a negative rank meets the rank's rule first, stated in the index the
    # caller passed: V_{k+1} needs k >= 0 from table and closed-form alike
    (("invariant", "--p", "3", "--name", "M", "--n", "-1", "--s", "0"), 2, "",
     "error: k must be >= 0\n"),
    (("invariant", "--p", "3", "--name", "Mtilde", "--n", "-1", "--s", "0"), 2, "",
     "error: n must be >= 0\n"),
    (("table", "--p", "3", "--family", "V", "--k", "-1"), 2, "", "error: k must be >= 0\n"),
    (("closed-form", "--p", "3", "--family", "V", "--r", "0", "--k", "-1"), 2, "",
     "error: k must be >= 0\n"),
])
def test_the_cli_defers_range_checks_to_the_library(capsys, argv, code, out, err):
    # inputs the CLI once refused itself: the library decides, and the
    # CLI prints its value or its error
    assert run(capsys, *argv) == (code, out, err)


@pytest.mark.parametrize("argv, message", [
    # over 0 pairs there is no exterior index to name
    (("steenrod", "milnor", "--p", "3", "--S", "0", "--R", "", "--expr", "y1"),
     "no exterior index exists over 0 pairs"),
    # both index-0 tables reach the closed form's refusal, which names n
    (("table", "--p", "3", "--family", "Q", "--n", "0"), "n must be >= 1"),
    (("table", "--p", "3", "--family", "M", "--n", "0"), "n must be >= 1"),
])
def test_index_zero_inputs_are_refused(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: %s\n" % message)


@pytest.mark.parametrize("argv, message", [
    (("invariant", "--name", "M", "--k", "2"), "M_{k,s} needs --s"),
    (("invariant", "--name", "Mtilde", "--n", "2"), "Mtilde_{n,s} needs --s"),
    (("closed-form", "--family", "M", "--n", "2", "--r", "1"), "--s is required for family M"),
    (("closed-form", "--family", "Q", "--n", "2", "--r", "1"), "--s is required for family Q"),
])
def test_missing_s_is_a_usage_error(capsys, argv, message):
    code, out, err = run(capsys, argv[0], "--p", "3", *argv[1:])
    assert code == 2 and out == "" and err == "error: %s\n" % message


def test_table_pinned_cells(capsys):
    code, out, _ = run(capsys, "table", "--p", "3", "--family", "Q", "--n", "2")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 10  # header + r = 0..8
    row6 = [c for c in lines[7].split() if c]
    assert row6[0] == "6" and row6[-1] == "Q_{2,1}^3"
    assert "MISMATCH" not in out

    code, out, _ = run(capsys, "table", "--p", "3", "--family", "V", "--k", "1")
    rows = {line.split()[0]: line.split()[1] for line in out.splitlines()[1:]}
    assert rows["3"] == "V_2^3"


def test_table_json_is_verified(capsys):
    code, out, _ = run(capsys, "table", "--p", "3", "--family", "M", "--n", "2",
                       "--format", "json")
    data = json.loads(out)
    assert code == 0 and data["family"] == "M"
    cells = [c for row in data["rows"] for c in row["cells"]]
    assert cells and all(c["verified"] for c in cells)
    # s = -1 column exists and row r=0 is the plain generator name
    first = data["rows"][0]["cells"][0]
    assert first["s"] == -1 and first["symbolic"] == "Lt_2"


def test_verify_text_and_exit_code(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "closed-forms", "--p", "3",
                       "--max-n", "1")
    assert code == 0
    assert out.splitlines()[-1].startswith("suite=closed-forms pass=")
    assert " fail=0 " in out.splitlines()[-1]


def test_verify_json_matches_schema(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "core", "--p", "3",
                       "--cases", "25", "--format", "json")
    assert code == 0
    rep = json.loads(out)
    schema = json.loads(
        resources.files("dicksonmui").joinpath("report_schema.json").read_text())
    jsonschema.validate(rep, schema)
    assert rep["counts"]["fail"] == 0
    assert rep["counts"]["pass"] == len(rep["cells"])


def test_verify_duality_small_grid(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "duality", "--p", "3",
                       "--grid", "small", "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["counts"]["fail"] == 0
    kinds = {c["cell"].split("/")[0] for c in rep["cells"]}
    assert {"pairing", "mq", "uv", "mqsingle", "uvsingle"} <= kinds


def test_verify_budget_skips(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "invariants", "--p", "3",
                       "--max-n", "3", "--budget", "10", "--format", "json")
    assert code == 0  # skips are not failures
    rep = json.loads(out)
    assert rep["counts"]["skip"] > 0
    assert all("budget" in c["reason"] for c in rep["cells"]
               if c["status"] == "SKIP")


def test_verify_defers_to_the_library_default(capsys):
    # with no --p, --max-n or --grid the CLI runs run_suite's own default,
    # the acceptance grid; budget 0 lists its cells without running them
    code, out, _ = run(capsys, "verify", "--suite", "all", "--budget", "0",
                       "--format", "json")
    assert code == 0
    rep = json.loads(out)
    want = run_suite("all", p_values=(3, 5, 7), max_n=3, grid="full", budget=0)
    assert [c["cell"] for c in rep["cells"]] == [c["cell"] for c in want["cells"]]
    assert (rep["p_values"], rep["max_n"], rep["grid"]) == ([3, 5, 7], 3, "full")
    assert (rep["seed"], rep["budget"]) == (0, 0)


def test_verify_out_is_opened_before_any_cell(capsys, monkeypatch, tmp_path):
    from dicksonmui import cli

    ran = []
    monkeypatch.setattr(cli, "run_suite", lambda *a, **k: ran.append(a))
    code, out, err = run(capsys, "verify", "--suite", "core", "--p", "3",
                         "--cases", "5", "--out", str(tmp_path / "missing" / "x.json"))
    assert (code, out, ran) == (2, "", [])
    assert err.startswith("error: ") and "x.json" in err


def test_verify_out_and_json_hold_one_report(capsys, tmp_path):
    path = tmp_path / "rep.json"
    code, out, _ = run(capsys, "verify", "--suite", "closed-forms", "--p", "3",
                       "--max-n", "1", "--format", "json", "--out", str(path))
    assert code == 0
    # byte for byte, run time included: one run, one encoding, two copies
    assert path.read_text(encoding="utf-8") == out + "\n"
    assert json.loads(out)["suite"] == "closed-forms"
    # with text on stdout, the file still holds the JSON report
    code, out, _ = run(capsys, "verify", "--suite", "closed-forms", "--p", "3",
                       "--max-n", "1", "--out", str(path))
    rep = json.loads(path.read_text(encoding="utf-8"))
    assert code == 0
    assert out.splitlines()[-1].startswith("suite=closed-forms pass=%d " % rep["counts"]["pass"])


def test_verify_rejects_bad_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nonsense"])
    assert exc.value.code == 2


def test_verify_has_no_workers_option(capsys):
    # every cell runs in one process; the option is gone
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "core", "--workers", "2"])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (("--max-n", "0"), "max_n must be an integer >= 1"),
    (("--max-n", "-2"), "max_n must be an integer >= 1"),
    (("--cases", "0"), "cases must be an integer >= 1"),
    (("--cases", "-5"), "cases must be an integer >= 1"),
    (("--p", "4"), "odd prime"),
    (("--p", "3,9"), "odd prime"),
    (("--budget", "-1"), "budget must be an integer >= 0"),
    (("--p", "3,3"), "p_values repeats a prime: 3,3"),
    (("--p", ""), "p_values must name at least one prime"),
])
def test_verify_rejects_out_of_range_arguments(capsys, argv, message):
    code, out, err = run(capsys, "verify", "--suite", "all", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


def test_verify_exit_one_on_failure(capsys, monkeypatch):
    import dicksonmui.cli as cli

    def fake_suite(name, **kw):
        return {"tool": "dicksonmui", "suite": name, "seconds": 0.0,
                "counts": {"pass": 0, "fail": 1, "skip": 0},
                "cells": [{"suite": name, "cell": "forced", "status": "FAIL",
                           "reason": "injected", "lhs": "0", "rhs": "1"}]}

    monkeypatch.setattr(cli, "run_suite", fake_suite)
    code, out, _ = run(capsys, "verify", "--suite", "core")
    assert code == 1
    assert "FAIL forced" in out and "lhs=0 rhs=1" in out


def test_verify_out_writes_report(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--suite", "core", "--p", "3",
                       "--cases", "10", "--out", str(path))
    assert code == 0
    rep = json.loads(path.read_text())
    assert rep["counts"]["fail"] == 0 and rep["cells"]


def test_table_empty_range(capsys):
    # a negative --max-r asks for a table with no rows: refused, not an
    # empty table under exit code 0
    for family, idx in (("Q", "--n"), ("V", "--k")):
        argv = ("table", "--p", "3", "--family", family, idx, "1", "--max-r")
        code, out, err = run(capsys, *argv, "-1")
        assert (code, out, err) == (2, "", "error: --max-r must be >= 0, got -1\n")
        code, out, _ = run(capsys, *argv, "0")
        assert code == 0 and len(out.splitlines()) == 2


def _inexact_division(r, a):
    ctx = a.ctx
    return exact_div(ctx.y(1, 2) + ctx.y(2), ctx.y(1))


def _zero_residue(r, a):
    return a.scalar_mul(ratio_mod(1, 3, 3))


def _closed_form_shift(r, a):
    raise ArithmeticError("negative shift with nonzero coefficient")


@pytest.mark.parametrize("fake, message", [
    (_inexact_division, "leading term not divisible"),
    (_zero_residue, "inverse of 0 mod 3"),
    (_closed_form_shift, "negative shift"),
])
def test_arithmetic_errors_exit_two(capsys, monkeypatch, fake, message):
    # InexactDivisionError, ZeroDivisionError and the closed forms'
    # ArithmeticError end in "error: ..." and exit code 2, not a traceback
    import dicksonmui.cli as cli

    monkeypatch.setattr(cli, "p_power", fake)
    code, out, err = run(capsys, "steenrod", "apply", "--p", "3", "--op", "P^1",
                         "--expr", "y1*y2")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


def _module_run(*argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run([sys.executable, "-m", "dicksonmui", *argv], env=env,
                          capture_output=True, text=True, timeout=60)


def test_python_dash_m_runs_the_cli():
    ok = _module_run("invariant", "--p", "3", "--name", "V", "--k", "2")
    assert ok.returncode == 0 and ok.stdout.strip() == "y2^3 + 2*y2*y1^2"
    bad = _module_run("invariant", "--p", "4", "--name", "V", "--k", "2")
    assert bad.returncode == 2 and "odd prime" in bad.stderr


def test_import_loads_no_unused_stdlib_modules():
    # each CLI call is a fresh process, so these would be paid on every
    # call: dataclasses pulls in inspect, ast and dis, fractions decimal
    code = ("import sys; before = set(sys.modules); import dicksonmui; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    # -S: a bare interpreter, without whatever the site hooks load
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    added = set(out.stdout.split())
    assert "dicksonmui.algebra" in added
    assert not added & {"dataclasses", "inspect", "fractions", "decimal", "typing"}


def test_p_power_on_a_huge_exponent_is_immediate():
    # P^r y1^r = y1^(pr): one Cartan split, however large r is
    r = "100000000000"
    t0 = time.monotonic()
    out = _module_run("steenrod", "apply", "--p", "3", "--op", "P^" + r, "--expr", "y1^" + r)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "y1^300000000000"
    assert time.monotonic() - t0 < 10
