"""Scheduling guards and report rows of the verification runner."""

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from importlib import resources
from types import SimpleNamespace

import jsonschema
import pytest

from dicksonmui import duality, verify
from dicksonmui.algebra import AlgebraContext
from dicksonmui.arith import st_operation_degree
from dicksonmui.duality import duality_case
from dicksonmui.verify import (
    _duality_tasks,
    _execute,
    _fmt,
    _rand_monomial,
    _subsets,
    run_suite,
)


def _schema():
    return json.loads(
        resources.files("dicksonmui").joinpath("report_schema.json").read_text())


def test_every_row_carries_seconds():
    # block_pairing cells return many rows; each gets an equal share of the
    # cell's time
    rep = run_suite("duality", p_values=(3,), grid="small")
    jsonschema.validate(rep, _schema())
    pairing = [row for row in rep["cells"] if row["cell"].startswith("pairing/")]
    assert len(pairing) > 1000
    assert all("seconds" in row for row in rep["cells"])
    assert sum(row["seconds"] for row in pairing) > 0


def test_budget_skips_carry_zero_seconds():
    rep = run_suite("closed-forms", p_values=(3,), max_n=1, budget=0)
    jsonschema.validate(rep, _schema())
    assert rep["counts"]["skip"] == len(rep["cells"]) > 0
    assert all(row["seconds"] == 0.0 for row in rep["cells"])


def test_p3_flag_cells_only_at_p3():
    # the U2/V2 flag cells exist for p = 3 only, and close the suite's rows
    cells = [row["cell"] for row in
             run_suite("closed-forms", p_values=(5,), max_n=1, budget=0)["cells"]]
    assert cells and not [c for c in cells if "p3" in c.split("/")]
    cells = [row["cell"] for row in
             run_suite("closed-forms", p_values=(3, 5), max_n=1, budget=0)["cells"]]
    assert cells[-2:] == ["flag/u2/p3", "flag/v2/p3"]
    assert len([c for c in cells if c.startswith("flag/")]) == 4


@pytest.mark.parametrize("primes", [lambda: iter((5,)), lambda: (p for p in (5,))],
                         ids=["iterator", "generator"])
def test_p_values_may_be_an_iterator(primes):
    # the primes are read once, so an iterator runs the grid of its list
    want = run_suite("closed-forms", p_values=[5], max_n=1, budget=0)
    got = run_suite("closed-forms", p_values=primes(), max_n=1, budget=0)
    assert got["p_values"] == [5]
    assert len(got["cells"]) == len(want["cells"]) == 326
    assert got["cells"] == want["cells"]


_ACCEPTANCE = dict(p_values=(3, 5, 7), max_n=3, grid="full")


def _cell_names(report):
    return [row["cell"] for row in report["cells"]]


@pytest.mark.parametrize("name", verify.SUITE_NAMES + ("all",))
def test_the_default_is_the_acceptance_grid(name):
    # budget 0 skips every cell, so this lists the grid without running it
    got = run_suite(name, budget=0)
    want = run_suite(name, budget=0, **_ACCEPTANCE)
    assert _cell_names(got) == _cell_names(want)
    assert len(got["cells"]) > 0
    assert {k: got[k] for k in ("p_values", "max_n", "grid")} == {
        "p_values": [3, 5, 7], "max_n": 3, "grid": "full"}
    jsonschema.validate(got, _schema())


def test_the_report_records_the_grid_it_ran():
    rep = run_suite("steenrod", p_values=(7, 3), max_n=1, grid="small", budget=0)
    assert (rep["p_values"], rep["max_n"], rep["grid"]) == ([7, 3], 1, "small")
    jsonschema.validate(rep, _schema())
    for key, bad in (("p_values", None), ("p_values", []), ("p_values", [3, 3]),
                     ("max_n", None), ("max_n", 0)):
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(dict(rep, **{key: bad}), _schema())


def test_import_leaves_the_process_pool_out():
    # every suite runs in this process: neither importing the package nor
    # running cells of every suite loads a pool module
    code = ("import sys, dicksonmui\n"
            "from dicksonmui.verify import run_suite\n"
            "rep = run_suite('all', p_values=(3,), max_n=1, grid='small', cases=5)\n"
            "assert rep['counts']['pass'] > 0 and not rep['counts']['fail']\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"


def test_the_report_has_no_worker_count():
    rep = run_suite("closed-forms", p_values=(3,), max_n=1)
    assert "workers" not in rep and rep["counts"]["pass"] > 0
    jsonschema.validate(rep, _schema())
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(dict(rep, workers=1), _schema())
    # the one value workers still accepts runs the same cells
    again = run_suite("closed-forms", p_values=(3,), max_n=1, workers=1)
    assert _cell_names(again) == _cell_names(rep)


def test_rand_monomial_draws_valid_uniform_terms():
    for p, m, max_e in ((3, 2, 5), (5, 2, 3), (7, 3, 5), (3, 1, 0), (5, 0, 5)):
        ctx = AlgebraContext(p, m)
        rng, twin = random.Random(p + m), random.Random(p + m)
        masks, exponents, coeffs = set(), set(), set()
        for _ in range(300):
            a = _rand_monomial(rng, ctx, max_e)
            assert a == _rand_monomial(twin, ctx, max_e)  # one seed, one sequence
            [(mono, c)] = a.terms.items()
            assert ctx.monomial(mono.xs, mono.ys, c).terms == a.terms
            assert len(mono.xs) <= 2 and max(mono.ys, default=0) <= max_e and 1 <= c < p
            masks.add(mono.xs)
            exponents.update(mono.ys)
            coeffs.add(c)
        if (p, m, max_e) == (5, 2, 3):
            # 300 draws reach every exterior mask, exponent and coefficient
            assert masks == {(), (1,), (2,), (1, 2)}
            assert exponents == set(range(4)) and coeffs == set(range(1, 5))


# The full p = 3, 5, 7 report up to n = 3 with nothing skipped on budget
# (20065 PASS, 17074 SKIP, 0 FAIL), rows without their seconds.  Any change
# to a value, a reason or the grid changes it; a change of coverage must
# freeze the new hash.
FULL_REPORT_SHA256 = "dddd883776700b4c2f2e6018240e2c1ff60b950157885f5a5c51b5af4158d290"


def test_full_report_is_unchanged():
    rep = run_suite("all", p_values=(3, 5, 7), max_n=3, grid="full", budget=10**9)
    assert rep["counts"] == {"pass": 20065, "fail": 0, "skip": 17074}
    rows = [{k: v for k, v in row.items() if k != "seconds"} for row in rep["cells"]]
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert digest == FULL_REPORT_SHA256


def _reference_block_rows(task, share):
    # the rows of one pairing block as they were built before rows were
    # built whole: a report dict per case (duality_case), a row per report,
    # then _execute's copy of each row with the block's share of seconds
    p, n, k, delta, Sp, Rp, degmax = task["args"]
    base = "pairing/p%d/n%dk%d/d%d/Sp(%s)/Rp(%s)" % (p, n, k, delta, _fmt(Sp), _fmt(Rp))
    cases, labels = [], []
    for S in _subsets(k):
        for R in itertools.product(range(p**n + 2), repeat=k):
            if 2 * sum(R) + len(S) > (2 - delta) * p**n + 4:
                continue
            if st_operation_degree(S, R, p) > degmax:
                continue
            label = "%s/S(%s)/R(%s)/e" % (base, _fmt(S), _fmt(R))
            for e in (0, 1):
                for j in range(p**n + 2):
                    if e + 2 * j > (2 - delta) * p**n + 2:
                        continue
                    cases.append((S, R, e, j))
                    labels.append("%s%d/j%d" % (label, e, j))
    rows = []
    reps = [duality_case(p, n, k, delta, S, R, Sp, Rp, e, j) for S, R, e, j in cases]
    for label, (S, R, e, j), rep in zip(labels, cases, reps):
        row = {
            "cell": label,
            "status": rep["status"],
            "params": {"p": p, "n": n, "k": k, "delta": delta,
                       "S": list(S), "R": list(R), "Sp": list(Sp),
                       "Rp": list(Rp), "e": e, "j": j, "s": rep["s"]},
        }
        if rep["reason"]:
            row["reason"] = rep["reason"]
        if rep["status"] == "FAIL":
            row["lhs"], row["rhs"] = str(rep["lhs"]), str(rep["rhs"])
        rows.append(row)
    final = []
    for r in rows:
        row = {"suite": task["suite"], "cell": r.pop("cell", task["cell"])}
        row.update(r)
        row["seconds"] = share
        final.append(row)
    return final


def test_pairing_rows_match_the_reference_rows(monkeypatch):
    # every block of the p = 3, 5, 7 duality grid, values and key order
    # both, with each block timed at exactly 1 s
    clock = itertools.count()
    monkeypatch.setattr(verify, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
    tasks = [t for t in _duality_tasks((3, 5, 7), 3, "full", 0, 1)
             if t["fn"] is verify._block_pairing]
    assert {t["args"][0] for t in tasks} == {3, 5, 7}
    every = []
    for task in tasks:
        got = _execute(task)
        assert got, task["cell"]
        want = _reference_block_rows(task, round(1 / len(got), 6))
        assert json.dumps(got) == json.dumps(want), task["cell"]
        every += got
    assert len(every) > 35000
    assert {row["status"] for row in every} == {"PASS", "SKIP"}
    # rows share their index lists, never a row or its params
    assert len({id(row) for row in every}) == len(every)
    assert len({id(row["params"]) for row in every}) == len(every)


def test_failing_pairing_rows_match_the_reference_rows(monkeypatch):
    # the grids hold no FAIL row, so force the relating sign odd: every
    # nonzero right pairing flips, and the rows carry lhs and rhs
    monkeypatch.setattr(duality, "pairing_sign_exp", lambda *args: 1)
    clock = itertools.count()
    monkeypatch.setattr(verify, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
    failed = 0
    for task in _duality_tasks((3,), 3, "small", 0, 1):
        if task["fn"] is not verify._block_pairing or task["args"][1:3] != (1, 1):
            continue
        got = _execute(task)
        want = _reference_block_rows(task, round(1 / len(got), 6))
        assert json.dumps(got) == json.dumps(want), task["cell"]
        failed += sum(row["status"] == "FAIL" for row in got)
    assert failed


@pytest.mark.parametrize("kwargs, message", [
    (dict(p_values=(4,)), "odd prime"),
    (dict(p_values=(3, 9)), "odd prime"),
    (dict(p_values=(2,)), "odd prime"),
    (dict(max_n=0), "max_n"),
    (dict(max_n=-2), "max_n"),
    (dict(cases=0), "cases"),
    (dict(cases=-5), "cases"),
    (dict(p_values=(3.0,)), "odd prime"),
    (dict(max_n=2.5), "max_n"),
    (dict(cases=2.5), "cases"),
    (dict(budget=-1), "budget"),
    (dict(budget="x"), "budget"),
    (dict(seed="x"), "seed"),
    (dict(seed=1.5), "seed"),
    (dict(workers=1.5), "workers"),
    (dict(workers="2"), "workers"),
    (dict(p_values=()), "at least one prime"),
    (dict(p_values=(3, 3)), "repeats a prime: 3,3"),
    (dict(p_values=(5, 3, 7, 5)), "repeats a prime"),
    (dict(max_n=None), "max_n"),
    (dict(max_n=True), "max_n"),
    (dict(cases=True), "cases"),
    (dict(budget=False), "budget"),
    (dict(seed=True), "seed"),
    (dict(workers=True), "workers"),
    (dict(workers=2), "workers must be 1"),
    (dict(workers=0), "workers must be 1"),
    (dict(workers=False), "workers must be 1"),
])
def test_run_suite_rejects_out_of_range_arguments(monkeypatch, kwargs, message):
    ran = []  # every cell would pass through _execute; none may
    monkeypatch.setattr(verify, "_execute", lambda task: ran.append(task) or [])
    for name in ("all", "core", "duality"):
        with pytest.raises(ValueError, match=message):
            run_suite(name, **kwargs)
    assert ran == []


def _cases_per_batch(report):
    got: dict = {}
    for row in report["cells"]:
        family = row["cell"].split("/")[0]
        got.setdefault(family, []).append(int(row["reason"].split()[0]))
    return got


@pytest.mark.parametrize("cases, sizes", [
    (7, [2, 2, 1, 1, 1]),
    (3, [1, 1, 1]),
    (1, [1]),
])
def test_property_cases_add_up_to_the_request(cases, sizes):
    rep = run_suite("core", p_values=(3,), cases=cases)
    assert rep["counts"] == {"pass": 6 * len(sizes), "fail": 0, "skip": 0}
    per_batch = _cases_per_batch(rep)
    assert len(per_batch) == 6
    assert all(got == sizes for got in per_batch.values())
