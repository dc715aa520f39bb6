"""Scheduling guards and report rows of the verification runner."""

import hashlib
import json
import os
import random
import subprocess
import sys
from importlib import resources

import jsonschema

from dicksonmui.algebra import AlgebraContext
from dicksonmui.verify import WORKERS_ENV, _rand_monomial, _worker_count, run_suite


def test_worker_count_is_clamped_to_cpu_count(monkeypatch):
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    cores = os.cpu_count() or 1
    assert _worker_count(None) == 1
    assert _worker_count(0) == 1
    assert _worker_count(1) == 1
    assert _worker_count(10**6) == cores


def test_worker_count_from_environment(monkeypatch):
    cores = os.cpu_count() or 1
    monkeypatch.setenv(WORKERS_ENV, "1000000")
    assert _worker_count(None) == cores
    monkeypatch.setenv(WORKERS_ENV, "-3")
    assert _worker_count(None) == 1
    monkeypatch.setenv(WORKERS_ENV, " ")
    assert _worker_count(None) == 1
    # an explicit count wins over the environment
    monkeypatch.setenv(WORKERS_ENV, "1000000")
    assert _worker_count(1) == 1


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


def test_import_leaves_the_process_pool_out():
    code = "import sys, dicksonmui; print('concurrent.futures' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "False"


def _without_seconds(report):
    rows = [{k: v for k, v in row.items() if k != "seconds"} for row in report["cells"]]
    return dict(report, seconds=None, workers=None, cells=rows)


def test_worker_pool_gives_the_serial_report():
    args = dict(p_values=(3,), max_n=1)
    serial = run_suite("closed-forms", workers=1, **args)
    pooled = run_suite("closed-forms", workers=2, **args)
    assert len(serial["cells"]) > 1
    assert _without_seconds(pooled) == _without_seconds(serial)


def _reference_rand_monomial(rng, ctx, max_e=5):
    # the same draws as _rand_monomial, built through the validating
    # ctx.monomial
    xs = tuple(sorted(rng.sample(range(1, ctx.m + 1), rng.randint(0, min(ctx.m, 2)))))
    ys = tuple(rng.randint(0, max_e) for _ in range(ctx.m))
    return ctx.monomial(xs, ys, rng.randint(1, ctx.p - 1))


def test_rand_monomial_draws_the_reference_elements():
    for p, m, max_e in ((3, 2, 5), (5, 2, 3), (7, 3, 5), (3, 1, 0), (5, 0, 5)):
        ctx = AlgebraContext(p, m)
        fast, slow = random.Random(p + m), random.Random(p + m)
        for _ in range(300):
            a = _rand_monomial(fast, ctx, max_e)
            assert a == _reference_rand_monomial(slow, ctx, max_e)
        assert fast.getstate() == slow.getstate()


# The full p = 3, 5, 7 report up to n = 3 with nothing skipped on budget
# (20065 PASS, 17074 SKIP, 0 FAIL), rows without their seconds.  Any change
# to a value, a reason or the grid changes it; a change of coverage must
# freeze the new hash.
FULL_REPORT_SHA256 = "dddd883776700b4c2f2e6018240e2c1ff60b950157885f5a5c51b5af4158d290"


def test_full_report_is_unchanged():
    rep = run_suite("all", p_values=(3, 5, 7), max_n=3, grid="full", budget=10**9, workers=1)
    assert rep["counts"] == {"pass": 20065, "fail": 0, "skip": 17074}
    rows = [{k: v for k, v in row.items() if k != "seconds"} for row in rep["cells"]]
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert digest == FULL_REPORT_SHA256
