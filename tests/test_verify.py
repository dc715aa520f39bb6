"""Scheduling guards and report rows of the verification runner."""

import json
import os
import subprocess
import sys
from importlib import resources

import jsonschema

from dicksonmui.verify import WORKERS_ENV, _worker_count, run_suite


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
