"""Tests of the benchmark harness itself.

Run with: python3 -m pytest bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
import tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_toy_span_tree():
    clock = FakeClock()
    t = tracer.Tracer(clock=clock)
    fns = {}

    def leaf():
        clock.now += 2

    def mid():
        clock.now += 1
        fns["leaf"]()
        clock.now += 3
        fns["leaf"]()

    def top():
        clock.now += 5
        fns["mid"]()
        clock.now += 1

    for name, fn in (("leaf", leaf), ("mid", mid), ("top", top)):
        fns[name] = t.wrap(name, fn)
    t.enabled = True
    fns["top"]()
    got = {name: (layer.calls, layer.self_s) for name, layer in t.layers.items()}
    # mid lasts 1 + 2 + 3 + 2 = 8 and top 5 + 8 + 1 = 14
    assert got == {"leaf": (2, 4.0), "mid": (1, 4.0), "top": (1, 6.0)}
    assert sum(s for _, s in got.values()) == clock.now


def test_front_hit_opens_no_real_work():
    t = tracer.Tracer()
    fns = {}
    hit = tracer.COUNTERS["invariants.front"][0]
    fns["work"] = t.wrap("work", lambda: None)
    fns["cached"] = t.wrap("front", lambda: None, hit, memo=True)
    fns["alias"] = t.wrap("front", lambda: fns["cached"](), hit, memo=True)
    fns["miss"] = t.wrap("front", lambda: fns["work"](), hit, memo=True)
    t.enabled = True
    for name in ("cached", "alias", "miss"):
        fns[name]()
    # cached, alias and the cached call inside alias hit; miss does work
    front = t.layers["front"]
    assert (front.calls, front.counts["hits"]) == (4, 3)


def test_traced_counts_repeat_and_cover_every_metric():
    runs = [run.launch("milnor-extract", 3, trace, 170) for trace in (False, True, True)]
    # per_layer raises when the two traced runs disagree on any count
    metrics, _ = run.per_layer(runs)
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"] for m in declared} == set(metrics)
    assert all(r["failed"] == 0 for r in runs)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dickson-div", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
