"""Run one benchmark workload and print its metrics.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload cold, once per fresh interpreter (``child.py``), one
process at a time, for about ``--seconds`` seconds, and checks every
run's outputs.  With ``--trace 0`` it reports the end-to-end metrics of
BENCHMARK.json as medians over the runs; with ``--trace 1`` it alternates
untraced and traced runs and reports the per-layer metrics, including the
tracing overhead.  Every metric is printed by name with its unit; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full results
(environment, every run, the term counts of every operation) are written
to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# every run must end well inside 180 s, whatever --seconds asks for
HARD_LIMIT_S = 170.0


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def launch(workload: str, seed: int, trace: bool, timeout: float) -> dict:
    """Run one cold child to completion and return its record."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), workload, str(seed),
         "1" if trace else "0", repr(t0)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError("child exited with %d:\n%s" % (proc.returncode, proc.stderr[-2000:]))
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    rec["process_s"] = time.monotonic() - t0
    return rec


def spread(values: list[float]) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0],) * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def commit() -> "str | None":
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_children(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Cold runs until ``seconds`` are used; in trace mode, untraced and
    traced runs alternate and at least one of each is made."""
    start = time.monotonic()
    kinds = [False, True] if trace else [False]
    last: dict[bool, float] = {}
    runs: list[dict] = []
    while True:
        kind = kinds[len(runs) % len(kinds)]
        left = HARD_LIMIT_S - (time.monotonic() - start)
        runs.append(launch(workload, seed, kind, left))
        last[kind] = runs[-1]["process_s"]
        nxt = kinds[len(runs) % len(kinds)]
        if len(runs) >= len(kinds) and (
            time.monotonic() - start + last[nxt] > min(seconds, HARD_LIMIT_S - 10)
        ):
            return runs


def end_to_end(runs: list[dict]) -> tuple[dict, dict]:
    metrics, spreads = {}, {}
    for name in ("wall_s", "setup_s", "peak_rss_mb"):
        spreads[name] = spread([r[name] for r in runs if not r["trace"]])
        metrics[name] = spreads[name]["median"]
    return metrics, spreads


def per_layer(runs: list[dict]) -> tuple[dict, dict]:
    """Counts from the traced runs, which must agree exactly; each layer's
    self time as a median share of the traced wall time."""
    traced = [r for r in runs if r["trace"]]
    plain = [r for r in runs if not r["trace"]]
    first = traced[0]["layers"]
    for r in traced[1:]:
        for key, value in r["layers"].items():
            if not key.endswith(".self_s") and value != first[key]:
                raise RuntimeError("traced runs disagree on %s: %r vs %r"
                                   % (key, value, first[key]))
    metrics = {k: v for k, v in first.items() if not k.endswith(".self_s")}
    for key in first:
        if key.endswith(".self_s"):
            metrics[key[:-1] + "share"] = statistics.median(
                r["layers"][key] / r["wall_s"] for r in traced)
    walls = spread([r["wall_s"] for r in traced])
    plain_walls = spread([r["wall_s"] for r in plain])
    metrics["trace.wall_s"] = walls["median"]
    metrics["trace.overhead_s"] = walls["median"] - plain_walls["median"]
    return metrics, {"trace.wall_s": walls, "untraced.wall_s": plain_walls}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "dicksonmui" / "__init__.py").is_file():
        print("no dicksonmui sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print("unknown workload %r" % args.workload, file=sys.stderr)
        return 2
    # the build: byte-compile the sources once, outside every timed region
    if not all(compileall.compile_dir(str(d), quiet=1) for d in (ROOT / "src", BENCH)):
        print("the sources do not compile", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    try:
        runs = run_children(args.workload, args.seed, args.seconds, trace)
        values, spreads = per_layer(runs) if trace else end_to_end(runs)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print("benchmark run failed: %s" % exc, file=sys.stderr)
        return 1
    declared = spec["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    report = {
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "commit": commit(),
        },
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": trace,
        "metrics": metrics,
        "spreads": spreads,
        "runs": [{k: v for k, v in r.items() if k not in ("records", "layers")} for r in runs],
        "layers": [r["layers"] for r in runs if r["trace"]],
        # operations are deterministic for a seed, so one run's records serve
        "operations": runs[0]["records"],
    }
    out = BENCH / "out" / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print("workload %s seed %d: %d runs, %d/%d operations failed; results in %s"
          % (args.workload, args.seed, len(runs), failed, attempted, out.relative_to(ROOT)))
    for name, m in metrics.items():
        s = spreads.get(name)
        tail = " (q1 %.6g, q3 %.6g, n %d)" % (s["q1"], s["q3"], s["n"]) if s else ""
        print("  %-44s %14.6g %s%s" % (name, m["value"], m["unit"], tail))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
