"""One cold run of one workload, in a fresh interpreter.

Usage: child.py WORKLOAD SEED TRACE LAUNCHED

``LAUNCHED`` is the parent's ``time.monotonic()`` just before it started
this process, so set-up time covers interpreter start, import and input
generation.  Prints one JSON record on its last line.  A fresh process is
the only cold start the library allows: its module caches have no reset
hook.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def main(argv: list[str]) -> int:
    workload, seed, trace, launched = argv[0], int(argv[1]), argv[2] == "1", float(argv[3])
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    sys.path.insert(0, src)
    import dicksonmui

    if not os.path.abspath(dicksonmui.__file__).startswith(src + os.sep):
        print("dicksonmui was imported from %s, not %s" % (dicksonmui.__file__, src),
              file=sys.stderr)
        return 2
    import tracer

    spans = tracer.Tracer()
    if trace:
        tracer.install(spans)
    # imported after the tracer so its by-name imports see the wrappers
    import workloads

    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")) as fh:
        expected = json.load(fh)
    setup, run, check = workloads.WORKLOADS[workload]
    inputs = setup(seed)
    setup_done = time.monotonic()
    spans.enabled = trace
    t0 = time.perf_counter()
    outputs = run(inputs)
    wall = time.perf_counter() - t0
    spans.enabled = False
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    attempted, failed, records = check(inputs, outputs, expected)
    print(json.dumps({
        "trace": trace,
        "setup_s": setup_done - launched,
        "wall_s": wall,
        "peak_rss_mb": peak_kib * 1024 / 1e6,
        "attempted": attempted,
        "failed": failed,
        "layers": tracer.layer_metrics(spans) if trace else {},
        "records": records,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
