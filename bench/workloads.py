"""The three benchmark workloads: inputs, the timed work, output checks.

Each workload is three functions.  ``setup(seed)`` makes the inputs,
``run(inputs)`` is the timed section, and ``check(inputs, outputs,
expected)`` compares the outputs with an independent route or with
values frozen in ``expected.json``.  ``check`` returns the number of
operations attempted and failed, plus one record per operation with its
input and output term counts.

An operation is one invariant built (``dickson-div``), one Milnor cell
(``milnor-extract``) or one suite row (``verify-suite``).
"""

from __future__ import annotations

import hashlib
import random
import time

from dicksonmui import (
    AlgebraContext,
    L,
    Ltilde,
    M,
    Mtilde,
    Q,
    U,
    V,
    admissible_indices,
    milnor_st,
    p_power,
    parse_text,
    render_text,
    run_suite,
)

# ------------------------------------------------------------ dickson-div

# The largest invariants that build in seconds.  Q_{4,1} at p = 5 (about
# 45 s) and Q_{5,1} at p = 3 (about 250 s) are left out: 22 runs per
# check would take hours.  (family, p, index arguments); the context has
# as many pairs as the first index.
DICKSON_CELLS = (
    [("Q", 13, 3, s) for s in range(3)]
    + [("Q", 3, 4, s) for s in range(4)]
    + [("V", 3, 5), ("V", 7, 4)]
    + [("Mtilde", 13, 3, s) for s in range(3)]
    + [("Ltilde", 13, 3), ("U", 13, 3)]
)

FAMILIES = {"Q": Q, "V": V, "Mtilde": Mtilde, "Ltilde": Ltilde, "U": U}


def cell_key(cell) -> str:
    family, p, *idx = cell
    return "%s(%s)/p%d" % (family, ",".join(map(str, idx)), p)


def digest(el) -> str:
    return hashlib.sha256(render_text(el).encode()).hexdigest()


def _operands(cell) -> list:
    """The elements an invariant is built from, by its definition."""
    family, p, n, *rest = cell
    ctx = AlgebraContext(p, n)
    if family == "Q":
        return [L(ctx, n, rest[0]), L(ctx, n)]
    if family == "V":
        return [L(ctx, n), L(ctx, n - 1)]
    if family == "Mtilde":
        return [M(ctx, n, rest[0]), L(ctx, n)]
    if family == "Ltilde":
        return [L(ctx, n)]
    return [M(ctx, n, n - 1), L(ctx, n - 1)]


def dickson_setup(seed: int):
    # the inputs are fixed; the seed is only recorded
    return DICKSON_CELLS


def dickson_run(cells):
    out = []
    for cell in cells:
        family, p, *idx = cell
        t0 = time.perf_counter()
        try:
            el, err = FAMILIES[family](AlgebraContext(p, idx[0]), *idx), None
        except Exception as exc:  # a crashing build is a failed operation
            el, err = None, "%s: %s" % (type(exc).__name__, exc)
        out.append((el, err, time.perf_counter() - t0))
    return out


def dickson_check(cells, outputs, expected):
    frozen = expected["dickson-div"]
    records, failed = [], 0
    for cell, (el, err, secs) in zip(cells, outputs):
        key = cell_key(cell)
        rec = {"op": key, "seconds": secs}
        if err is None:
            rec["in_terms"] = [len(a) for a in _operands(cell)]
            rec["out_terms"] = len(el)
            ok = frozen[key] == {"terms": len(el), "sha256": digest(el)}
        else:
            rec["error"], ok = err, False
        rec["ok"] = ok
        failed += not ok
        records.append(rec)
    return len(cells), failed, records


# --------------------------------------------------------- milnor-extract

# (p, n, element over two pairs).  Each keeps V_{n+1} small: p = 3 with
# n = 4 would put a quarter of the run into exact_div.
MILNOR_ANCHORS = (
    (5, 3, "U2"),
    (3, 3, "U2"),
    (3, 3, "V2"),
    (3, 3, "x1*y2^2 + x2*y1^2"),
    (7, 2, "U2"),
    (7, 2, "V2"),
    (5, 2, "U2*V2"),
)
# Seeded random homogeneous elements: (p, n, degree, terms, how many).
# Fixed degree and term count keep their cost, a small share of the
# run, nearly the same from seed to seed.
MILNOR_RANDOM = (5, 2, 7, 3, 6)


def _anchor(p: int, name: str):
    ctx = AlgebraContext(p, 2)
    if name == "U2":
        return U(ctx, 2)
    if name == "V2":
        return V(ctx, 2)
    if name == "U2*V2":
        return U(ctx, 2) * V(ctx, 2)
    return parse_text(name, ctx)


def _random_elements(seed: int):
    p, n, degree, terms, count = MILNOR_RANDOM
    ctx = AlgebraContext(p, 2)
    monos = [
        (xs, (e1, (degree - len(xs)) // 2 - e1))
        for xs in ((), (1,), (2,), (1, 2))
        if (degree - len(xs)) % 2 == 0
        for e1 in range((degree - len(xs)) // 2 + 1)
    ]
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        a = ctx.zero()
        for xs, ys in rng.sample(monos, terms):
            a = a + ctx.monomial(xs, ys, rng.randint(1, p - 1))
        out.append((p, n, a))
    return out


def milnor_setup(seed: int):
    cells = [(p, n, _anchor(p, name)) for p, n, name in MILNOR_ANCHORS]
    return cells + _random_elements(seed)


def milnor_run(cells):
    out = []
    for p, n, a in cells:
        indices = list(admissible_indices(a.degree(), n))
        try:
            values, err = [milnor_st(S, R, a, n) for S, R in indices], None
        except Exception as exc:  # NotInSpanError and crashes fail every cell
            values, err = None, "%s: %s" % (type(exc).__name__, exc)
        out.append((indices, values, err))
    return out


def milnor_check(cells, outputs, expected):
    """St^{(),(r,0,..,0)} must equal P^r from the Cartan-formula oracle."""
    records, attempted, failed = [], 0, 0
    for (p, n, a), (indices, values, err) in zip(cells, outputs):
        q = a.degree()
        attempted += len(indices)
        rec = {"p": p, "n": n, "element": render_text(a), "in_terms": len(a),
               "degree": q}
        if err is not None:
            rec["error"] = err
            failed += len(indices)
            records.append(rec)
            continue
        got = dict(zip(indices, values))
        bad = [r for r in range(q // 2 + 1)
               if got[((), (r,) + (0,) * (n - 1))] != p_power(r, a)]
        failed += len(bad)
        rec["power_mismatch_r"] = bad
        rec["cells"] = [[list(S), list(R), len(v)] for (S, R), v in got.items()]
        records.append(rec)
    return attempted, failed, records


# ----------------------------------------------------------- verify-suite

# High enough that no cell is skipped on budget: the largest estimate in
# this grid is about 2e7 raw monomials.
VERIFY_ARGS = dict(p_values=(3, 5, 7), max_n=3, grid="full", workers=1,
                   budget=10**9)


def verify_setup(seed: int):
    return dict(VERIFY_ARGS, seed=seed)


def verify_run(kwargs):
    return run_suite("all", **kwargs)


def verify_check(kwargs, report, expected):
    """FAIL = 0 and the frozen PASS/SKIP tallies.  A change of coverage
    re-baselines the tallies in a benchmark change of its own."""
    frozen = expected["verify-suite"]
    counts = report["counts"]
    rows = report["cells"]
    drift = max(abs(counts["pass"] - frozen["pass"]), abs(counts["skip"] - frozen["skip"]))
    suites: dict = {}
    for row in rows:
        tally = suites.setdefault(row["suite"], {"PASS": 0, "FAIL": 0, "SKIP": 0,
                                                 "seconds": 0.0})
        tally[row["status"]] += 1
        tally["seconds"] += row.get("seconds", 0.0)
    records = [dict(suite=name, **tally) for name, tally in suites.items()]
    return len(rows), counts["fail"] + drift, records


WORKLOADS = {
    "dickson-div": (dickson_setup, dickson_run, dickson_check),
    "milnor-extract": (milnor_setup, milnor_run, milnor_check),
    "verify-suite": (verify_setup, verify_run, verify_check),
}
