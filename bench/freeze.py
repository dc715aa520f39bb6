"""Recompute the frozen values in expected.json, cross-checking each one.

Usage: python3 bench/freeze.py

Before its term count and text digest are written, every dickson-div
invariant is checked by a second route:

- Q_{n,s} against the Dickson recursion;
- V_k multiplied back to L_k and, at p = 3, against the product of
  linear forms;
- Ltilde_n through Ltilde_n^2 = Q_{n,0};
- Mtilde_{n,s} and U_k multiplied back to M * Ltilde.

The verify-suite tallies must agree on two seeds, with no FAIL and no
cell skipped on budget.  Run it only in a change that means to move
these values.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from dicksonmui import AlgebraContext, L, Ltilde, M, Q, dimension  # noqa: E402
from dicksonmui.invariants import Q_recursion, V_product  # noqa: E402

import workloads  # noqa: E402


def cross_check(cell, el) -> None:
    family, p, n, *rest = cell
    ctx = AlgebraContext(p, n)
    if family == "Q":
        pairs = [(el, Q_recursion(ctx, n, rest[0]))]
    elif family == "V":
        # the product of p^(k-1) linear forms passes through dense
        # intermediates, affordable only at p = 3; every V multiplies back
        pairs = [(el * L(ctx, n - 1), L(ctx, n))]
        if p == 3:
            pairs.append((el, V_product(ctx, n)))
    elif family == "Ltilde":
        pairs = [(el**2, Q(ctx, n, 0))]
    elif family == "Mtilde":
        pairs = [(el * L(ctx, n), M(ctx, n, rest[0]) * Ltilde(ctx, n))]
    else:
        pairs = [(el * L(ctx, n - 1), M(ctx, n, n - 1) * Ltilde(ctx, n - 1))]
    if any(a != b for a, b in pairs):
        raise SystemExit("%s disagrees with its second route" % workloads.cell_key(cell))


def main() -> None:
    frozen = {}
    for cell, (el, err, _) in zip(workloads.DICKSON_CELLS,
                                  workloads.dickson_run(workloads.DICKSON_CELLS)):
        if err is not None:
            raise SystemExit(err)
        family, p, *idx = cell
        if el.degree() != dimension(family, p, *idx):
            raise SystemExit("%s has the wrong degree" % workloads.cell_key(cell))
        cross_check(cell, el)
        frozen[workloads.cell_key(cell)] = {"terms": len(el), "sha256": workloads.digest(el)}
        print(workloads.cell_key(cell), len(el), "cross-checked", flush=True)
    tallies = []
    for seed in (0, 1):
        report = workloads.verify_run(workloads.verify_setup(seed))
        if report["counts"]["fail"]:
            raise SystemExit("verify-suite has FAIL rows")
        if any(r.get("reason", "").startswith("budget") for r in report["cells"]):
            raise SystemExit("verify-suite skipped cells on budget")
        tallies.append({"pass": report["counts"]["pass"], "skip": report["counts"]["skip"]})
    if tallies[0] != tallies[1]:
        raise SystemExit("verify-suite tallies depend on the seed: %s" % tallies)
    print("verify-suite", tallies[0])
    with open(os.path.join(HERE, "expected.json"), "w") as fh:
        json.dump({"dickson-div": frozen, "verify-suite": tallies[0]}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
