"""Command-line front end.

Subcommands: ``invariant`` builds one invariant and prints it,
``steenrod apply``/``steenrod milnor`` act on a parsed expression,
``closed-form`` evaluates one closed-form action, ``verify`` runs the
exact verification suites, and ``table`` prints an oracle-checked grid
of actions in symbolic (invariant-basis) form.

Exit codes: 0 on success, 1 when a verification cell fails, 2 on usage,
domain or arithmetic errors (bad indices, unparsable input, inadmissible
operation, inexact division, a non-invertible residue) and on a ``--out``
file that cannot be opened.  Every range check on a prime or an index is
the library's; this module only checks that arguments are present and
well formed, and prints the library's errors as ``error: ...``.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import closed_forms as cf
from .algebra import AlgebraContext, Element, render_text
from .duality import invariant_coordinates, mixed_decompose
from .grammar import parse_text, render_latex, to_json
from .invariants import L, Ltilde, M, Mtilde, Q, U, V
from .steenrod import bockstein, milnor_st, p_power
from .verify import SUITE_NAMES, run_suite


class UsageError(ValueError):
    """A missing or malformed argument; every range check is the library's."""


def _emit(el: Element, fmt: str) -> str:
    if fmt == "latex":
        return render_latex(el)
    if fmt == "json":
        return json.dumps(to_json(el))
    return render_text(el)


def _int_list(raw: str) -> tuple[int, ...]:
    if not raw.strip():
        return ()
    try:
        return tuple(int(tok) for tok in raw.split(","))
    except ValueError:
        raise UsageError("expected a comma-separated integer list, got %r" % raw)


def _context(p: int, pairs: int) -> AlgebraContext:
    """The context of an invariant whose index asks for `pairs` generator
    pairs.  A negative index gets none, so the family's own index rule
    rejects it, not the context's rule on m."""
    return AlgebraContext(p, max(pairs, 0))


# ------------------------------------------------------------- invariant

# Each front by name, and how it takes --s: None when it takes none, else
# the invariant that needs it ("" when --s is optional)
_FRONTS = {"L": (L, ""), "M": (M, "M_{k,s}"), "Ltilde": (Ltilde, None),
           "Mtilde": (Mtilde, "Mtilde_{n,s}"), "Q": (Q, "Q_{n,s}"),
           "U": (U, None), "V": (V, None)}


def _cmd_invariant(args) -> int:
    idx = args.n if args.n is not None else args.k
    if idx is None:
        raise UsageError("--n (or --k) is required")
    ctx = _context(args.p, idx)
    front, needs_s = _FRONTS[args.name]
    if needs_s is None and args.s is not None:
        raise UsageError("--s does not apply to %s" % args.name)
    if needs_s and args.s is None:
        raise UsageError("%s needs --s" % needs_s)
    el = front(ctx, idx) if needs_s is None else front(ctx, idx, args.s)
    print(_emit(el, args.format))
    return 0


# -------------------------------------------------------------- steenrod

def _parse_expr(text: str, p: int, pairs: int | None) -> Element:
    if pairs is None:
        seen = [int(i) for i in re.findall(r"[xy](\d+)", text)]
        if not seen:
            raise UsageError("cannot infer the generator count from %r; pass --pairs" % text)
        pairs = max(seen)
    return parse_text(text, AlgebraContext(p, pairs))


def _cmd_steenrod_apply(args) -> int:
    a = _parse_expr(args.expr, args.p, args.pairs)
    op = args.op.strip()
    m = re.fullmatch(r"P\^(\d+)", op)
    if m:
        out = p_power(int(m.group(1)), a)
    elif op in ("beta", "b"):
        out = bockstein(a)
    else:
        raise UsageError("--op must be 'P^r' or 'beta', got %r" % args.op)
    print(_emit(out, args.format))
    return 0


def _cmd_steenrod_milnor(args) -> int:
    S, R = _int_list(args.S), _int_list(args.R)
    a = _parse_expr(args.expr, args.p, args.pairs)
    out = milnor_st(S, R, a, len(R))
    print(_emit(out, args.format))
    return 0


# ----------------------------------------------------------- closed-form

def _closed_form(family: str, p: int, r: int, n: int | None,
                 k: int | None, s: int | None) -> "cf.ClosedFormResult":
    fam = cf.FAMILIES[family]
    takes_s = fam.first_s is not None
    idx, flag = (n, "--n") if takes_s else (k, "--k")
    if idx is None:
        raise UsageError("%s is required for family %s" % (flag, family))
    if s is not None and not takes_s:
        raise UsageError("--s does not apply to family %s" % family)
    ctx = _context(p, idx + fam.shift)
    if s is None and takes_s:
        raise UsageError("--s is required for family %s" % family)
    return fam.power(r, idx, s, ctx)


def _cmd_closed_form(args) -> int:
    res = _closed_form(args.family, args.p, args.r, args.n, args.k, args.s)
    if args.format == "json":
        print(json.dumps({
            "family": args.family, "p": args.p, "r": args.r,
            "n": args.n, "k": args.k, "s": args.s,
            "applicable": res.applicable, "condition": res.condition,
            "value": to_json(res.value),
        }))
    else:
        print(_emit(res.value, args.format))
    return 0


# ---------------------------------------------------------------- verify

def _cmd_verify(args) -> int:
    given = vars(args)  # the flags given; every other argument is run_suite's default
    kwargs = {k: given[k] for k in ("max_n", "grid", "seed", "budget", "cases")
              if k in given}
    if "p" in given:
        kwargs["p_values"] = _int_list(args.p)
    # open --out before any cell runs, so a bad path costs no suite run
    out = open(args.out, "w", encoding="utf-8") if given.get("out") else None
    try:
        rep = run_suite(args.suite, **kwargs)
        if args.format == "json" or out:
            # one compact encoding for both destinations: without indent,
            # json.dumps runs the C encoder
            text = json.dumps(rep)
            if out:
                out.write(text + "\n")
    finally:
        if out:
            out.close()
    if args.format == "json":
        print(text)
    else:
        for c in rep["cells"]:
            line = "%-4s %s" % (c["status"], c["cell"])
            if c.get("reason"):
                line += "  (%s)" % c["reason"]
            if c["status"] == "FAIL" and "lhs" in c:
                line += "  lhs=%s rhs=%s" % (c["lhs"], c["rhs"])
            print(line)
        n = rep["counts"]
        print("suite=%s pass=%d fail=%d skip=%d (%.3fs)"
              % (rep["suite"], n["pass"], n["fail"], n["skip"], rep["seconds"]))
    return 1 if rep["counts"]["fail"] else 0


# ----------------------------------------------------------------- table

def _pow_str(base: str, e: int, latex: bool) -> str:
    if e == 1:
        return base
    return "%s^{%d}" % (base, e) if latex else "%s^%d" % (base, e)


def _sym_term(p: int, n: int, S: tuple, H: tuple, eps: int, m: int,
              c: int, latex: bool) -> str:
    mt = "\\tilde M_{%d,%d}" if latex else "Mt_{%d,%d}"
    lt = "\\tilde L_%d" if latex else "Lt_%d"
    parts = [mt % (n, s) for s in S]
    # fold even Ltilde powers into Q_{n,0} = Ltilde^2 for readability
    q0, odd = divmod(H[0], 2) if H else (0, 0)
    if odd:
        parts.append(lt % n)
    for i, e in enumerate((q0,) + tuple(H[1:])):
        if e:
            parts.append(_pow_str("Q_{%d,%d}" % (n, i), e, latex))
    if eps:
        parts.append("U_%d" % (n + 1))
    if m:
        parts.append(_pow_str("V_%d" % (n + 1), m, latex))
    if c != 1 or not parts:
        parts.insert(0, str(c))
    return (" " if latex else "*").join(parts)


def _symbolic(value: Element, n: int, mixed: bool, latex: bool) -> str:
    """Render over the invariant (or mixed U/V) monomial basis."""
    if value.is_zero():
        return "0"
    if mixed:
        coords = mixed_decompose(value, n)
    else:
        coords = {(S, H, 0, 0): c for (S, H), c in invariant_coordinates(value, n).items()}
    terms = [_sym_term(value.ctx.p, n, S, H, eps, m, coords[(S, H, eps, m)], latex)
             for (S, H, eps, m) in sorted(coords)]
    return " + ".join(terms)


def _table_columns(family: str, p: int, idx: int) -> list[tuple]:
    """(s, target invariant) for each table column; s is None for U/V.  M
    and Q keep their first column (s = -1, s = 0) at every index, so an
    index the closed form refuses meets that refusal in the first cell."""
    fam = cf.FAMILIES[family]
    ctx = _context(p, idx + fam.shift)
    first = fam.first_s
    svals = [None] if first is None else [first] + list(range(first + 1, idx))
    return [(s, fam.target(ctx, idx, s)) for s in svals]


def _cmd_table(args) -> int:
    p, family = args.p, args.family
    idx = args.n if args.n is not None else args.k
    if idx is None:
        raise UsageError("--n (or --k) is required")
    rmax = args.max_r
    if rmax is not None and rmax < 0:
        raise UsageError("--max-r must be >= 0, got %d" % rmax)
    columns = _table_columns(family, p, idx)
    svals = [s for s, _ in columns]
    # by default the largest r any column admits: P^r z = 0 once 2r > deg z
    if rmax is None:
        rmax = max(target.degree() for _, target in columns) // 2
    latex = args.format == "latex"
    mixed = family in ("U", "V")
    grid: dict[int, dict] = {}
    for r in range(rmax + 1):
        for s, target in columns:
            # idx is n for M/Q and k for U/V; each family reads its own
            res = _closed_form(family, p, r, idx, idx, s)
            entry = _symbolic(res.value, idx, mixed, latex)
            ok = res.value == p_power(r, target)
            if not ok:
                entry = "MISMATCH(%s)" % entry
            grid.setdefault(r, {})[s] = {"symbolic": entry, "verified": ok}
    if args.format == "json":
        rows = [{"r": r, "cells": [
            {"s": s, **grid[r][s]} for s in svals]} for r in sorted(grid)]
        print(json.dumps({"family": family, "p": p, "index": idx, "rows": rows}))
        return 0
    header = ["r"] + (["%s_%d" % (family, idx + 1)] if mixed
                      else ["s=%d" % s for s in svals])
    body = [[str(r)] + [grid[r][s]["symbolic"] for s in svals] for r in sorted(grid)]
    if latex:
        print("\\begin{array}{%s}" % ("c" * len(header)))
        print(" & ".join(header) + " \\\\")
        for row in body:
            print(" & ".join(row) + " \\\\")
        print("\\end{array}")
        return 0
    widths = [max(len(line[i]) for line in [header] + body) for i in range(len(header))]
    for line in [header] + body:
        print("  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip())
    return 0


# ------------------------------------------------------------------ main

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dicksonmui",
        description="Exact modular-invariant constructions and Steenrod "
                    "operation checks over odd primes.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_fmt(q, latex=True):
        choices = ["text", "json"] + (["latex"] if latex else [])
        q.add_argument("--format", choices=choices, default="text")

    q = sub.add_parser("invariant", help="construct one invariant")
    q.add_argument("--p", type=int, required=True)
    q.add_argument("--name", required=True,
                   choices=list(_FRONTS))
    q.add_argument("--n", type=int)
    q.add_argument("--k", type=int, help="alias for --n")
    q.add_argument("--s", type=int)
    add_fmt(q)
    q.set_defaults(func=_cmd_invariant)

    st = sub.add_parser("steenrod", help="apply an operation to an expression")
    stsub = st.add_subparsers(dest="mode", required=True)
    q = stsub.add_parser("apply", help="P^r or the Bockstein")
    q.add_argument("--p", type=int, required=True)
    q.add_argument("--op", required=True, help="P^r or beta")
    q.add_argument("--expr", required=True)
    q.add_argument("--pairs", type=int, help="generator pairs (default: inferred)")
    add_fmt(q)
    q.set_defaults(func=_cmd_steenrod_apply)
    q = stsub.add_parser("milnor", help="Milnor-basis St^{S,R}")
    q.add_argument("--p", type=int, required=True)
    q.add_argument("--S", default="", help="comma list, e.g. 0,2 (default empty)")
    q.add_argument("--R", required=True, help="comma list, e.g. 1,0")
    q.add_argument("--expr", required=True)
    q.add_argument("--pairs", type=int)
    add_fmt(q)
    q.set_defaults(func=_cmd_steenrod_milnor)

    q = sub.add_parser("closed-form", help="one closed-form action P^r")
    q.add_argument("--p", type=int, required=True)
    q.add_argument("--family", required=True, choices=list(cf.FAMILIES))
    q.add_argument("--r", type=int, required=True)
    q.add_argument("--n", type=int)
    q.add_argument("--k", type=int)
    q.add_argument("--s", type=int)
    add_fmt(q)
    q.set_defaults(func=_cmd_closed_form)

    # an option left out is left to run_suite's default, the acceptance grid
    q = sub.add_parser("verify", help="run a verification suite",
                       argument_default=argparse.SUPPRESS)
    q.add_argument("--suite", required=True, choices=list(SUITE_NAMES) + ["all"])
    q.add_argument("--p", help="comma list of odd primes, e.g. 3,5")
    q.add_argument("--max-n", type=int, dest="max_n")
    q.add_argument("--grid", choices=["small", "full"])
    q.add_argument("--seed", type=int)
    q.add_argument("--budget", type=int,
                   help="raw-monomial budget per cell; larger cells are skipped")
    q.add_argument("--cases", type=int,
                   help="randomized property cases per family and prime, "
                        "split over up to 5 batches")
    q.add_argument("--out", help="also write the JSON report to this file")
    add_fmt(q, latex=False)
    q.set_defaults(func=_cmd_verify)

    q = sub.add_parser("table", help="oracle-checked grid of P^r actions")
    q.add_argument("--p", type=int, required=True)
    q.add_argument("--family", required=True, choices=list(cf.FAMILIES))
    q.add_argument("--n", type=int)
    q.add_argument("--k", type=int, help="alias for --n")
    q.add_argument("--max-r", type=int, dest="max_r")
    add_fmt(q)
    q.set_defaults(func=_cmd_table)
    return ap


def main(argv: "list[str] | None" = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        # ValueError covers UsageError and ParseError, ArithmeticError
        # InexactDivisionError and ZeroDivisionError, OSError an --out
        # file that cannot be opened
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
