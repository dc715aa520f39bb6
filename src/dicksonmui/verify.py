"""Exact verification suites with budget-aware scheduling.

Every suite is a flat list of independent cells.  A cell compares two
exactly computed quantities — construction against oracle, closed form
against the Cartan expansion, pairing against pairing — or runs a batch
of seeded property checks.  Cells report PASS/FAIL/SKIP rows; a SKIP
always carries a reason (usually the raw-monomial budget) and is never
silent.

Cells run in this process, one after another in build order, so the
report rows come in a fixed order.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from collections import Counter
from collections.abc import Iterable, Sequence

from . import closed_forms as cf
from . import duality
from .algebra import AlgebraContext, Element, Monomial, embed, exact_div, relabel, render_text
from .arith import mu_mod, st_operation_degree
from .grammar import from_json, parse_text, render_latex, to_json
from .invariants import (
    L,
    Ltilde,
    Mtilde,
    Q,
    Q_recursion,
    U,
    V,
    V_product,
    apply_matrix,
    dimension,
    gl_generators,
    sl_generators,
)
from .steenrod import (
    admissible_indices,
    basis_element,
    bockstein,
    compose_check,
    d_star_p,
    milnor_key,
    milnor_sign,
    milnor_st,
    p_power,
    total_power,
)

DEFAULT_BUDGET = 200_000
PROPERTY_CASES = 1000


def _mc(nvars: int, ydeg: int) -> int:
    """Homogeneous monomial count — the raw-monomial budget currency."""
    if ydeg < 0:
        return 0
    return math.comb(ydeg + nvars - 1, nvars - 1)


def _eq_row(lhs: Element, rhs: Element) -> dict:
    if lhs == rhs:
        return {"status": "PASS"}
    return {"status": "FAIL", "lhs": render_text(lhs), "rhs": render_text(rhs)}


def _fmt(t: Sequence[int]) -> str:
    return ",".join(str(v) for v in t)


def _subsets(n: int):
    for size in range(n + 1):
        yield from itertools.combinations(range(n), size)


DUALITY_SHAPES = ((1, 1), (1, 2), (2, 1))


def _grid_caps(p: int, max_n: int, grid: str) -> dict:
    """Every prime-dependent cap of the verification grid, stated once.

    p = 3 runs the widest grid; at larger p the same shapes grow as p**n,
    so the caps are smaller there.  ``grid='small'`` lowers only the p = 3
    duality degree bound."""
    widest = p == 3
    return {
        "lim": min(max_n, 2 if widest else 1),   # closed-form n and k
        "vmax": 2 if widest else 1,              # brackets u <= v <= vmax
        "u2v2": widest,                          # u2/v2, flag/u2 and flag/v2 cells
        "shapes": DUALITY_SHAPES if widest else DUALITY_SHAPES[:1],
        "degmax": 40 if widest and grid == "full" else 24,  # duality degree bound
        "reassemble_n": min(max_n, 2),           # steenrod power-map blocks
    }


# ------------------------------------------------------------- invariants


def _cell_q_recursion(p: int, n: int, s: int) -> dict:
    ctx = AlgebraContext(p, n)
    return _eq_row(Q(ctx, n, s), Q_recursion(ctx, n, s))


def _cell_v_product(p: int, k: int) -> dict:
    ctx = AlgebraContext(p, k)
    return _eq_row(V(ctx, k), V_product(ctx, k))


def _cell_q_base(p: int, n: int) -> dict:
    ctx = AlgebraContext(p, n)
    return _eq_row(Q(ctx, n, 0), Ltilde(ctx, n) ** 2)


def _cell_q_top(p: int, n: int) -> dict:
    ctx = AlgebraContext(p, n)
    return _eq_row(Q(ctx, n, n), exact_div(L(ctx, n, n), L(ctx, n)))


def _cell_gl_invariance(p: int, n: int, s: int, gi: int) -> dict:
    ctx = AlgebraContext(p, n)
    a = Q(ctx, n, s)
    return _eq_row(apply_matrix(a, gl_generators(n, p)[gi]), a)


def _cell_sl_invariance(p: int, n: int, name: str, s: int, gi: int) -> dict:
    ctx = AlgebraContext(p, n)
    a = Ltilde(ctx, n) if name == "L" else Mtilde(ctx, n, s)
    return _eq_row(apply_matrix(a, sl_generators(n, p)[gi]), a)


def _flag_stabilizer_generators(k: int, p: int) -> list:
    """Transvections I + E_ij that fix the last pair's flag (j != k-1):
    the invariance group of U_k and V_k, which mix y_k only upward."""
    return [g for g in sl_generators(k, p)
            if all(g[i][k - 1] == int(i == k - 1) for i in range(k))]


def _cell_flag_invariance(p: int, k: int, name: str, gi: int) -> dict:
    ctx = AlgebraContext(p, k)
    a = U(ctx, k) if name == "U" else V(ctx, k)
    return _eq_row(apply_matrix(a, _flag_stabilizer_generators(k, p)[gi]), a)


def _invariant_tasks(p_values, max_n, grid, seed, cases):
    for p in p_values:
        for n in range(1, max_n + 1):
            base = _mc(n, p**n - 1)
            for s in range(n + 1):
                yield _task("invariants", "Q-recursion/p%d/n%d/s%d" % (p, n, s),
                            _cell_q_recursion, (p, n, s), 4 * base)
            yield _task("invariants", "V-product/p%d/k%d" % (p, n),
                        _cell_v_product, (p, n), _mc(n, p ** (n - 1)) * 4)
            yield _task("invariants", "Q-base/p%d/n%d" % (p, n), _cell_q_base, (p, n), base)
            yield _task("invariants", "Q-top/p%d/n%d" % (p, n), _cell_q_top, (p, n), 1)
            glgen = gl_generators(n, p)
            slgen = sl_generators(n, p)
            gl_est = base * p**n
            for s in range(n):
                for gi in range(len(glgen)):
                    yield _task("invariants", "GL/p%d/n%d/s%d/g%d" % (p, n, s, gi),
                                _cell_gl_invariance, (p, n, s, gi), gl_est)
            sl_targets = [("L", -1)] + [("M", s) for s in range(n)]
            sl_est = _mc(n, p**n) * p**n
            for name, s in sl_targets:
                for gi in range(len(slgen)):
                    yield _task("invariants", "SL/p%d/n%d/%s%d/g%d" % (p, n, name, s, gi),
                                _cell_sl_invariance, (p, n, name, s, gi), sl_est)
            if n >= 2:
                flag_est = _mc(n, p ** (n - 1) * 2) * p**n
                for name in ("U", "V"):
                    for gi in range(len(_flag_stabilizer_generators(n, p))):
                        yield _task("invariants", "flag/p%d/k%d/%s/g%d" % (p, n, name, gi),
                                    _cell_flag_invariance, (p, n, name, gi), flag_est)


# --------------------------------------------------------------- steenrod

_NAMED = ("x", "y", "y^2", "x*y", "y^3", "U2", "V2")


def _named_element(p: int, name: str) -> Element:
    one = AlgebraContext(p, 1)
    if name == "x":
        return one.x(1)
    if name == "y":
        return one.y(1)
    if name == "y^2":
        return one.y(1, 2)
    if name == "x*y":
        return one.x(1) * one.y(1)
    if name == "y^3":
        return one.y(1, 3)
    two = AlgebraContext(p, 2)
    if name == "U2":
        return U(two, 2)
    if name == "V2":
        return V(two, 2)
    raise ValueError("unknown element name %r" % name)


def assemble_from_milnor(n: int, a: Element) -> Element:
    """Rebuild the n-block power-map image of ``a`` from its extracted
    Milnor operation values — the round trip behind the extraction."""
    ctx = a.ctx
    p, q = ctx.p, a.degree()
    big = AlgebraContext(p, ctx.m + n)
    shift = {i: i + n for i in range(1, ctx.m + 1)}
    scale0 = mu_mod(q, p, n)
    out = big.zero()
    for S, R in admissible_indices(q, n):
        st = milnor_st(S, R, a, n)
        if st.is_zero():
            continue
        c = (p - scale0) % p if milnor_sign(S, R) else scale0
        head = embed(basis_element(p, n, *milnor_key(S, R, q)), big)
        out = out + head * relabel(st, big, shift).scalar_mul(c)
    return out


def _cell_milnor_vs_power(p: int, name: str, r: int) -> dict:
    a = _named_element(p, name)
    return _eq_row(milnor_st((), (r,), a, 1), p_power(r, a))


def _cell_milnor_inadmissible(p: int, name: str) -> dict:
    a = _named_element(p, name)
    r = a.degree() // 2 + 1
    try:
        milnor_st((), (r,), a, 1)
    except ValueError:
        return {"status": "PASS", "reason": "r=%d rejected as inadmissible" % r}
    return {"status": "FAIL", "reason": "r=%d beyond the excess bound was accepted" % r}


def _cell_reassemble(p: int, name: str, n: int) -> dict:
    a = _named_element(p, name)
    return _eq_row(assemble_from_milnor(n, a), d_star_p(n, a))


def _cell_compose(p: int, name: str, s: int, n: int) -> dict:
    a = _named_element(p, name)
    if compose_check(s, n, a):
        return {"status": "PASS"}
    return {"status": "FAIL", "reason": "staged power map disagrees at s=%d n=%d" % (s, n)}


def _steenrod_tasks(p_values, max_n, grid, seed, cases):
    for p in p_values:
        reassemble_n = _grid_caps(p, max_n, grid)["reassemble_n"]
        for name in _NAMED:
            a = _named_element(p, name)
            q = a.degree()
            for r in range(q // 2 + 1):
                yield _task("steenrod", "milnor-power/p%d/%s/r%d" % (p, name, r),
                            _cell_milnor_vs_power, (p, name, r), _mc(a.ctx.m + 1, q * p // 2 + 1))
            yield _task("steenrod", "milnor-inadmissible/p%d/%s" % (p, name),
                        _cell_milnor_inadmissible, (p, name), 10)
            for n in range(1, reassemble_n + 1):
                yield _task("steenrod", "reassemble/p%d/%s/n%d" % (p, name, n), _cell_reassemble,
                            (p, name, n), 2 * _mc(a.ctx.m + n, q * p**n // 2 + 1))
            yield _task("steenrod", "compose/p%d/%s/s1n2" % (p, name), _cell_compose,
                        (p, name, 1, 2), 2 * _mc(a.ctx.m + 2, q * p**2 // 2 + 1))


# ------------------------------------------------------------ closed forms


def _cell_power_family(p: int, family: str, r: int, i1: int, i2: int) -> dict:
    fam = cf.FAMILIES[family]
    ctx = AlgebraContext(p, i1 + fam.shift)
    target = fam.target(ctx, i1, i2)
    res = fam.power(r, i1, i2, ctx)
    row = _eq_row(res.value, p_power(r, target))
    if row["status"] == "PASS" and not res.applicable:
        row["reason"] = "zero branch: %s" % res.condition
    return row


def _cell_bracket(p: int, u: int, v: int) -> dict:
    ctx = AlgebraContext(p, 2)
    (l1, r1), (l2, r2) = cf.bracket_identities(u, v, ctx)
    if l1 == r1 and l2 == r2:
        return {"status": "PASS"}
    bad = "first" if l1 != r1 else "second"
    lhs, rhs = (l1, r1) if l1 != r1 else (l2, r2)
    return {"status": "FAIL", "reason": "%s identity" % bad,
            "lhs": render_text(lhs), "rhs": render_text(rhs)}


def _cell_rank1(p: int, S: tuple, R: tuple, eps: int, b: int) -> dict:
    ctx = AlgebraContext(p, 1)
    a = ctx.monomial((1,) if eps else (), (b,))
    return _eq_row(cf.st_on_rank1(S, R, eps, b, ctx), milnor_st(S, R, a, len(R)))


def _cell_u2(p: int, S: tuple, R: tuple) -> dict:
    ctx = AlgebraContext(p, 2)
    return _eq_row(cf.st_on_u2(S, R, ctx), milnor_st(S, R, U(ctx, 2), len(R)))


def _cell_v2(p: int, R: tuple) -> dict:
    ctx = AlgebraContext(p, 2)
    return _eq_row(cf.st_on_v2(R, ctx), milnor_st((), R, V(ctx, 2), len(R)))


def _cell_flag_mtilde(p: int, max_n: int) -> dict:
    diff = 0
    first = None
    for n in range(1, max_n + 1):
        ctx = AlgebraContext(p, n)
        for s in range(-1, n):
            top = dimension("Mtilde", p, n, s) // 2 + 3
            for r in range(top + 1):
                a = cf.power_on_mtilde(r, n, s, ctx, resolved=True)
                b = cf.power_on_mtilde(r, n, s, ctx, resolved=False)
                if a.value != b.value:
                    diff += 1
                    if first is None:
                        first = (n, s, r)
                        if a.value != p_power(r, Mtilde(ctx, n, s)):
                            return {"status": "FAIL",
                                    "reason": "resolved branch misses oracle at %s" % (first,)}
    return {"status": "PASS",
            "reason": "upper exterior terms frozen to resolved=True; literal display "
                      "deviates at %d cells, first at (n,s,r)=%s" % (diff, first)}


def _cell_flag_u2(p: int) -> dict:
    ctx = AlgebraContext(p, 2)
    diff = 0
    first = None
    for n in (1, 2):
        for R in itertools.product(range(p + 1), repeat=n):
            for u in range(n):
                if milnor_key((u,), R, p) is None:
                    continue
                a = cf.st_on_u2((u,), R, ctx, resolved=True)
                b = cf.st_on_u2((u,), R, ctx, resolved=False)
                if a != b:
                    diff += 1
                    if first is None:
                        first = ((u,), R)
                        if a != milnor_st((u,), R, U(ctx, 2), n):
                            return {"status": "FAIL",
                                    "reason": "resolved case misses extraction at %s" % (first,)}
    return {"status": "PASS",
            "reason": "lower-index terms frozen to resolved=True; literal display "
                      "deviates at %d cells, first at (S,R)=%s" % (diff, first)}


def _cell_flag_v2(p: int) -> dict:
    ctx = AlgebraContext(p, 2)
    first = None
    for n in (1, 2):
        for R in itertools.product(range(p + 1), repeat=n):
            if milnor_key((), R, 2 * p) is None:
                continue
            a = cf.st_on_v2(R, ctx, resolved=True)
            b = cf.st_on_v2(R, ctx, resolved=False)
            if a != b:
                first = R
                if a != milnor_st((), R, V(ctx, 2), n):
                    return {"status": "FAIL",
                            "reason": "frozen sign misses extraction at R=%s" % (first,)}
                break
        if first:
            break
    return {"status": "PASS",
            "reason": "mixed-case sign frozen to %d; opposite sign first disagrees "
                      "with the extraction at R=%s" % (cf.V2_MIXED_CASE_RESOLVED_SIGN, first)}


def _closed_form_tasks(p_values, max_n, grid, seed, cases):
    flags = []
    for p in p_values:
        caps = _grid_caps(p, max_n, grid)
        lim = caps["lim"]
        for k in range(0, lim + 1):
            est = _mc(k + 1, p**k * p)
            for r in range(p**k // 2 + 4):
                yield _task("closed-forms", "power/U/p%d/k%d/r%d" % (p, k, r),
                            _cell_power_family, (p, "U", r, k, 0), est)
            for r in range(p**k + 4):
                yield _task("closed-forms", "power/V/p%d/k%d/r%d" % (p, k, r),
                            _cell_power_family, (p, "V", r, k, 0), est)
        for n in range(1, lim + 1):
            est = _mc(n, p**n * p)
            for s in range(-1, n):
                for r in range(dimension("Mtilde", p, n, s) // 2 + 4):
                    yield _task("closed-forms", "power/M/p%d/n%d/s%d/r%d" % (p, n, s, r),
                                _cell_power_family, (p, "M", r, n, s), est)
            for s in range(n + 1):
                for r in range(dimension("Q", p, n, s) // 2 + 4):
                    yield _task("closed-forms", "power/Q/p%d/n%d/s%d/r%d" % (p, n, s, r),
                                _cell_power_family, (p, "Q", r, n, s), est)
        for u in range(caps["vmax"] + 1):
            for v in range(u, caps["vmax"] + 1):
                yield _task("closed-forms", "bracket/p%d/u%dv%d" % (p, u, v),
                            _cell_bracket, (p, u, v), _mc(2, p**v))
        for ln in (1, 2):
            for R in itertools.product(range(p), repeat=ln):
                for S in _subsets(ln):
                    for eps in (0, 1):
                        for b in range(5):
                            if milnor_key(S, R, eps + 2 * b) is not None:
                                yield _task("closed-forms", "rank1/p%d/S(%s)/R(%s)/e%d/b%d" % (
                                    p, _fmt(S), _fmt(R), eps, b),
                                    _cell_rank1, (p, S, R, eps, b), _mc(2, b * p**ln))
        if caps["u2v2"]:
            for ln in (1, 2):
                for R in itertools.product(range(p + 1), repeat=ln):
                    for S in _subsets(ln):
                        if milnor_key(S, R, p) is not None:
                            yield _task("closed-forms", "u2/p%d/S(%s)/R(%s)" % (
                                p, _fmt(S), _fmt(R)), _cell_u2, (p, S, R), _mc(ln + 2, p**ln * p))
                    if milnor_key((), R, 2 * p) is not None:
                        yield _task("closed-forms", "v2/p%d/R(%s)" % (p, _fmt(R)),
                                    _cell_v2, (p, R), _mc(ln + 2, p**ln * p))
            # the U2/V2 flag cells close the suite's rows
            flags += [_task("closed-forms", "flag/u2/p%d" % p, _cell_flag_u2, (p,), 40_000),
                      _task("closed-forms", "flag/v2/p%d" % p, _cell_flag_v2, (p,), 40_000)]
        yield _task("closed-forms", "flag/mtilde/p%d" % p, _cell_flag_mtilde,
                    (p, lim), _mc(lim, p**lim * p) * 4)
    yield from flags


# ---------------------------------------------------------------- duality


def _block_pairing(p: int, n: int, k: int, delta: int, Sp: tuple, Rp: tuple,
                   degmax: int) -> list[dict]:
    """The finished report rows of one U/V-side operation's duality cells.

    Rows of one block share their index lists: Sp and Rp across the
    block, S and R across each (S, R).  Each row and its params are its
    own dicts; _execute adds only the seconds."""
    base = "pairing/p%d/n%dk%d/d%d/Sp(%s)/Rp(%s)" % (p, n, k, delta, _fmt(Sp), _fmt(Rp))
    q_mq = (2 - delta) * p**n
    ejs = [(e, j) for e in (0, 1) for j in range(p**n + 2) if e + 2 * j <= q_mq + 2]
    tails = ["%d/j%d" % ej for ej in ejs]
    heads = [(S, R) for S in _subsets(k) for R in itertools.product(range(p**n + 2), repeat=k)
             if milnor_key(S, R, q_mq + 4) is not None
             and st_operation_degree(S, R, p) <= degmax]
    results = duality._block_results(p, n, k, delta, Sp, Rp, heads, ejs)
    Sl, Rl = list(Sp), list(Rp)
    rows = []
    for (S, R), res in zip(heads, results):
        head = "%s/S(%s)/R(%s)/e" % (base, _fmt(S), _fmt(R))
        sl, rl = list(S), list(R)
        for (e, j), tail, (s, status, reason, lhs, rhs) in zip(ejs, tails, res):
            row = {
                "suite": "duality",
                "cell": head + tail,
                "status": status,
                "params": {"p": p, "n": n, "k": k, "delta": delta, "S": sl, "R": rl,
                           "Sp": Sl, "Rp": Rl, "e": e, "j": j, "s": s},
            }
            if reason:
                row["reason"] = reason
            if status == "FAIL":
                row["lhs"], row["rhs"] = str(lhs), str(rhs)
            rows.append(row)
    return rows


def _cell_mq_expand(p: int, n: int, k: int, delta: int, s: int, S: tuple, R: tuple) -> dict:
    target = duality.mq_target(AlgebraContext(p, n), n, s, delta)
    got = duality.expand_mq(p, n, k, delta, s, S, R)
    return _eq_row(got, milnor_st(S, R, target, k))


def _cell_uv_expand(p: int, n: int, k: int, delta: int, Sp: tuple, Rp: tuple) -> dict:
    uv = duality.uv_target(AlgebraContext(p, k + 1), k, delta)
    got = duality.expand_uv(p, n, k, delta, Sp, Rp)
    return _eq_row(got, milnor_st(Sp, Rp, uv, n))


def _cell_mq_single(p: int, n: int, k: int, delta: int, s: int, r: int) -> dict:
    ctxn = AlgebraContext(p, n)
    R = (r,) + (0,) * (k - 1)
    got = duality.expand_mq(p, n, k, delta, s, (), R)
    res = cf.FAMILIES["M" if delta else "Q"].power(r, n, s, ctxn)
    return _eq_row(got, res.value)


def _cell_uv_single(p: int, n: int, k: int, delta: int, r: int) -> dict:
    big = AlgebraContext(p, k + 1)
    Rp = (r,) + (0,) * (n - 1)
    got = duality.expand_uv(p, n, k, delta, (), Rp)
    res = cf.FAMILIES["U" if delta else "V"].power(r, k, None, big)
    return _eq_row(got, res.value)


def _duality_tasks(p_values, max_n, grid, seed, cases):
    for p in p_values:
        caps = _grid_caps(p, max_n, grid)
        dm = caps["degmax"]
        for n, k in caps["shapes"]:
            for delta in (0, 1):
                est = (_mc(n + k + 1, (2 - delta) * p**k * p**n // 2)
                       + 4 * _mc(k + 1, dm // 2))
                shape = "p%d/n%dk%d/d%d" % (p, n, k, delta)
                q_uv = (2 - delta) * p**k
                for Sp in _subsets(n):
                    for Rp in itertools.product(range(p**k + 2), repeat=n):
                        if st_operation_degree(Sp, Rp, p) + q_uv > dm:
                            continue
                        op = "%s/Sp(%s)/Rp(%s)" % (shape, _fmt(Sp), _fmt(Rp))
                        yield _task("duality", "pairing/" + op, _block_pairing,
                                    (p, n, k, delta, Sp, Rp, dm), est)
                        if milnor_key(Sp, Rp, q_uv) is not None:
                            yield _task("duality", "uv/" + op, _cell_uv_expand,
                                        (p, n, k, delta, Sp, Rp), est)
                ctxn = AlgebraContext(p, n)
                for s in range(-delta, n - delta + 1):
                    q = duality.mq_target(ctxn, n, s, delta).degree()
                    for S, R in admissible_indices(q, k):
                        if st_operation_degree(S, R, p) + q <= dm:
                            yield _task("duality", "mq/%s/s%d/S(%s)/R(%s)" % (
                                shape, s, _fmt(S), _fmt(R)),
                                _cell_mq_expand, (p, n, k, delta, s, S, R), est)
                    for r in range(q // 2 + 1):
                        yield _task("duality", "mqsingle/%s/s%d/r%d" % (shape, s, r),
                                    _cell_mq_single, (p, n, k, delta, s, r), est)
                for r in range(q_uv // 2 + 1):
                    yield _task("duality", "uvsingle/%s/r%d" % (shape, r),
                                _cell_uv_single, (p, n, k, delta, r), est)


# -------------------------------------------------------------- properties


def _rand_monomial(rng: random.Random, ctx: AlgebraContext, max_e: int = 5) -> Element:
    # One uniform draw: an exterior mask of at most two bits (redrawn until
    # it has), then the exponents in 0..max_e and the coefficient in
    # 1..p-1 as the mixed-radix digits of one randrange.  Valid by
    # construction, so it skips ctx.monomial's checks.
    m, n = ctx.m, max_e + 1
    mask = rng.getrandbits(m)
    while mask.bit_count() > 2:
        mask = rng.getrandbits(m)
    r = rng.randrange(n**m * (ctx.p - 1))
    xs, ys = [], []
    for i in range(1, m + 1):
        if mask >> (i - 1) & 1:
            xs.append(i)
        r, e = divmod(r, n)
        ys.append(e)
    return Element._make(ctx, {Monomial(tuple(xs), tuple(ys)): r + 1})


def _rand_element(rng: random.Random, ctx: AlgebraContext, terms: int = 2,
                  max_e: int = 5) -> Element:
    a = ctx.zero()
    for _ in range(rng.randint(1, terms)):
        a = a + _rand_monomial(rng, ctx, max_e)
    return a


def _cell_property(p: int, family: str, seed: int, cases: int) -> dict:
    rng = random.Random(seed)
    ctx = AlgebraContext(p, 2)
    for i in range(cases):
        if family == "commutativity":
            a, b = _rand_monomial(rng, ctx), _rand_monomial(rng, ctx)
            ba = b * a
            if a.degree() * b.degree() % 2:
                ba = ba.scalar_mul(p - 1)
            if a * b != ba:
                return {"status": "FAIL", "reason": "case %d: %s vs %s" % (
                    i, render_text(a), render_text(b))}
        elif family == "cartan":
            a, b = _rand_element(rng, ctx, 2, 3), _rand_element(rng, ctx, 2, 3)
            rmax = 2
            ta, tb = total_power(a, rmax), total_power(b, rmax)
            tab = total_power(a * b, rmax)
            for r in range(rmax + 1):
                want = ctx.zero()
                for u in range(r + 1):
                    want = want + ta[u] * tb[r - u]
                if tab[r] != want:
                    return {"status": "FAIL", "reason": "case %d r=%d: %s | %s" % (
                        i, r, render_text(a), render_text(b))}
            am = _rand_monomial(rng, ctx)
            prod_rule = bockstein(am) * b + am.scalar_mul(
                p - 1 if am.degree() % 2 else 1) * bockstein(b)
            if bockstein(am * b) != prod_rule:
                return {"status": "FAIL", "reason": "case %d: bockstein derivation" % i}
        elif family == "bockstein":
            a = _rand_element(rng, ctx, 3)
            if not bockstein(bockstein(a)).is_zero():
                return {"status": "FAIL", "reason": "case %d: %s" % (i, render_text(a))}
        elif family == "instability":
            a = _rand_monomial(rng, ctx)
            d = a.degree()
            if d % 2 == 0:
                # exterior factors square to zero, so the p-th power does too
                frob = ctx.zero() if next(iter(a))[0].xs else a**p
                if p_power(d // 2, a) != frob:
                    return {"status": "FAIL", "reason": "case %d: top power of %s" % (
                        i, render_text(a))}
            if not p_power(d // 2 + 1 + rng.randint(0, 2), a).is_zero():
                return {"status": "FAIL", "reason": "case %d: excess of %s" % (
                    i, render_text(a))}
        elif family == "degree":
            a = _rand_monomial(rng, ctx)
            r = rng.randint(0, 3)
            b = p_power(r, a)
            if not b.is_zero() and b.degree() != a.degree() + 2 * r * (p - 1):
                return {"status": "FAIL", "reason": "case %d: P^%d degree" % (i, r)}
            bb = bockstein(a)
            if not bb.is_zero() and bb.degree() != a.degree() + 1:
                return {"status": "FAIL", "reason": "case %d: bockstein degree" % i}
        elif family == "roundtrip":
            a = _rand_element(rng, ctx, 3)
            if parse_text(render_text(a), ctx) != a:
                return {"status": "FAIL", "reason": "case %d: text %s" % (
                    i, render_text(a))}
            if from_json(to_json(a), ctx) != a:
                return {"status": "FAIL", "reason": "case %d: json" % i}
            if not isinstance(render_latex(a), str):
                return {"status": "FAIL", "reason": "case %d: latex render" % i}
        else:
            return {"status": "FAIL", "reason": "unknown family %r" % family}
    return {"status": "PASS", "reason": "%d cases" % cases}


_PROPERTY_FAMILIES = ("commutativity", "cartan", "bockstein",
                      "instability", "degree", "roundtrip")


def _core_tasks(p_values, max_n, grid, seed, cases):
    # cases per family and prime, split exactly over at most 5 batches
    batches = min(5, cases)
    per, extra = divmod(cases, batches)
    for p in p_values:
        for fi, family in enumerate(_PROPERTY_FAMILIES):
            for b in range(batches):
                size = per + (b < extra)
                cell_seed = seed * 1_000_003 + fi * 10_007 + b * 101 + p
                yield _task("core", "%s/p%d/b%d" % (family, p, b), _cell_property,
                            (p, family, cell_seed, size), size * 40)


# Each suite's task builder, in report order.  Every builder takes
# (p_values, max_n, grid, seed, cases), reads what its suite uses and
# yields the suite's tasks in report order.
_BUILDERS = {"core": _core_tasks, "invariants": _invariant_tasks,
             "steenrod": _steenrod_tasks, "closed-forms": _closed_form_tasks,
             "duality": _duality_tasks}
SUITE_NAMES = tuple(_BUILDERS)


# ------------------------------------------------------------- scheduling


def _task(suite: str, cell: str, fn, args: tuple, est: int) -> dict:
    return {"suite": suite, "cell": cell, "fn": fn, "args": args, "est": int(est)}


def _execute(task: dict) -> list[dict]:
    t0 = time.perf_counter()
    try:
        out = task["fn"](*task["args"])
    except Exception as exc:  # a crashing cell is a failing cell
        out = {"status": "FAIL", "reason": "%s: %s" % (type(exc).__name__, exc)}
    dt = time.perf_counter() - t0
    if isinstance(out, list):
        # a multi-row cell returns finished rows; each carries an equal
        # share of the cell's time
        share = round(dt / max(len(out), 1), 6)
        for row in out:
            row["seconds"] = share
        return out
    return [{"suite": task["suite"], "cell": task["cell"], **out, "seconds": round(dt, 6)}]


def run_suite(
    name: str,
    *,
    p_values: Iterable[int] = (3, 5, 7),
    max_n: int = 3,
    grid: str = "full",
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
    workers: "int | None" = None,
    cases: int = PROPERTY_CASES,
) -> dict:
    """Run one verification suite (or ``all``) and return the report dict.

    The defaults are the acceptance grid, the same for every suite:
    p = 3, 5, 7, max_n = 3 and the full duality grid; the CLI passes only
    the flags it is given.  p_values must name at least one odd prime,
    none twice; max_n and cases must be integers of at least 1, budget an
    integer of at least 0 and seed an integer, none a bool; otherwise
    ValueError, before any cell runs.  cases is the number of randomized
    property cases per family and prime.  Every cell runs in this process,
    in build order.  workers accepts only None or 1 (anything else,
    bools included, is a ValueError): bench/workloads.py still passes
    workers=1, and the keyword goes once it stops.  The report records
    the primes, max_n and grid it ran."""
    if name == "all":
        names = SUITE_NAMES
    elif name in SUITE_NAMES:
        names = (name,)
    else:
        raise ValueError("unknown suite %r (choose from %s or 'all')"
                         % (name, ", ".join(SUITE_NAMES)))
    if grid not in ("small", "full"):
        raise ValueError("grid must be 'small' or 'full'")
    primes = tuple(p_values)  # read once: an iterator is spent after one pass
    if not primes:
        raise ValueError("p_values must name at least one prime")
    for p in primes:
        AlgebraContext(p, 0)  # raises the context's own error for a bad p
    if len(set(primes)) < len(primes):
        raise ValueError("p_values repeats a prime: %s" % _fmt(primes))
    if not (type(max_n) is int and max_n >= 1):
        raise ValueError("max_n must be an integer >= 1, got %r" % (max_n,))
    if not (type(cases) is int and cases >= 1):
        raise ValueError("cases must be an integer >= 1, got %r" % (cases,))
    if not (type(budget) is int and budget >= 0):
        raise ValueError("budget must be an integer >= 0, got %r" % (budget,))
    if type(seed) is not int:
        raise ValueError("seed must be an integer, got %r" % (seed,))
    if not (workers is None or (type(workers) is int and workers == 1)):
        raise ValueError("workers must be 1 (cells run in one process), got %r"
                         % (workers,))
    t0 = time.perf_counter()
    rows: list[dict] = []
    for nm in names:
        for t in _BUILDERS[nm](primes, max_n, grid, seed, cases):
            if t["est"] > budget:
                rows.append({"suite": t["suite"], "cell": t["cell"], "status": "SKIP",
                             "reason": "budget: ~%d raw monomials > %d" % (t["est"], budget),
                             "seconds": 0.0})
            else:
                rows.extend(_execute(t))
    counts = Counter(r["status"] for r in rows)
    return {
        "tool": "dicksonmui",
        "suite": name,
        "p_values": list(primes),
        "max_n": max_n,
        "grid": grid,
        "seed": seed,
        "budget": budget,
        "counts": {"pass": counts.get("PASS", 0), "fail": counts.get("FAIL", 0),
                   "skip": counts.get("SKIP", 0)},
        "seconds": round(time.perf_counter() - t0, 3),
        "cells": rows,
    }
