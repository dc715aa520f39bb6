"""Adjointness checks pairing Steenrod actions on the two invariant families.

A Milnor operation applied to an n-pair invariant (Mtilde_{n,s} or
Q_{n,s}) pairs against dual basis functionals of the (k+1)-pair family
(U_{k+1}, V_{k+1}), and vice versa, up to an explicit sign and an index
bookkeeping rule: the left pairing can only be nonzero when e + 2j hits
-[-2p^s] for some s in -delta..n-delta.  This module evaluates both
pairings exactly over Z/p and compares them cell by cell; the expansion
helpers rebuild one side's operation values entirely from pairings
computed on the other side.

Dual functionals are coefficient extractions: m̃_S q̃_H reads off the
(S, H) coordinate in the invariant monomial basis, and the mixed
functional m̃_S q̃_H ⊗ u^e γ_j(v) reads the (S, H, e, j) coordinate in
the basis {Mtilde_S Qtilde^H U_{k+1}^e V_{k+1}^j} of the (k+1)-pair
algebra.  Every pairing is read at a key that ``milnor_key`` makes from an
index that passed ``check_index``; an index with no key names no basis
monomial, so it pairs to 0.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cache

from .algebra import (
    AlgebraContext, Element, Monomial, _add_into, _field_width, _mask_groups, _mul_into,
    _pow_groups, _product_groups, _reduce_acc, _top_degree, embed,
)
from .arith import Factors, factor_columns
from .closed_forms import FAMILIES
from .invariants import U, V, dimension
from .steenrod import (
    _basis_element, _basis_keys, _column, _decompose, admissible_indices, basis_element,
    check_index, invariant_decompose, milnor_key, milnor_sign, milnor_st,
)


def dim_bracket(p: int, s: int) -> int:
    """[-2p^s], extended by the convention -1 at s = -1."""
    if s < -1:
        raise ValueError("s must be >= -1")
    return -1 if s == -1 else -2 * p**s


# ---------------------------------------------------------------- pairings

@cache
def _mixed_candidates(p: int, n: int, d: int, xcount: int,
                      width: int) -> tuple[tuple[tuple, ...], tuple[dict[int, int], ...], Factors]:
    """The mixed basis keys (S, H, eps, m) of degree d over n = k + 1 pairs
    with len(S) + eps = xcount, their monomials Mtilde_S Qtilde^H U_n^eps
    V_n^m as columns, and factors, as _candidates gives the invariant basis
    (read-only: shared with the cache).  A column is the packed basis
    monomial over k pairs with a zero y_n field appended, times U_n, then
    V_n^m (the small factor first; V_n^m only for an (eps, m) with a key)."""
    k = n - 1
    big = AlgebraContext(p, n)
    u = _mask_groups(U(big, n), width)
    v = _mask_groups(V(big, n), width)
    keys, columns = [], []
    for eps in range(min(xcount, 1) + 1):
        m = 0
        while (rem := d - eps * dimension("U", p, n) - m * dimension("V", p, n)) >= 0:
            heads = list(_basis_keys(p, k, rem, xcount - eps))
            v_m = _pow_groups(v, m, p) if heads and m else None
            for S, H in heads:
                col = {mask: (xs, {key << width: c for key, c in group.items()})
                       for mask, (xs, group) in _basis_element(p, k, S, H, width).items()}
                if eps:
                    col = _product_groups(col, u, p)
                if m:
                    col = _product_groups(col, v_m, p)
                keys.append((S, H, eps, m))
                columns.append(_column(col, n))
            m += 1
    return tuple(keys), tuple(columns), factor_columns(columns, p)


@cache
def mixed_decompose(a: Element, k: int) -> dict[tuple, int]:
    """Coordinates of a in {Mtilde_S Qtilde^H U_{k+1}^eps V_{k+1}^m}.

    k must be >= 0 and a homogeneous over k+1 pairs (ValueError
    otherwise, the zero element included), and a must lie in the span
    (NotInSpanError otherwise).  Zero coordinates are omitted.  The result
    is cached and shared: read it, do not mutate it.  One _decompose over
    all k+1 pairs against _mixed_candidates, whose cofactors are scalars.
    """
    if k < 0:
        raise ValueError("k must be >= 0, got %r" % (k,))
    if a.ctx.m != k + 1:
        raise ValueError("element must live over k+1 generator pairs")
    if not a.is_homogeneous():
        raise ValueError("mixed decomposition needs a homogeneous element")
    width = _field_width(_top_degree(a))
    coords = _decompose(a.ctx, _mask_groups(a, width), width, k + 1, _mixed_candidates)
    return {key: tail.constant_term() for key, tail in coords.items()}


@cache
def invariant_coordinates(img: Element, n: int) -> dict[tuple, int]:
    """Coordinates of img in the invariant basis {Mtilde_S Qtilde^H} of its
    leading n pairs; zero coordinates are omitted.  Every cofactor over the
    trailing pairs must be a scalar (ValueError otherwise).  The result is
    cached and shared: read it, do not mutate it."""
    out = {}
    for (S, H), tail in invariant_decompose(img, n).items():
        c = tail.constant_term()
        if len(tail) > 1 or not c:
            raise ValueError("cofactor at %s,%s is not a scalar" % (S, H))
        out[S, H] = c
    return out


def pairing_sign_exp(
    p: int,
    n: int,
    k: int,
    delta: int,
    s: int,
    S: Sequence[int],
    R: Sequence[int],
    Sp: Sequence[int],
    Rp: Sequence[int],
) -> int:
    """Parity of the sign relating the two pairings (0 or 1)."""
    t, tp = len(S), len(Sp)
    h = (p - 1) // 2
    total = (
        milnor_sign(S, R)
        + milnor_sign(Sp, Rp)
        + s
        + delta
        + (t + dim_bracket(p, s)) * tp
        + n * h * k * delta
    )
    return total % 2


def _check_delta(delta: int) -> None:
    """Refuse any delta but 0 (the Q/V pair) and 1 (the Mtilde/U pair)."""
    if delta not in (0, 1):
        raise ValueError("delta must be 0 or 1, got %r" % (delta,))


# delta -> the closed_forms.FAMILIES letters of the invariants it pairs,
# (M/Q side over n pairs, U/V side over k+1 pairs): 0 pairs Q_{n,s} with
# V_{k+1}, 1 pairs Mtilde_{n,s} with U_{k+1}
PAIRED_FAMILIES = (("Q", "V"), ("M", "U"))


def _mq_total(p: int, n: int, delta: int) -> int:
    """The M/Q-side target's degree at s less [-2p^s], the same at every s."""
    return FAMILIES[PAIRED_FAMILIES[delta][0]].degree(p, n, -delta) - dim_bracket(p, -delta)


def _signed_mq_pairing(
    p: int, n: int, k: int, delta: int, s: int, target: Element,
    S: tuple, R: tuple, Sp: tuple, Rp: tuple, Hp: tuple,
) -> int:
    """<m̃_{S'} q̃_{H'}, St^{S,R}(target)> times the relating sign, target
    the s-th M/Q-side invariant: the value its U/V-side pairing must equal."""
    rimg = milnor_st(S, R, target, k)
    if rimg.is_zero():
        return 0
    c = invariant_coordinates(rimg, n).get((Sp, Hp), 0)
    if c and pairing_sign_exp(p, n, k, delta, s, S, R, Sp, Rp):
        c = p - c
    return c


# ----------------------------------------------------------- duality cells


def _matched_s(p: int, n: int, delta: int, e: int, j: int) -> "int | None":
    """The unique s in -delta..n-delta with e + 2j = -[-2p^s], if any."""
    for s in range(-delta, n - delta + 1):
        if e + 2 * j == -dim_bracket(p, s):
            return s
    return None


_UV_INADMISSIBLE = "operation inadmissible on U/V; right dual index nonexistent"
_MQ_INADMISSIBLE = "operation inadmissible on M/Q; left dual index nonexistent"
_NO_MATCH = "no matching s; left pairing must vanish"


def _block_results(
    p: int, n: int, k: int, delta: int, Sp: Sequence[int], Rp: Sequence[int],
    heads: Sequence[tuple[Sequence[int], Sequence[int]]],
    ejs: Sequence[tuple[int, int]],
) -> list[list[tuple]]:
    """Evaluate the duality cells (S, R, e, j) of the grid heads x ejs
    against one U/V-side operation St^{Sp,Rp}: for each (S, R) of heads, in
    order, a list of one (s, status, reason, lhs, rhs) tuple per (e, j) of
    ejs, in order.

    status PASS means the two pairings agreed (or the left one vanished
    on a cell with no matching s); FAIL is a genuine inequality; SKIP
    marks cells where one side's operation is inadmissible, which forces
    the other side's dual index out of existence as well.

    delta, (Sp, Rp), every head and every (e, j) are checked before any
    algebra runs.  The U/V-side image and its mixed coordinates are
    computed at most once per block, when the first cell with a key reads
    them; the matched s once per (e, j); every pairing is read at a
    ``milnor_key``.
    """
    _check_delta(delta)
    mq, uv = (FAMILIES[letter] for letter in PAIRED_FAMILIES[delta])
    Sp, Rp = check_index(Sp, Rp, n)
    heads = [check_index(S, R, k) for S, R in heads]
    for e, j in ejs:
        if e not in (0, 1) or j < 0:
            raise ValueError("e must be 0 or 1 and j >= 0, got e = %r, j = %r" % (e, j))
    key_p = milnor_key(Sp, Rp, uv.degree(p, k))
    if key_p is None:
        return [[(None, "SKIP", _UV_INADMISSIBLE, None, None)] * len(ejs) for _ in heads]
    coords = None
    ctxn = AlgebraContext(p, n)
    q_mq = _mq_total(p, n, delta)
    cells = [(e, j, q_mq - e - 2 * j, _matched_s(p, n, delta, e, j)) for e, j in ejs]
    out = []
    for S, R in heads:
        row = []
        for e, j, q, s in cells:
            key = milnor_key(S, R, q)
            if key is None and s is not None:
                # St^{S,R} is inadmissible on the matched M/Q target
                row.append((s, "SKIP", _MQ_INADMISSIBLE, None, None))
                continue
            # <m̃_S q̃_H ⊗ u^e γ_j(v), St^{Sp,Rp}(U/V_{k+1})>, 0 with no key
            lhs = 0
            if key is not None:
                if coords is None:
                    coords = mixed_decompose(milnor_st(
                        Sp, Rp, uv.target(AlgebraContext(p, k + 1), k), n), k)
                lhs = coords.get(key + (e, j), 0)
            if s is None:
                row.append((None, "PASS" if lhs == 0 else "FAIL", _NO_MATCH, lhs, 0))
                continue
            rhs = _signed_mq_pairing(
                p, n, k, delta, s, mq.target(ctxn, n, s), S, R, Sp, Rp, key_p[1])
            row.append((s, "PASS" if lhs == rhs else "FAIL", "", lhs, rhs))
        out.append(row)
    return out


def duality_case(
    p: int, n: int, k: int, delta: int, S: Sequence[int], R: Sequence[int],
    Sp: Sequence[int], Rp: Sequence[int], e: int, j: int,
) -> dict:
    """Evaluate one duality cell (_block_results); returns its report dict."""
    S, R, Sp, Rp = tuple(S), tuple(R), tuple(Sp), tuple(Rp)
    [[(s, status, reason, lhs, rhs)]] = _block_results(p, n, k, delta, Sp, Rp, [(S, R)], [(e, j)])
    return {
        "p": p, "n": n, "k": k, "delta": delta,
        "S": S, "R": R, "Sp": Sp, "Rp": Rp, "e": e, "j": j,
        "s": s, "status": status, "reason": reason, "lhs": lhs, "rhs": rhs,
    }


# ------------------------------------------------------------- expansions


def expand_mq(
    p: int, n: int, k: int, delta: int, s: int, S: Sequence[int], R: Sequence[int]
) -> Element:
    """St^{S,R}(Mtilde_{n,s} if delta else Q_{n,s}) rebuilt over n pairs,
    with every coefficient computed as a pairing on the U/V side.

    (S, R) must pass ``check_index`` with len(R) = k, delta be 0 or 1, (n, s)
    meet the M/Q family's index rule, and the operation be admissible on
    the target (its degree-r0 entry nonnegative); otherwise ValueError.
    """
    _check_delta(delta)
    S, R = check_index(S, R, k)
    mq, uv = (FAMILIES[letter] for letter in PAIRED_FAMILIES[delta])
    key = milnor_key(S, R, mq.degree(p, n, s))
    if key is None:
        raise ValueError("operation inadmissible on the M/Q target")
    e, j = (1, 0) if s == -1 else (0, p**s)
    uv_target = uv.target(AlgebraContext(p, k + 1), k)
    q_uv = uv.degree(p, k)
    acc: dict[Monomial, int] = {}
    for Sp, Rp in admissible_indices(q_uv, n):
        img = milnor_st(Sp, Rp, uv_target, n)
        if img.is_zero():
            continue
        c = mixed_decompose(img, k).get(key + (e, j), 0)
        if not c:
            continue
        if pairing_sign_exp(p, n, k, delta, s, S, R, Sp, Rp):
            c = p - c
        _add_into(acc, basis_element(p, n, *milnor_key(Sp, Rp, q_uv)), c)
    return _reduce_acc(AlgebraContext(p, n), acc)


def expand_uv(
    p: int, n: int, k: int, delta: int, Sp: Sequence[int], Rp: Sequence[int]
) -> Element:
    """St^{S',R'}(U_{k+1} if delta else V_{k+1}) rebuilt over k+1 pairs,
    with every coefficient computed as a pairing on the M/Q side.

    (Sp, Rp) must pass ``check_index`` with len(Rp) = n, and delta be 0
    or 1.  The s = -1 stratum contributes through U_{k+1} (the Frobenius
    ladder starts one rung below V_{k+1}).
    """
    _check_delta(delta)
    Sp, Rp = check_index(Sp, Rp, n)
    mq, uv = (FAMILIES[letter] for letter in PAIRED_FAMILIES[delta])
    key_p = milnor_key(Sp, Rp, uv.degree(p, k))
    if key_p is None:
        raise ValueError("operation inadmissible on the U/V target")
    big = AlgebraContext(p, k + 1)
    ctxn = AlgebraContext(p, n)
    acc: dict[Monomial, int] = {}
    for s in range(-delta, n - delta + 1):
        target = mq.target(ctxn, n, s)
        q_mq = mq.degree(p, n, s)
        tail = U(big, k + 1) if s == -1 else V(big, k + 1) ** (p**s)
        for S, R in admissible_indices(q_mq, k):
            c = _signed_mq_pairing(p, n, k, delta, s, target, S, R, Sp, Rp, key_p[1])
            if not c:
                continue
            head = embed(basis_element(p, k, *milnor_key(S, R, q_mq)), big)
            _mul_into(acc, head, tail, c)
    return _reduce_acc(big, acc)
