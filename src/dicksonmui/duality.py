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

from .algebra import AlgebraContext, Element, embed
from .invariants import Q, U, V, Mtilde
from .steenrod import (
    _candidates,
    _span_coordinates,
    admissible_indices,
    basis_element,
    check_index,
    invariant_decompose,
    milnor_key,
    milnor_sign,
    milnor_st,
)


def dim_bracket(p: int, s: int) -> int:
    """[-2p^s], extended by the convention -1 at s = -1."""
    if s < -1:
        raise ValueError("s must be >= -1")
    return -1 if s == -1 else -2 * p**s


# ---------------------------------------------------------------- pairings

def _mixed_candidates(p: int, k: int, d: int, xcount: int) -> tuple[tuple[tuple, dict], ...]:
    """Degree-d keys (S, H, eps, m) with len(S) + eps = xcount, paired with
    the raw term maps of Mtilde_S Qtilde^H U_{k+1}^eps V_{k+1}^m."""
    big = AlgebraContext(p, k + 1)
    got = []
    for eps in (0, 1):
        if eps > xcount:
            continue
        m = 0
        while True:
            rem = d - (eps + 2 * m) * p**k
            if rem < 0:
                break
            for (S, H), _terms in _candidates(p, k, rem, xcount - eps):
                elt = embed(basis_element(p, k, S, H), big)
                if eps:
                    elt = elt * U(big, k + 1)
                if m:
                    elt = elt * V(big, k + 1) ** m
                got.append(((S, H, eps, m), elt.terms))
            m += 1
    return tuple(got)


@cache
def mixed_decompose(a: Element, k: int) -> dict[tuple, int]:
    """Coordinates of a in {Mtilde_S Qtilde^H U_{k+1}^eps V_{k+1}^m}.

    k must be >= 0 and a homogeneous over k+1 pairs (ValueError
    otherwise, the zero element included), and a must lie in the span
    (NotInSpanError otherwise).  Zero coordinates are omitted.  The result
    is cached and shared: read it, do not mutate it.
    """
    if k < 0:
        raise ValueError("k must be >= 0, got %r" % (k,))
    if a.ctx.m != k + 1:
        raise ValueError("element must live over k+1 generator pairs")
    if not a.is_homogeneous():
        raise ValueError("mixed decomposition needs a homogeneous element")
    if a.is_zero():
        return {}
    p, d = a.ctx.p, a.degree()
    by_xcount: dict[int, dict] = {}
    for mono, c in a.terms.items():
        by_xcount.setdefault(len(mono.xs), {})[mono] = c
    out: dict[tuple, int] = {}
    for xc, target in by_xcount.items():
        out.update(_span_coordinates(_mixed_candidates(p, k, d, xc), target, p))
    return out


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


def mq_target(ctxn: AlgebraContext, n: int, s: int, delta: int) -> Element:
    """The M/Q-side invariant over ctxn: Mtilde_{n,s} if delta else Q_{n,s}."""
    return Mtilde(ctxn, n, s) if delta else Q(ctxn, n, s)


def uv_target(big: AlgebraContext, k: int, delta: int) -> Element:
    """The U/V-side invariant over big: U_{k+1} if delta else V_{k+1}."""
    return U(big, k + 1) if delta else V(big, k + 1)


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
    Sp, Rp = check_index(Sp, Rp, n)
    heads = [check_index(S, R, k) for S, R in heads]
    for e, j in ejs:
        if e not in (0, 1) or j < 0:
            raise ValueError("e must be 0 or 1 and j >= 0, got e = %r, j = %r" % (e, j))
    key_p = milnor_key(Sp, Rp, (2 - delta) * p**k)
    if key_p is None:
        return [[(None, "SKIP", _UV_INADMISSIBLE, None, None)] * len(ejs) for _ in heads]
    coords = None
    ctxn = AlgebraContext(p, n)
    q_mq = (2 - delta) * p**n
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
                        Sp, Rp, uv_target(AlgebraContext(p, k + 1), k, delta), n), k)
                lhs = coords.get(key + (e, j), 0)
            if s is None:
                row.append((None, "PASS" if lhs == 0 else "FAIL", _NO_MATCH, lhs, 0))
                continue
            rhs = _signed_mq_pairing(
                p, n, k, delta, s, mq_target(ctxn, n, s, delta), S, R, Sp, Rp, key_p[1])
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

    (S, R) must pass ``check_index`` with len(R) = k, and delta be 0 or 1.
    The operation must be admissible on the target (its degree-r0 entry
    nonnegative); otherwise ValueError.
    """
    _check_delta(delta)
    S, R = check_index(S, R, k)
    if not -delta <= s <= n - delta:
        raise ValueError("s out of range")
    key = milnor_key(S, R, (2 - delta) * p**n + dim_bracket(p, s))
    if key is None:
        raise ValueError("operation inadmissible on the M/Q target")
    e, j = (1, 0) if s == -1 else (0, p**s)
    big = AlgebraContext(p, k + 1)
    uv = uv_target(big, k, delta)
    ctxn = AlgebraContext(p, n)
    q_uv = (2 - delta) * p**k
    total = ctxn.zero()
    for Sp, Rp in admissible_indices(q_uv, n):
        img = milnor_st(Sp, Rp, uv, n)
        if img.is_zero():
            continue
        c = mixed_decompose(img, k).get(key + (e, j), 0)
        if not c:
            continue
        if pairing_sign_exp(p, n, k, delta, s, S, R, Sp, Rp):
            c = p - c
        total = total + basis_element(p, n, *milnor_key(Sp, Rp, q_uv)).scalar_mul(c)
    return total


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
    key_p = milnor_key(Sp, Rp, (2 - delta) * p**k)
    if key_p is None:
        raise ValueError("operation inadmissible on the U/V target")
    big = AlgebraContext(p, k + 1)
    ctxn = AlgebraContext(p, n)
    total = big.zero()
    for s in range(-delta, n - delta + 1):
        target = mq_target(ctxn, n, s, delta)
        q_mq = target.degree()
        tail = U(big, k + 1) if s == -1 else V(big, k + 1) ** (p**s)
        for S, R in admissible_indices(q_mq, k):
            c = _signed_mq_pairing(p, n, k, delta, s, target, S, R, Sp, Rp, key_p[1])
            if not c:
                continue
            head = embed(basis_element(p, k, *milnor_key(S, R, q_mq)), big)
            total = total + (head * tail).scalar_mul(c)
    return total
