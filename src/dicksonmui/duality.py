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
algebra.  An index with a negative entry names no basis monomial, so its
functional annihilates everything.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
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

@cache
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

    a must be homogeneous over k+1 pairs and lie in the span (raises
    NotInSpanError otherwise).  Zero coordinates are omitted.  The result
    is cached and shared: read it, do not mutate it.
    """
    if a.is_zero():
        return {}
    if a.ctx.m != k + 1:
        raise ValueError("element must live over k+1 generator pairs")
    if not a.is_homogeneous():
        raise ValueError("mixed decomposition needs a homogeneous element")
    p, d = a.ctx.p, a.degree()
    by_xcount: dict[int, dict] = {}
    for mono, c in a.terms.items():
        by_xcount.setdefault(len(mono.xs), {})[mono] = c
    out: dict[tuple, int] = {}
    for xc, target in by_xcount.items():
        out.update(_span_coordinates(_mixed_candidates(p, k, d, xc), target, p))
    return out


def mixed_pairing(
    img: Element, k: int, S: Sequence[int], H: Sequence[int], eps: int, m: int
) -> int:
    """<m̃_S q̃_H ⊗ u^eps γ_m(v), img> over k+1 pairs."""
    if any(h < 0 for h in H) or m < 0:
        return 0
    return mixed_decompose(img, k).get((tuple(S), tuple(H), eps, m), 0)


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


def invariant_pairing(img: Element, n: int, S: Sequence[int], H: Sequence[int]) -> int:
    """<m̃_S q̃_H, img> for an n-pair invariant element img."""
    if any(h < 0 for h in H):
        return 0
    return invariant_coordinates(img, n).get((tuple(S), tuple(H)), 0)


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
    c = invariant_pairing(rimg, n, Sp, Hp)
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
    p: int, n: int, k: int, delta: int, Sp: tuple, Rp: tuple,
    cases: Iterable[tuple[Sequence[int], Sequence[int], int, int]],
) -> list[tuple]:
    """Evaluate the duality cells (S, R, e, j) of cases against one U/V-side
    operation St^{Sp,Rp}; returns one (s, status, reason, lhs, rhs) tuple
    per case, in order.

    status PASS means the two pairings agreed (or the left one vanished
    on a cell with no matching s); FAIL is a genuine inequality; SKIP
    marks cells where one side's operation is inadmissible, which forces
    the other side's dual index out of existence as well.

    delta and (Sp, Rp) are checked once, before any case, by
    ``_check_delta`` and ``check_index``; each case's (S, R) once per run
    of equal cases, and its e and j as it is reached.  What depends only
    on the block is computed once: the U/V-side image and its mixed
    coordinates, the matched s of each e + 2j, and the M/Q-side pairing of
    each (s, S, R).
    """
    _check_delta(delta)
    Sp, Rp = check_index(Sp, Rp, n)
    key_p = milnor_key(Sp, Rp, (2 - delta) * p**k)
    if key_p is not None:
        img = milnor_st(Sp, Rp, uv_target(AlgebraContext(p, k + 1), k, delta), n)
        ctxn = AlgebraContext(p, n)
    coords = None  # mixed_decompose(img, k), read on first use
    q_mq = (2 - delta) * p**n
    matched: dict[int, "int | None"] = {}  # e + 2j -> s
    rhs_of: dict[tuple, int] = {}  # (s, S, R) -> signed M/Q-side pairing
    skipped = (None, "SKIP", _UV_INADMISSIBLE, None, None)
    out = []
    last_S = last_R = None  # consecutive cases of one (S, R) share its reads
    for S, R, e, j in cases:
        S, R = tuple(S), tuple(R)
        if S is not last_S or R is not last_R:
            check_index(S, R, k)
            last_S, last_R = S, R
        if e not in (0, 1) or j < 0:
            raise ValueError("e must be 0 or 1 and j >= 0, got e = %r, j = %r" % (e, j))
        if key_p is None:
            out.append(skipped)
            continue
        key = milnor_key(S, R, q_mq - e - 2 * j)
        if e + 2 * j in matched:
            s = matched[e + 2 * j]
        else:
            s = matched[e + 2 * j] = _matched_s(p, n, delta, e, j)
        if s is not None and key is None:
            # equivalently: St^{S,R} inadmissible on the matched M/Q target
            out.append((s, "SKIP", _MQ_INADMISSIBLE, None, None))
            continue
        # <m̃_S q̃_H ⊗ u^e γ_j(v), img> at the key of St^{S,R} in degree
        # q_mq - e - 2j, as mixed_pairing reads it
        if key is None:
            lhs = 0
        else:
            if coords is None:
                coords = mixed_decompose(img, k)
            lhs = coords.get(key + (e, j), 0)
        if s is None:
            out.append((None, "PASS" if lhs == 0 else "FAIL", _NO_MATCH, lhs, 0))
            continue
        rhs = rhs_of.get((s, S, R))
        if rhs is None:
            rhs = rhs_of[s, S, R] = _signed_mq_pairing(
                p, n, k, delta, s, mq_target(ctxn, n, s, delta), S, R, Sp, Rp, key_p[1])
        out.append((s, "PASS" if lhs == rhs else "FAIL", "", lhs, rhs))
    return out


def duality_case(
    p: int, n: int, k: int, delta: int, S: Sequence[int], R: Sequence[int],
    Sp: Sequence[int], Rp: Sequence[int], e: int, j: int,
) -> dict:
    """Evaluate one duality cell (_block_results); returns its report dict."""
    S, R, Sp, Rp = tuple(S), tuple(R), tuple(Sp), tuple(Rp)
    ((s, status, reason, lhs, rhs),) = _block_results(p, n, k, delta, Sp, Rp, [(S, R, e, j)])
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
        c = mixed_pairing(img, k, *key, e, j)
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
