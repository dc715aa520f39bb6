"""Closed-form evaluators for Steenrod actions on the determinantal invariants.

Each evaluator computes P^r (or a Milnor operation) on one invariant
family directly from p-adic digit data, without touching the Cartan
oracle.  The two must agree exactly; the verification suites sweep that
comparison over every admissible parameter cell.

Coefficients are multinomials mod p (``arith.multinomial_mod``) or exact
ratios of integers reduced mod p at the end.  Within each formula's stated
range the ratios' denominators stay prime to p (digit bounds force every
factorial argument below p), which ``ratio_mod`` enforces by refusing
non-invertible denominators.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence

from . import invariants
from .algebra import AlgebraContext, Element
from .arith import digit, inv_mod, multinomial_mod, ratio_mod, st_operation_degree
from .invariants import M, Q, U, V, Ltilde, Mtilde, bracket_e, bracket_x, check_family
from .steenrod import _check_r, check_index

ClosedFormResult = namedtuple("ClosedFormResult", ("value", "applicable", "condition"))
ClosedFormResult.__doc__ = """One closed-form evaluation: its value, whether the formula applied
(False when the "otherwise 0" branch fired), and which branch and why."""


def _digit_steps(r: int, count: int, p: int) -> list[int]:
    """t_i = alpha_i - alpha_{i-1} for i = 0..count-1 (alpha_{-1} = 0)."""
    return [digit(r, i, p) - digit(r, i - 1, p) for i in range(count)]


def _q_product(head: Element, n: int, exps: Sequence[int]) -> Element:
    """head * Q_{n,0}^{exps[0]} .. Q_{n,n-1}^{exps[n-1]} over head's context,
    one factor at a time in index order."""
    for i, e in enumerate(exps):
        if e:
            head = head * Q(head.ctx, n, i) ** e
    return head


def power_on_u(r: int, k: int, ctx: AlgebraContext) -> ClosedFormResult:
    """P^r U_{k+1} in closed form.

    In range (2r < p^k with nondecreasing digits) the value is
    c (h U_{k+1} + sum_u t_u V_{k+1} Mtilde_{k,u} Q_{k,u}^{-1}) prod Q_{k,i}^{t_i}
    with the inverse power folded into the product before anything is built.
    """
    _check_r(r)
    p, h = ctx.p, ctx.h
    if 2 * r > FAMILIES["U"].degree(p, k):
        return ClosedFormResult(ctx.zero(), False, "2r >= p^k")
    t = _digit_steps(r, k, p)
    if any(ti < 0 for ti in t):
        return ClosedFormResult(ctx.zero(), False, "digits decrease")
    # (h - 1)! / ((h - alpha_{k-1})! prod t_i!), the t_i summing to alpha_{k-1}
    cm = multinomial_mod(h, t, p) * inv_mod(h, p) % p
    val = _q_product(U(ctx, k + 1).scalar_mul(cm * h), k, t)
    for u in range(k):
        if not t[u]:
            continue
        exps = [ti - (i == u) for i, ti in enumerate(t)]
        term = _q_product(V(ctx, k + 1) * Mtilde(ctx, k, u), k, exps)
        val = val + term.scalar_mul(cm * t[u])
    return ClosedFormResult(val, True, "2r < p^k, digits nondecreasing")


# Evaluated literally, the source display for the action on Mtilde_{n,s}
# sums exterior terms only up to index s.  That disagrees with the Cartan
# oracle as soon as a higher step t_u is nonzero — first at p = 3, n = 2,
# s = 0, r = 3, where the oracle value carries an extra term in the s = 1
# exterior generator.  Tracing the omission back through the bracket
# expansion (antisymmetric in its two indices, which the display ignores
# for u > s) yields the resolved branch below: the u > s terms enter with
# numerator -(alpha_s + 1) in place of (h - alpha_s).  The resolved form
# was frozen against the oracle at p in {3, 5}, n <= 3, every r in range.
def power_on_mtilde(
    r: int, n: int, s: int, ctx: AlgebraContext, resolved: bool = True
) -> ClosedFormResult:
    """P^r Mtilde_{n,s} in closed form; s = -1 targets Ltilde_n.

    The digit step at position s carries a +1 bump (t_s = alpha_s + 1 -
    alpha_{s-1}).  ``resolved=False`` reproduces the source display,
    which stops the exterior sum at u = s; see the note above.
    """
    _check_r(r)
    if n < 1:
        raise ValueError("n must be >= 1")
    p, h = ctx.p, ctx.h
    if 2 * r > FAMILIES["M"].degree(p, n, s):
        return ClosedFormResult(ctx.zero(), False, "2r beyond the target degree")
    t = [ti + (i == s) for i, ti in enumerate(_digit_steps(r, n, p))]
    t_head = int(s == -1)  # the step at position -1 is the bump alone
    if any(ti < 0 for ti in t):
        return ClosedFormResult(ctx.zero(), False, "digits decrease")
    a_s = digit(r, s, p)
    hi = s if (not resolved or s == -1) else n - 1
    hinv = inv_mod(h, p)
    total = ctx.zero()
    for u in range(-1, hi + 1):
        tu = t_head if u == -1 else t[u]
        if tu == 0:
            continue
        exps = [ti - (i == u) for i, ti in enumerate(t)]
        # num (h - 1)! / ((h - alpha_{n-1})! prod exps_i!); the exps_i sum to alpha_{n-1}
        num = -(a_s + 1) if u > s else h - a_s
        cm = num * multinomial_mod(h, exps, p) * hinv % p
        if not cm:
            continue
        total = total + _q_product(Mtilde(ctx, n, u), n, exps).scalar_mul(cm)
    if total.is_zero():
        return ClosedFormResult(total, True, "in range; coefficients vanish")
    return ClosedFormResult(total, True, "2r within bound, digits admissible")


def power_on_v(r: int, k: int, ctx: AlgebraContext) -> ClosedFormResult:
    """P^r V_{k+1}: the top case V^p at r = p^k, else the digit formula."""
    _check_r(r)
    p = ctx.p
    deg = FAMILIES["V"].degree(p, k)
    if 2 * r == deg:
        return ClosedFormResult(V(ctx, k + 1) ** p, True, "r = p^k")
    if 2 * r > deg:
        return ClosedFormResult(ctx.zero(), False, "r > p^k")
    t = _digit_steps(r, k, p)
    if any(ti < 0 for ti in t):
        return ClosedFormResult(ctx.zero(), False, "digits decrease")
    lead = digit(r, k - 1, p)
    cm = multinomial_mod(lead, t, p)  # the t_i sum to lead
    if lead % 2:
        cm = p - cm
    val = _q_product(V(ctx, k + 1).scalar_mul(cm), k, t)
    return ClosedFormResult(val, True, "r < p^k, digits nondecreasing")


def power_on_q(r: int, n: int, s: int, ctx: AlgebraContext) -> ClosedFormResult:
    """P^r Q_{n,s}: the top case Q^p at r = p^n - p^s, else the digit
    formula with the bumped step at position s folded into Q_{n,s}'s net
    exponent 1 + alpha_s - alpha_{s-1}."""
    _check_r(r)
    if n < 1:
        raise ValueError("n must be >= 1")
    p = ctx.p
    deg = FAMILIES["Q"].degree(p, n, s)
    if 2 * r == deg:
        return ClosedFormResult(Q(ctx, n, s) ** p, True, "r = p^n - p^s")
    if 2 * r > deg:
        return ClosedFormResult(ctx.zero(), False, "r > p^n - p^s")
    t = _digit_steps(r, n, p)
    if any(t[i] < 0 for i in range(n) if i != s):
        return ClosedFormResult(ctx.zero(), False, "digits decrease")
    a_s = digit(r, s, p)
    if a_s + 1 < digit(r, s - 1, p):
        return ClosedFormResult(ctx.zero(), False, "digits decrease")
    lead = digit(r, n - 1, p)
    cm = ratio_mod(
        math.factorial(lead) * (a_s + 1),
        math.factorial(a_s + 1 - digit(r, s - 1, p))
        * math.prod(math.factorial(t[i]) for i in range(n) if i != s),
        p,
    )
    if lead % 2:
        cm = p - cm
    exps = [ti + (i == s) for i, ti in enumerate(t)]
    val = _q_product(ctx.scalar(cm), n, exps)
    return ClosedFormResult(val, True, "r < p^n - p^s, digits admissible")


class ClosedFamily(namedtuple("ClosedFamily", ("front", "shift", "power"))):
    """A closed-form family: the invariant family it acts on, that
    invariant's rank less the caller's index (1 for U_{k+1}) and
    power(r, index, s, ctx)."""

    __slots__ = ()

    def s_range(self, idx: int) -> "range | None":
        """The s of the target at the caller's index, read from the family's
        rule (invariants.s_range); None when it takes no s."""
        return invariants.s_range(self.front, idx + self.shift)

    @property
    def first_s(self) -> "int | None":
        """The first s of a table row; None when the family takes no s."""
        srange = self.s_range(0)
        return None if srange is None else srange.start

    def target(self, ctx: AlgebraContext, idx: int, s: "int | None" = None) -> Element:
        """The invariant acted on at the caller's index, refused in the
        caller's terms; its front is read from invariants by name."""
        return getattr(invariants, self.front)(ctx, *self._args(idx, s))

    def degree(self, p: int, idx: int, s: "int | None" = None) -> int:
        """target's degree at p, read from invariants.dimension; builds nothing."""
        return invariants.dimension(self.front, p, *self._args(idx, s))

    def _args(self, idx: int, s: "int | None") -> tuple:
        check_family(self.front, idx, s, shift=self.shift)
        return (idx + self.shift,) if self.first_s is None else (idx, s)


# The closed-form families by letter.  Closed forms and fronts are called
# through their module names, not held here, so a wrapper rebound to a
# name (as the benchmark tracer does) sees every call.
FAMILIES = {
    "U": ClosedFamily("U", 1, lambda r, k, s, ctx: power_on_u(r, k, ctx)),
    "M": ClosedFamily("Mtilde", 0, lambda r, n, s, ctx: power_on_mtilde(r, n, s, ctx)),
    "V": ClosedFamily("V", 1, lambda r, k, s, ctx: power_on_v(r, k, ctx)),
    "Q": ClosedFamily("Q", 0, lambda r, n, s, ctx: power_on_q(r, n, s, ctx)),
}


def st_on_rank1(
    S: Sequence[int], R: Sequence[int], eps: int, b: int, ctx: AlgebraContext
) -> Element:
    """St^{S,R}(x_1^eps y_1^b) on a single generator pair.

    (S, R) must pass ``check_index`` with n = len(R), as for ``milnor_st``.
    Empty S multiplies by the multinomial and shifts the exponent by the
    weight |R|; S = (u) additionally trades the exterior factor for
    y^{p^u}; longer S always kills the class.
    """
    if eps not in (0, 1):
        raise ValueError("eps must be 0 or 1")
    if b < 0:
        raise ValueError("b must be >= 0")
    S, R = check_index(S, R, len(R))
    p = ctx.p
    if len(S) >= 2:
        return ctx.zero()
    weight = st_operation_degree((), R, p) // 2
    cm = multinomial_mod(b, R, p)
    if not cm:
        return ctx.zero()
    if not S:
        return ctx.monomial((1,) if eps else (), (b + weight,), cm)
    if not eps:
        return ctx.zero()
    return ctx.monomial((), (b + weight + p ** S[0],), cm)


def st_on_u2(
    S: Sequence[int], R: Sequence[int], ctx: AlgebraContext, resolved: bool = True
) -> Element:
    """St^{S,R} U_2 over two generator pairs, S empty or a single index;
    (S, R) must pass ``check_index`` with n = len(R).

    All Ltilde_1 exponents appearing here are of the form (|R| - ...)/h;
    they are integers whenever the coefficient survives, enforced below.

    ``resolved=False`` keeps the source display's S = (u) case, whose sum
    starts at s = u.  The antisymmetry of the underlying bracket adds
    terms for s < u weighted by w_s - h instead of w_s (same omission as
    in ``power_on_mtilde``, one level down); the resolved branch includes
    them and matches the Milnor-operation extraction.
    """
    S, R = check_index(S, R, len(R))
    n = len(R)
    if len(S) >= 2:
        return ctx.zero()
    p, h = ctx.p, ctx.h
    cm = multinomial_mod(h, R, p)
    if not cm:
        return ctx.zero()
    weight = st_operation_degree((), R, p) // 2
    hinv = inv_mod(h, p)

    def ltilde_power(numerator: int) -> Element:
        e, rem = divmod(numerator, h)
        if rem or e < 0:
            raise ArithmeticError(
                "Ltilde exponent %d/%d invalid with nonzero coefficient" % (numerator, h)
            )
        return Ltilde(ctx, 1) ** e

    if not S:
        val = ltilde_power(weight) * U(ctx, 2)
        val = val.scalar_mul(cm)
        for s in range(n):
            w_s = sum(R[s:]) % p
            if not w_s:
                continue
            term = Mtilde(ctx, 1, 0) * ltilde_power(weight - p ** (s + 1) + 1)
            term = term * V(ctx, 2) ** (p**s)
            val = val + term.scalar_mul(cm * hinv * w_s)
        return val
    u = S[0]
    val = ctx.zero()
    lo = 0 if resolved else u
    for s in range(lo, n):
        c_s = (sum(R[s:]) - (h if s < u else 0)) % p
        if not c_s:
            continue
        term = ltilde_power(weight - p ** (s + 1) + p**u + h) * V(ctx, 2) ** (p**s)
        val = val + term.scalar_mul(cm * hinv * c_s)
    return val


# The two-case evaluator below fixes a sign the source display leaves
# ambiguous: evaluated literally, the mixed-index case disagrees with the
# Cartan oracle by a global -1 (first visible at P^1 V_2 = -y_1^{p-1} V_2).
# The resolved reading negates that case; it was frozen against the oracle
# before any sweep ran and both readings stay available for comparison.
V2_MIXED_CASE_RESOLVED_SIGN = -1


def st_on_v2(R: Sequence[int], ctx: AlgebraContext, resolved: bool = True) -> Element:
    """St^{(),R} V_2 over two generator pairs; R entries must be >= 0.

    Writing r_0 = p - sum(R): a lone entry equal to p (including r_0 = p,
    the identity) gives a Frobenius power of V_2; if instead every entry
    lies in 0..p-1 the value is a weighted sum of y_1-shifted Frobenius
    powers; anything else is 0.
    """
    _, R = check_index((), R, len(R))
    n = len(R)
    p = ctx.p
    full = (p - sum(R),) + R
    nonzero = [i for i, r in enumerate(full) if r]
    if len(nonzero) == 1 and full[nonzero[0]] == p:
        return V(ctx, 2) ** (p ** nonzero[0])
    if all(0 <= ri < p for ri in full):
        # (p - 1)! / r_0! = (-1)^m m! mod p with m = sum R - 1 (Wilson's
        # theorem), so no factorial of size p is taken
        m = sum(R) - 1
        num = (-1) ** m * math.factorial(m)
        den = math.prod(math.factorial(ri) for ri in R)
        weight = st_operation_degree((), R, p) // 2
        val = ctx.zero()
        for s in range(n):
            cm = ratio_mod(num * sum(R[s:]), den, p)
            if not cm:
                continue
            e = weight + p - p ** (s + 1)
            if e < 0:
                raise ArithmeticError("negative shift with nonzero coefficient")
            val = val + (ctx.y(1, e) * V(ctx, 2) ** (p**s)).scalar_mul(cm)
        if resolved:
            val = val.scalar_mul(V2_MIXED_CASE_RESOLVED_SIGN)
        return val
    return ctx.zero()


def bracket_identities(
    u: int, v: int, ctx: AlgebraContext
) -> tuple[tuple[Element, Element], tuple[Element, Element]]:
    """Both sides of the two bracket expansions over V_1 = y_1 and V_2.

    (i)  [u,v]  = sum_{s=u}^{v-1} y_1^{p^v - p^{s+1} + p^u} V_2^{p^s}
    (ii) [1;v]  = M_{2,1} y_1^{p^v - 1}
                  + M_{1,0} sum_{s=0}^{v-1} y_1^{p^v - p^{s+1}} V_2^{p^s}

    The leading term of (ii) is built as M_{2,1} y_1^{p^v-1} rather than
    y_1^{p^v-h} U_2, which is the same element without a negative power
    at v = 0.
    """
    if not 0 <= u <= v:
        raise ValueError("need 0 <= u <= v")
    p = ctx.p
    lhs_i = bracket_e(ctx, (u, v))
    rhs_i = ctx.zero()
    for s in range(u, v):
        rhs_i = rhs_i + ctx.y(1, p**v - p ** (s + 1) + p**u) * V(ctx, 2) ** (p**s)
    lhs_ii = bracket_x(ctx, (v,))
    rhs_ii = M(ctx, 2, 1) * ctx.y(1, p**v - 1)
    for s in range(v):
        rhs_ii = rhs_ii + M(ctx, 1, 0) * ctx.y(1, p**v - p ** (s + 1)) * V(ctx, 2) ** (p**s)
    return (lhs_i, rhs_i), (lhs_ii, rhs_ii)
