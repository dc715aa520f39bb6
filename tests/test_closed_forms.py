"""Closed-form actions against the Cartan-formula oracle, including the
zero branches and the frozen resolved/literal display splits."""

import pytest

from dicksonmui.algebra import AlgebraContext, embed, render_text
from dicksonmui.closed_forms import (
    FAMILIES,
    V2_MIXED_CASE_RESOLVED_SIGN,
    bracket_identities,
    power_on_mtilde,
    power_on_q,
    power_on_u,
    power_on_v,
    st_on_rank1,
    st_on_u2,
    st_on_v2,
)
from dicksonmui.invariants import Mtilde, Q, U, V
from dicksonmui.steenrod import milnor_st, p_power


def sweep_range(dim):
    # every admissible r plus a margin past the instability bound
    return range(dim // 2 + 4)


@pytest.mark.parametrize("p,k", [(3, 1), (3, 2), (5, 1)])
def test_power_on_v_full_sweep(p, k):
    ctx = AlgebraContext(p, k + 1)
    v = V(ctx, k + 1)
    for r in sweep_range(v.degree()):
        res = power_on_v(r, k, ctx)
        assert res.value == p_power(r, v), (p, k, r, res.condition)


@pytest.mark.parametrize("p,k", [(3, 1), (3, 2), (5, 1)])
def test_power_on_u_full_sweep(p, k):
    ctx = AlgebraContext(p, k + 1)
    u = U(ctx, k + 1)
    for r in sweep_range(u.degree()):
        res = power_on_u(r, k, ctx)
        assert res.value == p_power(r, u), (p, k, r, res.condition)


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 1)])
def test_power_on_q_full_sweep(p, n):
    ctx = AlgebraContext(p, n)
    for s in range(n):
        q = Q(ctx, n, s)
        for r in sweep_range(q.degree()):
            res = power_on_q(r, n, s, ctx)
            assert res.value == p_power(r, q), (p, n, s, r, res.condition)


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 1)])
def test_power_on_mtilde_full_sweep(p, n):
    ctx = AlgebraContext(p, n)
    for s in range(-1, n):
        mt = Mtilde(ctx, n, s)
        for r in sweep_range(mt.degree()):
            res = power_on_mtilde(r, n, s, ctx)
            assert res.value == p_power(r, mt), (p, n, s, r, res.condition)


def test_zero_branches_report_conditions():
    ctx = AlgebraContext(3, 2)
    res = power_on_v(4, 1, ctx)  # past the instability bound, not Frobenius
    assert not res.applicable and res.value.is_zero()
    assert res.condition
    res = power_on_q(2, 2, 1, AlgebraContext(3, 2))
    assert not res.applicable and res.value.is_zero()


def test_top_powers_are_frobenius():
    for p, k in [(3, 1), (3, 2), (5, 1), (5, 2)]:
        ctx = AlgebraContext(p, k + 1)
        res = power_on_v(p**k, k, ctx)
        assert res.applicable and res.value == V(ctx, k + 1) ** p
    for p, n, s in [(3, 2, 0), (3, 2, 1), (5, 1, 0)]:
        ctx = AlgebraContext(p, n)
        res = power_on_q(p**n - p**s, n, s, ctx)
        assert res.applicable and res.value == Q(ctx, n, s) ** p


@pytest.mark.parametrize("p", [3, 5])
def test_family_degree_is_its_target_degree(p):
    # degree reads invariants.dimension and builds nothing
    for letter, fam in FAMILIES.items():
        for idx in range(3):
            ctx = AlgebraContext(p, idx + fam.shift)
            svals = [None] if fam.first_s is None else range(fam.first_s, idx + 1 + fam.first_s)
            for s in svals:
                assert fam.degree(p, idx, s) == fam.target(ctx, idx, s).degree(), (letter, idx, s)


def test_family_degree_refuses_in_the_callers_terms():
    with pytest.raises(ValueError, match=r"^k must be >= 0$"):
        FAMILIES["V"].degree(3, -1)  # V_0 does not exist
    with pytest.raises(ValueError, match=r"^s must lie in 0\.\.n$"):
        FAMILIES["Q"].degree(3, 2, 3)
    with pytest.raises(ValueError, match=r"^s must lie in -1\.\.n-1$"):
        FAMILIES["M"].degree(3, 2, 2)


@pytest.mark.parametrize("r", [True, 1.5, -1, None])
@pytest.mark.parametrize("letter", "UMVQ")
def test_closed_forms_share_the_r_rule(letter, r):
    # the rule of p_power and total_power: power_on_v(True, ...) used to
    # return P^1 V_2, and 1.5 ended in a bare TypeError
    ctx = AlgebraContext(3, 2)
    with pytest.raises(ValueError, match=r"^r must be an integer >= 0, got "):
        FAMILIES[letter].power(r, 1, None if FAMILIES[letter].first_s is None else 0, ctx)


def test_mtilde_resolved_vs_literal_display():
    # the literal display drops the upper exterior terms; first split cell
    ctx = AlgebraContext(3, 2)
    resolved = power_on_mtilde(3, 2, 0, ctx).value
    assert render_text(resolved) == "x1*y2^9 + 2*x2*y1^9"
    assert resolved == p_power(3, Mtilde(ctx, 2, 0))
    literal = power_on_mtilde(3, 2, 0, ctx, resolved=False).value
    assert literal != resolved  # the omitted s = 1 exterior term matters


def test_rank1_matches_extraction():
    ctx = AlgebraContext(3, 1)
    for eps in (0, 1):
        for b in (0, 1, 2, 3):
            a = ctx.monomial((1,) if eps else (), (b,))
            q = a.degree()
            for S in ((), (0,), (0, 1)):
                for R in ((0, 0), (1, 0), (0, 1), (2, 1)):
                    want = None
                    try:
                        want = milnor_st(S, R, a, 2)
                    except ValueError:
                        continue  # inadmissible in this degree
                    got = st_on_rank1(S, R, eps, b, ctx)
                    assert got == want, (eps, b, S, R)


def test_rank1_two_exterior_indices_vanish():
    ctx = AlgebraContext(3, 1)
    assert st_on_rank1((0, 1), (0, 0), 1, 2, ctx).is_zero()


def test_u2_matches_extraction():
    ctx = AlgebraContext(3, 2)
    u2 = U(ctx, 2)
    for S in ((), (0,), (1,)):
        for R in ((0, 0), (1, 0), (0, 1), (1, 1)):
            try:
                want = milnor_st(S, R, u2, 2)
            except ValueError:
                continue
            assert st_on_u2(S, R, ctx) == want, (S, R)


def test_u2_lower_index_term_is_nonzero():
    # the literal display predicts 0 here; the resolved coefficients do not
    ctx = AlgebraContext(3, 2)
    got = st_on_u2((1,), (0, 0), ctx)
    y1 = embed(AlgebraContext(3, 1).y(1), ctx)
    assert got == (y1 * V(ctx, 2)).scalar_mul(-1)
    assert st_on_u2((1,), (0, 0), ctx, resolved=False) != got


def test_v2_matches_extraction():
    ctx = AlgebraContext(3, 2)
    v2 = V(ctx, 2)
    for R in ((0,), (1,), (3,), (0, 0), (1, 0), (0, 1), (1, 1), (0, 3)):
        try:
            want = milnor_st((), R, v2, len(R))
        except ValueError:
            continue
        assert st_on_v2(R, ctx) == want, R


def test_v2_frobenius_rows():
    ctx = AlgebraContext(3, 2)
    assert st_on_v2((0,), ctx) == V(ctx, 2)
    assert st_on_v2((3,), ctx) == V(ctx, 2) ** 3
    assert st_on_v2((0, 3), ctx) == V(ctx, 2) ** 9
    assert st_on_v2((4,), ctx).is_zero()


def test_v2_mixed_case_sign_is_frozen():
    ctx = AlgebraContext(3, 2)
    assert V2_MIXED_CASE_RESOLVED_SIGN == -1
    want = milnor_st((), (1,), V(ctx, 2), 1)
    assert st_on_v2((1,), ctx) == want
    assert st_on_v2((1,), ctx, resolved=False) == want.scalar_mul(-1)


@pytest.mark.parametrize("p,vmax", [(3, 2), (5, 1)])
def test_bracket_identities(p, vmax):
    ctx = AlgebraContext(p, 2)
    for v in range(vmax + 1):
        for u in range(v + 1):
            (li, ri), (lii, rii) = bracket_identities(u, v, ctx)
            assert li == ri, ("(i)", u, v)
            assert lii == rii, ("(ii)", u, v)


def test_bracket_identities_validation():
    with pytest.raises(ValueError):
        bracket_identities(2, 1, AlgebraContext(3, 2))
