"""Invariant constructions against their independent product/recursion
oracles, plus linear-invariance under the relevant groups."""

import itertools

import pytest

from dicksonmui import invariants
from dicksonmui.algebra import AlgebraContext, embed, exact_div, render_text
from dicksonmui.invariants import (
    L,
    Ltilde,
    M,
    Mtilde,
    Q,
    U,
    V,
    apply_matrix,
    bracket_e,
    bracket_x,
    dimension,
    gl_generators,
    Q_recursion,
    sl_generators,
    V_product,
)


def ctx3(m):
    return AlgebraContext(3, m)


def test_frozen_small_values():
    c2 = ctx3(2)
    assert render_text(V(c2, 2)) == "y2^3 + 2*y2*y1^2"
    assert render_text(U(c2, 2)) == "x1*y2 + 2*x2*y1"
    c1 = ctx3(1)
    assert render_text(Q(c1, 1, 0)) == "y1^2"
    assert Q(c1, 1, 1) == c1.one()
    assert render_text(Ltilde(c1, 1)) == "y1"
    assert render_text(Mtilde(c1, 1, 0)) == "x1"


def test_degrees_match_dimension():
    for p in (3, 5):
        ctx = AlgebraContext(p, 3)
        for n in (1, 2, 3):
            assert Ltilde(ctx, n).degree() == dimension("Ltilde", p, n) == p**n - 1
            for s in range(n):
                assert Q(ctx, n, s).degree() == 2 * (p**n - p**s)
                assert Mtilde(ctx, n, s).degree() == p**n - 2 * p**s
        for k in (1, 2, 3):
            assert U(ctx, k).degree() == p ** (k - 1)
            assert V(ctx, k).degree() == 2 * p ** (k - 1)


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (3, 3), (3, 4), (5, 1), (5, 2)])
def test_q_recursion_oracle(p, n):
    ctx = AlgebraContext(p, n)
    for s in range(n + 1):
        assert Q(ctx, n, s) == Q_recursion(ctx, n, s)


def test_q_recursion_in_other_contexts():
    # each row is built once in its own context, then embedded
    big = AlgebraContext(3, 4)
    for s in range(3):
        assert Q_recursion(big, 2, s) == Q(big, 2, s)
    assert Q_recursion(big, 2, -1) == big.zero()
    assert Q_recursion(big, 2, 2) == big.one()
    with pytest.raises(ValueError, match="s must lie in 0..n"):
        Q_recursion(big, 2, 3)
    with pytest.raises(ValueError, match="too small"):
        Q_recursion(AlgebraContext(3, 1), 2, 0)


@pytest.mark.parametrize("front, builder, args", [
    (bracket_e, "_bracket_e", ((0, 1, 2),)),
    (bracket_x, "_bracket_x", ((0, 1),)),
    (Ltilde, "_ltilde", (3,)),
    (Q, "_q", (3, 1)),
    (Mtilde, "_mtilde", (3, 1)),
    (Mtilde, "_ltilde", (3, -1)),
    (U, "_u", (3,)),
    (V, "_v", (3,)),
    (Q_recursion, "_q_recursion_row", (3, 1)),
])
def test_front_checks_the_context_before_building(monkeypatch, front, builder, args):
    # one rule and one message; the cached builder never starts
    calls = []
    monkeypatch.setattr(invariants, builder, lambda *a: calls.append(a))
    with pytest.raises(ValueError, match=r"^context too small: m = 2, needs at least 3 pairs$"):
        front(AlgebraContext(5, 2), *args)
    assert calls == []


def test_every_pair_count_check_is_the_context_rule():
    small = AlgebraContext(3, 1)
    for call in (lambda: V_product(small, 2), lambda: apply_matrix(small.y(1), [[1, 0], [0, 1]]),
                 lambda: embed(V(ctx3(2), 2), small)):
        with pytest.raises(ValueError, match=r"^context too small: m = 1, needs at least 2 pairs$"):
            call()


def test_front_index_rules():
    ctx = ctx3(2)
    with pytest.raises(ValueError, match="s must lie in 0..n"):
        Q_recursion(ctx, 2, -7)  # only s = -1 reads as Q_{n,-1} = 0
    with pytest.raises(ValueError, match="s must lie in 0..n"):
        Q_recursion(ctx, -1, -1)
    with pytest.raises(ValueError, match="^n must be >= 0$"):
        Ltilde(ctx, -1)
    with pytest.raises(ValueError, match="^n must be >= 0$"):
        Q(ctx, -1, 0)


@pytest.mark.parametrize("p,k", [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (5, 4)])
def test_v_product_oracle(p, k):
    ctx = AlgebraContext(p, k)
    assert V(ctx, k) == V_product(ctx, k)


def test_q_edge_cases():
    ctx = ctx3(2)
    # bottom Q is the square of the top exterior-free invariant
    assert Q(ctx, 2, 0) == Ltilde(ctx, 2) ** 2
    assert Q(ctx, 2, 2) == ctx.one()


# every (p, n) with n <= 4 and p^n <= 3000, the benchmark's ranks (13, 3),
# (3, 4) and (7, 3) among them
DIVISION_RANKS = [(p, n) for p in (3, 5, 7, 11, 13) for n in range(1, 5) if p**n <= 3000]


@pytest.mark.parametrize("p,n", DIVISION_RANKS)
def test_q_is_the_division_of_l(p, n):
    # Q is built over monomial symmetric functions; the polynomial
    # division L_{n,s} / L_n is its reference
    ctx = AlgebraContext(p, n)
    for s in range(n + 1):
        assert Q(ctx, n, s) == exact_div(L(ctx, n, s), L(ctx, n))


def test_q5_at_p3_multiplies_back():
    ctx = AlgebraContext(3, 5)
    for s in range(5):
        assert Q(ctx, 5, s) * L(ctx, 5) == L(ctx, 5, s)


def test_q_builds_without_division(monkeypatch):
    # the builder reads no determinant: it divides alternants, not L's
    want = exact_div(L(ctx3(3), 3, 1), L(ctx3(3), 3))

    def refuse(*args):
        raise AssertionError("the builder of Q built a determinant")

    monkeypatch.setattr(invariants, "L", refuse)
    monkeypatch.setattr(invariants, "determinant", refuse)
    assert invariants._q.__wrapped__(3, 3, 1) == want


def test_v_divides_l():
    # V_k is assembled from Q_{k-1,.}; the division is its reference, up
    # to the ranks the benchmark builds
    for p, k in [(3, 2), (3, 3), (3, 5), (5, 4), (7, 4), (13, 4)]:
        ctx = AlgebraContext(p, k)
        assert exact_div(L(ctx, k), L(ctx, k - 1)) == V(ctx, k)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_u_rank_expansion(p):
    # U_{n+1} = (-1)^n Ltilde_n x_{n+1}
    #           + sum_{s<n} (-1)^(n-1-s) Mtilde_{n,s} y_{n+1}^(p^s)
    for n in (1, 2, 3):
        ctx = AlgebraContext(p, n + 1)
        rhs = Ltilde(ctx, n) * ctx.x(n + 1)
        if n % 2:
            rhs = -rhs
        for s in range(n):
            term = Mtilde(ctx, n, s) * ctx.y(n + 1, p**s)
            rhs = rhs + (-term if (n - 1 - s) % 2 else term)
        assert U(ctx, n + 1) == rhs


def test_mtilde_minus_one_is_ltilde():
    ctx = AlgebraContext(5, 2)
    assert Mtilde(ctx, 2, -1) == Ltilde(ctx, 2)


def test_gl_invariance_of_q():
    for p, n in [(3, 2), (5, 2)]:
        ctx = AlgebraContext(p, n)
        for s in range(n):
            q = Q(ctx, n, s)
            assert all(apply_matrix(q, g) == q for g in gl_generators(n, p))


def test_sl_invariance_of_twisted_families():
    ctx = ctx3(3)
    gens = sl_generators(3, 3)
    lt = Ltilde(ctx, 3)
    assert all(apply_matrix(lt, g) == lt for g in gens)
    for s in range(3):
        mt = Mtilde(ctx, 3, s)
        assert all(apply_matrix(mt, g) == mt for g in gens)


def test_u_is_not_sl_invariant_at_p5():
    # the flag-stabilizer is the right group for U_k; full SL_k moves it
    ctx = AlgebraContext(5, 2)
    u = U(ctx, 2)
    g = [[1, 1], [0, 1]]  # sends x1 to x1 + x2: moves the top flag step
    assert apply_matrix(u, g) != u
    # ... while the transvection fixing the top step fixes U
    assert apply_matrix(u, [[1, 0], [1, 1]]) == u


def test_exhaustive_gl2_at_p3():
    ctx = ctx3(2)
    q = Q(ctx, 2, 1)
    mats = [((a, b), (c, d)) for a, b, c, d in itertools.product(range(3), repeat=4)
            if (a * d - b * c) % 3]
    assert len(mats) == 48  # |GL_2(F_3)|
    assert all(apply_matrix(q, g) == q for g in mats)


def test_apply_matrix_rejects_singular():
    ctx = ctx3(2)
    with pytest.raises(ValueError):
        apply_matrix(ctx.y(1), [[1, 1], [2, 2]])
    with pytest.raises(ValueError):
        apply_matrix(ctx.y(1), [[1, 0]])


def test_dimension_unknown_name():
    with pytest.raises(ValueError):
        dimension("W", 3, 1)


def test_q41_at_p5_multiplies_back():
    # the largest Dickson cell at p = 5 (L_{4,1} / L_4); checked by
    # multiplying back, since the recursion oracle costs far more
    ctx = AlgebraContext(5, 4)
    q = Q(ctx, 4, 1)
    assert len(q) == 10600
    assert q * L(ctx, 4) == L(ctx, 4, 1)


def test_invariants_are_built_once_per_p_and_params():
    from dicksonmui import invariants

    c2 = ctx3(2)
    assert Q(c2, 2, 1) is Q(ctx3(2), 2, 1)  # memoized, embedded without a copy
    before = invariants._q.cache_info().currsize
    big = Q(ctx3(4), 2, 1)
    assert invariants._q.cache_info().currsize == before  # not keyed on the context
    assert big.ctx == ctx3(4) and render_text(big) == render_text(Q(c2, 2, 1))
