"""Steenrod operations: the Cartan oracle, the block power map, and
Milnor-basis extraction."""

import itertools
import math
import random

import pytest

from dicksonmui import duality
from dicksonmui.algebra import AlgebraContext, Element, Monomial, embed, relabel, render_text
from dicksonmui.arith import binom_mod, mu_mod
from dicksonmui.closed_forms import st_on_rank1, st_on_u2, st_on_v2
from dicksonmui.duality import _block_results, duality_case, expand_mq, expand_uv
from dicksonmui.grammar import parse_text
from dicksonmui.invariants import Ltilde, Mtilde, Q, U, V
from dicksonmui.steenrod import (
    NotInSpanError,
    _basis_keys,
    admissible_indices,
    basis_element,
    bockstein,
    compose_check,
    d_star_p,
    invariant_decompose,
    milnor_key,
    milnor_st,
    p_power,
    power_expansion,
    total_power,
)
from dicksonmui.verify import assemble_from_milnor


@pytest.fixture
def c1():
    return AlgebraContext(3, 1)


@pytest.fixture
def c2():
    return AlgebraContext(3, 2)


def test_bockstein_basics(c2):
    assert bockstein(c2.x(1)) == c2.y(1)
    assert bockstein(c2.y(1)).is_zero()
    # derivation: beta(x1 y2) = y1 y2, beta(x1 x2) = y1 x2 - x1 y2
    assert bockstein(c2.x(1) * c2.y(2)) == c2.y(1) * c2.y(2)
    assert bockstein(c2.x(1) * c2.x(2)) == c2.y(1) * c2.x(2) - c2.x(1) * c2.y(2)
    assert bockstein(bockstein(c2.x(1) * c2.x(2) * c2.y(1))).is_zero()


def test_power_on_generators(c1):
    assert p_power(0, c1.x(1)) == c1.x(1)
    assert p_power(1, c1.x(1)).is_zero()
    assert p_power(1, c1.y(1)) == c1.y(1, 3)
    assert p_power(2, c1.y(1)).is_zero()


@pytest.mark.parametrize("r", [1.5, 1.0, True, "1", -1])
def test_powers_refuse_a_non_integer_r(c1, r):
    # 1.5 used to end in an AttributeError (pow), 0 (p_power) or a bare
    # TypeError (total_power)
    with pytest.raises(ValueError, match=r"^r must be an integer >= 0, got "):
        p_power(r, c1.y(1))
    with pytest.raises(ValueError, match=r"^r must be an integer >= 0, got "):
        total_power(c1.y(1), r)


def test_power_binomial_rule():
    ctx = AlgebraContext(5, 1)
    # P^j y^e = C(e, j) y^(e + 4j)
    assert p_power(2, ctx.y(1, 3)) == ctx.y(1, 11).scalar_mul(3)
    assert render_text(p_power(1, ctx.x(1) * ctx.y(1))) == "x1*y1^5"


def test_total_power_is_prefix_of_cartan(c2):
    a = c2.x(1) + c2.y(2)
    series = total_power(a, 3)
    assert len(series) == 4
    for r, layer in enumerate(series):
        assert layer == p_power(r, a)


def _reference_total_power(a, r_max):
    # the layer-by-layer convolution over Monomial dicts: an oracle for the
    # flat-series total_power
    ctx = a.ctx
    p = ctx.p
    out = [{} for _ in range(r_max + 1)]
    zero_ys = ctx._empty_ys()
    for mono, coeff in a:
        series = [{Monomial(mono.xs, zero_ys): coeff}]
        for i, e in enumerate(mono.ys):
            if e == 0:
                continue
            factor = []
            for j in range(min(e, r_max) + 1):
                cj = binom_mod(e, j, p)
                if cj:
                    factor.append((j, cj, e + (p - 1) * j))
            nxt = [{} for _ in range(min(len(series) - 1 + min(e, r_max), r_max) + 1)]
            for r1, layer in enumerate(series):
                if not layer:
                    continue
                for j, cj, exp in factor:
                    r = r1 + j
                    if r > r_max:
                        break
                    dest = nxt[r]
                    for mo, c in layer.items():
                        ys = list(mo.ys)
                        ys[i] = exp
                        key = Monomial(mo.xs, tuple(ys))
                        v = (dest.get(key, 0) + c * cj) % p
                        if v:
                            dest[key] = v
                        elif key in dest:
                            del dest[key]
            series = nxt
        for r, layer in enumerate(series):
            dest = out[r]
            for key, c in layer.items():
                v = (dest.get(key, 0) + c) % p
                if v:
                    dest[key] = v
                elif key in dest:
                    del dest[key]
    return [Element._make(ctx, layer) for layer in out]


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_total_power_matches_reference(p, m):
    rng = random.Random(7000 + 10 * p + m)
    ctx = AlgebraContext(p, m)
    sources = [ctx.zero(), ctx.scalar(2)]
    for _ in range(10):
        out = ctx.zero()
        for _ in range(rng.randint(1, 5)):
            xs = sorted(rng.sample(range(1, m + 1), rng.randint(0, m)))
            ys = [rng.choice([0, 1, 2, 3, p - 1, p, p + 1]) for _ in range(m)]
            out = out + ctx.monomial(xs, ys, rng.randrange(1, p))
        sources.append(out)
    for a in sources:
        for r_max in range(5):
            got = total_power(a, r_max)
            assert len(got) == r_max + 1
            assert got == _reference_total_power(a, r_max), (render_text(a), r_max)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_total_power_on_repeated_exponents_matches_reference(p):
    # the terms draw their exponents from one short list, so total_power's
    # per-call factor rows are read again within a term and across terms;
    # 0, and p below r = p, have only their j = 0 entry
    rng = random.Random(7100 + p)
    ctx = AlgebraContext(p, 3)
    pool = [0, 1, p - 1, p, p + 1, p * p]
    for _ in range(20):
        terms = {}
        for _ in range(rng.randint(2, 8)):
            xs = tuple(sorted(rng.sample(range(1, 4), rng.randint(0, 2))))
            e = rng.choice(pool)
            ys = tuple(rng.choice((e, e, rng.choice(pool))) for _ in range(3))
            terms[Monomial(xs, ys)] = rng.randrange(1, p)
        a = Element(ctx, terms)
        for r_max in (0, 1, p - 1, p, p + 2):
            assert total_power(a, r_max) == _reference_total_power(a, r_max), (
                render_text(a), r_max)


def _random_power_source(rng, ctx):
    # exponents near multiples of p and p^2, where Lucas's theorem zeroes
    # many binomials, next to small ones
    p = ctx.p
    out = ctx.zero()
    for _ in range(rng.randint(1, 4)):
        xs = sorted(rng.sample(range(1, ctx.m + 1), rng.randint(0, ctx.m)))
        ys = [rng.choice([0, 1, 2, p - 1, p, p + 1, 2 * p + 1, p * p - 1, p * p, p * p + p])
              for _ in range(ctx.m)]
        out = out + ctx.monomial(xs, ys, rng.randrange(1, p))
    return out


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_p_power_matches_total_power(p, m):
    # r runs up to two past the largest exponent sum, so it lands at and
    # past every monomial's sum
    rng = random.Random(100 * p + m)
    ctx = AlgebraContext(p, m)
    for _ in range(15):
        a = _random_power_source(rng, ctx)
        top = max((sum(mono.ys) for mono in a.terms), default=0)
        series = total_power(a, top + 2)
        for r, layer in enumerate(series):
            assert p_power(r, a) == layer, (render_text(a), r)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_p_power_lucas_zeros(p):
    ctx = AlgebraContext(p, 2)
    y1, y2 = ctx.y(1), ctx.y(2)
    # C(p, 1) = 0 and C(p + 1, 1) = 1 mod p
    assert p_power(1, ctx.y(1, p)).is_zero()
    assert p_power(1, ctx.y(1, p + 1)) == ctx.y(1, p + 1 + (p - 1))
    # C(p^2, j) = 0 for 0 < j < p^2; only the splits p^2 + 0 and 0 + p^2
    # survive
    sq, cube = p * p, p**3
    big = ctx.y(1, sq) * ctx.y(2, sq)
    assert p_power(p, ctx.y(1, sq)).is_zero()
    assert p_power(sq, big) == ctx.y(1, cube) * ctx.y(2, sq) + ctx.y(1, sq) * ctx.y(2, cube)
    # C(2p + 1, p + 1) = C(2, 1) C(1, 1) = 2
    e = 2 * p + 1
    assert p_power(p + 1, ctx.y(1, e)) == ctx.y(1, e + (p - 1) * (p + 1)).scalar_mul(2)
    for a in (big, ctx.y(1, p) * y2, ctx.x(1) * ctx.y(2, p * p - 1) + y1):
        top = max(sum(mono.ys) for mono in a.terms)
        for r, layer in enumerate(total_power(a, top + 1)):
            assert p_power(r, a) == layer


def test_cartan_spot_check(c2):
    a, b = c2.y(1) + c2.x(1), c2.y(2, 2)
    lhs = p_power(2, a * b)
    rhs = sum((p_power(u, a) * p_power(2 - u, b) for u in range(3)), c2.zero())
    assert lhs == rhs


def test_instability_top_and_excess(c2):
    v2 = V(c2, 2)  # degree 6 = 2*3
    assert p_power(3, v2) == v2**3
    assert p_power(4, v2).is_zero()
    u2 = U(c2, 2)  # degree 3, odd: only P^0 and P^1 may act
    assert p_power(2, u2).is_zero()


def test_frozen_p1_actions(c2):
    assert render_text(p_power(1, V(c2, 2))) == "2*y2^3*y1^2 + y2*y1^4"
    q10 = Q(AlgebraContext(3, 1), 1, 0)
    assert render_text(p_power(1, q10)) == "2*y1^4"
    want = U(c2, 2) * embed(q10, c2) + V(c2, 2) * embed(
        Mtilde(AlgebraContext(3, 1), 1, 0), c2)
    assert p_power(1, U(c2, 2)) == want


def test_d_star_p_on_generators(c1):
    out = d_star_p(1, c1.x(1))
    big = out.ctx
    assert (big.p, big.m) == (3, 2)
    assert render_text(out) == "2*x1*y2 + x2*y1"
    assert render_text(d_star_p(1, c1.y(1))) == "y2^3 + 2*y2*y1^2"


def test_d_star_p_output_adds_to_plain_context(c1, c2):
    # a context is just (p, m): the power map's output mixes with any
    # element over the same number of pairs
    got = d_star_p(1, c1.y(1)) + c2.y(1)
    assert render_text(got) == "y2^3 + 2*y2*y1^2 + y1"


def test_d_star_p_is_multiplicative(c1):
    a, b = c1.y(1), c1.x(1) * c1.y(1)
    assert d_star_p(1, a * b) == d_star_p(1, a) * d_star_p(1, b)


# (p, n, element over two pairs): the milnor-extract anchors, whose
# power-map images have 360 to 9816 terms
POWER_MAP_ANCHORS = [(5, 3, "U2"), (3, 3, "V2"), (3, 3, "x1*y2^2 + x2*y1^2"), (7, 2, "V2"),
                     (5, 2, "U2*V2")]


def _anchor(p, name):
    ctx = AlgebraContext(p, 2)
    named = {"U2": lambda: U(ctx, 2), "V2": lambda: V(ctx, 2),
             "U2*V2": lambda: U(ctx, 2) * V(ctx, 2)}
    return named[name]() if name in named else parse_text(name, ctx)


def _rebuild_by_products(p, n, coords, m):
    # sum over (S, H) of basis_element(S, H) * cofactor, the cofactor moved
    # past the block: a route that solves nothing
    big = AlgebraContext(p, n + m)
    shift = {i: n + i for i in range(1, m + 1)}
    total = big.zero()
    for (S, H), tail in coords.items():
        total = total + embed(basis_element(p, n, S, H), big) * relabel(tail, big, shift)
    return total


def test_invariant_decompose_round_trip(c1):
    y1 = c1.y(1)
    assert assemble_from_milnor(1, y1) == d_star_p(1, y1)
    # V_2 = sum_H Qtilde_H (tail) with tails y^3 and 2 y
    tails = {H: tail for (_, H), tail in invariant_decompose(d_star_p(1, y1), 1).items()}
    assert render_text(tails[(0,)]) == "y1^3"
    assert render_text(tails[(2,)]) == "2*y1"
    # the packed decomposition of each anchor's image, rebuilt by products,
    # and the same image decomposed from its unpacked Element
    for p, n, name in POWER_MAP_ANCHORS:
        a = _anchor(p, name)
        image = d_star_p(n, a)
        coords = power_expansion(n, a)[1]
        assert _rebuild_by_products(p, n, coords, 2) == image, (p, n, name)
        assert invariant_decompose(image, n) == coords, (p, n, name)


def test_decompose_rejects_non_span(c2):
    # y1 alone is not a GL_2-invariant of the leading two pairs
    with pytest.raises(NotInSpanError):
        invariant_decompose(c2.y(1), 2)


def test_decompose_rejects_empty_basis():
    # at p = 5 the invariant basis over one pair starts in degree 4, so a
    # degree-2 element has no candidate to be solved against
    with pytest.raises(NotInSpanError):
        invariant_decompose(AlgebraContext(5, 1).y(1), 1)


def test_basis_element(c2):
    assert basis_element(3, 2, (0, 1), (0, 0)) == Mtilde(c2, 2, 0) * Mtilde(c2, 2, 1)
    assert basis_element(3, 1, (), (2,)) == AlgebraContext(3, 1).y(1, 2)


def _basis_by_definition(p, n, S, H):
    # Mtilde_{n,s1} .. Mtilde_{n,sk} * Ltilde_n^{h0} * Q_{n,1}^{h1} ..,
    # every factor multiplied in from 1
    c = AlgebraContext(p, n)
    el = c.one()
    for s in S:
        el = el * Mtilde(c, n, s)
    el = el * Ltilde(c, n) ** H[0]
    for i in range(1, n):
        el = el * Q(c, n, i) ** H[i]
    return el


# (p, n, degree, |S|): every shape has keys with some h_i >= p, so the
# p-th-power split is taken as well as the single-factor steps
BASIS_SHAPES = [
    (3, 1, 20, 0), (3, 1, 21, 1), (3, 2, 56, 0), (3, 2, 63, 1), (3, 2, 66, 2),
    (3, 3, 161, 1), (3, 3, 170, 2), (5, 1, 43, 1), (5, 2, 144, 0), (5, 2, 159, 1),
    (5, 2, 182, 2), (5, 3, 239, 1),
]


@pytest.mark.parametrize("p, n, d, xcount", BASIS_SHAPES)
def test_basis_element_matches_product_definition(p, n, d, xcount):
    keys = list(_basis_keys(p, n, d, xcount))
    assert keys
    for S, H in keys:
        assert basis_element(p, n, S, H) == _basis_by_definition(p, n, S, H)


def test_basis_element_large_exponent_has_bounded_depth():
    c = AlgebraContext(3, 1)
    assert basis_element(3, 1, (), (2000,)) == Ltilde(c, 1) ** 2000


def test_decompose_rejects_mismatch_outside_target_support():
    # one term of Ltilde_2 pins the only degree-8 candidate's coefficient;
    # only Ltilde_2's other terms show the element is not invariant
    c = AlgebraContext(3, 2)
    lt = Ltilde(c, 2)
    assert len(lt) > 1
    mono, coef = next(iter(lt))
    with pytest.raises(NotInSpanError):
        invariant_decompose(c.monomial(mono.xs, mono.ys, coef), 2)


def test_milnor_identity_and_bockstein_strata(c1):
    x, y = c1.x(1), c1.y(1)
    assert milnor_st((), (0,), x, 1) == x
    assert milnor_st((0,), (0,), x, 1) == y
    assert milnor_st((), (1,), y, 1) == c1.y(1, 3)
    assert milnor_st((0,), (1,), x * c1.y(1, 2), 1) == c1.y(1, 5).scalar_mul(2)


def test_milnor_single_entry_is_power(c2):
    # admissible range: r0 = deg - 2r >= 0
    for a in (U(c2, 2), V(c2, 2), c2.x(1) * c2.y(2)):
        for r in range(a.degree() // 2 + 1):
            assert milnor_st((), (r,), a, 1) == p_power(r, a)
            assert milnor_st((), (r,), a) == p_power(r, a)


def test_milnor_length_two_padding(c2):
    v2 = V(c2, 2)
    assert milnor_st((), (1, 0), v2, 2) == p_power(1, v2)
    # second-entry operations reach past the single-power range
    st = milnor_st((), (0, 1), v2, 2)
    assert st.is_homogeneous() and st.degree() == v2.degree() + 2 * (3**2 - 1)


def test_milnor_inadmissible_raises(c2):
    with pytest.raises(ValueError):
        milnor_st((), (14,), c2.y(1, 2), 1)  # r0 < 0 in its own degree
    # refused before the power map runs: a 10-block power map of y would
    # take hours
    misses = power_expansion.cache_info().misses
    with pytest.raises(ValueError, match="inadmissible"):
        milnor_st((), (0,) * 9 + (2,), c2.y(1), 10)
    assert power_expansion.cache_info().misses == misses
    with pytest.raises(ValueError):
        milnor_st((1, 0), (0, 0), U(c2, 2), 2)  # S not increasing
    with pytest.raises(ValueError):
        milnor_st((2,), (0, 0), U(c2, 2), 2)  # S entry outside 0..n-1


# The five ways an index (S, R) of a 2-block can break the shape rule of
# check_index, each with the part of its error message that names the rule.
_BAD_INDICES = {
    "wrong length": ((), (0,), "exactly n = 2 entries"),
    "negative entry": ((), (0, -1), "entries must be >= 0"),
    "S not increasing": ((1, 0), (0, 0), "strictly increasing inside 0..n-1"),
    "S repeated": ((0, 0), (0, 0), "strictly increasing inside 0..n-1"),
    "S outside 0..n-1": ((2,), (0, 0), "strictly increasing inside 0..n-1"),
}
_C1, _C2 = AlgebraContext(3, 1), AlgebraContext(3, 2)
# Every entry point that takes an index, fed the bad one as its 2-block
# index.  A duality entry takes two indices and is tried on each side; the
# other side's index is valid and admissible, so the block would run its
# algebra if the bad index were not refused first.  The closed forms read
# n = len(R), so no length is wrong for them, and st_on_v2 takes no S.
_INDEX_ENTRIES = {
    "milnor_st": lambda S, R: milnor_st(S, R, U(_C2, 2), 2),
    "basis_element": lambda S, H: basis_element(3, 2, S, H),
    "duality_case M/Q": lambda S, R: duality_case(3, 1, 2, 0, S, R, (), (0,), 0, 0),
    "duality_case U/V": lambda Sp, Rp: duality_case(3, 2, 1, 0, (), (0,), Sp, Rp, 0, 0),
    "_block_results M/Q": lambda S, R: _block_results(3, 1, 2, 0, (), (0,), [(S, R)], [(0, 0)]),
    "_block_results U/V": lambda Sp, Rp: _block_results(
        3, 2, 1, 0, Sp, Rp, [((), (0,))], [(0, 0)]),
    "expand_mq": lambda S, R: expand_mq(3, 1, 2, 0, 0, S, R),
    "expand_uv": lambda Sp, Rp: expand_uv(3, 2, 1, 0, Sp, Rp),
    "st_on_rank1": lambda S, R: st_on_rank1(S, R, 1, 2, _C1),
    "st_on_u2": lambda S, R: st_on_u2(S, R, _C2),
    "st_on_v2": lambda S, R: st_on_v2(R, _C2),
}
_NO_LENGTH = ("st_on_rank1", "st_on_u2", "st_on_v2")


@pytest.mark.parametrize("entry, bad", [
    (entry, bad) for entry in _INDEX_ENTRIES for bad in _BAD_INDICES
    if not (bad == "wrong length" and entry in _NO_LENGTH)
    and not (entry == "st_on_v2" and bad.startswith("S "))
])
def test_every_entry_point_refuses_a_bad_index(entry, bad, monkeypatch):
    # no duality algebra runs before the index is refused
    ran = []
    monkeypatch.setattr(duality, "milnor_st", lambda *args: ran.append(args))
    S, R, message = _BAD_INDICES[bad]
    with pytest.raises(ValueError, match=message):
        _INDEX_ENTRIES[entry](S, R)
    assert ran == []


@pytest.mark.parametrize("delta", [-1, 2])
@pytest.mark.parametrize("entry", [
    lambda delta: duality_case(3, 1, 1, delta, (), (0,), (), (0,), 0, 0),
    lambda delta: _block_results(3, 1, 1, delta, (), (0,), [((), (0,))], [(0, 0)]),
    lambda delta: expand_mq(3, 1, 1, delta, 0, (), (0,)),
    lambda delta: expand_uv(3, 1, 1, delta, (), (0,)),
], ids=["duality_case", "_block_results", "expand_mq", "expand_uv"])
def test_every_duality_entry_refuses_a_bad_delta(entry, delta, monkeypatch):
    ran = []
    monkeypatch.setattr(duality, "milnor_st", lambda *args: ran.append(args))
    with pytest.raises(ValueError, match="delta must be 0 or 1"):
        entry(delta)
    assert ran == []


def test_milnor_key_at_every_rank():
    assert milnor_key((), (), 0) == ((), ())
    assert milnor_key((), (), 5) == ((), ())
    assert milnor_key((0,), (1,), 5) == ((0,), (2,))
    assert milnor_key((0, 1), (1, 2, 0), 11) == ((0, 1), (3, 1, 2))
    assert milnor_key((0,), (1,), 2) is None
    assert milnor_key((), (1, 0), 1) is None


def test_milnor_nonzero_exterior_stratum(c2):
    # the length-two operation with S = (1,) hits U_2 in negative-looking
    # ways a single P^r cannot: the value is -y1 V2
    got = milnor_st((1,), (0, 0), U(c2, 2), 2)
    assert got == (embed(AlgebraContext(3, 1).y(1), c2) * V(c2, 2)).scalar_mul(-1)


def test_admissible_indices():
    idx = list(admissible_indices(2, 1))  # degree of y
    assert ((), (0,)) in idx and ((0,), (0,)) in idx
    assert all(milnor_key(S, R, 2) is not None for S, R in idx)
    assert all(len(R) == 1 for _, R in idx)


def _compositions(d, parts):
    """Every tuple of `parts` entries >= 0 that sum to d."""
    for cuts in itertools.combinations_with_replacement(range(d + 1), parts - 1):
        bounds = (0,) + cuts + (d,)
        yield tuple(hi - lo for lo, hi in zip(bounds, bounds[1:]))


def _digit_splits(e, parts, p):
    """Every (c, multinomial(e; c) mod p) with c a `parts`-tuple summing to
    e and the multinomial nonzero mod p.  By Lucas's theorem those c add up
    to e digit by digit in base p with no carry, and the multinomial is the
    product of the digits' multinomials, so only nonzero terms are built."""
    splits, place = [((0,) * parts, 1)], 1
    while e:
        e, d = divmod(e, p)
        digit = []
        for t in _compositions(d, parts):
            coef = math.factorial(d)
            for v in t:
                coef //= math.factorial(v)
            digit.append((t, coef % p))
        splits = [(tuple(ci + ti * place for ci, ti in zip(c, t)), k * kt % p)
                  for c, k in splits for t, kt in digit]
        place *= p
    return splits


def _coaction(a, n):
    """{(S, R): [tau_S xi^R] lambda(a)} over tau_0..tau_{n-1}, xi_1..xi_n.

    The Milnor coaction is multiplicative with the Koszul sign and sends
    x -> x (x) 1 + sum_j y^{p^j} (x) tau_j and y -> sum_j y^{p^j} (x) xi_j
    (xi_0 = 1).  Each y_i^e spreads e over xi_0..xi_n with a multinomial
    coefficient; each x_i stays or becomes y_i^{p^j} tau_j.  An independent
    formula: it reads neither the power map nor p_power."""
    ctx, p = a.ctx, a.ctx.p
    out: dict = {}
    for (xs, ys), coef in a.terms.items():
        # (y exponents, R, coefficient) over the splits of every y_i^e
        ysplits = [((), (0,) * n, coef)]
        for e in ys:
            ysplits = [(yy + (sum(cj * p**j for j, cj in enumerate(c)),),
                        tuple(r + cj for r, cj in zip(R, c[1:])), k * kc % p)
                       for yy, R, k in ysplits for c, kc in _digit_splits(e, n + 1, p)]
        for choice in itertools.product((None,) + tuple(range(n)), repeat=len(xs)):
            taus = [j for j in choice if j is not None]
            if len(set(taus)) < len(taus):
                continue  # tau_j^2 = 0
            # each tau passes every later x that stays, then the taus sort
            swaps = sum(jb is None for ia, ja in enumerate(choice) if ja is not None
                        for jb in choice[ia + 1:])
            swaps += sum(u > v for u, v in itertools.combinations(taus, 2))
            kept = tuple(i for i, j in zip(xs, choice) if j is None)
            shift = [0] * ctx.m
            for i, j in zip(xs, choice):
                if j is not None:
                    shift[i - 1] += p**j
            S = tuple(sorted(taus))
            for yy, R, k in ysplits:
                mono = Monomial(kept, tuple(e + t for e, t in zip(yy, shift)))
                terms = out.setdefault((S, R), {})
                terms[mono] = terms.get(mono, 0) + (-k if swaps % 2 else k)
    return {key: Element(ctx, terms) for key, terms in out.items()}


_COACTION_ELEMENTS = {
    # 0, 1, 2 and 3 exterior factors
    "y1": lambda p: parse_text("y1", AlgebraContext(p, 1)),
    "x1*y1^2": lambda p: parse_text("x1*y1^2", AlgebraContext(p, 1)),
    "V_2": lambda p: V(AlgebraContext(p, 2), 2),
    "U_2": lambda p: U(AlgebraContext(p, 2), 2),
    "x1*x2*y1": lambda p: parse_text("x1*x2*y1", AlgebraContext(p, 2)),
    "x1*x2*x3*y2": lambda p: parse_text("x1*x2*x3*y2", AlgebraContext(p, 3)),
}


@pytest.mark.parametrize("name", list(_COACTION_ELEMENTS))
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_milnor_st_is_the_coaction_coefficient(p, n, name):
    # the sign rule a coaction route must keep:
    # St^{S,R} a = (-1)^{|S|(q-1)} [tau_S xi^R] lambda(a), q = deg a
    a = _COACTION_ELEMENTS[name](p)
    q = a.degree()
    coaction = _coaction(a, n)
    indices = list(admissible_indices(q, n))
    # the coaction has no term past the excess bound
    assert set(coaction) <= set(indices)
    for S, R in indices:
        want = coaction.get((S, R), a.ctx.zero())
        if len(S) * (q - 1) % 2:
            want = -want
        assert milnor_st(S, R, a, n) == want, (S, R)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_binom_mod_matches_comb(p):
    ns = list(range(p**3 + 2 * p)) + [p**4 - 1, p**4 + p + 2, 2 * p**4 + 1]
    for n in ns:
        ks = range(n + 1) if n <= p**3 + 2 * p else range(0, n + 1, max(1, n // 97))
        for k in ks:
            assert binom_mod(n, k, p) == math.comb(n, k) % p, (n, k)
        assert binom_mod(n, -1, p) == binom_mod(n, n + 1, p) == 0


def test_compose_check(c1):
    assert compose_check(1, 2, c1.y(1))
    assert compose_check(1, 2, c1.x(1) * c1.y(1))


def test_mu_mod():
    assert mu_mod(2, 3) == 2
    assert mu_mod(2, 3, reps=2) == 1


def test_p_power_beyond_every_y_exponent_is_zero(c1):
    # instability: no layer beyond the largest y-exponent sum is built
    assert p_power(10**6, c1.y(1)).is_zero()
    assert p_power(3, c1.x(1) * c1.y(1, 2)).is_zero()
    assert p_power(2, c1.y(1, 2)) == c1.y(1, 6)


def _memoised_builders():
    # every functools.cache function defined at module level in the package
    import dicksonmui

    found = {}
    for name in ("algebra", "arith", "closed_forms", "duality", "grammar",
                 "invariants", "steenrod", "verify"):
        module = getattr(dicksonmui, name)
        for attr, obj in vars(module).items():
            if hasattr(obj, "cache_info") and obj.__module__ == module.__name__:
                found["%s.%s" % (name, attr)] = obj
    return found


def test_clear_caches_empties_every_builder():
    from dicksonmui import clear_caches
    from dicksonmui.duality import mixed_decompose

    builders = _memoised_builders()
    ctx = AlgebraContext(3, 2)
    assert not Q(ctx, 2, 1).is_zero()
    assert not milnor_st((), (1, 1), V(ctx, 2), 2).is_zero()
    mixed_decompose(U(ctx, 2), 1)
    filled = {name for name, fn in builders.items() if fn.cache_info().currsize}
    assert {"invariants._q", "steenrod.power_expansion",
            "duality.mixed_decompose"} <= filled
    clear_caches()
    assert {name: fn.cache_info().currsize for name, fn in builders.items()} == \
        dict.fromkeys(builders, 0)
