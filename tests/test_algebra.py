"""Ring arithmetic: graded signs, exactness, context discipline."""

import copy
import heapq
import math
import pickle
import random

import pytest

from dicksonmui.algebra import (
    MAX_PAIRS,
    PAIRWISE_MAX_PAIRS,
    AlgebraContext,
    ContextMismatchError,
    Element,
    InexactDivisionError,
    Monomial,
    _add_into,
    _mul_into,
    _mul_packed,
    _mul_pairwise,
    _pack,
    _reduce_acc,
    _unpack_keys,
    embed,
    exact_div,
    relabel,
    render_text,
)
from dicksonmui.grammar import parse_text
from dicksonmui.invariants import U, V, apply_matrix, gl_generators


@pytest.fixture
def ctx():
    return AlgebraContext(3, 2)


def test_context_validation():
    with pytest.raises(ValueError):
        AlgebraContext(2, 1)
    with pytest.raises(ValueError):
        AlgebraContext(9, 1)
    assert AlgebraContext(7, 4).h == 3


def test_context_pair_count_is_bounded():
    assert AlgebraContext(3, MAX_PAIRS).m == MAX_PAIRS
    for m in (MAX_PAIRS + 1, 10**9):
        with pytest.raises(ValueError, match=r"^m = %d generator pairs is over the limit "
                           r"MAX_PAIRS = %d$" % (m, MAX_PAIRS)):
            AlgebraContext(3, m)


@pytest.mark.parametrize("p, m", [
    (3.0, 2), (5.0, 1), (True, 1), ("3", 2), (None, 2),
    (3, 2.5), (3, 2.0), (3, True), (3, False), (3, "2"), (3, None),
])
def test_context_rejects_non_integer_arguments(p, m):
    # 3.0 == 3 and True == 1, so only the type tells these apart
    with pytest.raises(ValueError):
        AlgebraContext(p, m)


def test_context_is_an_immutable_value():
    ctx = AlgebraContext(3, 2)
    assert repr(ctx) == "AlgebraContext(p=3, m=2)"
    assert ctx == AlgebraContext(3, 2) and hash(ctx) == hash(AlgebraContext(3, 2))
    assert ctx != AlgebraContext(3, 1) and ctx != AlgebraContext(5, 2)
    assert ctx != (3, 2) and ctx != "AlgebraContext(p=3, m=2)"
    assert len({ctx, AlgebraContext(3, 2), AlgebraContext(5, 2)}) == 2
    with pytest.raises(AttributeError):
        ctx.p = 5
    with pytest.raises(AttributeError):
        del ctx.m
    with pytest.raises(AttributeError):
        ctx.q = 1
    for twin in (pickle.loads(pickle.dumps(ctx)), copy.deepcopy(ctx)):
        assert twin == ctx and twin.p == 3 and twin.m == 2


def test_element_pickles_and_copies(ctx):
    # rebuilt through the constructor, so the immutable slots never reset
    a = ctx.monomial((1, 2), (0, 3), 2) + ctx.x(1) * ctx.y(2) + ctx.y(1)
    for twin in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert twin == a and twin.ctx == a.ctx and hash(twin) == hash(a)


def test_exterior_square_is_zero(ctx):
    x1 = ctx.x(1)
    assert (x1 * x1).is_zero()
    assert ((x1 + ctx.y(1)) * x1) == ctx.y(1) * x1


def test_anticommutation(ctx):
    x1, x2 = ctx.x(1), ctx.x(2)
    assert x1 * x2 == (x2 * x1).scalar_mul(-1)
    # odd * even commutes without sign
    assert x1 * ctx.y(2) == ctx.y(2) * x1


def test_square_of_odd_element_vanishes(ctx):
    # the two cross terms cancel through the Koszul sign
    a = ctx.x(1) * ctx.y(2) - ctx.x(2) * ctx.y(1)
    assert (a * a).is_zero()


def test_koszul_sign_diagonal(ctx):
    # x1 y1 has total degree 3, so the two products anticommute
    a = ctx.x(1) * ctx.y(1)
    b = ctx.x(2) * ctx.y(2)
    assert a * b == (b * a).scalar_mul(-1)
    assert a.degree() == 3


def test_degree_and_homogeneity(ctx):
    a = ctx.x(1) * ctx.y(2, 3)
    assert a.degree() == 7
    assert a.is_homogeneous()
    assert not (a + ctx.y(1)).is_homogeneous()
    assert ctx.zero().is_homogeneous()


def test_scalar_arithmetic(ctx):
    a = ctx.y(1).scalar_mul(5)
    assert a == ctx.y(1).scalar_mul(2)
    assert (a + a + a).is_zero()
    assert ctx.scalar(3).is_zero()
    assert ctx.one().constant_term() == 1


def test_not_equal_inverts_equality(ctx):
    # Python's default __ne__: it inverts __eq__ and passes NotImplemented on
    a = ctx.y(1).scalar_mul(2)
    assert not (a != ctx.y(1).scalar_mul(5)) and a != ctx.y(1)
    assert not (ctx.scalar(4) != 1) and ctx.one() != 2
    assert a != "2*y1" and a != AlgebraContext(3, 1).y(1).scalar_mul(2)
    assert a.__ne__("2*y1") is NotImplemented


def test_pow_rules(ctx):
    y = ctx.y(1) + ctx.y(2)
    assert y**3 == ctx.y(1, 3) + ctx.y(2, 3)  # Frobenius mod 3
    assert y**0 == ctx.one()
    a = ctx.x(1) * ctx.y(1)
    assert a**1 == a
    # pow is reserved for polynomial elements; exterior squares go via mul
    with pytest.raises(ValueError):
        a**2
    assert (a * a).is_zero()


# The term rule's four messages, at m = 2: each probe below names one part.
_COEFFICIENT = r"^coefficient must be an int, got "
_EXTERIOR = r"^exterior indices must be a strictly increasing tuple of ints in 1\.\.2, got "
_EXPONENTS = r"^exponents must be a tuple of 2 ints >= 0, got "
_INDEX = r"^generator index must be an int in 1\.\.2, got "


def _el(xs, ys, c=1):
    return lambda ctx: Element(ctx, {Monomial(xs, ys): c})


@pytest.mark.parametrize("build, message", [
    pytest.param(_el((), (1, 0), 1.5), _COEFFICIENT, id="Element-float-coefficient"),
    pytest.param(_el((), (1, 0), True), _COEFFICIENT, id="Element-bool-coefficient"),
    pytest.param(_el((), (1.5, 0)), _EXPONENTS, id="Element-float-exponent"),
    pytest.param(_el((), (True, 0)), _EXPONENTS, id="Element-bool-exponent"),
    pytest.param(_el((True,), (0, 0)), _EXTERIOR, id="Element-bool-index"),
    pytest.param(_el((), (1,)), _EXPONENTS, id="Element-short-exponents"),
    pytest.param(_el((), (1, 0, 0)), _EXPONENTS, id="Element-long-exponents"),
    pytest.param(_el((3,), (0, 0)), _EXTERIOR, id="Element-index-past-m"),
    pytest.param(_el((0,), (0, 0)), _EXTERIOR, id="Element-index-zero"),
    pytest.param(_el((2, 1), (0, 0)), _EXTERIOR, id="Element-unsorted-exterior"),
    pytest.param(_el((1, 1), (0, 0)), _EXTERIOR, id="Element-repeated-exterior"),
    pytest.param(_el((), (-1, 0)), _EXPONENTS, id="Element-negative-exponent"),
    pytest.param(lambda ctx: Element(ctx, [(Monomial([1], (0, 0)), 1)]), _EXTERIOR,
                 id="Element-list-exterior"),
    pytest.param(lambda ctx: Element(ctx, {(1, 0): 1}), _EXTERIOR, id="Element-bare-exponent-key"),
    pytest.param(lambda ctx: Element(ctx, {5: 1}), r"^a term key must be a Monomial",
                 id="Element-int-key"),
    pytest.param(lambda ctx: ctx.monomial((), (1,), 1.5), _COEFFICIENT, id="monomial-float-coefficient"),
    pytest.param(lambda ctx: ctx.monomial((), (1,), True), _COEFFICIENT, id="monomial-bool-coefficient"),
    pytest.param(lambda ctx: ctx.monomial((), (1.5,)), _EXPONENTS, id="monomial-float-exponent"),
    pytest.param(lambda ctx: ctx.monomial((), (True,)), _EXPONENTS, id="monomial-bool-exponent"),
    pytest.param(lambda ctx: ctx.monomial((True,)), _EXTERIOR, id="monomial-bool-index"),
    pytest.param(lambda ctx: ctx.monomial((), (1, 0, 0)), _EXPONENTS, id="monomial-long-exponents"),
    pytest.param(lambda ctx: ctx.monomial((3,)), _EXTERIOR, id="monomial-index-past-m"),
    pytest.param(lambda ctx: ctx.monomial((2, 1)), _EXTERIOR, id="monomial-unsorted-exterior"),
    pytest.param(lambda ctx: ctx.monomial((), (0, -1)), _EXPONENTS, id="monomial-negative-exponent"),
    pytest.param(lambda ctx: ctx.scalar(1.5), _COEFFICIENT, id="scalar-float"),
    pytest.param(lambda ctx: ctx.scalar(True), _COEFFICIENT, id="scalar-bool"),
    pytest.param(lambda ctx: ctx.x(True), _EXTERIOR, id="x-bool-index"),
    pytest.param(lambda ctx: ctx.x(3), _EXTERIOR, id="x-index-past-m"),
    pytest.param(lambda ctx: ctx.x(1.0), _EXTERIOR, id="x-float-index"),
    pytest.param(lambda ctx: ctx.y(1, 1.5), _EXPONENTS, id="y-float-exponent"),
    pytest.param(lambda ctx: ctx.y(1, True), _EXPONENTS, id="y-bool-exponent"),
    pytest.param(lambda ctx: ctx.y(1, 0.0), _EXPONENTS, id="y-float-zero-exponent"),
    pytest.param(lambda ctx: ctx.y(1, -1), _EXPONENTS, id="y-negative-exponent"),
    pytest.param(lambda ctx: ctx.y(True), _INDEX, id="y-bool-index"),
    pytest.param(lambda ctx: ctx.y(3), _INDEX, id="y-index-past-m"),
    pytest.param(lambda ctx: ctx.y(1).scalar_mul(1.5), _COEFFICIENT, id="scalar_mul-float"),
    pytest.param(lambda ctx: ctx.y(1).scalar_mul(True), _COEFFICIENT, id="scalar_mul-bool"),
    pytest.param(lambda ctx: ctx.y(1) * True, _COEFFICIENT, id="mul-bool"),
    pytest.param(lambda ctx: ctx.y(1) + True, _COEFFICIENT, id="add-bool"),
])
def test_every_constructor_applies_the_term_rule(ctx, build, message):
    with pytest.raises(ValueError, match=message):
        build(ctx)


def test_a_valid_term_is_built_alike_by_every_constructor(ctx):
    a = Element(ctx, {Monomial((1,), (0, 3)): 5, Monomial((), (2, 0)): 1})
    assert a == ctx.monomial((1,), (0, 3), 2) + ctx.monomial((), (2,))
    assert a == ctx.x(1) * ctx.y(2, 3) * 2 + ctx.y(1, 2)
    assert parse_text(render_text(a), ctx) == a
    assert a.terms == {Monomial((1,), (0, 3)): 2, Monomial((), (2, 0)): 1}
    # a plain (xs, ys) key is stored as its Monomial
    b = Element(ctx, {((), (1, 0)): 1})
    assert b == ctx.y(1) and b.degree() == 2
    assert all(type(mono) is Monomial for mono in b.terms)
    # pairs may repeat a key; their coefficients add, mod p
    assert Element(ctx, [(Monomial((), (1, 0)), 1), (((), (1, 0)), 1)]) == ctx.y(1) * 2
    assert Element(ctx, [(Monomial((2,), (0, 0)), 1)] * 3).is_zero()
    # a zero coefficient still meets the rule
    with pytest.raises(ValueError, match=_EXTERIOR):
        Element(ctx, {Monomial((2, 1), (0, 0)): 0})
    assert ctx.y(1, 0) == ctx.one() and ctx.monomial() == ctx.one()


def test_equality_never_raises(ctx):
    a = ctx.one()
    assert a == 1 and a == 4 and a != 2
    for other in (True, 1.0, 1.5, "1", None, (), object()):
        assert not (a == other) and a != other


@pytest.mark.parametrize("e", [1.5, 2.0, True])
def test_pow_refuses_a_non_integer_exponent(ctx, e):
    with pytest.raises(TypeError):
        ctx.y(1) ** e


@pytest.mark.parametrize("p", [3, 5, 7])
def test_pow_matches_repeated_product(p):
    # a ** e against e - 1 products, across the base-p digits of e: below p,
    # at p (Frobenius alone), past p, and with more than one digit
    rng = random.Random(p)
    exps = [2, p - 1, p, p + 1, p * p, p * p + p + 1]
    for m in (1, 2, 3):
        ctx = AlgebraContext(p, m)
        for _ in range(3):
            a = _random_poly(rng, ctx, rng.randint(1, 3), 2)
            prod = ctx.one()
            for e in range(1, max(exps) + 1):
                prod = prod * a
                if e in exps:
                    assert a**e == prod, (m, a, e)
    # equality also compares the context
    for a in (AlgebraContext(p, 2).zero(), AlgebraContext(p, 0).scalar(2)):
        for e in exps:
            assert a**e == a.ctx.scalar(pow(a.constant_term(), e, p)), (a, e)


def test_even_products_with_exterior_pairs():
    ctx = AlgebraContext(3, 4)
    a = ctx.x(1) * ctx.x(2) + ctx.y(1) * ctx.y(2)
    sq = a * a
    # x1 x2 squares away, the cross terms survive
    cross = (ctx.x(1) * ctx.x(2) * ctx.y(1) * ctx.y(2)).scalar_mul(2)
    assert sq == cross + ctx.y(1, 2) * ctx.y(2, 2)


def test_context_mismatch(ctx):
    other = AlgebraContext(3, 3)
    with pytest.raises(ContextMismatchError):
        ctx.y(1) + other.y(1)
    with pytest.raises(ContextMismatchError):
        ctx.y(1) * other.y(1)


def test_exact_div(ctx):
    a = (ctx.y(1) + ctx.y(2)) * (ctx.y(1) + ctx.y(2, 2))
    assert exact_div(a, ctx.y(1) + ctx.y(2)) == ctx.y(1) + ctx.y(2, 2)
    with pytest.raises(InexactDivisionError):
        exact_div(ctx.y(1, 2) + ctx.y(2), ctx.y(1))
    with pytest.raises(ZeroDivisionError):
        exact_div(ctx.y(1), ctx.zero())


def _random_poly(rng, ctx, nterms, max_exp):
    # a sparse, usually non-homogeneous polynomial; zero when every
    # coefficient happens to cancel
    out = ctx.zero()
    for _ in range(nterms):
        ys = [rng.randint(0, max_exp) for _ in range(ctx.m)]
        out = out + ctx.monomial(ys=ys, c=rng.randrange(1, ctx.p))
    return out


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_exact_div_recovers_random_factor(p, m):
    rng = random.Random(1000 * p + m)
    ctx = AlgebraContext(p, m)
    for _ in range(25):
        a = _random_poly(rng, ctx, rng.randint(1, 8), 6)
        b = _random_poly(rng, ctx, rng.randint(1, 5), 4)
        if b.is_zero():
            continue
        assert exact_div(a * b, b) == a
        assert exact_div(ctx.zero(), b).is_zero()


@pytest.mark.parametrize("p", [3, 5, 7])
def test_exact_div_rejects_non_multiples(p):
    ctx = AlgebraContext(p, 2)
    y1, y2 = ctx.y(1), ctx.y(2)
    b = y1 * y2 + y2 + 1
    with pytest.raises(InexactDivisionError):
        exact_div(b * (y1 + 1) + y1, b)
    with pytest.raises(InexactDivisionError):
        exact_div(y2, y1 + y2 * y2)  # divisor of higher degree
    with pytest.raises(InexactDivisionError):
        exact_div(ctx.one(), y1 + 1)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_exact_div_at_packing_boundary(p):
    # exponents of p^4 next to small ones: a packed field too narrow for
    # p^4 (or sized by the divisor) would fold terms into each other
    ctx = AlgebraContext(p, 3)
    big = p**4
    y1, y2, y3 = ctx.y(1), ctx.y(2), ctx.y(3)
    cases = [
        (ctx.y(1, big) + y2, y2 + 1),
        (ctx.y(1, big) * ctx.y(2, big) + y2 * y2 + 1, ctx.y(1, big) - y2),
        (ctx.y(3, big - 1) + y1 * y2, ctx.y(2, big + 1) + 2 * y3 + y1),
        (ctx.y(1, 2 * big) + ctx.y(2, big), y2 * y3 + y1 + 1),
    ]
    for a, b in cases:
        assert exact_div(a * b, b) == a
        assert exact_div(a * b, a) == b


def _reference_exact_div(a, b):
    # heap division that unpacks each lead and reduces every remainder
    # update mod p: an oracle for the packed exact_div, whose leads stay
    # packed and whose remainder is reduced only when a key is popped
    if not (a.is_polynomial() and b.is_polynomial()):
        raise ValueError("exact_div handles purely polynomial elements")
    if b.is_zero():
        raise ZeroDivisionError("division by the zero element")
    p, m = a.ctx.p, a.ctx.m
    width = max((sum(mono.ys) for mono in a.terms), default=0).bit_length() + 1
    mask = (1 << width) - 1

    def pack(ys):
        key = sum(ys)
        for e in ys:
            key = (key << width) | e
        return key

    def unpack(key):
        return tuple((key >> (width * (m - 1 - i))) & mask for i in range(m))

    lead_b = max(b.terms, key=lambda mono: (sum(mono.ys), mono.ys))
    cb_inv = pow(b.terms[lead_b], -1, p)
    lead_b_key = pack(lead_b.ys)
    tail = [(pack(mb.ys) - lead_b_key, p - vb) for mb, vb in b.terms.items() if mb != lead_b]
    rem = {pack(mono.ys): c for mono, c in a.terms.items()}
    heap = [-key for key in rem]
    heapq.heapify(heap)
    quo = {}
    while heap:
        lead = -heapq.heappop(heap)
        c = rem.pop(lead, 0)
        if not c:
            continue
        diff = tuple(e - eb for e, eb in zip(unpack(lead), lead_b.ys))
        if any(d < 0 for d in diff):
            raise InexactDivisionError("leading term not divisible")
        c = c * cb_inv % p
        quo[Monomial((), diff)] = c
        for offset, nvb in tail:
            key = lead + offset
            old = rem.get(key)
            if old is None:
                rem[key] = c * nvb % p
                heapq.heappush(heap, -key)
            else:
                v = (old + c * nvb) % p
                if v:
                    rem[key] = v
                else:
                    del rem[key]
    return quo


def _division_outcome(divide, a, b):
    # the quotient's terms, or the message of the InexactDivisionError
    try:
        q = divide(a, b)
    except InexactDivisionError as exc:
        return str(exc)
    return q if isinstance(q, dict) else q.terms


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
def test_exact_div_matches_reference(p, m):
    rng = random.Random(500 * p + m)
    ctx = AlgebraContext(p, m)
    inexact = 0
    for _ in range(30):
        q = _random_poly(rng, ctx, rng.randint(1, 10), 5)
        b = _random_poly(rng, ctx, rng.randint(1, 6), 3)
        if b.is_zero():
            continue
        r = _random_poly(rng, ctx, rng.randint(1, 3), 6)
        for a in (q * b, q * b + r):
            want = _division_outcome(_reference_exact_div, a, b)
            assert _division_outcome(exact_div, a, b) == want
            inexact += isinstance(want, str)
    if m:
        assert inexact  # the non-multiples reach the error path


def test_exact_div_lead_short_in_one_field():
    ctx = AlgebraContext(5, 3)
    y1, y2, y3 = ctx.y(1), ctx.y(2), ctx.y(3)
    cases = [
        # the same total degree, short only in the lowest field: that field
        # borrows from the one above, which then reads as a valid exponent
        (y1 * y1, y1 * y2),
        (y1 * y2 * y2, y1 * y2 * y3),
        (ctx.y(2, 4) + y3, ctx.y(2, 3) * y3),
        # short in total degree: the packed difference is negative
        (y1 * y1 * y2, y1 * y1 * y2 * y3),
        (ctx.y(1, 9), ctx.y(1, 10)),
        (y3, y1 + y2 + y3 + y3 * y3),
    ]
    for a, b in cases:
        with pytest.raises(InexactDivisionError, match="leading term not divisible"):
            exact_div(a, b)
        with pytest.raises(InexactDivisionError):
            _reference_exact_div(a, b)
    # a later lead short only in the lowest field: y1^2 y3 divides out,
    # then y1 y2^2 is short of y1 y3 in y3 alone
    with pytest.raises(InexactDivisionError):
        exact_div(y1 * y1 * y3 + y1 * y2 * y2, y1 * y3)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_exact_div_at_full_field(p):
    # exponents of 2**(width - 1) - 1, the largest a field holds with its
    # guard bit clear: the top degree D = 2**k - 1 sets width = k + 1
    ctx = AlgebraContext(p, 3)
    y1, y2, y3 = ctx.y(1), ctx.y(2), ctx.y(3)
    for k in range(1, 7):
        top = 2**k - 1
        cases = [
            (ctx.y(1, top), y1),
            (ctx.y(3, top), ctx.y(3, top)),
            (ctx.y(2, top) + ctx.y(1, top), y1 + y2),
            ((y1 + y2 + y3) * ctx.y(3, top - 1), y1 + y2 + y3),
            (ctx.y(1, top) + ctx.y(3, top), y3 + 1),
        ]
        for a, b in cases:
            assert _division_outcome(exact_div, a, b) == _division_outcome(
                _reference_exact_div, a, b)
        q = exact_div(ctx.y(2, top) - ctx.y(1, top), y2 - y1)
        assert q * (y2 - y1) == ctx.y(2, top) - ctx.y(1, top)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_exact_div_with_heavy_cancellation(p):
    # (y1^p + ... + ym^p) / (y1 + ... + ym) = (y1 + ... + ym)^(p-1) mod p:
    # the remainder's cross terms sum to multiples of p, and each such key
    # must be skipped when it is popped
    for m in (2, 3):
        ctx = AlgebraContext(p, m)
        s = sum((ctx.y(i) for i in range(1, m + 1)), ctx.zero())
        frob = sum((ctx.y(i, p) for i in range(1, m + 1)), ctx.zero())
        assert exact_div(frob, s) == s ** (p - 1)
        assert exact_div(frob * frob, s) == frob * s ** (p - 1)
        assert exact_div(frob, s).terms == _reference_exact_div(frob, s)


@pytest.mark.parametrize("m", [0, 1, 2, 5])
def test_unpack_keys_inverts_pack(m):
    rng = random.Random(m)
    for width in (1, 3, 8):
        rows = [tuple(rng.randrange(1 << width) for _ in range(m)) for _ in range(40)]
        keys = [_pack(ys, width) for ys in rows]
        assert _unpack_keys(keys, width, m) == rows
        # higher fields are dropped, as exact_div's degree field is
        high = [_pack(ys, width, rng.randrange(1, 9)) for ys in rows]
        assert _unpack_keys(high, width, m) == rows
        assert _unpack_keys([], width, m) == []


def _koszul_merge(a, b):
    # the graded product of two tuple monomials, (sign, Monomial), or None
    # when a repeated exterior index kills it; the sign counts the x's of a
    # that each x of b jumps over while the two sorted lists merge
    out = []
    inversions = 0
    ia, na = 0, len(a.xs)
    for jb in b.xs:
        while ia < na and a.xs[ia] < jb:
            out.append(a.xs[ia])
            ia += 1
        if ia < na and a.xs[ia] == jb:
            return None
        inversions += na - ia
        out.append(jb)
    out.extend(a.xs[ia:])
    ys = tuple(ea + eb for ea, eb in zip(a.ys, b.ys))
    return (-1 if inversions % 2 else 1), Monomial(tuple(out), ys)


def _reference_mul(a, b):
    # the pairwise product over tuple monomials: an oracle for both kernels
    # behind Element.__mul__
    p = a.ctx.p
    out = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            hit = _koszul_merge(ma, mb)
            if hit is not None:
                sign, mono = hit
                out[mono] = (out.get(mono, 0) + sign * ca * cb) % p
    return {mono: c for mono, c in out.items() if c}


def _random_monomial(rng, ctx, max_exp, c):
    xs = sorted(rng.sample(range(1, ctx.m + 1), rng.randint(0, ctx.m)))
    ys = [rng.randint(0, max_exp) for _ in range(ctx.m)]
    return ctx.monomial(xs, ys, c)


def _random_element(rng, ctx, nterms, max_exp):
    # exterior parts included; repeated monomials add up, so the term count
    # may fall short of nterms
    out = ctx.zero()
    for _ in range(nterms):
        out = out + _random_monomial(rng, ctx, max_exp, rng.randrange(1, ctx.p))
    return out


def _element_with_terms(rng, ctx, nterms):
    # exactly nterms terms, coefficient 1 each, so no two of them cancel
    out = ctx.zero()
    while len(out) < nterms:
        mono = _random_monomial(rng, ctx, 12, 1)
        if mono.terms.keys() & out.terms.keys():
            continue
        out = out + mono
    return out


def _nearly_square(n):
    # the factors (d, n // d) of n with d as close to sqrt(n) as possible
    d = max(d for d in range(1, math.isqrt(n) + 1) if n % d == 0)
    return d, n // d


def _kernels_match_reference(a, b):
    expected = _reference_mul(a, b)
    prod = a * b
    assert prod.ctx == a.ctx
    assert prod.terms == expected
    assert all(0 < c < a.ctx.p for c in prod.terms.values())
    # both kernels, whichever one the size selects for __mul__
    assert _mul_pairwise(a, b).terms == expected
    assert _mul_packed(a, b).terms == expected


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
def test_mul_matches_pairwise_reference(p, m):
    rng = random.Random(100 * p + m)
    ctx = AlgebraContext(p, m)
    # at m = 0 every element is a scalar
    fixed = [ctx.zero(), ctx.one(), ctx.scalar(p - 1)]
    if m:
        fixed += [ctx.x(m), ctx.y(1, 3), ctx.monomial(range(1, m + 1), [1] * m, 2)]
        # products of exactly PAIRWISE_MAX_PAIRS term pairs and of one more,
        # both as a scalar times a wide operand and as two nearly square
        # operands; random exterior parts make x_i x_i collisions common
        for pairs in (PAIRWISE_MAX_PAIRS, PAIRWISE_MAX_PAIRS + 1):
            fixed += [_element_with_terms(rng, ctx, k) for k in (pairs,) + _nearly_square(pairs)]
    operands = fixed + [
        _random_element(rng, ctx, rng.randint(1, 12), rng.choice([1, 3, 9]))
        for _ in range(14)
    ]
    if m:
        sizes = {len(a) * len(b) for a in operands for b in operands}
        assert {PAIRWISE_MAX_PAIRS, PAIRWISE_MAX_PAIRS + 1} <= sizes
    for a in operands:
        for b in operands:
            _kernels_match_reference(a, b)


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_accumulated_sums_match_element_chains(p, m):
    # sum of c * a * b and c * a, added into one unreduced dict and reduced
    # once, against the same sum built with +, scalar_mul and *; operands
    # carry exterior parts, scales lie outside 0..p-1
    rng = random.Random(300 * p + m)
    ctx = AlgebraContext(p, m)
    sizes = set()
    for _ in range(30):
        acc, want = {}, ctx.zero()
        summands = []
        for _ in range(rng.randint(1, 4)):
            a = _random_element(rng, ctx, rng.randint(1, 8), 3)
            b = _random_element(rng, ctx, rng.randint(1, 8), 3) if rng.randrange(3) else None
            c = rng.randrange(-2 * p, 2 * p)
            summands.append((a, b, c))
            if b is None:
                _add_into(acc, a, c)
                want = want + a.scalar_mul(c)
            else:
                sizes.add(len(a) * len(b))
                _mul_into(acc, a, b, c)
                want = want + (a * b).scalar_mul(c)
        got = _reduce_acc(ctx, acc)
        assert got.ctx is ctx and got.terms == want.terms
        assert all(0 < v < p for v in got.terms.values())
        # each summand again with its scale negated: exactly zero
        for a, b, c in summands:
            if b is None:
                _add_into(acc, a, -c)
            else:
                _mul_into(acc, a, b, -c)
        assert _reduce_acc(ctx, acc).terms == {}
    # both kernels behind _mul_into
    assert min(sizes) <= PAIRWISE_MAX_PAIRS < max(sizes)


def test_same_context_fast_paths_keep_the_context_rules():
    # operators compare contexts by identity first; an equal context object
    # takes the general path and gives the same answers
    a, twin = AlgebraContext(5, 2), AlgebraContext(5, 2)
    u = a.x(1) * a.y(2) + a.y(1)
    v = twin.x(1) * twin.y(2) + twin.y(1)
    assert u == v and (u + v).terms == (u + u).terms and (u * v).terms == (u * u).terms
    other = AlgebraContext(5, 3).y(1)
    for op in (lambda: u + other, lambda: u * other):
        with pytest.raises(ContextMismatchError):
            op()
    assert u != other and u != AlgebraContext(7, 2).y(1)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_mul_at_packing_boundary(p):
    # y1^(p^4) * y1 next to small exponents: the sum of the largest degrees
    # sets the field width, so a field one bit short folds y1^(p^4 + 1)
    # into its neighbour
    ctx = AlgebraContext(p, 3)
    big = p**4
    y1, y2, y3 = ctx.y(1), ctx.y(2), ctx.y(3)
    cases = [
        (ctx.y(1, big), y1),
        (ctx.y(1, big) + y2 * y3, y1 + ctx.y(3, 2) + 1),
        (ctx.x(1) * ctx.y(2, big - 1) + ctx.x(3) * y1, ctx.x(2) * ctx.y(2, big) + y3),
        (ctx.y(1, big) * ctx.y(2, big) * ctx.y(3, big), ctx.y(1, big) + ctx.y(3, 1)),
        (ctx.y(3, 2 * big - 1) + ctx.x(2), ctx.y(3, 1) - ctx.x(1) * ctx.x(3)),
    ]
    assert (ctx.y(1, big) * y1).terms == {Monomial((), (big + 1, 0, 0)): 1}
    for a, b in cases:
        _kernels_match_reference(a, b)
        _kernels_match_reference(b, a)


def test_exterior_generators_anticommute():
    ctx = AlgebraContext(5, 4)
    for i in range(1, 5):
        assert (ctx.x(i) * ctx.x(i)).is_zero()
        for j in range(1, 5):
            if i != j:
                assert ctx.x(i) * ctx.x(j) == -(ctx.x(j) * ctx.x(i))
                assert not (ctx.x(i) * ctx.x(j)).is_zero()
    # a longer word: moving x4 past x1 x2 x3 costs three transpositions
    x123 = ctx.x(1) * ctx.x(2) * ctx.x(3)
    assert ctx.x(4) * x123 == -(x123 * ctx.x(4))
    assert (x123 * ctx.x(4)).terms == {Monomial((1, 2, 3, 4), (0, 0, 0, 0)): 1}


def test_relabel_needs_injective_map(ctx):
    big = AlgebraContext(3, 3)
    a = ctx.x(1) * ctx.y(2)
    moved = relabel(a, big, {1: 2, 2: 3})
    assert moved == big.x(2) * big.y(3)
    with pytest.raises(ValueError):
        relabel(ctx.x(1) * ctx.x(2), big, {1: 2})  # collides with kept x2
    with pytest.raises(ValueError):
        relabel(ctx.y(1) * ctx.y(2), big, {1: 2})


@pytest.mark.parametrize("target", [True, 1.5, 0, 3])
def test_relabel_targets_meet_the_term_rule(ctx, target):
    # checked once, before the term walk: True used to be stored as an
    # exterior index, and 1.5 ended in a bare TypeError
    with pytest.raises(ValueError, match=r"^index 1 maps to .*, not an int in 1\.\.2$"):
        relabel(ctx.x(1) * ctx.y(2), ctx, {1: target})


def test_relabel_keeps_no_index_past_the_target_context(ctx):
    # an unmapped index is kept, so it must exist in the target context
    with pytest.raises(ValueError, match=r"^index 3 maps to 3, not an int in 1\.\.2$"):
        relabel(AlgebraContext(3, 3).y(1), ctx, {})
    assert relabel(AlgebraContext(3, 3).y(3), ctx, {3: 1}) == ctx.y(1)


def test_relabel_tracks_exterior_reordering():
    ctx = AlgebraContext(3, 2)
    big = AlgebraContext(3, 2)
    a = ctx.x(1) * ctx.x(2)
    # swapping the two exterior indices costs a sign
    assert relabel(a, big, {1: 2, 2: 1}) == a.scalar_mul(-1)


def test_embed(ctx):
    big = AlgebraContext(3, 4)
    a = ctx.x(2) * ctx.y(1, 3)
    b = embed(a, big)
    assert b.ctx is big and b.degree() == a.degree()
    assert embed(a, AlgebraContext(3, 2)) is a  # same context: no copy
    with pytest.raises(ValueError):
        embed(b, ctx)  # cannot shrink


def test_render_order(ctx):
    # higher total degree first, then higher-index generators dominate
    v2 = ctx.y(2, 3) + (ctx.y(2) * ctx.y(1, 2)).scalar_mul(2)
    assert render_text(v2) == "y2^3 + 2*y2*y1^2"
    assert render_text(ctx.zero()) == "0"
    assert render_text(ctx.one()) == "1"


def test_monomial_iteration(ctx):
    a = ctx.y(1).scalar_mul(2) + ctx.x(1)
    items = {mono: c for mono, c in a}
    assert items[Monomial((), (1, 0))] == 2
    assert items[Monomial((1,), (0, 0))] == 1
    assert len(a) == 2


def test_substitute_sums_images_and_drops_cancelled_terms():
    ctx = AlgebraContext(5, 3)
    x1, x2, x3, y1, y2 = ctx.x(1), ctx.x(2), ctx.x(3), ctx.y(1), ctx.y(2)
    # y1 -> y2 makes y1 - y2 cancel to an empty term map
    assert (y1 - y2).substitute(y_images={1: y2}).terms == {}
    # swapping x1 and x2 reorders x1 x2 at the cost of a sign
    assert (x1 * x2).substitute(x_images={1: x2, 2: x1}) == -(x1 * x2)
    # many source terms landing on shared targets: each coefficient is
    # the reduced sum of its contributions
    a = sum((y1 ** i * y2 ** (2 - i)).scalar_mul(i + 1) for i in range(3))
    assert a.substitute(y_images={1: y1 + y2, 2: y1 + y2}) == (y1 + y2) ** 2  # 6 = 1
    b = x3 * y1 + x1 * y2
    assert b.substitute(x_images={1: x3}, y_images={1: y2}) == x3 * y2 + x3 * y2
    assert all(0 < c < 5 for c in b.substitute(y_images={2: y1 + y2 + y2}).terms.values())


def _reference_substitute(a, x_images, y_images):
    # the per-term substitution over Element products: an oracle for the
    # packed Element.substitute.  Each term's image is built on its own and
    # added in; the mapped x's multiply on the left, the y-powers on the right.
    ctx = a.ctx
    p = ctx.p
    acc = {}
    for mono, c in a.terms.items():
        fixed_xs = tuple(i for i in mono.xs if i not in x_images)
        fixed_ys = tuple(e if (i + 1) not in y_images else 0 for i, e in enumerate(mono.ys))
        sign = 1
        mapped = []
        fixed_seen = 0
        for i in mono.xs:
            if i in x_images:
                if fixed_seen % 2:
                    sign = -sign
                mapped.append(x_images[i])
            else:
                fixed_seen += 1
        term = Element._make(ctx, {Monomial(fixed_xs, fixed_ys): c if sign > 0 else p - c})
        for img in reversed(mapped):
            term = img * term
        for i, e in enumerate(mono.ys):
            if e and (i + 1) in y_images:
                for _ in range(e):
                    term = term * y_images[i + 1]
        for m, v in term.terms.items():
            acc[m] = acc.get(m, 0) + v
    return {m: v % p for m, v in acc.items() if v % p}


def _random_parity_element(rng, ctx, nterms, max_exp, odd):
    # a sum of monomials whose exterior parts all have odd (or all even)
    # length, so the element is odd (or even) as a whole
    out = ctx.zero()
    for _ in range(nterms):
        lengths = [k for k in range(ctx.m + 1) if k % 2 == odd]
        if not lengths:
            break
        xs = sorted(rng.sample(range(1, ctx.m + 1), rng.choice(lengths)))
        ys = [rng.randint(0, max_exp) for _ in range(ctx.m)]
        out = out + ctx.monomial(xs, ys, rng.randrange(1, ctx.p))
    return out


def _random_images(rng, ctx):
    # per generator: unmapped, identity, or a random image with up to three
    # terms (odd ones for x, even ones, exterior pairs included, for y)
    x_images, y_images = {}, {}
    for i in range(1, ctx.m + 1):
        for images, odd, gen in ((x_images, 1, ctx.x(i)), (y_images, 0, ctx.y(i))):
            kind = rng.choice(["unmapped", "identity", "image", "image"])
            if kind == "identity":
                images[i] = gen
            elif kind == "image":
                images[i] = _random_parity_element(rng, ctx, rng.randint(1, 3), 2, odd)
    return x_images, y_images


def _substitute_matches_reference(a, x_images, y_images):
    got = a.substitute(x_images, y_images)
    assert got.ctx == a.ctx
    assert got.terms == _reference_substitute(a, x_images, y_images)
    assert all(0 < c < a.ctx.p for c in got.terms.values())


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_substitute_matches_reference(p, m):
    rng = random.Random(1000 + 10 * p + m)
    ctx = AlgebraContext(p, m)
    for _ in range(12):
        a = _random_element(rng, ctx, rng.randint(1, 6), 3)
        _substitute_matches_reference(a, *_random_images(rng, ctx))
    # a multi-term odd image and an even image carrying two exterior
    # factors on every generator; zero images; identity images; x's mapped
    # with every y left fixed
    odd = {i: ctx.x(i) * ctx.y(m, 2) + ctx.x(1) * ctx.y(i).scalar_mul(2) if i != 1
           else ctx.x(1) * ctx.y(m) - ctx.x(m) for i in range(1, m + 1)}
    even = {i: ctx.x(1) * ctx.x(m) + ctx.y(i) * ctx.y(1) if m > 1 else ctx.y(1, 2) + 1
            for i in range(1, m + 1)}
    zero = {i: ctx.zero() for i in range(1, m + 1)}
    identity_x = {i: ctx.x(i) for i in range(1, m + 1)}
    identity_y = {i: ctx.y(i) for i in range(1, m + 1)}
    maps = [(odd, even), (zero, {}), ({}, zero), ({1: ctx.zero()}, {m: ctx.zero()}),
            (identity_x, even), (odd, identity_y), (odd, {})]
    for x_images, y_images in maps:
        for _ in range(3):
            a = _random_element(rng, ctx, 5, 2)
            _substitute_matches_reference(a, x_images, y_images)
    a = _random_element(rng, ctx, 5, 2)
    assert a.substitute(identity_x, identity_y) is a


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("n", [2, 3])
def test_apply_matrix_matches_reference(p, n):
    rng = random.Random(10 * p + n)
    ctx = AlgebraContext(p, n)
    sources = [U(ctx, n), V(ctx, n), _random_element(rng, ctx, 6, 3)]
    for g in gl_generators(n, p):
        x_images = {i: sum((ctx.x(j).scalar_mul(g[i - 1][j - 1]) for j in range(1, n + 1)),
                           ctx.zero()) for i in range(1, n + 1)}
        y_images = {i: sum((ctx.y(j).scalar_mul(g[i - 1][j - 1]) for j in range(1, n + 1)),
                           ctx.zero()) for i in range(1, n + 1)}
        for a in sources:
            assert apply_matrix(a, g).terms == _reference_substitute(a, x_images, y_images)


def test_substitute_at_field_width_bound():
    # x1 -> x1 y2^3 + x2 y1^3 has top y-degree 3 and y2 -> y1^2 + y3^2 has
    # 2, so x1 y2^2 images reach y-degree 3 + 2 * 2 = 7 = 2^3 - 1: x2 y1^7
    # fills a 3-bit field.  With one fixed y1 more the bound is 8 = 2^3, and
    # x2 y1^8 needs 4 bits.  A field one bit short folds either into its
    # neighbour.
    ctx = AlgebraContext(5, 3)
    x1, x2, y1, y2, y3 = ctx.x(1), ctx.x(2), ctx.y(1), ctx.y(2), ctx.y(3)
    x_images = {1: x1 * ctx.y(2, 3) + x2 * ctx.y(1, 3)}
    y_images = {2: ctx.y(1, 2) + ctx.y(3, 2)}
    seven = (x1 * ctx.y(2, 2)).substitute(x_images, y_images)
    assert seven.coefficient(Monomial((2,), (7, 0, 0))) == 1
    assert max(sum(mono.ys) for mono in seven.terms) == 7
    eight = (x1 * y1 * ctx.y(2, 2)).substitute(x_images, y_images)
    assert eight.coefficient(Monomial((2,), (8, 0, 0))) == 1
    for a in (x1 * ctx.y(2, 2), x1 * y1 * ctx.y(2, 2), x1 * y2 + y3 * ctx.y(2, 2)):
        _substitute_matches_reference(a, x_images, y_images)


@pytest.mark.parametrize("top", [1023, 1024])
def test_packed_kernels_at_the_floor_width_bound(top):
    # packed keys are at least 10 bits a field, so y-degree 1023 = 2^10 - 1
    # fills a floor-width field and 1024 needs 11 bits.  Each case puts the
    # whole degree into the last field, so a field one bit short carries
    # into its neighbour: substitute, ** and * above PAIRWISE_MAX_PAIRS.
    ctx = AlgebraContext(5, 3)
    x1, x2 = ctx.x(1), ctx.x(2)
    x_images = {1: x1 * ctx.y(2, 3) + x2 * ctx.y(3, 3)}
    y_images = {2: ctx.y(1, 2) + ctx.y(3, 2)}
    # x1 y2^2 y3^(top - 7) -> x2 y3^3 (y1^2 + y3^2)^2 y3^(top - 7) + ...
    a = x1 * ctx.y(2, 2) * ctx.y(3, top - 7)
    image = a.substitute(x_images, y_images)
    assert image.coefficient(Monomial((2,), (0, 0, top))) == 1
    assert max(sum(mono.ys) for mono in image.terms) == top
    _substitute_matches_reference(a, x_images, y_images)

    ctx = AlgebraContext(5, 2)
    y1, y2 = ctx.y(1), ctx.y(2)
    binomials = Element(ctx, {((), (j, top - j)): math.comb(top, j) for j in range(top + 1)})
    assert (y1 + y2) ** top == binomials
    assert binomials.coefficient(Monomial((), (0, top))) == 1

    a = sum((ctx.monomial((), (i, 512 - i)) for i in range(5)), ctx.zero())
    b = sum((ctx.monomial((), (i, top - 512 - i)) for i in range(5)), ctx.zero())
    assert len(a) * len(b) > PAIRWISE_MAX_PAIRS
    product = a * b
    assert product == _mul_pairwise(a, b)
    assert product.coefficient(Monomial((), (0, top))) == 1


@pytest.mark.parametrize("p", [3, 5, 7])
def test_substitute_y_powers_across_frobenius(p):
    # y-exponents p - 1, p, p^2 and p^2 + 1: just under, at and past the
    # base-p digit steps where a polynomial image is raised by Frobenius
    # (packed key * p), and the same exponents on images carrying an
    # exterior pair, which are raised by squaring
    ctx = AlgebraContext(p, 2)
    x1, x2, y1, y2 = ctx.x(1), ctx.x(2), ctx.y(1), ctx.y(2)
    assert (ctx.y(1, p)).substitute(y_images={1: y1 + y2}) == ctx.y(1, p) + ctx.y(2, p)
    maps = [
        {1: y1 + y2.scalar_mul(2)},
        {1: y1 * y2 + ctx.y(2, 2) + 1, 2: ctx.y(1, 3)},
        {2: x1 * x2 + y1},
        {1: x1 * x2 * y2 + y2.scalar_mul(p - 1), 2: y1 + x1 * x2},
    ]
    for y_images in maps:
        for e in (p - 1, p, p * p, p * p + 1):
            for a in (ctx.y(1, e) * y2, x1 * ctx.y(1, e), x2 * ctx.y(2, e) + y1,
                      (x1 * x2 * ctx.y(2, e)).scalar_mul(2)):
                _substitute_matches_reference(a, {}, y_images)
