"""Text/JSON/LaTeX serialization round trips."""

import json
import random
import re

import pytest

from dicksonmui.algebra import AlgebraContext, render_text
from dicksonmui.grammar import (
    _COEFF,
    _FACTOR,
    ParseError,
    from_json,
    parse_text,
    render_latex,
    to_json,
)


@pytest.fixture
def ctx():
    return AlgebraContext(3, 2)


@pytest.mark.parametrize("text", [
    "0",
    "1",
    "2",
    "y1",
    "y2^3 + 2*y2*y1^2",
    "x1*y2 + 2*x2*y1",
    "x1*x2*y1^4",
    "2*x1",
])
def test_text_round_trip(ctx, text):
    assert render_text(parse_text(text, ctx)) == text


def test_parse_normalizes(ctx):
    # whitespace, coefficient folding, repeated monomials
    a = parse_text(" y1 + y1 +y1 ", ctx)
    assert a.is_zero()
    assert parse_text("y1 - y1", ctx).is_zero()
    assert parse_text("3*y1 + y2", ctx) == ctx.y(2)
    assert parse_text("y1*y1", ctx) == ctx.y(1, 2)


def test_parse_signs(ctx):
    assert parse_text("-y1", ctx) == ctx.y(1).scalar_mul(2)
    assert parse_text("y2 - 2*y1", ctx) == ctx.y(2) + ctx.y(1)


@pytest.mark.parametrize("bad", [
    "",
    "y0",
    "y3",      # outside m = 2
    "x1^2",
    "z1",
    "y1^-2",
    "1 + + y1",
])
def test_parse_errors(ctx, bad):
    with pytest.raises(ParseError):
        parse_text(bad, ctx)


@pytest.mark.parametrize("text", ["y1^-1", "y1^-2", "x1 + 2*y2^-1", "y2 - y1^-1"])
def test_negative_exponent_is_named(ctx, text):
    # the "-" after "^" stays in its factor rather than splitting the term
    with pytest.raises(ParseError, match="negative exponent"):
        parse_text(text, ctx)
    _parses_like_reference(text, ctx)


def test_exterior_order_sign(ctx):
    # x2*x1 re-sorts with a sign
    assert parse_text("x2*x1", ctx) == (ctx.x(1) * ctx.x(2)).scalar_mul(-1)
    assert parse_text("x1*x2 + x2*x1", ctx).is_zero()


def test_json_round_trip(ctx):
    a = parse_text("x1*y2 + 2*x2*y1", ctx)
    data = to_json(a)
    assert data["p"] == 3 and data["m"] == 2
    assert from_json(data) == a
    assert from_json(json.loads(json.dumps(data)), ctx) == a


def test_json_rejects_mismatched_context(ctx):
    data = to_json(ctx.y(1))
    with pytest.raises(ValueError):
        from_json(data, AlgebraContext(5, 2))
    data["terms"][0]["y"] = [1]  # wrong vector length
    with pytest.raises(ValueError):
        from_json(data)


_EXTERIOR = r"^exterior indices must be a strictly increasing tuple of ints in 1\.\.2, got "
_EXPONENTS = r"^exponents must be a tuple of 2 ints >= 0, got "


@pytest.mark.parametrize("term, message", [
    ({"c": 1.5}, r"^coefficient must be an int, got 1\.5$"),
    ({"c": True}, r"^coefficient must be an int, got True$"),
    ({"c": "1"}, r"^coefficient must be an int, got '1'$"),
    ({"y": ["1", 0]}, _EXPONENTS),
    ({"y": [1.0, 0]}, _EXPONENTS),
    ({"y": [True, 0]}, _EXPONENTS),
    ({"y": [1]}, _EXPONENTS),
    ({"y": [1, 0, 0]}, _EXPONENTS),
    ({"y": [-1, 0]}, _EXPONENTS),
    ({"x": [True]}, _EXTERIOR),
    ({"x": ["1"]}, _EXTERIOR),
    ({"x": [3]}, _EXTERIOR),
    ({"x": [2, 1]}, _EXTERIOR),
])
def test_json_terms_meet_the_term_rule(ctx, term, message):
    # no field is coerced: "1", 1.5 and true used to pass through int()
    data = {"p": 3, "m": 2, "terms": [dict({"c": 1, "x": [], "y": [1, 0]}, **term)]}
    for target in (None, ctx):
        with pytest.raises(ValueError, match=message):
            from_json(data, target)


_FORM = r'^a JSON term must be an object with "c", "x" and "y", got '
_LISTS = r'^a JSON term\'s "x" and "y" must be lists, got '


@pytest.mark.parametrize("term, message", [
    ({"c": 1, "y": [1, 0]}, _FORM),
    ({"x": [], "y": [1, 0]}, _FORM),
    ([1, [], [1, 0]], _FORM),
    ({"c": 1, "x": 1, "y": [1, 0]}, _LISTS),
    ({"c": 1, "x": [], "y": "10"}, _LISTS),
])
def test_json_terms_have_the_json_form(ctx, term, message):
    # a missing "x" used to raise a bare KeyError, and "x": 1 a TypeError
    data = {"p": 3, "m": 2, "terms": [term]}
    for target in (None, ctx):
        with pytest.raises(ValueError, match=message):
            from_json(data, target)


def test_json_context_meets_the_context_rule():
    with pytest.raises(ValueError, match="^p must be an odd prime, got '3'$"):
        from_json({"p": "3", "m": 2, "terms": []})


@pytest.mark.parametrize("text, message", [
    ("x3", _EXTERIOR), ("x2*x3*y1", _EXTERIOR), ("x0", _EXTERIOR),
    ("y3", r"^generator index must be an int in 1\.\.2, got 3$"),
])
def test_parse_refuses_what_the_term_rule_refuses(ctx, text, message):
    with pytest.raises(ParseError, match=message):
        parse_text(text, ctx)


def test_latex(ctx):
    a = parse_text("y2^3 + 2*y2*y1^2", ctx)
    assert render_latex(a) == "y_{2}^{3} + 2 y_{2} y_{1}^{2}"
    assert render_latex(ctx.zero()) == "0"
    assert render_latex(ctx.x(1) * ctx.y(2)) == "x_{1} y_{2}"
    assert render_latex(ctx.scalar(2)) == "2"
    assert render_latex(parse_text("2*x2*x1*y1^3", ctx)) == "x_{1} x_{2} y_{1}^{3}"


@pytest.mark.parametrize("p, m", [(3, 2), (5, 3)])
def test_latex_is_the_text_form_respelled(p, m):
    # both renderers walk one term order; only the factor spelling and the
    # separator differ
    ctx = AlgebraContext(p, m)
    rng = random.Random(p * m)
    for _ in range(200):
        a = sum((ctx.monomial(sorted(rng.sample(range(1, m + 1), rng.randint(0, 2))),
                              [rng.randint(0, 4) for _ in range(m)], rng.randint(0, p - 1))
                 for _ in range(rng.randint(0, 4))), ctx.zero())
        text = re.sub(r"y(\d+)\^(\d+)", r"y_{\1}^{\2}", render_text(a))
        text = re.sub(r"([xy])(\d+)", r"\1_{\2}", text).replace("*", " ")
        assert render_latex(a) == text


def _reference_parse_text(text, ctx):
    # the parser over Element products: an oracle for parse_text, which
    # builds each term's monomial directly
    s = text.strip()
    if not s:
        raise ParseError("empty input")
    if s == "0":
        return ctx.zero()
    s = re.sub(r"(?<!\^)-", "+-", s).lstrip("+")
    out = ctx.zero()
    for raw in s.split("+"):
        raw = raw.strip()
        if not raw:
            raise ParseError("empty term in %r" % text)
        out = out + _reference_parse_term(raw, ctx)
    return out


def _reference_parse_term(raw, ctx):
    coeff = 1
    if raw.startswith("-"):
        coeff = -1
        raw = raw[1:].strip()
    term = None
    for piece in raw.split("*"):
        piece = piece.strip()
        if not piece:
            raise ParseError("empty factor in %r" % raw)
        if _COEFF.match(piece):
            coeff *= int(piece)
            continue
        m = _FACTOR.match(piece)
        if not m:
            raise ParseError("bad factor %r" % piece)
        kind, idx, exp = m.group(1), int(m.group(2)), m.group(3)
        if not 1 <= idx <= ctx.m:
            raise ParseError("generator index %d outside 1..%d" % (idx, ctx.m))
        if kind == "x":
            if exp is not None:
                raise ParseError("exterior generators take no exponent: %r" % piece)
            factor = ctx.x(idx)
        else:
            e = 1 if exp is None else int(exp)
            if e < 0:
                raise ParseError("negative exponent in %r" % piece)
            factor = ctx.y(idx, e)
        term = factor if term is None else term * factor
    if term is None:
        term = ctx.one()
    return term.scalar_mul(coeff)


def _parses_like_reference(text, ctx):
    try:
        want = _reference_parse_text(text, ctx)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            parse_text(text, ctx)
        assert str(got.value) == str(exc), text
        return
    got = parse_text(text, ctx)
    assert got == want, text
    assert all(0 < c < ctx.p for c in got.terms.values())


def _shuffled(rng, text):
    # every term's factors in a random order, with random spacing
    terms = []
    for term in text.split(" + "):
        factors = term.split("*")
        rng.shuffle(factors)
        terms.append(rng.choice(["*", " * ", "* "]).join(factors))
    return rng.choice([" + ", "+", " +"]).join(terms)


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_parse_matches_reference(p, m):
    rng = random.Random(500 + 10 * p + m)
    ctx = AlgebraContext(p, m)
    for _ in range(25):
        a = ctx.zero()
        for _ in range(rng.randint(1, 4)):
            xs = sorted(rng.sample(range(1, m + 1), rng.randint(0, m)))
            ys = [rng.randint(0, 12) for _ in range(m)]
            a = a + ctx.monomial(xs, ys, rng.randrange(1, p))
        text = render_text(a)
        assert parse_text(text, ctx) == a
        _parses_like_reference(text, ctx)
        _parses_like_reference(_shuffled(rng, text), ctx)
    # repeated x's (alone, among other factors, before a bad factor), signed
    # and multi-digit coefficients, several coefficients in one term
    top = "x%d" % m
    for text in ["x1*x1", "x1*x1*y1", "x1*y1*x1 + y1", "%s*y1*%s*x1 - y1" % (top, top),
                 "x1*x1*z1", "x1*x1*y1^-2", "-3*y1^2*y1", "12*y1 - 10*y1^11",
                 "-y1*7*2", "100*x1 + 3*-2", "2*3*x1*4", "-x1", "- 2 * x1 * y1",
                 "0*y1 + y1", "y1 - -y1", "x1*y1^2*x1*y1"]:
        _parses_like_reference(text, ctx)
    if m >= 2:
        for text in ["x2*x1", "x2*y1*x1 - x1*x2*y1", "-3*y1^2*x2*y1", "x2*y2*x1*y1^3",
                     "x1*x2*x1", "x2*x1*x2*y1", "11*y2*x2*y1^10*x1"]:
            _parses_like_reference(text, ctx)
    if m >= 3:
        for text in ["x3*x2*x1", "x3*x1*x2", "x2*x3*x1 + x1*x3*x2", "y3*x3*y1*x1*x2"]:
            _parses_like_reference(text, ctx)
