"""Parsing and serialization of Elements.

Text grammar (canonical form produced by render_text):

    element  = "0" | term (" + " term)*
    term     = [coeff "*"] factor ("*" factor)*  |  coeff
    factor   = "x" INDEX | "y" INDEX ["^" EXPONENT]

Coefficients render as residues in 1..p-1.  The parser is laxer than the
renderer: whitespace is optional, "-" is accepted, factors may repeat and
may appear in any order (exterior reordering contributes its Koszul sign,
a repeated exterior factor gives 0).  A negative exponent is refused.
"""

from __future__ import annotations

import re
from bisect import bisect_left

from .algebra import (AlgebraContext, Element, Monomial, _render_terms, monomial_sort_key,
                      render_text)

_FACTOR = re.compile(r"^([xy])(\d+)(?:\^(-?\d+))?$")
_COEFF = re.compile(r"^[+-]?\d+$")
_MINUS = re.compile(r"(?<!\^)-")


class ParseError(ValueError):
    pass


def parse_text(text: str, ctx: AlgebraContext) -> Element:
    """Parse the text grammar back into an Element over ctx.  An index
    outside 1..m, refused by the algebra, is raised as a ParseError."""
    s = text.strip()
    if not s:
        raise ParseError("empty input")
    if s == "0":
        return ctx.zero()
    # "a - b" -> "a + -b" so one split suffices; "^-" keeps its exponent
    s = _MINUS.sub("+-", s).lstrip("+")
    try:
        terms = []
        for raw in s.split("+"):
            raw = raw.strip()
            if not raw:
                raise ParseError("empty term in %r" % text)
            terms.append(_parse_term(raw, ctx))
        return Element(ctx, terms)
    except ParseError:
        raise
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _parse_term(raw: str, ctx: AlgebraContext) -> tuple[Monomial, int]:
    """One term as (monomial, integer coefficient); the coefficient is 0
    when an exterior factor repeats."""
    coeff = 1
    if raw.startswith("-"):
        coeff = -1
        raw = raw[1:].strip()
    xs: list[int] = []
    ys = [0] * ctx.m
    repeated = False
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
        if kind == "x":
            if exp is not None:
                raise ParseError("exterior generators take no exponent: %r" % piece)
            # x_idx joins on the right and moves left past every larger
            # index, one Koszul sign each; a repeated x squares to zero
            pos = bisect_left(xs, idx)
            if pos < len(xs) and xs[pos] == idx:
                repeated = True
            else:
                if (len(xs) - pos) % 2:
                    coeff = -coeff
                xs.insert(pos, idx)
        else:
            e = 1 if exp is None else int(exp)
            if e < 0:
                raise ParseError("negative exponent in %r" % piece)
            ctx._check_index(idx)  # the slot of y_idx
            ys[idx - 1] += e
    return Monomial(tuple(xs), tuple(ys)), 0 if repeated else coeff


def to_json(a: Element) -> dict:
    """JSON form: {"p": p, "m": m, "terms": [{"c":..,"x":[..],"y":[..]}, ..]}."""
    return {"p": a.ctx.p, "m": a.ctx.m,
            "terms": [{"c": a.terms[mono], "x": list(mono.xs), "y": list(mono.ys)}
                      for mono in sorted(a.terms, key=monomial_sort_key, reverse=True)]}


def from_json(data: dict, ctx: "AlgebraContext | None" = None) -> Element:
    """The inverse of to_json; no field is coerced, each term meets the term rule."""
    if ctx is None:
        ctx = AlgebraContext(data["p"], data["m"])
    elif ctx.p != data["p"] or ctx.m != data["m"]:
        raise ValueError("JSON context (p=%(p)s, m=%(m)s) does not match" % data)
    terms = []
    for t in data["terms"]:
        if type(t) is not dict or not {"c", "x", "y"} <= t.keys():
            raise ValueError('a JSON term must be an object with "c", "x" and "y", got %r' % (t,))
        if type(t["x"]) is not list or type(t["y"]) is not list:
            raise ValueError('a JSON term\'s "x" and "y" must be lists, got %r' % (t,))
        terms.append((Monomial(tuple(t["x"]), tuple(t["y"])), t["c"]))
    return Element(ctx, terms)


def render_latex(a: Element) -> str:
    """LaTeX form, e.g. ``x_{1} y_{2}^{3} + 2 x_{2} y_{1}^{3}``, in render_text's order."""
    return _render_terms(a, "x_{%d}", "y_{%d}", "y_{%d}^{%d}", " ")


__all__ = [
    "ParseError",
    "parse_text",
    "render_text",
    "to_json",
    "from_json",
    "render_latex",
]
