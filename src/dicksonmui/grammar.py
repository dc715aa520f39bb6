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
    """Parse the text grammar back into an Element over ctx."""
    s = text.strip()
    if not s:
        raise ParseError("empty input")
    if s == "0":
        return ctx.zero()
    # "a - b" -> "a + -b" so one split suffices; "^-" keeps its exponent
    s = _MINUS.sub("+-", s).lstrip("+")
    terms: dict[Monomial, int] = {}
    for raw in s.split("+"):
        raw = raw.strip()
        if not raw:
            raise ParseError("empty term in %r" % text)
        mono, c = _parse_term(raw, ctx)
        terms[mono] = terms.get(mono, 0) + c
    return Element(ctx, terms)


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
        if not 1 <= idx <= ctx.m:
            raise ParseError("generator index %d outside 1..%d" % (idx, ctx.m))
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
            ys[idx - 1] += e
    return Monomial(tuple(xs), tuple(ys)), 0 if repeated else coeff


def to_json(a: Element) -> dict:
    """JSON form: {"p": p, "m": m, "terms": [{"c":..,"x":[..],"y":[..]}, ..]}."""
    terms = []
    for mono in sorted(a.terms, key=monomial_sort_key, reverse=True):
        terms.append({"c": a.terms[mono], "x": list(mono.xs), "y": list(mono.ys)})
    return {"p": a.ctx.p, "m": a.ctx.m, "terms": terms}


def from_json(data: dict, ctx: "AlgebraContext | None" = None) -> Element:
    if ctx is None:
        ctx = AlgebraContext(int(data["p"]), int(data["m"]))
    elif ctx.p != data["p"] or ctx.m != data["m"]:
        raise ValueError("JSON context (p=%(p)s, m=%(m)s) does not match" % data)
    terms: dict[Monomial, int] = {}
    for t in data["terms"]:
        xs = tuple(int(i) for i in t["x"])
        ys = tuple(int(e) for e in t["y"])
        if len(ys) != ctx.m:
            raise ValueError("y exponent vector must have length m")
        if list(xs) != sorted(set(xs)) or not all(1 <= i <= ctx.m for i in xs):
            raise ValueError("bad exterior support %r" % (xs,))
        if any(e < 0 for e in ys):
            raise ValueError("negative exponent")
        mono = Monomial(xs, ys)
        terms[mono] = terms.get(mono, 0) + int(t["c"])
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
