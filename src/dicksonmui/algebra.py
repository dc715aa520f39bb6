"""Exact sparse arithmetic in E(x_1,...,x_m) (x) P(y_1,...,y_m) over Z/p.

Scalars live in Z/p for an odd prime p.  The generators x_i are exterior
of degree 1 (x_i^2 = 0, x_i x_j = -x_j x_i) and the y_i are polynomial of
degree 2 and central.  An Element is an immutable finite sum of monomials

    c * x_{i_1} ... x_{i_k} * y_1^{e_1} ... y_m^{e_m},

stored as a map from Monomial to a nonzero residue in 1..p-1.  All
operations return new Elements; nothing here mutates shared state, so
values are safe to cache and to hash.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Collection, Iterable, Iterator, Mapping, Sequence
from functools import cache
from heapq import heapify, heappop, heappush
from itertools import combinations
from operator import add, mul

from .arith import inv_mod, is_odd_prime


class ContextMismatchError(ValueError):
    """Operands live over different (p, m) generator contexts."""


class InexactDivisionError(ArithmeticError):
    """exact_div was asked for a quotient that does not exist."""


def _monomial_degree(self: Monomial) -> int:
    return len(self.xs) + 2 * sum(self.ys)


# the namedtuple class itself with degree attached, not a subclass of it:
# one class, as typing.NamedTuple built it
Monomial = namedtuple("Monomial", ("xs", "ys"))
Monomial.__doc__ = "xs: strictly increasing exterior indices (1-based); ys: exponent vector."
Monomial.degree = _monomial_degree


def monomial_sort_key(mono: Monomial):
    """Display order: total degree first, highest-index generators dominant.
    The degree is Monomial.degree's, written out: this key runs once per
    term of every rendered Element."""
    xs, ys = mono
    return (len(xs) + 2 * sum(ys), ys[::-1], xs[::-1])


def _grlex_key(mono: Monomial):
    # division order on purely polynomial monomials
    return (sum(mono.ys), mono.ys)


def _pack(ys: Iterable[int], width: int, key: int = 0) -> int:
    """Append the exponents ys to key as fields of width bits each, the
    first exponent most significant.  While every field of a sum of packed
    keys stays below 2**width, adding keys adds exponent vectors."""
    for e in ys:
        key = (key << width) | e
    return key


def _unpack_keys(keys: Collection[int], width: int, m: int) -> list[tuple[int, ...]]:
    """The inverse of _pack for m fields: each key's lowest m fields as a
    tuple, most significant first, in the order of keys; higher fields are
    dropped.  One pass over keys per field, zipped into tuples."""
    if not m:
        return [()] * len(keys)
    mask = (1 << width) - 1
    fields = [[k >> s & mask for k in keys] for s in range(width * (m - 1), -1, -width)]
    return list(zip(*fields))


def _check_coefficient(c) -> None:
    # type() rather than isinstance: a bool is an int, and 1.0 == 1
    if type(c) is not int:
        raise ValueError("coefficient must be an int, got %r" % (c,))


def _check_term(key, c, m: int) -> Monomial:
    """The term rule behind every public way into an Element over m pairs:
    c is an int (not a bool); key is a Monomial, or a plain (xs, ys) pair
    taken as one, whose xs are a strictly increasing tuple of ints in 1..m
    and whose ys are a tuple of exactly m ints >= 0.  Returns key as a
    Monomial, or raises ValueError naming the broken part.  Plain loops:
    generators would cost about four times as much per term."""
    _check_coefficient(c)
    if key.__class__ is not Monomial:
        if type(key) is not tuple or len(key) != 2:
            raise ValueError("a term key must be a Monomial or an (xs, ys) pair, got %r" % (key,))
        key = _new_tuple(Monomial, key)
    xs, ys = key
    last = 0
    # a part of the wrong shape is walked as (None,), which fails the int test
    for i in xs if type(xs) is tuple else (None,):
        if type(i) is not int or not last < i <= m:
            raise ValueError("exterior indices must be a strictly increasing tuple of ints "
                             "in 1..%d, got %r" % (m, xs))
        last = i
    for e in ys if type(ys) is tuple and len(ys) == m else (None,):
        if type(e) is not int or e < 0:
            raise ValueError("exponents must be a tuple of %d ints >= 0, got %r" % (m, ys))
    return key


# The most generator pairs a context may have.  Every monomial stores a
# dense m-tuple of exponents, so a context of 10**9 pairs would fill memory
# with its first term.  Far above what the suites build: 4 pairs on the
# default grid, 5 on the rank-5 invariants.
MAX_PAIRS = 1024


class AlgebraContext:
    """The ambient algebra E(x_1..x_m) (x) P(y_1..y_m) over Z/p.

    Immutable; equal to another context with the same p and m, and hashed
    by (p, m).  m is at most MAX_PAIRS."""

    __slots__ = ("p", "m")

    def __init__(self, p: int, m: int):
        # type() rather than isinstance: a bool is an int, and 3.0 == 3
        if type(p) is not int or not is_odd_prime(p):
            raise ValueError("p must be an odd prime, got %r" % (p,))
        if type(m) is not int or m < 0:
            raise ValueError("m must be an integer >= 0, got %r" % (m,))
        if m > MAX_PAIRS:
            raise ValueError("m = %d generator pairs is over the limit MAX_PAIRS = %d"
                             % (m, MAX_PAIRS))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "m", m)

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraContext is immutable")

    def __delattr__(self, name):
        raise AttributeError("AlgebraContext is immutable")

    def __reduce__(self):
        # rebuild through the constructor; the default would set the slots
        return AlgebraContext, (self.p, self.m)

    def __eq__(self, other) -> bool:
        if other.__class__ is not AlgebraContext:
            return NotImplemented
        return self.p == other.p and self.m == other.m

    def __hash__(self) -> int:
        return hash((self.p, self.m))

    def __repr__(self) -> str:
        return "AlgebraContext(p=%r, m=%r)" % (self.p, self.m)

    @property
    def h(self) -> int:
        return (self.p - 1) // 2

    def _empty_ys(self) -> tuple[int, ...]:
        return (0,) * self.m

    def zero(self) -> "Element":
        return Element._make(self, {})

    def scalar(self, c: int) -> "Element":
        return Element(self, {Monomial((), self._empty_ys()): c})

    def one(self) -> "Element":
        return self.scalar(1)

    def x(self, i: int) -> "Element":
        return Element(self, {Monomial((i,), self._empty_ys()): 1})

    def y(self, i: int, e: int = 1) -> "Element":
        self._check_index(i)
        return self.monomial((), (0,) * (i - 1) + (e,))

    def monomial(self, xs: Iterable[int] = (), ys: Iterable[int] = (), c: int = 1) -> "Element":
        """c x_xs y^ys; a short ys is padded with zeros."""
        ys = tuple(ys)
        return Element(self, {Monomial(tuple(xs), ys + (0,) * (self.m - len(ys))): c})

    def _check_index(self, i: int):
        if type(i) is not int or not 1 <= i <= self.m:
            raise ValueError("generator index must be an int in 1..%d, got %r" % (self.m, i))

    def check_pairs(self, k: int) -> None:
        """Raise ValueError unless the context has at least k generator pairs."""
        if self.m < k:
            raise ValueError("context too small: m = %d, needs at least %d pairs" % (self.m, k))


class Element:
    """An immutable element of E(x_1..x_m) (x) P(y_1..y_m) over Z/p."""

    __slots__ = ("ctx", "terms", "_hash")

    def __init__(self, ctx: AlgebraContext,
                 terms: "Mapping[Monomial, int] | Iterable[tuple[Monomial, int]]"):
        """The checked constructor: terms, a mapping or an iterable of (key,
        coefficient) pairs, must each meet the term rule (_check_term).
        Repeated keys add; coefficients are reduced mod p, zeros dropped."""
        m = ctx.m
        acc: dict[Monomial, int] = {}
        get = acc.get
        # a mapping is what has keys(), as for dict.update
        for key, c in terms.items() if hasattr(terms, "keys") else terms:
            key = _check_term(key, c, m)
            acc[key] = get(key, 0) + c
        p = ctx.p
        _set_ctx(self, ctx)
        _set_terms(self, {key: r for key, c in acc.items() if (r := c % p)})
        _set_hash(self, None)

    @classmethod
    def _make(cls, ctx: AlgebraContext, clean_terms: dict[Monomial, int]) -> "Element":
        # trusted constructor: residues already in 1..p-1.  Every product
        # ends here, so the slots are set through their descriptors, which
        # skips object.__setattr__'s lookup by name.
        self = object.__new__(cls)
        _set_ctx(self, ctx)
        _set_terms(self, clean_terms)
        _set_hash(self, None)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Element is immutable")

    def __reduce__(self):
        # rebuild through the constructor; the default would set the slots
        return Element, (self.ctx, self.terms)

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree_set(self) -> set[int]:
        # Monomial.degree, written out
        return {len(xs) + 2 * sum(ys) for xs, ys in self.terms}

    def is_homogeneous(self) -> bool:
        return len(self.degree_set()) <= 1

    def degree(self) -> int:
        """Degree of a homogeneous element; 0 for the zero element."""
        degs = self.degree_set()
        if not degs:
            return 0
        if len(degs) > 1:
            raise ValueError("element is not homogeneous: degrees %s" % sorted(degs))
        return degs.pop()

    def coefficient(self, mono: Monomial) -> int:
        return self.terms.get(mono, 0)

    def constant_term(self) -> int:
        return self.terms.get(Monomial((), self.ctx._empty_ys()), 0)

    def is_polynomial(self) -> bool:
        return all(not mono.xs for mono in self.terms)

    def __iter__(self) -> Iterator[tuple[Monomial, int]]:
        return iter(self.terms.items())

    def __len__(self) -> int:
        return len(self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- ring operations -------------------------------------------------

    def _coerce(self, other) -> "Element | None":
        if isinstance(other, Element):
            # most operands share one context object; skip the field compare
            if other.ctx is not self.ctx and other.ctx != self.ctx:
                raise ContextMismatchError(
                    "contexts differ: %r vs %r" % (self.ctx, other.ctx)
                )
            return other
        if isinstance(other, int):
            return self.ctx.scalar(other)
        return None

    def __add__(self, other) -> "Element":
        # an operand over this very context object needs no coercion
        if other.__class__ is not Element or other.ctx is not self.ctx:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        p = self.ctx.p
        out = dict(self.terms)
        for mono, c in other.terms.items():
            v = (out.get(mono, 0) + c) % p
            if v:
                out[mono] = v
            else:
                out.pop(mono, None)
        return Element._make(self.ctx, out)

    __radd__ = __add__

    def __neg__(self) -> "Element":
        p = self.ctx.p
        return Element._make(self.ctx, {m: p - c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Element":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Element":
        return -(self - other)

    def __mul__(self, other) -> "Element":
        if other.__class__ is Element and other.ctx is self.ctx:
            return _mul(self, other)
        if isinstance(other, int):
            return self.scalar_mul(other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _mul(self, other)

    def __rmul__(self, other) -> "Element":
        if isinstance(other, int):
            return self.scalar_mul(other)
        return NotImplemented

    def scalar_mul(self, c: int) -> "Element":
        _check_coefficient(c)
        p = self.ctx.p
        c %= p
        if not c:
            return self.ctx.zero()
        return Element._make(self.ctx, {m: v * c % p for m, v in self.terms.items()})

    def __pow__(self, e: int) -> "Element":
        if type(e) is not int:
            return NotImplemented
        if e < 0:
            raise ValueError("negative power")
        if e == 0:
            return self.ctx.one()
        if e == 1:
            return self
        if not self.is_polynomial():
            # squares of exterior-bearing sums silently collapse; make the
            # caller expand such products explicitly via mul
            raise ValueError("pow with e >= 2 needs a purely polynomial element")
        # one field width for every partial power: e times the top y-degree
        width = _field_width(e * _top_degree(self))
        groups = _pow_groups(_mask_groups(self, width), e, self.ctx.p)
        return _unpack_groups(self.ctx, groups, width)

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other) -> bool:
        if other.__class__ is Element and other.ctx is self.ctx:
            return self.terms == other.terms
        if type(other) is int:  # not a bool: that compares unequal, and never raises
            other = self.ctx.scalar(other)
        elif not isinstance(other, Element):
            return NotImplemented
        return self.ctx == other.ctx and self.terms == other.terms

    def __hash__(self) -> int:
        hv = self._hash
        if hv is None:
            hv = hash((self.ctx, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", hv)
        return hv

    # -- substitution ------------------------------------------------------

    def substitute(
        self,
        x_images: "Mapping[int, Element] | None" = None,
        y_images: "Mapping[int, Element] | None" = None,
    ) -> "Element":
        """Apply the algebra map sending x_i, y_i to the given images.

        Unmapped generators stay fixed.  Every x-image must be a sum of
        odd-degree monomials and every y-image even, so Koszul reordering
        stays consistent.  The work is _substitute_groups over packed keys;
        its accumulator is unpacked once at the end.
        """
        ctx = self.ctx
        x_images = dict(x_images or {})
        y_images = dict(y_images or {})
        for i, img in x_images.items():
            ctx._check_index(i)
            if img.ctx != ctx:
                raise ContextMismatchError("x image lives in a different context")
            if any(mono.degree() % 2 == 0 for mono in img.terms):
                raise ValueError("image of x_%d must be odd" % i)
        for i, img in y_images.items():
            ctx._check_index(i)
            if img.ctx != ctx:
                raise ContextMismatchError("y image lives in a different context")
            if any(mono.degree() % 2 for mono in img.terms):
                raise ValueError("image of y_%d must be even" % i)
        # drop identity images so untouched factors stay inside one monomial;
        # compared by terms, so no identity is built through the term rule
        zero = ctx._empty_ys()
        x_images = {i: img for i, img in x_images.items()
                    if img.terms != {Monomial((i,), zero): 1}}
        y_images = {i: img for i, img in y_images.items()
                    if img.terms != {Monomial((), zero[:i - 1] + (1,) + zero[i:]): 1}}
        if not x_images and not y_images:
            return self
        return _unpack_groups(ctx, *_substitute_groups(self, x_images, y_images))

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        return render_text(self)

    def __repr__(self) -> str:
        return "<Element p=%d m=%d %s>" % (self.ctx.p, self.ctx.m, render_text(self))


_set_ctx = Element.ctx.__set__
_set_terms = Element.terms.__set__
_set_hash = Element._hash.__set__


# Monomial(xs, ys) without the Python-level frame of the namedtuple __new__
_new_tuple = tuple.__new__

# Packed operands and accumulators share one shape: exterior bitmask (bit i
# for x_i) -> (its exterior indices, {packed ys: coefficient}).
Groups = dict[int, tuple[tuple[int, ...], dict[int, int]]]

# the unit element 1 in that shape, at every width
_UNIT_GROUPS: Groups = {0: ((), {0: 1})}

# The field width of packed work.  Products, powers, substitutions, basis
# monomials and candidate columns are all packed at least this wide, so
# the block part of a power-map image key is a column key as it stands.
# 10 bits hold every y-degree below 1024, and three fields stay inside one
# 30-bit digit of a Python int; a larger degree widens the keys.  exact_div
# (graded keys with a guard bit) and invariants._alternant_quotient (lex
# keys) pack other layouts, each at its own width.
_MIN_WIDTH = 10


def _field_width(top: int) -> int:
    """The packed width for y-degrees up to top: at least _MIN_WIDTH."""
    return max(top.bit_length(), _MIN_WIDTH)


def _mask_groups(a: Element, width: int) -> Groups:
    """a's terms grouped by exterior part, each y-vector packed (_pack)."""
    groups: dict[tuple[int, ...], dict[int, int]] = {}
    for (xs, ys), c in a.terms.items():
        group = groups.get(xs)
        if group is None:
            group = groups[xs] = {}
        group[_pack(ys, width)] = c
    out: Groups = {}
    for xs, group in groups.items():
        mask = 0
        for i in xs:
            mask |= 1 << i
        out[mask] = (xs, group)
    return out


def _top_degree(a: Element) -> int:
    """The largest y-degree sum of a's terms; 0 for the zero element."""
    return max([sum(mono.ys) for mono in a.terms], default=0)


def _mul_blocks(out: Groups, a: Groups, b: Groups, scale: int) -> None:
    """Add scale * (a * b) into out, unreduced.

    The operands' keys must share one field width wide enough for every
    sum of keys.  For each pair of masks, xa & xb kills the whole block,
    and the Koszul sign of moving the x's of b past those of a is read
    once per block: the parity of the pairs i in xa, j in xb with i > j,
    one popcount per j.
    """
    for xa, (xs_a, ga) in a.items():
        for xb, (xs_b, gb) in b.items():
            if xa & xb:
                continue
            inversions = 0
            for j in xs_b:
                inversions += (xa >> j).bit_count()
            sign = -scale if inversions & 1 else scale
            x = xa | xb
            if x in out:
                acc = out[x][1]
            else:
                acc = {}
                out[x] = (tuple(sorted(xs_a + xs_b)), acc)
            get = acc.get
            outer, inner = (ga, gb) if len(ga) <= len(gb) else (gb, ga)
            for ko, co in outer.items():
                co *= sign
                for ki, ci in inner.items():
                    k = ko + ki
                    acc[k] = get(k, 0) + co * ci


def _reduce_groups(groups: Groups, p: int) -> Groups:
    """groups with every coefficient reduced mod p and zeros dropped."""
    out: Groups = {}
    for x, (xs, acc) in groups.items():
        reduced = {}
        for k, c in acc.items():
            c %= p
            if c:
                reduced[k] = c
        if reduced:
            out[x] = (xs, reduced)
    return out


def _product_groups(a: Groups, b: Groups, p: int) -> Groups:
    """a * b over packed keys (_mul_blocks), reduced mod p."""
    prod: Groups = {}
    _mul_blocks(prod, a, b, 1)
    return _reduce_groups(prod, p)


def _pow_groups(groups: Groups, e: int, p: int) -> Groups:
    """The e-th power (e >= 1) of an even element in packed form, reduced
    mod p: the one exponentiation behind Element.__pow__ and substitute.

    Square-and-multiply over _mul_blocks.  For a purely polynomial base and
    e >= p, e is split as p (e // p) + e % p: mod p the p-th power of a sum
    is the sum of p-th powers and c^p = c (Frobenius), which on packed keys
    is key * p.  The keys must be wide enough for e times groups' top
    y-degree; every partial power, Frobenius included, stays under that, so
    no field carries.
    """
    if e >= p and groups.keys() == {0}:
        frob: Groups = {0: ((), {k * p: c for k, c in groups[0][1].items()})}
        out = _pow_groups(frob, e // p, p)
        if e % p:
            out = _product_groups(out, _pow_groups(groups, e % p, p), p)
        return out
    out = None
    base = groups
    while True:
        if e & 1:
            out = base if out is None else _product_groups(out, base, p)
        e >>= 1
        if not e:
            return out
        base = _product_groups(base, base, p)


def _unpack_groups(ctx: AlgebraContext, groups: Groups, width: int) -> Element:
    """The Element of an unreduced accumulator, emptied one mask group at a
    time: each group is reduced mod p and freed, then its surviving keys
    are unpacked in bulk (_unpack_keys) into Monomials."""
    p, m = ctx.p, ctx.m
    terms: dict[Monomial, int] = {}
    while groups:
        xs, acc = groups.popitem()[1]
        acc = {k: r for k, c in acc.items() if (r := c % p)}
        terms.update(zip([_new_tuple(Monomial, (xs, ys)) for ys in _unpack_keys(acc, width, m)],
                         acc.values()))
    return Element._make(ctx, terms)


def _substitute_groups(a: Element, x_images: Mapping[int, Element],
                       y_images: Mapping[int, Element]) -> tuple[Groups, int]:
    """The packed core of Element.substitute: (accumulator, field width) of
    a's image, with coefficients unreduced.  The images must already meet
    substitute's rules (odd x-images, even y-images, a's context).

    Each term's image is a chain of products over packed keys (_mul_blocks)
    at one field width for the whole call (_field_width); the images add
    into one accumulator.
    """
    ctx = a.ctx
    # One field width for the whole call.  A term's image has y-degree at
    # most its fixed exponents plus each mapped factor's top y-degree times
    # its exponent; every partial product stays under that bound, so no
    # field of any key carries.
    x_top = {i: _top_degree(img) for i, img in x_images.items()}
    y_top = [_top_degree(y_images[i]) if i in y_images else 1 for i in range(1, ctx.m + 1)]
    bound = 0
    for xs, ys in a.terms:
        d = sum(map(mul, ys, y_top))
        for i in xs:
            d += x_top.get(i, 0)
        if d > bound:
            bound = d
    width = _field_width(bound)
    x_groups = {i: _mask_groups(img, width) for i, img in x_images.items()}
    p = ctx.p

    @cache
    def y_power(idx: int, e: int) -> Groups:
        if e == 1:
            return _mask_groups(y_images[idx], width)
        return _pow_groups(y_power(idx, 1), e, p)

    # every term's image adds into one unreduced accumulator
    out: Groups = {}
    for (xs, ys), c in a.terms.items():
        # pull each mapped exterior factor to the front, keeping their
        # relative order; each move costs a sign per fixed odd factor it
        # jumps over
        fixed_xs = []
        fixed_mask = 0
        chain = []  # the factors that multiply on the left, in order
        for i in xs:
            if i in x_groups:
                if len(fixed_xs) % 2:
                    c = -c
                chain.append(x_groups[i])
            else:
                fixed_xs.append(i)
                fixed_mask |= 1 << i
        chain.reverse()
        # y-powers are even, so multiplying them on the left costs no sign
        fixed_ys = []
        for i, e in enumerate(ys, 1):
            if e and i in y_images:
                chain.append(y_power(i, e))
                e = 0
            fixed_ys.append(e)
        term = {fixed_mask: (tuple(fixed_xs), {_pack(fixed_ys, width): 1})}
        *inner, last = chain or [_UNIT_GROUPS]
        for g in inner:
            term = _product_groups(g, term, p)
        # the last product adds c times itself into out
        _mul_blocks(out, last, term, c)
    return out, width


# Products of at most this many term pairs go to _mul_pairwise, larger ones
# to _mul_packed, whose grouping, packing and unpacking cost a few
# microseconds per call.  Pairwise time over packed time on random operands
# at p = 5, best of 9 (Python 3.11, 2-core x86-64 host):
#
#   pairs             1     4     9    16    20    24    30    36    48    64
#   m = 2, y only  0.34  0.51  0.64  0.73  0.73  1.02  0.84  0.65  1.01  1.34
#   m = 2, x and y 0.39  0.38  0.47  0.57  0.55  0.62  0.65  0.67  0.74  0.81
#   m = 3, y only  0.36  0.50  0.61  0.76  0.65  0.76  0.75  0.77  0.80  0.84
#   m = 3, x and y 0.34  0.41  0.44  0.41  0.52  0.60  0.52  0.58  0.59  0.63
#   m = 4, y only  0.37  0.45  0.60  0.65  0.68  0.71  0.70  0.84  1.05  0.71
#   m = 4, x and y 0.39  0.40  0.38  0.48  0.48  0.51  0.55  0.54  0.54  0.57
#
# Polynomial operands at m = 2 first reach 1 at 24 pairs (repeats scatter
# between 24 and 48); with exterior parts the pairwise kernel is ahead up
# to 64.  The constant is that lowest crossover.  On the operands that
# `verify --suite all` multiplies, the ratio is 0.43 at 1 pair, 0.73 at
# 10-16 pairs and 0.63 at 21-24 pairs.
PAIRWISE_MAX_PAIRS = 24


def _mul(a: Element, b: Element) -> Element:
    """The graded product a*b: pairwise for few term pairs, packed above."""
    if len(a.terms) * len(b.terms) <= PAIRWISE_MAX_PAIRS:
        return _mul_pairwise(a, b)
    return _mul_packed(a, b)


def _mul_pairwise(a: Element, b: Element) -> Element:
    """The graded product a*b, one pair of Monomials at a time
    (_mul_pairwise_into), reduced once."""
    acc: dict[Monomial, int] = {}
    _mul_pairwise_into(acc, a, b)
    return _reduce_acc(a.ctx, acc)


def _mul_pairwise_into(acc: dict[Monomial, int], a: Element, b: Element, scale: int = 1) -> None:
    """Add scale * (a * b) into acc, unreduced, one pair of Monomials at a
    time.

    No set-up beyond one bitmask per term (bit i for x_i): a shared bit
    kills the pair, and the Koszul sign is the parity of the pairs i in
    the x's of a, j in those of b with i > j, one popcount per j.
    """
    rows_b = []
    for (xs, ys), c in b.terms.items():
        mask = 0
        for i in xs:
            mask |= 1 << i
        rows_b.append((mask, xs, ys, c))
    get = acc.get
    for (xs_a, ys_a), ca in a.terms.items():
        ca *= scale
        xa = 0
        for i in xs_a:
            xa |= 1 << i
        for xb, xs_b, ys_b, cb in rows_b:
            c = ca * cb
            if xa and xb:
                if xa & xb:
                    continue
                inversions = 0
                for j in xs_b:
                    inversions += (xa >> j).bit_count()
                if inversions & 1:
                    c = -c
                xs = tuple(sorted(xs_a + xs_b))
            else:
                xs = xs_a or xs_b
            mono = _new_tuple(Monomial, (xs, tuple(map(add, ys_a, ys_b))))
            acc[mono] = get(mono, 0) + c


def _mul_into(acc: dict[Monomial, int], a: Element, b: Element, scale: int = 1) -> None:
    """Add scale * (a * b) into acc, unreduced: pairwise up to
    PAIRWISE_MAX_PAIRS term pairs, as _mul chooses; above that the packed
    product's terms."""
    if len(a.terms) * len(b.terms) <= PAIRWISE_MAX_PAIRS:
        _mul_pairwise_into(acc, a, b, scale)
    else:
        _add_into(acc, _mul_packed(a, b), scale)


def _add_into(acc: dict[Monomial, int], a: Element, scale: int = 1) -> None:
    """Add scale * a into acc, unreduced."""
    get = acc.get
    for mono, c in a.terms.items():
        acc[mono] = get(mono, 0) + scale * c


def _reduce_acc(ctx: AlgebraContext, acc: Mapping[Monomial, int]) -> Element:
    """The Element of an unreduced {Monomial: int} accumulator over ctx:
    every coefficient reduced mod p once, zeros dropped."""
    p = ctx.p
    return Element._make(ctx, {mono: r for mono, c in acc.items() if (r := c % p)})


def _mul_packed(a: Element, b: Element) -> Element:
    """The graded product a*b over packed exponent keys (_mul_blocks).

    Every field is _field_width(da + db) bits wide, da and db the
    operands' largest y-degree sums, so no field of ka + kb carries into
    its neighbour.  Coefficients accumulate unreduced, with one % p per
    output key.
    """
    width = _field_width(_top_degree(a) + _top_degree(b))
    out: Groups = {}
    _mul_blocks(out, _mask_groups(a, width), _mask_groups(b, width), 1)
    return _unpack_groups(a.ctx, out, width)


def determinant(rows: Sequence[Sequence[Element]]) -> Element:
    """Determinant by cofactor expansion along the first row.

    Entries must be homogeneous and share one context.  Intended for
    matrices with at most one row of odd entries (expansion is then
    order-independent); that covers every matrix built here.
    """
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix has no context; use bracket helpers")
    ctx = rows[0][0].ctx
    for row in rows:
        if len(row) != n:
            raise ValueError("matrix must be square")
        for entry in row:
            if entry.ctx != ctx:
                raise ContextMismatchError("matrix entries in mixed contexts")
            if not entry.is_homogeneous():
                raise ValueError("matrix entries must be homogeneous")
    return _det(rows, ctx)


def _det(rows, ctx) -> Element:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    out = ctx.zero()
    for j in range(n):
        entry = rows[0][j]
        if entry.is_zero():
            continue
        minor = [[row[jj] for jj in range(n) if jj != j] for row in rows[1:]]
        sub = entry * _det(minor, ctx)
        out = out + (sub if j % 2 == 0 else -sub)
    return out


def exact_div(a: Element, b: Element) -> Element:
    """The exact quotient a / b of purely polynomial elements.

    Raises InexactDivisionError when b does not divide a.  Division is by
    leading-term elimination in graded-lex order, heap-driven as in
    Johnson (1974) and Monagan & Pearce (2007), over packed keys until the
    quotient is done.  Every exponent vector is packed into one int with
    fields (sum(ys), ys[0], ..., ys[m-1]), most significant first, so
    integer order is graded-lex order.  Each field has bit_length(D) + 1
    bits, D the largest total degree in a and in b's lead; every remainder
    term stays at or below the current lead, so no field overflows into
    its neighbour and the top (guard) bit of every field is clear.

    Keys are negated, so a min-heap of the remainder's keys yields each
    lead.  The lead is divisible by b's lead exactly when their difference
    q has no guard bit set: the lowest field that is short borrows from
    the one above and wraps to at least 2**(width - 1), and a short degree
    field makes q negative, which in two's complement sets the top guard
    bit.  Otherwise q is the packed quotient monomial.  Each divisor term
    is an offset from the divisor's lead.  The remainder accumulates
    unreduced and is reduced mod p once, when its key is popped; a
    cancelled key stays until then.  The quotient is unpacked once, at the
    end (_unpack_keys).
    """
    if a.ctx != b.ctx:
        raise ContextMismatchError("exact_div across contexts")
    if not (a.is_polynomial() and b.is_polynomial()):
        raise ValueError("exact_div handles purely polynomial elements")
    if b.is_zero():
        raise ZeroDivisionError("division by the zero element")
    ctx = a.ctx
    p, m = ctx.p, ctx.m
    lead_b = max(b.terms, key=_grlex_key)
    top = max((sum(mono.ys) for mono in a.terms), default=0)
    width = max(top, sum(lead_b.ys)).bit_length() + 1
    guard = _pack((1 << width - 1,) * (m + 1), width)

    def pack(ys):
        return _pack(ys, width, sum(ys))

    cb_inv = inv_mod(b.terms[lead_b], p)
    neg_lead_b = -pack(lead_b.ys)
    # the divisor's other terms as (offset, -coefficient); an offset is
    # added to a negated key, so it is b's lead key minus the term's key
    tail = [(-neg_lead_b - pack(mb.ys), p - vb) for mb, vb in b.terms.items() if mb != lead_b]
    scaled: dict[int, list[tuple[int, int]]] = {}  # c -> c * tail, built on first use
    rem = {-pack(mono.ys): c for mono, c in a.terms.items()}
    heap = list(rem)
    heapify(heap)
    get = rem.get
    pop = rem.pop
    quo: dict[int, int] = {}
    while heap:
        key = heappop(heap)
        c = pop(key) * cb_inv % p
        if not c:
            continue  # cancelled
        q = neg_lead_b - key
        if q & guard:
            raise InexactDivisionError("leading term not divisible")
        quo[q] = c
        tail_c = scaled.get(c)
        if tail_c is None:
            tail_c = scaled[c] = [(off, c * nvb % p) for off, nvb in tail]
        for off, v in tail_c:
            k = key + off
            old = get(k)
            if old is None:
                rem[k] = v
                heappush(heap, k)
            else:
                rem[k] = old + v
    monos = [_new_tuple(Monomial, ((), ys)) for ys in _unpack_keys(quo, width, m)]
    return Element._make(ctx, dict(zip(monos, quo.values())))


def relabel(a: Element, new_ctx: AlgebraContext, index_map: Mapping[int, int]) -> Element:
    """Push a through the generator renaming i -> index_map[i].

    Every index of a's context lands on an int in 1..new_ctx.m (unmapped
    ones are kept), injectively on those a uses; exterior parts are
    re-sorted with the sign of the permutation this induces.
    """
    if new_ctx.p != a.ctx.p:
        raise ContextMismatchError("relabel cannot change p")
    m = new_ctx.m
    targets = {i: i for i in range(1, a.ctx.m + 1)} | dict(index_map)
    for i, tgt in targets.items():
        if type(tgt) is not int or not 1 <= tgt <= m:
            raise ValueError("index %r maps to %r, not an int in 1..%d" % (i, tgt, m))
    out: dict[Monomial, int] = {}
    get = out.get
    for mono, c in a.terms.items():
        mapped = [targets[i] for i in mono.xs]
        if len(set(mapped)) != len(mapped):
            raise ValueError("index map is not injective on exterior part")
        inversions = sum(u > v for u, v in combinations(mapped, 2))
        ys = [0] * m
        for i, e in enumerate(mono.ys, 1):
            if e:
                tgt = targets[i]
                if ys[tgt - 1]:
                    raise ValueError("index map is not injective on y part")
                ys[tgt - 1] = e
        mono2 = Monomial(tuple(sorted(mapped)), tuple(ys))
        out[mono2] = get(mono2, 0) + (-c if inversions % 2 else c)
    return _reduce_acc(new_ctx, out)


def embed(a: Element, new_ctx: AlgebraContext) -> Element:
    """Reinterpret a inside a context with at least as many generator pairs.

    Returns a itself when new_ctx is already its context.
    """
    if new_ctx == a.ctx:
        return a
    if new_ctx.p != a.ctx.p:
        raise ContextMismatchError("embed cannot change p")
    new_ctx.check_pairs(a.ctx.m)
    pad = (0,) * (new_ctx.m - a.ctx.m)
    return Element._make(
        new_ctx, {Monomial(m.xs, m.ys + pad): c for m, c in a.terms.items()}
    )


def _render_terms(a: Element, x: str, y: str, ypow: str, sep: str) -> str:
    """The sorted term walk of render_text and grammar.render_latex: each
    term is its coefficient (unless 1) and its factors, formatted by x, y
    and ypow and joined by sep; terms are joined by " + "."""
    if a.is_zero():
        return "0"
    bits = []
    for mono in sorted(a.terms, key=monomial_sort_key, reverse=True):
        c = a.terms[mono]
        factors = [x % i for i in mono.xs]
        for i in range(len(mono.ys), 0, -1):
            e = mono.ys[i - 1]
            if e == 1:
                factors.append(y % i)
            elif e:
                factors.append(ypow % (i, e))
        if c != 1 or not factors:
            factors = [str(c)] + factors
        bits.append(sep.join(factors))
    return " + ".join(bits)


def render_text(a: Element) -> str:
    """Canonical text form, e.g. ``y2^3 + 2*y2*y1^2``; ``0`` when zero.

    Exterior factors lead in orientation order; polynomial factors follow
    highest index first, mirroring the term order.
    """
    return _render_terms(a, "x%d", "y%d", "y%d^%d", "*")
