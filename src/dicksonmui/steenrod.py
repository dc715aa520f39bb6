"""Steenrod operations on E(x) (x) P(y), realized two independent ways.

The oracle realization is generator rules plus the Cartan formula:
``bockstein`` is the derivation with beta x = y, and ``total_power``
builds P^0..P^r from P^0 = id, P^1 y = y^p, P^r x = 0 (r >= 1) by
convolving per-factor power series; ``p_power`` sums the same formula
over the splits of one r only.  Instability (P^r z = 0 for
2r > deg z) falls out of the rules instead of being special-cased.

The structural realization is the power map ``d_star_p``: degree-wise it
substitutes each generator by a determinantal invariant over an enlarged
variable set (x -> (-h!)^n U_{n+1}, y -> V_{n+1}), multiplicative up to
the sign (-1)^{nh qr}.  Decomposing its output over the invariant
monomial basis of the new block (``invariant_decompose``) and rescaling
cofactors yields the Milnor-basis operations ``milnor_st``; the identity
milnor_st(emptyset, (r), a) == p_power(r, a) ties the realizations
together and is checked heavily in the tests.

One rule, ``check_index``, checks every Milnor index (S, R) and basis key
(S, H) that this module, ``duality`` and ``closed_forms`` take.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from collections.abc import Callable, Iterator, Sequence
from functools import cache

from .algebra import (
    _UNIT_GROUPS,
    AlgebraContext,
    Element,
    Groups,
    Monomial,
    _field_width,
    _mask_groups,
    _new_tuple,
    _pack,
    _pow_groups,
    _product_groups,
    _reduce_acc,
    _substitute_groups,
    _top_degree,
    _unpack_groups,
    _unpack_keys,
    relabel,
)
from .arith import (Factors, binom_mod, factor_columns, h_factorial_mod, inv_mod, mu_mod,
                    solve_factored)
from .invariants import U, V, Ltilde, Mtilde, Q, dimension


class NotInSpanError(ValueError):
    """The element does not lie in the span of the invariant basis."""


def bockstein(a: Element) -> Element:
    """The degree-1 derivation with beta x_i = y_i and beta y_i = 0."""
    out: dict[Monomial, int] = {}
    for (xs, ys), c in a.terms.items():
        for pos, i in enumerate(xs):
            beta_ys = list(ys)
            beta_ys[i - 1] += 1
            key = _new_tuple(Monomial, (xs[:pos] + xs[pos + 1 :], tuple(beta_ys)))
            # passing beta over `pos` earlier odd factors costs (-1)^pos
            out[key] = out.get(key, 0) + (-c if pos % 2 else c)
    return _reduce_acc(a.ctx, out)


def _check_r(r: int) -> None:
    # type() rather than isinstance: a bool is an int
    if type(r) is not int or r < 0:
        raise ValueError("r must be an integer >= 0, got %r" % (r,))


def total_power(a: Element, r_max: int) -> list[Element]:
    """The list [P^0 a, P^1 a, ..., P^{r_max} a].

    Each monomial is expanded factor by factor: the series of x_i is just
    [x_i], and the series of y_i^e has j-th entry C(e, j) y_i^{e+(p-1)j}.
    The per-monomial series are convolved, which is the Cartan formula.
    """
    _check_r(r_max)
    ctx = a.ctx
    p = ctx.p
    # exponent e -> the entries (j, C(e, j) mod p, (e + (p-1) j,)) of its
    # series up to r_max with C(e, j) nonzero mod p, built once per call;
    # C(e, j) is taken exactly, C(e, j-1) (e-j+1) / j, then reduced
    rows: dict[int, list[tuple[int, int, tuple[int]]]] = {}
    out: list[dict[Monomial, int]] = [{} for _ in range(r_max + 1)]
    for (xs, ys), coeff in a.terms.items():
        # the convolution so far, flat: (r, exponents so far, coefficient).
        # Distinct j give distinct exponents, so no two entries share a key.
        series = [(0, (), coeff)]
        for e in ys:
            factor = rows.get(e)
            if factor is None:
                factor = rows[e] = [(0, 1, (e,))]
                binom = 1
                for j in range(1, min(e, r_max) + 1):
                    binom = binom * (e - j + 1) // j
                    if cj := binom % p:
                        factor.append((j, cj, (e + (p - 1) * j,)))
            if len(factor) == 1:
                # only j = 0, where C(e, 0) = 1: append e, no convolution
                exp = factor[0][2]
                series = [(r, head + exp, c) for r, head, c in series]
                continue
            nxt = []
            for r, head, c in series:
                for j, cj, exp in factor:
                    if r + j > r_max:
                        break
                    nxt.append((r + j, head + exp, c * cj))
            series = nxt
        for r, ys_r, c in series:
            dest = out[r]
            key = _new_tuple(Monomial, (xs, ys_r))
            v = (dest.get(key, 0) + c) % p
            if v:
                dest[key] = v
            else:
                dest.pop(key, None)
    return [Element._make(ctx, layer) for layer in out]


def p_power(r: int, a: Element) -> Element:
    """P^r(a) through the Cartan formula, one layer only.

    P^r(x_S y^E) = x_S * sum over J with j_1 + .. + j_m = r of
    prod C(e_i, j_i) y_i^{e_i + (p-1) j_i}.  By Lucas's theorem only the
    j_i whose base-p digits lie under those of e_i contribute, and the last
    j is fixed by the others, so the work follows the output, not r:
    P^r kills y^e for r > e, and P^r(a) = 0 once r exceeds every
    monomial's y-exponent sum.
    """
    _check_r(r)
    ctx = a.ctx
    p = ctx.p
    if not ctx.m:  # scalars: only P^0 acts
        return a if r == 0 else ctx.zero()
    out: dict[Monomial, int] = {}
    for (xs, ys), coeff in a.terms.items():
        # (exponents so far, r still to place, coefficient so far)
        splits = [((), r, coeff)]
        rest = sum(ys)
        for e in ys[:-1]:
            rest -= e
            # the later exponents can absorb at most `rest`, so this j lies
            # in [left - rest, left]; one candidate list serves every prefix
            lefts = [left for _, left, _ in splits]
            cands = _lucas_terms(e, p, min(lefts) - rest, max(lefts))
            js = [j for j, _ in cands]
            nxt = []
            for head, left, c in splits:
                for j, cj in cands[bisect_left(js, left - rest):bisect_right(js, left)]:
                    nxt.append((head + (e + (p - 1) * j,), left - j, c * cj % p))
            splits = nxt
            if not splits:
                break
        e = ys[-1]
        for head, left, c in splits:
            c = c * binom_mod(e, left, p) % p
            if c:
                key = Monomial(xs, head + (e + (p - 1) * left,))
                out[key] = out.get(key, 0) + c
    return _reduce_acc(ctx, out)


def _lucas_terms(e: int, p: int, lo: int, hi: int) -> list[tuple[int, int]]:
    """Every (j, C(e, j) mod p) with lo <= j <= hi and C(e, j) nonzero mod p,
    in increasing order of j.

    By Lucas's theorem those j are the ones whose base-p digits each lie
    at or under the digit of e in the same place.  They are built most
    significant digit first; each digit t is tried only where some choice of
    the lower digits, which add between 0 and e mod place, lands in [lo, hi].
    """
    digits = []
    n = e
    while n:
        n, d = divmod(n, p)
        digits.append(d)
    place = p ** len(digits)
    out = [(0, 1)]
    for d in reversed(digits):
        place //= p
        low_max = e % place
        out = [
            (j + t * place, c * math.comb(d, t) % p)
            for j, c in out
            for t in range(max(0, -((j + low_max - lo) // place)),
                           min(d, (hi - j) // place) + 1)
        ]
    return [(j, c) for j, c in out if lo <= j <= hi]


def d_star_p(n: int, a: Element) -> Element:
    """The power map with an n-pair block.

    The result lives over n + m pairs: a fresh block is prepended as
    indices 1..n, the argument's generators shift up by n, and each shifted
    generator is replaced by its invariant image formed over the block plus
    its own pair (x_j -> (-h!)^n U_{n+1}, y_j -> V_{n+1}).  The map is
    multiplicative only up to (-1)^{nh qr}, so each monomial with k
    exterior factors first absorbs the sign (-1)^{nh k(k-1)/2}.  The
    packed image (_power_map) is unpacked once.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return a
    return _unpack_groups(*_power_map(n, a))


def _power_map(n: int, a: Element) -> tuple[AlgebraContext, Groups, int]:
    """The packed core of d_star_p for n >= 1: the image's context, its
    unreduced accumulator (_substitute_groups) and its field width, at
    least algebra._MIN_WIDTH, so that its block keys are basis column keys."""
    ctx = a.ctx
    big = AlgebraContext(ctx.p, ctx.m + n)
    scal = pow(-h_factorial_mod(ctx.p), n, ctx.p)
    mini = AlgebraContext(ctx.p, n + 1)
    u_img = U(mini, n + 1)
    v_img = V(mini, n + 1)
    x_images = {}
    y_images = {}
    for j in range(1, ctx.m + 1):
        imap = {i: i for i in range(1, n + 1)}
        imap[n + 1] = n + j
        x_images[n + j] = relabel(u_img, big, imap).scalar_mul(scal)
        y_images[n + j] = relabel(v_img, big, imap)
    flip = (n * ctx.h) % 2 == 1
    adjusted: dict[Monomial, int] = {}
    for mono, c in a:
        k = len(mono.xs)
        if flip and (k * (k - 1) // 2) % 2:
            c = ctx.p - c
        adjusted[mono] = c
    shift = {i: i + n for i in range(1, ctx.m + 1)}
    moved = relabel(Element._make(ctx, adjusted), big, shift)
    return (big, *_substitute_groups(moved, x_images, y_images))


def compose_check(s: int, n: int, a: Element) -> bool:
    """Whether applying the power map in two stages (s, then n-s) matches
    the single n-block application."""
    if not 0 <= s <= n:
        raise ValueError("need 0 <= s <= n")
    return d_star_p(n, a) == d_star_p(n - s, d_star_p(s, a))


# --- invariant-basis bookkeeping -------------------------------------------

Key = tuple[tuple[int, ...], tuple[int, ...]]


def _basis_weights(p: int, n: int) -> list[int]:
    """The degrees of Ltilde_n, Q_{n,1}, .., Q_{n,n-1}; none over n = 0 pairs."""
    return [dimension("Q", p, n, i) if i else dimension("Ltilde", p, n) for i in range(n)]


def basis_element(p: int, n: int, S: Sequence[int], H: Sequence[int]) -> Element:
    """The invariant monomial Mtilde_{n,s1}..Mtilde_{n,sk} * Ltilde_n^{h0}
    * Q_{n,1}^{h1} .. Q_{n,n-1}^{h_{n-1}} over n pairs; (S, H) must pass
    ``check_index``.  Unpacked from its cached packed form on every call."""
    S, H = check_index(S, H, n)
    d = sum(dimension("Mtilde", p, n, s) for s in S)
    d += sum(h * w for h, w in zip(H, _basis_weights(p, n)))
    width = _field_width(d // 2)
    # a copy of the outer map: unpacking empties it, and the cache holds it
    return _unpack_groups(AlgebraContext(p, n), dict(_basis_element(p, n, S, H, width)), width)


@cache
def _basis_element(p: int, n: int, S: tuple[int, ...], H: tuple[int, ...], width: int) -> Groups:
    """basis_element's product packed at field width ``width`` (wide enough
    for its y-degree; read-only: shared with the cache).  One packed
    product (_product_groups) from a cached smaller basis element: peel the
    last Mtilde factor, else split H = p (H // p) + H % p (the p-th power
    only scales keys), else peel one Ltilde_n or Q_{n,i} factor.  The
    recursion depth is at most |S| + n (p - 1) + log_p(max H) + 1."""
    c = AlgebraContext(p, n)
    if S:
        lower = _basis_element(p, n, S[:-1], H, width)
        return _product_groups(lower, _mask_groups(Mtilde(c, n, S[-1]), width), p)
    if max(H, default=0) >= p:
        el = _pow_groups(_basis_element(p, n, (), tuple(h // p for h in H), width), p, p)
        low = tuple(h % p for h in H)
        return _product_groups(el, _basis_element(p, n, (), low, width), p) if any(low) else el
    i = max((i for i, h in enumerate(H) if h), default=None)
    if i is None:
        return _UNIT_GROUPS
    lower = _basis_element(p, n, (), H[:i] + (H[i] - 1,) + H[i + 1 :], width)
    factor = Ltilde(c, n) if i == 0 else Q(c, n, i)
    return _product_groups(lower, _mask_groups(factor, width), p)


def _basis_keys(p: int, n: int, d: int, xcount: int) -> Iterator[Key]:
    """All basis keys (S, H) of degree d with |S| = xcount over n pairs."""
    weights = _basis_weights(p, n)
    for S in itertools.combinations(range(n), xcount):
        rem = d - sum(dimension("Mtilde", p, n, s) for s in S)
        if rem < 0 or rem % 2:
            continue
        for H in _weighted_sums(weights, rem):
            yield S, H


@cache
def _candidates(p: int, n: int, d: int, xcount: int,
                width: int) -> tuple[tuple[Key, ...], tuple[dict[int, int], ...], Factors]:
    """The basis keys of degree d with |S| = xcount (_basis_keys), their
    basis monomials as solver columns, and the columns' factors
    (factor_columns), so that every target of this shape is solved against
    one factorisation (read-only: shared with the cache).  A column is
    keyed by each term's packed y-key at field width ``width``, shifted
    past its exterior mask (bits 1..n), as _decompose keys a block."""
    keys = tuple(_basis_keys(p, n, d, xcount))
    columns = tuple(_column(_basis_element(p, n, S, H, width), n) for S, H in keys)
    return keys, columns, factor_columns(columns, p)


def _column(groups: Groups, n: int) -> dict[int, int]:
    """A packed basis monomial over n pairs as a solver column: each term's
    packed y-key shifted past its exterior mask (bits 1..n), as _decompose
    keys a block's head."""
    return {k << (n + 1) | mask: c for mask, (_, group) in groups.items() for k, c in group.items()}


def _weighted_sums(weights: list[int], total: int) -> Iterator[tuple[int, ...]]:
    """All exponent tuples e with sum e_i * weights[i] == total, in lex
    order; the last exponent is read off the rest, not searched."""
    if len(weights) < 2:
        if not weights:
            if total == 0:
                yield ()
        elif total >= 0 and total % weights[0] == 0:
            yield (total // weights[0],)
        return
    w = weights[0]
    for e in range(total // w + 1):
        for rest in _weighted_sums(weights[1:], total - e * w):
            yield (e,) + rest


def invariant_decompose(a: Element, n: int) -> dict[Key, Element]:
    """Write ``a`` as a sum of (invariant basis monomial over the leading n
    pairs) * (element over the trailing pairs).

    Returns {(S, H): cofactor over the trailing m - n pairs}, zero cofactors
    omitted; a purely invariant element has constant cofactors.  Works one
    trailing monomial at a time: the leading-block cofactor is solved
    exactly against all basis monomials of matching degree and exterior
    length.  Raises NotInSpanError when a residual remains.
    """
    ctx = a.ctx
    if not 0 <= n <= ctx.m:
        raise ValueError("block size must lie in 0..m")
    if n == 0:
        return {} if a.is_zero() else {((), ()): a}
    width = _field_width(_top_degree(a))
    return _decompose(ctx, _mask_groups(a, width), width, n, _candidates)


def _decompose(ctx: AlgebraContext, groups: Groups, width: int, n: int,
               candidates: Callable[..., tuple]) -> dict[tuple, Element]:
    """The coordinates (n >= 1) of the packed, possibly unreduced
    accumulator ``groups`` over ctx at field width ``width``, which must be
    at least _field_width of its top y-degree, in the basis over the
    leading n pairs that ``candidates`` builds: {basis key: cofactor over
    the trailing pairs}, zero cofactors omitted; groups is only read.
    NotInSpanError when a target is outside the span of its candidates.

    A key's top n fields are the block's exponents (its head) and mask bits
    1..n the block's exterior indices; the rest is the tail.  Terms group
    by tail and by the head's exterior count and y-degree, each group is
    one target, and each head shifted past its mask bits is a column key
    of ``candidates(p, n, degree, exterior count, width)`` as it stands
    (_candidates or duality._mixed_candidates: keys, columns, factors).
    """
    p, m = ctx.p, ctx.m - n
    tail_bits = width * m
    tail_keys = (1 << tail_bits) - 1
    head_bits = (1 << (n + 1)) - 1
    # field n - 1 of head * ones is the sum of head's fields: each partial
    # sum is at most a y-degree, below 2**width, so none carries
    ones = _pack((1,) * n, width)
    sum_shift = width * (n - 1)
    field = (1 << width) - 1
    tail_xs: dict[int, tuple[int, ...]] = {}
    # (tail mask, tail key, head exterior count, head y-degree) -> target
    targets: dict[tuple[int, int, int, int], dict[int, int]] = {}
    for mask, (xs, acc) in groups.items():
        head_mask = mask & head_bits
        k = head_mask.bit_count()
        tail_mask = mask >> (n + 1)
        tail_xs[tail_mask] = xs[k:]
        for key, c in acc.items():
            c %= p
            if c:
                head = key >> tail_bits
                shape = (tail_mask, key & tail_keys, k, head * ones >> sum_shift & field)
                target = targets.get(shape)
                if target is None:
                    target = targets[shape] = {}
                target[head << (n + 1) | head_mask] = c
    entries: dict[tuple, dict[Monomial, int]] = {}
    for (tail_mask, tail_key, k, y_degree), target in targets.items():
        keys, columns, factors = candidates(p, n, k + 2 * y_degree, k, width)
        solution = solve_factored(factors, columns, target, p)
        if solution is None:
            raise NotInSpanError("element is outside the span of the invariant basis")
        tail = _new_tuple(Monomial, (tuple(i - n for i in tail_xs[tail_mask]),
                                     _unpack_keys((tail_key,), width, m)[0]))
        for key, coef in zip(keys, solution):
            if coef:
                entries.setdefault(key, {})[tail] = coef
    tail_ctx = AlgebraContext(ctx.p, m)
    return {key: Element._make(tail_ctx, terms) for key, terms in entries.items()}


def check_index(S: Sequence[int], R: Sequence[int], n: int) -> Key:
    """(S, R) as tuples once they pass the index rule of an n-block, shared
    by every Milnor index St^{S,R} and basis key (S, H): R (or H) has n
    entries >= 0 and S is strictly increasing inside 0..n-1; otherwise a
    ValueError names the broken rule.  Admissibility is ``milnor_key``'s."""
    S, R = tuple(S), tuple(R)
    if len(R) != n:
        raise ValueError("R (or H) must have exactly n = %d entries, got %r" % (n, R))
    if any(r < 0 for r in R):
        raise ValueError("R (or H) entries must be >= 0, got %r" % (R,))
    if any(not 0 <= v < n for v in S) or list(S) != sorted(set(S)):
        if not n:
            raise ValueError("no exterior index exists over 0 pairs")
        raise ValueError("S must be strictly increasing inside 0..n-1 (n = %d), got %r" % (n, S))
    return S, R


def milnor_key(S: tuple[int, ...], R: tuple[int, ...], q: int) -> "Key | None":
    """The invariant-basis key (S, H) whose cofactor in the len(R)-block
    power map of a degree-q class is St^{S,R} of it, up to rescaling:
    H = (r0,) + R[:-1] with r0 = q - len(S) - 2 sum(R), and H = () at rank
    zero.  None when r0 < 0, where the operation is inadmissible."""
    r0 = q - len(S) - 2 * sum(R)
    if r0 < 0:
        return None
    return S, ((r0,) + R[:-1] if R else ())


def milnor_sign(S: Sequence[int], R: Sequence[int]) -> int:
    """Parity (0 or 1) of len(S) + sum(S) + sum_i i r_i, the sign exponent
    of St^{S,R} in the rescaling of its power-map cofactor."""
    return (len(S) + sum(S) + sum(i * r for i, r in enumerate(R, start=1))) % 2


def _rescaling(n: int, a: Element) -> int:
    """mu(q)^-n mod p for homogeneous ``a`` of degree q (ValueError
    otherwise): the rescaling of every Milnor operation on ``a``."""
    return inv_mod(mu_mod(a.degree(), a.ctx.p, n), a.ctx.p)


# Power-map expansions are expensive and endlessly re-read during the
# Milnor sweeps; Elements hash by value, so (n, a) is a sound memo key.
@cache
def power_expansion(n: int, a: Element) -> tuple[int, dict[Key, Element]]:
    """(mu(q)^-n mod p, invariant_decompose(d_star_p(n, a), n)) for
    homogeneous ``a`` of degree q: the rescaling and the coordinates that
    every Milnor operation on ``a`` reads.  The image is decomposed
    packed, as _power_map leaves it."""
    inv_mu = _rescaling(n, a)
    return inv_mu, _decompose(*_power_map(n, a), n, _candidates) if n else invariant_decompose(a, 0)


def milnor_st(S: Sequence[int], R: Sequence[int], a: Element, n: "int | None" = None) -> Element:
    """The Milnor-basis operation St^{S,R} applied to homogeneous ``a``.

    Read off as the ``milnor_key`` cofactor of the n-block power-map
    expansion of ``a``, rescaled by mu(q)^{-n} (-1)^{milnor_sign} where
    q = deg a.  (S, R) must pass ``check_index`` with n = len(R) unless n
    is given.  Requires r0 = q - l(S) - 2 sum(R) >= 0; operations beyond
    that excess bound are not represented in the expansion, and are
    refused before the power map runs.
    """
    n = len(R) if n is None else n
    S, R = check_index(S, R, n)
    if a.is_zero():
        return a
    # one term's degree is q; power_expansion checks that a is homogeneous
    q = next(iter(a.terms)).degree()
    key = milnor_key(S, R, q)
    if key is None:
        raise ValueError("(S=%s, R=%s) is inadmissible in degree %d" % (S, R, q))
    return _read_milnor(S, R, key, power_expansion(n, a), a.ctx)


def _read_milnor(S: tuple[int, ...], R: tuple[int, ...], key: Key,
                 expansion: tuple[int, dict[Key, Element]], ctx: AlgebraContext) -> Element:
    """St^{S,R} read off an expansion, power_expansion's pair, at its
    milnor_key ``key``: the cofactor there, rescaled; zero over ctx when
    the expansion has none."""
    inv_mu, coords = expansion
    tail = coords.get(key)
    if tail is None:
        return ctx.zero()
    return tail.scalar_mul(-inv_mu if milnor_sign(S, R) else inv_mu)


def admissible_indices(q: int, n: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All (S, R) with S inside 0..n-1, len(R) = n, and a ``milnor_key``
    in degree q."""
    for xc in range(n + 1):
        for S in itertools.combinations(range(n), xc):
            budget = (q - xc) // 2
            if budget < 0:
                continue
            # the R with sum R <= budget: n + 1 unit weights, the last the slack
            for R in _weighted_sums([1] * (n + 1), budget):
                yield S, R[:-1]
