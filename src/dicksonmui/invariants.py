"""Determinantal invariants of the general and special linear groups.

The building blocks are the two bracket determinants in E(x) (x) P(y):

    [e_1, ..., e_k]    = det( y_i^(p^e_j) )                 (k x k)
    [1; e_2, ..., e_k] = det( x-row on top, y_i^(p^e_j) )   (k x k)

from which everything else is assembled:

    L_k      = [0, ..., k-1]              L_{k,s} = [0, ..., s-hat, ..., k]
    M_{k,s}  = [1; 0, ..., s-hat, ..., k-1]
    Ltilde_n = L_n^h                      (h = (p-1)/2)
    Q_{n,s}  = L_{n,s} / L_n              Mtilde_{n,s} = M_{n,s} L_n^(h-1)
    U_k      = M_{k,k-1} L_{k-1}^(h-1)    V_k = L_k / L_{k-1}

No invariant is built by polynomial division.  L_{n,s} and L_n are
alternants and Q_{n,s} is symmetric, so Q is solved over monomial
symmetric functions, partition by partition (_alternant_quotient).  V_k is
assembled from the rank-(k-1) Dickson invariants,

    V_k = sum_{s<k} (-1)^(k-1-s) Q_{k-1,s} y_k^(p^s),

the expansion of L_k along its last row, over L_{k-1}.  The divisions
L_{n,s} / L_n and L_k / L_{k-1} and the product and recursion forms of V
and Q are kept as independent cross-checks.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from functools import cache, partial, reduce
from heapq import heappop, heappush
from math import factorial, prod
from operator import add, mul, sub

from .algebra import (
    AlgebraContext,
    Element,
    InexactDivisionError,
    Monomial,
    _new_tuple,
    _pack,
    determinant,
    embed,
)
from .arith import matrix_rank_mod

# Each invariant is built once per (p, params) in its minimal context by
# a cached builder; the public fronts validate, then embed the result in
# the caller's context.  Elements are immutable, so sharing them is safe.

# Each family's index rule: its rank's name and least value, and the range
# of its s (None: it has none) as the least s and the most less the rank.
_RULES = {"L": ("k", 0, (0, 0)), "M": ("k", 0, (0, -1)), "Ltilde": ("n", 0, None),
          "Q": ("n", 0, (0, 0)), "Mtilde": ("n", 0, (-1, -1)),
          "U": ("k", 1, None), "V": ("k", 1, None)}


def check_family(family: str, k: int, s: "int | None" = None,
                 ctx: "AlgebraContext | None" = None, shift: int = 0) -> None:
    """Check an index of `family` by its rule: the rank k + shift, then s
    (unless None or the family has none), then that ctx has k pairs.  A
    caller whose k names the rank k + shift (U_{k+1}) reads the rule in
    its own terms."""
    name, least, srange = _RULES[family]
    if k + shift < least:
        raise ValueError("%s must be >= %d" % (name, least - shift))
    if srange and s is not None and not srange[0] <= s <= k + srange[1]:
        raise ValueError("s must lie in %d..%s%s" % (srange[0], name, "-1" if srange[1] else ""))
    if ctx is not None:
        ctx.check_pairs(k)


def s_range(family: str, k: int) -> "range | None":
    """The s that `family` takes at rank k, by its rule; None when it takes
    no s."""
    srange = _RULES[family][2]
    return None if srange is None else range(srange[0], k + srange[1] + 1)


def bracket_e(ctx: AlgebraContext, es: Sequence[int]) -> Element:
    """[e_1, ..., e_k]: determinant of the k x k matrix (y_i^(p^e_j))."""
    es = tuple(es)
    k = len(es)
    if k == 0:
        return ctx.one()
    if any(e < 0 for e in es):
        raise ValueError("bracket exponents must be >= 0")
    ctx.check_pairs(k)
    return embed(_bracket_e(ctx.p, es), ctx)


@cache
def _bracket_e(p: int, es: tuple[int, ...]) -> Element:
    k = len(es)
    ctx = AlgebraContext(p, k)
    rows = [[ctx.y(i, p**e) for e in es] for i in range(1, k + 1)]
    return determinant(rows)


def bracket_x(ctx: AlgebraContext, es: Sequence[int]) -> Element:
    """[1; e_2, ..., e_k]: like bracket_e but with (x_1, ..., x_k) on top."""
    es = tuple(es)
    k = len(es) + 1
    if any(e < 0 for e in es):
        raise ValueError("bracket exponents must be >= 0")
    ctx.check_pairs(k)
    return embed(_bracket_x(ctx.p, es), ctx)


@cache
def _bracket_x(p: int, es: tuple[int, ...]) -> Element:
    k = len(es) + 1
    ctx = AlgebraContext(p, k)
    rows = [[ctx.x(i) for i in range(1, k + 1)]]
    rows += [[ctx.y(i, p**e) for i in range(1, k + 1)] for e in es]
    # transpose: columns are indexed by the generator pair, rows by exponent
    rows = [list(col) for col in zip(*rows)]
    return determinant(rows)


def L(ctx: AlgebraContext, k: int, s: "int | None" = None) -> Element:
    """L_k = [0..k-1] when s is None, else L_{k,s} = [0,..,s-hat,..,k]."""
    check_family("L", k, s, ctx)
    if s is None:
        return bracket_e(ctx, tuple(range(k)))
    return bracket_e(ctx, tuple(e for e in range(k + 1) if e != s))


def M(ctx: AlgebraContext, k: int, s: int) -> Element:
    """M_{k,s} = [1; 0, ..., s-hat, ..., k-1] for 0 <= s < k."""
    check_family("M", k, s, ctx)
    return bracket_x(ctx, tuple(e for e in range(k) if e != s))


def Ltilde(ctx: AlgebraContext, n: int) -> Element:
    """Ltilde_n = L_n^h, of degree p^n - 1."""
    check_family("Ltilde", n, ctx=ctx)
    return embed(_ltilde(ctx.p, n), ctx)


@cache
def _ltilde(p: int, n: int) -> Element:
    c = AlgebraContext(p, n)
    return L(c, n) ** c.h


def Q(ctx: AlgebraContext, n: int, s: int) -> Element:
    """The Dickson invariant Q_{n,s} = L_{n,s} / L_n, 0 <= s <= n."""
    check_family("Q", n, s, ctx)
    return embed(_q(ctx.p, n, s), ctx)


@cache
def _q(p: int, n: int, s: int) -> Element:
    """Q_{n,s} = a_mu / a_beta, with beta = (p^(n-1), ..., p, 1) and mu =
    (p^n, ..., p, 1) without p^s.  L_n and L_{n,s} are these alternants
    with their n columns reversed alike, so the signs cancel."""
    c = AlgebraContext(p, n)
    if s == n:
        return c.one()  # L_{n,n} = L_n
    beta = tuple(p**e for e in reversed(range(n)))
    mu = tuple(p**e for e in reversed(range(n + 1)) if e != s)
    return _alternant_quotient(c, beta, mu)


def _alternant_quotient(ctx: AlgebraContext, beta: tuple[int, ...], mu: tuple[int, ...]) -> Element:
    """The symmetric quotient a_mu / a_beta of the alternants
    a_g = det(y_i^(g_j)), for strictly decreasing beta and mu.

    The quotient is sum_nu c_nu m_nu over partitions nu, m_nu the monomial
    symmetric function, and m_nu a_beta = sum a_(beta + nu') over the
    distinct rearrangements nu' of nu (Macdonald, Symmetric Functions and
    Hall Polynomials, ch. I 3).  Here a_g is +-a_(sort g), the sign of the
    sorting permutation, or 0 when g repeats an entry.  The alternants of
    strictly decreasing vectors are a basis, and the lex-largest of the
    a_(beta + nu') is a_(beta + nu), with coefficient 1.  So the division
    runs from the top, in alternant coordinates: pop the lex-largest
    lambda left in the remainder, record c_nu at nu = lambda - beta, and
    subtract c_nu m_nu a_beta.  Vectors are packed into ints as in
    algebra, first entry most significant, so int order is lex order; no
    entry exceeds mu_1.

    Each rearrangement is written nu o sigma^-1 for a permutation sigma.
    Permuting the entries of beta + nu o sigma^-1 by sigma gives
    w = nu + beta o sigma, at the sign of sigma.  While w is strictly
    decreasing (for every sigma once every gap of nu exceeds
    beta_1 - beta_n), w is the sorted vector, and its key is the key of
    nu plus a fixed offset per sigma; only the other w are sorted.  Each
    nu's orbit becomes its monomials once, at the end.
    """
    p, n = ctx.p, len(beta)
    width = mu[0].bit_length()
    mask = (1 << width) - 1
    shifts = range(width * (n - 1), -1, -width)
    pairs = list(itertools.combinations(range(n), 2))
    span = beta[0] - beta[-1]
    base_key = _pack(beta, width)
    # every sigma but the identity (which gives lambda itself) as beta o sigma,
    # its key, whether sigma is odd, and its steps beta_sigma(j+1) - beta_sigma(j)
    perms = [
        (g, _pack(g, width), prod([g[i] - g[j] for i, j in pairs]) < 0,
         tuple(map(sub, g[1:], g)))
        for g in itertools.permutations(beta)
    ][1:]
    rem = {_pack(mu, width): 1}
    heap = [-k for k in rem]
    get = rem.get
    distinct: dict[tuple[int, ...], int] = {}  # c_nu by nu, nu with distinct parts
    repeated: dict[tuple[int, ...], int] = {}  # and nu with a repeated part
    while heap:
        key = -heappop(heap)
        c = rem.pop(key) % p
        if not c:
            continue  # cancelled
        nu = tuple([(key >> sh & mask) - b for sh, b in zip(shifts, beta)])
        gaps = list(map(sub, nu, nu[1:]))
        low = min(gaps, default=span + 1)
        if nu[-1] < 0 or low < 0:
            raise InexactDivisionError("a_beta does not divide a_mu")
        (distinct if low else repeated)[nu] = c
        base = key - base_key
        minus = (p - c, c)  # -c_nu times the sign, indexed by its oddness
        if low > span:  # every w is strictly decreasing
            updates = [(base + off, minus[odd]) for _, off, odd, _ in perms]
        else:
            updates = []
            for g, off, odd, steps in perms:
                # w is strictly decreasing when every gap of nu exceeds its
                # step.  A zero gap under a rising step means nu o sigma^-1
                # is also the rearrangement of another sigma: skip it
                fits = True
                for gap, step in zip(gaps, steps):
                    if gap <= step:
                        if not gap:
                            break
                        fits = False
                else:
                    if fits:
                        updates.append((base + off, minus[odd]))
                        continue
                    w = list(map(add, nu, g))
                    # the sign of sorting w, or 0 when w repeats an entry
                    vdm = prod([w[i] - w[j] for i, j in pairs])
                    if vdm:
                        w.sort(reverse=True)
                        updates.append((_pack(w, width), minus[odd ^ (vdm < 0)]))
        for k, v in updates:
            old = get(k)
            if old is None:
                rem[k] = v
                heappush(heap, -k)
            else:
                rem[k] = old + v
    orbit_size = factorial(n)
    ys = itertools.chain.from_iterable(map(itertools.permutations, distinct))
    coeffs = [c for c in distinct.values() for _ in range(orbit_size)]
    terms = dict(zip(map(partial(_new_tuple, Monomial), zip(itertools.repeat(()), ys)), coeffs))
    for nu, c in repeated.items():
        orbit = set(itertools.permutations(nu))
        terms.update(dict.fromkeys([_new_tuple(Monomial, ((), ys)) for ys in orbit], c))
    return Element._make(ctx, terms)


def Mtilde(ctx: AlgebraContext, n: int, s: int) -> Element:
    """Mtilde_{n,s} = M_{n,s} L_n^(h-1); s = -1 is read as Ltilde_n."""
    check_family("Mtilde", n, s, ctx)
    if s == -1:
        return Ltilde(ctx, n)
    return embed(_mtilde(ctx.p, n, s), ctx)


@cache
def _mtilde(p: int, n: int, s: int) -> Element:
    c = AlgebraContext(p, n)
    return M(c, n, s) * L(c, n) ** (c.h - 1)


def U(ctx: AlgebraContext, k: int) -> Element:
    """U_k = M_{k,k-1} L_{k-1}^(h-1), of degree p^(k-1)."""
    check_family("U", k, ctx=ctx)
    return embed(_u(ctx.p, k), ctx)


@cache
def _u(p: int, k: int) -> Element:
    c = AlgebraContext(p, k)
    return M(c, k, k - 1) * L(c, k - 1) ** (c.h - 1)


def V(ctx: AlgebraContext, k: int) -> Element:
    """V_k = L_k / L_{k-1}, of degree 2 p^(k-1)."""
    check_family("V", k, ctx=ctx)
    return embed(_v(ctx.p, k), ctx)


@cache
def _v(p: int, k: int) -> Element:
    """V_k = sum_{s<k} (-1)^(k-1-s) Q_{k-1,s} y_k^(p^s): expanding L_k
    along its last row.  Each s gives its own power of y_k, so the terms
    never meet; no product and no division."""
    terms = {}
    for s in range(k):
        e, neg = (p**s,), (k - 1 - s) % 2
        for mono, c in _q(p, k - 1, s).terms.items():
            terms[Monomial((), mono.ys + e)] = p - c if neg else c
    return Element._make(AlgebraContext(p, k), terms)


def V_product(ctx: AlgebraContext, k: int) -> Element:
    """Independent oracle: V_k = prod over (c_1..c_{k-1}) in (Z/p)^{k-1}
    of (c_1 y_1 + ... + c_{k-1} y_{k-1} + y_k).

    The forms are multiplied in coset order: each run of p consecutive
    forms (in itertools.product order, so c_{k-1} runs over Z/p) first,
    then those products in runs of p, up the levels.  Each run product is
    a full coset of the last free coordinate, so partial products stay
    small.  It is the same product, only reassociated; it never uses
    prod_c (X + cY) = X^p - X Y^(p-1), which would turn it into the
    recursion that Q_recursion checks."""
    check_family("V", k, ctx=ctx)
    p = ctx.p
    level = []
    for coeffs in itertools.product(range(p), repeat=k - 1):
        form = ctx.y(k)
        for i, c in enumerate(coeffs, start=1):
            if c:
                form = form + ctx.y(i).scalar_mul(c)
        level.append(form)
    while len(level) > 1:
        level = [reduce(mul, level[i:i + p]) for i in range(0, len(level), p)]
    return level[0]


def Q_recursion(ctx: AlgebraContext, n: int, s: int) -> Element:
    """Independent oracle: Q_{n,s} = Q_{n-1,s-1}^p + Q_{n-1,s} V_n^(p-1),
    with Q_{k,k} = 1 and Q_{k,-1} = 0, which extends Q's rule by s = -1.
    Reads row n, which is built once per (p, n)."""
    check_family("Q", n, None if s == -1 else s, ctx)
    if s == -1:
        return ctx.zero()
    if s == n:
        return ctx.one()
    return embed(_q_recursion_row(ctx.p, n)[s], ctx)


@cache
def _q_recursion_row(p: int, n: int) -> tuple[Element, ...]:
    """(Q_{n,0}, ..., Q_{n,n}) by the recursion, built from row n - 1 once."""
    c = AlgebraContext(p, n)
    if n == 0:
        return (c.one(),)
    prev = [embed(q, c) for q in _q_recursion_row(p, n - 1)]
    v_pow = V(c, n) ** (p - 1)
    row = [prev[0] * v_pow]  # Q_{n-1,-1} = 0
    for s in range(1, n):
        row.append(prev[s - 1] ** p + prev[s] * v_pow)
    row.append(c.one())
    return tuple(row)


# The degree of each family's invariant at its indices; Ls is L_{k,s}.
_DEGREES = {
    "L": lambda p, k: 2 * (p**k - 1) // (p - 1),
    "Ls": lambda p, k, s: 2 * ((p ** (k + 1) - 1) // (p - 1) - p**s),
    "M": lambda p, k, s: 1 + 2 * ((p**k - 1) // (p - 1) - p**s),
    "Ltilde": lambda p, n: p**n - 1,
    "Q": lambda p, n, s: 2 * (p**n - p**s),
    "Mtilde": lambda p, n, s: p**n - (1 if s == -1 else 2 * p**s),
    "U": lambda p, k: p ** (k - 1),
    "V": lambda p, k: 2 * p ** (k - 1),
}


def dimension(name: str, p: int, *args: int) -> int:
    """The degree of the invariant `name` at the indices args, which must
    meet its family's rule."""
    if name not in _DEGREES:
        raise ValueError("unknown invariant family %r" % name)
    check_family("L" if name == "Ls" else name, *args)
    return _DEGREES[name](p, *args)


def apply_matrix(a: Element, matrix: Sequence[Sequence[int]]) -> Element:
    """Apply the linear substitution x_i -> sum_j A[i][j] x_j (same for y)
    on the first k = len(A) generator pairs."""
    ctx = a.ctx
    k = len(matrix)
    ctx.check_pairs(k)
    for row in matrix:
        if len(row) != k:
            raise ValueError("matrix must be square")
    if matrix_rank_mod(matrix, ctx.p) < k:
        raise ValueError("matrix is singular mod %d" % ctx.p)
    zero = (0,) * ctx.m
    x_images = {}
    y_images = {}
    for i, row in enumerate(matrix, 1):
        x_images[i] = Element(ctx, {Monomial((j,), zero): c for j, c in enumerate(row, 1)})
        y_images[i] = Element(ctx, {Monomial((), zero[:j - 1] + (1,) + zero[j:]): c
                                    for j, c in enumerate(row, 1)})
    return a.substitute(x_images, y_images)


def gl_generators(n: int, p: int) -> list[tuple[tuple[int, ...], ...]]:
    """Standard generating set of GL_n(Z/p): all transvections plus one
    diagonal matrix diag(g, 1, .., 1) with g a primitive root mod p."""
    gens = list(sl_generators(n, p))
    g = _primitive_root(p)
    diag = tuple(
        tuple(g if i == j == 0 else int(i == j) for j in range(n)) for i in range(n)
    )
    gens.append(diag)
    return gens


def sl_generators(n: int, p: int) -> list[tuple[tuple[int, ...], ...]]:
    """Elementary transvections I + E_ij, which generate SL_n(Z/p)."""
    gens = []
    for i in range(n):
        for j in range(n):
            if i != j:
                gens.append(
                    tuple(
                        tuple(
                            1 if r == c else (1 if (r, c) == (i, j) else 0)
                            for c in range(n)
                        )
                        for r in range(n)
                    )
                )
    return gens


def _primitive_root(p: int) -> int:
    order = p - 1
    factors = set()
    d, rem = 2, order
    while d * d <= rem:
        while rem % d == 0:
            factors.add(d)
            rem //= d
        d += 1
    if rem > 1:
        factors.add(rem)
    for g in range(2, p):
        if all(pow(g, order // q, p) != 1 for q in factors):
            return g
    raise ValueError("no primitive root found for %d" % p)

