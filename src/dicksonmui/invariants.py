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

Q is built by exact division of polynomials.  V_k is not divided: it is
assembled from the rank-(k-1) Dickson invariants,

    V_k = sum_{s<k} (-1)^(k-1-s) Q_{k-1,s} y_k^(p^s),

the expansion of L_k along its last row, over L_{k-1}.  The division
L_k / L_{k-1} and the product and recursion forms of V and Q are kept
as independent cross-checks.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from functools import cache, reduce
from operator import mul

from .algebra import (
    AlgebraContext,
    Element,
    Monomial,
    determinant,
    embed,
    exact_div,
)
from .arith import matrix_rank_mod

# Each invariant is built once per (p, params) in its minimal context by
# a cached builder; the public fronts validate, then embed the result in
# the caller's context.  Elements are immutable, so sharing them is safe.


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
    if k < 0:
        raise ValueError("k must be >= 0")
    if s is None:
        return bracket_e(ctx, tuple(range(k)))
    if not 0 <= s <= k:
        raise ValueError("s must lie in 0..k")
    return bracket_e(ctx, tuple(e for e in range(k + 1) if e != s))


def M(ctx: AlgebraContext, k: int, s: int) -> Element:
    """M_{k,s} = [1; 0, ..., s-hat, ..., k-1] for 0 <= s < k."""
    if not 0 <= s < k:
        raise ValueError("s must lie in 0..k-1")
    return bracket_x(ctx, tuple(e for e in range(k) if e != s))


def Ltilde(ctx: AlgebraContext, n: int) -> Element:
    """Ltilde_n = L_n^h, of degree p^n - 1."""
    if n < 0:
        raise ValueError("n must be >= 0")
    ctx.check_pairs(n)
    return embed(_ltilde(ctx.p, n), ctx)


@cache
def _ltilde(p: int, n: int) -> Element:
    c = AlgebraContext(p, n)
    return L(c, n) ** c.h


def Q(ctx: AlgebraContext, n: int, s: int) -> Element:
    """The Dickson invariant Q_{n,s} = L_{n,s} / L_n, 0 <= s <= n."""
    if not 0 <= s <= n:
        raise ValueError("s must lie in 0..n")
    ctx.check_pairs(n)
    return embed(_q(ctx.p, n, s), ctx)


@cache
def _q(p: int, n: int, s: int) -> Element:
    c = AlgebraContext(p, n)
    if s == n:
        return c.one()  # L_{n,n} = L_n
    return exact_div(L(c, n, s), L(c, n))


def Mtilde(ctx: AlgebraContext, n: int, s: int) -> Element:
    """Mtilde_{n,s} = M_{n,s} L_n^(h-1); s = -1 is read as Ltilde_n."""
    if s == -1:
        return Ltilde(ctx, n)
    if not 0 <= s < n:
        raise ValueError("s must lie in -1..n-1")
    ctx.check_pairs(n)
    return embed(_mtilde(ctx.p, n, s), ctx)


@cache
def _mtilde(p: int, n: int, s: int) -> Element:
    c = AlgebraContext(p, n)
    return M(c, n, s) * L(c, n) ** (c.h - 1)


def U(ctx: AlgebraContext, k: int) -> Element:
    """U_k = M_{k,k-1} L_{k-1}^(h-1), of degree p^(k-1)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    ctx.check_pairs(k)
    return embed(_u(ctx.p, k), ctx)


@cache
def _u(p: int, k: int) -> Element:
    c = AlgebraContext(p, k)
    return M(c, k, k - 1) * L(c, k - 1) ** (c.h - 1)


def V(ctx: AlgebraContext, k: int) -> Element:
    """V_k = L_k / L_{k-1}, of degree 2 p^(k-1)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    ctx.check_pairs(k)
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
    if k < 1:
        raise ValueError("k must be >= 1")
    ctx.check_pairs(k)
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
    with Q_{k,k} = 1 and Q_{k,-1} = 0.  Reads row n, which is built once
    per (p, n)."""
    if n < 0 or not -1 <= s <= n:
        raise ValueError("s must lie in 0..n")
    ctx.check_pairs(n)
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


def dimension(name: str, p: int, *args: int) -> int:
    """Degree bookkeeping for the invariant families."""
    h = (p - 1) // 2
    if name == "L":
        (k,) = args
        return 2 * (p**k - 1) // (p - 1)
    if name == "Ls":
        k, s = args
        return 2 * ((p ** (k + 1) - 1) // (p - 1) - p**s)
    if name == "M":
        k, s = args
        return 1 + 2 * ((p**k - 1) // (p - 1) - p**s)
    if name == "Ltilde":
        (n,) = args
        return p**n - 1
    if name == "Q":
        n, s = args
        return 2 * (p**n - p**s)
    if name == "Mtilde":
        n, s = args
        if s == -1:
            return p**n - 1
        return p**n - 2 * p**s
    if name == "U":
        (k,) = args
        return p ** (k - 1)
    if name == "V":
        (k,) = args
        return 2 * p ** (k - 1)
    raise ValueError("unknown invariant family %r" % name)


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
    x_images = {}
    y_images = {}
    for i in range(1, k + 1):
        xi = ctx.zero()
        yi = ctx.zero()
        for j in range(1, k + 1):
            c = matrix[i - 1][j - 1] % ctx.p
            if c:
                xi = xi + ctx.x(j).scalar_mul(c)
                yi = yi + ctx.y(j).scalar_mul(c)
        x_images[i] = xi
        y_images[i] = yi
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

