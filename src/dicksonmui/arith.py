"""Small exact-arithmetic helpers used throughout the package.

Everything here works with plain Python integers, so no precision is ever
lost.  Each coefficient rule lives here once: binomials and multinomials by
Lucas's theorem, h! by products mod p, exact ratios reduced mod p at the end.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import chain
from math import comb, gcd
from operator import mul


# Miller-Rabin to the 13 prime bases <= 41 is exact below psi_13 (Sorenson
# and Webster, Math. Comp. 86, 2017); no larger p is decided.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3317044064679887385961981


def is_odd_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; ValueError for p >= PRIME_LIMIT."""
    if p < 3 or p % 2 == 0:
        return False
    if p >= PRIME_LIMIT:
        raise ValueError("p = %d is over the primality limit %d" % (p, PRIME_LIMIT))
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    twos = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = 2^twos d, d odd
    for a in _MR_BASES:
        x = pow(a, (p - 1) >> twos, p)
        if x != 1 and all(pow(x, 1 << j, p) != p - 1 for j in range(twos)):
            return False  # a witnesses that p is composite
    return True


def inv_mod(a: int, p: int) -> int:
    a %= p
    if a == 0:
        raise ZeroDivisionError("inverse of 0 mod %d" % p)
    return pow(a, p - 2, p)


def ratio_mod(num: int, den: int, p: int) -> int:
    """num / den mod p, for an exact ratio whose lowest-terms denominator is
    prime to p.  Common factors cancel first, as in Fraction(num, den), so
    a factor p shared by num and den is no error; a zero or non-invertible
    reduced denominator raises ZeroDivisionError."""
    g = gcd(num, den)
    return num // g * inv_mod(den // g, p) % p


def digit(r: int, i: int, p: int) -> int:
    """The i-th base-p digit of r, with digit(r, i) = 0 for all i < 0."""
    if i < 0:
        return 0
    return (r // p**i) % p


def binom_mod(n: int, k: int, p: int) -> int:
    """C(n, k) mod the prime p by Lucas's theorem: the product of
    C(n_i, k_i) over the base-p digits n_i of n and k_i of k."""
    if k < 0 or k > n:
        return 0
    out = 1
    while k and out:
        n, ni = divmod(n, p)
        k, ki = divmod(k, p)
        out = out * comb(ni, ki) % p
    return out


def multinomial_mod(b: int, R: Sequence[int], p: int) -> int:
    """b! / ((b - sum R)! * prod r_i!) mod p, the product of the binomials
    C(b - r_1 - .. - r_{i-1}, r_i).  Total on all integer inputs: 0 whenever
    some r_i < 0 or sum R > b, which also covers b < 0."""
    out = int(b >= 0)
    for r in R:
        out = out * binom_mod(b, r, p) % p
        b -= r
    return out


# h! mod p is h = (p - 1)/2 products mod p: 0.09 s at p = 2000003 and 0.19 s at
# p = 3999971, the largest prime below the limit, on a 2-core x86-64 host.
H_FACTORIAL_LIMIT = 4 * 10**6


def h_factorial_mod(p: int) -> int:
    """h! mod p with h = (p - 1)/2; ValueError for p >= H_FACTORIAL_LIMIT."""
    if p >= H_FACTORIAL_LIMIT:
        raise ValueError("p = %d is over the h! limit %d" % (p, H_FACTORIAL_LIMIT))
    out = 1
    for i in range(2, (p - 1) // 2 + 1):
        out = out * i % p
    return out


def mu_mod(q: int, p: int, reps: int = 1) -> int:
    """((h!)^q * (-1)^(h q (q-1)/2)) ** reps mod p, with h = (p-1)/2."""
    h = (p - 1) // 2
    exp = h * (q * (q - 1) // 2) * reps
    val = pow(h_factorial_mod(p), q * reps, p)
    return -val % p if exp % 2 else val


def st_operation_degree(S: Sequence[int], R: Sequence[int], p: int) -> int:
    """Degree of the Milnor-basis operation indexed by (S, R)."""
    return sum(2 * p**s - 1 for s in S) + sum(
        2 * r * (p**i - 1) for i, r in enumerate(R, start=1)
    )


def solve_exact(
    columns: Sequence[dict], target: dict, p: int
) -> "list[int] | None":
    """Solve sum_j c_j * columns[j] == target over Z/p.

    Each column (and the target) is a sparse {key: residue} map; the keys
    index the equations.  Returns the unique coefficient vector, None when
    the system is inconsistent.  Raises ArithmeticError when the columns
    are linearly dependent (and the target lies in their span), since none
    of our generating sets should be.  The columns are factored
    (factor_columns), then the target is solved against the factors
    (solve_factored); a caller with many targets factors once.
    """
    return solve_factored(factor_columns(columns, p), columns, target, p)


Factors = tuple[list, list[int], list[list[int]], bool]


def factor_columns(columns: Sequence[dict], p: int) -> Factors:
    """The factors of sum_j c_j * columns[j] == target that every target
    shares: (pivot keys, pivot unknowns, inverse, dependent).

    Rows are reduced in key order (each column's keys in turn; a key shared
    by several columns may come twice, and its second row reduces to zero)
    only until every unknown has a pivot.  The inverse is that of the
    columns of the pivot unknowns at the pivot keys; dependent says that
    some unknown has no pivot.  The pivot unknowns' columns span what all
    the columns span.
    """
    ncols = len(columns)
    # Sparse row-reduction: rows indexed by equation keys, entry j is the
    # coefficient of unknown c_j.
    pivots: dict[int, dict[int, int]] = {}
    pivot_keys: dict[int, object] = {}
    for key in chain.from_iterable(columns):
        if len(pivots) == ncols:
            break
        row = {j: col[key] % p for j, col in enumerate(columns) if col.get(key, 0) % p}
        while row:
            lead = min(row)
            if lead not in pivots:
                inv = inv_mod(row[lead], p)
                pivots[lead] = {j: v * inv % p for j, v in row.items()}
                pivot_keys[lead] = key
                break
            factor = row[lead]
            for j, v in pivots[lead].items():
                nv = (row.get(j, 0) - factor * v) % p
                if nv:
                    row[j] = nv
                else:
                    row.pop(j, None)
    leads = sorted(pivots)
    keys = [pivot_keys[j] for j in leads]
    square = [[columns[j].get(key, 0) % p for j in leads] for key in keys]
    return keys, leads, _inverse(square, p), len(leads) < ncols


def _inverse(square: list[list[int]], p: int) -> list[list[int]]:
    """The inverse over Z/p of a square matrix of residues mod p, by Gauss-Jordan
    elimination on [square | identity]; ValueError when it is singular."""
    size = len(square)
    work = [row + [int(i == j) for j in range(size)] for i, row in enumerate(square)]
    for col in range(size):
        piv = next((i for i in range(col, size) if work[i][col]), None)
        if piv is None:
            raise ValueError("matrix is singular mod %d" % p)
        work[col], work[piv] = work[piv], work[col]
        inv = inv_mod(work[col][col], p)
        work[col] = [v * inv % p for v in work[col]]
        for i in range(size):
            f = work[i][col]
            if i != col and f:
                work[i] = [(a - f * b) % p for a, b in zip(work[i], work[col])]
    return [row[size:] for row in work]


def solve_factored(
    factors: Factors, columns: Sequence[dict], target: dict, p: int
) -> "list[int] | None":
    """solve_exact for columns already factored by factor_columns.

    The pivot unknowns are read off the target at the pivot keys through
    the inverse, the others are 0; the solution is then checked against
    every equation it touches (the target's keys and each used column's).
    None when that check fails; ArithmeticError when it holds but the
    columns are dependent.
    """
    keys, leads, inverse, dependent = factors
    rhs = [target.get(key, 0) for key in keys]
    solution = [0] * len(columns)
    for j, row in zip(leads, inverse):
        solution[j] = sum(map(mul, row, rhs)) % p
    # The unread equations: sum_j c_j * columns[j] must equal the target
    # on every key of the target and of each column used.
    residual = {key: -v for key, v in target.items()}
    for c, col in zip(solution, columns):
        if c:
            for key, v in col.items():
                residual[key] = residual.get(key, 0) + c * v
    if any(v % p for v in residual.values()):
        return None
    if dependent:
        raise ArithmeticError("linearly dependent columns in exact solve")
    return solution

