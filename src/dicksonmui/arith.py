"""Small exact-arithmetic helpers used throughout the package.

Everything here works with plain Python integers (an exact ratio is a
numerator and a denominator) and reduces mod p only at the end, so no
precision is ever lost.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import chain
from math import comb, factorial, gcd


def is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
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
    """b! / ((b - sum R)! * prod r_i!) mod p.

    Total on all integer inputs: 0 whenever some r_i < 0 or sum R > b,
    which also covers b < 0.
    """
    R = tuple(R)
    if any(r < 0 for r in R):
        return 0
    s = sum(R)
    if s > b:
        return 0
    val = factorial(b)
    for r in R:
        val //= factorial(r)
    return val // factorial(b - s) % p


def mu_mod(q: int, p: int, reps: int = 1) -> int:
    """((h!)^q * (-1)^(h q (q-1)/2)) ** reps mod p, with h = (p-1)/2."""
    h = (p - 1) // 2
    exp = h * (q * (q - 1) // 2) * reps
    val = pow(factorial(h) % p, q * reps, p)
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
    are linearly dependent, since none of our generating sets should be.

    Rows are reduced in key order (the target's keys, then the columns'
    other keys) only until every unknown has a pivot; the solution read
    off that square part is then checked against every equation it touches.
    """
    ncols = len(columns)
    # a key shared by several columns may come twice; its second row
    # reduces to zero
    keys = chain(target, (key for col in columns for key in col if key not in target))
    # Sparse row-reduction: rows indexed by equation keys, entry j is the
    # coefficient of unknown c_j; slot ncols holds the right-hand side.
    pivots: dict[int, dict[int, int]] = {}
    for key in keys:
        if len(pivots) == ncols:
            break
        row = {j: col[key] % p for j, col in enumerate(columns) if col.get(key, 0) % p}
        t = target.get(key, 0) % p
        if t:
            row[ncols] = t
        while row:
            lead = min(row)
            if lead == ncols:
                return None  # 0 == nonzero
            if lead in pivots:
                factor = row[lead]
                for j, v in pivots[lead].items():
                    nv = (row.get(j, 0) - factor * v) % p
                    if nv:
                        row[j] = nv
                    else:
                        row.pop(j, None)
            else:
                inv = inv_mod(row[lead], p)
                pivots[lead] = {j: v * inv % p for j, v in row.items()}
                break
    if len(pivots) < ncols:
        raise ArithmeticError("linearly dependent columns in exact solve")
    # Back-substitute to a fully reduced system, then read coefficients.
    solution = [0] * ncols
    for lead in range(ncols - 1, -1, -1):
        row = pivots[lead]
        val = row.get(ncols, 0)
        for j, v in row.items():
            if j != lead and j != ncols:
                val = (val - v * solution[j]) % p
        solution[lead] = val
    # The unread equations: sum_j c_j * columns[j] must equal the target
    # on every key of the target and of each column used.
    residual = {key: -v for key, v in target.items()}
    for c, col in zip(solution, columns):
        if c:
            for key, v in col.items():
                residual[key] = residual.get(key, 0) + c * v
    if any(v % p for v in residual.values()):
        return None
    return solution


def matrix_rank_mod(rows: Sequence[Sequence[int]], p: int) -> int:
    work = [list(r) for r in rows]
    rank = 0
    ncols = len(work[0]) if work else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(work)) if work[i][col] % p), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = inv_mod(work[rank][col], p)
        work[rank] = [v * inv % p for v in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][col] % p:
                f = work[i][col]
                work[i] = [(a - f * b) % p for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank
