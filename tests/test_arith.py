"""Exact residues of ratios, and the linear solver behind the invariant
decompositions."""

import itertools
import math
import random
import re
from fractions import Fraction

import pytest

from dicksonmui.arith import (
    H_FACTORIAL_LIMIT, PRIME_LIMIT, _inverse, factor_columns, h_factorial_mod, inv_mod,
    is_odd_prime, multinomial_mod, ratio_mod, solve_exact, solve_factored,
)


def test_is_odd_prime_matches_trial_division():
    # an odd sieve of Eratosthenes below 10**5
    top = 10**5
    sieve = bytearray([1]) * top
    sieve[0:2] = b"\0\0"
    for d in range(2, int(top**0.5) + 1):
        if sieve[d]:
            sieve[d * d::d] = bytes(len(range(d * d, top, d)))
    assert [n for n in range(-3, top) if is_odd_prime(n)] == [
        n for n in range(3, top) if sieve[n] and n % 2]


@pytest.mark.parametrize("n", [
    3825123056546413051,  # a strong pseudoprime to every prime base <= 23
    318665857834031151167461,  # and to every prime base <= 37
])
def test_is_odd_prime_rejects_strong_pseudoprimes(n):
    assert not is_odd_prime(n)


def test_is_odd_prime_decides_large_primes_up_to_its_limit():
    assert is_odd_prime(10**18 + 3) and is_odd_prime(2**61 - 1)
    assert not is_odd_prime((2**31 - 1) * (10**9 + 7))
    assert not is_odd_prime(PRIME_LIMIT - 1)  # even
    for p in (PRIME_LIMIT, PRIME_LIMIT + 2, 10**40 + 121):
        with pytest.raises(ValueError, match="over the primality limit %d$" % PRIME_LIMIT):
            is_odd_prime(p)


def test_h_factorial_mod_matches_the_exact_factorial():
    for p in range(3, 10**4, 2):
        if is_odd_prime(p):
            assert h_factorial_mod(p) == math.factorial((p - 1) // 2) % p, p


def test_h_factorial_mod_refuses_a_prime_past_its_limit():
    for p in (4000037, 10**18 + 3):
        msg = "p = %d is over the h! limit %d" % (p, H_FACTORIAL_LIMIT)
        with pytest.raises(ValueError, match="^%s$" % re.escape(msg)):
            h_factorial_mod(p)


def test_multinomial_mod_matches_the_exact_quotient():
    # b! / ((b - sum R)! prod r_i!), and 0 for a negative entry, sum R > b or b < 0
    rng = random.Random(11)
    for _ in range(5000):
        p = rng.choice((3, 5, 7, 11, 13))
        b = rng.randint(-3, 40)
        R = [rng.randint(-2, 15) for _ in range(rng.randint(0, 4))]
        if min(R, default=0) < 0 or sum(R) > b:
            want = 0
        else:
            want = math.factorial(b) // math.factorial(b - sum(R))
            want = want // math.prod(map(math.factorial, R)) % p
        assert multinomial_mod(b, R, p) == want, (b, R, p)


def _det(m):
    # Leibniz's formula, exact
    return sum(
        (-1) ** sum(perm[i] > perm[j] for i in range(len(m)) for j in range(i))
        * math.prod(m[i][perm[i]] for i in range(len(m)))
        for perm in itertools.permutations(range(len(m))))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_inverse_inverts_or_refuses_a_singular_matrix(p):
    rng = random.Random(p)
    for size in range(4):
        for _ in range(60):
            m = [[rng.randrange(p) for _ in range(size)] for _ in range(size)]
            if _det(m) % p:
                inv = _inverse(m, p)
                assert [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*inv)]
                        for row in m] == [[int(i == j) for j in range(size)] for i in range(size)]
            else:
                with pytest.raises(ValueError, match="^matrix is singular mod %d$" % p):
                    _inverse(m, p)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_ratio_mod_matches_fraction(p):
    # the closed forms' reduction: Fraction(num, den) cancels common
    # factors (p among them) before the denominator is inverted mod p
    for num in range(-2 * p * p, 2 * p * p + 1):
        for den in list(range(-3 * p, 0)) + list(range(1, 3 * p + 1)):
            x = Fraction(num, den)
            try:
                want = x.numerator * pow(x.denominator, -1, p) % p
            except ValueError:  # pow: the denominator is not invertible
                with pytest.raises(ZeroDivisionError):
                    ratio_mod(num, den, p)
                continue
            assert ratio_mod(num, den, p) == want
    assert ratio_mod(24 * p, 6 * p, p) == 4 % p
    for num in (0, 1, p):
        with pytest.raises(ZeroDivisionError):
            ratio_mod(num, 0, p)


def _reference_solve(columns, target, p):
    # full elimination over every key of every column: an oracle for the
    # solver that stops at full rank and checks the residual instead
    ncols = len(columns)
    keys = set(target)
    for col in columns:
        keys.update(col)
    pivots = {}
    for key in keys:
        row = {j: col[key] % p for j, col in enumerate(columns) if key in col and col[key] % p}
        t = target.get(key, 0) % p
        if t:
            row[ncols] = t
        while row:
            lead = min(row)
            if lead == ncols:
                return None
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
        raise ArithmeticError("linearly dependent columns")
    solution = [0] * ncols
    for lead in sorted(pivots, reverse=True):
        row = pivots[lead]
        val = row.get(ncols, 0)
        for j, v in row.items():
            if j != lead and j != ncols:
                val = (val - v * solution[j]) % p
        solution[lead] = val
    return solution


def _outcome(columns, target, p, solver):
    try:
        return solver(columns, target, p)
    except ArithmeticError:
        return "dependent"


def _random_system(rng, p, ncols):
    # sparse columns over a few keys (sometimes fewer than the columns),
    # so dependent columns turn up too; some entries are left unreduced
    # (negative or >= p)
    nkeys = rng.randint(max(ncols - 1, 1), ncols + 6)
    columns = []
    for _ in range(ncols):
        col = {}
        for key in rng.sample(range(nkeys), rng.randint(1, nkeys)):
            col[key] = rng.randrange(1, p) + p * rng.randint(-1, 1)
        columns.append(col)
    coefs = [rng.randrange(p) for _ in range(ncols)]
    consistent = {}
    for c, col in zip(coefs, columns):
        for key, v in col.items():
            consistent[key] = (consistent.get(key, 0) + c * v) % p
    consistent = {k: v for k, v in consistent.items() if v}
    noise = {k: rng.randrange(1, p) for k in rng.sample(range(nkeys + 2), rng.randint(1, 3))}
    return columns, coefs, consistent, noise


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("ncols", [0, 1, 2, 3, 4, 5, 6])
def test_solve_matches_full_elimination(p, ncols):
    rng = random.Random(10 * p + ncols)
    seen = set()
    for _ in range(60):
        columns, coefs, consistent, noise = _random_system(rng, p, ncols)
        perturbed = dict(consistent)
        for k, v in noise.items():
            perturbed[k] = (perturbed.get(k, 0) + v) % p
        perturbed = {k: v for k, v in perturbed.items() if v}
        for target in (consistent, perturbed, noise, {}):
            want = _outcome(columns, target, p, _reference_solve)
            assert _outcome(columns, target, p, solve_exact) == want
            seen.add("none" if want is None else "dependent" if want == "dependent"
                     else "solution")
        if _outcome(columns, consistent, p, _reference_solve) != "dependent":
            assert solve_exact(columns, consistent, p) == coefs
    expected = {"solution", "none"} | ({"dependent"} if ncols > 1 else set())
    assert expected <= seen


def test_solve_consistent_targets():
    p = 5
    columns = [{"a": 1, "b": 2}, {"b": 1, "c": 3}, {"d": 4}]
    target = {"a": 2, "b": (4 + 3) % p, "c": 9 % p, "d": 4}
    assert solve_exact(columns, target, p) == [2, 3, 1]


def test_solve_mismatch_outside_target_support():
    # the target's only key pins c = 1, which then leaves b unmatched
    assert solve_exact([{"a": 1, "b": 1}], {"a": 1}, 3) is None
    # the same after several unknowns are pinned by the target's keys
    columns = [{"a": 1, "z": 1}, {"b": 1}, {"c": 2}]
    assert solve_exact(columns, {"a": 1, "b": 2, "c": 1}, 5) is None
    assert solve_exact(columns, {"a": 1, "b": 2, "c": 1, "z": 1}, 5) == [1, 2, 3]


def test_solve_dependent_columns_raise():
    with pytest.raises(ArithmeticError):
        solve_exact([{"a": 1}, {"a": 2}], {"a": 1}, 3)
    with pytest.raises(ArithmeticError):
        solve_exact([{"a": 1, "b": 1}, {"b": 1}, {"a": 1, "b": 2}], {}, 5)


def test_solve_zero_target():
    assert solve_exact([{"a": 1, "b": 2}, {"b": 1}], {}, 7) == [0, 0]
    assert solve_exact([], {}, 3) == []
    assert solve_exact([], {"a": 1}, 3) is None


# One factorisation (factor_columns) serving many targets (solve_factored),
# as each invariant basis shape is factored once and solved for every
# target of that shape.


def _independent_systems(rng, p, count):
    # random systems whose columns the fresh reduction finds independent
    out = []
    while len(out) < count:
        ncols = rng.randint(1, 6)
        columns, _, _, _ = _random_system(rng, p, ncols)
        if _outcome(columns, {}, p, _reference_solve) != "dependent":
            out.append(columns)
    return out


def _combination(columns, coefs, p):
    target = {}
    for c, col in zip(coefs, columns):
        for key, v in col.items():
            target[key] = (target.get(key, 0) + c * v) % p
    return {k: v for k, v in target.items() if v}


@pytest.mark.parametrize("p", [3, 5, 7])
def test_factored_solve_matches_fresh_reduction(p):
    rng = random.Random(300 + p)
    for columns in _independent_systems(rng, p, 40):
        factors = factor_columns(columns, p)
        for _ in range(8):
            coefs = [rng.randrange(p) for _ in columns]
            target = _combination(columns, coefs, p)
            assert solve_factored(factors, columns, target, p) == coefs
            assert _reference_solve(columns, target, p) == coefs


@pytest.mark.parametrize("p", [3, 5, 7])
def test_factored_solve_refuses_inconsistent_targets(p):
    rng = random.Random(400 + p)
    refused = 0
    for columns in _independent_systems(rng, p, 40):
        factors = factor_columns(columns, p)
        for _ in range(8):
            target = _combination(columns, [rng.randrange(p) for _ in columns], p)
            key = rng.randrange(12)
            target[key] = (target.get(key, 0) + rng.randrange(1, p)) % p
            want = _reference_solve(columns, target, p)
            assert solve_factored(factors, columns, target, p) == want
            refused += want is None
        # a key no column has
        assert solve_factored(factors, columns, {"absent": 1}, p) is None
    assert refused
    # the target's keys pin every unknown, and only a key outside its
    # support shows the mismatch
    columns = [{"a": 1, "z": 1}, {"b": 1}, {"c": 2}]
    factors = factor_columns(columns, p)
    half = inv_mod(2, p)
    assert solve_factored(factors, columns, {"a": 1, "b": 2, "c": 1}, p) is None
    assert solve_factored(factors, columns, {"a": 1, "b": 2, "c": 1, "z": 1}, p) == [1, 2, half]
    assert solve_factored(factors, columns, {"a": 1, "b": 2, "c": 1, "z": 2}, p) is None


@pytest.mark.parametrize("p", [3, 5, 7])
def test_factored_solve_dependent_columns_raise(p):
    # the second column is twice the first
    columns = [{"a": 1, "b": 2}, {"a": 2, "b": 4}, {"c": 1}]
    factors = factor_columns(columns, p)
    for target in ({"a": 1, "b": 2}, {"c": 3}, {"a": 2, "b": 4, "c": 1}, {}):
        with pytest.raises(ArithmeticError):
            solve_factored(factors, columns, target, p)
    # a target outside the span is refused as the fresh reduction refuses it
    for target in ({"a": 1}, {"d": 1}, {"a": 1, "b": 1, "c": 1}):
        assert _reference_solve(columns, target, p) is None
        assert solve_factored(factors, columns, target, p) is None


@pytest.mark.parametrize("p", [3, 5, 7])
def test_factored_solve_zero_target(p):
    rng = random.Random(500 + p)
    for columns in _independent_systems(rng, p, 20):
        factors = factor_columns(columns, p)
        zeros = [0] * len(columns)
        assert solve_factored(factors, columns, {}, p) == zeros
        # unreduced zeros, on keys of the columns
        assert solve_factored(factors, columns, {key: p for key in columns[0]}, p) == zeros
    assert solve_factored(factor_columns([], p), [], {}, p) == []
