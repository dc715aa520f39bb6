"""Pairing adjointness between the operations on the U/V family and the
operations on the Mtilde/Q family, with both re-expansion directions."""

import itertools
import random
import re

import pytest

from dicksonmui import clear_caches, duality
from dicksonmui.algebra import AlgebraContext, Element, _pack, embed
from dicksonmui.arith import st_operation_degree
from dicksonmui.duality import (
    _block_results,
    _check_delta,
    _matched_s,
    expand_mq,
    expand_uv,
    dim_bracket,
    invariant_coordinates,
    mixed_decompose,
    pairing_sign_exp,
    duality_case,
)
from dicksonmui.invariants import Ltilde, Mtilde, Q, U, V, dimension
from dicksonmui.steenrod import (
    NotInSpanError,
    _basis_keys,
    admissible_indices,
    basis_element,
    check_index,
    milnor_st,
)
from dicksonmui.verify import _subsets, run_suite


def test_dim_bracket():
    assert dim_bracket(3, -1) == -1
    assert dim_bracket(3, 0) == -2
    assert dim_bracket(3, 2) == -18
    with pytest.raises(ValueError):
        dim_bracket(3, -2)


def test_mixed_decompose_named_elements():
    ctx = AlgebraContext(3, 2)
    assert mixed_decompose(U(ctx, 2), 1) == {((), (0,), 1, 0): 1}
    assert mixed_decompose(V(ctx, 2), 1) == {((), (0,), 0, 1): 1}
    assert mixed_decompose(ctx.y(1), 1) == {((), (1,), 0, 0): 1}  # Ltilde_1
    two = V(ctx, 2) * ctx.y(1, 2).scalar_mul(2)
    assert mixed_decompose(two, 1) == {((), (2,), 0, 1): 2}


@pytest.mark.parametrize("p", [3, 5, 7])
def test_mixed_decompose_at_rank_one(p):
    # k = 0: the block has no pairs, and U_1 = x1, V_1 = y1 are basis elements
    ctx = AlgebraContext(p, 1)
    assert mixed_decompose(U(ctx, 1), 0) == {((), (), 1, 0): 1}
    assert mixed_decompose(V(ctx, 1), 0) == {((), (), 0, 1): 1}


def test_mixed_decompose_rejects_outside_span():
    ctx = AlgebraContext(3, 2)
    with pytest.raises(NotInSpanError):
        mixed_decompose(ctx.y(2), 1)
    with pytest.raises(ValueError):
        mixed_decompose(AlgebraContext(3, 3).y(1), 1)  # wrong pair count
    with pytest.raises(ValueError, match="k\\+1 generator pairs"):
        mixed_decompose(AlgebraContext(3, 5).zero(), 1)  # zero, wrong pair count
    with pytest.raises(ValueError, match="k must be >= 0"):
        mixed_decompose(AlgebraContext(3, 0).one(), -1)


def test_mixed_decompose_rejects_empty_basis():
    # at p = 5 the x-free mixed basis starts with Ltilde_1 (degree 4) and
    # V_2 (degree 10), so y1 has no candidate to be solved against
    with pytest.raises(NotInSpanError):
        mixed_decompose(AlgebraContext(5, 2).y(1), 1)


def _reference_mixed_candidates(p, k, d, xcount):
    # the mixed basis as Element products: the degree-d keys (S, H, eps, m)
    # with len(S) + eps = xcount, and the terms of their Mtilde_S Qtilde^H
    # U_{k+1}^eps V_{k+1}^m; a reference for the packed columns
    big = AlgebraContext(p, k + 1)
    keys, columns = [], []
    for eps in (0, 1):
        if eps > xcount:
            continue
        m = 0
        while True:
            rem = d - eps * dimension("U", p, k + 1) - m * dimension("V", p, k + 1)
            if rem < 0:
                break
            for S, H in _basis_keys(p, k, rem, xcount - eps):
                elt = embed(basis_element(p, k, S, H), big) * U(big, k + 1) ** eps
                keys.append((S, H, eps, m))
                columns.append((elt * V(big, k + 1) ** m).terms)
            m += 1
    return keys, columns


# the largest degree that run_suite("duality") decomposes in the mixed
# basis at each p (test_the_duality_grid_reads_the_reference_range)
_GRID_TOP_DEGREE = {3: 54, 5: 50, 7: 98}


def test_the_duality_grid_reads_the_reference_range(monkeypatch):
    # every mixed basis shape the default duality grid reads lies inside
    # the range that the packed columns are checked over, below
    shapes = set()
    real = duality._mixed_candidates

    def recorded(p, n, d, xcount, width):
        shapes.add((p, n - 1, d, xcount))
        return real(p, n, d, xcount, width)

    clear_caches()
    monkeypatch.setattr(duality, "_mixed_candidates", recorded)
    assert run_suite("duality")["counts"]["fail"] == 0
    assert {p for p, *_ in shapes} == {3, 5, 7}
    for p, k, d, xcount in shapes:
        assert k <= 2 and d <= _GRID_TOP_DEGREE[p] and xcount <= k + 1
    assert {p: max(d for q, _, d, _ in shapes if q == p) for p in (3, 5, 7)} == _GRID_TOP_DEGREE


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_packed_mixed_columns_match_products(p, k):
    # term for term: each packed column is its Element product, keyed as
    # _decompose keys a block of k + 1 pairs
    n = k + 1
    for d in range(_GRID_TOP_DEGREE[p] + 1):
        for xcount in range(n + 1):
            keys, columns, _ = duality._mixed_candidates(p, n, d, xcount, 10)
            want_keys, want_columns = _reference_mixed_candidates(p, k, d, xcount)
            assert list(keys) == want_keys, (d, xcount)
            for got, terms in zip(columns, want_columns):
                assert got == {_pack(ys, 10) << (n + 1) | sum(1 << i for i in xs): c
                               for (xs, ys), c in terms.items()}


@pytest.mark.parametrize("p, k, d", [(3, 1, 54), (3, 2, 51), (5, 1, 48), (7, 1, 96)])
def test_mixed_decompose_round_trip(p, k, d):
    # a random combination of every mixed column of degree d, over all
    # exterior counts at once, decomposes back to its coefficients
    rng = random.Random(100 * p + 10 * k + d)
    big = AlgebraContext(p, k + 1)
    terms, want = [], {}
    for xcount in range(k + 2):
        keys, columns = _reference_mixed_candidates(p, k, d, xcount)
        for key, column in zip(keys, columns):
            c = rng.randrange(p)
            if c:
                want[key] = c
                terms += [(mono, c * v) for mono, v in column.items()]
    assert len(want) > 1
    assert mixed_decompose(Element(big, terms), k) == want


def test_invariant_pairing_reads_embedded_invariants():
    # Q_{2,1} embedded over three pairs has the constant cofactor 1
    big = AlgebraContext(3, 3)
    q21 = embed(Q(AlgebraContext(3, 2), 2, 1), big)
    assert invariant_coordinates(q21, 2) == {((), (0, 1)): 1}


def test_invariant_pairing_rejects_non_scalar_cofactor():
    # Ltilde_2 * y3 has the cofactor y1 over the trailing pair
    ctx = AlgebraContext(3, 3)
    with pytest.raises(ValueError, match="not a scalar"):
        invariant_coordinates(Ltilde(ctx, 2) * ctx.y(3), 2)


def test_matched_cell_passes_with_nonzero_pairing():
    rep = duality_case(3, 1, 1, 0, (), (2,), (), (0,), 0, 1)
    assert rep["status"] == "PASS" and rep["s"] == 0
    assert rep["lhs"] == rep["rhs"] == 1
    rep = duality_case(3, 1, 1, 0, (), (1,), (), (1,), 0, 1)
    assert rep["status"] == "PASS" and rep["lhs"] == 2


def test_unmatched_cell_vanishes():
    rep = duality_case(3, 1, 1, 0, (), (0,), (), (0,), 0, 0)
    assert rep["status"] == "PASS" and rep["s"] is None
    assert rep["lhs"] == 0
    assert "vanish" in rep["reason"]


def test_skip_when_right_dual_index_missing():
    rep = duality_case(3, 1, 1, 1, (), (0,), (), (2,), 0, 0)
    assert rep["status"] == "SKIP"
    assert "U/V" in rep["reason"]


def test_skip_when_left_dual_index_missing(monkeypatch):
    # a SKIP cell reads no U/V-side coordinates, so none are computed
    monkeypatch.setattr(duality, "mixed_decompose", lambda *args: pytest.fail("decomposed"))
    rep = duality_case(3, 1, 1, 0, (0,), (2,), (), (0,), 0, 1)
    assert rep["status"] == "SKIP"
    assert "M/Q" in rep["reason"]


def test_case_validates_exterior_indices():
    with pytest.raises(ValueError):
        duality_case(3, 1, 1, 0, (1,), (0,), (), (0,), 0, 0)
    with pytest.raises(ValueError):
        duality_case(3, 1, 2, 0, (), (0, 0), (1, 0), (0, 0), 0, 0)


def test_small_grid_has_no_failures():
    # a dense slab of (1,1) cells in both delta branches
    for delta in (0, 1):
        for Rp in ((0,), (1,), (2,)):
            for R in ((0,), (1,), (2,), (3,)):
                for S in ((), (0,)):
                    for e in (0, 1):
                        for j in range(4):
                            rep = duality_case(3, 1, 1, delta, S, R, (), Rp, e, j)
                            assert rep["status"] != "FAIL", rep


@pytest.mark.parametrize("delta,s", [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1)])
def test_mq_expansion_matches_extraction(delta, s):
    # expand the k-block pairing coefficients back into an n-pair element
    p, n, k = 3, 2, 1
    ctxn = AlgebraContext(p, n)
    target = Mtilde(ctxn, n, s) if delta else Q(ctxn, n, s)
    q_op = (2 - delta) * p**n
    for S, R in admissible_indices(q_op, k):
        try:
            got = expand_mq(p, n, k, delta, s, S, R)
        except ValueError:
            continue  # left dual index nonexistent for this (S, R)
        assert got == milnor_st(S, R, target, k), (S, R)


@pytest.mark.parametrize("delta", [0, 1])
def test_uv_expansion_matches_extraction(delta):
    p, n, k = 3, 1, 2
    big = AlgebraContext(p, k + 1)
    target = U(big, k + 1) if delta else V(big, k + 1)
    q_op = (2 - delta) * p**k
    for Sp, Rp in admissible_indices(q_op, n):
        try:
            got = expand_uv(p, n, k, delta, Sp, Rp)
        except ValueError:
            continue
        assert got == milnor_st(Sp, Rp, target, n), (Sp, Rp)


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("n", [1, 2])
def test_rank_zero_mq_expansion_is_the_target(p, n):
    # St^{(),()} is the identity, so the rank-0 re-expansion rebuilds the
    # M/Q-side target itself
    ctxn = AlgebraContext(p, n)
    for delta in (0, 1):
        for s in range(-delta, n - delta + 1):
            want = (Mtilde if delta else Q)(ctxn, n, s)
            assert expand_mq(p, n, 0, delta, s, (), ()) == want, (delta, s)


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_rank_zero_uv_expansion_is_the_target(p, k):
    big = AlgebraContext(p, k + 1)
    for delta in (0, 1):
        want = (U if delta else V)(big, k + 1)
        assert expand_uv(p, 0, k, delta, (), ()) == want, delta


@pytest.mark.parametrize("p", [3, 5])
def test_rank_zero_duality_cells_agree(p):
    # k = 0: the M/Q-side operation is the identity, read at the rank-0 key
    for n in (1, 2):
        for delta in (0, 1):
            for Sp, Rp in admissible_indices((2 - delta) * p**0, n):
                ejs = [(e, j) for e in (0, 1) for j in range(p**n + 2)]
                [row] = _block_results(p, n, 0, delta, Sp, Rp, [((), ())], ejs)
                for s, status, reason, lhs, rhs in row:
                    assert status == "PASS", (n, delta, Sp, Rp, s, lhs, rhs)


def test_expansion_input_validation():
    # s meets the M/Q family's rule: 0 <= s <= n for Q, -1 <= s <= n-1 for Mtilde
    for delta, s, rule in [(0, -1, "0..n"), (0, 2, "0..n"), (1, -2, "-1..n-1"), (1, 1, "-1..n-1")]:
        with pytest.raises(ValueError, match=r"^s must lie in %s$" % re.escape(rule)):
            expand_mq(3, 1, 1, delta, s, (), (0,))
    with pytest.raises(ValueError):
        expand_uv(3, 1, 1, 0, (), (9,))  # negative dual entry


def test_pairing_sign_even_where_pairings_are_nonzero():
    # the relating sign is implemented verbatim; odd values do occur, but on
    # the verification grids only at cells where both pairings vanish
    assert pairing_sign_exp(3, 1, 1, 0, 0, (), (2,), (), (0,)) == 0
    assert pairing_sign_exp(3, 1, 1, 1, -1, (), (0,), (), (0,)) == 1
    rep = duality_case(3, 1, 1, 1, (), (0,), (), (0,), 1, 0)
    assert rep["status"] == "PASS" and rep["lhs"] == 0


# every shape on which expand_mq and expand_uv were checked against milnor_st
SIGN_SHAPES = [(3, 1, 1), (3, 2, 1), (3, 1, 2), (3, 2, 2), (3, 3, 1),
               (5, 1, 1), (5, 2, 1), (5, 1, 2)]


@pytest.mark.parametrize("p,n,k", SIGN_SHAPES)
@pytest.mark.parametrize("delta", [0, 1])
def test_sign_term_even_where_pairings_are_nonzero(p, n, k, delta):
    # pairing_sign_exp's term (len(S) + [-2p^s]) * len(Sp) is odd for odd
    # len(Sp) with odd len(S) at s >= 0, or even len(S) at s = -1.  On every
    # admissible index of these shapes such a pairing vanishes on both
    # sides, so the term never flips a nonzero coefficient.  It stays, as
    # part of the sign formula; an odd case here would be a regression cell.
    q_uv = (2 - delta) * p**k
    big, ctxn = AlgebraContext(p, k + 1), AlgebraContext(p, n)
    uv = U(big, k + 1) if delta else V(big, k + 1)
    uv_side = []  # (Sp, Hp, St^{Sp,Rp}(U/V_{k+1})), nonzero images only
    for Sp, Rp in admissible_indices(q_uv, n):
        img = milnor_st(Sp, Rp, uv, n)
        if not img.is_zero():
            uv_side.append((Sp, (q_uv - len(Sp) - 2 * sum(Rp),) + tuple(Rp[: n - 1]), img))
    nonzero = odd_sp = 0
    for s in range(-delta, n - delta + 1):
        target = Mtilde(ctxn, n, s) if delta else Q(ctxn, n, s)
        e, j = (1, 0) if s == -1 else (0, p**s)
        for S, R in admissible_indices(target.degree(), k):
            H = (target.degree() - len(S) - 2 * sum(R),) + tuple(R[: k - 1])
            rimg = milnor_st(S, R, target, k)
            for Sp, Hp, img in uv_side:
                rhs = invariant_coordinates(rimg, n).get((Sp, Hp), 0)
                lhs = mixed_decompose(img, k).get((S, H, e, j), 0)
                assert bool(lhs) == bool(rhs), (s, S, R, Sp, Hp)
                if rhs:
                    nonzero += 1
                    odd_sp += len(Sp) % 2
                    assert (len(S) + dim_bracket(p, s)) * len(Sp) % 2 == 0, (s, S, R, Sp, Hp)
    assert nonzero
    # with U_{k+1}, odd len(Sp) pairs nonzero, so the parity of
    # len(S) + [-2p^s] is what the assertion constrains
    assert odd_sp if delta else not odd_sp


def _reference_duality_case(p, n, k, delta, S, R, Sp, Rp, e, j):
    # one cell on its own, every value recomputed: an oracle for
    # _block_results, which shares the block's work across its cases
    _check_delta(delta)
    Sp, Rp = check_index(Sp, Rp, n)
    S, R = check_index(S, R, k)
    if e not in (0, 1) or j < 0:
        raise ValueError("e must be 0 or 1 and j >= 0, got e = %r, j = %r" % (e, j))
    rep = {
        "p": p, "n": n, "k": k, "delta": delta,
        "S": S, "R": R, "Sp": Sp, "Rp": Rp, "e": e, "j": j,
        "s": None, "status": "SKIP", "reason": "", "lhs": None, "rhs": None,
    }
    t, tp = len(S), len(Sp)
    r0p = (2 - delta) * p**k - tp - 2 * sum(Rp)
    if r0p < 0:
        rep["reason"] = "operation inadmissible on U/V; right dual index nonexistent"
        return rep
    big = AlgebraContext(p, k + 1)
    uv = U(big, k + 1) if delta else V(big, k + 1)
    img = milnor_st(Sp, Rp, uv, n)
    H = ((2 - delta) * p**n - e - 2 * j - t - 2 * sum(R),) + R[: k - 1]
    s = _matched_s(p, n, delta, e, j)
    rep["s"] = s
    # an index with H[0] < 0 names no basis monomial: its pairing is 0
    lhs = 0 if H[0] < 0 else mixed_decompose(img, k).get((S, H, e, j), 0)
    if s is None:
        rep["lhs"], rep["rhs"] = lhs, 0
        rep["status"] = "PASS" if lhs == 0 else "FAIL"
        rep["reason"] = "no matching s; left pairing must vanish"
        return rep
    if H[0] < 0:
        rep["reason"] = "operation inadmissible on M/Q; left dual index nonexistent"
        return rep
    ctxn = AlgebraContext(p, n)
    target = Mtilde(ctxn, n, s) if delta else Q(ctxn, n, s)
    rimg = milnor_st(S, R, target, k)
    rhs = invariant_coordinates(rimg, n).get((Sp, (r0p,) + Rp[: n - 1]), 0)
    if duality.pairing_sign_exp(p, n, k, delta, s, S, R, Sp, Rp):
        rhs = (p - rhs) % p
    rep["lhs"], rep["rhs"] = lhs, rhs
    rep["status"] = "PASS" if lhs == rhs else "FAIL"
    return rep


def _values(rep):
    # the part of a report dict that _block_results returns for its case
    return tuple(rep[key] for key in ("s", "status", "reason", "lhs", "rhs"))


@pytest.mark.parametrize("n,k", [(1, 1), (1, 2)])
@pytest.mark.parametrize("delta", [0, 1])
def test_block_matches_reference_on_every_case(n, k, delta):
    # every (S, R, e, j) case that the full p = 3 duality grid runs for this
    # shape, on every (Sp, Rp) of its blocks and on those its degree cap
    # leaves out, where the U/V side turns inadmissible
    p, degmax = 3, 40
    q_mq = (2 - delta) * p**n
    heads = [(S, R) for S in _subsets(k) for R in itertools.product(range(p**n + 2), repeat=k)
             if 2 * sum(R) + len(S) <= q_mq + 4 and st_operation_degree(S, R, p) <= degmax]
    ejs = [(e, j) for e in (0, 1) for j in range(p**n + 2) if e + 2 * j <= q_mq + 2]
    statuses = set()
    for Sp in _subsets(n):
        for Rp in itertools.product(range(p**k + 2), repeat=n):
            got = _block_results(p, n, k, delta, Sp, Rp, heads, ejs)
            assert [len(row) for row in got] == [len(ejs)] * len(heads)
            for (S, R), row in zip(heads, got):
                for (e, j), res in zip(ejs, row):
                    want = _reference_duality_case(p, n, k, delta, S, R, Sp, Rp, e, j)
                    assert res == _values(want), (Sp, Rp, S, R, e, j)
                    statuses.add(res[1:3])
            # the one-cell call reports the block's values as a dict
            assert duality_case(p, n, k, delta, S, R, Sp, Rp, e, j) == want
    # matched and unmatched PASS, and both SKIPs
    assert len(statuses) == 4, statuses


def test_block_applies_the_relating_sign(monkeypatch):
    # on the grids the relating sign is odd only where both pairings vanish
    # (test_pairing_sign_even_where_pairings_are_nonzero), so a dropped sign
    # would not show; forced odd, every nonzero right pairing must flip
    monkeypatch.setattr(duality, "pairing_sign_exp", lambda *args: 1)
    p, n, k, delta, Sp, Rp = 3, 1, 1, 0, (), (0,)
    heads = [(S, (r,)) for S in ((), (0,)) for r in range(4)]
    ejs = [(e, j) for e in (0, 1) for j in range(4)]
    flipped = 0
    for (S, R), row in zip(heads, _block_results(p, n, k, delta, Sp, Rp, heads, ejs)):
        for (e, j), res in zip(ejs, row):
            want = _reference_duality_case(p, n, k, delta, S, R, Sp, Rp, e, j)
            assert res == _values(want), (S, R, e, j)
            assert duality_case(p, n, k, delta, S, R, Sp, Rp, e, j) == want
            s, status, reason, lhs, rhs = res
            if status == "FAIL":
                assert rhs == p - lhs
                flipped += 1
    assert flipped


@pytest.mark.parametrize("args", [
    (3, 1, 1, 0, (), (0, 0), (), (0,), 0, 0),       # len(R) != k
    (3, 1, 1, 0, (), (0,), (), (0, 0), 0, 0),       # len(Rp) != n
    (3, 1, 1, 2, (), (0,), (), (0,), 0, 0),         # delta
    (3, 1, 1, 0, (), (0,), (), (0,), 2, 0),         # e
    (3, 1, 1, 0, (), (0,), (), (0,), 0, -1),        # j
    (3, 1, 1, 0, (1,), (0,), (), (0,), 0, 0),       # S out of range
    (3, 1, 2, 0, (1, 0), (0, 0), (), (0,), 0, 0),   # S not increasing
    (3, 1, 2, 0, (0, 0), (0, 0), (), (0,), 0, 0),   # S repeated
    (3, 2, 1, 0, (), (0,), (1, 0), (0, 0), 0, 0),   # Sp not increasing
    (3, 1, 1, 1, (), (0,), (1,), (9,), 0, 0),       # Sp out of range, r0p < 0
])
def test_case_errors_match_reference(args):
    with pytest.raises(ValueError) as want:
        _reference_duality_case(*args)
    with pytest.raises(ValueError) as got:
        duality_case(*args)
    assert str(got.value) == str(want.value)


def test_block_checks_every_case(monkeypatch):
    # a bad head or (e, j) after good ones raises before any algebra runs,
    # on an admissible block and on a U/V-inadmissible one (r0' = 3 - 18);
    # an empty grid gives empty rows
    ran = []
    monkeypatch.setattr(duality, "milnor_st", lambda *args: ran.append(args))
    good = ((), (0,))
    with pytest.raises(ValueError, match="strictly increasing"):
        _block_results(3, 1, 1, 0, (), (0,), [good, ((1,), (0,))], [(0, 0)])
    with pytest.raises(ValueError, match="j >= 0"):
        _block_results(3, 1, 1, 0, (), (0,), [good], [(0, 0), (0, -1)])
    with pytest.raises(ValueError, match="j >= 0"):
        _block_results(3, 1, 1, 1, (), (9,), [good], [(0, 0), (0, -1)])
    with pytest.raises(ValueError, match="e must be 0 or 1"):
        _block_results(3, 1, 1, 1, (), (0,), [good], [(0, 0), (2, 0)])
    assert ran == []
    monkeypatch.undo()
    assert _block_results(3, 1, 1, 0, (), (0,), [], [(0, 0)]) == []
    assert _block_results(3, 1, 1, 0, (), (0,), [good, good], []) == [[], []]
    # every head gets its own row, on the U/V-inadmissible block too
    rows = _block_results(3, 1, 1, 1, (), (9,), [good, good], [(0, 0)])
    assert rows[0] == rows[1] and rows[0] is not rows[1]
