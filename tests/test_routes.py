"""Route independence: each oracle reaches none of the primaries it checks.

An oracle that calls the builder it is compared with checks nothing.  Each
row runs one oracle from cold caches, with its inputs built beforehand,
under sys.setprofile, and lists every Python function it entered; none of
the row's primaries may be among them.  A cached builder is entered on a
miss only, so the caches are cleared first.
"""

import sys

import pytest

from dicksonmui import clear_caches, closed_forms, invariants, steenrod
from dicksonmui.algebra import AlgebraContext
from dicksonmui.closed_forms import (
    power_on_mtilde, power_on_q, power_on_u, power_on_v, st_on_rank1, st_on_u2, st_on_v2,
)
from dicksonmui.invariants import Q_recursion, U, V, V_product
from dicksonmui.steenrod import milnor_st, p_power, total_power


def _code(fn):
    # a cached builder's own code runs under its cache wrapper
    return getattr(fn, "__wrapped__", fn).__code__


def _entered(call):
    """The code of every Python function that call() enters."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    clear_caches()
    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return seen


PRIMARY_Q = [invariants._q, invariants._alternant_quotient, invariants._v]
PRIMARY_V = [invariants._v, invariants._q]
CARTAN = [steenrod.p_power, steenrod.total_power]
POWER_MAP = [steenrod.milnor_st, steenrod._power_map]


def _cases():
    """(id, inputs -> oracle call, primaries it must not reach, and whether
    it must not enter closed_forms at all), the inputs built beforehand."""
    for p in (3, 5):
        c3 = AlgebraContext(p, 3)
        yield "Q_recursion/p%d" % p, lambda c=c3: Q_recursion(c, 3, 1), PRIMARY_Q, False
        yield "V_product/p%d" % p, lambda c=c3: V_product(c, 3), PRIMARY_V, False
    c1, c2, c3 = (AlgebraContext(3, m) for m in (1, 2, 3))
    v2, u2 = V(c2, 2), U(c2, 2)
    a = v2 * u2 + c2.y(1, 4)
    yield "p_power", lambda: p_power(3, a), POWER_MAP, True
    yield "total_power", lambda: total_power(a, 4), POWER_MAP, True
    closed = [
        ("power_on_u", lambda: power_on_u(2, 2, c3)),
        ("power_on_mtilde", lambda: power_on_mtilde(2, 2, 0, c3)),
        ("power_on_v", lambda: power_on_v(2, 2, c3)),
        ("power_on_q", lambda: power_on_q(2, 2, 1, c3)),
        ("st_on_rank1", lambda: st_on_rank1((0,), (1,), 1, 2, c1)),
        ("st_on_u2", lambda: st_on_u2((0,), (1,), c2)),
        ("st_on_v2", lambda: st_on_v2((1, 0), c2)),
    ]
    for name, call in closed:
        yield name, call, CARTAN + [steenrod.milnor_st], False
    yield "milnor_st/U2", lambda: milnor_st((1,), (0, 0), u2, 2), CARTAN, False
    yield "milnor_st/V2", lambda: milnor_st((), (1, 0), v2, 2), CARTAN, False


CASES = list(_cases())


@pytest.mark.parametrize("name, call, primaries, no_closed_forms", CASES,
                         ids=[case[0] for case in CASES])
def test_oracle_reaches_none_of_its_primaries(name, call, primaries, no_closed_forms):
    entered = _entered(call)
    assert entered  # the profile saw the call
    reached = [fn.__name__ for fn in primaries if _code(fn) in entered]
    if no_closed_forms:
        reached += sorted({code.co_name for code in entered
                           if code.co_filename == closed_forms.__file__})
    assert reached == [], "%s reaches %s" % (name, reached)


def test_the_profile_sees_cached_primaries():
    # a primary behind a cache wrapper is seen on a miss, so an empty
    # `reached` above means the oracle did not build it
    ctx = AlgebraContext(3, 3)
    entered = _entered(lambda: invariants.V(ctx, 3))
    assert {_code(fn) for fn in PRIMARY_Q} <= entered
    entered = _entered(lambda: milnor_st((), (1, 0), V(AlgebraContext(3, 2), 2), 2))
    assert _code(steenrod._power_map) in entered
