"""Per-layer spans for the benchmark, installed at run time.

The tracer wraps the public functions of each dicksonmui module from the
outside: no library source changes.  Modules import each other's
functions by name (``from .algebra import exact_div`` in ``invariants``),
so every ``dicksonmui.*`` module attribute that refers to a wrapped
function is rebound to the wrapper.  ``Element`` arithmetic is patched on
the class, which is where ``*`` and ``**`` look it up.

Each wrapped call is a span.  A layer's self time is the total duration
of its spans minus the time their child spans cover.  Spans are kept as
running totals per layer, not as a list, so memory stays flat however
many calls a workload makes.
"""

from __future__ import annotations

import inspect
import sys
import time
from functools import update_wrapper


class Layer:
    """Running totals of one layer: spans opened, self seconds, counters."""

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.counts: dict[str, int] = {}

    def add(self, key: str, value: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + value


class Tracer:
    """A span stack plus per-layer totals.

    ``clock`` is injectable so the self-time arithmetic can be tested on
    a toy span tree with a fake clock.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.enabled = False
        self.layers: dict[str, Layer] = {}
        # one frame per open span: [child seconds, opened real work]
        self._stack: list[list] = []

    def layer(self, name: str) -> Layer:
        if name not in self.layers:
            self.layers[name] = Layer()
        return self.layers[name]

    def wrap(self, name: str, fn, count=None, memo: bool = False):
        """Return ``fn`` wrapped as a span of layer ``name``.

        ``count(layer, args, result, worked)`` updates the layer's
        counters after a successful call; ``worked`` is whether the span
        opened real work beneath it.  With ``memo=True`` the layer is a
        cache front: a call that opened only front calls that were
        themselves hits did no work of its own, so its parent does not
        see work either.
        """
        layer = self.layer(name)
        stack = self._stack
        clock = self.clock

        def span(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            frame = [0.0, False]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                layer.calls += 1
                layer.self_s += dur - frame[0]
                if stack:
                    parent = stack[-1]
                    parent[0] += dur
                    if frame[1] or not memo:
                        parent[1] = True
            if count is not None:
                count(layer, args, result, frame[1])
            return result

        return update_wrapper(span, fn)


# ------------------------------------------------------------ counters


def _count_exact_div(layer, args, result, worked):
    layer.add("dividend_terms", len(args[0]))
    layer.add("quotient_terms", len(result))


def _count_mul(layer, args, result, worked):
    if result is NotImplemented:
        return
    other = args[1]
    layer.add("pairs", len(args[0]) * (len(other) if not isinstance(other, int) else 1))
    layer.add("terms_out", len(result))


def _count_solve(layer, args, result, worked):
    columns, target = args[0], args[1]
    layer.add("unknowns", len(columns))
    layer.add("equations", len(set(target).union(*columns)))


def _count_hit(layer, args, result, worked):
    layer.add("hits", 0 if worked else 1)


def _count_milnor(layer, args, result, worked):
    layer.add("nonzero", 0 if result.is_zero() else 1)
    layer.add("expansion_hits", 0 if worked else 1)


def _count_skip(layer, args, result, worked):
    layer.add("skips", 1 if result["status"] == "SKIP" else 0)


FRONT_NAMES = ("L", "M", "Q", "V", "U", "Mtilde", "Ltilde")

# layer -> (counter, totals reported as they are, {ratio: count over calls})
COUNTERS = {
    "algebra.exact_div": (_count_exact_div, ("dividend_terms", "quotient_terms"), {}),
    "algebra.mul": (_count_mul, ("pairs", "terms_out"), {}),
    "arith.solve_exact": (_count_solve, ("unknowns", "equations"), {}),
    "invariants.front": (_count_hit, (), {"hit_ratio": "hits"}),
    "steenrod.milnor_st": (_count_milnor, (), {"nonzero_ratio": "nonzero",
                                               "expansion_hit_ratio": "expansion_hits"}),
    "duality.duality_case": (_count_skip, (), {"skip_ratio": "skips"}),
    "duality.mixed_decompose": (_count_hit, (), {"hit_ratio": "hits"}),
}


def _targets():
    """(layer, owner, attribute) for every traced callable."""
    from dicksonmui import algebra, arith, closed_forms, duality, grammar
    from dicksonmui import invariants, steenrod, verify

    el = algebra.Element
    out = [
        ("algebra.exact_div", algebra, "exact_div"),
        ("algebra.mul", el, "__mul__"),
        ("algebra.pow", el, "__pow__"),
        ("algebra.substitute", el, "substitute"),
        ("algebra.determinant", algebra, "determinant"),
        ("arith.solve_exact", arith, "solve_exact"),
    ]
    out += [("invariants.front", invariants, nm) for nm in FRONT_NAMES]
    out += [
        ("steenrod.d_star_p", steenrod, "d_star_p"),
        ("steenrod.invariant_decompose", steenrod, "invariant_decompose"),
        ("steenrod.basis_element", steenrod, "basis_element"),
        ("steenrod.total_power", steenrod, "total_power"),
        ("steenrod.milnor_st", steenrod, "milnor_st"),
        ("duality.duality_case", duality, "duality_case"),
        ("duality.mixed_decompose", duality, "mixed_decompose"),
    ]
    out += [
        ("closed_forms", closed_forms, nm)
        for nm, fn in vars(closed_forms).items()
        if inspect.isfunction(fn) and not nm.startswith("_")
        and fn.__module__ == closed_forms.__name__
    ]
    out += [
        ("grammar.parse_text", grammar, "parse_text"),
        ("grammar.render_text", algebra, "render_text"),
        ("verify.run_suite", verify, "run_suite"),
    ]
    return out


def _rebind(orig, new) -> int:
    """Point every dicksonmui.* module attribute that is ``orig`` at ``new``."""
    hits = 0
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "dicksonmui" or name.startswith("dicksonmui.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, new)
                hits += 1
    return hits


def install(tracer: Tracer) -> None:
    """Wrap every traced callable of the imported dicksonmui package."""
    for name, owner, attr in _targets():
        orig = vars(owner)[attr]
        count = COUNTERS.get(name, (None,))[0]
        new = tracer.wrap(name, orig, count, memo=name == "invariants.front")
        if isinstance(owner, type):
            setattr(owner, attr, new)
        elif not _rebind(orig, new):
            raise RuntimeError("nothing refers to %s.%s" % (owner.__name__, attr))


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Flatten the layer totals into ``<layer>.<metric>`` numbers.

    A ratio over zero calls reads 0.
    """
    out: dict[str, float] = {}
    for name, layer in tracer.layers.items():
        out[name + ".calls"] = layer.calls
        out[name + ".self_s"] = layer.self_s
        _, totals, ratios = COUNTERS.get(name, (None, (), {}))
        for key in totals:
            out["%s.%s" % (name, key)] = layer.counts.get(key, 0)
        for ratio, key in ratios.items():
            hits = layer.counts.get(key, 0)
            out["%s.%s" % (name, ratio)] = hits / layer.calls if layer.calls else 0.0
    return out
