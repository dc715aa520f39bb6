"""Exact Dickson–Mùi invariant constructions and Steenrod operations on
E(x_1..x_m) (x) P(y_1..y_m) over Z/p for odd primes p.

Everything is computed over exact modular arithmetic; the closed-form
action formulas and the pairing-duality checks are verified against an
independent Cartan-formula oracle (see ``verify.run_suite``).
"""

import sys as _sys

from .algebra import (
    MAX_PAIRS,
    AlgebraContext,
    ContextMismatchError,
    Element,
    InexactDivisionError,
    Monomial,
    embed,
    exact_div,
    relabel,
    render_text,
)
from .closed_forms import (
    ClosedFormResult,
    bracket_identities,
    power_on_mtilde,
    power_on_q,
    power_on_u,
    power_on_v,
    st_on_rank1,
    st_on_u2,
    st_on_v2,
)
from .duality import (
    expand_mq,
    expand_uv,
    mixed_decompose,
    duality_case,
)
from .grammar import ParseError, from_json, parse_text, render_latex, to_json
from .invariants import L, Ltilde, M, Mtilde, Q, U, V, dimension
from .steenrod import (
    NotInSpanError,
    admissible_indices,
    basis_element,
    bockstein,
    d_star_p,
    invariant_decompose,
    milnor_st,
    p_power,
    total_power,
)
from .verify import run_suite

__version__ = "0.1.0"

# every memoised builder: each functools.cache function defined at module
# level in the package, collected once the modules above are loaded (and
# before anything could wrap them)
_CACHED_BUILDERS = tuple(
    fn
    for name, module in list(_sys.modules.items())
    if name.startswith(__name__ + ".")
    for fn in vars(module).values()
    if hasattr(fn, "cache_clear") and fn.__module__ == name
)


def clear_caches() -> None:
    """Empty every memoised builder, so the next call computes cold."""
    for builder in _CACHED_BUILDERS:
        builder.cache_clear()


__all__ = [
    "MAX_PAIRS",
    "AlgebraContext",
    "ClosedFormResult",
    "ContextMismatchError",
    "Element",
    "InexactDivisionError",
    "L",
    "Ltilde",
    "M",
    "Monomial",
    "Mtilde",
    "NotInSpanError",
    "ParseError",
    "Q",
    "U",
    "V",
    "admissible_indices",
    "basis_element",
    "bockstein",
    "bracket_identities",
    "clear_caches",
    "expand_mq",
    "expand_uv",
    "d_star_p",
    "dimension",
    "embed",
    "exact_div",
    "from_json",
    "invariant_decompose",
    "milnor_st",
    "mixed_decompose",
    "p_power",
    "parse_text",
    "power_on_mtilde",
    "power_on_q",
    "power_on_u",
    "power_on_v",
    "relabel",
    "render_latex",
    "render_text",
    "run_suite",
    "st_on_rank1",
    "st_on_u2",
    "st_on_v2",
    "duality_case",
    "to_json",
    "total_power",
    "__version__",
]
