"""Exact Dickson–Mùi invariant constructions and Steenrod operations on
E(x_1..x_m) (x) P(y_1..y_m) over Z/p for odd primes p.

Everything is computed over exact modular arithmetic; the closed-form
action formulas and the pairing-duality checks are verified against an
independent Cartan-formula oracle (see ``verify.run_suite``).
"""

from .algebra import (
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
from . import duality as _duality, invariants as _invariants, steenrod as _steenrod

__version__ = "0.1.0"

# every memoised builder: invariants keyed on (p, params), the basis and
# power-map expansions with milnor_st's rescaling, and the mixed U/V and
# invariant coordinates
_CACHED_BUILDERS = (
    _invariants._bracket_e,
    _invariants._bracket_x,
    _invariants._ltilde,
    _invariants._q,
    _invariants._mtilde,
    _invariants._u,
    _invariants._v,
    _invariants._q_recursion_row,
    _steenrod._basis_element,
    _steenrod._candidates,
    _steenrod.power_expansion,
    _steenrod._degree_and_inverse_mu,
    _duality._mixed_candidates,
    _duality.mixed_decompose,
    _duality.invariant_coordinates,
)


def clear_caches() -> None:
    """Empty every memoised builder, so the next call computes cold."""
    for builder in _CACHED_BUILDERS:
        builder.cache_clear()

__all__ = [
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
