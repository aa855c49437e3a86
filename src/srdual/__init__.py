"""Dual graphs of (S2) Stanley-Reisner rings.

Facet-bitset simplicial complexes, facet-ridge dual graphs, combinatorial
(S2)/Buchsbaum oracles, the (S_l)-preserving gluing operation, the named
long-diameter constructions, Hirsch-type upper-bound formulas, and
exhaustive search for the maximum dual-graph diameter mu(d, n).
"""

__version__ = "1.0.0"

from .complexes import (
    MonomialIdeal,
    SimplicialComplex,
    alexander_dual_ideal,
    antichain,
    cone,
    from_facets,
    from_masks,
    mask_of,
    vertices_of,
)
from .dual_graph import (
    UNBOUNDED,
    DualGraph,
    build_dual_graph,
    diameter,
    distance_pair,
    eccentricity,
)
from .errors import SrdualError
from .families import FAMILY_NAMES, FamilyId, build, expected_diameter
from .fileio import export_graph, parse_facet_file, serialize_facet_file
from .gluing import GlueSpec, append_facet_chain, glue, overlap_facets
from .search import (
    SearchBudget,
    SearchResult,
    UpperBounds,
    bounds,
    canonical_form,
    enumerate_mu,
    verify_bounds,
)
from .serre import (
    BettiVector,
    S2Verdict,
    connected_components,
    is_buchsbaum,
    is_locally_connected,
    is_s2,
    linear_syzygy_check,
    reduced_betti,
)

__all__ = [
    "__version__",
    "SimplicialComplex", "MonomialIdeal", "mask_of", "vertices_of",
    "antichain", "from_facets", "from_masks", "cone",
    "alexander_dual_ideal",
    "DualGraph", "UNBOUNDED", "build_dual_graph", "diameter",
    "eccentricity", "distance_pair",
    "S2Verdict", "BettiVector", "is_s2", "is_locally_connected",
    "linear_syzygy_check", "reduced_betti", "is_buchsbaum",
    "connected_components",
    "GlueSpec", "glue", "overlap_facets", "append_facet_chain",
    "FamilyId", "FAMILY_NAMES", "build", "expected_diameter",
    "UpperBounds", "bounds", "verify_bounds", "canonical_form",
    "SearchBudget", "SearchResult", "enumerate_mu",
    "parse_facet_file", "serialize_facet_file", "export_graph",
    "SrdualError",
]
