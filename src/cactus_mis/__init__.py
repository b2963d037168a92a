"""Exact counting of maximal independent sets in polygonal cactus chains.

The package builds eight chain-cactus families and their pendant-gadget
variants, counts their maximal independent sets exactly by size, expands the
catalogued rational generating functions exactly, evaluates the catalogued
recurrences and asymptotic constants, and cross-verifies all of it.
"""

from .graphs import (
    FAMILIES,
    FAMILY_IDS,
    FamilySpec,
    Graph,
    VertexLabel,
    build_aux,
    build_family,
    build_graph,
    family_spec,
    graph_order,
)
from .oracle import (
    DEFAULT_VERTEX_LIMIT,
    SizeDistribution,
    VertexLimitExceeded,
    enumerate_mis,
    is_maximal_independent,
)
from .series import (
    BivarPoly,
    RationalGF,
    UnivarPoly,
    UnivarRational,
    parse_bivar,
    parse_univar,
    rational_from_recurrence,
    recurrence_from_gf,
    recurrence_sequence,
    reduce_fraction,
    series_in_x,
    specialize_y1,
)
from .catalog import Catalog, FamilyRecord, TransferIdentity, load_catalog
from .asymptotics import (
    AsymptoticEstimate,
    family_estimate,
    leading_constant,
    smallest_positive_root,
    stated_gf_estimate,
)
from .verify import run_verification, verify_asymptotics, verify_family, verify_transfer

__version__ = "1.0.0"

__all__ = [
    "FAMILIES", "FAMILY_IDS", "FamilySpec", "Graph", "VertexLabel",
    "build_aux", "build_family", "build_graph", "family_spec", "graph_order",
    "DEFAULT_VERTEX_LIMIT", "SizeDistribution", "VertexLimitExceeded",
    "enumerate_mis", "is_maximal_independent",
    "BivarPoly", "RationalGF", "UnivarPoly", "UnivarRational",
    "parse_bivar", "parse_univar", "rational_from_recurrence",
    "recurrence_from_gf", "recurrence_sequence", "reduce_fraction",
    "series_in_x", "specialize_y1",
    "Catalog", "FamilyRecord", "TransferIdentity", "load_catalog",
    "AsymptoticEstimate", "family_estimate",
    "leading_constant", "smallest_positive_root", "stated_gf_estimate",
    "run_verification", "verify_asymptotics", "verify_family", "verify_transfer",
]
