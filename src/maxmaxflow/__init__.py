"""Exact-arithmetic toolkit around maxmaxflow and weighted subgraph counting."""

__version__ = "0.1.0"

from .graph import WeightedMultigraph, GraphFormatError
from .flowcut import (
    cut_pair,
    cut_tree,
    elementary_cocycle,
    lambda_tilde_bruteforce,
    max_flow,
    maxmaxflow,
)
from .invariants import degeneracy, degeneracy_k, delta_k, inequality_chain, max_degree
from .counting import class_count_series, class_series, class_spec, is_in_class
from .bounds import B_mk, C_mk, hunt, run_suite, verify_bound, verify_identities
from .chromatic import chromatic_polynomial, chromatic_roots

__all__ = [
    "WeightedMultigraph",
    "GraphFormatError",
    "max_flow",
    "cut_tree",
    "cut_pair",
    "elementary_cocycle",
    "maxmaxflow",
    "lambda_tilde_bruteforce",
    "max_degree",
    "delta_k",
    "degeneracy",
    "degeneracy_k",
    "inequality_chain",
    "class_spec",
    "class_count_series",
    "class_series",
    "is_in_class",
    "C_mk",
    "B_mk",
    "verify_bound",
    "verify_identities",
    "run_suite",
    "hunt",
    "chromatic_polynomial",
    "chromatic_roots",
]
