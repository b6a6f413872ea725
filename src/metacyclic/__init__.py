"""Finite metacyclic groups: classification invariants and rational
group algebra decompositions.

The public surface re-exports the main types and entry points; the
submodules carry the full API.
"""

from .analysis import (
    UVT,
    a1a2_components,
    count_B,
    count_C,
    formula_NE,
    formula_NG,
    max_degree_branch,
    normalizer_of_K,
    piIgual_check,
    recover_R,
    regime_U,
    section7_witness,
    uvt_of,
)
from .group import InvariantError, MetacyclicGroup, Subgroup
from .invariants import MCInv, construct_group, isomorphic, mcinv, validate_tuple
from .wedderburn import (
    FixedField,
    SimpleComponent,
    compare_algebras,
    component_of,
    decomposition,
    fixed_field,
    idempotent_check,
    perlis_walker,
    roots_of_unity_order,
    strong_shoda_pairs,
)

__all__ = [
    "MetacyclicGroup",
    "Subgroup",
    "InvariantError",
    "MCInv",
    "mcinv",
    "validate_tuple",
    "construct_group",
    "isomorphic",
    "FixedField",
    "fixed_field",
    "roots_of_unity_order",
    "SimpleComponent",
    "component_of",
    "idempotent_check",
    "decomposition",
    "strong_shoda_pairs",
    "perlis_walker",
    "compare_algebras",
    "UVT",
    "a1a2_components",
    "recover_R",
    "max_degree_branch",
    "count_B",
    "formula_NE",
    "regime_U",
    "uvt_of",
    "normalizer_of_K",
    "count_C",
    "formula_NG",
    "section7_witness",
    "piIgual_check",
]
