"""Finite metacyclic groups: classification invariants and rational
group algebra decompositions.

The public surface re-exports the main types and entry points; the
submodules carry the full API.
"""

from .analysis import (
    a1a2_components,
    count_B,
    count_C,
    formula_NE,
    formula_NG,
    max_degree_branch,
    recover_R,
    regime_U,
    section7_witness,
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
    perlis_walker,
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
    "SimpleComponent",
    "component_of",
    "decomposition",
    "strong_shoda_pairs",
    "perlis_walker",
    "compare_algebras",
    "a1a2_components",
    "recover_R",
    "max_degree_branch",
    "count_B",
    "formula_NE",
    "regime_U",
    "count_C",
    "formula_NG",
    "section7_witness",
]
