"""The value types of the package print their fields, compare, hash
and sort as their field tuples, and cannot be assigned to.

Five are named tuples, and `RunConfig` is a named tuple whose
constructor checks its settings.  `FixedField`, whose torsion is kept
once read, is a small immutable class with the same contract over
(conductor, fixer).  A hash that is the hash of the field tuple keeps
the iteration order of every set and dict of these values.
"""

from __future__ import annotations

import pickle

import pytest

from metacyclic.analysis import _uvt
from metacyclic.cli import RunConfig
from metacyclic.group import MetacyclicGroup
from metacyclic.invariants import mcinv, realize, tuple_from_parts
from metacyclic.numth import cyclic_subgroup, cyclic_subgroups, from_generators
from metacyclic.wedderburn import FixedField, decomposition, fixed_field

S3 = MetacyclicGroup(3, 2, 0, 2)
NAMES = ("UnitSubgroup", "MCInv", "DerivedInv", "SimpleComponent", "FixedField", "UVT",
         "RunConfig")


@pytest.fixture(scope="module")
def cases() -> dict[str, tuple]:
    """Type name -> (value, its repr, its field names, the tuple it
    compares as)."""
    inv, der = mcinv(S3)
    comp = decomposition(S3)[2]
    uvt = _uvt(realize(tuple_from_parts(6, 4, 6, 6, 5)), 2)
    F = fixed_field(8, cyclic_subgroup(7, 8))
    rows = [
        (cyclic_subgroup(3, 8), "UnitSubgroup(modulus=8, elements=(1, 3), generator=3)",
         ("modulus", "elements", "generator"), (8, (1, 3), 3)),
        (inv, "MCInv(m=3, n=2, s=3, delta=UnitSubgroup(modulus=3, elements=(1, 2), "
              "generator=2))",
         ("m", "n", "s", "delta"), (3, 2, 3, inv.delta)),
        (der, "DerivedInv(r=1, eps=1, k=2, pi=(2,), pi_prime=(3,), "
              "R=UnitSubgroup(modulus=3, elements=(1, 2), generator=2))",
         ("r", "eps", "k", "pi", "pi_prime", "R"), (1, 1, 2, (2,), (3,), der.R)),
        (comp, "SimpleComponent(matrix_size=1, conductor=3, x=2, y=0, center=Q, "
               "total_degree=2, q_dimension=4)",
         ("matrix_size", "conductor", "x", "y", "center", "total_degree", "q_dimension"),
         (1, 3, 2, 0, comp.center, 2, 4)),
        (F, "Q(zeta_8)^(7,)", ("conductor", "fixer"), (8, cyclic_subgroup(7, 8))),
        (uvt, "UVT(v=2, u=2, t=2, g=(3, 0), h=(3, 2))",
         ("v", "u", "t", "g", "h"), (2, 2, 2, (3, 0), (3, 2))),
        (RunConfig(5, "json", 2), "RunConfig(max_order=5, format='json', jobs=2)",
         ("max_order", "format", "jobs"), (5, "json", 2)),
    ]
    return {type(row[0]).__name__: row for row in rows}


@pytest.mark.parametrize("name", NAMES)
def test_repr_is_the_one_printed_before(cases, name) -> None:
    value, text, _, _ = cases[name]
    assert repr(value) == text


@pytest.mark.parametrize("name", NAMES)
def test_fields_hash_and_equality_are_those_of_the_field_tuple(cases, name) -> None:
    value, _, names, fields = cases[name]
    assert tuple(getattr(value, field) for field in names) == fields
    assert hash(value) == hash(fields)
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is type(value) and copy == value and hash(copy) == hash(value)


@pytest.mark.parametrize("name", NAMES)
def test_fields_cannot_be_assigned(cases, name) -> None:
    value, _, names, fields = cases[name]
    for field, want in zip(names, fields):
        with pytest.raises(AttributeError):
            setattr(value, field, 0)
        assert getattr(value, field) == want


def test_fixed_field_torsion_is_kept_outside_equality() -> None:
    F = fixed_field(8, cyclic_subgroup(7, 8))
    fresh = FixedField(8, cyclic_subgroup(7, 8))
    assert fresh == F and hash(fresh) == hash(F)
    assert F.torsion == fresh.torsion == 2
    assert fresh == F and hash(fresh) == hash((8, cyclic_subgroup(7, 8)))
    with pytest.raises(AttributeError):
        F.torsion = 4
    with pytest.raises(AttributeError):
        del F.conductor
    assert F.torsion == 2


def test_unit_subgroups_and_fixed_fields_sort_by_their_field_tuples() -> None:
    subgroups = [T for d in (1, 7, 8, 12, 15, 16, 24) for T in cyclic_subgroups(d)]
    subgroups += [from_generators(8, [3, 5]), from_generators(24, [5, 7, 13])]
    by_fields = sorted(subgroups, key=lambda T: (T.modulus, T.elements, T.generator))
    assert sorted(subgroups) == by_fields
    assert sorted(reversed(subgroups)) == by_fields
    fields = [fixed_field(T.modulus, T) for T in subgroups]
    assert sorted(fields) == sorted(fields, key=lambda F: (F.conductor, F.fixer))
