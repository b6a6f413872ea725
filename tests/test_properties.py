"""Property tests beyond the exhaustive bounds: consistent presentations
up to order 4096, drawn by a derandomized Hypothesis profile."""

from __future__ import annotations

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from metacyclic.cli import MAX_ORDER_LIMIT
from metacyclic.group import MetacyclicGroup, Subgroup
from metacyclic.invariants import construct_group, mcinv, valid_tuples, validate_tuple
from metacyclic.numth import divisors, geom_sum, units
from metacyclic.wedderburn import (SimpleComponent, component_of, decomposition,
                                   strong_shoda_pairs)
from oracles import scan_component, walk_pairs

PROFILE = settings(derandomize=True, max_examples=100, deadline=None, database=None,
                   suppress_health_check=[HealthCheck.too_slow])


def _twist_orders(m: int) -> dict[int, int]:
    """Each t != 1 mod m whose order d has m d <= 4096, mapped to d."""
    out = {}
    for t in units(m):
        x, d = t, 1
        while x != 1 and m * (d + 1) <= MAX_ORDER_LIMIT:
            x, d = x * t % m, d + 1
        if t != 1 and x == 1:
            out[t] = d
    return out


@st.composite
def presentations(draw) -> MetacyclicGroup:
    """G(m, n, s, t) with m n <= 4096, t^n = 1 mod m and s(t - 1) = 0 mod m.

    A drawn boolean chooses between a twisted (t != 1) and an untwisted
    presentation, so neither kind is rare.  A twisted one draws m, then a
    twist t of some order d with m d <= 4096 (t = -1 always qualifies),
    then n among the multiples of d; an untwisted one draws its order from
    1..4096 and m among its divisors.
    """
    if draw(st.booleans()):
        m = draw(st.integers(3, MAX_ORDER_LIMIT // 2))
        orders = _twist_orders(m)
        t = draw(st.sampled_from(sorted(orders)))
        n = orders[t] * draw(st.integers(1, MAX_ORDER_LIMIT // (m * orders[t])))
    else:
        order = draw(st.integers(1, MAX_ORDER_LIMIT))
        m = draw(st.sampled_from(divisors(order)))
        n = order // m
        t = 1 % m
    step = m // math.gcd(t - 1, m)
    s = step * draw(st.integers(0, m // step - 1))
    return MetacyclicGroup(m, n, s, t)


@PROFILE
@given(presentations())
def test_mcinv_is_valid_and_a_fixed_point_of_construction(G) -> None:
    inv = mcinv(G)[0]
    assert validate_tuple(inv.m, inv.n, inv.s, inv.delta) == (True, ())
    assert mcinv(construct_group(inv))[0] == inv
    if G.order <= 512:
        assert inv in valid_tuples(512)


@PROFILE
@given(presentations(), st.data())
def test_mcinv_does_not_depend_on_the_presentation(G, data) -> None:
    """One change of generators: a -> a^u, b -> a^i b or b -> b^v."""
    m, n, s, t = G.m, G.n, G.s, G.t
    move = data.draw(st.sampled_from(("a^u", "a^i b", "b^v")))
    if move == "a^u":
        H = MetacyclicGroup(m, n, s * data.draw(st.sampled_from(units(m))), t)
    elif move == "a^i b":
        i = data.draw(st.integers(0, m - 1))
        H = MetacyclicGroup(m, n, s + i * geom_sum(t, n), t)
    else:
        v = data.draw(st.sampled_from(units(n)))
        H = MetacyclicGroup(m, n, s * v, pow(t, v, m))
    assert mcinv(H)[0] == mcinv(G)[0]


@PROFILE
@given(presentations(), st.data())
def test_power_matches_repeated_multiplication(G, data) -> None:
    x = (data.draw(st.integers(0, G.m - 1)), data.draw(st.integers(0, G.n - 1)))
    by_mul, y = [G.identity], x
    while y != G.identity:
        by_mul.append(y)
        y = G.mul(y, x)
    period = len(by_mul)
    assert [G.power(x, k) for k in range(-2 * period, 2 * period + 1)] \
        == by_mul * 4 + by_mul[:1]


@PROFILE
@given(presentations())
def test_lattice_matches_the_candidate_filter(G) -> None:
    """subgroups(), one congruence per (c, f), and cyclic_subgroups(), the
    subgroups whose `generator` is not None, against the filter over every
    candidate triple (c, e, f), one `power` call each, and its cyclic
    members, as in tests/test_group.py::test_lattice_against_the_candidate_filter
    but beyond its exhaustive bound of order 64."""
    subs = [Subgroup(G, c, e, f) for c in divisors(G.m) for f in divisors(G.n)
            for e in range(c) if G.power((e, f % G.n), G.n // f)[0] % c == 0]
    filtered = tuple(sorted(subs, key=lambda S: (S.order, S.triple)))
    assert G.subgroups() == filtered
    cyclic = tuple(S for S in filtered if S.is_cyclic)
    listed = G.cyclic_subgroups()
    assert listed == cyclic
    assert [S.generator for S in listed] == [S.generator for S in cyclic]


@PROFILE
@given(presentations())
def test_pairs_and_components_match_the_lattice_walk(G) -> None:
    """strong_shoda_pairs and component_of against the lattice walk and
    the element scans of `oracles`, as in
    tests/test_wedderburn.py::test_pairs_and_components_against_the_lattice_walk
    but on drawn presentations, with decomposition equal to the sorted
    components.  The oracle runs up to order 1024; above it only the
    components' dimensions are checked to add up to |G|."""
    pairs = strong_shoda_pairs(G)
    comps = [component_of(G, L, K) for L, K in pairs]
    assert sum(comp.q_dimension for comp in comps) == G.order
    assert decomposition.__wrapped__(G) == tuple(sorted(comps, key=SimpleComponent.sort_key))
    if G.order <= 1024:
        assert pairs == walk_pairs(G)
        assert comps == [scan_component(G, L, K) for L, K in pairs]
