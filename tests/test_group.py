from __future__ import annotations

import itertools
import math
import random

import pytest

from metacyclic.cli import consistent_presentations
from metacyclic.group import (
    MetacyclicGroup,
    Subgroup,
    canonical_es,
    cocyclic_subgroup_from_triple,
    cocyclic_subgroups_of_product,
    cocyclic_triples,
)
from metacyclic.invariants import construct_group, valid_tuples
from metacyclic.numth import divisors, orbit, p_part
from oracles import (conjugacy_classes, coset_dlog, coset_order, derived_subgroup,
                     two_power_sums, walk_dlog)

S3 = MetacyclicGroup(3, 2, 0, 2)
Q8 = MetacyclicGroup(4, 2, 2, 3)
D8 = MetacyclicGroup(4, 2, 0, 3)
M16 = MetacyclicGroup(8, 2, 0, 5)
SAMPLE = (S3, Q8, D8, M16, MetacyclicGroup(12, 4, 6, 5), MetacyclicGroup(9, 3, 0, 4))


def test_presentation_consistency_is_enforced() -> None:
    with pytest.raises(ValueError):
        MetacyclicGroup(4, 2, 0, 2)  # t not a unit mod m
    with pytest.raises(ValueError):
        MetacyclicGroup(16, 2, 0, 3)  # t^n != 1 mod m
    with pytest.raises(ValueError):
        MetacyclicGroup(4, 2, 1, 3)  # s(t-1) != 0 mod m, b^n not central


def test_defining_relations_hold() -> None:
    for G in SAMPLE:
        a, b = G.gen_a, G.gen_b
        assert G.power(a, G.m) == G.identity
        assert G.power(b, G.n) == G.power(a, G.s)
        # twist orientation: b a b^-1 = a^t
        assert G.mul(G.mul(b, a), G.inv(b)) == G.power(a, G.t)


def test_group_axioms_on_samples() -> None:
    for G in (S3, Q8, MetacyclicGroup(6, 2, 0, 5)):
        elems = G.elements
        assert len(elems) == G.order == G.m * G.n
        for x in elems:
            assert G.mul(x, G.identity) == x
            assert G.mul(G.inv(x), x) == G.identity
        for x, y, z in itertools.islice(itertools.product(elems, repeat=3), 400):
            assert G.mul(G.mul(x, y), z) == G.mul(x, G.mul(y, z))


def test_power_matches_iterated_multiplication() -> None:
    """x^k for -2|x| <= k <= 2|x|, every element of every presentation up
    to order 64, against the products x x ... x over one period."""
    for G in consistent_presentations(64):
        for x in G.elements:
            by_mul, y = [G.identity], x
            while y != G.identity:
                by_mul.append(y)
                y = G.mul(y, x)
            period = len(by_mul)
            assert [G.power(x, k) for k in range(-2 * period, 2 * period + 1)] \
                == by_mul * 4 + by_mul[:1], (G, x)


def test_element_order_divides_group_order() -> None:
    for G in SAMPLE:
        for x in G.elements:
            d = G.element_order(x)
            assert G.order % d == 0
            assert G.power(x, d) == G.identity
            assert all(G.power(x, e) != G.identity for e in range(1, min(d, 6)))


def test_element_part_splits_commuting_factors() -> None:
    G = MetacyclicGroup(12, 4, 6, 5)
    for x in G.elements:
        x2 = G.element_part(x, (2,))
        x3 = G.element_part(x, (3,))
        assert G.mul(x2, x3) == x
        assert G.mul(x3, x2) == x
        assert G.element_order(x2) == p_part(G.element_order(x), 2)
        assert G.element_order(x3) == p_part(G.element_order(x), 3)


def test_gen_b_degenerate_quotient() -> None:
    # n = 1 collapses b into <a>; the generator must keep the a^s value
    G = MetacyclicGroup(32, 1, 28, 1)
    assert G.gen_b == (28, 0)
    H = MetacyclicGroup(32, 1, 29, 1)
    assert G.brute_force_isomorphic(H)  # both are cyclic of order 32


def test_brute_force_isomorphism_separates_q8_from_d8() -> None:
    assert not Q8.brute_force_isomorphic(D8)
    assert Q8.brute_force_isomorphic(Q8)
    assert not M16.brute_force_isomorphic(MetacyclicGroup(16, 1, 0, 1))


def test_center_derived_and_class_counts() -> None:
    assert derived_subgroup(S3).order == 3
    assert len(conjugacy_classes(S3)) == 3
    assert len(conjugacy_classes(Q8)) == 5
    assert len(conjugacy_classes(D8)) == 5
    assert len(conjugacy_classes(M16)) == 10


def test_conjugacy_classes_partition_the_group() -> None:
    for G in SAMPLE:
        classes = conjugacy_classes(G)
        seen = [x for c in classes for x in c]
        assert sorted(seen) == sorted(G.elements)
        for c in classes:
            assert G.order % len(c) == 0
        assert [min(c) for c in classes] == sorted(min(c) for c in classes)


def test_abelianization_smith_form() -> None:
    assert S3.abelianization_invariants() == (2,)
    assert Q8.abelianization_invariants() == (2, 2)
    assert D8.abelianization_invariants() == (2, 2)
    assert M16.abelianization_invariants() == (2, 4)
    assert MetacyclicGroup(5, 4, 0, 2).abelianization_invariants() == (4,)


def test_order_profiles() -> None:
    assert S3.order_profile() == ((1, 1), (2, 3), (3, 2))
    assert Q8.order_profile() == ((1, 1), (2, 1), (4, 6))
    assert D8.order_profile() == ((1, 1), (2, 5), (4, 2))


def test_exponent_against_the_order_profile() -> None:
    """The closed form of `exponent`, from the per-f sums S and s0 of the
    lattice, against the lcm of the element orders of `order_profile`, on
    every consistent presentation up to order 64."""
    checked = 0
    for G in consistent_presentations(64):
        assert G.exponent() == math.lcm(*(d for d, _ in G.order_profile())), G
        checked += 1
    assert checked == 3786


def test_subgroup_enumeration_counts() -> None:
    assert len(S3.subgroups()) == 6
    assert len(Q8.subgroups()) == 6
    assert len(D8.subgroups()) == 10
    assert len(M16.subgroups()) == 11


def test_subgroups_are_closed_and_distinct() -> None:
    for G in (S3, Q8, D8):
        subs = G.subgroups()
        assert len({S.elems for S in subs}) == len(subs)
        for S in subs:
            assert G.order % S.order == 0
            for x, y in itertools.product(S, repeat=2):
                assert G.mul(x, G.inv(y)) in S


def test_generated_and_cyclic_subgroups() -> None:
    G = D8
    whole = G.generated([G.gen_a, G.gen_b])
    assert whole.order == G.order
    cyc = G.cyclic_subgroup(G.gen_a)
    assert cyc.order == 4 and cyc.is_cyclic and cyc.generator == G.gen_a
    # 1, <a^2>, <a>, and the four reflections
    assert len(G.cyclic_subgroups()) == 7


def test_l_subgroup_orders() -> None:
    G = MetacyclicGroup(12, 4, 6, 5)
    for d in (1, 2, 4):
        L = G.l_subgroup(d)
        assert L.order == G.order // d
        assert G.gen_a in L


def test_normalizer_core_centralizer() -> None:
    G = D8
    refl = G.cyclic_subgroup(G.gen_b)
    N = G.normalizer(refl)
    assert refl.elems <= N.elems
    assert N.order == 4
    assert G.core(refl).order == 1
    assert G.core(G.cyclic_subgroup(G.gen_a)).order == 4


def test_conjugates_and_subgroup_classes() -> None:
    refl = D8.cyclic_subgroup(D8.gen_b)
    conj = D8.conjugates(refl)
    assert len(conj) == 2 and refl in conj
    assert all(C.order == 2 and not C.is_normal for C in conj)
    # D8 has 8 classes of subgroups: 1, Z, two pairs of reflections,
    # <a>, two Klein fours and the whole group
    reps = D8.subgroup_classes(D8.subgroups())
    assert len(reps) == 8
    assert reps == sorted(reps, key=lambda S: (S.order, S.triple))
    # conjugation by a alone already moves every reflection subgroup
    assert len(D8.subgroup_classes(D8.subgroups(), gens=(D8.gen_a,))) == 8
    # the trivial subaction leaves every subgroup in its own orbit
    assert len(D8.subgroup_classes(D8.subgroups(), gens=())) == 10


def test_core_and_subgroup_classes_against_brute_force() -> None:
    """core(S) is the union of the conjugacy classes inside S, and the
    orbit count matches conjugation by every element, for every class up
    to order 64."""
    for inv in valid_tuples(64):
        G = construct_group(inv)
        classes = conjugacy_classes(G)
        subs = G.subgroups()
        elems = {S: S.elems for S in subs}
        for S in subs:
            inside = frozenset().union(*(c for c in classes if c <= elems[S]))
            assert G.core(S).elems == inside, (G, S)
        brute = {frozenset(frozenset(G.conj(x, g) for x in elems[S])
                           for g in G.elements) for S in subs}
        assert len(G.subgroup_classes(subs)) == len(brute), G


def test_lattice_operations_against_brute_force() -> None:
    """normalizer, conjugates and cyclic_subgroups agree with scans over
    every element for every subgroup of every class up to order 64."""
    for inv in valid_tuples(64):
        G = construct_group(inv)
        for S in G.subgroups():
            elems = S.elems
            images = {x: frozenset(G.conj(g, x) for g in elems)
                      for x in G.elements}
            N = G.normalizer(S)
            assert N.elems == {x for x, img in images.items() if img == elems}, (G, S)
            assert G.generated(N.gens) == N
            assert {x for x in G.elements if x in S} == elems, (G, S)
            assert len(G.conjugates(S)) == G.order // N.order
            assert {C.elems for C in G.conjugates(S)} == set(images.values()), (G, S)
        powers = {}
        for x in G.elements:
            powers.setdefault(frozenset(G.power(x, k) for k in range(G.order)), x)
        cyc = G.cyclic_subgroups()
        assert all(Subgroup(G, *S.triple).elems == S.elems for S in cyc), G
        assert len(cyc) == len(powers), G
        assert {S.elems for S in cyc} == set(powers), G
        assert all(S.generator in S and G.element_order(S.generator) == S.order
                   for S in cyc), G
        assert all(S.is_cyclic == (S.elems in powers) for S in G.subgroups()), G
        assert list(cyc) == sorted(cyc, key=lambda S: (S.order, S.triple)), G


def test_subgroup_holds_only_its_triple() -> None:
    """A Subgroup keeps group, triple, gens and order, and every derived
    fact is recomputed on each read: once generator, is_cyclic, is_normal,
    elems, iteration and membership have been read, its attributes are
    still those four.  Checked on the subgroups that subgroups(),
    cyclic_subgroups(), generated, normalizer and conjugates return, on
    every consistent presentation up to order 32."""
    for G in consistent_presentations(32):
        subs = G.subgroups()
        for T in (*subs, *G.cyclic_subgroups(),
                  *(G.generated(S.gens) for S in subs), *map(G.normalizer, subs),
                  *(C for S in G.subgroup_classes(subs) for C in G.conjugates(S))):
            assert T.is_cyclic == (T.generator is not None) and T.is_normal in (True, False)
            assert set(T.gens) <= T.elems and all(x in T for x in T.gens)
            assert vars(T).keys() == {"group", "triple", "gens", "order"}, (G, T)


def _walked_cyclic_subgroups(G: MetacyclicGroup) -> dict[tuple[int, int, int], frozenset]:
    """Triple -> element set of each cyclic subgroup <x>, found by walking
    the powers of every element x; once <x> is found, every x^j with
    gcd(j, |x|) = 1 is skipped.  For x = a^i b^j, f = gcd(j, n), <x> meets
    <a> in <x^(n/f)>, and x^u with u j = f mod n lies in a^e b^f <a^c>."""
    found = {}
    known: set = set()
    for x in G.elements:
        if x in known:
            continue
        powers = [G.identity]
        y = x
        while y != G.identity:
            powers.append(y)
            y = G.mul(y, x)
        k = len(powers)
        known.update(powers[j] for j in range(1, k) if math.gcd(j, k) == 1)
        f = math.gcd(x[1], G.n)
        c = math.gcd(G.m, powers[G.n // f % k][0])
        e = powers[pow(x[1] // f, -1, G.n // f)][0] % c
        found[(c, e, f)] = frozenset(powers)
    return found


def test_cyclic_subgroups_against_the_power_walk() -> None:
    """cyclic_subgroups() lists the subgroups <x> that a walk over the
    powers of every element finds, with the same triples, and each
    `generator` has full order, for every class up to order 128.  The
    sweep stops at 128: up to 256 it takes about 2.1 s instead of 0.5 s
    (2-vCPU host, Python 3.11), and the Tier-1 suite is already over its
    60 s budget."""
    for inv in valid_tuples(128):
        G = construct_group(inv)
        walked = _walked_cyclic_subgroups(G)
        cyc = G.cyclic_subgroups()
        assert {S.triple: S.elems for S in cyc} == walked, G
        assert all(G.element_order(S.generator) == S.order for S in cyc), G


def _filtered_lattice(G: MetacyclicGroup) -> tuple[Subgroup, ...]:
    """Every candidate triple (c, e, f) with c | m, f | n and e < c, kept
    iff (a^e b^f)^(n/f) lies in <a^c>, one `power` call each, sorted by
    order and then by triple."""
    subs = [Subgroup(G, c, e, f) for c in divisors(G.m) for f in divisors(G.n)
            for e in range(c) if G.power((e, f % G.n), G.n // f)[0] % c == 0]
    return tuple(sorted(subs, key=lambda S: (S.order, S.triple)))


def test_lattice_against_the_candidate_filter() -> None:
    """subgroups() solves one congruence per (c, f) for the canonical e,
    and cyclic_subgroups() keeps the subgroups whose `generator` is not
    None.  Both equal the filter over every candidate triple, and its
    cyclic members, on every consistent presentation up to order 64; the
    generators of the cyclic listing are those read off the bare
    triples.  For every (c, f), `canonical_es`, which `_minimal_factors`
    and `wedderburn._shoda_classes` also call on blocks of their own,
    gives the e of the filtered triples with that (c, f), or None when
    there is none."""
    checked = 0
    for G in consistent_presentations(64):
        filtered = _filtered_lattice(G)
        want: dict[tuple[int, int], list[int]] = {}
        for c, e, f in (S.triple for S in filtered):
            want.setdefault((c, f), []).append(e)
        solved = {(c, f): list(es) for f, S, s0 in G._power_sums()
                  for c in divisors(G.m)
                  if (es := canonical_es(c, S, s0)) is not None}
        assert solved == want, G
        assert G.subgroups() == filtered, G
        cyclic = tuple(S for S in filtered if S.is_cyclic)
        listed = G.cyclic_subgroups()
        assert listed == cyclic, G
        assert [S.generator for S in listed] == \
            [S.generator for S in cyclic], G
        checked += 1
    assert checked == 3786


def test_triples_against_bfs_closures() -> None:
    """subgroups() against the breadth-first closures of every candidate
    <a^d, a^e b^f>, and generated() against the closures of seeded random
    generator lists, for every class up to order 128.  Iterating a
    subgroup lists its closure in sorted order, and subgroups() is sorted
    by order and then by triple."""
    rng = random.Random(0)
    for inv in valid_tuples(128):
        G = construct_group(inv)
        closures = {frozenset(orbit(G.identity, (G.power(G.gen_a, d),
                                                 G.mul((e, 0), G.power(G.gen_b, f))),
                                    G.mul))
                    for d in divisors(G.m) for f in divisors(G.n) for e in range(d)}
        subs = G.subgroups()
        assert sorted(list(S) for S in subs) == sorted(map(sorted, closures)), G
        assert list(subs) == sorted(subs, key=lambda S: (S.order, S.triple)), G
        assert len({S.triple for S in subs}) == len(subs), G
        assert all(G.generated(S.gens) == S for S in subs), G
        for _ in range(20):
            gens = rng.choices(G.elements, k=rng.randint(0, 3))
            assert G.generated(gens).elems == orbit(G.identity, gens, G.mul), (G, gens)


def test_hall_and_sylow_subgroups() -> None:
    G = MetacyclicGroup(12, 2, 6, 5)
    assert G.hall_subgroup((2,)).order == 8
    assert G.hall_subgroup((3,)).order == 3
    assert G.hall_subgroup((2, 3)).order == 24
    assert G.hall_subgroup(()).order == 1
    assert M16.hall_subgroup((2,)).is_normal


def test_subgroup_relations() -> None:
    A = D8.cyclic_subgroup(D8.gen_a)
    assert derived_subgroup(D8).elems <= A.elems
    assert A.is_normal
    assert D8.order // A.order == 2


def test_dlog_is_the_least_exponent_reaching_the_coset() -> None:
    M = MetacyclicGroup(12, 4, 6, 5)
    a, b = D8.gen_a, D8.gen_b
    a2 = D8.cyclic_subgroup(D8.power(a, 2))
    # (group, g, target, K, least e with target in K g^e; None for a miss)
    table = [
        (M, M.gen_a, M.power(M.gen_a, 7), None, 7),
        (M, M.gen_b, M.power(M.gen_b, 3), None, 3),
        (D8, a, D8.identity, None, 0),
        (D8, a, D8.power(a, 3), a2, 1),
        (D8, b, D8.mul(D8.power(a, 2), b), a2, 1),
        (D8, a, b, None, None),
        (D8, a, b, a2, None),
    ]
    # The rows with a K exercise the coset walk kept as a test oracle.
    for G, g, target, K, want in table:
        args = (g, target) if K is None else (G, g, target, K)
        dlog = G.dlog if K is None else coset_dlog
        if want is None:
            with pytest.raises(ValueError):
                dlog(*args)
        else:
            assert dlog(*args) == want


def test_dlog_against_the_walk() -> None:
    """The arithmetic `dlog` against the walk of up to |g| steps, on every
    (g, target) pair of every consistent presentation up to order 24,
    misses included."""
    checked = misses = 0
    for G in consistent_presentations(24):
        for g in G.elements:
            for target in G.elements:
                try:
                    want = walk_dlog(G, g, target)
                except ValueError:
                    with pytest.raises(ValueError):
                        G.dlog(g, target)
                    misses += 1
                else:
                    assert G.dlog(g, target) == want, (G, g, target)
                checked += 1
    assert (checked, misses) == (168746, 66168)


def _has_cyclic_quotient(G: MetacyclicGroup, A, K) -> bool:
    q = A.order // K.order
    return any(coset_order(G, z, K) == q for z in A)


def test_cocyclic_triples_parametrize_distinct_subgroups() -> None:
    # abelian product C4 x C4 realized with t = 1
    G = MetacyclicGroup(4, 4, 0, 1)
    g, h = G.gen_a, G.gen_b
    A = G.generated([g, h])
    seen = set()
    for tr in cocyclic_triples(4, 4, 2):
        K = cocyclic_subgroup_from_triple(G, g, h, tr)
        elems = K.elems
        assert elems not in seen
        seen.add(elems)
        assert _has_cyclic_quotient(G, A, K)


def test_cocyclic_subgroups_of_product_all_valid() -> None:
    G = MetacyclicGroup(4, 4, 0, 1)
    subs = cocyclic_subgroups_of_product(G, G.gen_a, G.gen_b)
    A = G.generated([G.gen_a, G.gen_b])
    assert len(subs) == len({S.elems for S in subs})
    for K in subs:
        assert _has_cyclic_quotient(G, A, K)
    # brute-force comparison over all subgroups of C4 x C4
    brute = {S.elems for S in G.subgroups() if _has_cyclic_quotient(G, A, S)}
    assert {S.elems for S in subs} == brute


def test_power_sums_against_two_power_calls() -> None:
    """The closed-form power sums against two `power` calls per f | n: the
    same f and s0, and S equal mod m and reduced mod m, on every
    consistent presentation up to order 64 and every class up to 1024."""
    groups = itertools.chain(consistent_presentations(64),
                             map(construct_group, valid_tuples(1024)))
    for G in groups:
        want = two_power_sums(G)
        got = list(G._power_sums())
        assert [(f, s0) for f, _, s0 in got] == [(f, s0) for f, _, s0 in want], G
        for (_, S, _), (_, S_old, _) in zip(got, want):
            assert 0 <= S < G.m, G
            assert (S - S_old) % G.m == 0, G
