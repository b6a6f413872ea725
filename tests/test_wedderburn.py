from __future__ import annotations

import gc
import itertools
from collections import Counter, defaultdict

import pytest

from metacyclic import wedderburn
from metacyclic.analysis import formula_NE, formula_NG, section7_witness
from metacyclic.cli import consistent_presentations, main
from metacyclic.group import InvariantError, MetacyclicGroup, Subgroup
from metacyclic.invariants import construct_group, mcinv, valid_tuples
from metacyclic.wedderburn import (
    DIFFERENT,
    EQUAL,
    RATIONALS,
    SimpleComponent,
    UNKNOWN,
    canonical_conductor,
    commutative_conductors,
    compare_algebras,
    component_of,
    cyclotomic_field,
    decomposition,
    fingerprint,
    fixed_field,
    galois_preimage,
    intersect_cyclotomic,
    is_subfield,
    perlis_walker,
    perlis_walker_conductors,
    strong_shoda_pairs,
)
from metacyclic.numth import cyclic_subgroup, cyclic_subgroups, from_generators, lcm, units
import oracles
from oracles import (conjugacy_classes, coset_generator, coset_order, hall_subgroup,
                     idempotent_check, qualifies, scan_component, scan_fixed_field,
                     scan_roots_of_unity_order, searched_component, walk_pairs)

S3 = MetacyclicGroup(3, 2, 0, 2)
Q8 = MetacyclicGroup(4, 2, 2, 3)
D8 = MetacyclicGroup(4, 2, 0, 3)
M27 = MetacyclicGroup(9, 3, 0, 4)


def test_canonical_conductor_drops_half_even_values() -> None:
    # conductors 2 mod 4 collapse: Q(zeta_6) = Q(zeta_3)
    assert canonical_conductor(6) == 3
    assert canonical_conductor(10) == 5
    assert canonical_conductor(12) == 12
    assert canonical_conductor(1) == 1
    assert cyclotomic_field(6) == cyclotomic_field(3)


def test_fixed_field_canonicalizes_conductor() -> None:
    assert fixed_field(12, cyclic_subgroup(5, 12)) == cyclotomic_field(4)
    assert fixed_field(9, cyclic_subgroup(4, 9)) == cyclotomic_field(3)
    assert fixed_field(5, cyclic_subgroup(2, 5)) == RATIONALS


def test_fixed_field_degrees() -> None:
    assert RATIONALS.degree == 1
    assert cyclotomic_field(8).degree == 4
    real_q8 = fixed_field(8, cyclic_subgroup(7, 8))  # Q(sqrt 2)
    assert real_q8.degree == 2
    assert real_q8 != cyclotomic_field(4)


def test_roots_of_unity_orders() -> None:
    assert RATIONALS.torsion == 2
    assert cyclotomic_field(3).torsion == 6
    assert cyclotomic_field(4).torsion == 4
    assert cyclotomic_field(8).torsion == 8
    # real subfield of Q(zeta_8) keeps only -1 despite the even conductor
    assert fixed_field(8, cyclic_subgroup(7, 8)).torsion == 2


def test_fixed_field_against_the_unit_scan() -> None:
    """fixed_field tests only the residues 1 + j d0 that are units mod d
    for each candidate conductor d0; the scan of every unit mod d finds
    the same field for every cyclic T <= U_d with d <= 256."""
    checked = 0
    for d in range(1, 257):
        for T in cyclic_subgroups(d):
            assert fixed_field.__wrapped__(d, T) == scan_fixed_field(d, T), T
            checked += 1
    assert checked == 3591


def test_roots_of_unity_order_against_the_divisor_scan() -> None:
    """The gcd of the conductor and x - 1 for the generator x of a cyclic
    fixer, or every x - 1 over a non-cyclic one, gives the same torsion
    order as the scan of the divisors of the conductor, on every center up
    to order 256, on Q(zeta_d) for d <= 256, and on the fields fixed by
    the subgroups of two generators mod d <= 48, 12 of them non-cyclic."""
    fields = {comp.center for inv in valid_tuples(256)
              for comp in decomposition(construct_group(inv))}
    fields |= {cyclotomic_field(d) for d in range(1, 257)}
    assert len(fields) == 481
    pairs = {fixed_field(d, from_generators(d, gens)) for d in range(1, 49)
             for gens in itertools.combinations(units(d), 2)}
    assert sum(F.fixer.generator is None for F in pairs) == 12
    for F in fields | pairs:
        assert F.torsion == scan_roots_of_unity_order(F), F


def test_subfield_and_intersection() -> None:
    assert is_subfield(RATIONALS, cyclotomic_field(8))
    assert is_subfield(cyclotomic_field(4), cyclotomic_field(8))
    assert not is_subfield(cyclotomic_field(3), cyclotomic_field(8))
    assert intersect_cyclotomic(cyclotomic_field(12), 4) == cyclotomic_field(4)
    assert intersect_cyclotomic(cyclotomic_field(3), 8) == RATIONALS


def test_galois_preimage_fixes_the_field() -> None:
    assert galois_preimage(cyclotomic_field(4), 12).elements == (1, 5)
    assert galois_preimage(RATIONALS, 8).elements == (1, 3, 5, 7)


def _preimage_is_subfield(F, E) -> bool:
    """is_subfield through the preimage of F's fixer mod E's conductor."""
    if E.conductor % F.conductor:
        return False
    pre = set(galois_preimage(F, E.conductor).elements)
    return all(x in pre for x in E.fixer.elements)


def _preimage_intersect_cyclotomic(F, c: int):
    """intersect_cyclotomic inside Q(zeta_lcm), fixed by the join of the
    preimage of F's fixer and the units that are 1 mod c."""
    M = lcm(F.conductor, c)
    gens = list(galois_preimage(F, M).elements)
    gens += [x for x in units(M) if x % c == 1 % c]
    return fixed_field(M, from_generators(M, gens))


def test_field_predicates_against_the_preimage_route() -> None:
    """is_subfield and intersect_cyclotomic, which restrict fixers to a
    smaller conductor, against the routes through Galois preimages: on
    every pair of fields among the centers up to order 128 and Q(zeta_d)
    for d <= 128, and on every such field meet Q(zeta_c) for c <= 10."""
    fields = {comp.center for inv in valid_tuples(128)
              for comp in decomposition(construct_group(inv))}
    fields |= {cyclotomic_field(d) for d in range(1, 129)}
    assert len(fields) == 205
    for F, E in itertools.product(fields, repeat=2):
        assert is_subfield(F, E) == _preimage_is_subfield(F, E), (F, E)
    for F in fields:
        for c in range(1, 11):
            assert intersect_cyclotomic(F, c) == _preimage_intersect_cyclotomic(F, c), (F, c)


def test_strong_shoda_pairs_counts_and_idempotents() -> None:
    for G, count in ((S3, 3), (Q8, 5), (D8, 5)):
        pairs = strong_shoda_pairs(G)
        assert len(pairs) == count
        for L, K in pairs:
            assert K.elems <= L.elems
            assert idempotent_check(G, L, K)


def test_idempotent_check_on_every_strong_shoda_pair() -> None:
    from metacyclic.invariants import construct_group, valid_tuples

    checked = 0
    for inv in valid_tuples(32):
        G = construct_group(inv)
        for L, K in strong_shoda_pairs(G):
            assert idempotent_check(G, L, K), (G, L, K)
            checked += 1
    assert checked == 512


def test_coset_generators_match_the_coset_order_scan() -> None:
    """`coset_generator` tests x^(idx/q) against K for the primes q | idx.
    The first x whose coset order is the whole index, found by the divisor
    scan of `coset_order`, is the same element on every (L, K) and
    (N_G(K), L) of every class up to order 128."""
    from metacyclic.invariants import construct_group, valid_tuples

    def by_coset_order(G, H, K):
        idx = H.order // K.order
        return next(x for x in H if coset_order(G, x, K) == idx)

    checked = 0
    for inv in valid_tuples(128):
        G = construct_group(inv)
        for L, K in strong_shoda_pairs(G):
            for H, N in ((L, K), (G.normalizer(K), L)):
                assert coset_generator(G, H, N) == \
                    by_coset_order(G, H, N), (G, H, N)
                checked += 1
    assert checked == 2 * 5351


def test_strong_shoda_pairs_return_the_least_conjugate_of_each_class() -> None:
    """For every class up to order 128, each returned K is the least of its
    conjugates by full element list, the oracle for the c-row key of
    `strong_shoda_pairs`; the orbits of the returned Ks are disjoint, and
    together they are exactly the subgroups that qualify."""
    count = 0
    for inv in valid_tuples(128):
        G = construct_group(inv)
        covered: set[Subgroup] = set()
        for _, K in strong_shoda_pairs(G):
            orbit = G.conjugates(K)
            assert K == min(orbit, key=tuple), (G, K)
            assert not orbit & covered, (G, K)
            covered |= orbit
            count += 1
        assert covered == {S for S in G.subgroups()
                           if qualifies(G, S) is not None}, G
    assert count == 5351


def test_pairs_and_components_against_the_lattice_walk() -> None:
    """strong_shoda_pairs and component_of, which read the classes and the
    components off (c, e, f), against the walk of `subgroups()` with its
    coset-order test, the element scans and coset walks of the old
    component route, and `searched_component`, which reads x through u
    for every class, on every consistent presentation up to order 64,
    every class up to order 256 and the ten classes up to order 1024
    (orders 512 to 1024) in which some strong Shoda pair has a twist y
    that depends on which conjugate K is taken: the same pairs in the
    same order, equal components, and decomposition, the one pass over
    the (c, f) blocks, equal to those components sorted."""
    checked = pairs = 0
    twisted = [MetacyclicGroup(*p) for p in (
        (21, 42, 0, 2), (27, 27, 9, 4), (32, 16, 8, 9), (32, 32, 16, 9), (32, 32, 8, 5),
        (35, 28, 0, 13), (36, 18, 12, 7), (36, 18, 6, 7), (45, 18, 15, 4), (64, 16, 8, 9))]
    groups = consistent_presentations(64) + [construct_group(inv)
                                             for inv in valid_tuples(256)] + twisted
    for G in groups:
        want = walk_pairs(G)
        assert strong_shoda_pairs(G) == want, G
        comps = [component_of(G, L, K) for L, K in want]
        assert comps == [scan_component(G, L, K) for L, K in want], G
        assert comps == [searched_component(G, L, K) for L, K in want], G
        assert decomposition(G) == tuple(sorted(comps, key=SimpleComponent.sort_key)), G
        checked += 1
        pairs += len(want)
    assert (checked, pairs) == (3786 + 1365 + 10, 40528 + 335)


def test_classes_with_n_equal_to_l_read_no_character(monkeypatch) -> None:
    """A class with N_G(K) = L has the component M_e0(Q(zeta_[L:K])) in
    closed form: with `_character` raising, every abelian presentation up
    to order 64 (t = 1, so every class has N = L) keeps the components
    that the search for u gives, while S3, whose class (3, 0, 2) has
    f_N = 1 < e0 = 2, still reads the character."""
    abelian = [G for G in consistent_presentations(64) if G.t == 1]
    want = [tuple(sorted((searched_component(G, L, K) for L, K in strong_shoda_pairs(G)),
                         key=SimpleComponent.sort_key)) for G in abelian]

    def no_character(*args):
        raise AssertionError("character read")

    monkeypatch.setattr(wedderburn, "_character", no_character)
    assert [decomposition.__wrapped__(G) for G in abelian] == want
    assert len(abelian) == 3403
    with pytest.raises(AssertionError, match="character read"):
        decomposition.__wrapped__(S3)


def test_component_of_rejects_what_is_not_a_pair() -> None:
    L, K = S3.l_subgroup(2), Subgroup(S3, 3, 0, 2)
    assert (L, K) in strong_shoda_pairs(S3)
    # a wrong L: G instead of <a>
    with pytest.raises(ValueError, match="not a strong Shoda pair"):
        component_of(S3, S3.l_subgroup(1), K)
    # K = <b> does not lie in L = <a>
    with pytest.raises(ValueError, match="not a strong Shoda pair"):
        component_of(S3, L, Subgroup(S3, 3, 0, 1))
    # C2 x C2 over the trivial subgroup is not cyclic
    V4 = MetacyclicGroup(2, 2, 0, 1)
    with pytest.raises(ValueError, match="not a strong Shoda pair"):
        component_of(V4, V4.l_subgroup(1), Subgroup(V4, 2, 0, 2))


def test_decomposition_s3() -> None:
    comps = decomposition(S3)
    dims = sorted(c.q_dimension for c in comps)
    assert dims == [1, 1, 4]
    big = max(comps, key=lambda c: c.q_dimension)
    assert big.total_degree == 2
    assert big.center == RATIONALS
    assert big.conductor == 3 and big.y == 0  # split: M_2(Q)


def test_decomposition_quaternion_vs_dihedral() -> None:
    q = decomposition(Q8)
    d = decomposition(D8)
    assert sorted(c.q_dimension for c in q) == [1, 1, 1, 1, 4]
    assert sorted(c.q_dimension for c in d) == [1, 1, 1, 1, 4]
    qbig = max(q, key=lambda c: c.q_dimension)
    dbig = max(d, key=lambda c: c.q_dimension)
    assert qbig.conductor == 4 and qbig.x == 3 and qbig.center == RATIONALS
    assert dbig.conductor == 4 and dbig.x == 3 and dbig.center == RATIONALS
    # the twist separates the quaternions from the split algebra
    assert qbig.y == 2 and dbig.y == 0


def test_decomposition_order_27_exponent_9() -> None:
    comps = decomposition(M27)
    by_dim = Counter(c.q_dimension for c in comps)
    assert by_dim == {1: 1, 2: 4, 18: 1}
    big = max(comps, key=lambda c: c.q_dimension)
    assert big.total_degree == 3
    assert big.center == cyclotomic_field(3)
    assert big.conductor == 9


def test_dimension_identity_small_range() -> None:
    from metacyclic.invariants import construct_group, valid_tuples

    for inv in valid_tuples(32):
        G = construct_group(inv)
        assert sum(c.q_dimension for c in decomposition(G)) == G.order


def test_center_degrees_count_conjugacy_classes() -> None:
    """Each simple component with center F holds [F:Q] complex irreducible
    characters, so the center degrees add up to the class number, for
    every class up to order 256."""
    from metacyclic.invariants import construct_group, valid_tuples

    checked = 0
    for inv in valid_tuples(256):
        G = construct_group(inv)
        assert sum(c.center.degree for c in decomposition(G)) == \
            len(conjugacy_classes(G)), G
        checked += 1
    assert checked == 1365


def test_perlis_walker_multiplicities() -> None:
    assert perlis_walker((2,)) == ((1, 1), (2, 1))
    assert perlis_walker((6,)) == ((1, 1), (2, 1), (3, 1), (6, 1))
    assert perlis_walker((2, 2)) == ((1, 1), (2, 3))
    # QC4 = Q + Q + Q(i)
    assert perlis_walker((4,)) == ((1, 1), (2, 1), (4, 1))


def test_commutative_slice_matches_perlis_walker() -> None:
    for G in (S3, Q8, D8, M27, MetacyclicGroup(6, 2, 0, 5)):
        got = commutative_conductors(decomposition(G))
        want = perlis_walker_conductors(G.abelianization_invariants())
        assert got == want


def test_compare_algebras_verdicts() -> None:
    assert compare_algebras(Q8, D8) == UNKNOWN  # never EQUAL on this pair
    assert compare_algebras(Q8, Q8) == EQUAL
    assert compare_algebras(S3, MetacyclicGroup(6, 1, 0, 1)) == DIFFERENT


def test_no_two_classes_up_to_256_have_equal_algebras() -> None:
    """The paper's theorem: QG = QH forces G = H for metacyclic groups.
    compare_algebras answers EQUAL only when every descriptor matches, so
    EQUAL for two classes would contradict the theorem or the code.  The
    pairs that share a fingerprint stay UNKNOWN, since the descriptors do
    not decide Brauer classes."""
    buckets = defaultdict(list)
    for inv in valid_tuples(256):
        G = construct_group(inv)
        buckets[(G.order, fingerprint(decomposition(G)))].append(G)
    verdicts = Counter(compare_algebras(G, H) for same in buckets.values()
                       for G, H in itertools.combinations(same, 2))
    assert verdicts == {UNKNOWN: 77}


def test_fingerprint_is_degree_center_multiset() -> None:
    fp = fingerprint(decomposition(S3))
    assert len(fp) == 3
    assert fingerprint(decomposition(Q8)) == fingerprint(decomposition(D8))


def test_component_json_keys() -> None:
    comp = max(decomposition(Q8), key=lambda c: c.q_dimension)
    data = comp.to_json()
    assert set(data) == {"matrix_size", "conductor", "x", "y", "center", "degree", "dim"}
    assert data["dim"] == 4


def test_caches_keep_no_subgroups() -> None:
    # A presentation no other test classifies, so both caches start cold.
    G = MetacyclicGroup(35, 4, 14, 6)
    mcinv(G)
    decomposition(G)
    gc.collect()
    assert not [S for S in gc.get_objects()
                if isinstance(S, Subgroup) and S.group == G]
    assert "elements" not in vars(G)


def test_dimension_identity_failure_raises_invariant_error(capsys,
                                                           monkeypatch) -> None:
    real = wedderburn._component

    def inflated(*args):
        comp = real(*args)
        return comp._replace(q_dimension=comp.q_dimension + 1)

    monkeypatch.setattr(wedderburn, "_component", inflated)
    with pytest.raises(InvariantError, match="dimensions"):
        decomposition.__wrapped__(S3)
    # No other test decomposes this presentation, so the cache cannot answer.
    assert main(["wedderburn", "13", "6", "0", "10"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_fixed_field_order_check_raises_invariant_error(monkeypatch) -> None:
    # fixed_field is cached, so a fixer of the wrong order must raise.
    monkeypatch.setattr(wedderburn, "restrict", lambda T, q: cyclic_subgroup(1, q))
    with pytest.raises(InvariantError, match="conductor 8"):
        fixed_field.__wrapped__(8, cyclic_subgroup(7, 8))


def test_pair_and_component_checks_raise_invariant_error(monkeypatch) -> None:
    # Warms the mcinv answer the witness reads, with every row passing.
    G = MetacyclicGroup(24, 2, 6, 5)
    assert all(e["status"] == "pass" for e in section7_witness(G, 2))

    # With t read as acting trivially mod every c, each L is G; this group
    # has a non-normal K = <a^e b> with cyclic G/K, so L = G fails.
    monkeypatch.setattr(wedderburn, "mult_order", lambda x, n: 1)
    with pytest.raises(InvariantError, match="not normal"):
        strong_shoda_pairs(MetacyclicGroup(3, 6, 0, 2))
    monkeypatch.undo()

    monkeypatch.setattr(wedderburn, "cyclic_subgroup",
                        lambda x, d: cyclic_subgroup(1, d))
    with pytest.raises(InvariantError, match="action order"):
        decomposition.__wrapped__(S3)
    fails = [e for e in section7_witness(G, 2) if e["status"] != "pass"]
    assert len(fails) == 1 and "strong Shoda pair" in fails[0]["check"]
    assert "action order" in fails[0]["lhs"]
    monkeypatch.undo()

    # S3's class (3, 0, 2) has q = 0, so b acts by 2 mod 3 on chi(a) and
    # must fix chi(b^e0); with q = 1 the two residues disagree.
    monkeypatch.setattr(wedderburn, "_character", lambda B, e, alpha: 1 % B.idx)
    with pytest.raises(InvariantError, match="acts on L/K"):
        decomposition.__wrapped__(S3)
    monkeypatch.undo()

    monkeypatch.setattr(oracles, "part", lambda k, primes: 0)
    with pytest.raises(InvariantError, match="Hall"):
        hall_subgroup(G, (2,))


def test_answer_path_builds_no_element_sets(monkeypatch) -> None:
    """Membership and iteration read the triple; only idempotent_check
    and the tests build element sets."""
    # Orders 48 to 480: a non-canonical presentation of order 384, one of
    # the four classes up to 512 where formula_NG takes its L_2 branch
    # (odd p, even order), and applicable section7 witnesses.
    big, odd, s7 = (MetacyclicGroup(48, 8, 0, 5), MetacyclicGroup(21, 18, 0, 4),
                    MetacyclicGroup(240, 2, 30, 89))
    G = MetacyclicGroup(24, 2, 6, 5)

    def answers():
        return ([mcinv.__wrapped__(H) for H in (G, big, s7)],
                [decomposition.__wrapped__(H) for H in (G, big, odd)],
                formula_NE(G), formula_NE(s7), formula_NG(odd, 3),
                section7_witness(G, 2), section7_witness(s7, 2))

    want = answers()

    def no_sets(S):
        raise AssertionError(f"element set of {S!r} built")

    monkeypatch.setattr(Subgroup, "elems", property(no_sets))
    assert answers() == want
