from __future__ import annotations

import math

import pytest

from metacyclic import invariants
from metacyclic.analysis import a1a2_components
from metacyclic.cli import consistent_presentations
from metacyclic.group import InvariantError, MetacyclicGroup
from metacyclic.invariants import (
    MCInv,
    construct_group,
    derive_rek,
    isomorphic,
    m_prime_of,
    mcinv,
    pi_sets,
    sylow_mcinv_consistency,
    sylow_presentation,
    t_subgroup,
    tuple_from_parts,
    valid_tuples,
    validate_tuple,
)
from metacyclic.numth import (cyclic_subgroup, cyclic_subgroups, divisors, part,
                              primes_of, trivial_subgroup)
from metacyclic.wedderburn import decomposition
from oracles import (coset_order, derived_part, derived_subgroup,
                     element_sylow_presentation, largest_cofactor_index,
                     restricting_derive_rek, sorted_factor_rows,
                     subfield_a1a2_components, walking_construct_group)


def test_mcinv_golden_tuples() -> None:
    cases = {
        (3, 2, 0, 2): (3, 2, 3, 3, 2),      # S3
        (4, 2, 2, 3): (4, 2, 2, 4, 3),      # Q8
        (4, 2, 0, 3): (4, 2, 4, 4, 3),      # D8
        (8, 2, 0, 5): (4, 4, 2, 4, 3),      # modular group of order 16
        (9, 3, 0, 4): (9, 3, 3, 3, 1),
        (6, 2, 0, 5): (6, 2, 6, 6, 5),      # D12
        (12, 2, 6, 5): (12, 2, 6, 12, 5),
    }
    for key, (m, n, s, m_prime, delta_gen) in cases.items():
        inv, _ = mcinv(MetacyclicGroup(*key))
        assert inv == tuple_from_parts(m, n, s, m_prime, delta_gen), key


def test_mcinv_derived_invariants() -> None:
    _, der = mcinv(MetacyclicGroup(3, 2, 0, 2))
    assert (der.r, der.eps, der.k) == (1, 1, 2)
    assert der.pi == (2,) and der.pi_prime == (3,)
    _, der = mcinv(MetacyclicGroup(4, 2, 2, 3))
    assert (der.r, der.eps, der.k) == (4, -1, 1)
    assert der.pi == (2,) and der.pi_prime == ()
    _, der = mcinv(MetacyclicGroup(12, 2, 6, 5))
    assert (der.r, der.eps, der.k) == (4, 1, 2)
    assert der.R.elements == (1, 2)  # restriction to the 3-part


def test_R_against_the_action_on_the_derived_part() -> None:
    """R = <t> mod the pi'-part of |G'| against `t_subgroup` of the
    pi'-part of G', cut out of the generator of `derived_subgroup(G)`, for
    every consistent presentation up to order 64."""
    checked = 0
    for G in consistent_presentations(64):
        der = mcinv(G)[1]
        assert der.R == t_subgroup(G, derived_part(G, der.pi_prime)), G
        checked += 1
    assert checked == 3786


def test_derive_rek_spot_values() -> None:
    assert derive_rek(8, cyclic_subgroup(7, 8)) == (8, -1, 1)
    assert derive_rek(8, cyclic_subgroup(3, 8)) == (4, -1, 1)
    assert derive_rek(12, cyclic_subgroup(5, 12)) == (4, 1, 2)
    assert derive_rek(15, cyclic_subgroup(2, 15)) == (1, 1, 4)
    assert derive_rek(9, trivial_subgroup(9)) == (9, 1, 1)


def test_t_subgroup_requires_normal_cyclic() -> None:
    G = MetacyclicGroup(4, 2, 0, 3)  # D8
    refl = G.cyclic_subgroup(G.gen_b)
    with pytest.raises(ValueError):
        t_subgroup(G, refl)  # not normal


def test_minimal_factorization_shapes() -> None:
    # m = |A| for a minimal factorization G = AB: S3 = C3 C2, and the
    # modular group of order 16 admits a smaller kernel than <a>.  Each
    # action returned is that of a cyclic A of order m containing G',
    # with a cyclic B of index s such that A and B generate G.
    for G, m in ((MetacyclicGroup(3, 2, 0, 2), 3), (MetacyclicGroup(8, 2, 0, 5), 4)):
        assert mcinv(G)[0].m == m
        (m_min, _, s), actions = invariants._minimal_factors(G)
        assert m_min == m and actions
        derived = derived_subgroup(G)
        cyclics = G.cyclic_subgroups()
        factors = [A for A in cyclics
                   if A.order == m and all(x in A for x in derived)]
        cofactors = [B for B in cyclics if B.order * s == G.order]
        for T in actions:
            assert any(t_subgroup(G, A) == T
                       and any(G.generated(A.gens + B.gens).order == G.order
                               for B in cofactors)
                       for A in factors)


def _minimal_pairs(G: MetacyclicGroup):
    """((m, r, s), pairs) over all factorizations achieving the minimum:
    every normal cyclic A ranked by (|A|, r), against every cyclic B.
    The search `_minimal_factors` replaced, kept as its oracle."""
    order = G.order
    cyclics = [(B, B.generator) for B in G.cyclic_subgroups()]
    ranked = []
    for A, _ in cyclics:
        if A.is_normal:
            ranked.append((A.order, derive_rek(A.order, t_subgroup(G, A))[0], A))
    ranked.sort(key=lambda t: t[:2])
    best_key = None
    pairs = []
    for oa, ra, A in ranked:
        if best_key is not None and (oa, ra) > best_key[:2]:
            break
        n = order // oa
        for B, y in cyclics:
            # A is normal, so G = AB iff B maps onto the cyclic G/A.
            if B.order % n or not G.generates_quotient(y, A, n):
                continue
            key = (oa, ra, order // B.order)
            if best_key is None or key < best_key:
                best_key, pairs = key, [(A, B)]
            elif key == best_key:
                pairs.append((A, B))
    return best_key, pairs


def test_minimal_factors_against_the_pair_search(monkeypatch) -> None:
    """Same key, and the same actions in the same order: those of the
    distinct factors A of the minimizing pairs, for every class up to
    order 256 and every consistent presentation up to order 64.  The A
    handed to `_cofactor_index` are those of the sorted route the block
    walk replaced (`sorted_factor_rows`), cut after the least order that
    factors; the totals pin the blocks solved and the rows reached by the
    walk against the blocks and rows of that route."""
    checked = 0
    groups = [construct_group(inv) for inv in valid_tuples(256)]
    tried, solved = [], []
    cofactor_index, canonical_es = invariants._cofactor_index, invariants.canonical_es
    monkeypatch.setattr(invariants, "_cofactor_index",
                        lambda G, A: tried.append(A) or cofactor_index(G, A))
    monkeypatch.setattr(invariants, "canonical_es",
                        lambda *args: solved.append(args) or canonical_es(*args))
    reached = old_blocks = old_rows = 0
    for G in groups + consistent_presentations(64):
        key, pairs = _minimal_pairs(G)
        actions = tuple(t_subgroup(G, A) for A in dict.fromkeys(A for A, _ in pairs))
        tried.clear()
        assert invariants._minimal_factors(G) == (key, actions), G
        rows = sorted_factor_rows(G)
        assert [A.triple for A in tried] == [
            triple for order, triple in rows if order <= key[0]], G
        reached += len(tried)
        old_blocks += len(divisors(math.gcd(G.t - 1, G.m))) * len(divisors(G.n))
        old_rows += len(rows)
        checked += 1
    assert checked == 5151
    assert (len(solved), reached, old_blocks, old_rows) == (8694, 11379, 34422, 39072)


def test_cofactor_index_against_the_walk_over_b() -> None:
    """The closed form [G:B] = gcd(sigma, Sigma, |A|), and None for a
    non-cyclic G/A, against the largest cyclic B onto G/A found from the
    end of `cyclic_subgroups()`, for every cyclic A containing G' of every
    consistent presentation up to order 64.  The action returned with it,
    read from the one generator beta of G/A, equals `t_subgroup`, which
    conjugates by both a and b."""
    checked = not_cyclic = 0
    for G in consistent_presentations(64):
        g = math.gcd(G.t - 1, G.m)
        cyclics = G.cyclic_subgroups()
        for A in cyclics:
            if g % A.triple[0] == 0:
                want = largest_cofactor_index(G, A, cyclics)
                assert invariants._cofactor_index(G, A) == (
                    None if want is None else (want, t_subgroup(G, A))), (G, A)
                checked += 1
                not_cyclic += want is None
    assert (checked, not_cyclic) == (21883, 1563)


def test_factorization_test_matches_the_coset_order_scan() -> None:
    """For a normal cyclic A of index n, G = AB iff the generator of B has
    coset order n mod A.  `generates_quotient`, which the walk over B in
    `tests/oracles.py` and `wedderburn._coset_generator` call, asks instead
    that no x^(n/q) lies in A for a prime q | n; the two agree on every
    such pair (A, B), for every class up to order 128."""
    checked = 0
    for inv in valid_tuples(128):
        G = construct_group(inv)
        cyclics = [(B, B.generator) for B in G.cyclic_subgroups()]
        for A, _ in cyclics:
            if not A.is_normal:
                continue
            n = G.order // A.order
            for B, x in cyclics:
                if B.order % n == 0:
                    assert G.generates_quotient(x, A, n) == \
                        (coset_order(G, x, A) == n), (G, A, B)
                    checked += 1
    assert checked == 24839


def test_mcinv_raises_when_minimal_factors_disagree(monkeypatch) -> None:
    """delta is computed once per minimizing factor A (C3 x C3 has four,
    each with three cyclic B of index 3), and a second A whose delta
    differs still raises."""
    G = MetacyclicGroup(3, 3, 0, 1)
    calls = []

    def modulus(*args):
        calls.append(args)
        return m_prime_of(*args) if len(calls) == 1 else 1

    monkeypatch.setattr(invariants, "m_prime_of", modulus)
    with pytest.raises(InvariantError, match="disagree"):
        mcinv.__wrapped__(G)
    assert len(calls) == 4


def test_pi_sets() -> None:
    assert pi_sets(MetacyclicGroup(3, 2, 0, 2)) == ((2,), (3,))
    assert pi_sets(MetacyclicGroup(4, 2, 2, 3)) == ((2,), ())
    assert pi_sets(MetacyclicGroup(9, 3, 0, 4)) == ((3,), ())


def test_isomorphic_matches_brute_force_on_spot_pairs() -> None:
    Q8 = MetacyclicGroup(4, 2, 2, 3)
    D8 = MetacyclicGroup(4, 2, 0, 3)
    assert not isomorphic(Q8, D8)
    # same group through two presentations
    M16a = MetacyclicGroup(8, 2, 0, 5)
    M16b = construct_group(mcinv(M16a)[0])
    assert isomorphic(M16a, M16b)
    assert M16a.brute_force_isomorphic(M16b)


def test_validate_tuple_accepts_canonical_values() -> None:
    for key in ((4, 2, 4, 4, 3), (4, 2, 2, 4, 3), (3, 2, 3, 3, 2)):
        inv = tuple_from_parts(*key)
        ok, reasons = validate_tuple(inv.m, inv.n, inv.s, inv.delta)
        assert ok and reasons == ()


def test_validate_tuple_rejects_with_named_reason() -> None:
    ok, reasons = validate_tuple(8, 2, 8, cyclic_subgroup(3, 4))
    assert not ok
    assert any("s_2" in r for r in reasons)


def test_validate_tuple_reasons_are_pinned() -> None:
    """The full reasons tuple, one rejected tuple per clause and per
    branch of (c) and (d), and one tuple failing four clauses at once,
    which pins the order of the reasons."""
    cases = {
        (9, 3, 6, 3, 1): ("(a) s does not divide m",),
        (3, 1, 3, 3, 2): ("(a) |delta| does not divide n",),
        (3, 1, 1, 1, 0): ("(a) m, s, m' disagree at the primes outside r",),
        (2, 2, 2, 1, 0): ("(b) modulus of delta violates the m' formula at a prime of r",),
        (16, 2, 16, 4, 3): ("(c) m_2 / r_2 exceeds n_2",),
        (4, 2, 1, 4, 3): ("(c) m_2 exceeds 2 s_2",),
        (8, 2, 8, 4, 3): ("(c) s_2 equals n_2 r_2",),
        (8, 4, 4, 8, 7): ("(c) r_2 exceeds s_2 although 4 | n, 8 | m and k_2 < n_2",),
        (2, 1, 2, 2, 1): ("(d) s_2 outside the range [m_2/r_2, n_2]",),
        (7, 1, 7, 7, 1): ("(d) s_7 outside the range [m_7/r_7, n_7]",),  # s_p > n_p
        (27, 3, 3, 3, 1): ("(d) s_3 outside the range [m_3/r_3, n_3]",),  # m_p/r_p > s_p
        (2, 1, 1, 2, 1): ("(d) r_2 > s_2 but n_2 >= s_2 k_2",),
        (7, 1, 1, 7, 1): ("(d) r_7 > s_7 but n_7 >= s_7 k_7",),
        (120, 4, 1, 24, 19): (
            "(a) m, s, m' disagree at the primes outside r",
            "(b) modulus of delta violates the m' formula at a prime of r",
            "(c) m_2 exceeds 2 s_2",
            "(c) r_2 exceeds s_2 although 4 | n, 8 | m and k_2 < n_2",
            "(d) r_3 > s_3 but n_3 >= s_3 k_3",
        ),
    }
    for (m, n, s, mp, gen), reasons in cases.items():
        assert validate_tuple(m, n, s, cyclic_subgroup(gen, mp)) == (False, reasons), (m, n, s)


def test_validate_tuple_raises_on_malformed_input() -> None:
    with pytest.raises(ValueError):
        validate_tuple(4, 2, 0, cyclic_subgroup(3, 4))  # s must be a positive divisor
    with pytest.raises(ValueError):
        validate_tuple(4, 2, 4, cyclic_subgroup(2, 5))  # modulus does not divide m


def test_mcinv_is_a_fixed_point_on_valid_tuples() -> None:
    for inv in valid_tuples(48):
        G = construct_group(inv)
        again, _ = mcinv(G)
        assert again == inv


def test_valid_tuples_counts_and_sorting() -> None:
    tuples_32 = valid_tuples(32)
    assert len(tuples_32) == 88
    assert len(valid_tuples(64)) == 223
    keys = [inv.sort_key() for inv in tuples_32]
    assert keys == sorted(keys)
    # nested bounds nest as prefixes of the same ordering
    assert set(valid_tuples(16)) <= set(tuples_32)


def _filtered_tuples(max_order: int) -> list[MCInv]:
    """Every combination (order, m | order, m' | m, cyclic delta mod m',
    s | m) through `validate_tuple`: the oracle for the generator."""
    out = []
    for order in range(1, max_order + 1):
        for m in divisors(order):
            for mp in divisors(m):
                for delta in cyclic_subgroups(mp):
                    for s in divisors(m):
                        if validate_tuple(m, order // m, s, delta)[0]:
                            out.append(MCInv(m, order // m, s, delta))
    return sorted(out, key=MCInv.sort_key)


def test_valid_tuples_equal_the_filtered_combinations() -> None:
    """Same tuples in the same order, ties of the sort key included."""
    assert list(valid_tuples(512)) == _filtered_tuples(512)


def test_valid_tuples_raises_when_validate_tuple_rejects_a_tuple(monkeypatch) -> None:
    """Every generated tuple goes through `validate_tuple`; one that it
    rejects is an error, not a tuple left out."""
    real = invariants.validate_tuple

    def reject_order_12(m, n, s, delta):
        return (False, ("made up",)) if m * n == 12 else real(m, n, s, delta)

    monkeypatch.setattr(invariants, "validate_tuple", reject_order_12)
    with pytest.raises(InvariantError, match="made up"):
        valid_tuples.__wrapped__(16)


def test_construct_group_is_deterministic() -> None:
    inv = tuple_from_parts(12, 2, 6, 12, 5)
    assert construct_group(inv).key == construct_group(inv).key
    G = construct_group(inv)
    assert mcinv(G)[0] == inv


def test_residue_predicates_against_the_restricting_routes() -> None:
    """derive_rek and construct_group, which read residues, against the
    routes that build, restrict and walk unit subgroups: on every tuple up
    to order 512, and derive_rek also on the action of every consistent
    presentation of order 64 on each of its normal cyclic subgroups, a
    few of which are not cyclic.  a1a2_components, which divides by
    conductors, against the filter by is_subfield on every class up to
    order 128."""
    tuples = valid_tuples(512)
    for inv in tuples:
        want = restricting_derive_rek(inv.m, inv.delta)
        assert derive_rek.__wrapped__(inv.m, inv.delta) == want, inv
        assert construct_group(inv).key == walking_construct_group(inv).key, inv
    actions = not_cyclic = 0
    for G in consistent_presentations(64):
        if G.order != 64:
            continue
        for A in G.cyclic_subgroups():
            if A.is_normal:
                T = t_subgroup(G, A)
                assert derive_rek.__wrapped__(A.order, T) == \
                    restricting_derive_rek(A.order, T), (G, A)
                actions += 1
                not_cyclic += not T.is_cyclic
    classes = 0
    for inv in valid_tuples(128):
        G = construct_group(inv)
        m_pi_prime = part(inv.m, mcinv(G)[1].pi_prime)
        decomp = decomposition(G)
        assert a1a2_components(decomp, m_pi_prime) == \
            subfield_a1a2_components(decomp, m_pi_prime), inv
        classes += 1
    assert (len(tuples), actions, not_cyclic, classes) == (3326, 1622, 4, 554)


def test_m_prime_of_matches_published_tuples() -> None:
    # S3: r = 1, k = 2 acting on the full odd part
    assert m_prime_of(3, 2, 3, 1, 1, 2) == 3
    # Q8: everything sits in the 2-part
    assert m_prime_of(4, 2, 2, 4, -1, 1) == 4


def test_sylow_presentation_orders() -> None:
    G = MetacyclicGroup(12, 2, 6, 5)
    S2 = sylow_presentation(G, 2)
    assert S2.order == 8
    S3 = sylow_presentation(G, 3)
    assert S3.order == 3


def test_sylow_presentation_against_the_element_route() -> None:
    """The closed form of `sylow_presentation`, read off the exponents of
    a and b, against the `dlog`s of b_p^(n_p) and of b_p^-1 a_p b_p to the
    base a_p, for every prime p of |G| and every G among the consistent
    presentations up to order 64 and the classes up to order 512."""
    groups = consistent_presentations(64) + [construct_group(inv)
                                             for inv in valid_tuples(512)]
    checked = 0
    for G in groups:
        for p in sorted(primes_of(G.order)):
            assert sylow_presentation(G, p).key == \
                element_sylow_presentation(G, p).key, (G, p)
            checked += 1
    assert checked == 14804


def test_sylow_consistency_all_pass_on_samples() -> None:
    samples = [
        MetacyclicGroup(3, 2, 0, 2),
        MetacyclicGroup(4, 2, 2, 3),
        MetacyclicGroup(8, 2, 0, 5),
        MetacyclicGroup(12, 2, 6, 5),
        MetacyclicGroup(12, 4, 6, 5),
    ]
    for G in samples:
        _, der = mcinv(G)
        for p in der.pi:
            for entry in sylow_mcinv_consistency(G, p):
                assert entry["status"] == "pass", (G, p, entry)


def test_sylow_consistency_rejects_p_outside_pi() -> None:
    G = MetacyclicGroup(3, 2, 0, 2)
    with pytest.raises(ValueError):
        sylow_mcinv_consistency(G, 3)


def test_sylow_consistency_mixed_sign_families() -> None:
    """Groups whose local 2-tuple inverts while the global sign differs.

    The smallest members sit at order 160; both shapes must pass the
    corrected comparison clauses.
    """
    # eps = 1 against local e = -1: n_2 = k_2 may exceed 2
    G = construct_group(tuple_from_parts(160, 4, 10, 160, 17))
    report = {e["check"]: e["status"] for e in sylow_mcinv_consistency(G, 2)}
    assert report["4b: eps = 1 shape"] == "pass"
    # r_2 = m_2 = 2^(rho+1): global action restricts to <-1> mod m_2
    H = construct_group(tuple_from_parts(40, 4, 20, 40, 7))
    report = {e["check"]: e["status"] for e in sylow_mcinv_consistency(H, 2)}
    assert report["2: r_p matches rho when the orders match"] == "pass"
    assert all(v == "pass" for v in report.values())


def test_mcinv_tuple_json_and_ordering() -> None:
    inv = tuple_from_parts(4, 2, 2, 4, 3)
    assert inv.to_json() == {"m": 4, "n": 2, "s": 2, "m_prime": 4, "delta_gen": 3}
    assert inv.order == 8
    assert isinstance(inv, MCInv)
