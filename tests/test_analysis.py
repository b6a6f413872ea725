from __future__ import annotations

from fractions import Fraction

import pytest

from metacyclic import analysis
from metacyclic.analysis import (
    UVT,
    a1a2_components,
    canonical_form,
    count_B,
    count_C,
    formula_NE,
    formula_NG,
    max_degree_branch,
    recover_R,
    regime_U,
    section7_witness,
)
from metacyclic.cli import consistent_presentations
from metacyclic.group import (
    InvariantError,
    MetacyclicGroup,
    cocyclic_subgroup_from_triple,
    cocyclic_triples,
)
from metacyclic.invariants import construct_group, mcinv, realize, tuple_from_parts, valid_tuples
from metacyclic.numth import p_part, primes_of
from metacyclic.wedderburn import decomposition
from oracles import (ne_regime, normalizer_of_K, piIgual_check, scaled_sylow_generator,
                     sylow_first_regime_U, uvt_of)

S3 = MetacyclicGroup(3, 2, 0, 2)
Q8 = MetacyclicGroup(4, 2, 2, 3)
G219 = MetacyclicGroup(21, 9, 0, 16)


def test_canonical_form_is_idempotent_and_isomorphism_invariant() -> None:
    C = canonical_form(S3)
    assert canonical_form(C) == C
    assert mcinv(C)[0] == mcinv(S3)[0]
    # two presentations of the modular group of order 16 share one form
    assert canonical_form(MetacyclicGroup(8, 2, 0, 5)).key == \
        canonical_form(MetacyclicGroup(4, 4, 2, 3)).key


def test_a1a2_components_on_s3() -> None:
    degrees = sorted(c.total_degree for c in a1a2_components(decomposition(S3), 3))
    assert degrees == [1, 1, 2]


def _m_pi_prime(G: MetacyclicGroup) -> int:
    inv, der = mcinv(G)
    out = 1
    for q in der.pi_prime:
        out *= p_part(inv.m, q)
    return out


def test_recover_r_from_spectrum_alone() -> None:
    for G in (S3, MetacyclicGroup(6, 2, 0, 5), MetacyclicGroup(12, 2, 6, 5), G219):
        _, der = mcinv(G)
        m_pp = _m_pi_prime(G)
        got = recover_R(a1a2_components(decomposition(canonical_form(G)), m_pp), m_pp)
        assert got == der.R


def test_max_degree_branch_values() -> None:
    assert max_degree_branch(S3) == 2
    assert max_degree_branch(Q8) == 2
    comps = a1a2_components(decomposition(G219), _m_pi_prime(G219))
    assert max_degree_branch(G219) == max(c.total_degree for c in comps)


def test_count_b_and_its_formula() -> None:
    cases = {
        (24, 2, 6, 5): 5,
        (12, 4, 6, 11): 6,
        (12, 12, 6, 11): 13,
    }
    for key, want in cases.items():
        G = MetacyclicGroup(*key)
        assert count_B(G) == want
        assert formula_NE(G) == want


def test_formula_ne_outside_regime_returns_none() -> None:
    G = MetacyclicGroup(6, 2, 0, 5)  # D12: no quaternion 2-part
    assert formula_NE(G) is None
    assert count_B(G) == 2  # the brute count still works


def test_invariant_only_answers_do_not_depend_on_the_presentation() -> None:
    """Every consistent presentation up to order 64 gives the answers its
    canonical form gives.  The counts, the regime gates and the n/a test
    of section7_witness read only mcinv, decomposition and the Sylow
    tuples of the group they are given, so this pins that those agree."""
    for G in consistent_presentations(64):
        GC = canonical_form(G)
        assert count_B(G) == count_B(GC), G.key
        assert formula_NE(G) == formula_NE(GC), G.key
        assert max_degree_branch(G) == max_degree_branch(GC), G.key
        for p in mcinv(G)[1].pi:
            assert regime_U(G, p) == regime_U(GC, p), (G.key, p)
            if regime_U(G, p):
                assert count_C(G, p) == count_C(GC, p), (G.key, p)
            assert section7_witness(G, p) == section7_witness(GC, p), (G.key, p)


def test_regime_u_gate() -> None:
    assert regime_U(G219, 3)
    assert not regime_U(S3, 2)
    assert not regime_U(Q8, 2)


def test_count_c_matches_direct_formula() -> None:
    cases = [
        (G219, 3, 5),
        (MetacyclicGroup(6, 4, 6, 5), 2, 4),
        (MetacyclicGroup(12, 2, 6, 5), 2, 3),
    ]
    for G, p, want in cases:
        assert count_C(G, p) == want
        assert formula_NG(G, p)[0] == want


def test_displayed_table_disagreements_are_stable() -> None:
    """The printed closed-form table differs from the direct derivation
    on most inputs; these pinned values document the open question."""
    assert formula_NG(G219, 3) == (5, 7)
    assert formula_NG(MetacyclicGroup(6, 4, 6, 5), 2) == (4, 6)
    assert formula_NG(MetacyclicGroup(12, 2, 6, 5), 2) == (3, 7)


def test_displayed_table_can_even_go_non_integer() -> None:
    G = construct_group(tuple_from_parts(24, 8, 12, 12, 5))
    assert formula_NG(G, 2) == (count_C(G, 2), None)


def test_non_integer_direct_count_is_a_broken_identity(monkeypatch) -> None:
    """The direct parametrized count is an integer for every group in the
    regime, so a fractional one is an InvariantError (exit 2), not bad
    input.  Weights of 1/997 make the sum over fewer than 997 cocyclic
    subgroups a proper fraction."""
    def fractional(GC, p, uvt, l, ds):
        weights = {d: Fraction(1, 997) for d in ds}
        return weights, weights

    monkeypatch.setattr(analysis, "_mn_direct", fractional)
    with pytest.raises(InvariantError, match="non-integer"):
        formula_NG(G219, 3)


def test_uvt_basis_of_the_sylow_part() -> None:
    uvt = uvt_of(G219, 3)
    assert isinstance(uvt, UVT)
    assert (uvt.v, uvt.u, uvt.t) == (3, 3, 3)
    GC = canonical_form(G219)
    assert GC.element_order(uvt.g) == uvt.u
    assert GC.element_order(uvt.h) == uvt.v
    assert GC.generated([uvt.g, uvt.h]).order == uvt.u * uvt.v


def test_uvt_requires_the_regime() -> None:
    with pytest.raises(ValueError):
        uvt_of(S3, 2)


def _outcome(f, *args):
    """f(*args), or the type of the exception it raises."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc)


def test_sylow_shortcuts_against_the_sylow_tuple_routes() -> None:
    """`_ne_regime` (local_params) and `_scaled_sylow_generator` (the s of
    `sylow_presentation`) against the routes through the Sylow subgroup's
    own tuple and a `dlog`, on every class up to order 512 and every p in
    pi of its canonical presentation."""
    classes = shapes = pairs = 0
    for inv in valid_tuples(512):
        G = construct_group(inv)
        got = analysis._ne_regime(G)
        assert got == ne_regime(G), inv
        classes += 1
        shapes += got is not None
        for p in mcinv(G)[1].pi:
            assert _outcome(analysis._scaled_sylow_generator, G, p) == \
                _outcome(scaled_sylow_generator, G, p), (inv, p)
            pairs += 1
    assert (classes, shapes, pairs) == (3326, 78, 5400)


def test_regime_U_against_the_sylow_first_clause_order() -> None:
    """`regime_U`, which reads the global clauses before the Sylow data,
    against the same clauses with the Sylow data read first, on every
    class up to order 512 and every prime of its order."""
    pairs = inside = 0
    for inv in valid_tuples(512):
        G = construct_group(inv)
        for p in sorted(primes_of(G.order)):
            got = regime_U(G, p)
            assert got == sylow_first_regime_U(G, p), (inv, p)
            pairs += 1
            inside += got
    assert (pairs, inside) == (7820, 307)


def test_normalizer_prediction_matches_group_computation() -> None:
    GC = canonical_form(G219)
    uvt = uvt_of(GC, 3)
    for triple in cocyclic_triples(uvt.u, uvt.v, 3):
        K = cocyclic_subgroup_from_triple(GC, uvt.g, uvt.h, triple)
        predicted = normalizer_of_K(GC, 3, triple)
        assert GC.normalizer(K).elems == predicted.elems, triple
    for triple in ((1, 1, 2), (3, 1, 1), (2, 1, 1), (2, 9, 3)):
        with pytest.raises(ValueError):
            normalizer_of_K(GC, 3, triple)


def test_regime_constructions_build_the_canonical_form_once(monkeypatch) -> None:
    """formula_NG and normalizer_of_K gate on regime_U, then build the
    canonical presentation once and read u, v, t off it."""
    built = []

    def counted(inv):
        built.append(inv)
        return construct_group(inv)

    monkeypatch.setattr(analysis, "construct_group", counted)
    formula_NG(G219, 3)
    assert len(built) == 1
    built.clear()
    normalizer_of_K(G219, 3, (1, 1, 1))
    assert len(built) == 1
    built.clear()
    with pytest.raises(ValueError):
        normalizer_of_K(S3, 2, (1, 1, 1))
    assert built == []


def test_section7_witness_not_applicable_when_r_fills_m_prime() -> None:
    w = section7_witness(S3, 2)
    assert len(w) == 1 and w[0]["status"] == "n/a"


def test_section7_witness_case2() -> None:
    w = section7_witness(MetacyclicGroup(24, 2, 6, 5), 2)
    assert len(w) == 10
    assert all(e["status"] == "pass" for e in w)
    assert any(e["check"].startswith("case 2:") for e in w)
    assert any("strong Shoda pair" in e["check"] for e in w)


def test_section7_witness_case1() -> None:
    G = construct_group(tuple_from_parts(24, 8, 24, 24, 5))
    w = section7_witness(G, 2)
    assert all(e["status"] == "pass" for e in w)
    assert any(e["check"].startswith("case 1:") for e in w)


def test_section7_witness_case3() -> None:
    G = construct_group(tuple_from_parts(80, 4, 40, 80, 3))
    w = section7_witness(G, 2)
    assert all(e["status"] == "pass" for e in w)
    assert any(e["check"].startswith("case 3:") for e in w)


def test_pi_equality_report_on_matching_tuples() -> None:
    report = piIgual_check(S3, MetacyclicGroup(3, 2, 3, 2))
    assert len(report) == 6
    assert all(e["status"] == "pass" for e in report)


def test_pi_equality_report_premise_gate() -> None:
    report = piIgual_check(S3, MetacyclicGroup(6, 2, 0, 5))
    assert report[0]["status"] == "n/a"


def test_pi_equality_report_against_the_canonical_form() -> None:
    """Every presentation up to order 64 and its canonical form agree on
    Perlis-Walker, pi, pi', m_pi', n_pi' and the Sylow tuples, each read
    from the presentation itself."""
    presentations = rows = 0
    for G in consistent_presentations(64):
        report = piIgual_check(G, realize(mcinv(G)[0]))
        assert all(e["status"] == "pass" for e in report), (G, report)
        presentations += 1
        rows += len(report)
    assert (presentations, rows) == (3786, 25712)
