"""Verification harness over enumerated metacyclic groups.

Operationalizes the assertable constructions of the classification
argument as checks on computed Wedderburn decompositions: component
counts keyed by degree, center embedding and torsion; recovery of the
outer action on the pi'-part from the algebra alone; two component
counting formulas, each paired with an independent brute-force count;
and explicit strong Shoda pair witnesses for the distinguished
components used to pin down the action at a prime of r.

Formula evaluation and brute-force counting deliberately share no
intermediate values, so an integer equality between them is evidence,
not tautology.  The component counts, the regime gates and the local
Sylow data depend only on the isomorphism class, so `count_B`,
`count_C` and `regime_U` take any presentation as it is.  Only the
witness constructions refer to the generators a and b of a minimal
metacyclic factorization: `max_degree_branch`, `formula_NE` and
`section7_witness` rebuild the canonical presentation once their
invariant-only gate has passed, and `formula_NG` once `regime_U` holds.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .group import (
    El,
    InvariantError,
    MetacyclicGroup,
    Subgroup,
    cocyclic_subgroup_from_triple,
    cocyclic_subgroups_of_product,
    cocyclic_triples,
)
from .invariants import (
    check_entry,
    construct_group,
    local_params,
    mcinv,
    sylow_presentation,
)
from .numth import (
    UnitSubgroup,
    cyclic_subgroup,
    geom_sum,
    lcm,
    p_part,
    part,
    phi,
    primes_of,
    vp,
)
from .wedderburn import (
    FixedField,
    SimpleComponent,
    component_of,
    cyclotomic_field,
    decomposition,
    fixed_field,
    galois_preimage,
    intersect_cyclotomic,
    is_subfield,
)


def canonical_form(G: MetacyclicGroup) -> MetacyclicGroup:
    """Presentation rebuilt from the classifying tuple.

    Its generators realize a minimal metacyclic factorization, which the
    constructions below assume.
    """
    return construct_group(mcinv(G)[0])


# -- counting components by degree and center -------------------------------


def a1a2_components(decomp, m_pi_prime: int) -> tuple[SimpleComponent, ...]:
    """Components whose center embeds in Q(zeta_{m_pi'}) and whose only
    roots of unity are +-1.  Conductors are minimal and never 2 mod 4,
    so a center embeds iff its conductor divides m_pi'."""
    return tuple(comp for comp in decomp
                 if m_pi_prime % comp.center.conductor == 0
                 and comp.center.torsion == 2)


def _count_components(decomp, degree: int, banned: tuple[int, ...]) -> int:
    """Components of the given degree whose center has no root of unity
    of an order in banned."""
    count = 0
    for comp in decomp:
        if comp.total_degree == degree:
            tor = comp.center.torsion
            count += not any(tor % q == 0 for q in banned)
    return count


def _base_field(GC: MetacyclicGroup) -> FixedField:
    inv, der = mcinv(GC)
    return fixed_field(part(inv.m, der.pi_prime), der.R)


# -- recovering the pi'-action from the algebra ------------------------------


def recover_R(cands, m_pi_prime: int) -> UnitSubgroup:
    """Action subgroup mod m_pi' read off the decomposition alone, given
    its A1/A2 components `a1a2_components(decomp, m_pi_prime)`.

    Among the components whose center embeds in Q(zeta_{m_pi'}) with
    torsion exactly +-1, the maximal-degree ones have the base field F0
    as largest center; R is its Galois group, recovered as the preimage
    of the center's fixer.  The input group is never consulted, so the
    result can be compared against the group-theoretic action.  The
    caller filters the components, so a check that also reads their top
    degree filters them once.
    """
    if not cands:
        raise ValueError("no component passes the A1/A2 filter")
    top = max(comp.total_degree for comp in cands)
    centers = [comp.center for comp in cands if comp.total_degree == top]
    best = max(centers, key=lambda F: F.degree)
    if not all(is_subfield(F, best) for F in centers):
        raise InvariantError("maximal-degree centers are not nested")
    return galois_preimage(best, m_pi_prime)


def max_degree_branch(G: MetacyclicGroup) -> int:
    """Predicted maximal degree among A1/A2 components: k, doubling
    exactly when eps = -1, k is odd and a_2^2 avoids <b^4>."""
    _, der = mcinv(G)
    if der.eps == -1 and der.k % 2:
        GC = canonical_form(G)
        a2sq = GC.power(GC.element_part(GC.gen_a, (2,)), 2)
        b4 = GC.cyclic_subgroup(GC.power(GC.gen_b, 4))
        if a2sq not in b4:
            return 2 * der.k
    return der.k


# -- countB: components of degree k over the rationals -----------------------


def count_B(G: MetacyclicGroup) -> int:
    """Components of degree k with no root of unity of odd order from pi."""
    _, der = mcinv(G)
    return _count_components(decomposition(G), der.k,
                             tuple(q for q in der.pi if q != 2))


def _ne_regime(G: MetacyclicGroup) -> tuple[str, int] | None:
    """Shape and nu when the 2-local structure matches the counting
    argument's two group shapes; None otherwise.  Both shapes have
    s_2 = k_2 = 2, which the global tuple decides, so the Sylow
    2-subgroup is classified only once those hold."""
    inv, der = mcinv(G)
    if 2 not in der.pi or p_part(inv.s, 2) != 2 or p_part(der.k, 2) != 2:
        return None
    mu, nu, sigma, _, e = local_params(G, 2)
    if (mu, sigma, e) != (2, 1, -1) or nu < 2:
        return None
    m2, n2, r2 = p_part(inv.m, 2), p_part(inv.n, 2), p_part(der.r, 2)
    if der.eps == 1 and m2 == 2 ** (nu + 1) and n2 == 2 and r2 == 2 ** nu:
        return ("split", nu)
    if der.eps == -1 and m2 == 4 and r2 == 4 and n2 == 2 ** nu:
        return ("nonsplit", nu)
    return None


def formula_NE(G: MetacyclicGroup) -> int | None:
    """Predicted number of degree-k components with 2-only pi-torsion.

    The qualifying components correspond to orbits of pairs (K_pi', K_2)
    under conjugation, K_pi' cocyclic in <a_pi'> x <b_pi'^k> clearing
    the commutator conditions and K_2 cocyclic in L_2.  When <a_2>
    splits off, every K_2 is normal and the count factors as
    d*(nu+2) + d1.  Otherwise L_2 = C_2 x C_{2^nu} carries one conjugate
    pair of 2-parts, swapped exactly by odd powers of b, so the mixed
    orbits are counted under the b^2-subaction instead of factoring:
    2*nu*d + O(Q1) + O(Q2) with O the b^2-orbit count.
    """
    data = _ne_regime(G)
    if data is None:
        return None
    shape, nu = data
    GC = canonical_form(G)
    _, der = mcinv(GC)
    k = der.k
    a_pp = GC.element_part(GC.gen_a, der.pi_prime)
    b_pp_k = GC.power(GC.element_part(GC.gen_b, der.pi_prime), k)
    subs = cocyclic_subgroups_of_product(GC, a_pp, b_pp_k)
    qs = sorted(primes_of(k))
    w = {q: GC.comm(GC.power(GC.gen_b, k // q), a_pp) for q in qs}
    q1 = [P for P in subs if all(w[q] not in P for q in qs)]
    q2 = [P for P in subs
          if w[2] in P and all(w[q] not in P for q in qs if q != 2)]
    d = len(GC.subgroup_classes(q1))
    d1 = len(GC.subgroup_classes(q2))
    if shape == "split":
        return d * (nu + 2) + d1
    bb = (GC.power(GC.gen_b, 2),)
    o1 = len(GC.subgroup_classes(q1, gens=bb))
    o2 = len(GC.subgroup_classes(q2, gens=bb))
    return 2 * nu * d + o1 + o2


# -- countC: components of prescribed degree over the base field -------------


class UVT(NamedTuple):
    """Basis data for the Sylow p-part of L = <a, b^l>.

    L_p = <g> x <h> with |g| = u, |h| = v; t is the threshold separating
    triples whose subgroups are normal from those with proper normalizer
    <a, b^(y/t)>.  Elements refer to the canonical presentation.
    """

    v: int
    u: int
    t: int
    g: El
    h: El


def regime_U(G: MetacyclicGroup, p: int) -> bool:
    """Literal standing assumptions of the degree-l counting argument.

    Conservative: any failed clause excludes the group from the formula
    rather than guessing.  The clauses on the global tuple (p in pi,
    eps = 1, k_p > 1) are tested before the Sylow p-subgroup is
    classified for the local ones.
    """
    inv, der = mcinv(G)
    if p not in der.pi:
        return False
    k_p = p_part(der.k, p)
    if der.eps != 1 or k_p == 1:
        return False
    mu, nu, sigma, rho, e = local_params(G, p)
    if e != 1:
        return False
    n_p, s_p = p_part(inv.n, p), p_part(inv.s, p)
    l_p = max(k_p, p ** (mu - rho))
    if not (0 < mu <= 2 * rho and 1 <= rho == sigma < nu):
        return False
    if not (l_p < p ** nu and s_p == p ** rho and max(l_p, p ** rho) <= n_p):
        return False
    return n_p == p ** nu or n_p < min(p ** nu, p ** rho * k_p)


def _scaled_sylow_generator(G: MetacyclicGroup, p: int) -> El:
    """Generator of the p-part of <a> scaled so that b_p^{n_p} = a_p^{s_p}.

    element_part gives some generator a_p with b_p^{n_p} = a_p^e, where e,
    the s of `sylow_presentation`, is only associate to s_p (same cyclic
    subgroup).  The two-generator basis formulas below need the relation
    on the nose, so absorb the unit cofactor into the generator.  G is the
    canonical presentation, so its n_p is the tuple's.
    """
    inv, _ = mcinv(G)
    a_p = G.element_part(G.gen_a, (p,))
    e = sylow_presentation(G, p).s
    if e == 0:
        return a_p
    s_p = p_part(inv.s, p)
    w, back = divmod(e, s_p)
    if back or w % p == 0:
        raise InvariantError(f"b_p^n_p = a_p^{e} is not a_p^(s_p w), w a unit")
    return G.power(a_p, w)


def _uvt(GC: MetacyclicGroup, p: int) -> UVT:
    """The `UVT` of the canonical presentation GC of a group in the
    counting regime at p (`regime_U`)."""
    inv, der = mcinv(GC)
    mu, nu, _, rho, _ = local_params(GC, p)
    l_p = max(p_part(der.k, p), p ** (mu - rho))
    n_p = p_part(inv.n, p)
    v = min(n_p // l_p, p ** rho)
    u = p ** (mu + nu) // (v * l_p)
    if p ** (nu + 2 * rho) % (v * v * l_p):
        raise InvariantError(f"v^2 l_p = {v * v * l_p} does not divide p^(nu + 2 rho)")
    t = p ** (nu + 2 * rho) // (v * v * l_p)
    a_p = _scaled_sylow_generator(GC, p)
    b_p = GC.element_part(GC.gen_b, (p,))
    if n_p <= l_p * p ** rho:
        g = a_p
        h = GC.mul(GC.power(b_p, l_p), GC.power(a_p, -(l_p * p ** rho // n_p)))
    else:
        g = GC.power(b_p, l_p)
        h = GC.mul(GC.power(b_p, p ** (nu - rho)), GC.inv(a_p))
    orders = (GC.element_order(g), GC.element_order(h), GC.generated([g, h]).order)
    if orders != (u, v, u * v):
        raise InvariantError(f"|g|, |h|, |<g, h>| = {orders}, not ({u}, {v}, {u * v})")
    return UVT(v, u, t, g, h)


def count_C(G: MetacyclicGroup, p: int) -> int:
    """Components of degree l = lcm(k, |G'_p|) with no odd pi-torsion
    away from p, and for odd p no fourth root of unity either."""
    _, der = mcinv(G)
    if p not in der.pi:
        raise ValueError(f"{p} does not lie in pi for this group")
    mu, _, _, rho, _ = local_params(G, p)
    banned = tuple(q for q in der.pi if q not in (p, 2))
    if p != 2:
        banned += (4,)
    return _count_components(decomposition(G), lcm(der.k, p ** (mu - rho)), banned)


def _weight(i: int, y: int, t: int, d: int) -> Fraction:
    # 1/[G : N_G(K)] for the combined subgroup; only deep i = 2 triples
    # push the normalizer below <a, b^d>.
    if i == 2 and y > t:
        return Fraction(1, lcm(d, y // t))
    return Fraction(1, d)


def _mn_direct(GC: MetacyclicGroup, p: int, uvt: UVT, l: int,
               ds) -> tuple[dict, dict]:
    """M(d) and N(d) summed triple by triple over the parametrization."""
    b_p = GC.element_part(GC.gen_b, (p,))
    a_p = GC.element_part(GC.gen_a, (p,))
    w = GC.comm(GC.power(b_p, l // p), a_p)
    data = []
    for triple in cocyclic_triples(uvt.u, uvt.v, p):
        K = cocyclic_subgroup_from_triple(GC, uvt.g, uvt.h, triple)
        data.append((triple[0], triple[1], w not in K))
    M = {d: sum(_weight(i, y, uvt.t, d) for i, y, _ in data) for d in ds}
    N = {d: sum(_weight(i, y, uvt.t, d) for i, y, free in data if free)
         for d in ds}
    return M, N


def _mn_displayed(p: int, uvt: UVT, l: int, mu: int, nu: int, rho: int,
                  k_p: int, ds) -> tuple[dict, dict]:
    """M(d) and N(d) from the closed piecewise forms, printed verbatim.

    Known transcription defects (kept as printed; the direct route is
    authoritative): the middle M branch drops a 1/(p-1) on its constant,
    the u < t branch uses t/v where only u/v can be meant, and the N
    gate compares k_p against p^(nu-rho) with overlapping d_p cases.
    """
    v, u, t = uvt.v, uvt.u, uvt.t
    l_p = max(k_p, p ** (mu - rho))
    M, N = {}, {}
    for d in ds:
        d_p = p_part(d, p)
        if t * d_p < u:
            f = v * (Fraction(p + 2, p - 1) + nu + 2 * rho - vp(v ** 3 * l, p))
            h = (Fraction(l_p * v * v, p ** (mu + nu)) * (1 + vp(d_p, p))
                 - Fraction(2 + d_p * p ** (2 * rho - mu), p - 1))
        elif t <= u:
            f = v * (Fraction(p + 1, p - 1) + mu + nu - vp(v * v * l, p))
            h = Fraction(-2)
        else:
            f = v * (Fraction(p + 1, p - 1) + nu + 2 * rho - vp(v ** 3 * l, p))
            h = Fraction(0)
        M[d] = (f + h) / d
        ut = Fraction(u, t)
        if k_p <= p ** (nu - rho) and d_p >= ut:
            N[d] = Fraction(v, d)
        elif k_p <= p ** (nu - rho) and d_p > ut:
            N[d] = Fraction(p ** (2 * rho - mu), d // d_p)
        else:
            N[d] = Fraction(0)
    return M, N


def formula_NG(G: MetacyclicGroup, p: int) -> tuple[int, int | None]:
    """Predicted count of degree-l components with the allowed torsion,
    as (direct, displayed).

    Evaluates O * sum over d | l of |K_d1| M(d) + |K_d2| N(d).  The K
    sets come from one brute-force enumeration of the cocyclic subgroups
    of L_pi' and their normalizers; M and N come once from the raw
    parametrized sums (direct) and once from the printed closed forms
    (displayed).  The direct count is authoritative because the printed
    table carries transcription defects in two branches; displayed is
    None when the printed table does not even give an integer.
    """
    if not regime_U(G, p):
        raise ValueError("group is outside the counting regime at this prime")
    GC = canonical_form(G)
    inv, der = mcinv(GC)
    mu, nu, _, rho, _ = local_params(GC, p)
    k_p = p_part(der.k, p)
    l = lcm(der.k, p ** (mu - rho))
    uvt = _uvt(GC, p)

    a_pp = GC.element_part(GC.gen_a, der.pi_prime)
    b_pp_l = GC.power(GC.element_part(GC.gen_b, der.pi_prime), l)
    w = {q: GC.comm(GC.power(GC.gen_b, l // q), a_pp) for q in primes_of(l)}
    k1: dict[int, int] = {}
    k2: dict[int, int] = {}
    for P in cocyclic_subgroups_of_product(GC, a_pp, b_pp_l):
        if any(w[q] in P for q in primes_of(l) if q != p):
            continue
        c, _, d = GC.normalizer(P).triple
        if c != 1:  # N_G(K) must contain a, and is then <a, b^d>
            continue
        if l % d:
            raise InvariantError(f"[G : N_G(K)] = {d} does not divide l = {l}")
        bucket = k2 if w[p] in P else k1
        bucket[d] = bucket.get(d, 0) + 1

    if p != 2 and GC.order % 2 == 0:
        a2 = GC.element_part(GC.gen_a, (2,))
        b2l = GC.power(GC.element_part(GC.gen_b, (2,)), l)
        L2 = GC.generated([a2, b2l])
        squares = GC.generated([GC.power(x, 2) for x in L2])
        O = L2.order // squares.order
    else:
        O = 1

    ds = sorted(set(k1) | set(k2))

    def total(M: dict, N: dict) -> Fraction:
        return O * sum((k1.get(d, 0) * M[d] + k2.get(d, 0) * N[d] for d in ds),
                       Fraction(0))

    direct = total(*_mn_direct(GC, p, uvt, l, ds))
    if direct.denominator != 1:
        raise InvariantError(f"formula evaluates to non-integer {direct}")
    displayed = total(*_mn_displayed(p, uvt, l, mu, nu, rho, k_p, ds))
    return int(direct), int(displayed) if displayed.denominator == 1 else None


# -- section7 witness pairs --------------------------------------------------


def _witness_component(GC: MetacyclicGroup, case: str, L: Subgroup,
                       K0: Subgroup, ambient: int, degree: int,
                       inters: list[tuple[str, int, FixedField]]) -> list[dict]:
    """Shared tail of the three cases: the pair is strongly Shoda and the
    component's degree and center intersections are the predicted ones."""
    try:
        comp = component_of(GC, L, K0)
    except (ValueError, InvariantError) as exc:
        return [check_entry(f"{case}: (L, K0) is a strong Shoda pair", False,
                            str(exc), "strong Shoda pair")]
    out = [check_entry(f"{case}: (L, K0) is a strong Shoda pair", True,
                       "constructed", "strong Shoda pair")]
    F = comp.center
    out.append(check_entry(f"{case}: center embeds in Q(zeta_{ambient})",
                           is_subfield(F, cyclotomic_field(ambient)),
                           repr(F), f"subfield of Q(zeta_{ambient})"))
    out.append(check_entry(f"{case}: component degree", comp.total_degree == degree,
                           comp.total_degree, degree))
    codeg = phi(ambient) // F.degree
    out.append(check_entry(f"{case}: index of center in ambient field",
                           codeg == degree, codeg, degree))
    for label, c, expected in inters:
        got = intersect_cyclotomic(F, c)
        out.append(check_entry(f"{case}: center cap {label}", got == expected,
                               repr(got), repr(expected)))
    return out


def section7_witness(G: MetacyclicGroup, p: int) -> list[dict]:
    """Distinguished component pinning the action at a prime p of r.

    Applicable when m'_p > r_p; the case is chosen by the sign of the
    2-part action and the size of s_p against m'_p.  Each case builds
    its K0 verbatim, checks the pair is strongly Shoda, and checks the
    degree and the two center intersections that identify the p-part of
    the action inside the component's center.
    """
    inv, der = mcinv(G)
    mp_p, r_p = p_part(inv.m_prime, p), p_part(der.r, p)
    if p not in der.pi or mp_p <= r_p:
        return [check_entry(f"section7 p={p}", True, "not applicable",
                            "m'_p <= r_p") | {"status": "n/a"}]
    GC = canonical_form(G)
    out = [check_entry("standing: r_p > 1", r_p > 1, r_p, "> 1"),
           check_entry("standing: s_p > 1", p_part(inv.s, p) > 1,
                       p_part(inv.s, p), "> 1")]
    m_pp = part(inv.m, der.pi_prime)
    F0 = _base_field(GC)
    k = der.k
    m_p, n_p = p_part(inv.m, p), p_part(inv.n, p)
    s_p, k_p = p_part(inv.s, p), p_part(der.k, p)
    a_rest = GC.element_part(GC.gen_a, tuple(q for q in der.pi if q != p))

    if p == 2 and der.eps == -1:
        c = lcm(k, mp_p // r_p)
        L = GC.l_subgroup(c)
        b2c = GC.power(GC.element_part(GC.gen_b, (2,)), c)
        if b2c[1] != 0:
            K0 = GC.generated([a_rest, GC.power(GC.gen_b, c)])
        else:
            b_odd = GC.element_part(GC.gen_b,
                                    tuple(q for q in primes_of(GC.order) if q != 2))
            K0 = GC.generated([a_rest, GC.power(b_odd, c)])
        expected_mp = (m_p // 2 if k_p < n_p and 2 * s_p == m_p < n_p * r_p
                       else m_p)
        out.append(check_entry("case 3: m'_2 branch formula", mp_p == expected_mp,
                               mp_p, expected_mp))
        out.append(check_entry("case 3: 4 <= k_2 and 4 r_2 <= m_2",
                               k_p >= 4 and 4 * r_p <= m_p,
                               {"k_2": k_p, "r_2": r_p, "m_2": m_p}, "4 <= k_2, 4 r_2 <= m_2"))
        sigma_fixed = fixed_field(mp_p, cyclic_subgroup((r_p - 1) % mp_p, mp_p))
        out += _witness_component(
            GC, "case 3", L, K0, m_pp * mp_p, c,
            [(f"Q(zeta_{m_pp})", m_pp, F0),
             (f"Q(zeta_{mp_p})", mp_p, sigma_fixed)])
    elif s_p >= mp_p:
        c = lcm(k, s_p // r_p)
        out.append(check_entry(
            "case 1: m'_p formula",
            mp_p == min(m_p, k_p * r_p,
                        max(r_p, s_p, r_p * k_p * s_p // n_p)),
            mp_p, "min(m_p, k_p r_p, max(r_p, s_p, r_p k_p s_p / n_p))"))
        out.append(check_entry("case 1: r_p <= s_p", r_p <= s_p, r_p, s_p))
        out.append(check_entry("case 1: k_p r_p <= n_p or s_p = m_p",
                               k_p * r_p <= n_p or s_p == m_p,
                               {"k_p r_p": k_p * r_p, "n_p": n_p, "s_p": s_p}, "m_p"))
        L = GC.l_subgroup(c)
        K0 = GC.generated([a_rest, GC.power(GC.gen_b, c)])
        out += _witness_component(
            GC, "case 1", L, K0, m_pp * s_p, c,
            [(f"Q(zeta_{m_pp})", m_pp, F0),
             (f"Q(zeta_{s_p})", s_p, cyclotomic_field(r_p))])
    else:
        out.append(check_entry("case 2: s_p < m_p and n_p < k_p r_p",
                               s_p < m_p and n_p < k_p * r_p,
                               {"s_p": s_p, "m_p": m_p, "n_p": n_p}, "k_p r_p"))
        out.append(check_entry("case 2: r_p k_p s_p / n_p >= m'_p",
                               r_p * k_p * s_p // n_p >= mp_p,
                               r_p * k_p * s_p // n_p, mp_p))
        quot = n_p // k_p
        S = geom_sum(1 + r_p, quot)
        if S % quot:
            raise InvariantError(f"n_p / k_p = {quot} does not divide {S}")
        z = S // quot
        modulus = m_p // s_p
        y = z * pow(k // k_p, -1, modulus) % modulus if modulus > 1 else 1
        if y % p == 0:
            raise InvariantError(f"twist exponent {y} is divisible by p = {p}")
        a_p = _scaled_sylow_generator(GC, p)
        b_odd = GC.element_part(GC.gen_b,
                                tuple(q for q in primes_of(GC.order) if q != p))
        L = GC.l_subgroup(k)
        K0 = GC.generated([
            a_rest,
            GC.power(a_p, r_p * s_p * k_p // n_p),
            GC.mul(GC.power(GC.gen_b, -y * k), GC.power(a_p, s_p * k_p // n_p)),
            GC.power(b_odd, k),
        ])
        out += _witness_component(
            GC, "case 2", L, K0, m_pp * mp_p, k,
            [(f"Q(zeta_{m_pp})", m_pp, F0),
             (f"Q(zeta_{mp_p})", mp_p, cyclotomic_field(r_p))])
    return out
