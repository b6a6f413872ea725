"""Routes that the fast paths of `metacyclic` replaced, kept as test
oracles: scans over elements and subgroups that follow the definitions.
The test modules import them from here (pytest puts this directory on
sys.path); nothing in `src/` calls them."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice

from metacyclic.group import El, InvariantError, MetacyclicGroup, Subgroup, canonical_es
from metacyclic.invariants import (MCInv, derive_rek, local_params, mcinv,
                                   sylow_presentation)
from metacyclic.numth import (UnitSubgroup, _canonical, _powers, cyclic_subgroup,
                              divisors, lcm, mult_order, orbit, p_part, part, phi,
                              prime_factors, primes_of, restrict, units, vp)
from metacyclic.wedderburn import (FixedField, SimpleComponent, _Block, _character,
                                   _class_of, _coset_generator, cyclotomic_field,
                                   fixed_field, is_subfield, roots_of_unity_order)


def coset_order(G: MetacyclicGroup, x: El, K: Subgroup) -> int:
    """Least k >= 1 with x^k in K, by a scan of the divisors of |x|."""
    return next(d for d in divisors(G.element_order(x)) if G.power(x, d) in K)


def walk_dlog(G: MetacyclicGroup, g: El, target: El) -> int:
    """Least e >= 0 with target = g^e, by a walk of up to |g| steps."""
    g_inv, y = G.inv(g), target
    for e in range(G.element_order(g)):
        if y == G.identity:
            return e
        y = G.mul(y, g_inv)
    raise ValueError("target does not lie in <g>")


def coset_dlog(G: MetacyclicGroup, g: El, target: El, K: Subgroup) -> int:
    """Least e >= 0 with target in K g^e, by a walk of up to |g| steps."""
    g_inv, y = G.inv(g), target
    for e in range(G.element_order(g)):
        if y in K:
            return e
        y = G.mul(y, g_inv)
    raise ValueError("target does not lie in K<g>")


def largest_cofactor_index(G: MetacyclicGroup, A: Subgroup,
                           cyclics: tuple[Subgroup, ...]) -> int | None:
    """[G:B] for the largest cyclic B with AB = G, A normal, by a walk of
    `cyclics`, G's `cyclic_subgroups()`, from its end; None when no B maps
    onto G/A."""
    n = G.order // A.order
    return next((G.order // B.order for B in reversed(cyclics)
                 if B.order % n == 0 and G.generates_quotient(B.generator, A, n)), None)


def scanned_cyclic_subgroups(modulus: int,
                             max_order: int | None = None) -> tuple[UnitSubgroup, ...]:
    """`numth.cyclic_subgroups` by a scan of every unit t mod `modulus`,
    in increasing order: each subgroup is walked from its least generator
    and its other generators, the t^j with gcd(j, |t|) = 1, are skipped.
    A unit whose order exceeds the bound is passed over by a few powers:
    its order divides phi(modulus), so it is at most `max_order` iff
    t^d = 1 for a divisor d <= max_order of phi that no other such
    divisor is a multiple of."""
    bound = phi(modulus) if max_order is None else max_order
    small = [d for d in divisors(phi(modulus)) if d <= bound]
    tests = [d for d in small if not any(e != d and e % d == 0 for e in small)]
    found = []
    known: set[int] = set()
    one = 1 % modulus
    for t in range(modulus):
        if t in known or math.gcd(t, modulus) != 1:
            continue
        if all(pow(t, d, modulus) != one for d in tests):
            continue
        powers = _powers(t, modulus)
        k = len(powers)
        known.update(powers[j] for j in range(k) if math.gcd(j, k) == 1)
        found.append(_canonical(modulus, tuple(sorted(powers))))
    return tuple(sorted(found))


def walked_cyclic_subgroup(t: int, modulus: int) -> UnitSubgroup:
    """<t> for a unit t mod `modulus` by a walk of its powers, not interned:
    the sorted powers, and as generator the least t^j with gcd(j, |t|) = 1,
    where `cyclic_subgroup` takes the least residue of full order."""
    one = 1 % modulus
    powers = [one]
    y = t % modulus
    while y != one:
        powers.append(y)
        y = y * t % modulus
    k = len(powers)
    gen = min(powers[j] for j in range(k) if math.gcd(j, k) == 1)
    return UnitSubgroup(modulus, tuple(sorted(powers)), gen)


def defined_factorization(n: int) -> tuple[tuple[tuple[int, int], ...], frozenset[int],
                                           tuple[int, ...], int]:
    """`numth._factor` from the definitions: the pairs by trial division
    by every d >= 2, the divisors as the d <= sqrt(n) dividing n and
    their cofactors, and phi by Euler's product n prod (1 - 1/p)."""
    pairs, rest, d = [], n, 2
    while rest > 1:
        e = 0
        while rest % d == 0:
            rest //= d
            e += 1
        if e:
            pairs.append((d, e))
        d += 1
    divs = sorted({x for d in range(1, math.isqrt(n) + 1) if n % d == 0
                   for x in (d, n // d)})
    totient = Fraction(n)
    for p, _ in pairs:
        totient *= 1 - Fraction(1, p)
    return (tuple(pairs), frozenset(p for p, _ in pairs), tuple(divs),
            int(totient))


def scanned_preimage(sub: UnitSubgroup, modulus: int) -> UnitSubgroup:
    """`numth.preimage` by a scan of every unit mod `modulus`, each tested
    for membership in `sub`."""
    return _canonical(modulus, tuple(x for x in units(modulus) if x in sub))


def two_power_sums(G: MetacyclicGroup) -> list[tuple[int, int, int]]:
    """`MetacyclicGroup._power_sums` by two `power` calls per f | n: s0
    is the a-exponent of (b^f)^(n/f) and S that of (a b^f)^(n/f) less
    s0, so S is only known mod m."""
    n = G.n
    out = []
    for f in divisors(n):
        N = n // f
        s0 = G.power((0, f % n), N)[0]
        out.append((f, G.power((1, f % n), N)[0] - s0, s0))
    return out


def restricting_derive_rek(m: int, T: UnitSubgroup) -> tuple[int, int, int]:
    """`derive_rek` with each level read off the subgroup `restrict`
    builds, where the fast path reads the residues of T."""
    cap = T.modulus
    r = 1
    for p, e in prime_factors(m):
        good = 1
        for j in range(1, min(e, vp(cap, p)) + 1):
            q = p ** j
            res = restrict(T, q)
            if p == 2:
                if any(x != 1 and x != q - 1 for x in res.elements):
                    break
            elif not res.is_trivial:
                break
            good = q
        if p == 2:
            good = max(good, min(p_part(m, 2), 4))
        r *= good
    q2 = math.gcd(p_part(r, 2), cap)
    eps = -1 if q2 > 1 and not restrict(T, q2).is_trivial else 1
    m_out = part(m, primes_of(m) - primes_of(r))
    k = restrict(T, math.gcd(m_out, cap)).order
    return r, eps, k


def walking_construct_group(inv: MCInv) -> MetacyclicGroup:
    """`construct_group` for a valid tuple by a walk of <x> mod m for each
    candidate x, restricted to m' and to each m_p and compared there with
    delta and the local actions, where the fast path tests x by its
    membership and order mod each modulus."""
    m, n = inv.m, inv.n
    s_res = inv.s % m
    r, eps, _ = derive_rek(m, inv.delta)
    local = {}
    for p in sorted(primes_of(r)):
        m_p = p_part(m, p)
        e = eps if p == 2 else 1
        local[m_p] = cyclic_subgroup((e + p_part(r, p)) % m_p, m_p)
    for x in range(m):
        if math.gcd(x, m) != 1 or pow(x, n, m) != 1 % m:
            continue
        if (s_res * (x - 1)) % m:
            continue
        gen = cyclic_subgroup(x, m)
        if restrict(gen, inv.m_prime) != inv.delta:
            continue
        if any(restrict(gen, q) != sub for q, sub in local.items()):
            continue
        return MetacyclicGroup(m, n, s_res, x)
    raise InvariantError(f"validated tuple {inv} admits no action exponent")


def subfield_a1a2_components(decomp, m_pi_prime: int) -> tuple[SimpleComponent, ...]:
    """`a1a2_components` with each center tested by `is_subfield` against
    Q(zeta_{m_pi'}), where the fast path reads the center's conductor."""
    ambient = cyclotomic_field(m_pi_prime)
    return tuple(comp for comp in decomp
                 if is_subfield(comp.center, ambient)
                 and roots_of_unity_order(comp.center) == 2)


def sorted_factor_rows(G: MetacyclicGroup) -> list[tuple[int, tuple[int, int, int]]]:
    """(order, triple) of the candidate factors of the route that
    `_minimal_factors`' block walk replaced: the e of every (c, f) block
    with c | g, g = gcd(t - 1, m), solved up front and sorted.  That route
    tried them in turn and stopped at the first one whose order passed
    the least order that factors."""
    m, n = G.m, G.n
    return sorted((m // c * (n // f), (c, e, f))
                  for f, S, s0 in G._power_sums()
                  for c in divisors(math.gcd(G.t - 1, m))
                  for e in canonical_es(c, S, s0) or ())


def derived_subgroup(G: MetacyclicGroup) -> Subgroup:
    """G' = <a^gcd(t-1, m)>, read off the presentation."""
    return Subgroup(G, math.gcd(G.t - 1, G.m), 0, G.n)


def derived_part(G: MetacyclicGroup, primes) -> Subgroup:
    """The `primes`-part of G' as a subgroup, generated by the part of the
    generator of `derived_subgroup(G)`: `t_subgroup` of it is the route
    that R = <t> in `mcinv` replaced."""
    d = derived_subgroup(G)
    return G.cyclic_subgroup(G.element_part(d.generator, primes))


def ne_regime(G: MetacyclicGroup) -> tuple[str, int] | None:
    """`analysis._ne_regime` with the 2-local shape read off the Sylow
    2-subgroup's own tuple: (m, n, s) = (4, 2^nu, 2), nu >= 2, and delta
    = <3> mod 4, where `_ne_regime` reads (mu, sigma, e) = (2, 1, -1)."""
    inv, der = mcinv(G)
    if 2 not in der.pi:
        return None
    sinv, _ = mcinv(sylow_presentation(G, 2))
    nu = vp(sinv.n, 2)
    if (sinv.m, sinv.n, sinv.s) != (4, 2 ** nu, 2) or nu < 2:
        return None
    if sinv.delta != cyclic_subgroup(3, 4):
        return None
    m2, n2 = p_part(inv.m, 2), p_part(inv.n, 2)
    s2, r2, k2 = p_part(inv.s, 2), p_part(der.r, 2), p_part(der.k, 2)
    if (der.eps == 1 and m2 == 2 ** (nu + 1) and n2 == 2 and k2 == 2
            and s2 == 2 and r2 == 2 ** nu):
        return ("split", nu)
    if (der.eps == -1 and m2 == 4 and r2 == 4 and n2 == 2 ** nu
            and s2 == 2 and k2 == 2):
        return ("nonsplit", nu)
    return None


def sylow_first_regime_U(G: MetacyclicGroup, p: int) -> bool:
    """`analysis.regime_U` with the Sylow p-subgroup classified
    (`local_params`) as soon as p lies in pi, before the global clauses
    eps = 1 and k_p > 1 are read, where the fast path reads those first."""
    inv, der = mcinv(G)
    if p not in der.pi:
        return False
    mu, nu, sigma, rho, e = local_params(G, p)
    if e != 1 or der.eps != 1:
        return False
    k_p = p_part(der.k, p)
    n_p, s_p = p_part(inv.n, p), p_part(inv.s, p)
    l_p = max(k_p, p ** (mu - rho))
    if not (k_p > 1 and 0 < mu <= 2 * rho and 1 <= rho == sigma < nu):
        return False
    if not (l_p < p ** nu and s_p == p ** rho and max(l_p, p ** rho) <= n_p):
        return False
    return n_p == p ** nu or n_p < min(p ** nu, p ** rho * k_p)


def scaled_sylow_generator(G: MetacyclicGroup, p: int) -> El:
    """`analysis._scaled_sylow_generator` with b_p^(n_p) = a_p^e solved by
    its own `dlog`, n_p taken from the tuple, where the fast path reads e
    as the s of `sylow_presentation`."""
    inv, _ = mcinv(G)
    a_p = G.element_part(G.gen_a, (p,))
    b_p = G.element_part(G.gen_b, (p,))
    rel = G.power(b_p, p_part(inv.n, p))
    if rel == G.identity:
        return a_p
    e = G.dlog(a_p, rel)
    w, back = divmod(e, p_part(inv.s, p))
    if back or w % p == 0:
        raise InvariantError(f"b_p^n_p = a_p^{e} is not a_p^(s_p w), w a unit")
    return G.power(a_p, w)


def conjugacy_classes(G: MetacyclicGroup) -> tuple[frozenset, ...]:
    """The conjugacy classes of G, each closed by `orbit` under conjugation
    by a and b, in the order of their least elements."""
    gens = (G.gen_a, G.gen_b)
    seen: set[El] = set()
    classes = []
    for x in G.elements:
        if x not in seen:
            c = frozenset(orbit(x, gens, G.conj))
            seen |= c
            classes.append(c)
    return tuple(classes)


def qualifies(G: MetacyclicGroup, K: Subgroup) -> Subgroup | None:
    """The partner L = <a, b^e0> making (L, K) a strong Shoda pair, if any,
    with e0 the order of t mod c: K lies in L iff e0 | f, and L/K,
    generated by the cosets of a and b^e0, is cyclic iff the lcm of their
    coset orders is the index |L| / |K|, with |L| = m n / gcd(e0, n)."""
    c, _, f = K.triple
    e0 = mult_order(G.t, c)
    if f % e0:
        return None
    o2 = coset_order(G, G.power(G.gen_b, e0), K)
    if lcm(c, o2) != G.order // math.gcd(e0, G.n) // K.order:
        return None
    return G.l_subgroup(e0)


def walk_pairs(G: MetacyclicGroup) -> tuple[tuple[Subgroup, Subgroup], ...]:
    """`strong_shoda_pairs` by a walk of `subgroups()`: the first member
    of each class for which `qualifies` finds an L, paired with the
    conjugate whose first n/f elements are least."""
    seen: set[Subgroup] = set()
    pairs = []
    for K in G.subgroups():
        if K in seen:
            continue
        L = qualifies(G, K)
        if L is None:
            continue
        conjugates = G.conjugates(K)
        seen |= conjugates
        head = G.n // K.triple[2]
        pairs.append((L, min(conjugates, key=lambda C: tuple(islice(C, head)))))
    return tuple(pairs)


def scan_component(G: MetacyclicGroup, L: Subgroup, K: Subgroup) -> SimpleComponent:
    """`component_of` by element scans: u and w are the least elements
    generating L/K and N_G(K)/L, and x and y are walked out of the cosets
    of K in <u>."""
    if qualifies(G, K) != L:
        raise ValueError("(L, K) is not a strong Shoda pair of G")
    N = G.normalizer(K)
    idx = L.order // K.order
    u = _coset_generator(G, L, K)
    w = _coset_generator(G, N, L)
    x = coset_dlog(G, u, G.conj(u, w), K)
    y = coset_dlog(G, u, G.power(w, N.order // L.order), K)
    total_degree = G.order // L.order
    center = fixed_field(idx, cyclic_subgroup(x, idx))
    return SimpleComponent(
        matrix_size=G.order // N.order,
        conductor=idx,
        x=x,
        y=y,
        center=center,
        total_degree=total_degree,
        q_dimension=total_degree * total_degree * center.degree,
    )


def searched_component(G: MetacyclicGroup, L: Subgroup, K: Subgroup) -> SimpleComponent:
    """`component_of` with x read through u for every class, N = L
    included: u = a^i b^(e0 k) is the first (i, k) with chi(u) a unit mod
    [L:K], chi the character of `_character`, and x = chi(w^-1 u w) /
    chi(u) with w = b^f_N, where the fast path takes the closed form for
    N = L and x by CRT for N > L."""
    c, e, f = K.triple
    e0 = mult_order(G.t, c)
    if f % e0 or L != G.l_subgroup(e0):
        raise ValueError("(L, K) is not a strong Shoda pair of G")
    B = _Block(G, c, f, e0)
    f_N = len(_class_of(B, e))
    idx, p = B.idx, B.gamma
    alpha = math.gcd(c, (B.n0 * e + B.fp * G.s) // p)
    if alpha * p != idx:
        raise InvariantError(f"[L:K] = {idx} is not {alpha} * {p}")
    q = _character(B, e, alpha)
    i, k = next((i, k) for i in range(G.m) if math.gcd(p * i, q, idx) == 1
                for k in range(G.n // e0) if math.gcd(p * i + q * k, idx) == 1)
    inv = pow(p * i + q * k, -1, idx)
    x = (p * (i * pow(G.t, -f_N, c)) + q * k) * inv % idx
    if f_N < e0:
        b_e0 = G.power((0, f_N), e0 // f_N)
        y = (p * b_e0[0] + q * (b_e0[1] // e0)) * inv % idx
    else:
        y = 0
    if math.gcd(x, idx) != 1:
        raise InvariantError("conjugation must act by a unit")
    action = cyclic_subgroup(x, idx)
    center = fixed_field(idx, action)
    if e0 != f_N * action.order:
        raise InvariantError(f"degree {e0} is not {f_N} "
                             f"times the action order {action.order}")
    return SimpleComponent(
        matrix_size=f_N,
        conductor=idx,
        x=x,
        y=y,
        center=center,
        total_degree=e0,
        q_dimension=e0 * e0 * center.degree,
    )


def scan_fixed_field(d: int, T: UnitSubgroup) -> FixedField:
    """`fixed_field` by a scan of every unit mod d for each divisor d0:
    the least d0 such that each unit that is 1 mod d0 lies in T."""
    fix = set(T.elements)
    for d0 in divisors(d):
        rem = 1 % d0
        if all(x % d0 != rem or x in fix for x in units(d)):
            fixer = restrict(T, d0)
            if phi(d) // T.order != phi(d0) // fixer.order:
                raise InvariantError(f"fixer of {T} loses order at conductor {d0}")
            return FixedField(d0, fixer)
    raise InvariantError(f"no conductor of {T} qualifies, not even {d}")


def scan_roots_of_unity_order(F: FixedField) -> int:
    """`roots_of_unity_order` by a scan of the divisors f of the
    conductor for those whose whole fixer reduces to 1 mod f: 2 times
    the largest odd such f times half the largest such 2-power (at
    least 1)."""
    d0 = F.conductor

    def fixes(f: int) -> bool:
        rem = 1 % f
        return all(x % f == rem for x in F.fixer.elements)

    e = max(f for f in divisors(d0) if f % 2 and fixes(f))
    two = d0 & -d0
    a_part = max((f for f in divisors(two) if fixes(f)), default=1)
    return 2 * e * max(a_part // 2, 1)


def element_sylow_presentation(G: MetacyclicGroup, p: int) -> MetacyclicGroup:
    """`sylow_presentation` read off the elements a_p and b_p: s_loc and
    t_loc are the `dlog`s of b_p^(n_p) and of b_p^-1 a_p b_p to the base
    a_p, where the fast path reads them off the exponents of a and b."""
    m_p, n_p = p_part(G.m, p), p_part(G.n, p)
    ap = G.element_part(G.gen_a, (p,))
    bp = G.element_part(G.gen_b, (p,))
    s_loc = G.dlog(ap, G.power(bp, n_p))
    t_loc = G.dlog(ap, G.conj(ap, bp))
    return MetacyclicGroup(m_p, n_p, s_loc, t_loc)
