"""Classification of finite metacyclic groups by numerical invariants.

Every finite metacyclic group G has a minimal metacyclic factorization
G = AB: both factors cyclic, A normal, and the triple (|A|, r(A), [G:B])
lexicographically least over all such factorizations.  The classifying
tuple is (m, n, s, delta) with m = |A|, n = [G:A], s = [G:B], and delta
the conjugation action of G on A restricted to a canonical modulus m'
dividing m.  Tuple equality decides isomorphism.  This module computes
the tuple from any presentation, validates candidate tuples by pure
arithmetic, and rebuilds a canonical presentation from a valid tuple.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product
from typing import NamedTuple

from .group import InvariantError, MetacyclicGroup, Subgroup, canonical_es
from .numth import (
    UnitSubgroup,
    cyclic_subgroup,
    cyclic_subgroups,
    divisors,
    from_generators,
    geom_sum_mod,
    mult_order,
    p_part,
    part,
    prime_factors,
    primes_of,
    restrict,
    vp,
)


class MCInv(NamedTuple):
    """Classifying tuple (m, n, s, delta).

    s is stored in divisor-of-m normal form (s = m encodes b^n = 1) and
    delta is a cyclic subgroup of the units mod m' for some m' | m.
    """

    m: int
    n: int
    s: int
    delta: UnitSubgroup

    @property
    def m_prime(self) -> int:
        return self.delta.modulus

    @property
    def order(self) -> int:
        return self.m * self.n

    @property
    def delta_gen(self) -> int:
        return 1 if self.delta.is_trivial else self.delta.canonical_generator()

    def sort_key(self) -> tuple[int, int, int, int, int]:
        return (self.order, self.m, self.n, self.s, self.delta_gen)

    def to_json(self) -> dict:
        return {"m": self.m, "n": self.n, "s": self.s,
                "m_prime": self.m_prime, "delta_gen": self.delta_gen}


def tuple_from_parts(m: int, n: int, s: int, m_prime: int, delta_gen: int) -> MCInv:
    return MCInv(m, n, s, cyclic_subgroup(delta_gen, m_prime))


class DerivedInv(NamedTuple):
    """Quantities read off a classifying tuple.

    r: greatest divisor of m on which the action restricts to the
       identity (odd part) or to a subgroup of {+-1} (2-part);
    eps: -1 exactly when the 2-part of that restriction is nontrivial;
    k: order of the action restricted to the primes of m outside r;
    pi / pi_prime: partition of the primes of |G|, with pi_prime the
       primes of m not dividing r;
    R: action of G on the pi'-part of the derived subgroup, a unit
       subgroup mod the pi'-part of m.
    """

    r: int
    eps: int
    k: int
    pi: tuple[int, ...]
    pi_prime: tuple[int, ...]
    R: UnitSubgroup


# -- action subgroups -------------------------------------------------------


def t_subgroup(G: MetacyclicGroup, A: Subgroup) -> UnitSubgroup:
    """Conjugation action of G on a normal cyclic subgroup A.

    Returned as the subgroup of units mod |A| generated by the exponents
    through which the two ambient generators act on a generator of A.
    """
    g = A.generator
    if g is None:
        raise ValueError("A must be cyclic")
    if not A.is_normal:
        raise ValueError("A must be normal")
    exps = [G.dlog(g, G.conj(g, c)) for c in (G.gen_a, G.gen_b)]
    return from_generators(A.order, exps)


@lru_cache(maxsize=None)
def derive_rek(m: int, T: UnitSubgroup) -> tuple[int, int, int]:
    """(r, eps, k) attached to an action subgroup T mod a divisor of m.

    Restrictions of T are only observable modulo divisors of its own
    modulus; the search for r is capped there.  The cap never truncates
    a tuple coming from a group, because r always divides the canonical
    modulus m'.  Each restriction is read off the residues of T, which
    need not be cyclic, without building the restricted subgroup.
    """
    cap = T.modulus
    r = 1
    for p, e in prime_factors(m):
        good = 1
        for j in range(1, min(e, vp(cap, p)) + 1):
            q = p ** j
            allowed = (1, q - 1) if p == 2 else (1,)
            if any(x % q not in allowed for x in T.elements):
                break
            good = q
        if p == 2:
            # Levels 2 and 4 pass for any action, so a truncated modulus
            # must not report a smaller 2-part than a full one ever could.
            good = max(good, min(p_part(m, 2), 4))
        r *= good
    r2 = p_part(r, 2)
    q2 = math.gcd(r2, cap)
    eps = -1 if any(x % q2 != 1 % q2 for x in T.elements) else 1
    q = math.gcd(part(m, primes_of(m) - primes_of(r)), cap)
    k = len({x % q for x in T.elements})
    return r, eps, k


def m_prime_of(m: int, n: int, s: int, r: int, eps: int, k: int) -> int:
    """Canonical modulus m' | m on which the action invariant is recorded.

    The part of m away from the primes of r survives whole; at a prime p
    of r the p-part is `_m_prime_at`.
    """
    out = part(m, primes_of(m) - primes_of(r))
    for p in sorted(primes_of(r)):
        out *= _m_prime_at(p, *_local_parts(p, m, r, s, n, k), eps)
    return out


def _local_parts(p: int, m: int, r: int, s: int, n: int, k: int) -> tuple[int, ...]:
    """(m_p, r_p, s_p, n_p, k_p), the p-parts the per-prime clauses read."""
    return p_part(m, p), p_part(r, p), p_part(s, p), p_part(n, p), p_part(k, p)


def _m_prime_at(p: int, m_p: int, r_p: int, s_p: int, n_p: int, k_p: int,
                eps: int) -> int:
    """The p-part of m' at a prime p of r: min(m_p, k_p r_p, max(r_p, s_p,
    r_p s_p k_p / n_p)), except that for eps = -1 the 2-part collapses to
    one of r_2, m_2/2 or m_2.  A quotient r_p s_p k_p / n_p below 1 floors
    to 0 and never wins the max."""
    if p != 2 or eps == 1:
        return min(m_p, k_p * r_p, max(r_p, s_p, r_p * s_p * k_p // n_p))
    if k_p <= 2 or m_p <= 2 * r_p:
        return r_p
    if 4 <= k_p < n_p and 4 * r_p <= m_p and (
            s_p == n_p * r_p or (2 * s_p == m_p and m_p < n_p * r_p)):
        return m_p // 2
    return m_p


def _local_reasons(p: int, m_p: int, r_p: int, s_p: int, n_p: int, k_p: int,
                   eps: int) -> list[str]:
    """The failed clauses of `validate_tuple` at a prime p of r: clause (c)
    at p = 2 when eps = -1, clause (d) at every other prime of r."""
    reasons = []
    if p == 2 and eps == -1:
        if m_p // r_p > n_p:
            reasons.append("(c) m_2 / r_2 exceeds n_2")
        if m_p > 2 * s_p:
            reasons.append("(c) m_2 exceeds 2 s_2")
        if s_p == n_p * r_p:
            reasons.append("(c) s_2 equals n_2 r_2")
        if n_p >= 4 and m_p >= 8 and k_p < n_p and r_p > s_p:
            reasons.append("(c) r_2 exceeds s_2 although 4 | n, 8 | m and k_2 < n_2")
        return reasons
    if m_p // r_p > s_p or s_p > n_p:
        reasons.append(f"(d) s_{p} outside the range [m_{p}/r_{p}, n_{p}]")
    if r_p > s_p and n_p >= s_p * k_p:
        reasons.append(f"(d) r_{p} > s_{p} but n_{p} >= s_{p} k_{p}")
    return reasons


# -- minimal factorization and the classifying tuple ------------------------


def _minimal_factors(G: MetacyclicGroup):
    """((m, r, s), actions): the least key over the factorizations G = AB,
    and the action of G on each factor A that achieves it.

    G/A = B/(A meet B) is cyclic, so A contains G' = <a^g> with
    g = gcd(t - 1, m), and every subgroup containing G' is normal: only
    the A = <a^c, a^e b^f> with c | g are tried.  The (c, f) blocks are
    walked by (|A|, c), which fixes f, and by ascending e in each, so in
    (order, triple) order; a block's e (`canonical_es`) are solved and
    its subgroups built only when the walk reaches it, and the walk ends
    at the first block whose order passes the least order that factors.
    For each A, `_cofactor_index` gives [G:B] for the largest cyclic B
    onto G/A and the action of G on A, or None when A or G/A is not
    cyclic.
    """
    m, n = G.m, G.n
    cs = divisors(math.gcd(G.t - 1, m))
    blocks = sorted((m // c * (n // f), c, f, S, s0)
                    for f, S, s0 in G._power_sums() for c in cs)
    found = []
    for order, c, f, S, s0 in blocks:
        if found and order > found[0][0][0]:
            break
        for e in canonical_es(c, S, s0) or ():
            hit = _cofactor_index(G, Subgroup(G, c, e, f))
            if hit is not None:
                s, T = hit
                found.append(((order, derive_rek(order, T)[0], s), T))
    if not found:
        raise InvariantError(f"{G!r} has no metacyclic factorization")
    best = min(key for key, _ in found)
    return best, tuple(T for key, T in found if key == best)


def _cofactor_index(G: MetacyclicGroup, A: Subgroup) -> tuple[int, UnitSubgroup] | None:
    """([G:B], T) for the largest cyclic B with AB = G and the action T of
    G on A, for A = <a^c, a^e b^f> containing G'; None when A or G/A is
    not cyclic.

    G/A is abelian, generated by the images of a, of order c, and of b,
    with b^f = a^-e1 mod A: e1 = e for f < n, and e1 = -s for f = n,
    where b^n = a^s.  So G/A is cyclic iff gcd(c, e1, f) = 1, and then
    beta = a^x b generates it, for x the product of the primes of c
    dividing neither e1 nor f: (a^x b)^f = a^(x f - e1) mod A with
    x f - e1 prime to c.  For a cyclic A = <alpha>, with q = [G:A] = c f,
    beta^-1 alpha beta = alpha^tau, beta^q = alpha^sigma and Sigma = 1 +
    tau + ... + tau^(q-1) mod |A|, every x = beta^u alpha^j with
    gcd(u, q) = 1 maps onto G/A and has x^q = alpha^(u sigma + j Sigma),
    so |<x>| = q |A| / gcd(u sigma + j Sigma, |A|), and the least gcd,
    taken at u = 1, is gcd(sigma, Sigma, |A|) = [G:B].  Sigma is read
    from tau by `geom_sum_mod`, so two `dlog` calls, for tau and sigma,
    give [G:B].  A is abelian, so the action of G on A factors through
    the cyclic G/A, and T = <tau>.
    """
    c, e, f = A.triple
    e1 = e if f < G.n else -G.s
    if math.gcd(c, e1, f) != 1:
        return None
    alpha = A.generator
    if alpha is None:
        return None
    x = math.prod(p for p, _ in prime_factors(c) if e1 % p and f % p)
    beta = G.mul((x % G.m, 0), G.gen_b)
    q = c * f
    M = A.order
    tau = G.dlog(alpha, G.conj(alpha, beta))
    s = math.gcd(G.dlog(alpha, G.power(beta, q)), geom_sum_mod(tau, q, M), M)
    return s, cyclic_subgroup(tau, M)


@lru_cache(maxsize=None)
def mcinv(G: MetacyclicGroup) -> tuple[MCInv, DerivedInv]:
    """Classifying tuple of G together with the derived quantities.

    m and s come from a minimal factorization G = AB (see
    `_minimal_factors`); delta depends on A alone, and every minimizing
    factor A must produce the same delta, which is checked rather than
    trusted.  R acts on the pi'-part of G' = <a^g>, g = gcd(t - 1, m),
    which a centralizes and b raises to the power t^-1, so R = <t> mod the
    order of that part.
    """
    (m, _, s), actions = _minimal_factors(G)
    n = G.order // m
    seen = set()
    for T in actions:
        r, eps, k = derive_rek(m, T)
        seen.add((restrict(T, m_prime_of(m, n, s, r, eps, k)), r, eps, k))
    if len(seen) != 1:
        raise InvariantError(f"minimal factorizations of {G!r} disagree on delta")
    delta, r, eps, k = seen.pop()
    pi_prime = tuple(sorted(primes_of(m) - primes_of(r)))
    pi = tuple(sorted(primes_of(G.order) - set(pi_prime)))
    R = cyclic_subgroup(G.t, part(G.m // math.gcd(G.t - 1, G.m), pi_prime))
    if R.modulus != part(m, pi_prime):
        raise InvariantError(f"R of {G!r} has modulus {R.modulus}, "
                             f"expected {part(m, pi_prime)}")
    return MCInv(m, n, s, delta), DerivedInv(r, eps, k, pi, pi_prime, R)


def isomorphic(G: MetacyclicGroup, H: MetacyclicGroup) -> bool:
    """Tuple equality decides isomorphism."""
    return mcinv(G)[0] == mcinv(H)[0]


# -- realizability and construction -----------------------------------------


def validate_tuple(m: int, n: int, s: int,
                   delta: UnitSubgroup) -> tuple[bool, tuple[str, ...]]:
    """Arithmetic test for whether (m, n, s, delta) classifies a group.

    Returns (ok, reasons) with one reason per failed clause.  Clause (a)
    reads m, s, m' and whether |delta| divides n; clauses (b), (c) and
    (d) read only the p-parts at the primes p of r, through
    `_m_prime_at` and `_local_reasons`, which `valid_tuples` shares.  s
    must be given in divisor-of-m normal form.  A non-cyclic delta, or a
    delta modulus not dividing m, is malformed input rather than an
    invalid tuple and raises ValueError.
    """
    if m < 1 or n < 1 or s < 1:
        raise ValueError("m, n and s must be positive")
    if not delta.is_cyclic:
        raise ValueError("delta must be cyclic")
    mp = delta.modulus
    if m % mp:
        raise ValueError("the modulus of delta must divide m")
    r, eps, k = derive_rek(m, delta)
    pi_r = primes_of(r)
    pi_prime = primes_of(m) - pi_r
    reasons = []
    if m % s:
        reasons.append("(a) s does not divide m")
    if n % delta.order:
        reasons.append("(a) |delta| does not divide n")
    if not part(m, pi_prime) == part(s, pi_prime) == part(mp, pi_prime):
        reasons.append("(a) m, s, m' disagree at the primes outside r")
    local = [(p, *_local_parts(p, m, r, s, n, k)) for p in sorted(pi_r)]
    if any(p_part(mp, at[0]) != _m_prime_at(*at, eps) for at in local):
        reasons.append("(b) modulus of delta violates the m' formula at a prime of r")
    for at in local:
        reasons += _local_reasons(*at, eps)
    return not reasons, tuple(reasons)


def construct_group(inv: MCInv) -> MetacyclicGroup:
    """Canonical presentation realizing a classifying tuple: `realize`,
    once `validate_tuple` has accepted the tuple.  An invalid tuple raises
    ValueError with the failed clauses."""
    ok, reasons = validate_tuple(inv.m, inv.n, inv.s, inv.delta)
    if not ok:
        raise ValueError("tuple is not realizable: " + "; ".join(reasons))
    return realize(inv)


def realize(inv: MCInv) -> MetacyclicGroup:
    """Canonical presentation realizing a valid classifying tuple, such as
    each tuple `valid_tuples` returns; `construct_group` validates first.

    Finds the least action exponent x < m whose cyclic group restricts to
    delta on m' and to the prescribed local action at every prime of r,
    and which satisfies the two presentation compatibility congruences
    (x^n = 1 mod m, and s (x - 1) = 0 mod m, i.e. x = 1 mod m / gcd(s, m)).
    Each target T is cyclic, so <x mod q> = T for q its modulus iff x lies
    in T with order |T| mod q, and no candidate builds a subgroup.  So x
    mod m' is a generator g of delta, and the candidates are the lifts
    base + g, base stepping by m' and g running over the generators of
    delta in increasing order; the first that passes the other tests is
    the least x, which makes the output deterministic.  (0 is the unit
    mod 1, the generator of delta when m' = 1.)  A tuple that admits no
    such x raises InvariantError.
    """
    m, n, mp, delta = inv.m, inv.n, inv.m_prime, inv.delta
    s_res = inv.s % m
    s_step = m // math.gcd(s_res, m)
    r, eps, _ = derive_rek(m, delta)
    targets = []
    for p in sorted(primes_of(r)):
        m_p = p_part(m, p)
        e = eps if p == 2 else 1
        targets.append(cyclic_subgroup((e + p_part(r, p)) % m_p, m_p))
    d = delta.order
    gens = sorted(pow(delta.generator, k, mp) for k in range(d) if math.gcd(k, d) == 1)
    for base in range(0, m, mp):
        for g in gens:
            x = base + g
            if (x - 1) % s_step or math.gcd(x, m) != 1 or pow(x, n, m) != 1 % m:
                continue
            if all(x in T and mult_order(x, T.modulus) == T.order for T in targets):
                return MetacyclicGroup(m, n, s_res, x)
    raise InvariantError(f"tuple {inv} admits no action exponent")


@lru_cache(maxsize=None)
def valid_tuples(max_order: int) -> tuple[MCInv, ...]:
    """All classifying tuples with m n <= max_order, canonically sorted.

    The tuples are generated rather than filtered.  For each m, each
    m' | m and each cyclic delta mod m' with |delta| <= max_order / m,
    (r, eps, k) is derived once.  Clause (a) of `validate_tuple` rejects
    without looking at n every s whose part outside the primes of r
    differs from m's, so s runs only over that part of m times the
    products of p-parts s_p at the primes p of r.  Clause (a) holds for
    every such s once |delta| divides n, and clauses (b), (c) and (d)
    read n only through its p-parts n_p at the primes p of r.  So the
    admissible n_p are listed per prime p of r and per s_p, by the same
    `_m_prime_at` and `_local_reasons` that `validate_tuple` calls; an
    s_p with none is skipped, and n runs only over the multiples of
    |delta| up to max_order / m whose p-parts are all admissible.  Each
    list depends only on its p-parts, eps and max_order / m, so it is
    computed once per call, as are the cyclic subgroups mod each m'.
    Every tuple emitted still goes through `validate_tuple`, and a
    rejection raises InvariantError.  Ties of `MCInv.sort_key` are
    ordered by m'.
    """
    subgroups: dict[int, tuple[UnitSubgroup, ...]] = {}
    admissible: dict[tuple[int, ...], list[int]] = {}
    out = []
    for m in range(1, max_order + 1):
        n_max = max_order // m
        m_primes = primes_of(m)
        for mp in divisors(m):
            if mp not in subgroups:
                subgroups[mp] = cyclic_subgroups(mp, max_order // mp)
            for delta in subgroups[mp]:
                d = delta.order
                if d > n_max:
                    continue
                r, eps, k = derive_rek(m, delta)
                r_primes = primes_of(r)
                m_out = part(m, m_primes - r_primes)
                if part(mp, m_primes - r_primes) != m_out:
                    continue
                d_out = d
                options = []
                for p in sorted(r_primes):
                    m_p, d_p = p_part(m, p), p_part(d, p)
                    at = (p, m_p, p_part(r, p), p_part(k, p), p_part(mp, p), d_p)
                    d_out //= d_p
                    here = []
                    s_p = 1
                    while s_p <= m_p:
                        key = (*at, s_p, eps, n_max)
                        if key not in admissible:
                            admissible[key] = _admissible_parts(*key)
                        if admissible[key]:
                            here.append((s_p, admissible[key]))
                        s_p *= p
                    options.append(here)
                for choice in product(*options):
                    s = m_out * math.prod(s_p for s_p, _ in choice)
                    for n in _admissible_n([parts for _, parts in choice], d_out, r, n_max):
                        ok, reasons = validate_tuple(m, n, s, delta)
                        if not ok:
                            raise InvariantError(
                                f"valid_tuples generated {(m, n, s, delta)}, which "
                                "validate_tuple rejects: " + "; ".join(reasons))
                        out.append(MCInv(m, n, s, delta))
    return tuple(sorted(out, key=lambda inv: (inv.sort_key(), inv.m_prime)))


def _admissible_parts(p: int, m_p: int, r_p: int, k_p: int, mp_p: int, d_p: int,
                      s_p: int, eps: int, n_max: int) -> list[int]:
    """The p-parts n_p <= n_max, multiples of d_p, that pass clauses (b),
    (c) and (d) at a prime p of r.  The clause helpers get (p, m_p, r_p,
    s_p, n_p, k_p), the layout of `_local_parts`."""
    ok = []
    n_p = d_p
    while n_p <= n_max:
        at = (p, m_p, r_p, s_p, n_p, k_p)
        if _m_prime_at(*at, eps) == mp_p and not _local_reasons(*at, eps):
            ok.append(n_p)
        n_p *= p
    return ok


def _admissible_n(lists: list[list[int]], d_out: int, r: int, n_max: int) -> list[int]:
    """The n <= n_max whose p-part at each prime p of r is in that prime's
    list of admissible p-parts, and whose part prime to r is a multiple of
    d_out.  Each such n is one product h u: h a product of admissible
    p-parts, and u a multiple of d_out, itself prime to r."""
    heads = [1]
    for parts in lists:
        heads = [h * q for h in heads for q in parts if h * q <= n_max]
    return [h * u for h in heads for u in range(d_out, n_max // h + 1, d_out)
            if math.gcd(u, r) == 1]


# -- local structure ---------------------------------------------------------


def sylow_presentation(G: MetacyclicGroup, p: int) -> MetacyclicGroup:
    """The Sylow p-subgroup of G as a standalone group.

    <a_p, b_p> is a Sylow p-subgroup whenever p lies in pi, for a_p and
    b_p the p-parts of a and b.  a_p = a^u with u = 1 mod m_p and
    u = 0 mod m/m_p, so a_p^k = a^z exactly when k = z mod m_p and
    (m/m_p) | z; the local relations are read off that way.  With
    b_p = a^i b^j, b_p^-1 a_p b_p = a_p^(t^-j), so t_loc = t^-j mod m_p,
    and b_p^(n_p) = a^z gives s_loc = z mod m_p.  The classifying tuple of
    the result is computed downstream from the subgroup's own minimal
    factorization, so nothing depends on the ambient factorization being
    minimal.
    """
    m_p, n_p = p_part(G.m, p), p_part(G.n, p)
    b_p = G.element_part(G.gen_b, (p,))
    z, w = G.power(b_p, n_p)
    if w or z % (G.m // m_p):
        raise InvariantError(f"b_p^n_p = {(z, w)} does not lie in <a_p> in {G!r}")
    return MetacyclicGroup(m_p, n_p, z % m_p, pow(G.t, -b_p[1], m_p))


def _sylow_params(P: MetacyclicGroup, p: int) -> tuple[int, int, int, int, int]:
    """(mu, nu, sigma, rho, e) of the tuple of a p-group P."""
    sinv, sder = mcinv(P)
    return vp(sinv.m, p), vp(sinv.n, p), vp(sinv.s, p), vp(sder.r, p), sder.eps


def local_params(G: MetacyclicGroup, p: int) -> tuple[int, int, int, int, int]:
    """(mu, nu, sigma, rho, e) of the Sylow p-subgroup's own tuple."""
    return _sylow_params(sylow_presentation(G, p), p)


def check_entry(check: str, ok: bool, lhs, rhs) -> dict:
    """One line of a check report: {"check", "status", "lhs", "rhs"}."""
    return {"check": check, "status": "pass" if ok else "fail",
            "lhs": lhs, "rhs": rhs}


def sylow_mcinv_consistency(G: MetacyclicGroup, p: int) -> list[dict]:
    """Consistency report between the tuple of G and that of its Sylow
    p-subgroup, for p in pi.

    Each entry is {"check", "status", "lhs", "rhs"}; the checks are the
    parameter constraints (A)-(D) on the local tuple and the comparison
    clauses (1)-(4) tying it to the global one.  One printed form of the
    p-group constraint (D)(b) reverses two inequalities and is
    contradicted by the modular group of order 16; the corrected
    orientation (nu >= 2 and mu >= 3 force rho <= sigma) is used here.
    The printed mixed-sign clause (local e = -1, global eps = 1) also
    pins n_2 = 2, but only one branch of its case analysis forces that;
    the other branch realizes any n_2 = k_2 <= 2^(nu-1), smallest case
    of order 160, so check 4b keeps the provable part: mu = 2,
    sigma = 1, s_2 = 2, k_2 = n_2 <= 2^(nu-1) and r_2 = m_2 / 2.
    The stated equality r_p = p^rho under matching orders rests on the
    same k_2 < n_2 import and fails for e = -1 when k_2 = n_2: the
    global action can restrict to <-1> mod m_2 while the canonical
    local tuple re-dresses it as <-1 + 2^(mu-1)>, leaving
    r_2 = m_2 = 2^(rho+1) (again smallest at order 160), so check 2
    accepts that shape alongside the printed one.
    """
    inv, der = mcinv(G)
    if p not in der.pi:
        raise ValueError(f"{p} does not lie in pi for this group")
    P = sylow_presentation(G, p)
    mu, nu, sigma, rho, e = _sylow_params(P, p)
    m_p, n_p, s_p = p_part(inv.m, p), p_part(inv.n, p), p_part(inv.s, p)
    r_p, k_p, eps = p_part(der.r, p), p_part(der.k, p), der.eps

    report: list[dict] = []

    def chk(name, ok, lhs, rhs):
        report.append(check_entry(name, ok, lhs, rhs))

    local = {"mu": mu, "nu": nu, "sigma": sigma, "rho": rho, "e": e}
    chk("A: rho = 0 forces mu = 0", rho != 0 or mu == 0, local, "mu = 0")
    chk("B: p = 2, rho = 1 force mu = 1",
        not (p == 2 and rho == 1) or mu == 1, local, "mu = 1")
    chk("C: e = 1 bounds",
        e != 1 or (rho <= sigma <= mu <= rho + sigma and sigma <= nu),
        local, "rho <= sigma <= mu <= rho + sigma, sigma <= nu")
    chk("D(a): e = -1 bounds",
        e != -1 or (p == 2 and 2 <= rho <= mu and nu >= 1
                    and mu - 1 <= sigma <= mu <= rho + nu and sigma != rho + nu),
        local, "p = 2 <= rho <= mu, nu >= 1, mu-1 <= sigma <= mu <= rho+nu != sigma")
    chk("D(b): e = -1, nu >= 2, mu >= 3 force rho <= sigma",
        e != -1 or not (nu >= 2 and mu >= 3) or rho <= sigma,
        local, "rho <= sigma")

    glob = {"m_p": m_p, "n_p": n_p, "s_p": s_p, "r_p": r_p, "k_p": k_p, "eps": eps}
    chk("1: m_p n_p = p^(mu+nu)", m_p * n_p == p ** (mu + nu),
        m_p * n_p, p ** (mu + nu))
    chk("1: p^mu divides m_p", m_p % p ** mu == 0, m_p, p ** mu)
    chk("1: s_p = p^sigma", s_p == p ** sigma, s_p, p ** sigma)
    chk("2: p^mu = m_p iff p^nu = n_p",
        (p ** mu == m_p) == (p ** nu == n_p), glob, local)
    if p ** mu == m_p:
        chk("2: r_p matches rho when the orders match",
            r_p == p ** rho
            or (e == -1 and r_p == m_p == 2 ** (rho + 1) and k_p == n_p),
            r_p, p ** rho)
    if e == 1 or p != 2:
        if p == 2:
            chk("3a: p = 2, e = 1 force eps = 1", eps == 1, eps, 1)
        chk("3b: m_p / r_p = p^(mu-rho)", m_p // r_p == p ** (mu - rho),
            m_p // r_p, p ** (mu - rho))
        expo = P.exponent()
        chk("3b: exponent = m_p n_p / s_p", expo == m_p * n_p // s_p,
            expo, m_p * n_p // s_p)
        chk("3b: exponent = p^(mu+nu-sigma)", expo == p ** (mu + nu - sigma),
            expo, p ** (mu + nu - sigma))
        if m_p != p ** mu:
            chk("3c: strict local order forces k_p > 1, mu > 0, rho = sigma, "
                "k_p s_p > n_p",
                k_p > 1 and mu != 0 and rho == sigma and k_p * s_p > n_p,
                glob, local)
    if e == -1 and p == 2:
        chk("4a: eps = -1 iff m_2 = 2^mu", (eps == -1) == (m_p == 2 ** mu),
            glob, local)
        if eps == 1:
            chk("4b: eps = 1 shape",
                mu == 2 and sigma == 1 and s_p == 2 and k_p == n_p
                and n_p <= 2 ** (nu - 1) and 2 * r_p == m_p,
                glob, local)
    return report
