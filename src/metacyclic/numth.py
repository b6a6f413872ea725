"""Exact elementary number theory and subgroups of the units modulo n.

Everything here is plain integer arithmetic; factorisations use trial
division, which is ample for the group orders this package targets.
Each integer is factored once per process: `_factor` caches its prime
pairs, primes, divisors and phi together, and `prime_factors`,
`primes_of`, `divisors` and `phi` read them.  Every unit subgroup is
interned by `_canonical`.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple


class InvariantError(RuntimeError):
    """A mathematical identity that every correct answer satisfies failed.

    Raised instead of `assert` on the paths whose results are cached, so
    `python -O` cannot strip the check and a wrong answer is never kept.
    """


@lru_cache(maxsize=None)
def _factor(n: int) -> tuple[tuple[tuple[int, int], ...], frozenset[int], tuple[int, ...], int]:
    """The factorization of n >= 1 and what follows from it, from one
    trial division: the sorted (prime, exponent) pairs, the set of
    primes, the sorted divisors and Euler's phi(n).  `prime_factors`,
    `primes_of`, `divisors` and `phi` read it."""
    if n < 1:
        raise ValueError("n must be positive")
    pairs = []
    rest, d = n, 2
    while d * d <= rest:
        if rest % d == 0:
            e = 0
            while rest % d == 0:
                rest //= d
                e += 1
            pairs.append((d, e))
        d += 1 if d == 2 else 2
    if rest > 1:
        pairs.append((rest, 1))
    divs = [1]
    totient = 1
    for p, e in pairs:
        divs = [x * p**i for x in divs for i in range(e + 1)]
        totient *= p ** (e - 1) * (p - 1)
    return tuple(pairs), frozenset(p for p, _ in pairs), tuple(sorted(divs)), totient


def prime_factors(n: int) -> tuple[tuple[int, int], ...]:
    """Factor n >= 1 into sorted (prime, exponent) pairs."""
    return _factor(n)[0]


def primes_of(n: int) -> frozenset[int]:
    return _factor(n)[1]


def divisors(n: int) -> tuple[int, ...]:
    """Sorted positive divisors of n."""
    return _factor(n)[2]


def phi(n: int) -> int:
    return _factor(n)[3]


def vp(n: int, p: int) -> int:
    """Exponent of the prime p in n (n != 0, p >= 2)."""
    if n == 0 or p < 2:
        raise ValueError(f"vp({n}, {p}) is undefined: need n != 0 and p >= 2")
    n = abs(n)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def p_part(n: int, p: int) -> int:
    """Largest power of p dividing n (n != 0, p >= 2)."""
    if n == 0 or p < 2:
        raise ValueError(f"p_part({n}, {p}) is undefined: need n != 0 and p >= 2")
    n = abs(n)
    out = 1
    while n % p == 0:
        n //= p
        out *= p
    return out


def part(n: int, primes) -> int:
    """Largest divisor of n supported on the given prime set.  Only the
    given primes are divided out, so n itself is never factored; a
    repeated prime divides nothing the second time."""
    if n < 1:
        raise ValueError("n must be positive")
    out = 1
    for p in primes:
        if p < 2:
            raise ValueError(f"part(n, primes) needs every p >= 2, got {p}")
        while n % p == 0:
            n //= p
            out *= p
    return out


def mult_order(x: int, n: int) -> int:
    """Least k >= 1 with x^k = 1 mod n."""
    x %= n
    if math.gcd(x, n) != 1:
        raise ValueError(f"{x} is not a unit mod {n}")
    # The order divides phi(n); walk the divisors in increasing order.
    for d in divisors(phi(n)):
        if pow(x, d, n) == 1 % n:
            return d
    raise InvariantError(f"the order of {x} mod {n} does not divide phi(n)")


def geom_sum(x: int, n: int) -> int:
    """1 + x + ... + x^(n-1), with the x = 1 case handled exactly."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if x == 1:
        return n
    return (x**n - 1) // (x - 1)


def geom_sum_mod(y: int, n: int, m: int) -> int:
    """1 + y + ... + y^(n-1) mod m, for a residue 0 <= y < m and n >= 0:
    n mod m if y = 1 mod m, else (y^n mod m(y - 1) - 1) / (y - 1), since
    the sum times y - 1 is y^n - 1."""
    if y == 1 % m:
        return n % m
    return (pow(y, n, m * (y - 1)) - 1) // (y - 1)


def units(n: int) -> tuple[int, ...]:
    """Residues of the unit group mod n; (0,) for the modulus 1."""
    return tuple(x for x in range(n) if math.gcd(x, n) == 1)


class UnitSubgroup(NamedTuple):
    """A subgroup of the units mod `modulus`, stored as a sorted residue tuple.

    `generator` is the smallest residue generating the subgroup, or None when
    the subgroup is not cyclic.  The identity is the residue 1 % modulus, so
    modulus 1 is the trivial group {0} with generator 0.
    """

    modulus: int
    elements: tuple[int, ...]
    generator: int | None

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def is_cyclic(self) -> bool:
        return self.generator is not None

    @property
    def is_trivial(self) -> bool:
        return len(self.elements) == 1

    def __contains__(self, x: int) -> bool:
        return x % self.modulus in self.elements

    def canonical_generator(self) -> int:
        if self.generator is None:
            raise ValueError("subgroup is not cyclic")
        return self.generator


@lru_cache(maxsize=None)
def _canonical(modulus: int, elements: tuple[int, ...]) -> UnitSubgroup:
    """The one constructor of `UnitSubgroup`: every subgroup of the units
    mod `modulus` is interned here, keyed by its sorted residues, so each
    distinct subgroup is built once.  Its generator is the least residue
    of full order, found by one scan, or None when there is none."""
    k = len(elements)
    gen = None
    for x in elements:
        if mult_order(x, modulus) == k:
            gen = x
            break
    return UnitSubgroup(modulus, elements, gen)


def orbit(start, gens, act) -> set:
    """Closure of {start} under x -> act(x, g) for every g in gens.

    The one breadth-first closure of the package, behind unit subgroups
    of several generators mod n and the conjugation orbits of subgroups.
    A cyclic unit subgroup is the walk of `_powers` instead.  Subgroups
    of a metacyclic group are never closed this way; the tests use it as
    the oracle for their canonical triples, and to close conjugacy classes.
    """
    seen = {start}
    frontier = [start]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = act(x, g)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return seen


def from_generators(modulus: int, gens) -> UnitSubgroup:
    """Subgroup of the units mod `modulus` generated by the given residues."""
    gs = [g % modulus for g in gens]
    for g in gs:
        if math.gcd(g, modulus) != 1:
            raise ValueError(f"{g} is not a unit mod {modulus}")
    elems = orbit(1 % modulus, gs, lambda x, g: x * g % modulus)
    return _canonical(modulus, tuple(sorted(elems)))


def trivial_subgroup(modulus: int) -> UnitSubgroup:
    return _canonical(modulus, (1 % modulus,))


def _powers(t: int, modulus: int) -> list[int]:
    """The powers t^0, t^1, ..., t^(|t| - 1) of a unit t mod `modulus`,
    in that order."""
    one = 1 % modulus
    powers = [one]
    y = t
    while y != one:
        powers.append(y)
        y = y * t % modulus
    return powers


def cyclic_subgroup(t: int, modulus: int) -> UnitSubgroup:
    """The cyclic subgroup generated by t mod `modulus`, interned by
    `_canonical` from the powers of t.  A non-unit raises ValueError
    before any walk, as its powers never return to 1."""
    if math.gcd(t, modulus) != 1:
        raise ValueError(f"{t % modulus} is not a unit mod {modulus}")
    return _canonical(modulus, tuple(sorted(_powers(t % modulus, modulus))))


def restrict(sub: UnitSubgroup, q: int) -> UnitSubgroup:
    """Image of the subgroup under reduction mod q (q must divide the modulus)."""
    if q < 1 or sub.modulus % q != 0:
        raise ValueError(f"{q} does not divide the modulus {sub.modulus}")
    return _canonical(q, tuple(sorted({x % q for x in sub.elements})))


def preimage(sub: UnitSubgroup, modulus: int) -> UnitSubgroup:
    """Inverse image of the subgroup under reduction from `modulus` (a
    multiple of its modulus); the mirror of `restrict`.  Its elements
    are the lifts base + h, for base a multiple of q = sub.modulus below
    `modulus` and h in sub, that are units mod `modulus`; taken by base
    and then by h, they come sorted."""
    q = sub.modulus
    if modulus < 1 or modulus % q != 0:
        raise ValueError(f"{modulus} is not a multiple of the modulus {q}")
    lifts = (base + h for base in range(0, modulus, q) for h in sub.elements)
    return _canonical(modulus, tuple(x for x in lifts if math.gcd(x, modulus) == 1))


def _primitive_root(p: int, k: int) -> int:
    """A generator of the cyclic units mod p^k, p an odd prime: the least
    primitive root g mod p, or g + p when g^(p-1) = 1 mod p^2."""
    g = next(g for g in range(2, p)
             if all(pow(g, (p - 1) // q, p) != 1 for q, _ in prime_factors(p - 1)))
    return g + p if k > 1 and pow(g, p - 1, p * p) == 1 else g


def _sylow_bases(modulus: int) -> dict[int, list[tuple[int, int]]]:
    """For each prime l of phi(modulus), generators y_i of the l-Sylow
    subgroup of the units mod `modulus` as a direct product of cyclic
    groups, as pairs (y_i, a_i) with |y_i| = l^(a_i).

    The units mod p^e are cyclic on a primitive root for odd p, and are
    <-1> x <5> mod 2^e (e >= 3); each cyclic factor of order N, lifted to
    `modulus` by CRT (1 at the other primes), splits into its l-parts
    x^(N / l^a)."""
    bases: dict[int, list[tuple[int, int]]] = {}
    for p, e in prime_factors(modulus):
        q = p ** e
        rest = modulus // q
        if p != 2:
            factors = [(_primitive_root(p, e), q // p * (p - 1))]
        else:
            factors = [(-1, 2)] * (e >= 2) + [(5, q // 4)] * (e >= 3)
        for g, order in factors:
            x = (1 + rest * ((g - 1) * pow(rest, -1, q) % q)) % modulus
            for ell, a in prime_factors(order):
                bases.setdefault(ell, []).append((pow(x, order // ell ** a, modulus), a))
    return bases


def _cyclic_parts(modulus: int, ell: int, basis: list[tuple[int, int]],
                  bound: int) -> list[tuple[int, int]]:
    """(generator, order) of each cyclic subgroup of order at most `bound`
    of the l-group with basis (y_i, a_i), |y_i| = l^(a_i).

    A cyclic subgroup of order l^j > 1 has one generator of the form
    prod y_i^(v_i) with, at the first index i whose part has order l^j,
    v_i = l^(a_i - j): its parts before i have order below l^j and those
    after at most l^j.  Scaling a generator by a unit mod l^j keeps each
    part's order, and only units = 1 mod l^j keep v_i, so that form is
    unique."""
    out = [(1 % modulus, 1)]
    j = 1
    while ell ** j <= bound and any(a >= j for _, a in basis):
        for i, (y_i, a_i) in enumerate(basis):
            if a_i < j:
                continue
            gens = [pow(y_i, ell ** (a_i - j), modulus)]
            for k, (y, a) in enumerate(basis):
                if k == i:
                    continue
                top = j - 1 if k < i else j  # this part has order at most l^top
                step = ell ** max(a - top, 0)
                powers = [pow(y, c * step, modulus) for c in range(ell ** a // step)]
                gens = [g * z % modulus for g in gens for z in powers]
            out += [(g, ell ** j) for g in gens]
        j += 1
    return out


def cyclic_subgroups(modulus: int, max_order: int | None = None) -> tuple[UnitSubgroup, ...]:
    """The cyclic subgroups of the units mod `modulus` of order at most
    `max_order` (all of them when it is None), sorted.

    Listed by structure, without a scan of the units: a cyclic subgroup is
    the product of its l-parts, one cyclic subgroup of the l-Sylow
    subgroup for each prime l of phi(modulus) (`_sylow_bases`,
    `_cyclic_parts`).  Each product whose order is within the bound is
    walked once by `_powers` from the product of the l-part generators
    and interned by `_canonical`, so its generator is the least residue
    of full order, as for every unit subgroup.
    """
    bound = phi(modulus) if max_order is None else max_order
    choices = [(1 % modulus, 1)] if bound >= 1 else []
    for ell, basis in _sylow_bases(modulus).items():
        if ell <= bound:
            parts = _cyclic_parts(modulus, ell, basis, bound)
            choices = [(x * y % modulus, o * q) for x, o in choices
                       for y, q in parts if o * q <= bound]
    return tuple(sorted(_canonical(modulus, tuple(sorted(_powers(x, modulus))))
                        for x, _ in choices))


def crt_exponent(order: int, primes) -> int:
    """Exponent e with e = 1 mod the `primes`-part of `order` and e = 0 mod
    the complementary part.  Raising a group element of that order to e
    extracts its `primes`-part."""
    a = part(order, primes)
    b = order // a
    # e = b * (b^{-1} mod a)
    return b * pow(b, -1, a)
