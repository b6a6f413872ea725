"""Finite metacyclic groups and their subgroups.

A group here is given by the presentation

    G = <a, b | a^m = 1, b^n = a^s, b a b^-1 = a^t>

with gcd(t, m) = 1, t^n = 1 mod m and s(t - 1) = 0 mod m, so |G| = m n.
Elements are pairs (i, j) standing for a^i b^j with 0 <= i < m, 0 <= j < n.
Products, inverses, powers and element orders all use closed forms, so a
single operation costs O(log) arithmetic.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable

from .numth import InvariantError, crt_exponent, divisors, geom_sum_mod, orbit, primes_of

El = tuple[int, int]


def canonical_es(c: int, S: int, s0: int) -> range | None:
    """The e < c with (c, e, f) canonical, for (f, S, s0) of
    `MetacyclicGroup._power_sums`: e S = -s0 mod c.  With d = gcd(S, c),
    None (no e) unless d | s0, and else e0 + k c/d, e0 solving it mod c/d."""
    d = math.gcd(S, c)
    if s0 % d:
        return None
    step = c // d
    return range(-s0 // d * pow(S // d, -1, step) % step, c, step)


class MetacyclicGroup:
    def __init__(self, m: int, n: int, s: int = 0, t: int = 1):
        if m < 1 or n < 1:
            raise ValueError("m and n must be positive")
        s %= m
        t = t % m if m > 1 else 1
        if math.gcd(t, m) != 1:
            raise ValueError(f"t = {t} is not a unit mod m = {m}")
        if pow(t, n, m) != 1 % m:
            raise ValueError(f"t^n must be 1 mod m, got t = {t}")
        if s * (t - 1) % m != 0:
            raise ValueError("need s(t - 1) = 0 mod m so that b^n is central")
        self.m = m
        self.n = n
        self.s = s
        self.t = t
        # The presentation never changes, so its key and hash are built once.
        self.key = (m, n, s, t)
        self._hash = hash(self.key)

    @property
    def order(self) -> int:
        return self.m * self.n

    def __eq__(self, other) -> bool:
        return isinstance(other, MetacyclicGroup) and self.key == other.key

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"MetacyclicGroup(m={self.m}, n={self.n}, s={self.s}, t={self.t})"

    # -- elements ---------------------------------------------------------

    @property
    def identity(self) -> El:
        return (0, 0)

    @property
    def gen_a(self) -> El:
        return (1 % self.m, 0)

    @property
    def gen_b(self) -> El:
        # n = 1 collapses b to a^s, so reduce into the a-coordinate.
        return (0, 1) if self.n > 1 else (self.s, 0)

    @property
    def elements(self) -> tuple[El, ...]:
        return tuple((i, j) for i in range(self.m) for j in range(self.n))

    def mul(self, x: El, y: El) -> El:
        i = (x[0] + y[0] * pow(self.t, x[1], self.m)) % self.m
        j = x[1] + y[1]
        if j >= self.n:
            j -= self.n
            i = (i + self.s) % self.m
        return (i, j)

    def inv(self, x: El) -> El:
        i, j = x
        if j == 0:
            return (-i % self.m, 0)
        # (a^i b^j)^-1 = a^-(i+s) t^(n-j) b^(n-j), using b^-n = a^-s central.
        return (-(i + self.s) * pow(self.t, self.n - j, self.m) % self.m, self.n - j)

    def power(self, x: El, k: int) -> El:
        """x^k = a^(i S(k)) b^(jk) for x = a^i b^j and k >= 0, with S(k) =
        1 + y + ... + y^(k-1) mod m for y = t^j mod m; b^(jk) = a^(s
        floor(jk/n)) b^(jk mod n) as b^n = a^s is central.  x^k = (x^-1)^(-k)
        for k < 0."""
        if k < 0:
            return self.power(self.inv(x), -k)
        i, j = x
        m = self.m
        geom = geom_sum_mod(pow(self.t, j, m), k, m)
        return ((i * geom + self.s * (j * k // self.n)) % m, j * k % self.n)

    def conj(self, g: El, h: El) -> El:
        """h^-1 g h."""
        return self.mul(self.mul(self.inv(h), g), h)

    def comm(self, g: El, h: El) -> El:
        """g^-1 h^-1 g h."""
        return self.mul(self.inv(self.mul(h, g)), self.mul(g, h))

    def element_order(self, x: El) -> int:
        d = self.n // math.gcd(x[1], self.n)
        c = self.power(x, d)[0]
        return d * self.m // math.gcd(c, self.m)

    def element_part(self, x: El, primes) -> El:
        """The component of x of order supported on the given primes."""
        return self.power(x, crt_exponent(self.element_order(x), primes))

    def dlog(self, g: El, target: El) -> int:
        """Least e >= 0 with target = g^e.  For g = a^i b^j and h =
        gcd(j, n), g^e has b-exponent j e mod n, so the b-exponent of the
        target fixes e = k0 mod n/h.  The rest, g^-k0 target, must then lie
        in <z> for z = g^(n/h) = a^u, which solves l u = i' mod m, l taken
        mod m / gcd(u, m); e = k0 + l n/h is the least exponent."""
        m, n = self.m, self.n
        h = math.gcd(g[1], n)
        step = n // h
        if target[1] % h:
            raise ValueError("target does not lie in <g>")
        k0 = target[1] // h * pow(g[1] // h, -1, step) % step
        rest = self.mul(self.inv(self.power(g, k0)), target)[0]
        u = self.power(g, step)[0]
        d = math.gcd(u, m)
        if rest % d:
            raise ValueError("target does not lie in <g>")
        return k0 + rest // d * pow(u // d, -1, m // d) % (m // d) * step

    # -- subgroups --------------------------------------------------------

    def generated(self, gens: Iterable[El]) -> "Subgroup":
        """<gens>, folding the generators one at a time into <a^c, x> with
        x mapping to b^f in G/<a> = C_n.  For g = a^i b^j, y = x^u g^v
        maps to b^d, d = gcd(f, j) = u f + v j; then x y^(-f/d) and
        g y^(-j/d) lie in <a>, and <a^c, x, g> = <a^c', y> with c' the gcd
        of c and their a-exponents.  Starting from x = 1 and f = n, the
        term x y^(-f/d) keeps x^(n/f) in <a^c>, so the triple is canonical."""
        c, x, f = self.m, self.identity, self.n
        for g in gens:
            j = g[1]
            d = math.gcd(f, j)
            v = pow(j // d, -1, f // d)
            y = self.mul(self.power(x, (d - v * j) // f), self.power(g, v))
            for z, k in ((x, f // d), (g, j // d)):
                c = math.gcd(c, self.mul(z, self.power(y, -k))[0])
            x, f = y, d
        return Subgroup(self, c, x[0] % c, f)

    def cyclic_subgroup(self, x: El) -> "Subgroup":
        return self.generated([x])

    def cyclic_subgroups(self) -> tuple["Subgroup", ...]:
        """The cyclic subgroups, in the order of `subgroups()`: those whose
        `generator` is not None."""
        return tuple(S for S in self.subgroups() if S.is_cyclic)

    def subgroups(self) -> tuple["Subgroup", ...]:
        """All subgroups, one per canonical triple, by (order, triple): the
        `canonical_es` of each (c, f) block, sorted before any `Subgroup`
        is built."""
        m, n = self.m, self.n
        rows = sorted((m // c * (n // f), c, e, f) for f, S, s0 in self._power_sums()
                      for c in divisors(m) for e in canonical_es(c, S, s0) or ())
        return tuple(Subgroup(self, c, e, f) for _, c, e, f in rows)

    def _power_sums(self):
        """(f, S, s0) for each f | n: with x = a^e b^f and N = n/f, S is the
        sum of t^(f l) over l < N, taken mod m, and s0 = s for f < n, 0 for
        f = n, so x^N = a^(e S + s0).  The callers read S only through
        gcds and inverses mod divisors of m, so S mod m serves them."""
        m, n, t = self.m, self.n, self.t
        for f in divisors(n):
            yield f, geom_sum_mod(pow(t, f, m), n // f, m), self.s if f < n else 0

    def l_subgroup(self, d: int) -> "Subgroup":
        """<a, b^d>, which only depends on gcd(d, n)."""
        return Subgroup(self, 1, 0, math.gcd(d, self.n))

    def conjugate_subgroup(self, S: "Subgroup", x: El) -> "Subgroup":
        """x^-1 S x.  Conjugation fixes <a^c> and the image b^f of
        a^e b^f, so only e moves."""
        c, _, f = S.triple
        return Subgroup(self, c, self.conj(S.gens[1], x)[0] % c, f)

    def conjugates(self, S: "Subgroup", gens=None) -> set["Subgroup"]:
        """Orbit of S under conjugation by the group generated by `gens`,
        by default a and b, i.e. the whole group."""
        return orbit(S, (self.gen_a, self.gen_b) if gens is None else gens,
                     self.conjugate_subgroup)

    def subgroup_classes(self, subs: Iterable["Subgroup"],
                         gens=None) -> list["Subgroup"]:
        """One representative per conjugation orbit, the first in input
        order.  Passing `gens` counts the orbits of the subaction of the
        group they generate instead."""
        seen: set[Subgroup] = set()
        reps = []
        for S in subs:
            if S not in seen:
                seen |= self.conjugates(S, gens)
                reps.append(S)
        return reps

    def _from_member(self, member) -> "Subgroup":
        """The subgroup H = {x : member(x)}: H meet <a> is <a^c>, the
        image of H in G/<a> = C_n is <b^f>, and a^e b^f lies in H with
        0 <= e < c."""
        m, n = self.m, self.n
        c = next(d for d in divisors(m) if member((d % m, 0)))
        e, f = next((e, f) for f in divisors(n) for e in range(c)
                    if member((e, f % n)))
        return Subgroup(self, c, e, f)

    def normalizer(self, S: "Subgroup") -> "Subgroup":
        """N_G(S), from the least c | m and then the least f | n for which
        a^c and some a^e b^f normalize S."""
        return self._from_member(S.normalized_by)

    def core(self, S: "Subgroup") -> "Subgroup":
        """Largest normal subgroup of G inside S: the intersection of the
        conjugates of S."""
        conjugates = self.conjugates(S)
        return self._from_member(lambda x: all(x in C for C in conjugates))

    # -- structure --------------------------------------------------------

    def abelianization_invariants(self) -> tuple[int, ...]:
        """Invariant factors of G/[G,G], from the Smith form of the
        relation matrix [[gcd(t-1,m), 0], [-s, n]]."""
        g = math.gcd(self.t - 1, self.m)
        d1 = math.gcd(g, math.gcd(self.s, self.n))
        d2 = g * self.n // d1
        return tuple(d for d in (d1, d2) if d > 1)

    def exponent(self) -> int:
        """The lcm of the element orders.  Every cyclic subgroup has a
        generator a^e b^f with f | n (`Subgroup.generator`), of order
        N m / gcd(e S + s0, m) by `_power_sums`; over e these orders have
        lcm N m / gcd(S, s0, m)."""
        m, n = self.m, self.n
        return math.lcm(*(n // f * m // math.gcd(S, s0, m)
                          for f, S, s0 in self._power_sums()))

    def order_table(self) -> dict[El, int]:
        """Element -> order, in the order of `elements`."""
        return {x: self.element_order(x) for x in self.elements}

    def order_profile(self, table: dict[El, int] | None = None) -> tuple[tuple[int, int], ...]:
        """Sorted (order, number of elements of that order) pairs, read from
        `table` (this group's `order_table()`) when given."""
        if table is None:
            table = self.order_table()
        return tuple(sorted(Counter(table.values()).items()))

    def brute_force_isomorphic(self, other: "MetacyclicGroup",
                               tables: dict | None = None) -> bool:
        """Search for images of (a, b) in `other` satisfying the defining
        relations and generating it.  Ground truth for isomorphism tests.

        `tables` maps groups to their `order_table()`; a caller comparing
        many pairs passes it so that each table is built once."""
        if self.order != other.order:
            return False
        own = tables[self] if tables else self.order_table()
        theirs = tables[other] if tables else other.order_table()
        if self.order_profile(own) != other.order_profile(theirs):
            return False
        ord_a = self.m
        ord_b = own[self.gen_b]
        alphas = [x for x, k in theirs.items() if k == ord_a]
        betas = [x for x, k in theirs.items() if k == ord_b]
        for alpha in alphas:
            at = other.power(alpha, self.t)
            as_ = other.power(alpha, self.s)
            for beta in betas:
                if other.power(beta, self.n) != as_:
                    continue
                if other.mul(beta, alpha) != other.mul(at, beta):
                    continue
                if other.generated([alpha, beta]).order == other.order:
                    return True
        return False


class Subgroup:
    """<a^c, a^e b^f>, stored as its canonical triple (c, e, f): c | m,
    f | n, 0 <= e < c and (a^e b^f)^(n/f) in <a^c>, so the subgroup meets
    <a> in <a^c> and maps onto <b^f> in G/<a>, and no other triple gives
    it.  It holds `group`, `triple`, `gens` and `order` and nothing else:
    membership, cyclicity, normality and a generator are arithmetic on the
    triple, recomputed on each read, and iteration is lazy and sorted;
    no command builds the element set `elems`, which only the tests and
    `perfbench/spans.py` read."""

    def __init__(self, group: MetacyclicGroup, c: int, e: int, f: int):
        self.group = group
        self.triple = (c, e, f)
        self.gens = ((c % group.m, 0), (e, f % group.n))
        self.order = group.m // c * (group.n // f)

    @property
    def elems(self) -> frozenset:
        return frozenset(self)

    @property
    def generator(self) -> El | None:
        """A generator read off the triple, None when the subgroup is not
        cyclic.  With M = m/c, N = n/f, x = a^e b^f and x^N = a^i: S is
        abelian iff x commutes with a^c, i.e. t^f = 1 mod M, and then
        S = <a^c> <x> has relation matrix [[M, 0], [-i/c, N]], so it is
        cyclic iff gcd(M, N, i/c) = 1.  y = x a^(cj) = a^(e+cj) b^f maps
        onto the generator of S/<a^c> = C_N, so it generates S iff
        y^N = a^(i + cjN) generates <a^c>; as gcd(M, N, i/c) = 1 such a
        j exists, and the least one is below M.  Each read runs the test
        t^f = 1 mod M and one `power` call for x^N."""
        G = self.group
        c, e, f = self.triple
        M, N = G.m // c, G.n // f
        if pow(G.t, f, M) != 1 % M:
            return None
        i = G.power(self.gens[1], N)[0] // c
        if math.gcd(M, N, i) != 1:
            return None
        j = next(j for j in range(M) if math.gcd(i + j * N, M) == 1)
        return (e + c * j, f % G.n)

    @property
    def is_cyclic(self) -> bool:
        return self.generator is not None

    @property
    def is_normal(self) -> bool:
        return all(map(self.normalized_by, (self.group.gen_a, self.group.gen_b)))

    def normalized_by(self, g: El) -> bool:
        """Whether g^-1 S g = S.  Conjugation fixes <a^c>, which is normal
        in G, and the b-exponent f of x = a^e b^f, so it fixes S iff x^g
        is a^i b^f with i = e mod c."""
        c, e, _ = self.triple
        return (self.group.conj(self.gens[1], g)[0] - e) % c == 0

    def __contains__(self, x: El) -> bool:
        """a^i b^j lies in the subgroup iff f | j and i agrees mod c with
        the a-exponent of (a^e b^f)^(j/f)."""
        c, _, f = self.triple
        i, j = x
        return j % f == 0 and (
            i - self.group.power(self.gens[1], j // f)[0]) % c == 0

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subgroup) and self.group.key == other.group.key
                and self.triple == other.triple)

    def __hash__(self) -> int:
        return hash((self.group.key, self.triple))

    def __iter__(self):
        """The elements in sorted order.  S is {a^(ck) x^l} with x = a^e b^f
        and x^l = a^i b^(lf), so row i mod c lists those l f, l < n/f."""
        G = self.group
        c, _, f = self.triple
        if c == 1:
            return ((i, j) for i in range(G.m) for j in range(0, G.n, f))
        rows: list[list[int]] = [[] for _ in range(c)]
        y = G.identity
        for j in range(0, G.n, f):
            rows[y[0] % c].append(j)
            y = G.mul(y, self.gens[1])
        return ((i, j) for i in range(G.m) for j in rows[i % c])

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order}, triple={self.triple})"


def cocyclic_triples(g_ord: int, h_ord: int, p: int) -> list[tuple[int, int, int]]:
    """Parameters (i, y, x) of the subgroups K of <g> x <h> with cyclic
    quotient, for a p-group with |g| = g_ord >= h_ord = |h|.

    i = 1: K = <g h^x, h^y> with y | |h| and 1 <= x <= y.
    i = 2: K = <g^x h, g^y> with y | |g|, p | x, p | y, x <= y and y | |h| x.
    The index [L : K] is y in both cases, and distinct parameters give
    distinct subgroups.
    """
    if g_ord < h_ord:
        raise ValueError("need |g| >= |h|")
    out = []
    for y in divisors(h_ord):
        out.extend((1, y, x) for x in range(1, y + 1))
    for y in divisors(g_ord):
        if y % p:
            continue
        out.extend((2, y, x) for x in range(p, y + 1, p) if (h_ord * x) % y == 0)
    return out


def cocyclic_subgroup_from_triple(G: MetacyclicGroup, g: El, h: El,
                                  triple: tuple[int, int, int]) -> Subgroup:
    i, y, x = triple
    if i == 1:
        return G.generated([G.mul(g, G.power(h, x)), G.power(h, y)])
    return G.generated([G.mul(G.power(g, x), h), G.power(g, y)])


def cocyclic_subgroups_of_product(G: MetacyclicGroup, g: El, h: El) -> list[Subgroup]:
    """Subgroups with cyclic quotient of the abelian group <g> x <h>.

    The intersection <g> meet <h> must be trivial.  Works prime by prime
    through the triple parametrization, then multiplies the local pieces
    back together.
    """
    A = G.generated([g, h])
    if G.element_order(g) * G.element_order(h) != A.order:
        raise InvariantError(f"<{g}> and <{h}> meet nontrivially in {G!r}")
    result = [Subgroup(G, G.m, 0, G.n)]
    for p in sorted(primes_of(A.order)):
        gp = G.element_part(g, (p,))
        hp = G.element_part(h, (p,))
        if G.element_order(gp) < G.element_order(hp):
            gp, hp = hp, gp
        local = [cocyclic_subgroup_from_triple(G, gp, hp, tr)
                 for tr in cocyclic_triples(G.element_order(gp),
                                            G.element_order(hp), p)]
        result = [G.generated(S.gens + K.gens) for S in result for K in local]
    return result
