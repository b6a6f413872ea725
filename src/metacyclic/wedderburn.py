"""Strong Shoda pairs and the rational Wedderburn decomposition.

Every simple component of the group algebra over the rationals of a
metacyclic group comes from a strong Shoda pair (L, K): L is the unique
largest subgroup containing a fixed maximal abelian A = <a, b^j0> whose
derived subgroup lands in K, and L/K must be cyclic.  The component is a
matrix ring over a cyclic algebra; we record it symbolically as a
:class:`SimpleComponent` and describe its center as a cyclotomic fixed
field, so equality of centers is exact Galois-correspondence arithmetic.
"""

from __future__ import annotations

import math
from functools import lru_cache, total_ordering
from itertools import product
from typing import NamedTuple

from .group import InvariantError, MetacyclicGroup, Subgroup, canonical_es
from .numth import (
    UnitSubgroup,
    cyclic_subgroup,
    divisors,
    from_generators,
    lcm,
    mult_order,
    phi,
    preimage,
    prime_factors,
    restrict,
    trivial_subgroup,
)


def canonical_conductor(d: int) -> int:
    """Smallest f with Q(zeta_f) = Q(zeta_d); kills the d = 2 mod 4 alias."""
    return d // 2 if d % 4 == 2 else d


# ---------------------------------------------------------------------------
# cyclotomic fixed fields


@total_ordering
class FixedField:
    """The subfield of Q(zeta_conductor) fixed by `fixer` <= U_conductor.

    Instances are kept canonical: the conductor is the smallest modulus
    realizing the field, so equality of (conductor, fixer) is field
    equality.  Instances are immutable, and they compare, hash and sort
    as the tuple (conductor, fixer).
    """

    __slots__ = ("conductor", "fixer", "_torsion")

    def __init__(self, conductor: int, fixer: UnitSubgroup) -> None:
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "fixer", fixer)
        object.__setattr__(self, "_torsion", 0)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return FixedField, (self.conductor, self.fixer)

    def __eq__(self, other) -> bool:
        if other.__class__ is not FixedField:
            return NotImplemented
        return (self.conductor, self.fixer) == (other.conductor, other.fixer)

    def __lt__(self, other) -> bool:
        if other.__class__ is not FixedField:
            return NotImplemented
        return (self.conductor, self.fixer) < (other.conductor, other.fixer)

    def __hash__(self) -> int:
        return hash((self.conductor, self.fixer))

    @property
    def degree(self) -> int:
        return phi(self.conductor) // self.fixer.order

    @property
    def torsion(self) -> int:
        """Order of the torsion subgroup of F* (always even), computed on
        the first read and kept on the instance, which `fixed_field`
        interns.

        Q(zeta_f) embeds in F exactly when f divides the conductor and
        the whole fixer reduces to 1 mod f, that is when f divides g, the
        gcd of the conductor and every x - 1 over the fixer.  Since
        xy - 1 = x(y - 1) + (x - 1), that gcd over a generating set equals
        the gcd over every element, so g is read from the fixer's
        generators.  The torsion order is 2 * e * 2^(a-1) with e the odd
        part of g and 2^a its 2-part (a >= 1 read as 1 when g is odd,
        since -1 is always present).  It is kept outside (conductor,
        fixer), so it takes no part in equality, hashing or order.
        """
        if not self._torsion:
            g = math.gcd(self.conductor, *(x - 1 for x in self.fixer_generators()))
            two = g & -g
            object.__setattr__(self, "_torsion", 2 * (g // two) * max(two // 2, 1))
        return self._torsion

    def fixer_generators(self) -> tuple[int, ...]:
        if self.fixer.is_trivial:
            return (1,)
        if self.fixer.is_cyclic:
            return (self.fixer.canonical_generator(),)
        gens: list[int] = []
        have = from_generators(self.conductor, [])
        for x in self.fixer.elements:
            if x not in have.elements:
                gens.append(x)
                have = from_generators(self.conductor, gens)
                if have == self.fixer:
                    break
        return tuple(gens)

    def to_json(self) -> dict:
        gens = self.fixer_generators()
        return {
            "conductor": self.conductor,
            "fixer_gen": gens[0] if len(gens) == 1 else list(gens),
        }

    def __repr__(self) -> str:
        if self.conductor == 1:
            return "Q"
        if self.fixer.is_trivial:
            return f"Q(zeta_{self.conductor})"
        return f"Q(zeta_{self.conductor})^{self.fixer_generators()}"


@lru_cache(maxsize=None)
def fixed_field(d: int, T: UnitSubgroup) -> FixedField:
    """Canonical form of the fixed field of T <= U_d acting on Q(zeta_d).

    The conductor is the smallest divisor d0 of d such that the kernel of
    reduction U_d -> U_{d0} lies inside T; the fixer is the image of T in
    U_{d0}.  That kernel is the units among the residues 1 + j d0 mod d,
    so only those are tested.  Minimality under divisibility makes the
    first hit in the ascending divisor scan the unique canonical
    conductor, and it is never 2 mod 4 because that level reduces with
    trivial kernel.
    """
    if d < 1:
        raise ValueError("modulus must be positive")
    if T.modulus != d:
        raise ValueError(f"fixer has modulus {T.modulus}, expected {d}")
    fix = set(T.elements)
    for d0 in divisors(d):
        kernel = ((1 + j * d0) % d for j in range(d // d0))
        if all(x in fix for x in kernel if math.gcd(x, d) == 1):
            fixer = restrict(T, d0)
            if phi(d) // T.order != phi(d0) // fixer.order:
                raise InvariantError(f"fixer of {T} loses order at conductor {d0}")
            return FixedField(d0, fixer)
    raise InvariantError(f"no conductor of {T} qualifies, not even {d}")


RATIONALS = fixed_field(1, trivial_subgroup(1))


def cyclotomic_field(d: int) -> FixedField:
    return fixed_field(d, trivial_subgroup(d))


def galois_preimage(F: FixedField, modulus: int) -> UnitSubgroup:
    """Subgroup of U_modulus acting trivially on F inside Q(zeta_modulus)."""
    if modulus % F.conductor:
        raise ValueError("field does not embed: conductor must divide modulus")
    return preimage(F.fixer, modulus)


def is_subfield(F: FixedField, E: FixedField) -> bool:
    """Whether F embeds in E.  Conductors are minimal, so F lies in
    Q(zeta_E.conductor) iff F.conductor divides it; then F is inside E iff
    everything fixing E fixes F, i.e. E's fixer reduces into F's."""
    if E.conductor % F.conductor:
        return False
    fix = set(F.fixer.elements)
    return all(x % F.conductor in fix for x in E.fixer.elements)


def intersect_cyclotomic(F: FixedField, c: int) -> FixedField:
    """The field F meet Q(zeta_c), canonicalized.  Q(zeta_a) meet Q(zeta_b)
    is Q(zeta_gcd(a, b)), so this is F meet Q(zeta_g) for g the gcd of c
    and F's conductor: the fixed field of F's fixer restricted to U_g."""
    g = math.gcd(F.conductor, c)
    return fixed_field(g, restrict(F.fixer, g))


# ---------------------------------------------------------------------------
# strong Shoda pairs


class _Block:
    """The constants that the classes of one (c, f) block share, for
    K = <a^c, a^e b^f> inside L = <a, b^e0>, e0 the order of t mod c and
    e0 | f.  L/<a^c> is abelian on a and b^e0, so L/K is Z^2 modulo the
    rows (c, 0), (-s, n0) and (e, f'), with n0 = n/e0 and
    f' = (f mod n)/e0; it is cyclic iff the first invariant factor, the
    gcd of the entries, is 1, that is iff e is prime to the gcd of the
    other four, `_cyclicity_gcd`.  The rest serve `_class_of` (t^-1 mod c),
    `_least` (n/f) and `_component`: [L:K] = c f/e0, and gamma and v of
    the Hermite basis of `_character`."""

    __slots__ = ("G", "c", "f", "e0", "n0", "fp", "idx", "gamma", "v",
                 "t_inv", "head")

    def __init__(self, G: MetacyclicGroup, c: int, f: int, e0: int):
        n0, fp = G.n // e0, f % G.n // e0
        gamma = math.gcd(n0, fp)
        self.G, self.c, self.f, self.e0, self.n0, self.fp = G, c, f, e0, n0, fp
        self.idx = c * f // e0
        self.gamma = gamma
        self.v = pow(fp // gamma, -1, n0 // gamma)
        self.t_inv = pow(G.t, -1, c)
        self.head = G.n // f


def _cyclicity_gcd(G: MetacyclicGroup, c: int, f: int, e0: int) -> int:
    """The gcd of c, s, n/e0 and (f mod n)/e0, to which e is prime iff
    L/K is cyclic (see `_Block`)."""
    n = G.n
    return math.gcd(c, G.s, n // e0, f % n // e0)


def _class_of(B: _Block, e: int) -> list[int]:
    """The e' of the conjugates <a^c, a^e' b^f> of K = <a^c, a^e b^f>
    when t^f = 1 mod c: then conjugation by a fixes e and conjugation by
    b sends it to e t^-1 mod c, so the class is {e t^-j mod c}, and its
    size f_N is the least divisor of n with c | e (t^f_N - 1), making
    N_G(K) = <a, b^f_N>."""
    c, t_inv = B.c, B.t_inv
    orbit, x = [e], e * t_inv % c
    while x != e:
        orbit.append(x)
        x = x * t_inv % c
    return orbit


def _least(B: _Block, conjugates: list[int]) -> int:
    """The member of a class whose first n/f elements, those a^i b^j with
    i < c, come first: the sorted element list repeats them for each
    i mod c, and as t^f = 1 mod c they are a^(e l mod c) b^(l f) for
    l < n/f."""
    if len(conjugates) == 1:
        return conjugates[0]
    c, head = B.c, B.head
    return min(conjugates, key=lambda x: sorted((x * l % c, l) for l in range(head)))


def _shoda_classes(G: MetacyclicGroup):
    """(B, e, conjugates) for each conjugacy class of K = <a^c, a^e b^f>
    in a strong Shoda pair (L, K), L = <a, b^e0>: B the `_Block` of
    (c, f), e the member of least residue and conjugates its class
    (`_class_of`), of size f_N, in block order.

    The fixed maximal abelian subgroup is A = <a, b^j0> with j0 the order
    of t mod m.  L contains A, so L = <a, b^d> with d | j0; L' <= K
    forces e0 | d, e0 the order of t mod c, and maximality forces d = e0.
    So each block (c, f) is read at once: K lies in L iff e0 | f, tested
    before its e are solved (`canonical_es`), and L/K is cyclic iff e is
    prime to `_cyclicity_gcd`, computed first, so a `_Block` is built only
    for a block that holds a class.  Normality of K in L is checked: a
    normalizes K iff t^f = 1 mod c, and b^e0 iff e (t^e0 - 1) = 0 mod c.
    The other strong-pair axioms hold by the classification of
    metabelian group algebras; the exact idempotent arithmetic of the
    test oracles verifies them at small orders.
    """
    t = G.t
    orders = [(c, mult_order(t, c)) for c in divisors(G.m)]
    for (f, S, s0), (c, e0) in product(G._power_sums(), orders):
        es = None if f % e0 else canonical_es(c, S, s0)
        if es is None:
            continue
        coprime = _cyclicity_gcd(G, c, f, e0)
        B = None
        a_normal = pow(t, f, c) == 1 % c
        b_shift = pow(t, e0, c) - 1
        seen: set[int] = set()
        for e in es:
            if e in seen or math.gcd(coprime, e) != 1:
                continue
            if not a_normal or e * b_shift % c:
                raise InvariantError(f"{Subgroup(G, c, e, f)!r} is not normal in "
                                     f"{G.l_subgroup(e0)!r} in {G!r}")
            if B is None:
                B = _Block(G, c, f, e0)
            conjugates = _class_of(B, e)
            seen.update(conjugates)
            yield B, e, conjugates


def strong_shoda_pairs(G: MetacyclicGroup) -> tuple[tuple[Subgroup, Subgroup], ...]:
    """One strong Shoda pair (L, K) per conjugacy class of K, as listed by
    `_shoda_classes`, in the (order, triple) order of the least-e members
    of the classes; K is the member of least element list (`_least`),
    the conjugate that the twist y of `_component` refers to."""
    m = G.m
    rows = sorted((m // B.c * B.head, B.c, e, B.f, _least(B, conjugates), B.e0)
                  for B, e, conjugates in _shoda_classes(G))
    return tuple((G.l_subgroup(e0), Subgroup(G, c, least, f))
                 for _, c, _, f, least, e0 in rows)


# ---------------------------------------------------------------------------
# simple components


class SimpleComponent(NamedTuple):
    """Symbolic Wedderburn component: matrix_size x matrix_size matrices
    over the cyclic algebra (Q(zeta_conductor)/center, sigma_x, zeta^y)."""

    matrix_size: int
    conductor: int
    x: int
    y: int
    center: FixedField
    total_degree: int
    q_dimension: int

    @property
    def action_subgroup(self) -> UnitSubgroup:
        return cyclic_subgroup(self.x, self.conductor)

    def sort_key(self) -> tuple[int, int, int, int, int]:
        return (self.q_dimension, self.total_degree, self.conductor, self.x, self.y)

    def to_json(self) -> dict:
        return {
            "matrix_size": self.matrix_size,
            "conductor": self.conductor,
            "x": self.x,
            "y": self.y,
            "center": self.center.to_json(),
            "degree": self.total_degree,
            "dim": self.q_dimension,
        }


def _character(B: _Block, e: int, alpha: int) -> int:
    """q such that a^i b^(e0 k) -> gamma i + q k mod [L:K] maps L onto
    Z/[L:K] with kernel K, for a strong Shoda pair (L, K) of block B.
    Row operations on (-s, n0) and (e, f') bring the relation lattice to
    the Hermite basis (alpha, 0), (beta, gamma), with gamma = gcd(n0, f')
    and alpha = gcd(c, (n0 e + f' s)/gamma) (`_component` reads alpha);
    then [L:K] = alpha gamma.  p = gamma and q = alpha k - beta kill both
    rows, and with k the product of the primes dividing gamma but not
    beta, gcd(q, gamma) = 1 (gcd(alpha, beta, gamma) = 1 as L/K is
    cyclic), so the map is onto."""
    gamma, v = B.gamma, B.v
    beta = v * e - (gamma - v * B.fp) // B.n0 * B.G.s
    k = math.prod(r for r, _ in prime_factors(gamma) if beta % r)
    return (alpha * k - beta) % B.idx


def _component(B: _Block, e: int, f_N: int,
               table: dict[tuple[int, int], SimpleComponent]) -> SimpleComponent:
    """Descriptor of the simple algebra attached to the strong Shoda pair
    (L, K) = (<a, b^e0>, <a^c, a^e b^f>) of block B whose class of K has
    size f_N.

    With N = N_G(K) = <a, b^f_N> (see `_class_of`), u a generator of L/K
    and w = b^f_N a generator of the cyclic N/L: x is the conjugation
    exponent u^w = u^x mod K, y the twist w^[N:L] = u^y mod K, and the
    center is the fixed field of <x> in Q(zeta_[L:K]); u is the least
    element of L generating L/K.  Every class first passes the index
    check alpha gamma = [L:K], alpha and gamma of the Hermite basis of
    `_character`.

    When N = L (f_N = e0, w = 1), x = 1, y = 0 and the component is
    M_e0(Q(zeta_[L:K])), as Olivieri, del Rio and Simon show for a
    strong Shoda pair with N_G(K) = L; `table` keeps the one descriptor
    of each (e0, [L:K]) for the caller.

    When N > L, x and y are read through the character chi of
    `_character`, whose kernel is K.  chi(a) = gamma goes to
    chi(w^-1 a w) = gamma t^-f_N and chi(b^e0) = q to itself, and the
    image of chi(u) is x chi(u), so x = t^-f_N mod alpha and x = 1 mod
    [L:K]/gcd(q, [L:K]); the two moduli have lcm [L:K] as chi is onto,
    and residues that disagree mean w does not normalize K.  u is read
    only for y: u = a^i b^(e0 k) is the first element, in the order of
    L, with chi(u) = gamma i + q k a unit mod [L:K], and a row i holds
    one only if no prime of [L:K] divides both gamma i and q;
    y = chi(w^[N:L]) / chi(u).  The descriptor is that of the K given:
    only y depends on which conjugate it is.  N contains a, hence G', so
    it is normal and the same for every conjugate, and w with it;
    conjugating K by g transports the action of w to that of g w g^-1,
    which differs from w by an element of G' <= L acting trivially on
    the abelian L/K.  So x, the center and the degrees do not depend on
    the conjugate.
    """
    G, idx, gamma, e0 = B.G, B.idx, B.gamma, B.e0
    alpha = math.gcd(B.c, (B.n0 * e + B.fp * G.s) // gamma)
    if alpha * gamma != idx:
        raise InvariantError(f"[L:K] = {idx} is not {alpha} * {gamma}")
    if f_N == e0:
        comp = table.get((e0, idx))
        if comp is None:
            center = cyclotomic_field(idx)
            comp = table[e0, idx] = SimpleComponent(
                matrix_size=e0,
                conductor=idx,
                x=1 % idx,
                y=0,
                center=center,
                total_degree=e0,
                q_dimension=e0 * e0 * center.degree,
            )
        return comp

    q = _character(B, e, alpha)
    r, fixed = pow(G.t, -f_N, alpha), idx // math.gcd(q, idx)
    g = math.gcd(alpha, fixed)
    if (r - 1) % g:
        raise InvariantError(f"b^{f_N} acts on L/K by {r} mod {alpha} "
                             f"and 1 mod {fixed}")
    x = (1 + fixed * ((r - 1) // g * pow(fixed // g, -1, alpha // g))) % idx
    i, k = next((i, k) for i in range(G.m) if math.gcd(gamma * i, q, idx) == 1
                for k in range(B.n0) if math.gcd(gamma * i + q * k, idx) == 1)
    w_power = G.power((0, f_N), e0 // f_N)
    y = (gamma * w_power[0] + q * (w_power[1] // e0)) * pow(gamma * i + q * k, -1, idx) % idx
    if math.gcd(x, idx) != 1:
        raise InvariantError("conjugation must act by a unit")
    action = cyclic_subgroup(x, idx)
    center = fixed_field(idx, action)

    total_degree = e0  # [G:L]
    if total_degree != f_N * action.order:
        raise InvariantError(f"degree {total_degree} is not {f_N} "
                             f"times the action order {action.order}")
    return SimpleComponent(
        matrix_size=f_N,
        conductor=idx,
        x=x,
        y=y,
        center=center,
        total_degree=total_degree,
        q_dimension=total_degree * total_degree * center.degree,
    )


def component_of(G: MetacyclicGroup, L: Subgroup, K: Subgroup) -> SimpleComponent:
    """Descriptor of the simple algebra attached to a strong Shoda pair
    (L, K) of G, as computed by `_component` for that K."""
    c, e, f = K.triple
    e0 = mult_order(G.t, c)
    if (f % e0 or L != G.l_subgroup(e0)
            or math.gcd(_cyclicity_gcd(G, c, f, e0), e) != 1):
        raise ValueError("(L, K) is not a strong Shoda pair of G")
    B = _Block(G, c, f, e0)
    return _component(B, e, len(_class_of(B, e)), {})


# Only the group being checked reuses its answer; more would keep a sweep alive.
@lru_cache(maxsize=1)
def decomposition(G: MetacyclicGroup) -> tuple[SimpleComponent, ...]:
    """All Wedderburn components of the rational group algebra of G,
    sorted by (dimension, degree, conductor, action, twist): one
    `_component` per class, built as `_shoda_classes` walks the blocks.
    Only a class with N > L reads its least member (`_least`), the one
    whose twist is reported.  The classes with N = L share one
    descriptor per (e0, [L:K]), kept in a table that lives for the call,
    and components with the same action share one interned subgroup, so
    `fixed_field` builds each center once."""
    table: dict[tuple[int, int], SimpleComponent] = {}
    comps = [_component(B, e if len(conjugates) == B.e0 else _least(B, conjugates),
                        len(conjugates), table)
             for B, e, conjugates in _shoda_classes(G)]
    comps.sort(key=SimpleComponent.sort_key)
    total = sum(c.q_dimension for c in comps)
    if total != G.order:
        raise InvariantError(f"components of {G!r} span {total} of "
                             f"{G.order} dimensions")
    return tuple(comps)


def perlis_walker(abelian_invariants) -> tuple[tuple[int, int], ...]:
    """Multiset {(d, multiplicity of Q(zeta_d))} for the rational algebra
    of the abelian group with the given cyclic factors.  The multiplicity
    is the number of elements of order d divided by phi(d); conductors are
    reported raw (d = 2 mod 4 is not folded down)."""
    factors = [int(f) for f in abelian_invariants]
    if any(f < 1 for f in factors):
        raise ValueError("cyclic factors must be positive")
    exponent = lcm(*factors) if factors else 1
    exact: dict[int, int] = {}
    for d in divisors(exponent):
        below = math.prod(math.gcd(d, f) for f in factors)
        exact[d] = below - sum(exact[e] for e in divisors(d) if e != d)
    out = []
    for d in divisors(exponent):
        if exact[d]:
            if exact[d] % phi(d):
                raise InvariantError(f"phi({d}) does not divide {exact[d]}")
            out.append((d, exact[d] // phi(d)))
    return tuple(out)


def commutative_conductors(comps) -> tuple[tuple[int, int], ...]:
    """Multiset {(canonical conductor, multiplicity)} of the degree-1 slice."""
    counts: dict[int, int] = {}
    for c in comps:
        if c.total_degree == 1:
            counts[c.center.conductor] = counts.get(c.center.conductor, 0) + 1
    return tuple(sorted(counts.items()))


def perlis_walker_conductors(abelian_invariants) -> tuple[tuple[int, int], ...]:
    """Perlis-Walker multiset with conductors canonicalized and merged."""
    counts: dict[int, int] = {}
    for d, mult in perlis_walker(abelian_invariants):
        f = canonical_conductor(d)
        counts[f] = counts.get(f, 0) + mult
    return tuple(sorted(counts.items()))


# ---------------------------------------------------------------------------
# comparison

DIFFERENT = "DIFFERENT"
EQUAL = "EQUAL"
UNKNOWN = "UNKNOWN"


def fingerprint(comps) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """Multiset of (total_degree, center) with the center flattened to
    hashable canonical data."""
    return tuple(
        sorted(
            (c.total_degree, c.center.conductor, c.center.fixer.elements)
            for c in comps
        )
    )


def compare_algebras(G: MetacyclicGroup, H: MetacyclicGroup) -> str:
    """Conservative three-way comparison of rational group algebras.

    DIFFERENT needs only the (degree, center) fingerprints to disagree.
    EQUAL demands a bijection matching matrix size, conductor, action
    subgroup, twist and center exactly.  Anything in between is UNKNOWN:
    the descriptors cannot separate, e.g., the quaternion algebra from
    2 x 2 matrices, and we do not guess Brauer classes.
    """
    a, b = decomposition(G), decomposition(H)
    if fingerprint(a) != fingerprint(b):
        return DIFFERENT

    def full_key(c: SimpleComponent):
        return (
            c.matrix_size,
            c.conductor,
            c.action_subgroup.elements,
            c.y,
            c.center.conductor,
            c.center.fixer.elements,
        )

    if sorted(map(full_key, a)) == sorted(map(full_key, b)):
        return EQUAL
    return UNKNOWN
