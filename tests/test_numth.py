from __future__ import annotations

import math
import subprocess
import sys

import pytest

from metacyclic.cli import consistent_presentations
from metacyclic.group import MetacyclicGroup
from metacyclic.numth import (
    _factor,
    crt_exponent,
    cyclic_subgroup,
    cyclic_subgroups,
    divisors,
    from_generators,
    geom_sum,
    geom_sum_mod,
    mult_order,
    orbit,
    p_part,
    part,
    phi,
    preimage,
    prime_factors,
    primes_of,
    restrict,
    trivial_subgroup,
    units,
    vp,
)
from oracles import (defined_factorization, scanned_cyclic_subgroups, scanned_preimage,
                     walked_cyclic_subgroup)


def test_prime_factors_reconstruct() -> None:
    for n in range(1, 400):
        prod = 1
        for p, e in prime_factors(n):
            assert e >= 1
            prod *= p**e
        assert prod == n
        assert primes_of(n) == {p for p, _ in prime_factors(n)}


def test_divisors_sorted_and_complete() -> None:
    for n in (1, 2, 12, 36, 97, 360):
        ds = divisors(n)
        assert list(ds) == sorted(d for d in range(1, n + 1) if n % d == 0)


def test_valuation_parts() -> None:
    assert vp(48, 2) == 4
    assert vp(48, 3) == 1
    assert vp(5, 2) == 0
    assert p_part(720, 2) == 16
    assert p_part(720, 7) == 1
    assert part(720, (2, 3)) == 144
    assert part(720, ()) == 1
    # only the given primes are divided out, so a large prime cofactor
    # is never trial-factored
    assert part(8 * 1000000000000000003, {2, 3}) == 8
    with pytest.raises(ValueError):
        part(0, (2,))
    for n in range(1, 200):
        for ps in ((2,), (3, 5), (2, 3, 7)):
            assert part(n, ps) == math.prod(p ** e for p, e in prime_factors(n) if p in ps)


def test_valuation_parts_reject_p_below_two(child_env) -> None:
    """vp and part raise ValueError for p < 2 instead of dividing by p = 1
    forever or by p = 0.  Run in a subprocess, so a loop that does not
    end fails on the timeout instead of hanging the suite."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "from metacyclic.numth import part, vp\n"
         "for call in (lambda: vp(8, 1), lambda: vp(8, 0), lambda: vp(8, -2),\n"
         "             lambda: part(8, (1,)), lambda: part(8, (2, 0))):\n"
         "    try:\n"
         "        call()\n"
         "    except ValueError:\n"
         "        print('ValueError')\n"],
        capture_output=True, text=True, timeout=15, env=child_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ValueError"] * 5


def test_factor_against_the_definitions() -> None:
    """The one cached factorization against trial division, the divisor
    definition and Euler's product, for every n <= 5000; the four readers
    return its parts."""
    for n in range(1, 5001):
        got = _factor(n)
        assert got == defined_factorization(n), n
        assert (prime_factors(n), primes_of(n), divisors(n), phi(n)) == got


def test_value_errors_of_p_part_part_divisors_and_phi(child_env) -> None:
    """p_part raises ValueError for n = 0 and for p < 2, part for n < 1
    and for p < 2, and the four readers of `_factor` for n < 1.  Run in a
    subprocess, so a loop that does not end fails on the timeout instead
    of hanging the suite."""
    calls = ("p_part(0, 2)", "p_part(0, 3)", "p_part(8, 1)", "p_part(8, 0)",
             "p_part(8, -2)", "part(0, (2,))", "part(-4, (2,))", "part(8, (1,))",
             "part(8, [2, 0])", "divisors(0)", "divisors(-6)", "phi(0)", "phi(-1)",
             "prime_factors(0)", "primes_of(0)")
    proc = subprocess.run(
        [sys.executable, "-c",
         "from metacyclic.numth import divisors, p_part, part, phi, prime_factors, primes_of\n"
         f"for call in {calls!r}:\n"
         "    try:\n"
         "        eval(call)\n"
         "    except ValueError:\n"
         "        print('ValueError')\n"],
        capture_output=True, text=True, timeout=15, env=child_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ValueError"] * len(calls)
    assert p_part(-48, 2) == 16 and p_part(-48, 5) == 1
    assert part(48, (2, 2, 3)) == 48 and part(48, iter((3,))) == 3


def test_phi_and_mult_order_against_brute_force() -> None:
    for n in range(1, 80):
        assert phi(n) == sum(1 for x in range(1, n + 1) if math.gcd(x, n) == 1)
    for n in range(2, 40):
        for x in range(1, n):
            if math.gcd(x, n) != 1:
                continue
            k, acc = 1, x % n
            while acc != 1:
                acc = acc * x % n
                k += 1
            assert mult_order(x, n) == k


def halving_geom_sum(x: int, n: int, mod: int) -> int:
    """geom_sum(x, n) reduced mod `mod` by halving n: the oracle for the
    closed form (y^k mod m(y - 1) - 1) // (y - 1) of `numth.geom_sum_mod`."""
    if mod == 1:
        return 0
    if n == 0:
        return 0
    half = halving_geom_sum(x, n // 2, mod)
    total = half * (1 + pow(x, n // 2, mod)) % mod
    if n % 2:
        total = (total + pow(x, n - 1, mod)) % mod
    return total


def test_geom_sum_mod_matches_direct_sum() -> None:
    for x in (1, 2, 3, 7, 10):
        for n in range(0, 25):
            direct = sum(x**i for i in range(n))
            assert geom_sum(x, n) == direct
            for mod in (1, 2, 5, 12, 97):
                assert halving_geom_sum(x, n, mod) == direct % mod


def test_power_matches_the_recursive_geometric_sum() -> None:
    """(a^i b^j)^k = a^(i (1 + t^j + ... + t^(j(k-1))) + s floor(jk/n)) b^(jk):
    the closed form of `MetacyclicGroup.power` against the recursion, for
    0 <= k <= 2 |G| on every presentation with m n <= 32, and for k in
    {0, 1, 10^12 + 7} on sampled elements of four presentations of order
    4096, where x^-k must be the recursion's k-th power of x^-1 and the
    inverse of x^k.  Each geometric sum the recursion takes is also the
    closed form of `geom_sum_mod`."""
    big = 10**12 + 7
    cases = [(G, G.elements, range(2 * G.order + 1))
             for G in consistent_presentations(32)]
    cases += [(G, G.elements[::97], (0, 1, big)) for G in (
        MetacyclicGroup(1, 4096, 0, 1), MetacyclicGroup(4096, 1, 0, 1),
        MetacyclicGroup(64, 64, 0, 5), MetacyclicGroup(128, 32, 64, 127))]

    def recursion(G, el, k):
        m, n, s, t = G.key
        i, j = el
        y = pow(t, j, m)
        geom = halving_geom_sum(y, k, m)
        assert geom_sum_mod(y, k, m) == geom, (y, k, m)
        return ((i * geom + s * (j * k // n)) % m, j * k % n)

    for G, elements, ks in cases:
        for x in elements:
            assert [G.power(x, k) for k in ks] == [recursion(G, x, k) for k in ks]
            if G.order == 4096:
                assert G.power(x, -big) == recursion(G, G.inv(x), big), (G, x)
                assert G.mul(G.power(x, -big), G.power(x, big)) == G.identity


def test_units_degenerate_modulus() -> None:
    # modulus 1 keeps a single residue so the trivial group stays nonempty
    assert units(1) == (0,)
    assert units(8) == (1, 3, 5, 7)


def test_unit_subgroup_preimage_and_canonical_generator() -> None:
    sub = preimage(from_generators(8, [7]), 16)
    assert sub.elements == (1, 7, 9, 15)
    assert restrict(sub, 8).elements == (1, 7)
    assert sub.order == 4
    assert not sub.is_cyclic
    assert 7 in sub and 3 not in sub
    cyc = cyclic_subgroup(3, 16)
    assert cyc.elements == (1, 3, 9, 11)
    assert cyc.is_cyclic
    assert cyc.canonical_generator() == 3
    assert cyclic_subgroup(11, 16) == cyc  # 11 = 3^3 generates the same subgroup
    assert preimage(trivial_subgroup(1), 8).elements == units(8)
    assert preimage(trivial_subgroup(1), 1) == trivial_subgroup(1)
    with pytest.raises(ValueError):
        preimage(cyc, 24)  # 24 is not a multiple of 16


def test_preimage_against_the_unit_scan() -> None:
    """The preimage built from the lifts of H's residues against the scan
    of every unit mod M, for every cyclic subgroup H of the units mod d,
    d | M <= 256; both intern the same subgroup."""
    for modulus in range(1, 257):
        for d in divisors(modulus):
            for sub in cyclic_subgroups(d):
                assert preimage(sub, modulus) is scanned_preimage(sub, modulus), \
                    (sub, modulus)


def test_orbit_is_the_closure_under_the_action() -> None:
    assert orbit(1, (3,), lambda x, g: x * g % 16) == {1, 3, 9, 11}
    assert orbit(0, (4, 6), lambda x, g: (x + g) % 10) == {0, 2, 4, 6, 8}
    assert orbit("x", (), None) == {"x"}
    # the action need not come from a group: a sink ends the walk
    assert orbit(5, (1,), lambda x, g: max(x - g, 0)) == {0, 1, 2, 3, 4, 5}


def test_from_generators_and_restrict() -> None:
    sub = from_generators(24, (5, 7))
    assert sub.order == 4
    assert restrict(sub, 8).elements == tuple(sorted({5 % 8, 7 % 8, 35 % 8, 1}))
    assert restrict(sub, 3).is_trivial is False or restrict(sub, 3).order >= 1
    # restriction maps onto residues, never invents new ones
    for q in (1, 2, 3, 4, 6, 8, 12):
        r = restrict(sub, q)
        assert set(r.elements) == {x % q if q > 1 else 0 for x in sub.elements}


def test_trivial_subgroup_and_modulus_one() -> None:
    assert trivial_subgroup(7).elements == (1,)
    assert trivial_subgroup(1).elements == (0,)
    assert cyclic_subgroup(0, 1).is_trivial
    one = trivial_subgroup(1)
    assert from_generators(1, [0, 5]) == one
    assert 7 in one
    assert mult_order(5, 1) == 1
    assert cyclic_subgroups(1, 0) == ()
    assert cyclic_subgroups(1, 1) == (one,)
    assert restrict(cyclic_subgroup(3, 16), 1) == one


def test_cyclic_subgroups_are_exactly_the_cyclic_ones() -> None:
    """Against the orbit of every unit, for the full listing and for every
    bound on the order; equality includes the least generator."""
    for modulus in range(1, 257):
        want = sorted({cyclic_subgroup(t, modulus) for t in units(modulus)})
        assert list(cyclic_subgroups(modulus)) == want
        for bound in range(phi(modulus) + 2):
            got = cyclic_subgroups(modulus, bound)
            assert list(got) == [S for S in want if S.order <= bound], (modulus, bound)


def test_cyclic_subgroups_against_the_unit_scan() -> None:
    """The listing by Sylow parts against the scan of every unit, for every
    modulus up to 1024, with no bound and at the bounds that `valid_tuples`
    uses for 128 and 4096; equality includes the least generator.  The
    bounded listings are compared with the scan's full listing cut at the
    bound."""
    for modulus in range(1, 1025):
        want = scanned_cyclic_subgroups(modulus)
        assert cyclic_subgroups(modulus) == want, modulus
        for bound in (128 // modulus, 4096 // modulus):
            assert cyclic_subgroups(modulus, bound) == \
                tuple(S for S in want if S.order <= bound), (modulus, bound)


def test_cyclic_subgroup_matches_the_closure_of_its_generator() -> None:
    """`cyclic_subgroup` against the power walk of the oracle, generator
    included, for every unit mod n <= 300; it is the very subgroup that
    the orbit closure of `from_generators` interns."""
    for modulus in range(1, 301):
        for t in units(modulus):
            sub = cyclic_subgroup(t, modulus)
            assert sub == walked_cyclic_subgroup(t, modulus), (t, modulus)
            assert sub is from_generators(modulus, [t]), (t, modulus)
        assert trivial_subgroup(modulus) is cyclic_subgroup(1, modulus)
    assert cyclic_subgroup(19, 16) == cyclic_subgroup(3, 16)
    with pytest.raises(ValueError, match="not a unit"):
        cyclic_subgroup(2, 8)


def test_crt_exponent_hits_prescribed_parts() -> None:
    """For every order <= 512 and every set of its primes, e = 1 mod the
    primes' part a, e = 0 mod order / a, and 0 <= e < order."""
    for order in range(1, 513):
        primes = sorted(primes_of(order))
        for mask in range(1 << len(primes)):
            chosen = [p for i, p in enumerate(primes) if mask >> i & 1]
            a = part(order, chosen)
            e = crt_exponent(order, chosen)
            assert 0 <= e < order and e % a == 1 % a and e % (order // a) == 0, (order, chosen)
    e = crt_exponent(360, (2, 3))
    # e kills the coprime part and is 1 on the (2,3)-part
    assert e % 8 == 1 and e % 9 == 1 and e % 5 == 0
    assert crt_exponent(7, ()) == 0
    assert crt_exponent(12, (2, 3)) == 1
