"""Seeded inputs for the presentation workloads.

Builds populations of consistent presentations (m, n, s, t) by plain
integer arithmetic, without calling the program under test, and draws a
seeded sample from them.

The draw is stratified.  Presentations are grouped by
(m n, m, n, order of t mod m, gcd(s, m)); the strata are sorted, `count`
of them are picked at evenly spaced positions, and the seed chooses one
member of each.  The picked strata do not depend on the seed, so the
amount of work changes little from seed to seed while the concrete
presentations do.  One member per stratum makes every key distinct.
"""

from __future__ import annotations

import math
import random

Key = tuple[int, int, int, int]


def _order_mod(t: int, m: int) -> int:
    """Multiplicative order of t mod m, 1 for the modulus 1."""
    if m == 1:
        return 1
    k, x = 1, t % m
    while x != 1:
        x = x * t % m
        k += 1
    return k


def population(min_order: int, max_order: int) -> list[Key]:
    """Every (m, n, s, t) with min_order <= m n <= max_order,
    0 <= s < m, 0 <= t < m, gcd(t, m) = 1, t^n = 1 and s(t - 1) = 0
    mod m, in lexicographic order."""
    out = []
    for m in range(1, max_order + 1):
        units = [t for t in range(m) if math.gcd(t, m) == 1]
        for n in range(max(1, -(-min_order // m)), max_order // m + 1):
            for t in units:
                if pow(t, n, m) != 1 % m:
                    continue
                out.extend((m, n, s, t) for s in range(m) if s * (t - 1) % m == 0)
    return out


def stratified_draw(pop: list[Key], count: int, seed: int) -> list[Key]:
    """`count` distinct keys, one from each of `count` evenly spaced strata,
    ordered by stratum."""
    strata: dict[tuple, list[Key]] = {}
    for key in pop:
        m, n, s, t = key
        strata.setdefault((m * n, m, n, _order_mod(t, m), math.gcd(s, m)), []).append(key)
    names = sorted(strata)
    if not 1 <= count <= len(names):
        raise ValueError(f"count must lie in 1..{len(names)}")
    rng = random.Random(seed)
    return [rng.choice(strata[names[(2 * i + 1) * len(names) // (2 * count)]])
            for i in range(count)]
