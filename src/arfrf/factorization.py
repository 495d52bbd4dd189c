"""Enumerating representations of an integer over a tuple of generators.

The enumerator loops over the multiples of every generator but the two
smallest, and solves those two as a linear congruence, so each remainder
that has a solution yields its vectors with no failed trial. Its companion
counter is an independent coin-counting dynamic program that fills the
denumerants of every value up to a bound in one table, so one call
cross-checks the enumerator at any number of values.
"""

from __future__ import annotations

from math import gcd
from typing import Iterator, Sequence


def _remainders(gens: Sequence[int], order: list[int], rem: int, coeffs: list[int]) -> Iterator[int]:
    """Write each choice of the coefficients at ``order`` into ``coeffs``,
    first generator outermost and largest multiple first, and yield what is
    left of ``rem``; with ``order`` empty, yield ``rem`` itself."""
    if not order:
        yield rem
        return
    idx, *rest = order
    g = gens[idx]
    for c in range(rem // g, -1, -1):
        coeffs[idx] = c
        if rest:
            yield from _remainders(gens, rest, rem - c * g, coeffs)
        else:
            yield rem - c * g


def factorization_vectors(gens: Sequence[int], value: int) -> list[tuple[int, ...]]:
    """All coefficient vectors c >= 0 with sum(c[j] * gens[j]) == value.

    ``gens`` is a non-empty generator tuple in any order (RF rows use all
    generators but one). The list is complete, duplicate-free and ordered by
    lexicographically decreasing coefficients in the order of ``gens``.

    The search loops over the larger generators, the largest outermost. For
    the two smallest, a >= b with d = gcd(a, b), a remainder r has a solution
    only if d | r; then a c_a in 0..r // a has a c_b >= 0 with
    c_a * a + c_b * b == r exactly when c_a == (r/d) * (a/d)^-1 mod b/d. So
    c_a steps down by b/d from its largest such value, c_b steps up by a/d,
    and every step is an output. Each coefficient is written at its index in
    ``gens``, and the final sort gives the output order, whatever the search
    order.
    """
    if value < 0:
        raise ValueError(f"cannot factor a negative value: {value}")
    if len(gens) == 1:
        q, r = divmod(value, gens[0])
        return [] if r else [(q,)]
    *outer, ia, ib = sorted(range(len(gens)), key=gens.__getitem__, reverse=True)
    a, b = gens[ia], gens[ib]
    d = gcd(a, b)
    step, up = b // d, a // d
    inv = pow(up, -1, step)  # 0 when step == 1
    out: list[tuple[int, ...]] = []
    coeffs = [0] * len(gens)
    for rem in _remainders(gens, outer, value, coeffs):
        if rem % d == 0:
            ca = rem // a
            ca -= (ca - rem // d * inv) % step
            cb = (rem - ca * a) // b
            for ca in range(ca, -1, -step):
                coeffs[ia] = ca
                coeffs[ib] = cb
                out.append(tuple(coeffs))
                cb += up
    out.sort(reverse=True)
    return out


def count_factorizations(gens: Sequence[int], top: int) -> list[int]:
    """The denumerants of 0..``top`` over ``gens`` by an independent dynamic
    program: ``ways[n]`` is the number of factorizations of n.

    Deliberately shares no code with the enumerator so the two can vouch for
    each other in tests.
    """
    if top < 0:
        raise ValueError(f"cannot count factorizations of a negative value: {top}")
    ways = [0] * (top + 1)
    ways[0] = 1
    for g in gens:
        for v in range(g, top + 1):
            ways[v] += ways[v - g]
    return ways
