"""Enumerating representations of an integer over a tuple of generators.

The enumerator is a pruned depth-first search that takes the generators by
decreasing value; its companion counter is an independent coin-counting
dynamic program used to cross-check it.
"""

from __future__ import annotations

from typing import Sequence

from .semigroup import NumericalSemigroup


def factorization_vectors(gens: Sequence[int], value: int) -> list[tuple[int, ...]]:
    """All coefficient vectors c >= 0 with sum(c[j] * gens[j]) == value.

    ``gens`` is a non-empty generator tuple in any order (RF rows use all
    generators but one). The list is complete, duplicate-free and ordered by
    lexicographically decreasing coefficients in the order of ``gens``.

    The search takes the largest generator outermost, trying its largest
    multiple first, so the tree is narrowest at the top; the smallest
    generator, which has the most multiples, closes the last coefficient by
    ``divmod``. Each coefficient is written at its index in ``gens``, and the
    final sort gives the output order, whatever the search order.
    """
    if value < 0:
        raise ValueError(f"cannot factor a negative value: {value}")
    *outer, last = sorted(range(len(gens)), key=gens.__getitem__, reverse=True)
    smallest = gens[last]
    depth_last = len(outer)
    out: list[tuple[int, ...]] = []
    coeffs = [0] * len(gens)

    def descend(depth: int, rem: int) -> None:
        if depth == depth_last:
            q, r = divmod(rem, smallest)
            if r == 0:
                coeffs[last] = q
                out.append(tuple(coeffs))
            return
        idx = outer[depth]
        g = gens[idx]
        for c in range(rem // g, -1, -1):
            coeffs[idx] = c
            descend(depth + 1, rem - c * g)

    descend(0, value)
    out.sort(reverse=True)
    return out


def count_factorizations(sg: NumericalSemigroup, value: int) -> int:
    """Denumerant of ``value`` by an independent dynamic program.

    Deliberately shares no code with the enumerator so the two can vouch for
    each other in tests.
    """
    if value < 0:
        raise ValueError(f"cannot count factorizations of a negative value: {value}")
    ways = [0] * (value + 1)
    ways[0] = 1
    for g in sg.generators:
        for v in range(g, value + 1):
            ways[v] += ways[v - g]
    return ways[value]
