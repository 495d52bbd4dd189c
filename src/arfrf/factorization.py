"""Enumerating representations of an integer over a tuple of generators.

The enumerator is a pruned depth-first search; its companion counter is an
independent coin-counting dynamic program used to cross-check it.
"""

from __future__ import annotations

from typing import Sequence

from .semigroup import NumericalSemigroup


def factorization_vectors(gens: Sequence[int], value: int) -> list[tuple[int, ...]]:
    """All coefficient vectors c >= 0 with sum(c[j] * gens[j]) == value.

    ``gens`` is a non-empty generator tuple (RF rows use all generators but
    one). The list is complete, duplicate-free and ordered by
    lexicographically decreasing coefficients: the search takes the
    generators in order and tries the largest multiple of each first.
    """
    if value < 0:
        raise ValueError(f"cannot factor a negative value: {value}")
    last = len(gens) - 1
    out: list[tuple[int, ...]] = []
    coeffs = [0] * len(gens)

    def descend(idx: int, rem: int) -> None:
        g = gens[idx]
        if idx == last:
            q, r = divmod(rem, g)
            if r == 0:
                coeffs[idx] = q
                out.append(tuple(coeffs))
            return
        for c in range(rem // g, -1, -1):
            coeffs[idx] = c
            descend(idx + 1, rem - c * g)

    descend(0, value)
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
