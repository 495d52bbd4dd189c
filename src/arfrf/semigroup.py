"""Numerical semigroups and their classical invariants, all in exact arithmetic.

A semigroup is built once from a generator set; after that every instance is
immutable and all queries are pure, so instances can be shared freely across
threads. The Arf test and the Arf closure both read the multiplicity sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import Iterable

from .errors import NotMember, NotNumerical


@dataclass(frozen=True, slots=True)
class NumericalSemigroup:
    """A numerical semigroup with its cached invariants.

    ``apery_table[i]`` is the least element congruent to i modulo the
    multiplicity; every membership question reduces to one table lookup.
    """

    generators: tuple[int, ...]
    multiplicity: int = field(compare=False)
    embedding_dimension: int = field(compare=False)
    frobenius: int = field(compare=False)
    conductor: int = field(compare=False)
    apery_table: tuple[int, ...] = field(compare=False, repr=False)

    def __str__(self) -> str:
        return "<" + ",".join(map(str, self.generators)) + ">"

    def contains(self, n: int) -> bool:
        """Membership via the Apéry table: n is in S iff n >= w(n mod m)."""
        if n < 0:
            return False
        return n >= self.apery_table[n % self.multiplicity]

    __contains__ = contains

    def genus(self) -> int:
        """Number of gaps, read off the Apéry table."""
        m = self.multiplicity
        return sum((w - i) // m for i, w in enumerate(self.apery_table))

    def apery_set(self, n: int) -> tuple[int, ...]:
        """Apéry set with respect to a nonzero element n, indexed by residue."""
        if n == 0 or not self.contains(n):
            raise NotMember(f"{n} is not a nonzero element of {self}")
        return _apery_by_residue(self.generators, n)

    def pseudo_frobenius(self) -> tuple[int, ...]:
        """PF(S), sorted, from the maximal Apéry elements under the order
        w <= w' iff w' - w in S; its length is the type t(S)."""
        if self.multiplicity == 1:
            # S = N: PF is empty by convention
            return ()
        ap = self.apery_table
        maximal = [
            w
            for w in ap
            if not any(w2 != w and self.contains(w2 - w) for w2 in ap)
        ]
        return tuple(sorted(w - self.multiplicity for w in maximal))

    def is_med(self) -> bool:
        """Maximal embedding dimension: e(S) == m(S)."""
        by_count = self.embedding_dimension == self.multiplicity
        by_apery = set(self.apery_table) == {0, *self.generators[1:]}
        if by_count != by_apery:  # pragma: no cover - internal consistency
            raise AssertionError(f"MED characterizations disagree for {self}")
        return by_count

    def is_arf(self) -> bool:
        """S is Arf iff it has the genus of Arf(S), read off the multiplicity sequence."""
        if not self.is_med():  # every Arf semigroup has maximal embedding dimension
            return False
        runs = _multiplicity_sequence(self.generators)
        return sum((a - 1) * q for a, q in runs) == self.genus()  # S lies inside Arf(S)

    def arf_closure(self) -> "NumericalSemigroup":
        """Smallest Arf numerical semigroup containing this one.

        Its elements below the conductor c = m_1 + ... + m_k are the partial
        sums 0, m_1, m_1 + m_2, ... of the multiplicity sequence m_1, ..., m_k.
        In a run of q multiplicities a from partial sum P, P + k a for k > m = m_1
        is P + (k - m) a plus m a, an element, so each run adds at most m sums.
        """
        runs = _multiplicity_sequence(self.generators)
        if not runs:  # S = N
            return self
        m, p, sums = runs[0][0], 0, []
        for a, q in runs:
            sums.extend(range(p + a, p + min(q, m) * a + 1, a))
            p += a * q
        return from_generators([*sums, *range(p, p + m)])


def from_generators(gens: Iterable[int]) -> NumericalSemigroup:
    """Construct the numerical semigroup generated by ``gens``.

    The input may be unsorted and contain duplicates or redundant generators;
    it is canonicalized to the unique minimal system. Raises NotNumerical when
    the gcd is not 1.
    """
    cleaned = sorted(set(int(g) for g in gens))
    if not cleaned:
        raise ValueError("generator set must be non-empty")
    if cleaned[0] < 1:
        raise ValueError(f"generators must be positive integers, got {cleaned[0]}")
    g = 0
    for x in cleaned:
        g = gcd(g, x)
    if g != 1:
        raise NotNumerical(cleaned, g)

    m = cleaned[0]
    apery = _apery_by_residue(cleaned, m)
    minimal = _minimal_system(cleaned, apery)
    frobenius = max(apery) - m  # equals -1 for S = N
    conductor = frobenius + 1

    sg = NumericalSemigroup(
        generators=minimal,
        multiplicity=m,
        embedding_dimension=len(minimal),
        frobenius=frobenius,
        conductor=conductor,
        apery_table=apery,
    )
    if sg.embedding_dimension > sg.multiplicity:  # pragma: no cover
        raise AssertionError(f"e(S) > m(S) for {sg}; construction bug")
    return sg


def _minimal_system(gens: list[int], apery: tuple[int, ...]) -> tuple[int, ...]:
    """The input generators that are not sums of two nonzero elements of S.

    ``gens`` is sorted and ``apery`` is the Apéry table of S modulo gens[0].
    A generator g is a sum of two nonzero elements iff g - h lies in S for
    some smaller minimal generator h, and every minimal generator below g is
    found before g, so each test is at most m table lookups.
    """
    m = gens[0]
    minimal: list[int] = []
    for g in gens:
        if all(g - h < apery[(g - h) % m] for h in minimal):
            minimal.append(g)
    return tuple(minimal)


def _multiplicity_sequence(gens: Iterable[int]) -> list[tuple[int, int]]:
    """Multiplicities of <A>, <a, A - a>, ... (a = min A) until the semigroup
    is N, as (multiplicity, repeats) runs.

    Lipman's recursion Arf(<A>) = {0} u (a + Arf(<a, A - a>)), run as a loop.
    Redundant generators are harmless: g - a stays in <a, A - a>. While the
    next-smallest element b stays at least 2a, a stays the least element, so
    q = (b - a) // a steps are taken at once: <2, N> takes two runs, not N/2
    steps.
    """
    current, runs = set(gens), []
    while (a := min(current)) != 1:
        b = min(g for g in current if g != a)  # gcd(A) = 1, so A != {a}
        q = max(1, (b - a) // a)
        runs.append((a, q))
        current = {a} | {g - q * a for g in current if g != a}
    return runs


def _apery_by_residue(gens: tuple[int, ...] | list[int], n: int) -> tuple[int, ...]:
    """Least element of <gens> in each residue class mod n, by round-robin relaxation."""
    INF = None
    dist: list[int | None] = [INF] * n
    dist[0] = 0
    changed = True
    while changed:
        changed = False
        for r in range(n):
            d = dist[r]
            if d is None:
                continue
            for g in gens:
                nd = d + g
                r2 = nd % n
                if dist[r2] is None or nd < dist[r2]:
                    dist[r2] = nd
                    changed = True
    # gcd(gens) = 1 and n in <gens> guarantee every class is reached
    return tuple(dist)  # type: ignore[arg-type]
