"""Numerical semigroups and their classical invariants, all in exact arithmetic.

A semigroup is built once from a generator set, in O(m e) for multiplicity m
and e input generators: one round-robin pass gives the Apéry table modulo m
and the minimal system. After that an instance is immutable but for one
write-once cache, where ``rfmatrix.rf_rows`` keeps RF(f)'s row lists for as
long as the instance lives. Queries are pure and a cache entry is stored whole
and never changed, so instances can be shared freely across threads: a race
on one f at worst builds equal lists twice. Membership is one table lookup,
the pseudo-Frobenius test is e of them, and PF(S) tests the m Apéry
candidates. The Arf test and the Arf closure both read the multiplicity
sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import Iterable

from .errors import NotNumerical


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
    # f -> RF(f)'s row lists, filled by rfmatrix.rf_rows; outside equality, hash and repr
    rf_row_cache: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __str__(self) -> str:
        return "<" + ", ".join(map(str, self.generators)) + ">"

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

    def is_pseudo_frobenius(self, f: int) -> bool:
        """f is a positive gap and f + n_i lies in S for every minimal generator
        n_i (Rosales & García-Sánchez, Numerical Semigroups, Prop. 2.20);
        O(e) table lookups. For S = N no f qualifies."""
        return f >= 1 and f not in self and all(f + n in self for n in self.generators)

    def pseudo_frobenius(self) -> tuple[int, ...]:
        """PF(S), sorted; its length is the type t(S). Every f in PF(S) has
        f + m in the Apéry table, so only those m candidates are tested."""
        m = self.multiplicity
        candidates = (w - m for w in self.apery_table)
        return tuple(sorted(f for f in candidates if self.is_pseudo_frobenius(f)))

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
    the gcd is not 1. One round-robin pass over the sorted input builds the
    Apéry table modulo m = min(gens) and the minimal system in O(m e).
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
    apery, minimal = _round_robin(cleaned)
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


def _round_robin(gens: list[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Apéry table of <gens> modulo m = gens[0], and its minimal system.

    The round-robin algorithm of Böcker & Lipták (Algorithmica 2007): the
    table starts as that of <m> and takes the sorted generators in turn. For
    generator g, each residue class p mod d = gcd(m, g) is one cycle of m/d
    steps of +g; walking it once from the class's least entry, keeping the
    minimum at each residue, gives the table of the larger semigroup. A
    generator already in the semigroup of the smaller ones changes nothing and
    is not minimal, and every other one is, so one lookup sorts each.
    """
    m = gens[0]
    # Each least element is a sum of fewer than m generators other than m, so
    # m * gens[-1] lies above every entry and marks a residue not reached yet.
    # gcd(gens) = 1 means every residue is reached, so the mark is never returned.
    unreached = m * gens[-1]
    table = [0] + [unreached] * (m - 1)
    minimal = [m]
    for g in gens[1:]:
        if g >= table[g % m]:
            continue
        minimal.append(g)
        d = gcd(m, g)
        for p in range(d):
            n = min(table[p::d])
            if n == unreached:
                continue
            for _ in range(m // d - 1):
                n += g
                r = n % m
                n = min(n, table[r])
                table[r] = n
    return tuple(table), tuple(minimal)


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
