"""Numerical semigroups and their classical invariants, all in exact arithmetic.

A semigroup is its minimal generators and its Apéry table modulo the
multiplicity m, built once from a generator set in O(m e) for e input
generators by one round-robin pass; m, e, F and c are derived from those two.
After that an instance is immutable but for two write-once caches, kept for
as long as it lives: PF(S), filled by the first ``pseudo_frobenius()`` call,
and ``rf_row_cache``, where ``rfmatrix.rf_rows`` keeps RF(f)'s row lists. A
cache entry is stored whole and shared, so no reader may change it. A copy
or an unpickled instance starts with both caches empty. Membership is one
table lookup, the pseudo-Frobenius test is e of them, and PF(S) is read off
the Apéry table. The Arf closure is written down from the partial sums of
the multiplicity sequence, and S is Arf iff it equals its closure.
"""

from __future__ import annotations

from math import gcd
from operator import index
from typing import Iterable

from .errors import NotNumerical

MAX_MULTIPLICITY = 10**6  # building an Apéry table takes about 62 bytes per entry

_SHOWN = ("generators", "multiplicity", "embedding_dimension", "frobenius", "conductor")


class NumericalSemigroup:
    """A numerical semigroup, defined by its minimal generators and Apéry table.

    ``apery_table[i]`` is the least element congruent to i modulo the
    multiplicity, so membership is one table lookup; the other four fields
    derive from these two. Equality and hash read ``generators`` only; the
    repr shows the five fields before ``apery_table``, and neither cache.
    Assigning or deleting an attribute raises AttributeError.
    """

    __slots__ = (*_SHOWN, "apery_table", "pf_cache", "rf_row_cache")

    generators: tuple[int, ...]
    multiplicity: int
    embedding_dimension: int
    frobenius: int
    conductor: int
    apery_table: tuple[int, ...]
    pf_cache: tuple[int, ...] | None  # PF(S) once pseudo_frobenius() has run
    rf_row_cache: dict  # f -> RF(f)'s row lists, filled by rfmatrix.rf_rows

    def __init__(self, generators, apery_table) -> None:
        init = object.__setattr__
        init(self, "generators", generators)
        init(self, "multiplicity", generators[0])
        init(self, "embedding_dimension", len(generators))
        init(self, "frobenius", max(apery_table) - self.multiplicity)  # -1 for S = N
        init(self, "conductor", self.frobenius + 1)
        init(self, "apery_table", apery_table)
        init(self, "pf_cache", None)
        init(self, "rf_row_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.generators == other.generators
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.generators)

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in _SHOWN)
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return type(self), (self.generators, self.apery_table)

    def __str__(self) -> str:
        return "<" + ", ".join(map(str, self.generators)) + ">"

    def contains(self, n: int) -> bool:
        """Membership via the Apéry table: n is in S iff n >= w(n mod m)."""
        return n >= 0 and n >= self.apery_table[n % self.multiplicity]

    __contains__ = contains

    def genus(self) -> int:
        """Number of gaps, read off the Apéry table."""
        m = self.multiplicity
        return sum((w - i) // m for i, w in enumerate(self.apery_table))

    def is_pseudo_frobenius(self, f: int) -> bool:
        """The definition: f is a positive gap and f + n lies in S for each minimal
        generator n; O(e) lookups, and none holds for S = N. The tests hold PF(S) to it."""
        return f >= 1 and f not in self and all(f + n in self for n in self.generators)

    def pseudo_frobenius(self) -> tuple[int, ...]:
        """PF(S), sorted and kept after the first call; its length is the type t(S).
        PF(S) is {w - m : w maximal in Ap(S, m) under <=_S} (Rosales & García-Sánchez,
        Prop. 2.20). Ap(S, m) is closed downward under <=_S, so an entry w != 0 is
        maximal iff no generator n != m has w + n as its class's entry: e - 1 lookups."""
        if self.pf_cache is None:
            m, table, gens = self.multiplicity, self.apery_table, self.generators[1:]
            pf = (w - m for w in table if w and all(table[(w + n) % m] != w + n for n in gens))
            object.__setattr__(self, "pf_cache", tuple(sorted(pf)))
        return self.pf_cache

    def is_med(self) -> bool:
        """Maximal embedding dimension: e(S) == m(S)."""
        return self.embedding_dimension == self.multiplicity

    def is_arf(self) -> bool:
        """Arf iff S = Arf(S); Arf implies MED, so a non-MED S skips the closure."""
        return self.is_med() and self == self.arf_closure()

    def arf_closure(self) -> "NumericalSemigroup":
        """Smallest Arf numerical semigroup containing this one.

        Lipman's recursion Arf(<A>) = {0} u (a + Arf(<a, A - a>)), a = min A,
        run as a loop down to N, gives the multiplicity sequence m = m_1, ...,
        m_k; below c = m_1 + ... + m_k the closure holds just the partial sums
        0, m_1, m_1 + m_2, .... Redundant generators are harmless: g - a stays
        in <a, A - a>. While the next-smallest b is at least 2a, a stays least,
        so q = (b - a) // a steps are taken at once: <2, N> takes two runs, not
        N/2. In a run of q multiplicities a from partial sum P, P + k a for
        k > m is P + (k - m) a plus m a, so each run adds at most m sums. An Arf
        semigroup has maximal embedding dimension: its minimal generators are m
        and its nonzero Apéry entries.
        """
        m, p, sums = self.multiplicity, 0, [0]
        current = set(self.generators)
        while (a := min(current)) != 1:
            b = min(current - {a})  # gcd(A) = 1, so A != {a}
            q = max(1, (b - a) // a)
            sums.extend(range(p + a, p + min(q, m) * a + 1, a))
            p += a * q
            current = {a} | {g - q * a for g in current if g != a}
        apery = [p + (i - p) % m for i in range(m)]  # class i's member of [c, c + m)
        for n in reversed(sums):  # the least sum in each class is written last
            apery[n % m] = n
        return NumericalSemigroup((m, *sorted(apery[1:])), tuple(apery))


def from_generators(gens: Iterable[int]) -> NumericalSemigroup:
    """Construct the numerical semigroup generated by ``gens``.

    The input may be unsorted and contain duplicates or redundant generators;
    it is canonicalized to the unique minimal system. Raises TypeError for a
    non-integer generator such as 2.5, 4.0 or "4" (none is converted),
    NotNumerical when the gcd is not 1, and ValueError, before any allocation,
    when m = min(gens) is above ``MAX_MULTIPLICITY`` (10**6). One round-robin
    pass over the sorted input builds the Apéry table and minimal system in O(m e).
    """
    cleaned = sorted(set(map(index, gens)))
    if not cleaned:
        raise ValueError("generator set must be non-empty")
    if cleaned[0] < 1:
        raise ValueError(f"generators must be positive integers, got {cleaned[0]}")
    g = gcd(*cleaned)
    if g != 1:
        raise NotNumerical(cleaned, g)
    if cleaned[0] > MAX_MULTIPLICITY:
        raise ValueError(f"multiplicity {cleaned[0]} is too large for an Apéry table")

    apery, minimal = _round_robin(cleaned)
    sg = NumericalSemigroup(minimal, apery)
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
