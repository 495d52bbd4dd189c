"""Degree map, kernel lattice V(S), RF-difference lattice W(S), RF relations,
and the genericity test for the defining toric ideal.

Lattices are canonicalized to a Hermite-form basis at construction, so
equality is decidable and deterministic. [V(S) : W(S)] is read from
coordinates in V(S)'s Hermite basis; W(S)'s own basis and the pairwise row
differences are built only where ``arfrf relations`` prints them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import DimensionMismatch, NotSublattice
from .intmat import (
    bareiss_determinant,
    hermite_normal_form,
    hnf_coordinates,
    kernel_basis,
)
from .rfmatrix import RFMatrix, iter_rf_matrices
from .semigroup import NumericalSemigroup


def degree(sg: NumericalSemigroup, vector: Sequence[int]) -> int:
    """Dot product with the minimal generators."""
    if len(vector) != sg.embedding_dimension:
        raise DimensionMismatch(
            f"vector length {len(vector)} != embedding dimension {sg.embedding_dimension}"
        )
    return sum(c * g for c, g in zip(vector, sg.generators))


@dataclass(frozen=True, slots=True, eq=False)
class IntegerLattice:
    """Finitely generated subgroup of Z^dim, with a canonical triangular basis."""

    dim: int
    basis: tuple[tuple[int, ...], ...]

    @classmethod
    def from_generators(cls, vectors: Sequence[Sequence[int]], dim: int) -> "IntegerLattice":
        return cls(dim=dim, basis=hermite_normal_form(vectors, dim))

    @property
    def rank(self) -> int:
        return len(self.basis)

    def contains(self, vector: Sequence[int]) -> bool:
        if len(vector) != self.dim:
            raise DimensionMismatch(f"vector length {len(vector)} != dim {self.dim}")
        return hnf_coordinates(self.basis, vector) is not None

    __contains__ = contains

    def __eq__(self, other: object) -> bool:
        # equality of lattices, not of generating sets
        if not isinstance(other, IntegerLattice):
            return NotImplemented
        return self.dim == other.dim and self.basis == other.basis

    def __hash__(self) -> int:
        return hash((self.dim, self.basis))


def kernel_lattice(sg: NumericalSemigroup) -> IntegerLattice:
    """V(S): the full integer kernel of the degree map, rank e - 1.

    The construction is saturated by design; any integer vector of degree 0
    lies in the span.
    """
    lattice = IntegerLattice(dim=sg.embedding_dimension, basis=kernel_basis(sg.generators))
    assert lattice.rank == sg.embedding_dimension - 1
    return lattice


def first_row_differences(matrix: RFMatrix) -> list[tuple[int, ...]]:
    """a_1 - a_j for j = 2..e: they span W(S), as a_i - a_j = (a_1 - a_j) - (a_1 - a_i)."""
    first, *rest = matrix.entries
    return [tuple(a - b for a, b in zip(first, row)) for row in rest]


def row_differences(matrix: RFMatrix) -> list[tuple[int, ...]]:
    """All e(e-1)/2 differences a_i - a_j, i < j, in (i, j) order; none is zero
    (the -1 diagonal keeps the rows distinct)."""
    rows = matrix.entries
    return [tuple(a - b for a, b in zip(r, t)) for i, r in enumerate(rows) for t in rows[i + 1 :]]


def rf_difference_lattice(sg: NumericalSemigroup, matrix: RFMatrix) -> IntegerLattice:
    """W(S) for one RF matrix, in Hermite form, from its first-row differences."""
    return IntegerLattice.from_generators(first_row_differences(matrix), sg.embedding_dimension)


def lattice_index(vectors: Sequence[Sequence[int]], ambient: IntegerLattice) -> int | None:
    """[ambient : L] for L spanned by ``vectors``, or None when L has lower rank.

    Each vector is reduced against ambient's Hermite basis: NotSublattice if
    it lies outside ambient (for an RF row difference: nonzero degree),
    DimensionMismatch if its length is wrong. With ``ambient.rank`` vectors
    the index is |det| of their coordinates (det 0 is a rank drop); fewer
    give None, and more are not square, so ``bareiss_determinant`` raises
    ValueError. Pass a basis, such as the first-row differences of an RF matrix.
    """
    coords = []
    for v in vectors:
        if len(v) != ambient.dim:
            raise DimensionMismatch(f"vector length {len(v)} != dim {ambient.dim}")
        c = hnf_coordinates(ambient.basis, v)
        if c is None:
            raise NotSublattice(f"vector {tuple(v)} lies outside the ambient lattice")
        coords.append(c)
    if len(coords) < ambient.rank:
        return None
    return abs(bareiss_determinant(coords)) or None


@dataclass(frozen=True, slots=True)
class Binomial:
    """x^plus - x^minus with disjoint supports and equal degrees.

    The plus side is the lexicographically larger exponent vector; that is the
    package-wide sign convention for rendering relations.
    """

    plus: tuple[int, ...]
    minus: tuple[int, ...]

    @property
    def support(self) -> frozenset[int]:
        return frozenset(
            i for i, (p, m) in enumerate(zip(self.plus, self.minus)) if p or m
        )

    def has_full_support(self) -> bool:
        return len(self.support) == len(self.plus)


def binomial_from_vector(vector: Sequence[int]) -> Binomial:
    """Split v into v+ / v- and orient by the lexicographic convention."""
    plus = tuple(x if x > 0 else 0 for x in vector)
    minus = tuple(-x if x < 0 else 0 for x in vector)
    if minus > plus:
        plus, minus = minus, plus
    return Binomial(plus=plus, minus=minus)


def rf_relations(sg: NumericalSemigroup, matrix: RFMatrix) -> list[Binomial]:
    """The e(e-1)/2 binomials built from pairwise RF row differences, ordered by (i, j)."""
    return [binomial_from_vector(d) for d in row_differences(matrix)]


@dataclass(frozen=True, slots=True)
class GenericityReport:
    """Verdict of the RF-matrix genericity criterion with a re-checkable witness.

    ``generic`` is true iff every pseudo-Frobenius number has exactly one RF
    matrix and that matrix has pairwise-distinct entries within every column.
    On failure exactly one witness field is populated: either two distinct
    matrices for the same PF element, or (matrix, i, i', j) with equal entries
    in column j. Indices are 0-based.
    """

    generic: bool
    nonunique: tuple[int, RFMatrix, RFMatrix] | None = None
    column_clash: tuple[int, RFMatrix, int, int, int] | None = None

    def describe(self) -> str:
        if self.generic:
            return "all criteria passed"
        if self.nonunique is not None:
            f = self.nonunique[0]
            return f"PF element {f} has more than one RF matrix"
        f, _, i, i2, j = self.column_clash
        return (
            f"unique RF matrix of PF element {f} repeats a value in column "
            f"{j + 1} (rows {i + 1} and {i2 + 1})"
        )


def is_generic(sg: NumericalSemigroup) -> GenericityReport:
    """Genericity of the defining toric ideal, decided from RF matrices."""
    for f in sg.pseudo_frobenius():
        found: list[RFMatrix] = []
        for matrix in iter_rf_matrices(sg, f):
            found.append(matrix)
            if len(found) == 2:
                return GenericityReport(generic=False, nonunique=(f, found[0], found[1]))
        matrix = found[0]
        e = matrix.size
        for j in range(e):
            for i in range(e):
                for i2 in range(i + 1, e):
                    if matrix.entries[i][j] == matrix.entries[i2][j]:
                        return GenericityReport(
                            generic=False, column_clash=(f, matrix, i, i2, j)
                        )
    return GenericityReport(generic=True)
