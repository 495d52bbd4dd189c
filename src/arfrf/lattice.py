"""Degree map, kernel lattice V(S), RF-difference lattice W(S), RF relations,
and the genericity test for the defining toric ideal.

A lattice is its canonical Hermite basis, the tuple of row tuples that
``hermite_normal_form`` returns, so two lattices are equal iff their bases
are. V(S)'s basis, in that form too, is written down from the gcd chain of
the generators. [V(S) : W(S)] has one recipe: ``lattice_coordinates`` reduces
an RF matrix's first-row differences a_1 - a_j, which span W(S) at any rank,
against V(S)'s Hermite basis, and ``lattice_index`` is |det| of that square
matrix; a caller can reduce each vector once and reuse it. W(S)'s own basis
and the pairwise row differences are built only where ``arfrf relations``
prints them. An RF matrix is a tuple of row tuples; W(S) and the relations
read only its rows, so they take no semigroup.
"""

from __future__ import annotations

from itertools import accumulate, islice
from math import gcd
from typing import NamedTuple, Sequence

from .errors import DimensionMismatch, NotSublattice
from .intmat import bareiss_determinant, hermite_normal_form, hnf_coordinates
from .rfmatrix import Matrix, iter_rf_matrices
from .semigroup import NumericalSemigroup


def degree(sg: NumericalSemigroup, vector: Sequence[int]) -> int:
    """Dot product with the minimal generators."""
    if len(vector) != sg.embedding_dimension:
        raise DimensionMismatch(
            f"vector length {len(vector)} != embedding dimension {sg.embedding_dimension}"
        )
    return sum(c * g for c, g in zip(vector, sg.generators))


Basis = tuple[tuple[int, ...], ...]
# x^plus - x^minus as (plus, minus): disjoint supports, equal degrees
Binomial = tuple[tuple[int, ...], tuple[int, ...]]


def kernel_lattice(sg: NumericalSemigroup) -> Basis:
    """V(S), the integer kernel of the degree map, in Hermite form, from the gcd chain.

    With g_j = gcd(n_j, ..., n_{e-1}), 0-based (g_0 = 1), row j < e - 1 has its pivot
    g_{j+1} / g_j, the least positive x_j of a kernel vector zero before column j.
    Each later pivot column k takes the one x in [0, g_{k+1} / g_k) that leaves the
    degree t still owed divisible by g_{k+1}; the last column closes it, t / n_{e-1}.
    """
    gens = sg.generators
    chain = [*accumulate(reversed(gens), gcd)][::-1]
    basis = []
    for j in range(len(gens) - 1):
        pivot = chain[j + 1] // chain[j]
        row, owed = [0] * j + [pivot], -pivot * gens[j]
        for k in range(j + 1, len(gens) - 1):
            g, p = chain[k], chain[k + 1] // chain[k]
            row.append(owed // g * pow(gens[k] // g, -1, p) % p)  # pow(_, -1, 1) == 0
            owed -= row[-1] * gens[k]
        basis.append((*row, owed // gens[-1]))
    return tuple(basis)


def first_row_differences(matrix: Matrix) -> list[tuple[int, ...]]:
    """a_1 - a_j for j = 2..e: they span W(S), as a_i - a_j = (a_1 - a_j) - (a_1 - a_i)."""
    first, *rest = matrix
    return [tuple(a - b for a, b in zip(first, row)) for row in rest]


def row_differences(matrix: Matrix) -> list[tuple[int, ...]]:
    """All e(e-1)/2 differences a_i - a_j, i < j, in (i, j) order; none is zero
    (the -1 diagonal keeps the rows distinct)."""
    return [tuple(a - b for a, b in zip(r, t))
            for i, r in enumerate(matrix) for t in matrix[i + 1 :]]


def rf_difference_lattice(matrix: Matrix) -> Basis:
    """W(S) for one RF matrix, in Hermite form, from its first-row differences;
    the e x e matrix gives the dimension."""
    return hermite_normal_form(first_row_differences(matrix), len(matrix))


def lattice_coordinates(vectors: Sequence[Sequence[int]], ambient: Basis) -> list[tuple[int, ...]]:
    """Coordinates of each vector in the Hermite basis ``ambient``, in order.

    NotSublattice if a vector lies outside ambient (for an RF row difference:
    nonzero degree), DimensionMismatch if its length is wrong. A rank-0
    ambient has no length to check against, so there any nonzero vector is
    NotSublattice.
    """
    coords = []
    for v in vectors:
        if ambient and len(v) != len(ambient[0]):
            raise DimensionMismatch(f"vector length {len(v)} != dim {len(ambient[0])}")
        c = hnf_coordinates(ambient, v)
        if c is None:
            raise NotSublattice(f"vector {tuple(v)} lies outside the ambient lattice")
        coords.append(c)
    return coords


def lattice_index(coords: Sequence[Sequence[int]]) -> int | None:
    """[V : L] from the square matrix of coordinates, in V's Hermite basis, of
    vectors spanning L: its |det|, or None when that is 0 (L has lower rank).

    A non-square input raises ValueError (from ``bareiss_determinant``). For
    [V(S) : W(S)] pass ``lattice_coordinates(first_row_differences(m), V)``.
    """
    return abs(bareiss_determinant(coords)) or None


def binomial_from_vector(vector: Sequence[int]) -> Binomial:
    """Split v into v+ / v- and orient the pair: the lexicographically larger
    exponent vector is the plus side, the package-wide sign convention."""
    plus = tuple(x if x > 0 else 0 for x in vector)
    minus = tuple(-x if x < 0 else 0 for x in vector)
    if minus > plus:
        plus, minus = minus, plus
    return plus, minus


def rf_relations(matrix: Matrix) -> list[Binomial]:
    """The e(e-1)/2 binomials built from pairwise RF row differences, ordered by (i, j)."""
    return [binomial_from_vector(d) for d in row_differences(matrix)]


class GenericityReport(NamedTuple):
    """Verdict of the RF-matrix genericity criterion with a re-checkable witness.

    ``generic`` is true iff every pseudo-Frobenius number has exactly one RF
    matrix and that matrix has pairwise-distinct entries within every column.
    On failure exactly one witness field is populated: either two distinct
    matrices for the same PF element, or (matrix, i, i', j) with equal entries
    in column j. Indices are 0-based.
    """

    generic: bool
    nonunique: tuple[int, Matrix, Matrix] | None = None
    column_clash: tuple[int, Matrix, int, int, int] | None = None

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
    """Genericity of the defining toric ideal, decided from RF matrices.

    Each RF(f) is read from the row lists S keeps, so the witness scans reuse
    the ones this builds; for S = N, whose PF set is empty, nothing is built.
    """
    for f in sg.pseudo_frobenius():
        matrix, *more = islice(iter_rf_matrices(sg, f), 2)
        if more:
            return GenericityReport(generic=False, nonunique=(f, matrix, *more))
        e = len(matrix)
        clash = next(((i, i2, j) for j in range(e) for i in range(e) for i2 in range(i + 1, e)
                      if matrix[i][j] == matrix[i2][j]), None)
        if clash is not None:
            return GenericityReport(generic=False, column_clash=(f, matrix, *clash))
    return GenericityReport(generic=True)
