"""Row-factorization matrices of pseudo-Frobenius numbers.

An RF matrix of f stacks, for each generator index i, a factorization of
f + n_i over the other generators with -1 inserted at i. Enumeration is the
Cartesian product of the per-row lists, emitted row-major so row 1 varies
slowest; per-row lists come out of the factorization engine largest-first.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .errors import NotPseudoFrobenius, TooManyMatrices
from .factorization import factorization_vectors
from .intmat import bareiss_determinant
from .semigroup import NumericalSemigroup


@dataclass(frozen=True, slots=True)
class RFMatrix:
    """e x e integer matrix with -1 diagonal whose rows all represent ``pf_element``."""

    entries: tuple[tuple[int, ...], ...]
    pf_element: int
    semigroup: NumericalSemigroup = field(repr=False)

    @property
    def size(self) -> int:
        return len(self.entries)

    def is_valid(self) -> bool:
        """Re-check the defining conditions from scratch."""
        gens = self.semigroup.generators
        e = len(gens)
        if len(self.entries) != e:
            return False
        for i, row in enumerate(self.entries):
            if len(row) != e or row[i] != -1:
                return False
            if any(row[j] < 0 for j in range(e) if j != i):
                return False
            if sum(c * g for c, g in zip(row, gens)) != self.pf_element:
                return False
        return True


def rf_row_choices(sg: NumericalSemigroup, f: int) -> list[list[tuple[int, ...]]]:
    """Per-row candidate lists: row i lists the factorizations of f + n_i over
    the other generators, lexicographically decreasing, with -1 written at i."""
    pf = sg.pseudo_frobenius()
    if f not in pf:
        raise NotPseudoFrobenius(f, pf)
    gens = sg.generators
    return [
        [v[:i] + (-1,) + v[i:] for v in factorization_vectors(gens[:i] + gens[i + 1 :], f + n)]
        for i, n in enumerate(gens)
    ]


def rf_matrix_count(sg: NumericalSemigroup, f: int) -> int:
    """Number of RF matrices of f: the product of the per-row choice counts."""
    return math.prod(len(rows) for rows in rf_row_choices(sg, f))


def iter_rf_matrices(sg: NumericalSemigroup, f: int) -> Iterator[RFMatrix]:
    """Lazy row-major enumeration (first row varies slowest)."""
    for combo in itertools.product(*rf_row_choices(sg, f)):
        yield RFMatrix(entries=tuple(combo), pf_element=f, semigroup=sg)


def rf_matrices(
    sg: NumericalSemigroup, f: int, max_matrices: int | None = None
) -> list[RFMatrix]:
    """The complete RF matrix list of f, in deterministic canonical order.

    ``max_matrices`` is a safety cap for front ends; enumeration itself is
    unbounded by default.
    """
    choices = rf_row_choices(sg, f)
    if max_matrices is not None:
        count = math.prod(len(rows) for rows in choices)
        if count > max_matrices:
            raise TooManyMatrices(count, max_matrices)
    return [
        RFMatrix(entries=combo, pf_element=f, semigroup=sg)
        for combo in itertools.product(*choices)
    ]


def determinant(matrix: RFMatrix | Sequence[Sequence[int]]) -> int:
    """Exact integer determinant (fraction-free elimination, no floats)."""
    rows = matrix.entries if isinstance(matrix, RFMatrix) else matrix
    return bareiss_determinant(rows)


def find_frobenius_det_witness(sg: NumericalSemigroup) -> RFMatrix | None:
    """First RF matrix of F(S) whose determinant has absolute value F(S).

    Scans the canonical enumeration order, so the result is reproducible.
    Returns None when no matrix qualifies (or when PF(S) is empty).
    """
    f = sg.frobenius
    if f < 1:
        return None
    for matrix in iter_rf_matrices(sg, f):
        if abs(determinant(matrix)) == f:
            return matrix
    return None


def sign_target(sg: NumericalSemigroup) -> int:
    """(-1)^(e+1) F(S): the determinant Conjecture 5.3 asks of an RF matrix of F(S)."""
    return (-1) ** (sg.embedding_dimension + 1) * sg.frobenius


def check_sign_conjecture(sg: NumericalSemigroup) -> RFMatrix | None:
    """First RF matrix of F(S) with determinant exactly :func:`sign_target`.

    Scans the canonical enumeration order, as :func:`find_frobenius_det_witness`
    does. Returns None when no matrix qualifies (or when PF(S) is empty).
    """
    if sg.frobenius < 1:
        return None
    target = sign_target(sg)
    for matrix in iter_rf_matrices(sg, sg.frobenius):
        if determinant(matrix) == target:
            return matrix
    return None


def column_zero_pair(
    matrix: RFMatrix | Sequence[Sequence[int]],
) -> tuple[int, int, int] | None:
    """Two rows sharing a zero in one column: (i, i', j), 0-based, or None.

    Deterministic: the smallest qualifying column wins, then the two smallest
    row indices.
    """
    rows = matrix.entries if isinstance(matrix, RFMatrix) else matrix
    e = len(rows)
    for j in range(e):
        zero_rows = [i for i in range(e) if rows[i][j] == 0]
        if len(zero_rows) >= 2:
            return (zero_rows[0], zero_rows[1], j)
    return None
