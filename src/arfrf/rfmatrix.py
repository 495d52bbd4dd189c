"""Row-factorization matrices of pseudo-Frobenius numbers.

An RF matrix of f stacks, for each generator index i, a factorization of
f + n_i over the other generators with -1 inserted at i. It is held as a
``Matrix``, a tuple of row tuples: hashable, and comparable as it stands with
the closed-form tables. Enumeration is the Cartesian product of the per-row
lists, emitted row-major so row 1 varies slowest; per-row lists come out of
the factorization engine largest-first.

Building RF(f)'s row lists costs e factorization searches, so the count, the
enumerations and the scans below read them through ``rf_rows``, which keeps
them on the semigroup: each f is built once per semigroup object, and the
lists go when the object does.
"""

from __future__ import annotations

import itertools
import math
from contextlib import closing
from typing import Iterator, Sequence

from .errors import NotPseudoFrobenius
from .factorization import factorization_vectors
from .intmat import bareiss_determinant
from .semigroup import NumericalSemigroup

Matrix = tuple[tuple[int, ...], ...]
RowChoices = list[list[tuple[int, ...]]]


def is_rf_matrix(sg: NumericalSemigroup, f: int, rows: Sequence[Sequence[int]]) -> bool:
    """Re-check from scratch that ``rows`` is an RF matrix of f: e x e, -1 on
    the diagonal, no negative entry off it, and every row of degree f."""
    gens = sg.generators
    e = len(gens)
    if len(rows) != e:
        return False
    for i, row in enumerate(rows):
        if len(row) != e or row[i] != -1:
            return False
        if any(row[j] < 0 for j in range(e) if j != i):
            return False
        if sum(c * g for c, g in zip(row, gens)) != f:
            return False
    return True


def rf_row_choices(sg: NumericalSemigroup, f: int) -> RowChoices:
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


def rf_rows(sg: NumericalSemigroup, f: int) -> RowChoices:
    """``rf_row_choices(sg, f)``, built once per semigroup object and kept in its
    ``rf_row_cache`` (NotPseudoFrobenius is never cached). Each build looks
    ``rf_row_choices`` up in this module, so a wrapper installed on that
    binding sees it. The lists are shared: no reader may change them.
    """
    rows = sg.rf_row_cache.get(f)
    if rows is None:
        rows = sg.rf_row_cache[f] = rf_row_choices(sg, f)
    return rows


def rf_matrix_count(sg: NumericalSemigroup, f: int) -> int:
    """Number of RF matrices of f: the product of the per-row choice counts."""
    return math.prod(len(rows) for rows in rf_rows(sg, f))


def iter_rf_matrices(sg: NumericalSemigroup, f: int) -> Iterator[Matrix]:
    """Lazy row-major enumeration (first row varies slowest)."""
    yield from itertools.product(*rf_rows(sg, f))


def rf_matrices(sg: NumericalSemigroup, f: int) -> list[Matrix]:
    """The complete RF matrix list of f, in deterministic canonical order."""
    return list(itertools.product(*rf_rows(sg, f)))


def determinant(matrix: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant: the cofactor formula to order 3, Bareiss above."""
    return bareiss_determinant(matrix)


def _first_frobenius_matrix(sg: NumericalSemigroup, wanted) -> Matrix | None:
    """First RF matrix of F(S), in the canonical enumeration order, whose
    determinant satisfies ``wanted``; None when none does, and None with
    nothing built when F(S) < 1."""
    if sg.frobenius < 1:
        return None
    with closing(iter_rf_matrices(sg, sg.frobenius)) as matrices:
        return next((m for m in matrices if wanted(determinant(m))), None)


def find_frobenius_det_witness(sg: NumericalSemigroup) -> Matrix | None:
    """First RF matrix of F(S) whose determinant has absolute value F(S).

    Scans the canonical enumeration order, so the result is reproducible.
    Returns None when no matrix qualifies (or when PF(S) is empty).
    """
    return _first_frobenius_matrix(sg, lambda det: abs(det) == sg.frobenius)


def sign_target(sg: NumericalSemigroup) -> int:
    """(-1)^(e+1) F(S): the determinant Conjecture 5.3 asks of an RF matrix of F(S)."""
    return (-1) ** (sg.embedding_dimension + 1) * sg.frobenius


def check_sign_conjecture(sg: NumericalSemigroup) -> Matrix | None:
    """First RF matrix of F(S) with determinant exactly :func:`sign_target`.

    Scans the canonical enumeration order, so the result is reproducible.
    Returns None when no matrix qualifies (or when PF(S) is empty).
    """
    return _first_frobenius_matrix(sg, sign_target(sg).__eq__)


def column_zero_pair(matrix: Sequence[Sequence[int]]) -> tuple[int, int, int] | None:
    """Two rows sharing a zero in one column: (i, i', j), 0-based, or None.

    Deterministic: the smallest qualifying column wins, then the two smallest
    row indices.
    """
    e = len(matrix)
    for j in range(e):
        zero_rows = [i for i in range(e) if matrix[i][j] == 0]
        if len(zero_rows) >= 2:
            return (zero_rows[0], zero_rows[1], j)
    return None
