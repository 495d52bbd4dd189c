"""Row-factorization matrices of pseudo-Frobenius numbers.

An RF matrix of f stacks, for each generator index i, a factorization of
f + n_i over the other generators with -1 inserted at i. It is held as a
``Matrix``, a tuple of row tuples: hashable, and comparable as it stands with
the closed-form tables. Enumeration is the Cartesian product of the per-row
lists, emitted row-major so row 1 varies slowest; per-row lists come out of
the factorization engine largest-first.

Building RF(f)'s row lists costs e factorization searches, so a caller that
asks about RF(f) more than once holds one ``row_choices_memo(sg)`` and passes
it as ``choices`` to the count, the enumerations and the scans below: each f
is then built once for as long as the caller keeps the memo. Without
``choices`` a function builds its own lists afresh.
"""

from __future__ import annotations

import functools
import itertools
import math
from contextlib import closing
from typing import Callable, Iterator, Sequence

from .errors import NotPseudoFrobenius, TooManyMatrices
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
    if not sg.is_pseudo_frobenius(f):
        raise NotPseudoFrobenius(f, sg.pseudo_frobenius())
    gens = sg.generators
    return [
        [v[:i] + (-1,) + v[i:] for v in factorization_vectors(gens[:i] + gens[i + 1 :], f + n)]
        for i, n in enumerate(gens)
    ]


def row_choices_memo(sg: NumericalSemigroup) -> Callable[[int], RowChoices]:
    """f -> ``rf_row_choices(sg, f)``, built at most once per f while the memo lives.

    It looks ``rf_row_choices`` up in this module at each build, so a wrapper
    installed on that binding sees every build. The lists are shared: no
    reader may change them.
    """
    return functools.cache(lambda f: rf_row_choices(sg, f))


def _rows(sg: NumericalSemigroup, f: int, choices) -> RowChoices:
    return rf_row_choices(sg, f) if choices is None else choices(f)


def rf_matrix_count(sg: NumericalSemigroup, f: int, choices=None) -> int:
    """Number of RF matrices of f: the product of the per-row choice counts."""
    return math.prod(len(rows) for rows in _rows(sg, f, choices))


def iter_rf_matrices(sg: NumericalSemigroup, f: int, choices=None) -> Iterator[Matrix]:
    """Lazy row-major enumeration (first row varies slowest)."""
    yield from itertools.product(*_rows(sg, f, choices))


def rf_matrices(
    sg: NumericalSemigroup, f: int, max_matrices: int | None = None, choices=None
) -> list[Matrix]:
    """The complete RF matrix list of f, in deterministic canonical order.

    ``max_matrices`` is a safety cap for front ends; enumeration itself is
    unbounded by default.
    """
    rows = _rows(sg, f, choices)
    if max_matrices is not None:
        count = math.prod(len(r) for r in rows)
        if count > max_matrices:
            raise TooManyMatrices(count, max_matrices)
    return list(itertools.product(*rows))


def determinant(matrix: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant (fraction-free elimination, no floats)."""
    return bareiss_determinant(matrix)


def _first_frobenius_matrix(sg: NumericalSemigroup, wanted, choices) -> Matrix | None:
    """First RF matrix of F(S), in the canonical enumeration order, whose
    determinant satisfies ``wanted``; None when none does, and None with
    nothing built when F(S) < 1."""
    if sg.frobenius < 1:
        return None
    with closing(iter_rf_matrices(sg, sg.frobenius, choices)) as matrices:
        return next((m for m in matrices if wanted(determinant(m))), None)


def find_frobenius_det_witness(sg: NumericalSemigroup, choices=None) -> Matrix | None:
    """First RF matrix of F(S) whose determinant has absolute value F(S).

    Scans the canonical enumeration order, so the result is reproducible.
    Returns None when no matrix qualifies (or when PF(S) is empty). RF(F)'s
    rows come from ``choices``, a :func:`row_choices_memo` of S, when given.
    """
    return _first_frobenius_matrix(sg, lambda det: abs(det) == sg.frobenius, choices)


def sign_target(sg: NumericalSemigroup) -> int:
    """(-1)^(e+1) F(S): the determinant Conjecture 5.3 asks of an RF matrix of F(S)."""
    return (-1) ** (sg.embedding_dimension + 1) * sg.frobenius


def check_sign_conjecture(sg: NumericalSemigroup, choices=None) -> Matrix | None:
    """First RF matrix of F(S) with determinant exactly :func:`sign_target`.

    Scans the canonical enumeration order and takes ``choices`` as
    :func:`find_frobenius_det_witness` does. Returns None when no matrix
    qualifies (or when PF(S) is empty).
    """
    return _first_frobenius_matrix(sg, sign_target(sg).__eq__, choices)


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
