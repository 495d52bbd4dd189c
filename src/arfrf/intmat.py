"""Exact integer matrix primitives: determinants (cofactor formula to order 3,
Bareiss above), the determinants of a Cartesian product of row choices along
its product tree, Hermite forms and coordinates in a Hermite basis.

Everything here works on plain Python ints (arbitrary precision); no floats.
"""

from __future__ import annotations

from operator import mul
from typing import Iterator, Sequence


def bareiss_determinant(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square matrix: the cofactor formula at orders 0-3
    (the rule of Sarrus at 3), read off ``rows`` without a copy, and
    fraction-free (Bareiss) elimination above; exact at every step."""
    n = len(rows)
    for r in rows:
        if len(r) != n:
            raise ValueError("determinant needs a square matrix")
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if n == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    if n < 2:
        return rows[0][0] if n else 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            row_i = m[i]
            row_k = m[k]
            lead = row_i[k]
            for j in range(k + 1, n):
                # exact by the Bareiss identity: prev divides the product
                row_i[j] = (pivot * row_i[j] - lead * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def product_determinants(row_lists: Sequence[Sequence[Sequence[int]]]) -> Iterator[int]:
    """det(M) for each M of ``itertools.product(*row_lists)``, in that order.

    Consecutive matrices share their row prefixes, so the walk goes down the
    product tree depth first and carries the nonzero k x k minors of the k
    rows chosen so far (their exterior product), keyed by the bitmask of
    their columns. One Laplace step per minor and nonzero entry extends them
    by a row (generalized Laplace expansion, Bourbaki, Algebra III section 8);
    the last row only meets the cofactors of the full minor. A row whose
    length is not ``len(row_lists)`` raises ValueError, as in
    :func:`bareiss_determinant`.
    """
    n = len(row_lists)
    for rows in row_lists:
        for r in rows:
            if len(r) != n:
                raise ValueError("determinant needs a square matrix")
    if n == 0:
        return iter((1,))
    levels = [[[(j, a) for j, a in enumerate(r) if a] for r in rows] for rows in row_lists[:-1]]
    return _walk([*levels, [tuple(r) for r in row_lists[-1]]], 0, {0: 1})


def _walk(levels: list, k: int, minors: dict[int, int]) -> Iterator[int]:
    """Determinants below a depth-k node of the product tree whose nonzero
    k x k minors are ``minors``; ``levels`` holds each row choice as its
    nonzero (column, entry) pairs, and the last row's choices as dense tuples.

    The wedge of e_mask with e_j is (-1)^s e_(mask | j), where s, the number
    of columns of mask after j, has the parity of ``(mask >> j).bit_count()``.
    """
    n = len(levels)
    if k == n - 1:
        full = (1 << n) - 1
        cofactors = [0] * n
        for mask, minor in minors.items():
            j = (full ^ mask).bit_length() - 1
            cofactors[j] = -minor if (n - 1 - j) & 1 else minor
        for row in levels[k]:
            yield sum(map(mul, row, cofactors))
        return
    for row in levels[k]:
        extended: dict[int, int] = {}
        for mask, minor in minors.items():
            for j, a in row:
                bit = 1 << j
                if not mask & bit:
                    term = -a * minor if (mask >> j).bit_count() & 1 else a * minor
                    extended[mask | bit] = extended.get(mask | bit, 0) + term
        yield from _walk(levels, k + 1, {m: v for m, v in extended.items() if v})


def hermite_normal_form(vectors: Sequence[Sequence[int]], dim: int) -> tuple[tuple[int, ...], ...]:
    """Canonical row-style Hermite form of the lattice spanned by ``vectors``.

    Pivots are positive, pivot columns strictly increase with the row index and
    entries above a pivot are reduced into [0, pivot). Zero rows are dropped, so
    the result is a basis; two generating sets span the same lattice iff their
    Hermite forms are identical.

    Each column is cleared below its pivot by one unimodular Bezout step per
    nonzero entry (Cohen, GTM 138, section 2.4): entries a, b become gcd, 0.
    """
    rows = [list(v) for v in vectors if any(v)]
    for r in rows:
        if len(r) != dim:
            raise ValueError(f"vector length {len(r)} != ambient dimension {dim}")
    rank = 0
    for col in range(dim):
        live = [i for i in range(rank, len(rows)) if rows[i][col] != 0]
        if not live:
            continue
        rows[rank], rows[live[0]] = rows[live[0]], rows[rank]
        top = rows[rank]
        for i in live[1:]:
            row = rows[i]
            a, b = top[col], row[col]
            g, x, y = _bezout(a, b)
            top, rows[i] = ([x * p + y * r for p, r in zip(top, row)],
                            [(a // g) * r - (b // g) * p for p, r in zip(top, row)])
        if top[col] < 0:
            top = [-a for a in top]
        rows[rank] = top
        for i in range(rank):
            q = rows[i][col] // top[col]
            if q:
                rows[i] = [a - q * b for a, b in zip(rows[i], top)]
        rank += 1
    return tuple(tuple(r) for r in rows[:rank])


def hnf_coordinates(
    basis: Sequence[Sequence[int]], vector: Sequence[int]
) -> tuple[int, ...] | None:
    """Integer coordinates of ``vector`` in a Hermite-form ``basis``, or None.

    One pass over the columns with k coordinates found so far: a nonzero
    entry of row k in column j makes j that row's pivot, so row k is applied
    there; any other column is zero in every remaining row, so a nonzero entry
    left in ``vector`` puts it outside the lattice.
    """
    v = list(vector)
    coords: list[int] = []
    for j in range(len(v)):
        k = len(coords)
        if k < len(basis) and basis[k][j] != 0:
            row = basis[k]
            q, r = divmod(v[j], row[j])
            if r != 0:
                return None
            coords.append(q)
            if q:
                v = [a - q * b for a, b in zip(v, row)]
        elif v[j] != 0:
            return None
    return tuple(coords)


def _bezout(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g == gcd(a, b) == a*x + b*y."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        return -old_r, -old_x, -old_y
    return old_r, old_x, old_y
