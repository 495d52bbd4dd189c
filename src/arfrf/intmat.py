"""Exact integer matrix primitives: Bareiss determinants, Hermite forms, kernels.

Everything here works on plain Python ints (arbitrary precision); no floats.
"""

from __future__ import annotations

from math import gcd
from typing import Sequence


def bareiss_determinant(rows: Sequence[Sequence[int]]) -> int:
    """Determinant by fraction-free (Bareiss) elimination; exact at every step."""
    n = len(rows)
    m = [list(r) for r in rows]
    for r in m:
        if len(r) != n:
            raise ValueError("determinant needs a square matrix")
    if n == 0:
        return 1
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


def hermite_normal_form(vectors: Sequence[Sequence[int]], dim: int) -> tuple[tuple[int, ...], ...]:
    """Canonical row-style Hermite form of the lattice spanned by ``vectors``.

    Pivots are positive, pivot columns strictly increase with the row index and
    entries above a pivot are reduced into [0, pivot). Zero rows are dropped, so
    the result is a basis; two generating sets span the same lattice iff their
    Hermite forms are identical.
    """
    rows = [list(v) for v in vectors if any(v)]
    for r in rows:
        if len(r) != dim:
            raise ValueError(f"vector length {len(r)} != ambient dimension {dim}")
    rank = 0
    for col in range(dim):
        # gcd-eliminate column `col` among rows[rank:]
        while True:
            live = [i for i in range(rank, len(rows)) if rows[i][col] != 0]
            if not live:
                break
            i_min = min(live, key=lambda i: abs(rows[i][col]))
            rows[rank], rows[i_min] = rows[i_min], rows[rank]
            done = True
            head = rows[rank][col]
            for i in range(rank + 1, len(rows)):
                if rows[i][col] != 0:
                    q = rows[i][col] // head
                    rows[i] = [a - q * b for a, b in zip(rows[i], rows[rank])]
                    if rows[i][col] != 0:
                        done = False
            if done:
                break
        if rank < len(rows) and rows[rank][col] != 0:
            if rows[rank][col] < 0:
                rows[rank] = [-a for a in rows[rank]]
            pivot = rows[rank][col]
            for i in range(rank):
                q = rows[i][col] // pivot
                if q:
                    rows[i] = [a - q * b for a, b in zip(rows[i], rows[rank])]
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


def kernel_basis(weights: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Basis of the full integer kernel of v -> sum(v[i] * weights[i]), for
    positive weights.

    Built from the running-gcd construction, so the resulting lattice is
    saturated: every integer vector of weight 0 lies in its span. Positive
    weights keep every running gcd nonzero, so each step can divide by it.
    """
    e = len(weights)
    if e == 0:
        return ()
    out = []
    # carry: vector u with weights . u == g (running gcd)
    g = weights[0]
    u = [0] * e
    u[0] = 1
    for i in range(1, e):
        w = weights[i]
        d = gcd(g, w)
        k = [(w // d) * a for a in u]
        k[i] -= g // d
        out.append(tuple(k))
        x, y = _bezout(g, w)
        u = [x * a for a in u]
        u[i] += y
        g = d
    return hermite_normal_form(out, e)


def _bezout(a: int, b: int) -> tuple[int, int]:
    """Coefficients (x, y) with a*x + b*y == gcd(a, b)."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_x, old_y = -old_x, -old_y
    return old_x, old_y
