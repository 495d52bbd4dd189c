"""Parametrized Arf semigroup families and their tabulated closed-form RF matrices.

Variant tags encode multiplicity and the conductor's residue class. Each
multiplicity <= 5 variant is one row of ``VARIANTS``: its multiplicity, the
residue and least value of its conductor, its generator pattern, the builder
of its closed-form RF table and, for the two 4k+2 variants, the largest k.
The RF table maps every PF element to its RF matrix list as tabulated, so the
predicted PF set is read off its keys. The "med" variant, whose multiplicity
is part of the spec, has its own formulas. The closed forms are reproduced
verbatim, typos included: the verifier's job is to diff them against
exhaustive enumeration, not to editorialize.

A closed form is stored as a list of templates; a template is one per-row
choice list whose Cartesian product (row-major) yields matrices. Templates
are expanded and deduplicated, nothing else: within the stated parameter
bounds no entry off the diagonal is negative, and one that were would show
up as a ``formula_only`` mismatch in the verifier rather than be hidden.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from typing import Callable

from .errors import InvalidFamily, NotPseudoFrobenius
from .semigroup import NumericalSemigroup, from_generators

Matrix = tuple[tuple[int, ...], ...]


@dataclass(frozen=True, slots=True)
class FamilySpec:
    """Selects one family instance: variant tag, conductor s, optional k and m.

    ``k`` is required by the m=4 variants carrying a 4k+2 generator; ``m`` is
    required by the "med" variant (conductor a multiple of the multiplicity,
    generators m, s+1, ..., s+m-1) and derived from the tag otherwise.
    """

    variant: str
    s: int
    k: int | None = None
    m: int | None = None


# ---------------------------------------------------------------------------
# validation + the readers of a variant's table row


def _need(cond: bool, message: str) -> None:
    if not cond:
        raise InvalidFamily(message)


def _resolve(spec: FamilySpec) -> tuple[str, int, int, int | None]:
    """Validate a spec and return (variant, m, s, k)."""
    v, s, k = spec.variant, spec.s, spec.k
    if v == "med":
        m = spec.m
        _need(m is not None and m >= 2, "med variant needs a multiplicity m >= 2")
        _need(s >= m and s % m == 0, f"med variant needs s >= m and s % m == 0, got s={s}, m={m}")
        _need(k is None, "med variant takes no k")
        return v, m, s, None
    row = VARIANTS.get(v)
    if row is None:
        raise InvalidFamily(f"unknown family variant {v!r}")
    m = row.m
    _need(spec.m in (None, m), f"variant {v} has multiplicity {m}, got m={spec.m}")
    _need(
        s >= row.least_s and s % m == row.residue,
        f"{v} needs s >= {row.least_s} with s % {m} == {row.residue}, got s={s}",
    )
    if row.k_max is None:
        _need(k is None, f"variant {v} takes no k")
    else:
        k_max = row.k_max(s)
        _need(k is not None and 1 <= k <= k_max, f"{v} needs 1 <= k <= {k_max}, got k={k}, s={s}")
    return v, m, s, k


def family_generators(spec: FamilySpec) -> tuple[int, ...]:
    v, m, s, k = _resolve(spec)
    if v == "med":
        return (m, *range(s + 1, s + m))
    return VARIANTS[v].generators(s, k)


def build_family(spec: FamilySpec) -> NumericalSemigroup:
    """Construct the family instance and sanity-check multiplicity and conductor."""
    _, m, s, _ = _resolve(spec)
    sg = from_generators(family_generators(spec))
    assert sg.multiplicity == m and sg.conductor == s, f"family postcondition broke: {spec}"
    return sg


def closed_form_pf(spec: FamilySpec) -> tuple[int, ...]:
    """Pseudo-Frobenius elements predicted by the variant tables (sorted)."""
    return tuple(closed_form_table(spec))


def pf_label(spec: FamilySpec, f: int) -> str:
    """Stable label of a PF element relative to the conductor (e.g. "s-1", "4k-2")."""
    _, _, s, k = _resolve(spec)
    if k is not None and f == 4 * k - 2:
        return "4k-2"
    if f >= s:
        raise NotPseudoFrobenius(f, closed_form_pf(spec))
    return f"s-{s - f}"


# ---------------------------------------------------------------------------
# closed-form matrix tables


def _expand(templates: list[list[list[tuple[int, ...]]]]) -> list[Matrix]:
    """Union of row-major products over all templates, deduplicated in order."""
    seen: dict[Matrix, None] = {}
    for template in templates:
        for matrix in itertools.product(*template):
            seen.setdefault(matrix, None)
    return list(seen)


def closed_form_table(spec: FamilySpec) -> dict[int, list[Matrix]]:
    """{PF element: tabulated RF matrix list}, PF elements ascending.

    The multiplicity <= 5 tables claim completeness; the one "med" formula
    matrix per PF element is only one member of the full enumeration.
    """
    v, m, s, k = _resolve(spec)
    if v == "med":
        return {s - j: [_med_matrix(m, s, j)] for j in range(m - 1, 0, -1)}
    table = VARIANTS[v].rf_table(s, k)
    return {f: _expand(table[f]) for f in sorted(table)}


def closed_form_rf(spec: FamilySpec, f: int) -> list[Matrix]:
    """The tabulated RF matrix list for PF element ``f`` of this family."""
    table = closed_form_table(spec)
    if f not in table:
        raise NotPseudoFrobenius(f, tuple(table))
    return table[f]


def _med_matrix(m: int, s: int, k: int) -> Matrix:
    """Formula matrix of the PF element s - k for the med family (m | s)."""
    q = s // m
    rows = []
    for i in range(1, m + 1):
        row = [0] * m
        row[i - 1] = -1
        if i == 1:
            row[m - k] = 1
        elif i == k + 1:
            row[0] = 2 * q
        elif i < k + 1:
            row[0] = q - 1
            row[i + m - k - 1] = 1
        else:
            row[0] = q
            row[i - k - 1] = 1
        rows.append(tuple(row))
    return tuple(rows)


def cor_det_matrix(spec: FamilySpec) -> Matrix:
    """The med-family matrix of the Frobenius number whose determinant is
    (-1)^(m-1) (s-1): the k=1 instance of the formula."""
    v, m, s, _ = _resolve(spec)
    if v != "med":
        raise InvalidFamily(f"determinant identity matrix is defined for 'med', not {v!r}")
    return _med_matrix(m, s, 1)


def _rows(*rows: tuple[int, ...]) -> list[list[tuple[int, ...]]]:
    """Template with exactly one choice per row."""
    return [[r] for r in rows]


def _m2(s, k):
    return {s - 1: [_rows((-1, 1), (s, -1))]}


def _m3_0(s, k):
    return {
        s - 2: [_rows((-1, 1, 0), ((s - 3) // 3, -1, 1), (2 * s // 3, 0, -1))],
        s - 1: [_rows((-1, 0, 1), (2 * s // 3, -1, 0), (s // 3, 1, -1))],
    }


def _m3_2(s, k):
    return {
        s - 3: [_rows((-1, 1, 0), ((s - 5) // 3, -1, 1), ((2 * s - 1) // 3, 0, -1))],
        s - 1: [_rows((-1, 0, 1), ((2 * s - 1) // 3, -1, 0), ((s + 1) // 3, 1, -1))],
    }


def _m4_k(s, k, b3):
    """The two 4k+2 variants, residues 0 and 2 mod 4. ``b3`` is the b-coefficient
    of row 3 in the first s-1 template: 2 for residue 0, 1 for residue 2."""
    # residue 2 tabulates that entry as s/2 - b - b*k (its sibling variant
    # and enumeration both have s/2 - b - 2*b*k); kept verbatim, the verifier
    # carries it as a pre-registered mismatch
    amax1 = (s + 2 * k + 2) // (2 * (2 * k + 1))
    amax3 = (s + 2 * k) // (2 * (2 * k + 1))
    bmax = s // (2 * (2 * k + 1))
    return {
        4 * k - 2: [_rows((-1, 1, 0, 0), (2 * k, -1, 0, 0), (k - 1, 0, -1, 1), (k, 0, 1, -1))],
        s - 3: [
            [
                [(-1, 0, 1, 0)],
                [(k - 1, -1, 0, 1)],
                [
                    (s // 2 - a - (2 * a - 1) * k, 2 * a - 1, -1, 0)
                    for a in range(1, amax3 + 1)
                ],
                [(s // 2 - b - 2 * b * k, 2 * b, 0, -1) for b in range(0, bmax + 1)],
            ]
        ],
        s - 1: [
            [
                [(-1, 0, 0, 1)],
                [(k, -1, 1, 0)],
                [(s // 2 - b - b3 * b * k, 2 * b, -1, 0) for b in range(0, bmax + 1)],
                [
                    (s // 2 - a + 1 - (2 * a - 1) * k, 2 * a - 1, 0, -1)
                    for a in range(1, amax1 + 1)
                ],
            ],
            [
                [(-1, 0, 0, 1)],
                [(k, -1, 1, 0)],
                [(s // 2 - b - 2 * b * k, 2 * b, -1, 0) for b in range(0, bmax + 1)],
                [(0, 0, 2, -1)],
            ],
        ],
    }


def _m4_0full(s, k):
    q = (s - 4) // 4
    return {
        s - 3: [_rows((-1, 1, 0, 0), (q, -1, 1, 0), (q, 0, -1, 1), (s // 2, 0, 0, -1))],
        s - 2: [_rows((-1, 0, 1, 0), (q, -1, 0, 1), (s // 2, 0, -1, 0), (s // 4, 1, 0, -1))],
        s - 1: [
            [
                [(-1, 0, 0, 1)],
                [(s // 2, -1, 0, 0)],
                [(s // 4, 1, -1, 0)],
                [(s // 4, 0, 1, -1), (0, 2, 0, -1)],
            ]
        ],
    }


def _m4_3(s, k):
    return {
        s - 4: [
            _rows(
                (-1, 1, 0, 0),
                ((s - 7) // 4, -1, 0, 1),
                ((s - 1) // 2, 0, -1, 0),
                ((s - 3) // 4, 0, 1, -1),
            )
        ],
        s - 2: [
            [
                [(-1, 0, 1, 0)],
                [((s - 1) // 2, -1, 0, 0)],
                [((s - 3) // 4, 0, -1, 1), (0, 2, -1, 0)],
                [((s + 1) // 4, 1, 0, -1)],
            ]
        ],
        s - 1: [
            [
                [(-1, 0, 0, 1)],
                [((s - 3) // 4, -1, 1, 0)],
                [((s + 1) // 4, 1, -1, 0)],
                [(0, 1, 1, -1), ((s + 1) // 2, 0, 0, -1)],
            ]
        ],
    }


def _m5_0a(s, k):
    q = s // 5
    return {
        s - 7: [
            _rows(
                (-1, 1, 0, 0, 0),
                (q - 2, -1, 1, 0, 0),
                (q - 2, 0, -1, 0, 1),
                ((2 * s - 5) // 5, 0, 0, -1, 0),
                (q - 1, 0, 0, 1, -1),
            )
        ],
        s - 4: [
            [
                [(-1, 0, 1, 0, 0)],
                [(q - 2, -1, 0, 0, 1)],
                [(q - 1, 0, -1, 1, 0)],
                [(q, 1, 0, -1, 0)],
                [(2 * q, 0, 0, 0, -1), (0, 1, 0, 1, -1)],
            ]
        ],
        s - 3: [
            [
                [(-1, 0, 0, 1, 0)],
                [((2 * s - 5) // 5, -1, 0, 0, 0)],
                [(q, 1, -1, 0, 0)],
                [(q - 1, 0, 0, -1, 1), (0, 1, 1, -1, 0)],
                [(q, 0, 1, 0, -1), (1, 2, 0, 0, -1)],
            ]
        ],
        s - 1: [
            [
                [(-1, 0, 0, 0, 1)],
                [(q - 1, -1, 0, 1, 0)],
                [(2 * q, 0, -1, 0, 0), (0, 1, -1, 1, 0)],
                [(q, 0, 1, -1, 0), (1, 2, 0, -1, 0)],
                [(q + 1, 1, 0, 0, -1), (0, 0, 1, 1, -1)],
            ]
        ],
    }


def _m5_0b(s, k):
    q = s // 5
    return {
        s - 4: [
            _rows(
                (-1, 1, 0, 0, 0),
                (q - 1, -1, 1, 0, 0),
                (q - 1, 0, -1, 1, 0),
                (q - 1, 0, 0, -1, 1),
                (2 * q, 0, 0, 0, -1),
            )
        ],
        s - 3: [
            _rows(
                (-1, 0, 1, 0, 0),
                (q - 1, -1, 0, 1, 0),
                (q - 1, 0, -1, 0, 1),
                (2 * q, 0, 0, -1, 0),
                (q, 1, 0, 0, -1),
            )
        ],
        s - 2: [
            [
                [(-1, 0, 0, 1, 0)],
                [(q - 1, -1, 0, 0, 1)],
                [(2 * q, 0, -1, 0, 0)],
                [(q, 1, 0, -1, 0)],
                [(q, 0, 1, 0, -1), (0, 2, 0, 0, -1)],
            ]
        ],
        s - 1: [
            [
                [(-1, 0, 0, 0, 1)],
                [(2 * q, -1, 0, 0, 0)],
                [(q, 1, -1, 0, 0)],
                [(q, 0, 1, -1, 0), (0, 2, 0, -1, 0)],
                [(q, 0, 0, 1, -1), (0, 1, 1, 0, -1)],
            ]
        ],
    }


def _m5_2(s, k):
    q2 = (s - 2) // 5
    q7 = (s - 7) // 5
    return {
        s - 5: [
            _rows(
                (-1, 1, 0, 0, 0),
                (q7, -1, 0, 1, 0),
                ((2 * s - 4) // 5, 0, -1, 0, 0),
                (q7, 0, 0, -1, 1),
                (q2, 0, 1, 0, -1),
            )
        ],
        s - 4: [
            [
                [(-1, 0, 1, 0, 0)],
                [((2 * s - 4) // 5, -1, 0, 0, 0)],
                [(q7, 0, -1, 0, 1)],
                [(q2, 1, 0, -1, 0)],
                [(q2, 0, 0, 1, -1), (0, 2, 0, 0, -1)],
            ]
        ],
        s - 3: [
            [
                [(-1, 0, 0, 1, 0)],
                [(q7, -1, 0, 0, 1)],
                [(q2, 1, -1, 0, 0)],
                [(q2, 0, 1, -1, 0)],
                [((2 * s + 1) // 5, 0, 0, 0, -1), (0, 1, 1, 0, -1)],
            ]
        ],
        s - 1: [
            [
                [(-1, 0, 0, 0, 1)],
                [(q2, -1, 1, 0, 0)],
                [(q2, 0, -1, 1, 0), (0, 2, -1, 0, 0)],
                [((2 * s + 1) // 5, 0, 0, -1, 0), (0, 1, 1, -1, 0)],
                [((s + 3) // 5, 1, 0, 0, -1), (0, 0, 1, 1, -1)],
            ]
        ],
    }


def _m5_3(s, k):
    q3 = (s - 3) // 5
    q8 = (s - 8) // 5
    return {
        s - 5: [
            _rows(
                (-1, 1, 0, 0, 0),
                (q8, -1, 0, 1, 0),
                (q8, 0, -1, 0, 1),
                (q3, 0, 1, -1, 0),
                ((2 * s - 1) // 5, 0, 0, 0, -1),
            )
        ],
        s - 4: [
            [
                [(-1, 0, 1, 0, 0)],
                [(q8, -1, 0, 0, 1)],
                [(q3, 1, -1, 0, 0)],
                [((2 * s - 1) // 5, 0, 0, -1, 0)],
                [(q3, 0, 0, 1, -1), (0, 2, 0, 0, -1)],
            ]
        ],
        s - 2: [
            [
                [(-1, 0, 0, 1, 0)],
                [(q3, -1, 1, 0, 0)],
                [((2 * s - 1) // 5, 0, -1, 0, 0)],
                [(q3, 0, 0, -1, 1), (0, 1, 1, -1, 0)],
                [((s + 2) // 5, 1, 0, 0, -1), (0, 0, 2, 0, -1)],
            ]
        ],
        s - 1: [
            [
                [(-1, 0, 0, 0, 1)],
                [((2 * s - 1) // 5, -1, 0, 0, 0)],
                [(q3, 0, -1, 1, 0), (0, 2, -1, 0, 0)],
                [((s + 2) // 5, 1, 0, -1, 0), (0, 0, 2, -1, 0)],
                [((s + 2) // 5, 0, 1, 0, -1), (0, 1, 0, 1, -1)],
            ]
        ],
    }


def _m5_4a(s, k):
    q9 = (s - 9) // 5
    q1 = (s + 1) // 5
    return {
        s - 7: [
            _rows(
                (-1, 1, 0, 0, 0),
                (q9, -1, 1, 0, 0),
                (q9, 0, -1, 1, 0),
                (q9, 0, 0, -1, 1),
                ((2 * s - 3) // 5, 0, 0, 0, -1),
            )
        ],
        s - 5: [
            _rows(
                (-1, 0, 1, 0, 0),
                (q9, -1, 0, 1, 0),
                (q9, 0, -1, 0, 1),
                ((2 * s - 3) // 5, 0, 0, -1, 0),
                (q1, 1, 0, 0, -1),
            )
        ],
        s - 3: [
            [
                [(-1, 0, 0, 1, 0)],
                [(q9, -1, 0, 0, 1)],
                [((2 * s - 3) // 5, 0, -1, 0, 0)],
                [(q1, 1, 0, -1, 0)],
                [(q1, 0, 1, 0, -1), (1, 2, 0, 0, -1)],
            ]
        ],
        s - 1: [
            [
                [(-1, 0, 0, 0, 1)],
                [((2 * s - 3) // 5, -1, 0, 0, 0)],
                [(q1, 1, -1, 0, 0)],
                [(q1, 0, 1, -1, 0), (1, 2, 0, -1, 0)],
                [(q1, 0, 0, 1, -1), (1, 1, 1, 0, -1)],
            ]
        ],
    }


def _m5_4b(s, k):
    q4 = (s - 4) // 5
    q1 = (s + 1) // 5
    # rf(s-2) is tabulated with trailing-column anomalies in all four printed
    # matrices; reproduced verbatim (pre-registered mismatch in the verifier)
    return {
        s - 5: [
            _rows(
                (-1, 1, 0, 0, 0),
                ((s - 9) // 5, -1, 0, 0, 1),
                ((2 * s - 3) // 5, 0, -1, 0, 0),
                (q4, 0, 1, -1, 0),
                (q4, 0, 0, 1, -1),
            )
        ],
        s - 3: [
            [
                [(-1, 0, 1, 0, 0)],
                [((2 * s - 3) // 5, -1, 0, 0, 0)],
                [(q4, 0, -1, 1, 0)],
                [(q4, 0, 0, -1, 1), (0, 2, 0, -1, 0)],
                [(q1, 1, 0, 0, -1)],
            ]
        ],
        s - 2: [
            _rows(
                (-1, 0, 0, 1, 0),
                (q4, -1, 1, 0, 0),
                (q4, 0, -1, 0, 0),
                (q1, 1, 0, -1, 0),
                ((2 * s + 2) // 5, 0, 0, 0, -1),
            ),
            _rows(
                (-1, 0, 0, 1, 0),
                (q4, -1, 1, 0, 0),
                (q4, 0, -1, 0, 0),
                (q1, 1, 0, -1, 0),
                (0, 1, 1, 0, -1),
            ),
            _rows(
                (-1, 0, 0, 1, 0),
                (q4, -1, 1, 0, 1),
                (0, 2, -1, 0, 1),
                (q1, 1, 0, -1, 0),
                ((2 * s + 2) // 5, 0, 0, 0, -1),
            ),
            _rows(
                (-1, 0, 0, 1, 0),
                (q4, -1, 1, 0, 1),
                (0, 2, -1, 0, 1),
                (q1, 1, 0, -1, 0),
                (0, 1, 1, 0, -1),
            ),
        ],
        s - 1: [
            [
                [(-1, 0, 0, 0, 1)],
                [(q4, -1, 0, 1, 0)],
                [(q1, 1, -1, 0, 0)],
                [((2 * s + 2) // 5, 0, 0, -1, 0), (0, 1, 1, -1, 0)],
                [(q1, 0, 1, 0, -1), (0, 1, 0, 1, -1)],
            ]
        ],
    }


# ---------------------------------------------------------------------------
# the variant table


@dataclass(frozen=True, slots=True)
class Variant:
    """One multiplicity <= 5 variant as tabulated.

    Legal conductors are s >= ``least_s`` with s % ``m`` == ``residue``; the
    two 4k+2 variants also take 1 <= k <= ``k_max(s)``. ``generators(s, k)``
    is the generator pattern and ``rf_table(s, k)`` maps each PF element to
    its closed-form templates.
    """

    m: int
    residue: int
    least_s: int
    generators: Callable[[int, int | None], tuple[int, ...]]
    rf_table: Callable[[int, int | None], dict[int, list]]
    k_max: Callable[[int], int] | None = None


def _m4_k_generators(s, k):
    return tuple(sorted((4, 4 * k + 2, s + 1, s + 3)))


VARIANTS = {
    "m2": Variant(2, 0, 2, lambda s, k: (2, s + 1), _m2),
    "m3_0": Variant(3, 0, 3, lambda s, k: (3, s + 1, s + 2), _m3_0),
    "m3_2": Variant(3, 2, 5, lambda s, k: (3, s, s + 2), _m3_2),
    "m4_0k": Variant(4, 0, 8, _m4_k_generators, partial(_m4_k, b3=2), lambda s: s // 4 - 1),
    "m4_0full": Variant(4, 0, 4, lambda s, k: (4, s + 1, s + 2, s + 3), _m4_0full),
    "m4_2k": Variant(4, 2, 6, _m4_k_generators, partial(_m4_k, b3=1), lambda s: (s - 2) // 4),
    "m4_3": Variant(4, 3, 7, lambda s, k: (4, s, s + 2, s + 3), _m4_3),
    "m5_0a": Variant(5, 0, 10, lambda s, k: (5, s - 2, s + 1, s + 2, s + 4), _m5_0a),
    "m5_0b": Variant(5, 0, 5, lambda s, k: (5, s + 1, s + 2, s + 3, s + 4), _m5_0b),
    "m5_2": Variant(5, 2, 7, lambda s, k: (5, s, s + 1, s + 2, s + 4), _m5_2),
    "m5_3": Variant(5, 3, 8, lambda s, k: (5, s, s + 1, s + 3, s + 4), _m5_3),
    "m5_4a": Variant(5, 4, 9, lambda s, k: (5, s - 2, s, s + 2, s + 4), _m5_4a),
    "m5_4b": Variant(5, 4, 9, lambda s, k: (5, s, s + 2, s + 3, s + 4), _m5_4b),
}

M_LE_5_VARIANTS = tuple(VARIANTS)

# claim ids for the multiplicity <= 5 tabulations
CLAIM_VARIANTS = {
    "Prop3.1": ("m2",),
    "Prop3.2": ("m3_0",),
    "Prop3.3": ("m3_2",),
    "Prop3.4": ("m4_0k",),
    "Prop3.5": ("m4_0full",),
    "Prop3.6": ("m4_2k", "m4_3"),
    "Prop3.7": ("m5_0b",),
    "Prop3.8": ("m5_0a",),
    "Prop3.9": ("m5_2",),
    "Prop3.10": ("m5_3",),
    "Prop3.11": ("m5_4a",),
    "Prop3.12": ("m5_4b",),
}


# ---------------------------------------------------------------------------
# sweep helpers


def family_instances(variant: str, s_max: int) -> list[FamilySpec]:
    """Every legal spec of the variant with conductor at most ``s_max``, by (s, k)."""
    if variant == "med":
        raise InvalidFamily("med sweeps are enumerated by med_instances(m, s_max)")
    row = VARIANTS[variant]
    out = []
    for s in range(row.least_s, s_max + 1, row.m):
        if row.k_max is None:
            out.append(FamilySpec(variant=variant, s=s))
        else:
            out.extend(FamilySpec(variant=variant, s=s, k=k) for k in range(1, row.k_max(s) + 1))
    return out


def med_instances(m: int, s_values) -> list[FamilySpec]:
    return [FamilySpec(variant="med", s=s, m=m) for s in s_values]
