#!/usr/bin/env python3
"""Print the closed-form RF matrices of one family instance next to the
enumerated ones, marking agreements and discrepancies.

Usage:
    python scripts/rf_tables.py VARIANT S [K]
    python scripts/rf_tables.py med S M

A spec that names no family instance, or an argument that is not an
integer, prints ``error: <message>`` to stderr and exits 2.

Examples:
    python scripts/rf_tables.py m4_2k 10 1     # shows the tabulation defect
    python scripts/rf_tables.py m5_4a 9        # shows the boundary omission
    python scripts/rf_tables.py med 24 6
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from arfrf.cli import format_matrix
from arfrf.errors import InvalidFamily
from arfrf.families import FamilySpec, build_family, closed_form_pf, closed_form_rf
from arfrf.rfmatrix import determinant, rf_matrices


def show(matrix, tag):
    print(f"  {tag}  det = {determinant(matrix)}")
    for row in format_matrix(matrix):
        print("    " + row)


def main() -> int:
    if len(sys.argv) < 3:
        print(__doc__)
        return 2
    variant = sys.argv[1]
    try:
        s = int(sys.argv[2])
        third = int(sys.argv[3]) if len(sys.argv) > 3 else None
        if variant == "med":
            spec = FamilySpec(variant, s=s, m=third)
        else:
            spec = FamilySpec(variant, s=s, k=third)
    except (InvalidFamily, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sg = build_family(spec)
    print(f"S = {sg}  conductor {sg.conductor}  F = {sg.frobenius}")
    for f in closed_form_pf(spec):
        tabulated = set(closed_form_rf(spec, f))
        enumerated = set(rf_matrices(sg, f))
        print(f"\nRF({f}): {len(tabulated)} tabulated, {len(enumerated)} enumerated")
        for matrix in sorted(enumerated | tabulated, reverse=True):
            if matrix in enumerated and matrix in tabulated:
                show(matrix, "both         ")
            elif matrix in enumerated:
                show(matrix, "enumeration  ")
            else:
                show(matrix, "tabulation(!)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
