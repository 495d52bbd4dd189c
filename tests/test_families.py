import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arfrf import families
from arfrf.errors import InvalidFamily, NotPseudoFrobenius
from arfrf.families import (
    CLAIM_VARIANTS,
    M_LE_5_VARIANTS,
    FamilySpec,
    build_family,
    closed_form_pf,
    closed_form_rf,
    family_instances,
    med_instances,
    pf_label,
)
from arfrf.rfmatrix import determinant, iter_rf_matrices, rf_row_choices
from arfrf.verifier import VerifyConfig


class TestBuild:
    def test_examples(self):
        assert build_family(FamilySpec("m3_0", s=6)).generators == (3, 7, 8)
        assert build_family(FamilySpec("m4_0k", s=20, k=2)).generators == (4, 10, 21, 23)
        assert build_family(FamilySpec("med", s=24, m=6)).generators == (
            6, 25, 26, 27, 28, 29,
        )

    def test_m5_first_forms(self):
        assert build_family(FamilySpec("m5_0a", s=10)).generators == (5, 8, 11, 12, 14)
        assert build_family(FamilySpec("m5_4a", s=9)).generators == (5, 7, 9, 11, 13)
        assert build_family(FamilySpec("m5_4b", s=19)).generators == (5, 19, 21, 22, 23)

    def test_bad_specs_rejected(self):
        with pytest.raises(InvalidFamily, match="s % 4"):
            FamilySpec("m4_0full", s=21) and build_family(FamilySpec("m4_0full", s=21))
        with pytest.raises(InvalidFamily):
            build_family(FamilySpec("m4_0k", s=20, k=5))  # k = s/4 is the full form
        with pytest.raises(InvalidFamily):
            build_family(FamilySpec("m2", s=3))
        with pytest.raises(InvalidFamily):
            build_family(FamilySpec("med", s=25, m=6))
        with pytest.raises(InvalidFamily):
            build_family(FamilySpec("nope", s=8))

    def test_specs_validated_on_construction(self):
        with pytest.raises(InvalidFamily, match="s % 2"):
            FamilySpec("m2", s=3)
        with pytest.raises(InvalidFamily, match="multiplicity"):
            FamilySpec("med", s=24)
        assert FamilySpec("m4_0k", s=20, k=2).m == 4

    def test_spec_repr_and_construction(self):
        spec = FamilySpec("m4_0k", s=20, k=2)
        assert repr(spec) == "FamilySpec(variant='m4_0k', s=20, k=2, m=4)"
        assert FamilySpec("m4_0k", 20, 2) == spec == FamilySpec(variant="m4_0k", s=20, k=2, m=4)
        assert repr(FamilySpec("m2", 4)) == "FamilySpec(variant='m2', s=4, k=None, m=2)"
        assert repr(FamilySpec("med", 24, None, 6)) == "FamilySpec(variant='med', s=24, k=None, m=6)"

    def test_spec_is_immutable(self):
        spec = FamilySpec("m2", s=4)
        for name in ("variant", "s", "k", "m"):
            with pytest.raises(AttributeError):
                setattr(spec, name, 6)
        assert spec == FamilySpec("m2", s=4)

    def test_replace_validates(self):
        assert FamilySpec("m2", s=4)._replace(s=6) == FamilySpec("m2", s=6)
        with pytest.raises(InvalidFamily, match="s % 2"):
            FamilySpec("m2", s=4)._replace(s=5)

    def test_postconditions_over_sweep(self):
        for variant in M_LE_5_VARIANTS:
            for spec in family_instances(variant, 48):
                sg = build_family(spec)
                assert sg.is_arf()
                assert sg.pseudo_frobenius() == closed_form_pf(spec)

    def test_claim_map_covers_all_variants(self):
        covered = [v for vs in CLAIM_VARIANTS.values() for v in vs]
        assert sorted(covered) == sorted(M_LE_5_VARIANTS)
        assert len(CLAIM_VARIANTS) == 12


class TestClosedForms:
    def test_multiplicity_two(self):
        assert closed_form_rf(FamilySpec("m2", s=8), 7) == [((-1, 1), (8, -1))]

    def test_m5_full_shape_single_matrix(self):
        [m] = closed_form_rf(FamilySpec("m5_0b", s=20), 16)
        assert m[0] == (-1, 1, 0, 0, 0)
        assert m[-1] == (8, 0, 0, 0, -1)

    def test_med_k1_matches_det_identity(self):
        spec = FamilySpec("med", s=24, m=6)
        [matrix] = closed_form_rf(spec, 23)
        assert matrix == (
            (-1, 0, 0, 0, 0, 1),
            (8, -1, 0, 0, 0, 0),
            (4, 1, -1, 0, 0, 0),
            (4, 0, 1, -1, 0, 0),
            (4, 0, 0, 1, -1, 0),
            (4, 0, 0, 0, 1, -1),
        )
        assert determinant(matrix) == (-1) ** 5 * 23

    def test_pf_labels(self):
        spec = FamilySpec("m4_2k", s=10, k=2)
        assert pf_label(spec, 6) == "4k-2"
        assert pf_label(spec, 9) == "s-1"
        with pytest.raises(NotPseudoFrobenius):
            closed_form_rf(spec, 8)

    def test_pf_labels_distinct_over_the_default_grid(self):
        # mismatch loci are keyed by (variant, label): two PF elements of one
        # instance with one label would merge into a single locus
        config = VerifyConfig()
        specs = [spec for variant in M_LE_5_VARIANTS
                 for spec in family_instances(variant, config.s_max)]
        for m in range(config.med_m_min, config.med_m_max + 1):
            specs += med_instances(m, range(m, config.med_s_factor * m + 1, m))
        assert len(specs) == 3066
        for spec in specs:
            pf = closed_form_pf(spec)
            assert len({pf_label(spec, f) for f in pf}) == len(pf), spec

    def test_med_rows_are_valid_factorizations(self):
        spec = FamilySpec("med", s=35, m=7)
        sg = build_family(spec)
        for f in closed_form_pf(spec):
            [matrix] = closed_form_rf(spec, f)
            choices = rf_row_choices(sg, f)
            for i, row in enumerate(matrix):
                assert row in choices[i]


class TestAgainstEnumeration:
    @staticmethod
    def _diff(spec, f):
        sg = build_family(spec)
        enum = set(iter_rf_matrices(sg, f))
        closed = set(closed_form_rf(spec, f))
        return closed - enum, enum - closed

    def test_clean_variants_match_exactly(self):
        for variant, s, k in [
            ("m2", 12, None),
            ("m3_0", 9, None),
            ("m3_2", 11, None),
            ("m4_0k", 16, 2),
            ("m4_0full", 16, None),
            ("m4_3", 15, None),
            ("m5_0a", 20, None),
            ("m5_0b", 15, None),
            ("m5_2", 17, None),
            ("m5_3", 13, None),
            ("m5_4a", 14, None),
        ]:
            spec = FamilySpec(variant, s=s, k=k)
            for f in closed_form_pf(spec):
                formula_only, enum_only = self._diff(spec, f)
                assert not formula_only and not enum_only, (spec, f)

    def test_m4_2k_frobenius_tabulation_mismatch(self):
        # the tabulated row-3 entry s/2 - b - b*k misses the target once b >= 1
        spec = FamilySpec("m4_2k", s=10, k=1)
        formula_only, enum_only = self._diff(spec, 9)
        assert formula_only and enum_only
        sg = build_family(spec)
        bad = [row for m in formula_only for row in m]
        assert any(
            sum(c * g for c, g in zip(row, sg.generators)) != 9 for row in bad
        )
        # every other PF element of the same instance is clean
        for f in (2, 7):
            assert self._diff(spec, f) == (set(), set())

    def test_m5_4b_trailing_column_mismatch(self):
        spec = FamilySpec("m5_4b", s=14)
        formula_only, enum_only = self._diff(spec, 12)
        assert len(formula_only) == 4 and len(enum_only) == 4
        for f in (9, 11, 13):
            assert self._diff(spec, f) == (set(), set())

    def test_m5_4a_boundary_omission(self):
        # 3(s-2) = 2s+3 only at s=9, where enumeration finds two extra matrices
        spec = FamilySpec("m5_4a", s=9)
        formula_only, enum_only = self._diff(spec, 8)
        assert formula_only == set()
        assert len(enum_only) == 2
        assert all(m[4] == (0, 3, 0, 0, -1) for m in enum_only)
        clean = FamilySpec("m5_4a", s=14)
        assert self._diff(clean, 13) == (set(), set())


# 1-4 templates of 1-3 rows over a three-row pool: rows overlap and repeat, and may be empty
_TEMPLATES = st.lists(
    st.lists(st.lists(st.sampled_from([(0,), (1,), (2,)]), max_size=4), min_size=1, max_size=3),
    min_size=1, max_size=4,
)


class TestUnionSize:
    @given(_TEMPLATES)
    @example([[[(0,), (1,)], [(2,)]], [[(1,), (1,)], [(2,), (0,)]], [[], [(0,)]]])
    @example([[[(0,)]], [[(0,)], [(1,)]]])  # row counts differ: the products never meet
    @settings(max_examples=300, deadline=None)
    def test_inclusion_exclusion_counts_the_expansion(self, templates):
        assert families._union_size(templates) == len(families._expand(templates))


class TestInstances:
    def test_family_instances_counts(self):
        assert len(family_instances("m2", 10)) == 5  # s in {2,4,6,8,10}
        assert [s.k for s in family_instances("m4_0k", 16)] == [1, 1, 2, 1, 2, 3]
        with pytest.raises(InvalidFamily):
            family_instances("med", 10)

    def test_instances_all_legal(self):
        for variant in M_LE_5_VARIANTS:
            for spec in family_instances(variant, 30):
                build_family(spec)

    def test_instances_are_exactly_the_legal_specs(self):
        # both directions, in (s, k) order: pins the table rows' bounds
        for variant in M_LE_5_VARIANTS:
            legal = []
            for s in range(-2, 121):
                for k in (None, *range(0, s + 1)):
                    try:
                        spec = FamilySpec(variant, s=s, k=k)
                        build_family(spec)
                    except InvalidFamily:
                        continue
                    legal.append(spec)
            assert family_instances(variant, 120) == legal, variant


RF_TABLES = Path(__file__).resolve().parents[1] / "scripts" / "rf_tables.py"


def run_rf_tables(*argv):
    return subprocess.run(
        [sys.executable, str(RF_TABLES), *argv], capture_output=True, text=True, timeout=60
    )


@pytest.mark.parametrize("argv", [("m2", "3"), ("med", "24"), ("m2", "x")])
def test_rf_tables_bad_input_exit_2(argv):
    proc = run_rf_tables(*argv)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [("m4_2k", "10", "1"), ("m5_4a", "9"), ("med", "24", "6")])
def test_rf_tables_output_is_pinned(argv):
    proc = run_rf_tables(*argv)
    assert proc.returncode == 0 and proc.stderr == ""
    pinned = Path(__file__).resolve().parent / "data" / "rf_tables" / f"{'_'.join(argv)}.txt"
    assert proc.stdout == pinned.read_text(encoding="utf-8")


def test_rf_tables_shows_boundary_omission():
    proc = run_rf_tables("m5_4a", "9")
    assert proc.returncode == 0
    assert "RF(8): 4 tabulated, 6 enumerated" in proc.stdout.splitlines()
