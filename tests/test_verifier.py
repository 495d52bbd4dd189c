import dataclasses
import json
from pathlib import Path

import pytest

from arfrf import families, verifier
from arfrf.cli import main
from arfrf.errors import GridTooLarge, UnknownClaim
from arfrf.rfmatrix import rf_matrices
from arfrf.semigroup import from_generators
from arfrf.verifier import (
    CLAIMS,
    DEFAULT_SUITE,
    VerifyConfig,
    aggregate_ok,
    cofactor_determinant,
    load_fixtures,
    oracle_membership,
    oracle_pf,
    parse_config_text,
    random_semigroups,
    sample_arf_closures,
    verify_all,
    verify_claim,
)

QUICK = VerifyConfig(s_max=36, med_m_max=7, closure_samples=8, oracle_samples=30)


class TestOracles:
    def test_membership(self):
        assert not oracle_membership([2, 5], 3)
        assert not oracle_membership([6, 9, 20], 43)
        assert oracle_membership([6, 9, 20], 44)
        assert oracle_membership([2, 5], 0)
        assert not oracle_membership([2, 5], -1)

    def test_pf(self):
        assert oracle_pf([5, 19, 21, 22, 23]) == (14, 16, 17, 18)
        assert oracle_pf([2, 3]) == (1,)
        assert oracle_pf([6, 9, 20]) == (43,)
        assert oracle_pf([1]) == ()

    def test_cofactor_determinant(self):
        assert cofactor_determinant([[5]]) == 5
        assert cofactor_determinant([[1, 2], [3, 4]]) == -2
        assert cofactor_determinant([[-1, 1], [4, -1]]) == -3
        assert cofactor_determinant([[0, 0], [0, 0]]) == 0


class TestSampling:
    def test_closure_samples_deterministic(self):
        a = sample_arf_closures(6, (6, 7, 8), seed=5)
        b = sample_arf_closures(6, (6, 7, 8), seed=5)
        assert [s.generators for s in a] == [s.generators for s in b]
        assert len({s.generators for s in a}) == 6
        for sg in a:
            assert sg.is_arf()
            assert sg.multiplicity in (6, 7, 8)

    def test_random_semigroups_deterministic(self):
        assert random_semigroups(10, seed=3) == random_semigroups(10, seed=3)
        for gens in random_semigroups(10, seed=3):
            sg = from_generators(gens)
            assert sg.generators[-1] <= 60
            assert sg.embedding_dimension <= 6


class TestClaims:
    def test_unknown_claim(self):
        with pytest.raises(UnknownClaim):
            verify_claim("Prop9.9", QUICK)

    def test_grid_cap(self):
        with pytest.raises(GridTooLarge):
            verify_claim("Prop3.1", VerifyConfig(s_max=5000))

    def test_closure_samples_capped_below_the_draw_space(self):
        # sample_arf_closures can draw only 1,207 distinct closures, so
        # 2,000 would loop for ever instead of failing
        with pytest.raises(GridTooLarge):
            VerifyConfig(closure_samples=2000).check_caps()

    def test_unknown_claim_fails_before_any_sweep(self, monkeypatch):
        def no_sweep(*args):
            raise AssertionError("swept before the claim list was checked")

        monkeypatch.setattr(verifier, "_sweep", no_sweep)
        with pytest.raises(UnknownClaim):
            verify_all(QUICK, ["Prop3.1", "Bogus"])

    def test_rf_tables_built_once_per_instance(self, monkeypatch):
        calls = []
        for v, row in families.VARIANTS.items():
            def counted(s, k, v=v, build=row.rf_table):
                calls.append((v, s, k))
                return build(s, k)

            monkeypatch.setitem(families.VARIANTS, v, dataclasses.replace(row, rf_table=counted))
        verify_claim("Props3.1-3.12", QUICK)
        assert calls == [
            (v, spec.s, spec.k)
            for v in families.M_LE_5_VARIANTS
            for spec in families.family_instances(v, QUICK.s_max)
        ]

    def test_single_prop_passes(self):
        report = verify_claim("Prop3.1", QUICK)
        assert report.status == "pass"
        assert report.checked > 0
        assert report.counterexamples == []

    def test_fixture_claims_report_mismatch(self):
        for claim_id, variant in [("Prop3.6", "m4_2k"), ("Prop3.12", "m5_4b")]:
            report = verify_claim(claim_id, QUICK)
            assert report.status == "mismatch-with-details"
            locus = next(m for m in report.mismatches if m["variant"] == variant)
            assert locus["expected"] is True
            example = locus["example"]
            assert example["formula_only"] or example["enumeration_only"]

    def test_omission_fixture(self):
        report = verify_claim("Prop3.11", QUICK)
        assert report.status == "mismatch-with-details"
        [locus] = report.mismatches
        assert locus["s_values"] == [9]
        assert locus["example"]["formula_only"] == []

    def test_section_claims_pass_on_quick_grid(self):
        for claim_id in ("Cor3.13", "Lemma4.1", "Prop4.2", "Cor4.3", "Remark4.4",
                         "Thm5.6"):
            report = verify_claim(claim_id, QUICK)
            assert report.status == "pass", (claim_id, report.counterexamples[:1])

    def test_registry_contains_default_suite(self):
        assert set(DEFAULT_SUITE) <= set(CLAIMS)
        assert len(DEFAULT_SUITE) == 14

    def test_verify_all_empty_selection(self):
        assert verify_all(QUICK, claim_ids=[]) == []

    def test_reports_deterministic(self):
        r1 = verify_claim("Thm5.6", QUICK).to_dict()
        r2 = verify_claim("Thm5.6", QUICK).to_dict()
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)

    def test_aggregate_ok(self):
        reports = verify_all(QUICK, claim_ids=["Prop3.1", "Prop3.6"])
        assert aggregate_ok(reports)
        reports[0].status = "fail"
        assert not aggregate_ok(reports)


class TestFixtures:
    def test_shipped_fixtures(self):
        fixtures = load_fixtures()
        kinds = sorted(f["kind"] for f in fixtures)
        assert kinds == ["omission", "suspected-typo", "suspected-typo"]
        typo_keys = {
            (f["variant"], f["pf_label"])
            for f in fixtures
            if f["kind"] == "suspected-typo"
        }
        assert typo_keys == {("m4_2k", "s-1"), ("m5_4b", "s-2")}

    def test_fixture_override(self, tmp_path):
        path = tmp_path / "fixtures.json"
        path.write_text("[]")
        config = VerifyConfig(
            s_max=12, med_m_max=6, closure_samples=2, oracle_samples=5,
            fixtures_path=str(path),
        )
        report = verify_claim("Prop3.6", config)
        # with no registered fixtures the tabulation mismatch is a failure
        assert report.status == "fail"


class TestConfigParsing:
    def test_round_trip(self):
        text = """
        # sweep bounds
        s_max = 80
        seed = 7
        claims = Prop3.1, Cor3.13
        """
        settings = parse_config_text(text)
        assert settings == {"s_max": 80, "seed": 7, "claims": ["Prop3.1", "Cor3.13"]}

    def test_rejects_unknown_key(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config_text("nope = 3")

    def test_rejects_bad_int(self):
        with pytest.raises(ValueError, match="integer"):
            parse_config_text("s_max = many")

    def test_rejects_bad_line(self):
        with pytest.raises(ValueError, match="key = value"):
            parse_config_text("just words")


class TestRemarkAndLemma:
    def test_remark44_on_quick_grid(self):
        report = verify_claim("Remark4.4", QUICK)
        assert report.status == "pass"

    def test_lemma45_on_quick_grid(self):
        report = verify_claim("Lemma4.5", QUICK)
        assert report.status == "pass"
        assert report.checked > 100

    def test_closure_instances_have_zero_pairs(self):
        from arfrf.rfmatrix import column_zero_pair

        for sg in sample_arf_closures(5, (6, 7), seed=11):
            for matrix in rf_matrices(sg, sg.frobenius):
                assert column_zero_pair(matrix) is not None

    @pytest.mark.parametrize("gens", [(5, 16, 17, 18), (5, 23, 24, 26), (5, 8, 11, 14)])
    def test_zero_pair_check_reports_first_counterexample(self, gens):
        # the failing branch of Lemma4.5: multiplicity 5 is below the lemma's
        # range, and these instances have an RF matrix of F with no column
        # holding two zeros; the check stops at the first one
        sg = from_generators(gens)
        matrices = rf_matrices(sg, sg.frobenius)
        k, first = next(
            (k, m) for k, m in enumerate(matrices, start=1)
            if all(sum(row[j] == 0 for row in m) < 2 for j in range(len(m)))
        )
        assert 1 < k < len(matrices)
        assert verifier._check_zero_pairs(sg, None) == (k, [{"matrix": first}])


def test_golden_reports_byte_identical(tmp_path, capsys):
    """The default suite at the QUICK bounds reproduces the pinned reports."""
    data = Path(__file__).parent / "data"
    code = main(["verify", "--config", str(data / "golden_quick.cfg"),
                 "--report-dir", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    golden = data / "golden_quick"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        p.name for p in golden.iterdir()
    )
    for path in golden.iterdir():
        assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name
