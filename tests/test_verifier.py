import dataclasses
import itertools
import json
from pathlib import Path

import pytest
from hypothesis import given, settings

from arfrf import families, verifier
from arfrf.cli import main
from arfrf.errors import GridTooLarge, UnknownClaim
from arfrf.lattice import GenericityReport, is_generic
from arfrf.rfmatrix import column_zero_pair, iter_rf_matrices, rf_matrices, rf_matrix_count
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

from test_semigroup import gen_sets

QUICK = VerifyConfig(s_max=36, med_m_max=7, closure_samples=8, oracle_samples=30)

ALL_VARIANTS = ("m2", "m3_0", "m3_2", "m4_0k", "m4_0full", "m4_2k", "m4_3",
                "m5_0a", "m5_0b", "m5_2", "m5_3", "m5_4a", "m5_4b")
M45_VARIANTS = ALL_VARIANTS[3:]

# claim id: (the sources its walk reads, whether it locates med instances by semigroup)
CLAIM_SCOPES = {
    "Prop3.1": ({"m2"}, False),
    "Prop3.2": ({"m3_0"}, False),
    "Prop3.3": ({"m3_2"}, False),
    "Prop3.4": ({"m4_0k"}, False),
    "Prop3.5": ({"m4_0full"}, False),
    "Prop3.6": ({"m4_2k", "m4_3"}, False),
    "Prop3.7": ({"m5_0b"}, False),
    "Prop3.8": ({"m5_0a"}, False),
    "Prop3.9": ({"m5_2"}, False),
    "Prop3.10": ({"m5_3"}, False),
    "Prop3.11": ({"m5_4a"}, False),
    "Prop3.12": ({"m5_4b"}, False),
    "Props3.1-3.12": (set(ALL_VARIANTS), False),
    "Cor3.13": (set(ALL_VARIANTS), False),
    "Lemma4.1": ({"med"}, False),
    "Prop4.2": ({"med"}, False),
    "Cor4.3": ({"med"}, False),
    "Remark4.4": ({"med", "closure"}, True),
    "Lemma4.5": ({"med", "closure"}, True),
    "Thm5.2-equiv": ({*ALL_VARIANTS, "med"}, False),
    "Conj5.3": ({*ALL_VARIANTS, "med"}, False),
    "Thm5.4.1": (set(ALL_VARIANTS), False),
    "Thm5.4.2": ({"med"}, False),
    "Thm5.6": ({"m2", "m3_0", "m3_2"}, False),
    "Thm5.7": ({*M45_VARIANTS, "med"}, False),
    "OracleAgreement": ({"random"}, False),
}


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
            VerifyConfig(closure_samples=2000)

    def test_unknown_claim_fails_before_any_sweep(self, monkeypatch):
        def no_build(spec):
            raise AssertionError("built an instance before the claim list was checked")

        monkeypatch.setattr(families, "build_family", no_build)
        with pytest.raises(UnknownClaim):
            verify_all(QUICK, ["Prop3.1", "Bogus"])

    def test_each_instance_built_once(self, monkeypatch):
        built = []
        build = families.build_family

        def counted(spec):
            built.append(spec)
            return build(spec)

        monkeypatch.setattr(families, "build_family", counted)
        verify_all(QUICK)
        assert built and len(built) == len(set(built))

    def test_interleaved_claims_match_claims_run_alone(self):
        # claims that share an instance share its check result, which none may change
        ids = ["Props3.1-3.12", "Prop3.12", "Conj5.3", "Thm5.4.1", "Thm5.6", "Thm5.6"]
        together = [report.to_dict() for report in verify_all(QUICK, ids)]
        assert together == [verify_claim(cid, QUICK).to_dict() for cid in ids]

    def test_counterexample_locations(self, monkeypatch):
        def fail(sg, spec):
            return 1, [{"problem": "forced"}]

        ids = ["Prop3.1", "Prop3.4", "Lemma4.1", "Remark4.4", "OracleAgreement"]
        for cid in ids:
            monkeypatch.setitem(CLAIMS, cid, dataclasses.replace(CLAIMS[cid], check=fail))
        tiny = VerifyConfig(s_max=8, med_m_max=6, med_s_factor=1, closure_samples=1,
                            oracle_samples=1)
        m2, m4_0k, med, remark, oracle = (r.counterexamples for r in verify_all(tiny, ids))
        assert m2[0] == {"spec": {"variant": "m2", "s": 2}, "problem": "forced"}
        assert m4_0k == [{"spec": {"variant": "m4_0k", "s": 8, "k": 1}, "problem": "forced"}]
        med_spec = {"variant": "med", "s": 6, "m": 6}
        assert med == [{"spec": med_spec, "problem": "forced"}]
        [closure] = sample_arf_closures(1, verifier.CLOSURE_MULTIPLICITIES, tiny.seed)
        assert remark == [
            {"semigroup": [6, 7, 8, 9, 10, 11], "origin": med_spec, "problem": "forced"},
            {"semigroup": list(closure.generators),
             "origin": {"origin": "arf-closure-sample", "seed": tiny.seed}, "problem": "forced"},
        ]
        [gens] = random_semigroups(1, tiny.seed)
        assert oracle == [{"gens": list(gens), "problem": "forced"}]

    def test_table_lists_every_claim(self):
        assert set(CLAIM_SCOPES) == set(CLAIMS)

    @pytest.mark.parametrize("cid", sorted(CLAIM_SCOPES))
    def test_claim_sweeps_its_scope(self, monkeypatch, cid):
        sources, by_semigroup = CLAIM_SCOPES[cid]
        walked, located = [], []
        walk, fold = verifier._instances, verifier._fold

        def recorded_walk(config, readers):
            walked.append(set(readers))
            return walk(config, readers)

        def recorded_fold(report, loci, where, *result):
            located.append(sorted(where))
            fold(report, loci, where, *result)

        monkeypatch.setattr(verifier, "_instances", recorded_walk)
        monkeypatch.setattr(verifier, "_fold", recorded_fold)
        # no multiplicity<=5 instance, one med instance, no samples
        tiny = VerifyConfig(s_max=1, med_m_max=6, med_s_factor=1, closure_samples=0,
                            oracle_samples=0)
        verify_claim(cid, tiny)
        assert walked == [sources]
        med_where = ["origin", "semigroup"] if by_semigroup else ["spec"]
        assert located == ([med_where] if "med" in sources else [])

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

    @pytest.mark.parametrize("text", [
        '{"variant": "m5_4b", "pf_label": "s-2"}',
        '[{"pf_label": "s-1"}]',
        '[{"variant": "m5_4a", "pf_label": "s-1", "s": "9"}]',
        '[{"variant": "m5_4a", "pf_label": "s-1", "s": true}]',
    ])
    def test_malformed_fixtures_exit_4_before_any_sweep(self, tmp_path, capsys, monkeypatch, text):
        def no_build(spec):
            raise AssertionError("built an instance before the fixtures were checked")

        monkeypatch.setattr(families, "build_family", no_build)
        fixtures = tmp_path / "fixtures.json"
        fixtures.write_text(text)
        config = tmp_path / "sweep.cfg"
        config.write_text(f"fixtures = {fixtures}\n")
        reports = tmp_path / "reports"
        code = main(["verify", "--config", str(config), "--claim", "Prop3.12", "--s-max", "30",
                     "--report-dir", str(reports)])
        assert code == 4
        assert "fixtures" in capsys.readouterr().err
        assert list(reports.glob("*.json")) == []


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

    def test_zero_pair_check_agrees_with_enumeration(self, monkeypatch):
        # both branches: the closure samples and the last two instances are
        # counted without a walk; the first five are walked, three of them
        # to a counterexample
        walks = []
        monkeypatch.setattr(verifier, "product",
                            lambda *rows: walks.append(rows) or itertools.product(*rows))
        instances = [*sample_arf_closures(30, (6, 7), seed=11),
                     *map(from_generators, [(5, 16, 17, 18), (5, 23, 24, 26), (5, 8, 11, 14),
                                            (3, 7, 8), (4, 5, 6), (4, 10, 21, 23),
                                            (5, 19, 21, 22, 23)])]
        walked = []
        for sg in instances:
            before = len(walks)
            assert verifier._check_zero_pairs(sg, None) == _zero_pairs_by_enumeration(sg)
            walked.append(len(walks) > before)
        assert walked == [False] * 30 + [True] * 5 + [False] * 2

    @given(gen_sets(max_value=30, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_zero_pair_check_agrees_with_enumeration_random(self, gens):
        sg = from_generators(gens)
        if sg.frobenius < 1 or rf_matrix_count(sg, sg.frobenius) > 5000:
            return
        assert verifier._check_zero_pairs(sg, None) == _zero_pairs_by_enumeration(sg)


def _zero_pairs_by_enumeration(sg):
    """Lemma4.5's check as a plain walk over all of RF(F), with no count."""
    checked = 0
    for matrix in iter_rf_matrices(sg, sg.frobenius):
        checked += 1
        if column_zero_pair(matrix) is None:
            return checked, [{"matrix": matrix}]
    return checked, []


class TestNongenericWitnessRecheck:
    """Each verdict of Thm5.7's re-check, on forged reports for <4, 10, 21, 23>."""

    SG = from_generators([4, 10, 21, 23])

    def recheck(self, **fields):
        return verifier._recheck_nongeneric_witness(self.SG, GenericityReport(**fields))

    def test_real_verdict_checks_out(self):
        verdict = is_generic(self.SG)
        assert verdict.column_clash is not None
        assert verifier._recheck_nongeneric_witness(self.SG, verdict) is None

    def test_reported_generic(self):
        assert self.recheck(generic=True) == "reported generic"

    def test_nonunique(self):
        m1, m2 = rf_matrices(self.SG, 19)[:2]
        assert self.recheck(generic=False, nonunique=(19, m1, m2)) is None
        assert self.recheck(generic=False, nonunique=(19, m1, m1)) == "witness matrices coincide"
        rotated = m1[1:] + m1[:1]  # the -1 entries leave the diagonal
        assert (self.recheck(generic=False, nonunique=(19, m1, rotated))
                == "witness matrix fails RF validity")

    def test_column_clash(self):
        f, matrix, i, i2, j = is_generic(self.SG).column_clash
        rotated = matrix[1:] + matrix[:1]
        assert (self.recheck(generic=False, column_clash=(f, rotated, i, i2, j))
                == "witness matrix fails RF validity")
        # rows 1 and 2 differ in column 1: -1 against an entry of at least 0
        assert (self.recheck(generic=False, column_clash=(f, matrix, 0, 1, 0))
                == "witness column entries differ")


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
