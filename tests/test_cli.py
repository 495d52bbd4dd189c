import gc
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from arfrf import cli, families, rfmatrix, verifier
from arfrf.cli import build_parser, main, render_binomial, render_monomial
from arfrf.rfmatrix import determinant, rf_matrices, rf_row_choices
from arfrf.semigroup import MAX_MULTIPLICITY, from_generators

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


class TestRendering:
    def test_monomials(self):
        assert render_monomial((3, 0, 1, 0)) == "x1^3*x3"
        assert render_monomial((0, 1, 0, 1)) == "x2*x4"
        assert render_monomial((0, 0)) == "1"

    def test_binomial(self):
        assert render_binomial(((5, 0), (0, 2))) == "x1^5 - x2^2"


class TestAnalyze:
    def test_worked_example(self, capsys):
        code, doc, _ = run_json(capsys, "analyze", "5", "19", "21", "22", "23")
        assert code == 0
        payload = doc["payload"]
        assert payload["conductor"] == 19
        assert payload["pseudo_frobenius"] == [14, 16, 17, 18]
        assert payload["is_arf"] is True
        assert doc["schema_version"] == "1"

    def test_naturals(self, capsys):
        code, doc, _ = run_json(capsys, "analyze", "1")
        assert code == 0
        assert doc["payload"]["frobenius"] == -1

    def test_oracle_example(self, capsys):
        code, doc, _ = run_json(capsys, "analyze", "6", "9", "20")
        assert code == 0
        assert doc["payload"]["frobenius"] == 43

    def test_gcd_failure_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "analyze", "4", "6")
        assert code == 2
        assert "gcd 2" in err

    def test_text_and_json_payloads_agree(self, capsys):
        code, doc, _ = run_json(capsys, "analyze", "5", "19", "21", "22", "23")
        _, text, _ = run_cli(capsys, "analyze", "5", "19", "21", "22", "23")
        payload = doc["payload"]
        assert f"frobenius F           : {payload['frobenius']}" in text
        assert " ".join(map(str, payload["pseudo_frobenius"])) in text


class TestRF:
    def test_count_only(self, capsys):
        code, doc, _ = run_json(
            capsys, "rf", "5", "19", "21", "22", "23", "--pf", "18", "--count-only"
        )
        assert code == 0
        [block] = doc["payload"]["rf"]
        assert block == {"pf_element": 18, "count": 4}

    def test_dets_include_paper_value(self, capsys):
        code, doc, _ = run_json(
            capsys, "rf", "4", "10", "21", "23", "--pf", "19", "--dets"
        )
        assert code == 0
        [block] = doc["payload"]["rf"]
        assert -19 in block["determinants"]

    def test_single_matrix(self, capsys):
        code, doc, _ = run_json(capsys, "rf", "2", "5", "--dets")
        assert code == 0
        [block] = doc["payload"]["rf"]
        assert block["matrices"] == [[[-1, 1], [4, -1]]]
        assert block["determinants"] == [-3]

    def test_bad_pf_exit_3(self, capsys):
        code, out, err = run_cli(capsys, "rf", "2", "5", "--pf", "4")
        assert code == 3
        assert "[3]" in err

    def test_cap_exit_5(self, capsys):
        code, out, err = run_cli(
            capsys, "rf", "5", "19", "21", "22", "23", "--pf", "18", "--max-rf", "2"
        )
        assert code == 5
        assert "cap" in err

    def test_cap_boundary(self, capsys):
        # RF(18) of <5, 19, 21, 22, 23> holds 4 matrices: a cap of 3 refuses it, 4 lists it
        gens = ["5", "19", "21", "22", "23"]
        code, out, err = run_cli(capsys, "rf", *gens, "--pf", "18", "--max-rf", "3")
        assert code == 5
        assert "4 matrices" in err and "cap 3" in err
        code, doc, _ = run_json(capsys, "rf", *gens, "--pf", "18", "--max-rf", "4")
        assert code == 0
        [block] = doc["payload"]["rf"]
        assert block["count"] == 4 and len(block["matrices"]) == 4

    def test_zero_cap_is_legal(self, capsys):
        code, out, err = run_cli(capsys, "rf", "2", "5", "--max-rf", "0")
        assert code == 5
        assert "cap 0" in err

    def test_witness_cap_exit_5_before_witness_scans(self, capsys, monkeypatch):
        # RF(6) of <4, 10, 21, 23> holds one matrix, so the listing passes the
        # cap; RF(19) holds nine, so the witness scans must not start
        dets = []
        monkeypatch.setattr(rfmatrix, "determinant", lambda m: dets.append(m) or 0)
        code, out, err = run_cli(
            capsys, "rf", "4", "10", "21", "23", "--pf", "6", "--max-rf", "1", "--witness"
        )
        assert code == 5
        assert "9 matrices" in err and "cap 1" in err
        assert out == "" and dets == []

    def test_row_choices_built_once_per_pf_element(self, capsys, monkeypatch):
        calls = []

        def counted(sg, f):
            calls.append(f)
            return rf_row_choices(sg, f)

        monkeypatch.setattr(rfmatrix, "rf_row_choices", counted)
        code, _, _ = run_cli(
            capsys, "rf", "5", "19", "21", "22", "23", "--dets", "--max-rf", "100"
        )
        assert code == 0
        assert sorted(calls) == [14, 16, 17, 18]

    def test_witness_flag(self, capsys):
        code, doc, _ = run_json(capsys, "rf", "2", "5", "--witness")
        assert code == 0
        assert doc["payload"]["det_witness_value"] == -3
        assert doc["payload"]["sign_target"] == -3
        assert doc["payload"]["sign_witness_found"] is True

    def test_dets_follow_the_listed_matrices(self, capsys):
        # the determinants come from one walk of the product tree, in listing order
        gens = ["10", *map(str, range(31, 40))]
        code, doc, _ = run_json(capsys, "rf", *gens, "--pf", "29", "--dets")
        assert code == 0
        matrices = rf_matrices(from_generators(map(int, gens)), 29)
        [block] = doc["payload"]["rf"]
        assert len(matrices) == block["count"] == 2880
        assert block["determinants"] == [determinant(M) for M in matrices]


class TestGeneric:
    def test_generic_exit_0(self, capsys):
        code, doc, _ = run_json(capsys, "generic", "3", "7", "8")
        assert code == 0
        assert doc["payload"]["generic"] is True
        assert doc["payload"]["witness"] == "all criteria passed"

    def test_not_generic_exit_1(self, capsys):
        code, doc, _ = run_json(capsys, "generic", "4", "10", "21", "23")
        assert code == 1
        assert doc["payload"]["generic"] is False
        witness = doc["payload"]["witness"]
        assert witness["column"] >= 1 and len(witness["rows"]) == 2

    def test_generic_small(self, capsys):
        code, _, _ = run_json(capsys, "generic", "2", "3")
        assert code == 0


class TestRelations:
    def test_worked_example(self, capsys):
        code, doc, _ = run_json(capsys, "relations", "4", "10", "21", "23")
        assert code == 0
        payload = doc["payload"]
        assert payload["determinant"] == -19
        assert payload["index"] == 1
        binomials = {rel["binomial"] for rel in payload["relations"]}
        assert binomials == {
            "x1^3*x3 - x2*x4",
            "x1^11 - x3*x4",
            "x1^9*x2 - x4^2",
            "x1^8*x2 - x3^2",
            "x1^6*x2^2 - x3*x4",
            "x1^2*x4 - x2*x3",
        }
        diffs = {(rel["i"], rel["j"]): rel["vector"] for rel in payload["row_differences"]}
        assert diffs[(1, 2)] == [-3, 1, -1, 1]

    def test_two_generators(self, capsys):
        code, doc, _ = run_json(capsys, "relations", "2", "5")
        assert code == 0
        [rel] = doc["payload"]["relations"]
        assert rel["binomial"] == "x1^5 - x2^2"

    def test_index_one_for_small_multiplicity(self, capsys):
        code, doc, _ = run_json(capsys, "relations", "3", "7", "8")
        assert code == 0
        assert doc["payload"]["index"] == 1

    def test_naturals_exit_3(self, capsys):
        code, _, err = run_cli(capsys, "relations", "1")
        assert code == 3

    def test_cap_exit_5_before_witness_scan(self, capsys):
        gens = [str(n) for n in (10, *range(31, 40))]  # 2,880 RF(F) matrices
        code, out, err = run_cli(capsys, "relations", *gens, "--max-rf", "1")
        assert code == 5
        assert "2880" in err and "cap 1" in err
        assert out == ""

    def test_cap_message_singular_for_one_matrix(self, capsys):
        # RF(F) of <3, 4, 5> holds one matrix
        code, out, err = run_cli(capsys, "relations", "3", "4", "5", "--max-rf", "0")
        assert code == 5 and out == ""
        assert err == "error: enumeration would produce 1 matrix, above the cap 0\n"


@pytest.mark.parametrize("command, built", [
    # the cap, the witness scan and the fallback all read RF(55)
    ("relations 9 25 31 33 39 --max-rf 100", [55]),
    # the listing and both witness scans share RF(18)
    ("rf 5 19 21 22 23 --witness --max-rf 100", [14, 16, 17, 18]),
    ("rf 2 5 --witness", [3]),
    # S = N: F(S) < 1 and PF(S) is empty, so nothing is built
    ("rf 1 2 --witness", []),
    ("generic 1", []),
])
def test_row_choices_built_once_per_command(capsys, monkeypatch, command, built):
    calls = []

    def counted(sg, f):
        calls.append(f)
        return rf_row_choices(sg, f)

    monkeypatch.setattr(rfmatrix, "rf_row_choices", counted)
    code, _, _ = run_cli(capsys, *command.split())
    assert code == 0
    assert sorted(calls) == built


class TestNegativeCap:
    @pytest.mark.parametrize("command", ["rf", "relations"])
    def test_usage_error_exit_2(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "4", "10", "21", "23", "--max-rf", "-1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "--max-rf" in captured.err and "at least 0" in captured.err
        assert captured.out == ""


class TestClosure:
    def test_example(self, capsys):
        code, doc, _ = run_json(capsys, "closure", "4", "6", "9")
        assert code == 0
        payload = doc["payload"]
        assert payload["was_arf"] is False
        assert payload["closure"]["generators"] == [4, 6, 9, 11]
        assert payload["added_elements"] == [11]

    def test_fixpoint(self, capsys):
        code, doc, _ = run_json(capsys, "closure", "3", "5", "7")
        assert code == 0
        assert doc["payload"]["was_arf"] is True
        assert doc["payload"]["added_elements"] == []

    def test_naturals(self, capsys):
        code, doc, _ = run_json(capsys, "closure", "1")
        assert code == 0
        assert doc["payload"]["was_arf"] is True


class TestEdgeCases:
    def test_rf_on_naturals_has_no_blocks(self, capsys):
        code, doc, _ = run_json(capsys, "rf", "1")
        assert code == 0
        assert doc["payload"]["rf"] == []

    def test_generic_naturals_vacuous(self, capsys):
        code, doc, _ = run_json(capsys, "generic", "1")
        assert code == 0
        assert doc["payload"]["generic"] is True

    @pytest.mark.parametrize("command", ["analyze", "rf", "generic", "relations", "closure"])
    def test_multiplicity_above_the_cap_exit_2(self, capsys, command):
        # one above MAX_MULTIPLICITY: refused before the Apéry table is allocated
        huge = MAX_MULTIPLICITY + 1
        code, out, err = run_cli(capsys, command, str(huge), str(huge + 1))
        assert code == 2
        assert out == ""
        assert err == f"error: multiplicity {huge} is too large for an Apéry table\n"

    @pytest.mark.parametrize("command", ["analyze", "rf", "generic", "relations", "closure"])
    def test_multiplicity_beyond_a_list_exit_2(self, capsys, command):
        # above sys.maxsize: refused before the Apéry table is allocated
        huge = sys.maxsize + 2
        code, out, err = run_cli(capsys, command, str(huge), str(huge + 1))
        assert code == 2
        assert out == ""
        assert err == f"error: multiplicity {huge} is too large for an Apéry table\n"

    def test_grid_cap_exit_4(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "verify", "--claim", "Prop3.1", "--s-max", "5000",
            "--report-dir", str(tmp_path),
        )
        assert code == 4
        assert "cap" in err

    def test_bad_families_in_config_exit_4(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("families = everything\n")
        code, _, err = run_cli(
            capsys, "verify", "--claim", "Conj5.3", "--config", str(cfg),
            "--report-dir", str(tmp_path),
        )
        assert code == 4

    def test_families_flag_is_a_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--claim", "Conj5.3", "--families", "med",
                  "--report-dir", str(tmp_path)])
        assert exc.value.code == 2

    def test_repeated_claims_run_in_order(self, capsys, tmp_path):
        code, doc, _ = run_json(
            capsys, "verify", "--claim", "Prop3.2", "--claim", "Prop3.1",
            "--s-max", "30", "--report-dir", str(tmp_path),
        )
        assert code == 0
        ids = [c["claim_id"] for c in doc["payload"]["summary"]["claims"]]
        assert ids == ["Prop3.2", "Prop3.1"]

    def test_a_repeated_claim_runs_once(self, capsys, tmp_path):
        # one report file per claim id: a repeat would run twice and be listed twice
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("claims = Cor4.3, Cor4.3\nmed_m_max = 6\n")
        for args in (["--claim", "Cor4.3", "--claim", "Cor4.3", "--m-max", "6"],
                     ["--config", str(cfg)]):
            report_dir = tmp_path / args[0].strip("-")
            code, doc, _ = run_json(capsys, "verify", *args, "--report-dir", str(report_dir))
            assert code == 0
            summary = json.loads((report_dir / "summary.json").read_text())
            assert summary == doc["payload"]["summary"]
            assert [c["claim_id"] for c in summary["claims"]] == ["Cor4.3"]
            assert sorted(p.name for p in report_dir.iterdir()) == ["Cor4.3.json", "summary.json"]


class TestVerifyCommand:
    def test_single_claim(self, capsys, tmp_path):
        code, doc, _ = run_json(
            capsys, "verify", "--claim", "Prop3.1", "--s-max", "50",
            "--report-dir", str(tmp_path),
        )
        assert code == 0
        summary = doc["payload"]["summary"]
        assert summary["claims"] == [
            {"claim_id": "Prop3.1", "status": "pass", "checked": 25}
        ]
        assert (tmp_path / "Prop3.1.json").exists()
        assert (tmp_path / "summary.json").exists()
        report = json.loads((tmp_path / "Prop3.1.json").read_text())
        assert report["status"] == "pass"

    def test_expected_mismatch_still_ok(self, capsys, tmp_path):
        code, doc, _ = run_json(
            capsys, "verify", "--claim", "Prop3.6", "--s-max", "30",
            "--report-dir", str(tmp_path),
        )
        assert code == 0
        [claim] = doc["payload"]["summary"]["claims"]
        assert claim["status"] == "mismatch-with-details"

    def test_unknown_claim_exit_4(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "verify", "--claim", "Nope", "--report-dir", str(tmp_path)
        )
        assert code == 4

    def test_unknown_suite_exit_4(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "verify", "--suite", "huge", "--report-dir", str(tmp_path)
        )
        assert code == 4

    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("s_max = 40\nclaims = Prop3.2, Prop3.3\n")
        code, doc, _ = run_json(
            capsys, "verify", "--config", str(cfg), "--report-dir", str(tmp_path / "r")
        )
        assert code == 0
        ids = [c["claim_id"] for c in doc["payload"]["summary"]["claims"]]
        assert ids == ["Prop3.2", "Prop3.3"]

    def test_bad_config_exit_4(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("wat = 1\n")
        code, _, err = run_cli(
            capsys, "verify", "--config", str(cfg), "--report-dir", str(tmp_path)
        )
        assert code == 4

    @pytest.mark.parametrize(
        "args, config, expected",
        [
            (["--claim", "Prop3.1", "--claim", "Cor3.13", "--s-max", "-5"], None, 4),
            (["--claim", "Lemma4.1"], "med_s_factor = 0", 4),
            (["--claim", "Lemma4.1"], "med_m_min = 1", 4),
            (["--claim", "Remark4.4", "--samples", "0", "--m-max", "5"], None, 1),
            ([], "claims = OracleAgreement\noracle_samples = 0", 1),
            (["--claim", "Remark4.4", "--samples", "-1", "--m-max", "6"], None, 4),
            ([], "claims = OracleAgreement\noracle_samples = -2", 4),
            ([], "claims =", 4),
            ([], "claims = ,", 4),
            (["--claim", "Prop3.1"], "grid_cap = 5000", 4),
            (["--claim", "Prop3.1"], "families = all", 4),
            (["--claim", "Lemma4.1"], "med_s_factor = 1001", 4),
        ],
    )
    def test_empty_or_invalid_grid_never_passes(
        self, capsys, tmp_path, args, config, expected
    ):
        if config is not None:
            cfg = tmp_path / "sweep.cfg"
            cfg.write_text(config + "\n")
            args = [*args, "--config", str(cfg)]
        code, out, err = run_cli(
            capsys, "verify", *args, "--report-dir", str(tmp_path / "r")
        )
        assert code == expected
        if expected == 4:  # one error line, and no report written
            assert err.startswith("error: ") and err.count("\n") == 1
            assert not (tmp_path / "r").exists()
        if expected == 1:
            [report] = [p for p in (tmp_path / "r").iterdir() if p.name != "summary.json"]
            doc = json.loads(report.read_text())
            assert (doc["status"], doc["checked"], doc["notes"]) == (
                "fail", 0, ["checked nothing"]
            )

    def test_missing_fixtures_file_exit_4(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(f"fixtures = {tmp_path / 'missing.json'}\n")
        code, out, err = run_cli(
            capsys, "verify", "--claim", "Prop3.1", "--s-max", "30", "--config", str(cfg),
            "--report-dir", str(tmp_path / "r"),
        )
        assert code == 4
        assert err.startswith("error: ") and "missing.json" in err
        assert out == ""

    def test_report_dir_that_is_a_file_exit_4(self, capsys, tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("")
        code, out, err = run_cli(
            capsys, "verify", "--claim", "Prop3.1", "--s-max", "30", "--report-dir", str(taken)
        )
        assert code == 4
        assert err.startswith("error: ") and "taken" in err
        assert out == ""

    @pytest.mark.parametrize("blocked", ["Cor4.3.json", "summary.json"])
    def test_blocked_report_path_exit_4(self, capsys, tmp_path, blocked):
        (tmp_path / blocked).mkdir()
        code, out, err = run_cli(
            capsys, "verify", "--claim", "Cor4.3", "--m-max", "6", "--report-dir", str(tmp_path)
        )
        assert code == 4
        assert err.startswith("error: ") and blocked in err and err.count("\n") == 1
        assert out == ""

    @pytest.mark.parametrize("case", ["unknown claim", "missing fixtures", "blocked summary"])
    def test_refused_run_writes_nothing_and_builds_nothing(
        self, capsys, tmp_path, monkeypatch, case
    ):
        def no_build(spec):
            raise AssertionError("built an instance before the run was checked")

        monkeypatch.setattr(families, "build_family", no_build)
        monkeypatch.chdir(tmp_path)
        args = {
            "unknown claim": ["--claim", "Nope"],
            "missing fixtures": ["--claim", "Cor4.3", "--config", "sweep.cfg"],
            "blocked summary": ["--claim", "Cor4.3", "--m-max", "6", "--report-dir", "D"],
        }[case]
        (tmp_path / "sweep.cfg").write_text(f"fixtures = {tmp_path / 'missing.json'}\n")
        (tmp_path / "D" / "summary.json").mkdir(parents=True)
        code, out, err = run_cli(capsys, "verify", *args)
        assert code == 4
        assert err.startswith("error: ") and err.count("\n") == 1
        assert out == ""
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["D", "summary.json", "sweep.cfg"]

    def test_claims_default_runs_the_default_suite(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        # empty grids keep it fast: every claim checks nothing, so the run fails
        cfg.write_text("claims = default\ns_max = 1\nmed_m_max = 5\n"
                       "closure_samples = 0\noracle_samples = 0\n")
        code, doc, _ = run_json(
            capsys, "verify", "--config", str(cfg), "--report-dir", str(tmp_path / "r")
        )
        assert code == 1
        ids = [c["claim_id"] for c in doc["payload"]["summary"]["claims"]]
        assert ids == list(verifier.DEFAULT_SUITE)

    def test_each_value_option_is_named_by_its_config_key(self):
        subcommands = build_parser()._subparsers._group_actions[0].choices
        dests = [a.dest for a in subcommands["verify"]._actions if a.type is int]
        assert dests and set(dests) <= verifier._CONFIG_INT_KEYS

    def test_stray_config_key_is_a_program_error(self, tmp_path, monkeypatch):
        # a key that reaches VerifyConfig unparsed is a bug, not a bad config: no exit 4
        monkeypatch.setitem(verifier.SUITES, "stray", {"claims_typo": 1})
        with pytest.raises(TypeError):
            main(["verify", "--suite", "stray", "--report-dir", str(tmp_path)])

    def test_reports_byte_identical(self, capsys, tmp_path):
        for sub in ("a", "b"):
            run_cli(
                capsys, "verify", "--claim", "Prop3.2", "--s-max", "30",
                "--report-dir", str(tmp_path / sub),
            )
        assert (tmp_path / "a" / "Prop3.2.json").read_bytes() == (
            tmp_path / "b" / "Prop3.2.json"
        ).read_bytes()

    def test_written_reports_are_the_returned_ones(self, capsys, tmp_path):
        # as text and as documents: an RF matrix is a list of row lists in both
        code, _, _ = run_cli(capsys, "verify", "--suite", "quick", "--report-dir", str(tmp_path))
        assert code == 0
        reports = verifier.verify_all(verifier.VerifyConfig(**verifier.SUITES["quick"]))
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            [f"{r['claim_id']}.json" for r in reports] + ["summary.json"])
        for report in reports:
            written = (tmp_path / f"{report['claim_id']}.json").read_text()
            assert written == json.dumps(report, sort_keys=True, indent=2) + "\n"
            assert json.loads(written) == report


def test_second_call_leaves_no_parser_garbage(capsys):
    main(["analyze", "5", "7"])
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        main(["analyze", "5", "7"])
        gc.collect()
        leaked = [type(o).__name__ for o in gc.garbage if type(o).__module__ == "argparse"]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert leaked == []


def test_wrapper_set_after_the_first_call_runs(capsys, monkeypatch, tmp_path):
    # a tracer patches cmd_verify between passes of in-process calls
    argv = ["verify", "--claim", "Prop3.1", "--s-max", "10", "--report-dir"]
    assert main([*argv, str(tmp_path / "a")]) == 0
    seen = []
    unwrapped = cli.cmd_verify
    monkeypatch.setattr(cli, "cmd_verify",
                        lambda args: seen.append(args.report_dir) or unwrapped(args))
    assert main([*argv, str(tmp_path / "b")]) == 0
    assert seen == [str(tmp_path / "b")]


def test_commands_return_their_document_and_write_nothing(capsys, tmp_path):
    # main alone writes: each cmd_* returns (exit code, payload, text lines)
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    examples = [line.split("#")[0].split()[1:] for line in section.split("\n## ", 1)[0].splitlines()
                if line.startswith("arfrf ") and "<" not in line]
    last = {argv[0]: argv for argv in examples}  # one per command; the last verify is quick
    assert sorted(last) == sorted(name[4:] for name in vars(cli) if name.startswith("cmd_"))
    for command, argv in last.items():
        if command == "verify":
            argv = [*argv, "--report-dir", str(tmp_path)]
        result = getattr(cli, f"cmd_{command}")(build_parser().parse_args(argv))
        assert isinstance(result, tuple) and len(result) == 3
        code, payload, lines = result
        assert code in (0, 1)  # the README's `generic` example is not generic
        assert isinstance(payload, dict) and all(isinstance(line, str) for line in lines)
        assert capsys.readouterr().out == ""


def test_module_entrypoint_subprocess(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "arfrf", "analyze", "2", "5", "--format", "json"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["payload"]["frobenius"] == 3
    assert proc.stderr == ""


def test_import_loads_neither_dataclasses_nor_inspect():
    # every arfrf command is a fresh interpreter, and dataclasses brings inspect,
    # ast, dis and tokenize with it; count only what importing arfrf.cli adds
    code = ("import sys; before = set(sys.modules); import arfrf.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def _run_child_measured(argv, timeout=30.0, address_space=1 << 30):
    """Run the CLI in a child process capped at ``address_space`` bytes.

    Returns (exit code, wall seconds, peak RSS in MB) of that child alone:
    ``os.wait4`` reports the reaped child's own usage, where RUSAGE_CHILDREN
    would also count every earlier child of the test process. The child is
    killed after ``timeout`` seconds.
    """

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "arfrf", *argv],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        env=dict(os.environ, PYTHONPATH=SRC),
        preexec_fn=limit_memory,
    )
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.perf_counter() - start > timeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.02)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024


@pytest.mark.parametrize(
    "gens",
    [
        ("101", "1000003"),
        ("3", "1000000"),
        ("2", "1000001"),
        ("2", "1000000001"),
        ("10001", "20001"),  # 20001 = -1 mod 10001
    ],
)
def test_analyze_cost_follows_multiplicity(gens):
    code, wall, rss_mb = _run_child_measured(["analyze", *gens, "--format", "json"])
    assert code == 0
    assert wall <= 10.0
    assert rss_mb <= 100.0


@pytest.mark.parametrize("gens", [("13", "100003", "100011"), ("2", "4000001")])
def test_closure_cost_follows_multiplicity(gens):
    code, wall, rss_mb = _run_child_measured(["closure", *gens, "--format", "json"])
    assert code == 0
    assert wall <= 10.0
    assert rss_mb <= 100.0


def test_closure_cost_follows_its_output():
    # <2, 40000001> is already Arf, so nothing is added below its conductor of 40,000,000
    code, wall, _ = _run_child_measured(["closure", "2", "40000001", "--format", "json"])
    assert code == 0
    assert wall <= 1.0


def test_lemma45_cost_cliff_is_gone(tmp_path):
    # seed 3 draws closure samples with 35,180,044 RF(F) matrices in all;
    # every one has a zero pair by a count of the zeros each row must hold
    code, wall, _ = _run_child_measured(
        ["verify", "--claim", "Lemma4.5", "--seed", "3", "--report-dir", str(tmp_path)],
        timeout=20.0,
    )
    assert code == 0
    assert wall <= 20.0
    report = json.loads((tmp_path / "Lemma4.5.json").read_text())
    assert (report["status"], report["checked"]) == ("pass", 35_180_044)


def test_closed_stdout_exits_141_without_traceback(tmp_path):
    # the text listing of RF(F) for the med10 shape is about 1.6 MB, far more
    # than a pipe holds, so the child is still writing when the reader leaves
    with open(tmp_path / "stderr", "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "arfrf", "rf", "10", *map(str, range(31, 40))],
            stdout=subprocess.PIPE,
            stderr=err,
            env=dict(os.environ, PYTHONPATH=SRC),
        )
        assert proc.stdout.readline().startswith(b"S = <10, 31, ")
        proc.stdout.close()
        assert proc.wait(timeout=30) == 141
    assert (tmp_path / "stderr").read_bytes() == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", ["generic 3 4 5", "verify --claim Cor4.3"])
def test_failed_stdout_write_exits_74_without_traceback(tmp_path, command, fmt):
    # /dev/full refuses every write with ENOSPC; stdout stays block-buffered, as by
    # default, so the error comes from the flush in main, not from the one at exit
    argv = [*command.split(), "--format", fmt]
    if command.startswith("verify"):
        argv += ["--report-dir", str(tmp_path / "r")]
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    with open("/dev/full", "wb") as full:
        proc = subprocess.run([sys.executable, "-m", "arfrf", *argv], stdout=full,
                              stderr=subprocess.PIPE, env=dict(env, PYTHONPATH=SRC), timeout=60)
    assert proc.returncode == 74
    assert proc.stderr.startswith(b"error: ") and proc.stderr.count(b"\n") == 1
    if command.startswith("verify"):
        assert sorted(p.name for p in (tmp_path / "r").iterdir()) == ["Cor4.3.json", "summary.json"]
        golden = ROOT / "tests" / "data" / "golden_default" / "Cor4.3.json"
        assert (tmp_path / "r" / "Cor4.3.json").read_bytes() == golden.read_bytes()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("command", ["--help", "rf --help"])
def test_help_goes_through_the_write_path(capsys, monkeypatch, command, unbuffered):
    # argparse prints the help and exits 0; main keeps the text and writes it, so a
    # failed write is main's to report, block-buffered or not
    monkeypatch.setenv("COLUMNS", "80")  # the same help width here and in the child
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env = dict(env, PYTHONPATH=SRC, **({"PYTHONUNBUFFERED": "1"} if unbuffered else {}))

    def run(stdout):
        return subprocess.run([sys.executable, "-m", "arfrf", *command.split()], stdout=stdout,
                              stderr=subprocess.PIPE, env=env, timeout=60)

    with open("/dev/full", "wb") as full:
        proc = run(full)
    assert proc.returncode == 74
    assert proc.stderr.startswith(b"error: ") and proc.stderr.count(b"\n") == 1
    read, write = os.pipe()
    os.close(read)  # the reader is gone before the help is written
    try:
        proc = run(write)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, b"")
    proc = run(subprocess.PIPE)
    with pytest.raises(SystemExit) as stop:
        build_parser().parse_args(command.split())
    assert stop.value.code == 0
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == capsys.readouterr().out.encode()
