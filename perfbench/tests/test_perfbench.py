"""Tests of the benchmark itself: tracer counts, tracer coverage, output gate, speed probe.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import copy
import io
import json
import shutil
import signal
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import arfrf.cli
import pytest

from perfbench import gate, run
from perfbench.speed import PROBE_REF_S, SpeedSampler, at_reference_speed
from perfbench.tracer import Tracer, load_spans, summarize

SMALL_LATTICE_CFG = "claims = Thm5.2-equiv\ns_max = 24\nmed_m_max = 7\nmed_s_factor = 1\n"
SMALL_SUITE_CFG = (
    "claims = Props3.1-3.12, Cor3.13, Lemma4.5, Thm5.2-equiv, Thm5.7, OracleAgreement\n"
    "s_max = 24\nmed_m_max = 7\nmed_s_factor = 1\nclosure_samples = 3\noracle_samples = 20\n"
)


def traced_verify(tmp_path: Path, cfg_text: str, skip=frozenset()) -> dict:
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(cfg_text)
    tracer = Tracer()
    tracer.install(skip)
    try:
        with redirect_stdout(io.StringIO()):
            code = arfrf.cli.main(["verify", "--config", str(cfg), "--report-dir", str(tmp_path / "r")])
    finally:
        tracer.uninstall()
    assert code == 0
    return summarize([tracer])


def test_traced_counts_repeat_exactly(tmp_path):
    first = traced_verify(tmp_path, SMALL_SUITE_CFG)
    second = traced_verify(tmp_path, SMALL_SUITE_CFG)
    calls = lambda s: {name: v["calls"] for name, v in s["spans"].items()}  # noqa: E731
    assert first["counts"] == second["counts"]
    assert calls(first) == calls(second)
    assert first["counts"]["rfmatrix.matrices_out"] > 0
    assert calls(first)["lattice.lattice_index"] > 0


def test_uninstall_restores_every_binding():
    import arfrf.lattice
    import arfrf.verifier

    before = (arfrf.verifier.lattice_index, arfrf.lattice.lattice_index, arfrf.NumericalSemigroup.is_arf)
    with Tracer():
        assert arfrf.verifier.lattice_index is not before[0]
    assert (arfrf.verifier.lattice_index, arfrf.lattice.lattice_index, arfrf.NumericalSemigroup.is_arf) == before


def test_coverage_check_catches_an_unwrapped_binding(tmp_path):
    cfg = tmp_path / "lattice.cfg"
    cfg.write_text(SMALL_LATTICE_CFG)
    expected = run.expected_index_calls(cfg)
    assert expected > 0
    full = traced_verify(tmp_path, SMALL_LATTICE_CFG)
    assert full["spans"]["lattice.lattice_index"]["calls"] == expected
    missed = traced_verify(tmp_path, SMALL_LATTICE_CFG, skip={("arfrf.verifier", "lattice_index")})
    assert missed["spans"].get("lattice.lattice_index", {}).get("calls", 0) != expected


def test_spans_round_trip_through_a_file(tmp_path):
    tracer = Tracer()
    with tracer:
        arfrf.cli.main(["relations", "4", "10", "21", "23", "--format", "json"])
    tracer.save(tmp_path / "spans.bin")
    assert summarize([load_spans(tmp_path / "spans.bin")]) == summarize([tracer])


def test_self_time_excludes_children():
    tracer = Tracer()
    outer, inner = tracer._id("outer"), tracer._id("inner")
    for nid, parent, start, end in ((outer, -1, 0.0, 10.0), (inner, 0, 1.0, 4.0), (inner, 0, 5.0, 6.0)):
        tracer.name_id.append(nid)
        tracer.parent.append(parent)
        tracer.start.append(start)
        tracer.end.append(end)
    spans = summarize([tracer])["spans"]
    assert spans["outer"] == {"calls": 1, "total_s": 10.0, "self_s": 6.0}
    assert spans["inner"] == {"calls": 2, "total_s": 4.0, "self_s": 4.0}


def test_gate_fails_claims_against_a_corrupted_reference():
    reference = gate.load_reference("sweep-enum")
    observed = copy.deepcopy(reference["reports"])
    assert gate.check_reports(observed, reference, reference["seed"], print) == 0
    corrupted = copy.deepcopy(reference)
    corrupted["reports"]["Cor3.13"]["checked"] += 1
    corrupted["reports"]["Props3.1-3.12"]["status"] = "pass"
    failed = gate.check_reports(observed, corrupted, corrupted["seed"], print)
    assert failed / len(observed) > 0
    # at another seed only the seed-dependent claim relaxes to a status check
    observed["OracleAgreement"]["grid"]["seed"] = 7
    assert gate.check_reports(observed, reference, 7, print) == 0
    observed["OracleAgreement"]["status"] = "fail"
    assert gate.check_reports(observed, reference, 7, print) == 1


def test_gate_fails_cli_output_against_a_corrupted_reference(tmp_path):
    reference = gate.load_reference("cli")
    _, code, stdout, _ = run.run_command(run.CLI_SMALL["generic-4-10-21-23"].split(), tmp_path / "out.txt")
    assert code == 1  # not generic, by design
    assert gate.cli_problem("generic-4-10-21-23", code, stdout, reference) is None
    corrupted = copy.deepcopy(reference)
    corrupted["commands"]["generic-4-10-21-23"]["stdout"]["payload"]["generic"] = True
    assert gate.cli_problem("generic-4-10-21-23", code, stdout, corrupted) is not None
    corrupted["commands"]["generic-4-10-21-23"]["exit"] = 0
    assert gate.cli_problem("generic-4-10-21-23", code, stdout, corrupted) is not None


def test_time_at_reference_speed_leaves_the_probes_out():
    # two probes at half the reference speed inside one wall second
    assert at_reference_speed(1.0, [2 * PROBE_REF_S] * 2) == pytest.approx((1.0 - 4 * PROBE_REF_S) / 2)
    assert at_reference_speed(1.0, []) == 1.0


def test_speed_sampler_probes_all_through_a_block():
    with SpeedSampler() as speed:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert len(speed.took) >= 2 + 4  # as it starts and ends, and every 50 ms on the timer
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


def test_speed_child_keeps_the_command_output(tmp_path):
    args = run.CLI_SMALL["generic-4-10-21-23"].split()
    plain = run.run_command(args, tmp_path / "plain.txt")
    sampled = run.run_command(args, tmp_path / "sampled.txt", ("speed", tmp_path / "speed.json"))
    assert sampled[1:3] == plain[1:3]
    took = json.loads((tmp_path / "speed.json").read_text())
    assert len(took) >= 2 and all(t > 0 for t in took)


def test_setup_probe_times_an_import_at_the_reference_speed():
    assert 0 < run.setup_probe() < 5


def test_every_listed_metric_has_a_value():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer"]]
    values = run.layer_values(summarize([Tracer()]), {"trace.overhead_s": 0.0}, names)
    assert list(values) == names
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "norm_wall_s", "peak_rss_mb"}


@pytest.mark.parametrize("workload", ["sweep-enum", "cli-mix"])
def test_refuses_to_run_without_the_sources(tmp_path, workload):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
