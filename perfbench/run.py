"""The arfrf benchmark: one workload per process, one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep-enum --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/README.md for why each exists):

  sweep-enum     ``arfrf verify`` in-process on the default suite minus
                 Thm5.2-equiv, default grid
  sweep-lattice  ``arfrf verify`` in-process on Thm5.2-equiv, med tail s = m
  cli-mix        ``arfrf`` child processes: six README examples, repeated,
                 plus six large-generator commands, one at a time

The load is a closed loop with one client. A run repeats whole passes of its
workload until the next pass would overshoot ``--seconds`` by more than half
a pass, and reports the median pass. Times are given at a reference speed of
the host: a speed probe runs all through the timed work, in the process that
does it, and the work's time is scaled by the probe's mean speed (see
perfbench/speed.py). ``--seed`` is the verify seed of
OracleAgreement (its random generator sets) and orders the CLI commands; the
grids, the Arf-closure samples and the command list are fixed.

With ``--trace 0`` the result carries the end-to-end metrics of
BENCHMARK.json. With ``--trace 1`` it makes an untraced, a traced and another
untraced pass, and carries the per-layer metrics. Every output is checked against the
references in perfbench/reference, pinned before any change to the program.
The last line of stdout is the result; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCH = ROOT / "perfbench"
OUT = ROOT / ".perfbench_out"
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import gate  # noqa: E402
from perfbench.speed import PROBE_REF_S, SpeedSampler, at_reference_speed  # noqa: E402
from perfbench.tracer import Tracer, load_spans, summarize  # noqa: E402

WORKLOAD_DIR = BENCH / "workloads"
# each pass runs these `arfrf verify` command lines in order; {seed} is --seed
SWEEPS = {
    "sweep-enum": [
        ["verify", "--config", str(WORKLOAD_DIR / "sweep-enum.cfg")],
        ["verify", "--config", str(WORKLOAD_DIR / "sweep-enum-oracle.cfg"), "--seed", "{seed}"],
    ],
    "sweep-lattice": [
        ["verify", "--config", str(WORKLOAD_DIR / "sweep-lattice.cfg"), "--seed", "{seed}"],
    ],
}
# the six README examples
CLI_SMALL = {
    "analyze-5-19-21-22-23": "analyze 5 19 21 22 23",
    "rf-5-19-21-22-23-pf18-dets": "rf 5 19 21 22 23 --pf 18 --dets",
    "rf-2-5-witness": "rf 2 5 --witness",
    "generic-4-10-21-23": "generic 4 10 21 23",
    "relations-4-10-21-23": "relations 4 10 21 23",
    "closure-4-6-9": "closure 4 6 9",
}
# large generators; the ROADMAP cases analyze 101 1000003 and
# analyze 3 1000000 are scaled down tenfold to fit the run length and memory
CLI_LARGE = {
    "analyze-101-100003": "analyze 101 100003",
    "analyze-13-100003-100011": "analyze 13 100003 100011",
    "closure-3-3001": "closure 3 3001",
    "generic-101-10003": "generic 101 10003",
    "relations-med10": "relations 10 31 32 33 34 35 36 37 38 39",
    "rf-med10-count-only": "rf 10 31 32 33 34 35 36 37 38 39 --count-only",
}
SMALL_ROUNDS = 5  # small-class repetitions per cli-mix pass
SETUP_PROBES_FIRST = 5
SETUP_PROBES_BETWEEN = 3
CLI_TIMEOUT_S = 60.0
# times the import, and rates the child's speed with the probe around it
SETUP_PROBE = (
    "import time; from perfbench.speed import probe_seconds\n"
    "rates = probe_seconds(5)\n"
    "t = time.perf_counter(); import arfrf.cli; t = time.perf_counter() - t\n"
    "rates += probe_seconds(5)\n"
    "print(t, sum(rates) / len(rates))"
)


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def setup_probe() -> float:
    """Seconds a fresh interpreter takes to import arfrf.cli, at the
    reference speed of the speed probe, which the child runs five times
    before the import and five times after it.

    The workload inputs are command lines and a config file, so building them
    costs nothing next to the import.
    """
    done = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE],
        capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=CLI_TIMEOUT_S, check=True,
    )
    seconds, probe = map(float, done.stdout.strip().splitlines()[-1].split())
    return seconds * PROBE_REF_S / probe


def timed_passes(one_pass, seconds: float) -> tuple[list[float], list[float], list[float]]:
    """Run whole passes until another would overshoot ``seconds`` by over half
    a pass. ``one_pass`` returns the seconds of its timed work and the same
    at the reference speed. Set-up probes run before the first pass and
    after each one, so their median spans the run like the passes do.
    Returns (pass seconds and set-up seconds, both at the reference speed,
    and pass seconds)."""
    times: list[float] = []
    raw: list[float] = []
    setups = [setup_probe() for _ in range(SETUP_PROBES_FIRST)]
    start = time.perf_counter()
    while True:
        work, reference = one_pass()
        raw.append(work)
        times.append(reference)
        setups += [setup_probe() for _ in range(SETUP_PROBES_BETWEEN)]
        if time.perf_counter() - start + statistics.mean(raw) / 2 >= seconds:
            return times, setups, raw


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ---------------------------------------------------------------------------
# sweep workloads


class SweepWorkload:
    def __init__(self, name: str, seed: int) -> None:
        self.seed = seed
        self.reference = gate.load_reference(name)
        self.report_dir = OUT / name / "reports"
        self.argvs = [
            [arg.format(seed=seed) for arg in argv] + ["--report-dir", str(self.report_dir), "--format", "json"]
            for argv in SWEEPS[name]
        ]
        self.attempted = 0
        self.failed = 0

    def one_pass(self, sampled: bool = False) -> tuple[float, float]:
        """The workload's ``arfrf verify`` runs, each to its verdict with its
        reports serialized, under the speed sampler if ``sampled``; returns
        their seconds, the probes' left out, and the same at the reference
        speed."""
        import arfrf.cli
        shutil.rmtree(self.report_dir, ignore_errors=True)
        claims = len(self.reference["reports"])
        codes = []
        speed = SpeedSampler() if sampled else contextlib.nullcontext()
        t0 = time.perf_counter()
        with speed:
            for argv in self.argvs:
                try:
                    with redirect_stdout(io.StringIO()):
                        codes.append(arfrf.cli.main(argv))
                except Exception as exc:  # a crash fails the pass; the run still reports
                    codes.append(f"exception {exc!r}")
        elapsed = time.perf_counter() - t0
        took = speed.took if sampled else []
        self.attempted += claims
        if any(code != 0 for code in codes):
            log(f"gate: arfrf verify ended with {codes}")
            self.failed += claims
        else:
            self.failed += gate.check_reports(
                gate.read_reports(self.report_dir), self.reference, self.seed, log
            )
        return elapsed - sum(took), at_reference_speed(elapsed, took)


def expected_index_calls(config_path: Path) -> int:
    """RF(F) matrices over the Thm5.2 grid, counted without the tracer.

    Thm5.2-equiv takes one lattice index per RF matrix of F(S), so a traced
    pass that sees fewer lattice_index calls has missed a binding.
    """
    from arfrf import families, verifier
    from arfrf.rfmatrix import rf_matrix_count

    settings = verifier.parse_config_text(config_path.read_text())
    settings.pop("claims", None)
    config = verifier.VerifyConfig(**settings)
    specs = [spec for v in families.M_LE_5_VARIANTS for spec in families.family_instances(v, config.s_max)]
    for m in range(config.med_m_min, config.med_m_max + 1):
        specs += families.med_instances(m, [m * t for t in range(1, config.med_s_factor + 1)])
    total = 0
    for spec in specs:
        sg = families.build_family(spec)
        total += rf_matrix_count(sg, sg.frobenius)
    return total


def run_sweep(name: str, seed: int, seconds: float, layer_names: list[str] | None) -> dict:
    import arfrf.cli  # noqa: F401  (the set-up the probes measure)

    metrics: dict = {}
    workload = SweepWorkload(name, seed)
    correct = True
    if layer_names is None:
        times, setups, raw = timed_passes(lambda: workload.one_pass(sampled=True), seconds)
        metrics["setup_s"] = statistics.median(setups)
        metrics["norm_wall_s"] = statistics.median(times)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        log_passes(name, times, raw)
    else:
        expected = expected_index_calls(WORKLOAD_DIR / "sweep-lattice.cfg") if name == "sweep-lattice" else None
        before, _ = workload.one_pass()
        tracer = Tracer()
        with tracer:
            traced, _ = workload.one_pass()
        after, _ = workload.one_pass()
        tracer.save(OUT / name / "spans.bin")
        summary = summarize([tracer])
        metrics = layer_values(summary, {"trace.overhead_s": traced - (before + after) / 2}, layer_names)
        if expected is not None:
            seen = summary["spans"].get("lattice.lattice_index", {}).get("calls", 0)
            log(f"coverage: lattice_index calls {seen}, RF(F) matrices over the grid {expected}")
            if seen != expected:
                log("coverage check FAILED: the tracer missed lattice_index calls")
                correct = False
    return result(correct and workload.failed == 0, workload.attempted, workload.failed, metrics)


# ---------------------------------------------------------------------------
# cli-mix


def run_command(args: list[str], stdout_path: Path, child_mode: tuple[str, Path] | None = None):
    """One ``arfrf`` child, run as ``python -m arfrf`` or, given ``child_mode``
    (a mode and its output file), by child.py; returns (seconds, exit code,
    stdout text, peak RSS MB)."""
    if child_mode is None:
        cmd = [sys.executable, "-m", "arfrf", *args, "--format", "json"]
    else:
        mode, out_file = child_mode
        cmd = [sys.executable, str(BENCH / "child.py"), mode, str(out_file), *args, "--format", "json"]
    with open(stdout_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.DEVNULL, env=child_env(), cwd=ROOT)
        timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4 above
    return elapsed, proc.returncode, stdout_path.read_text(), usage.ru_maxrss / 1024


class CliWorkload:
    def __init__(self, seed: int) -> None:
        self.reference = gate.load_reference("cli")
        self.rng = random.Random(seed)
        self.dir = OUT / "cli-mix"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.attempted = 0
        self.failed = 0
        self.peak_rss_mb = 0.0

    def one_pass(self, spans_dir: Path | None = None, sampled: bool = False) -> list[tuple[str, float, float, float]]:
        """Every large command once and every small one SMALL_ROUNDS times, in a
        seeded order, traced if given ``spans_dir`` and under the speed sampler
        if ``sampled``; returns (label, seconds, seconds at the reference speed,
        peak RSS MB) per command, the probes' seconds left out."""
        ops = list(CLI_LARGE.items()) + list(CLI_SMALL.items()) * SMALL_ROUNDS
        self.rng.shuffle(ops)
        records = []
        speed_file = self.dir / "speed.json"
        for n, (label, command) in enumerate(ops):
            child_mode = None
            if spans_dir is not None:
                child_mode = ("spans", spans_dir / f"{n}.bin")
            elif sampled:
                speed_file.unlink(missing_ok=True)
                child_mode = ("speed", speed_file)
            elapsed, code, stdout, rss = run_command(command.split(), self.dir / "stdout.txt", child_mode)
            took = json.loads(speed_file.read_text()) if sampled and speed_file.exists() else []
            records.append((label, elapsed - sum(took), at_reference_speed(elapsed, took), rss))
            self.attempted += 1
            self.peak_rss_mb = max(self.peak_rss_mb, rss)
            problem = gate.cli_problem(label, code, stdout, self.reference)
            if problem is not None:
                self.failed += 1
                log(f"gate: {command}: {problem}")
        return records


def pass_seconds(records) -> tuple[float, float]:
    """Seconds of a cli-mix pass, and the same at the reference speed."""
    return sum(r[1] for r in records), sum(r[2] for r in records)


def log_passes(name: str, times: list[float], raw: list[float]) -> None:
    log(f"{name}: {len(times)} passes, seconds at the reference speed {[round(t, 3) for t in times]},"
        f" wall seconds {[round(t, 3) for t in raw]}")


def cli_figures(records) -> dict:
    """The cli-layer figures, from the records of untraced passes."""
    latency: dict[str, list[float]] = {}
    rss: dict[str, float] = {}
    for label, elapsed, _, peak in records:
        latency.setdefault(label, []).append(elapsed)
        rss[label] = max(rss.get(label, 0.0), peak)
    small = [t for label in CLI_SMALL for t in latency[label]]
    figures = {
        "cli.small_p50_ms": statistics.median(small) * 1000,
        "cli.small_p90_ms": statistics.quantiles(small, n=10)[-1] * 1000,
        "cli.large_s": sum(statistics.median(latency[label]) for label in CLI_LARGE),
    }
    for label in CLI_LARGE:
        figures[f"cli.{label}_ms"] = statistics.median(latency[label]) * 1000
        figures[f"cli.{label}.rss_mb"] = rss[label]
    return figures


def run_cli(seed: int, seconds: float, layer_names: list[str] | None) -> dict:
    workload = CliWorkload(seed)
    metrics: dict = {}
    if layer_names is None:
        times, setups, raw = timed_passes(lambda: pass_seconds(workload.one_pass(sampled=True)), seconds)
        metrics["setup_s"] = statistics.median(setups)
        metrics["norm_wall_s"] = statistics.median(times)
        metrics["peak_rss_mb"] = workload.peak_rss_mb
        log_passes("cli-mix", times, raw)
    else:
        spans_dir = workload.dir / "spans"
        shutil.rmtree(spans_dir, ignore_errors=True)
        spans_dir.mkdir()
        before = workload.one_pass()
        traced = workload.one_pass(spans_dir)
        after = workload.one_pass()
        extra = cli_figures(before + after)
        extra["trace.overhead_s"] = pass_seconds(traced)[0] - (pass_seconds(before)[0] + pass_seconds(after)[0]) / 2
        tracers = [load_spans(path) for path in sorted(spans_dir.glob("*.bin"))]
        metrics = layer_values(summarize(tracers), extra, layer_names)
    return result(workload.failed == 0, workload.attempted, workload.failed, metrics)


# ---------------------------------------------------------------------------
# metrics


def layer_values(summary: dict, extra: dict, names: list[str]) -> dict:
    """Values of the named per-layer metrics, from a tracer summary plus
    measured extras; BENCHMARK.json alone lists the names."""
    spans, counts = summary["spans"], summary["counts"]

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    witness_calls = calls("rfmatrix.find_frobenius_det_witness") + calls("rfmatrix.check_sign_conjecture")
    derived = {
        **counts,
        **extra,
        "rfmatrix.rf_enum_per_instance": ratio(calls("rfmatrix.rf_row_choices"), counts["rfmatrix.rf_enum.distinct"]),
        "rfmatrix.witness.calls": witness_calls,
        "rfmatrix.witness_scanned_per_call": ratio(counts["rfmatrix.witness.scanned"], witness_calls),
        "semigroup.builds_per_distinct": ratio(calls("semigroup.from_generators"), counts["semigroup.from_generators.distinct"]),
        "intmat.hnf_coords_per_index": ratio(calls("intmat.hnf_coordinates"), calls("lattice.lattice_index")),
        "verifier.report_write_s": spans.get("cli.cmd_verify", {}).get("self_s", 0.0),
        "trace.spans": sum(s["calls"] for s in spans.values()),
    }
    values = {}
    for name in names:
        if name in derived:
            values[name] = derived[name]
        elif name.endswith(".calls"):
            values[name] = calls(name[: -len(".calls")])
        elif name.endswith(".self_s"):
            values[name] = spans.get(name[: -len(".self_s")], {}).get("self_s", 0.0)
        elif name.startswith("verifier.claim.") and name.endswith("_s"):
            values[name] = spans.get(name[: -len("_s")], {}).get("total_s", 0.0)
        elif name.startswith("cli."):
            values[name] = 0  # the sweeps start no CLI child
        else:
            raise KeyError(f"no value for metric {name!r}")
    return values


def result(correct: bool, attempted: int, failed: int, metrics: dict) -> dict:
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*SWEEPS, "cli-mix"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "arfrf" / "__init__.py").is_file():
        log(f"error: no arfrf sources under {SRC}; run from a checkout of the repository")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    shutil.rmtree(OUT / args.workload, ignore_errors=True)
    (OUT / args.workload).mkdir(parents=True)
    listed = spec["per_layer" if args.trace else "end_to_end"]
    layer_names = [m["name"] for m in listed] if args.trace else None
    if args.workload in SWEEPS:
        outcome = run_sweep(args.workload, args.seed, args.seconds, layer_names)
    else:
        outcome = run_cli(args.seed, args.seconds, layer_names)
    measured = outcome["metrics"]
    outcome["metrics"] = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in listed}
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
