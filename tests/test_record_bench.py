"""scripts/record_bench.py: it records only correct runs of one benchmark, with verdicts."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def record_bench():
    spec = importlib.util.spec_from_file_location("record_bench", ROOT / "scripts" / "record_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _outcome(correct=True, failed=0):
    return {"correct": correct, "attempted": 14, "failed": failed,
            "metrics": {"norm_wall_s": {"value": 1.0, "unit": "s"}}}


def _checkouts(tmp_path, monkeypatch, record_bench):
    """Two checkouts holding this repository's BENCHMARK.json and a stub
    perfbench/run.py, with no test caches, and the argv that pairs them."""
    sides = []
    for name in ("parent", "change"):
        root = tmp_path / name
        (root / "perfbench").mkdir(parents=True)
        (root / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
        (root / "perfbench" / "run.py").write_text("print()\n")
        sides.append(root)
    out = tmp_path / "out"
    out.mkdir()
    monkeypatch.setattr(record_bench, "ROOT", out)
    return sides[1], out, ["--label", "x", "--parent", str(sides[0]), "--change", str(sides[1])]


@pytest.mark.parametrize(
    "path, content",
    [("perfbench/run.py", "print(1)\n"), ("perfbench/extra.cfg", ""),
     ("BENCHMARK.json", '{"run_seconds": 2}\n')],
)
def test_different_benchmarks_stop_before_any_run(record_bench, monkeypatch, tmp_path, path, content):
    change, out, argv = _checkouts(tmp_path, monkeypatch, record_bench)
    (change / path).write_text(content)
    runs = []
    monkeypatch.setattr(record_bench, "run_once", lambda *args: runs.append(args) or _outcome())
    with pytest.raises(SystemExit) as stop:
        record_bench.main(argv)
    assert f"{path} differs" in str(stop.value.code)
    assert runs == []
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("bad", [_outcome(correct=False), _outcome(failed=2)])
def test_incorrect_run_stops_the_recording(record_bench, monkeypatch, tmp_path, bad):
    _, out, argv = _checkouts(tmp_path, monkeypatch, record_bench)
    runs = []

    def fake_run_once(checkout, workload, seed, seconds):
        runs.append((workload, seed))
        return bad if len(runs) == 3 else _outcome()

    monkeypatch.setattr(record_bench, "run_once", fake_run_once)
    with pytest.raises(SystemExit) as stop:
        record_bench.main(argv)
    # the third run is seed 2 of the first workload, and that pair starts with the change
    message = str(stop.value.code)
    assert message.startswith("sweep-enum seed 2 (change):")
    assert len(runs) == 3
    assert list(out.iterdir()) == []


def test_correct_runs_are_recorded(record_bench, monkeypatch, tmp_path):
    _, out, argv = _checkouts(tmp_path, monkeypatch, record_bench)
    monkeypatch.setattr(record_bench, "run_once", lambda *args: _outcome())
    assert record_bench.main(argv) == 0
    assert (out / "BENCH_x.json").is_file()


@pytest.mark.parametrize("side", ["parent", "change"])
@pytest.mark.parametrize("cache", [".hypothesis", ".pytest_cache", ".benchmarks",
                                   "src/arfrf/__pycache__"])
def test_test_caches_stop_before_any_run(record_bench, monkeypatch, tmp_path, side, cache):
    _, out, argv = _checkouts(tmp_path, monkeypatch, record_bench)
    (tmp_path / side / cache).mkdir(parents=True)
    runs = []
    monkeypatch.setattr(record_bench, "run_once", lambda *args: runs.append(args) or _outcome())
    with pytest.raises(SystemExit) as stop:
        record_bench.main(argv)
    assert f"the {side} checkout" in str(stop.value.code)
    assert f"holds {cache}/" in str(stop.value.code)
    assert runs == []
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("value", ["1", None])
def test_machine_records_bytecode_setting(record_bench, monkeypatch, tmp_path, value):
    if value is None:
        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    else:
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", value)
    _, out, argv = _checkouts(tmp_path, monkeypatch, record_bench)
    monkeypatch.setattr(record_bench, "run_once", lambda *args: _outcome())
    record_bench.main(argv)
    record = json.loads((out / "BENCH_x.json").read_text())
    assert record["machine"]["PYTHONDONTWRITEBYTECODE"] == value


def test_bytecode_caches_are_not_compared(record_bench, monkeypatch, tmp_path):
    # a side holding bytecode stops the recording (see above), but as a cache, not a
    # benchmark file that differs
    change, _, argv = _checkouts(tmp_path, monkeypatch, record_bench)
    (change / "perfbench" / "__pycache__").mkdir()
    (change / "perfbench" / "__pycache__" / "run.cpython-311.pyc").write_bytes(b"stale")
    record_bench.require_same_benchmark({"parent": tmp_path / "parent", "change": change})
    with pytest.raises(SystemExit) as stop:
        record_bench.main(argv)
    assert "holds perfbench/__pycache__/" in str(stop.value.code)


def _runs(parent, change):
    """Runs of one workload, seeds 1.. in order, reading ``norm_wall_s``."""
    return [{"workload": "w", "seed": seed, "side": side, "metrics": {"norm_wall_s": {"value": v}}}
            for side, values in (("parent", parent), ("change", change))
            for seed, v in enumerate(values, start=1)]


WIDE = [1.0, 1.0, 1.0, 1.0, 1.0, 1.5, 1.5, 1.5, 1.5, 1.5]  # interquartile range 0.5


@pytest.mark.parametrize(
    "better, parent, change, verdict, won, gain",
    [
        ("lower", [1.0] * 10, [1.1] * 10, "within bound", 0, False),
        ("lower", [1.0] * 10, [1.3] * 10, "worse", 0, False),
        ("lower", WIDE, [1.2] * 10, "unresolved", 5, False),
        ("lower", WIDE, [2.0] * 10, "unresolved", 0, False),
        # every change run beats every parent run: resolved despite the spread,
        # but the medians differ by less than that spread, so no gain
        ("lower", WIDE, [0.9] * 10, "within bound", 10, False),
        ("lower", [1.0 + i / 100 for i in range(10)], [0.5] * 9 + [2.0], "within bound", 9, True),
        ("lower", [1.0 + i / 100 for i in range(10)], [0.5] * 8 + [2.0] * 2, "within bound", 8,
         False),
        # ties count for neither side
        ("lower", [1.0] * 10, [1.0] * 5 + [0.5] * 5, "within bound", 5, False),
        ("higher", [1.0] * 10, [0.7] * 10, "worse", 0, False),
        ("higher", [1.0] * 10, [1.5] * 10, "within bound", 10, True),
    ],
)
def test_verdicts(record_bench, better, parent, change, verdict, won, gain):
    metric = {"name": "norm_wall_s", "unit": "s", "better": better, "bound": 0.25}
    [[judged]] = [w.values() for w in record_bench.verdicts(_runs(parent, change), [metric]).values()]
    assert (judged["verdict"], judged["pairs_won"], judged["pairs"], judged["gain"]) == (
        verdict, won, 10, gain)
    assert (judged["bound"], judged["better"]) == (0.25, better)
    assert judged["median_diff"] == pytest.approx(
        record_bench.statistics.median(change) - record_bench.statistics.median(parent))


def test_wide_parent_spread_reads_its_interquartile_range(record_bench):
    metric = {"name": "norm_wall_s", "better": "lower", "bound": 0.25}
    judged = record_bench.verdicts(_runs(WIDE, [1.2] * 10), [metric])["w"]["norm_wall_s"]
    assert judged["parent_iqr"] == pytest.approx(0.5)


def test_recording_prints_one_verdict_line_per_metric(record_bench, monkeypatch, tmp_path, capsys):
    _, out, argv = _checkouts(tmp_path, monkeypatch, record_bench)
    monkeypatch.setattr(record_bench, "run_once", lambda *args: _outcome())
    record_bench.main(argv)
    record = json.loads((out / "BENCH_x.json").read_text())
    # the fake runs read norm_wall_s only, so each workload gets that one verdict
    assert {w: list(v) for w, v in record["verdicts"].items()} == {
        w: ["norm_wall_s"] for w in record_bench.WORKLOADS}
    lines = [line for line in capsys.readouterr().err.splitlines() if ": within bound;" in line]
    assert [line.split(":")[0] for line in lines] == [
        f"{w} norm_wall_s" for w in record_bench.WORKLOADS]


def _fake_runs(monkeypatch, record_bench, traced_outcome):
    """Replace run_once; untraced runs read _outcome(), traced ones ``traced_outcome``.
    Returns the list each call appends (checkout name, workload, seed, trace) to."""
    calls = []

    def fake_run_once(checkout, workload, seed, seconds, trace=0):
        calls.append((checkout.name, workload, seed, trace))
        return traced_outcome if trace else _outcome()

    monkeypatch.setattr(record_bench, "run_once", fake_run_once)
    return calls


def test_traced_pairs_follow_the_untraced_ones_on_the_sweeps(record_bench, monkeypatch, tmp_path):
    _, out, argv = _checkouts(tmp_path, monkeypatch, record_bench)
    calls = _fake_runs(monkeypatch, record_bench, _outcome())
    assert record_bench.main(argv + ["--traced-pairs", "2"]) == 0
    untraced = 2 * len(record_bench.WORKLOADS) * len(record_bench.SEEDS)
    assert all(trace == 0 for *_, trace in calls[:untraced])
    # seed 1 only, the side that goes first alternating from pair to pair
    assert calls[untraced:] == [
        (side, workload, 1, 1)
        for workload in ("sweep-enum", "sweep-lattice")
        for side in ("parent", "change", "change", "parent")
    ]
    traced = json.loads((out / "BENCH_x.json").read_text())["traced"]
    assert [(r["workload"], r["side"]) for r in traced["runs"]] == [call[1::-1] for call in calls[untraced:]]
    assert traced["medians"] == {
        w: {side: {"norm_wall_s": 1.0} for side in ("parent", "change")}
        for w in ("sweep-enum", "sweep-lattice")
    }


def test_no_traced_block_without_traced_pairs(record_bench, monkeypatch, tmp_path):
    _, out, argv = _checkouts(tmp_path, monkeypatch, record_bench)
    calls = _fake_runs(monkeypatch, record_bench, _outcome())
    assert record_bench.main(argv) == 0
    assert all(trace == 0 for *_, trace in calls)
    assert "traced" not in json.loads((out / "BENCH_x.json").read_text())


def test_incorrect_traced_run_stops_the_recording(record_bench, monkeypatch, tmp_path):
    _, out, argv = _checkouts(tmp_path, monkeypatch, record_bench)
    calls = _fake_runs(monkeypatch, record_bench, _outcome(correct=False))
    with pytest.raises(SystemExit) as stop:
        record_bench.main(argv + ["--traced-pairs", "1"])
    assert str(stop.value.code).startswith("sweep-enum seed 1 (parent): correct False")
    assert calls[-1] == ("parent", "sweep-enum", 1, 1)
    assert list(out.iterdir()) == []
