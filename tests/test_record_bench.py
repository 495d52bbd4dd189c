"""scripts/record_bench.py refuses to record medians from incorrect runs."""

import importlib.util
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


@pytest.mark.parametrize("bad", [_outcome(correct=False), _outcome(failed=2)])
def test_incorrect_run_stops_the_recording(record_bench, monkeypatch, tmp_path, bad):
    runs = []

    def fake_run_once(checkout, workload, seed, seconds):
        runs.append((workload, seed))
        return bad if len(runs) == 3 else _outcome()

    monkeypatch.setattr(record_bench, "run_once", fake_run_once)
    monkeypatch.setattr(record_bench, "ROOT", tmp_path)
    with pytest.raises(SystemExit) as stop:
        record_bench.main(["--label", "x", "--parent", str(ROOT), "--change", str(ROOT)])
    # the third run is seed 2 of the first workload, and that pair starts with the change
    message = str(stop.value.code)
    assert message.startswith("sweep-enum seed 2 (change):")
    assert len(runs) == 3
    assert list(tmp_path.iterdir()) == []


def test_correct_runs_are_recorded(record_bench, monkeypatch, tmp_path):
    monkeypatch.setattr(record_bench, "run_once", lambda *args: _outcome())
    monkeypatch.setattr(record_bench, "ROOT", tmp_path)
    assert record_bench.main(["--label", "x", "--parent", str(ROOT), "--change", str(ROOT)]) == 0
    assert (tmp_path / "BENCH_x.json").is_file()



def _checkouts(tmp_path, monkeypatch, record_bench):
    """Two checkouts holding the same small benchmark, and the argv that pairs them."""
    sides = []
    for name in ("parent", "change"):
        root = tmp_path / name
        (root / "perfbench" / "__pycache__").mkdir(parents=True)
        (root / "BENCHMARK.json").write_text('{"run_seconds": 1}\n')
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


def test_bytecode_caches_are_not_compared(record_bench, monkeypatch, tmp_path):
    change, out, argv = _checkouts(tmp_path, monkeypatch, record_bench)
    (change / "perfbench" / "__pycache__" / "run.cpython-311.pyc").write_bytes(b"stale")
    monkeypatch.setattr(record_bench, "run_once", lambda *args: _outcome())
    assert record_bench.main(argv) == 0
    assert (out / "BENCH_x.json").is_file()
