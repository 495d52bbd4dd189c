#!/usr/bin/env python3
"""Record a before/after benchmark pair in BENCH_<label>.json.

Runs ``perfbench/run.py`` of two checkouts in alternating parent/change
pairs, one pair per workload and seed, and writes every run's result, the
per-side medians, the git shas and the machine to BENCH_<label>.json in the
repository root. Each side runs its own perfbench and sources, so both
checkouts must hold the same benchmark: before the first run, the bytes of
BENCHMARK.json and of every file under perfbench/ (``__pycache__`` aside) are
compared, and the first path that differs stops the recording with a non-zero
exit. Every run lasts the ``run_seconds`` of that BENCHMARK.json; seeds 1..10
give ten pairs per workload.

Usage (from the repository root), with both sides fresh clones:

    git clone -q . ../parent && git -C ../parent checkout -q <parent-sha>
    git clone -q . ../change && git -C ../change checkout -q <change-sha>
    python3 scripts/record_bench.py --label factorization_order \\
        --parent ../parent --change ../change

A working checkout is no stand-in for a clone: one holding test caches
(``.hypothesis/``, ``.pytest_cache/``) once read cli-mix ``peak_rss_mb``
0.19 MB above a fresh clone of the same commit, and Python reads a
``__pycache__`` even under ``PYTHONDONTWRITEBYTECODE=1``, so a side that
holds one imports ``arfrf.cli`` three to five times as fast as a fresh
clone (``python -X importtime``). So a side whose checkout holds one of
``TEST_CACHES``, or a ``__pycache__`` anywhere under src/ or perfbench/,
stops the recording, before the first run, with a non-zero exit that names
the directory. The ``machine`` block records ``PYTHONDONTWRITEBYTECODE``:
when it is set, every benchmark child compiles arfrf afresh, and cli-mix
``peak_rss_mb`` grows with the source.

Runs take the order workload, then seed, and the side that goes first
alternates from one pair to the next. A run that reads ``correct: false``
or has failed operations stops the recording with a non-zero exit that
names its workload, seed and side, and nothing is written.

The ``verdicts`` block judges each workload and end-to-end metric of
BENCHMARK.json, one stderr line each. The spread is the parent's
interquartile range. A metric is "unresolved" when that spread exceeds the
bound and not every change run beats every parent run, "worse" when the
change's median is worse than the parent's by more than the bound, and
"within bound" otherwise. ``gain`` holds when the change wins at least nine
tenths of the equal-seed pairs (ties count for neither) and its median is
better by more than the spread.

With ``--traced-pairs N``, N more pairs per sweep follow, each side one
``perfbench/run.py --trace 1 --seed 1`` run, the side that goes first
alternating as above; the file's ``traced`` block holds those runs and the
per-side median of each per-layer metric. A traced run is held to the same
``correct`` rule, so a sweep-lattice run whose tracer missed a
``lattice_index`` call stops the recording. Uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("sweep-enum", "sweep-lattice", "cli-mix")
SWEEPS = WORKLOADS[:2]
SEEDS = tuple(range(1, 11))
TEST_CACHES = (".hypothesis", ".pytest_cache", ".benchmarks")


def git_sha(checkout: Path) -> str | None:
    """HEAD of ``checkout``, with "-dirty" if tracked files differ from it;
    None when it is no git checkout."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True,
                             text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"], cwd=checkout,
                               capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None
    return sha + ("-dirty" if dirty else "")


def machine() -> dict:
    mem_mb = None
    try:
        with open("/proc/meminfo") as meminfo:
            for line in meminfo:
                if line.startswith("MemTotal:"):
                    mem_mb = round(int(line.split()[1]) / 1024)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "mem_total_mb": mem_mb,
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
    }


def benchmark_files(checkout: Path) -> set[Path]:
    """BENCHMARK.json and every file under perfbench/, relative to ``checkout``."""
    found = [checkout / "BENCHMARK.json", *(checkout / "perfbench").rglob("*")]
    return {path.relative_to(checkout) for path in found
            if path.is_file() and "__pycache__" not in path.parts}


def require_same_benchmark(sides: dict[str, Path]) -> None:
    """Stop at the first benchmark file that is missing on one side or differs."""
    parent, change = sides.values()
    for rel in sorted(benchmark_files(parent) | benchmark_files(change)):
        a, b = parent / rel, change / rel
        if not (a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()):
            raise SystemExit(f"the checkouts hold different benchmarks: {rel} differs; nothing run")


def require_no_test_caches(sides: dict[str, Path]) -> None:
    """Stop at the first side whose checkout holds a test cache directory or
    cached bytecode of the program or the benchmark."""
    for side, checkout in sides.items():
        bytecode = sorted(path for top in ("src", "perfbench")
                          for path in (checkout / top).rglob("__pycache__"))
        for path in [*(checkout / name for name in TEST_CACHES), *bytecode]:
            if path.is_dir():
                raise SystemExit(f"the {side} checkout {checkout} holds "
                                 f"{path.relative_to(checkout)}/; record from fresh clones; nothing run")


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One ``perfbench/run.py`` run, traced if ``trace``; its result line, parsed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} in {checkout} exited {done.returncode}")
    return json.loads(lines[-1])


def require_correct(outcome: dict, workload: str, seed: int, side: str) -> None:
    """Stop the recording at a run whose outputs were wrong or whose operations failed:
    its times measure a broken program, so no median may take them in."""
    if not outcome["correct"] or outcome["failed"]:
        raise SystemExit(f"{workload} seed {seed} ({side}): correct {outcome['correct']}, "
                         f"failed {outcome['failed']} of {outcome['attempted']}; nothing recorded")


def medians(runs: list[dict]) -> dict:
    """Median of each metric per workload and side."""
    out: dict = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        out[workload] = {}
        for side in ("parent", "change"):
            mine = [r for r in runs if r["workload"] == workload and r["side"] == side]
            out[workload][side] = {
                name: statistics.median(r["metrics"][name]["value"] for r in mine)
                for name in mine[0]["metrics"]
            }
    return out


def verdicts(runs: list[dict], end_to_end: list[dict]) -> dict:
    """The verdict on each end-to-end metric per workload, by the rule in the module doc."""
    out: dict = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        out[workload] = {}
        for metric in end_to_end:
            name, bound = metric["name"], metric["bound"]
            sign = 1 if metric["better"] == "lower" else -1  # sign * value: lower is better
            by_seed = {side: {r["seed"]: sign * r["metrics"][name]["value"] for r in runs
                              if r["workload"] == workload and r["side"] == side
                              and name in r["metrics"]}
                       for side in ("parent", "change")}
            parent, change = (sorted(by_seed[side].values()) for side in ("parent", "change"))
            if len(parent) < 2 or not change:
                continue
            q1, _, q3 = statistics.quantiles(parent, n=4)
            worse_by = statistics.median(change) - statistics.median(parent)
            seeds = by_seed["parent"].keys() & by_seed["change"].keys()
            won = sum(by_seed["change"][s] < by_seed["parent"][s] for s in seeds)
            if q3 - q1 > bound and not change[-1] < parent[0]:
                verdict = "unresolved"
            elif worse_by > bound:
                verdict = "worse"
            else:
                verdict = "within bound"
            out[workload][name] = {
                "parent_iqr": q3 - q1, "median_diff": sign * worse_by, "bound": bound,
                "better": metric["better"], "pairs_won": won, "pairs": len(seeds),
                "verdict": verdict, "gain": won >= 0.9 * len(seeds) and -worse_by > q3 - q1,
            }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="names the output, BENCH_<label>.json")
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, type=Path, help="checkout of the change")
    parser.add_argument("--traced-pairs", type=int, default=0, metavar="N",
                        help="traced seed-1 pairs per sweep after the untraced ones (default 0)")
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    require_same_benchmark(sides)
    require_no_test_caches(sides)
    benchmark = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    runs = []
    for workload in WORKLOADS:
        for seed in SEEDS:
            order = ("parent", "change") if len(runs) % 4 == 0 else ("change", "parent")
            for side in order:
                print(f"{workload} seed {seed}: {side}", file=sys.stderr, flush=True)
                outcome = run_once(sides[side], workload, seed, seconds)
                require_correct(outcome, workload, seed, side)
                runs.append({"workload": workload, "seed": seed, "side": side, **outcome})
    traced = []
    for workload in SWEEPS:
        for pair in range(args.traced_pairs):
            for side in ("parent", "change")[:: 1 if pair % 2 == 0 else -1]:
                print(f"{workload} traced pair {pair + 1}: {side}", file=sys.stderr, flush=True)
                outcome = run_once(sides[side], workload, 1, seconds, trace=1)
                require_correct(outcome, workload, 1, side)
                traced.append({"workload": workload, "seed": 1, "side": side, **outcome})
    record = {
        "label": args.label,
        "git": {side: git_sha(path) for side, path in sides.items()},
        "machine": machine(),
        "seeds": list(SEEDS),
        "seconds": seconds,
        "runs": runs,
        "medians": medians(runs),
        "verdicts": verdicts(runs, benchmark.get("end_to_end", [])),
    }
    if traced:
        record["traced"] = {"runs": traced, "medians": medians(traced)}
    for workload, judged in record["verdicts"].items():
        for name, v in judged.items():
            print(f"{workload} {name}: {v['verdict']}; change - parent median "
                  f"{v['median_diff']:+.4g}, parent IQR {v['parent_iqr']:.4g}, bound {v['bound']}, "
                  f"won {v['pairs_won']}/{v['pairs']} pairs{', gain' if v['gain'] else ''}",
                  file=sys.stderr)
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
