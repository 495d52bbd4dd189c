"""Pin the output references the benchmark gate compares against.

Usage (from the repository root, at the commit whose outputs are the truth):

    python3 perfbench/pin_reference.py

Writes perfbench/reference/{sweep-enum,sweep-lattice,cli}.json. The claim
reports are pinned at the default verify seed; CLI commands are pinned by
exit code and JSON stdout.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import arfrf.cli  # noqa: E402
from arfrf.verifier import DEFAULT_SEED  # noqa: E402

from perfbench import gate  # noqa: E402
from perfbench.run import CLI_LARGE, CLI_SMALL, OUT, SWEEPS, run_command  # noqa: E402

# the only claim the benchmark runs at --seed whose report depends on it
SEED_DEPENDENT = ["OracleAgreement"]


def commit() -> str:
    done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT)
    return done.stdout.strip() or "unknown"


def pin_sweep(name: str, sha: str) -> None:
    report_dir = OUT / "pin" / name
    shutil.rmtree(report_dir, ignore_errors=True)
    for argv in SWEEPS[name]:
        argv = [arg.format(seed=DEFAULT_SEED) for arg in argv]
        with redirect_stdout(io.StringIO()):
            code = arfrf.cli.main(argv + ["--report-dir", str(report_dir), "--format", "json"])
        if code != 0:
            raise SystemExit(f"{name}: {' '.join(argv)} exited {code}; refusing to pin")
    reports = gate.read_reports(report_dir)
    reference = {
        "commit": sha,
        "seed": DEFAULT_SEED,
        "seed_dependent": [c for c in SEED_DEPENDENT if c in reports],
        "reports": {cid: gate.pinned_fields(r) for cid, r in reports.items()},
    }
    write(name, reference)


def pin_cli(sha: str) -> None:
    (OUT / "pin").mkdir(parents=True, exist_ok=True)
    commands = {}
    for label, command in {**CLI_SMALL, **CLI_LARGE}.items():
        _, code, stdout, _ = run_command(command.split(), OUT / "pin" / "stdout.txt")
        commands[label] = {"argv": command.split(), "exit": code, "stdout": json.loads(stdout)}
    write("cli", {"commit": sha, "commands": commands})


def write(name: str, reference: dict) -> None:
    path = gate.REFERENCE_DIR / f"{name}.json"
    path.write_text(json.dumps(reference, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}")


def main() -> None:
    sha = commit()
    for name in SWEEPS:
        pin_sweep(name, sha)
    pin_cli(sha)


if __name__ == "__main__":
    main()
