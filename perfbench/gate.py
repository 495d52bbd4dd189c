"""Output gate: compares what a run produced with the references in
``reference/``, pinned before any change to the program (see README.md).

Claim reports are compared only on the fields they had when the references
were pinned, so additive fields (a work-counter block, say) do not trip the
gate. A claim whose report
depends on the verify seed is compared in full only at the pinned seed; at
any other seed its status must equal the pinned status and it must have
checked something.
"""

from __future__ import annotations

import json
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REPORT_FIELDS = ("claim_id", "status", "grid", "checked", "mismatches", "counterexamples", "notes")


def load_reference(name: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{name}.json").read_text(encoding="utf-8"))


def pinned_fields(report: dict) -> dict:
    return {key: report.get(key) for key in REPORT_FIELDS}


def read_reports(report_dir: Path) -> dict[str, dict]:
    """Claim reports written by ``arfrf verify``, keyed by claim id."""
    reports = {}
    for path in sorted(report_dir.glob("*.json")):
        if path.name == "summary.json":
            continue
        report = json.loads(path.read_text(encoding="utf-8"))
        reports[report["claim_id"]] = report
    return reports


def claim_problem(claim_id: str, observed: dict | None, reference: dict, seed: int) -> str | None:
    """Why one claim's report is wrong, or None when it passes the gate."""
    expected = reference["reports"][claim_id]
    if observed is None:
        return "no report written"
    if seed == reference["seed"] or claim_id not in reference["seed_dependent"]:
        if pinned_fields(observed) != expected:
            return "report differs from the pinned reference"
        return None
    if observed.get("status") != expected["status"]:
        return f"status {observed.get('status')!r}, expected {expected['status']!r}"
    if not observed.get("checked"):
        return "checked nothing"
    return None


def check_reports(observed: dict[str, dict], reference: dict, seed: int, log) -> int:
    failed = 0
    for claim_id in reference["reports"]:
        problem = claim_problem(claim_id, observed.get(claim_id), reference, seed)
        if problem is not None:
            failed += 1
            log(f"gate: {claim_id}: {problem}")
    return failed


def cli_problem(label: str, exit_code: int, stdout: str, reference: dict) -> str | None:
    """Why one CLI invocation's result is wrong, or None when it matches."""
    expected = reference["commands"][label]
    if exit_code != expected["exit"]:
        return f"exit {exit_code}, expected {expected['exit']}"
    try:
        document = json.loads(stdout)
    except ValueError:
        return "stdout is not one JSON document"
    if document != expected["stdout"]:
        return "JSON output differs from the pinned reference"
    return None
