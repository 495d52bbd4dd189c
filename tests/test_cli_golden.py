"""The CLI's exact bytes: exit code, stdout and stderr, in text and in JSON.

``tests/data/cli_golden.json`` holds them for the six README examples, a few
more successful inputs and one input per error exit. Each command runs
in-process through ``main`` from an empty working directory, so the one that
creates the default report directory leaves nothing behind.

To rewrite the file from a checkout whose output is known good, run
``PYTHONPATH=src python tests/test_cli_golden.py`` from that checkout.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from arfrf.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"

COMMANDS = [
    # the six README examples
    "analyze 5 19 21 22 23",
    "rf 5 19 21 22 23 --pf 18 --dets",
    "rf 2 5 --witness",
    "generic 4 10 21 23",
    "relations 4 10 21 23",
    "closure 4 6 9",
    "rf 4 6 9 --witness --dets",
    "generic 4 5 6",
    "relations 2 5",
    # no |det| = F witness: the relations fallback (det 0, index infinite)
    "relations 9 25 31 33 39",
    "rf 9 25 31 33 39 --witness",
    "generic 3 7 8",
    "rf 10 31 32 33 34 35 36 37 38 39 --count-only",
    # errors: exit 3, 3, 5, 3, 5, 2, 4, 4, 4
    "rf 2 5 --pf 4",
    "rf 1 --pf 0",
    "rf 5 19 21 22 23 --pf 18 --max-rf 2",
    "relations 1",
    "relations 6 7 8 9 10 11 --max-rf 0",
    "analyze 4 6",
    "verify --suite nope",
    "verify --config /nonexistent.cfg",
    "verify --claim Nope",
]
CASES = [f"{command} --format {fmt}" for command in COMMANDS for fmt in ("text", "json")]


def run(command: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(command.split())
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert list(golden) == CASES


@pytest.mark.parametrize("command", CASES)
def test_cli_output_is_pinned(golden, command, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(command) == golden[command]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        here = os.getcwd()
        os.chdir(scratch)
        try:
            captured = {command: run(command) for command in CASES}
        finally:
            os.chdir(here)
    GOLDEN.write_text(json.dumps(captured, indent=1) + "\n", encoding="utf-8")
    print(GOLDEN, file=sys.stderr)
