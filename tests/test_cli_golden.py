"""Byte-identical command-line output.

tests/data/cli_golden.json holds the exit code, stdout and stderr of every
invocation below: each case under --format text, json and csv, and the --help
text of every subcommand.  The CLI runs in-process, with no profile cache and
an 80-column help width.  After an intended output change, rewrite the file
with

    PYTHONPATH=src python tests/test_cli_golden.py

and read its diff: every changed record is a change that users see.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data" / "cli_golden.json"
FORMATS = ("text", "json", "csv")
COMMANDS = ("gens", "member", "hilbert", "hpoly", "betti", "classify",
            "verify", "canonical", "dualcheck")
CASES = [
    ["gens", "-d", "3", "--pinch", "0"],
    ["gens", "-n", "3", "-d", "2", "--pinch", "1,1,0"],
    ["member", "-d", "3", "--pinch", "3,0", "--element", "5,1", "--cross-check"],
    ["member", "-d", "5", "--pinch", "2", "--element", "4,6"],
    ["member", "-n", "3", "-d", "3", "--pinch", "1,1,1", "--element", "3,2,1"],
    ["hilbert", "-d", "4", "--pinch", "0", "--expand", "16"],
    ["hilbert", "-d", "5", "--pinch", "2"],
    ["hilbert", "-d", "2", "--pinch", "1", "--expand", "6"],
    ["hpoly", "-d", "5", "--pinch", "1"],
    ["hpoly", "-d", "6", "--pinch", "3"],
    ["betti", "-d", "5", "--pinch", "0"],
    ["betti", "-d", "5", "--pinch", "1"],
    ["betti", "-d", "5", "--pinch", "2"],
    ["betti", "-d", "5", "--pinch", "3", "--field", "2"],
    ["betti", "-d", "6", "--pinch", "3", "--field", "q"],
    ["betti", "-d", "6", "--pinch", "2", "--imax", "2", "--smax", "4"],
    ["betti", "-d", "2", "--pinch", "0"],
    ["betti", "-d", "2", "--pinch", "1"],
    ["betti", "-n", "3", "-d", "2", "--pinch", "1,1,0", "--smax", "6"],
    ["betti", "-n", "3", "-d", "4", "--pinch", "2,1,1", "--smax", "16"],
    ["classify", "-d", "5", "--pinch", "1"],
    ["classify", "-d", "4", "--pinch", "2", "--field", "q"],
    ["classify", "-d", "2", "--pinch", "0"],
    ["classify", "-d", "6", "--pinch", "2", "--imax", "2", "--smax", "4"],
    ["verify", "-d", "5", "--pinch", "1"],
    ["verify", "-d", "5", "--pinch", "2", "--field", "2"],
    ["verify", "--sweep", "n=2,d=3..4"],
    ["verify", "-n", "3", "-d", "3", "--pinch", "1,1,1"],
    ["verify", "-n", "3", "-d", "3", "--pinch", "2,1,0"],
    ["verify", "-n", "3", "-d", "3", "--pinch", "3,0,0"],
    ["verify", "-d", "2", "--pinch", "1"],
    ["canonical", "-n", "2", "-d", "5", "-k", "1"],
    ["canonical", "-n", "3", "-d", "4", "-k", "2"],
    ["dualcheck", "-d", "5", "--pinch", "2", "--coarse", "3"],
    ["dualcheck", "-d", "3", "--pinch", "3,0", "--element", "4,2", "--field", "q"],
    ["gens", "-d", "9"],
]


def invocations() -> list[list[str]]:
    argvs = [[*case, "--format", fmt] for case in CASES for fmt in FORMATS]
    return argvs + [[command, "--help"] for command in COMMANDS]


@contextlib.contextmanager
def _environment():
    saved = {key: os.environ.get(key) for key in ("COLUMNS", "PINCHED_VERONESE_CACHE_DIR")}
    os.environ["COLUMNS"] = "80"
    os.environ.pop("PINCHED_VERONESE_CACHE_DIR", None)
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def run(argv: list[str]) -> dict:
    from pinched_veronese.cli import main

    out, err = io.StringIO(), io.StringIO()
    with _environment(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # --help
            code = exc.code
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return {tuple(r["argv"]): r for r in json.loads(DATA.read_text())}


def test_golden_covers_every_invocation(golden):
    assert list(golden) == [tuple(argv) for argv in invocations()]


@pytest.mark.parametrize("argv", invocations(), ids=" ".join)
def test_cli_output_is_byte_identical(golden, argv):
    assert run(argv) == golden[tuple(argv)]


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    records = [run(argv) for argv in invocations()]
    DATA.write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {len(records)} records to {DATA}")
