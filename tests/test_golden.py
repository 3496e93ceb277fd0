"""Committed CLI outputs: each tests/golden/<name>.json holds one argv and
the stdout, stderr and exit status that ``cli.main`` gave for it.

The cases cover the commands whose bytes need no FFT: Halton points, the
closed-form kernel diaphony, the spectral diaphony of a Halton segment (one
exact value per field, rounded once), the bound, sweeps, and every usage
and cap error the package words itself (argparse words its own errors, and that
wording differs between Python versions).  To add a case, write a file
holding only its ``argv``.  ``PYTHONPATH=src python tests/test_golden.py``
rewrites every file from the current code; say in CHANGES.md which bytes
changed and why.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from padiaphony.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = sorted(GOLDEN.glob("*.json"))


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(list(argv))
    return {"argv": argv, "exit": status, "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_golden_cases_exist():
    assert len(CASES) >= 50


@pytest.mark.parametrize("path", CASES, ids=lambda p: p.stem)
def test_cli_output_equals_the_golden_bytes(path):
    expected = json.loads(path.read_text(encoding="utf-8"))
    assert run(expected["argv"]) == expected


if __name__ == "__main__":
    for path in CASES:
        case = run(json.loads(path.read_text(encoding="utf-8"))["argv"])
        path.write_text(json.dumps(case, indent=1) + "\n", encoding="utf-8")
