"""The scripts under `scripts/` run against the current engine.

Each script runs in a fresh interpreter from the repository root, as its
usage line says.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True,
                          text=True, timeout=300)


def test_stage_rates_table():
    proc = _run("scripts/stage_rates.py")
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.strip().splitlines()
    assert header.split() == ["stage", "min", "%", "median", "%", "max", "%", "silent"]
    silent = {row.split()[0]: row.split()[-1] for row in rows}
    assert silent == {"stem": "0/12", "cell1": "3/12", "down1": "12/12",
                      "cell2": "12/12", "classifier": "12/12"}


@pytest.mark.parametrize("script", ["scripts/jobs_scaling.py", "scripts/cli_snapshot.py"])
def test_help_exits_cleanly(script):
    proc = _run(script, "--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage:")
