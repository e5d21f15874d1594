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


def test_cli_snapshot_matrix(tmp_path):
    # every bad input gives one `error: ...` line and exit 1, never a
    # traceback; an unknown flag is argparse's usage error, exit 2
    out = tmp_path / "snapshot"
    proc = _run("scripts/cli_snapshot.py", str(out))
    assert proc.returncode == 0, proc.stderr
    cases = {case.name: (int((case / "exit_code.txt").read_text()),
                         (case / "stderr.txt").read_text()) for case in out.iterdir()}
    assert len(cases) == 31
    assert sum(name.startswith("err_") for name in cases) == 18
    for name, (code, stderr) in cases.items():
        assert "Traceback" not in stderr, name
        if not name.startswith("err_"):
            assert (code, stderr) == (0, ""), name
        elif name == "err_memcalc_unread_flag":
            assert code == 2, name
        else:
            assert code == 1, name
            assert len(stderr.splitlines()) == 1, (name, stderr)
            assert stderr.startswith("error: "), (name, stderr)
