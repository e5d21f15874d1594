"""Snapshot the CLI's observable behaviour over a fixed command matrix.

Usage (from the repository root):

    python3 scripts/cli_snapshot.py OUT_DIR [--src SRC_DIR]

Each command runs in a fresh interpreter (`python -m spikenas.cli`) against
`SRC_DIR` (default: this checkout's `src/`), in its own working directory,
with SPIKENAS_DATA_DIR unset.  For each command, OUT_DIR/<name>/ receives
`stdout.txt`, `stderr.txt`, `exit_code.txt` and every file the command
wrote.  Commands that read CIFAR files get seeded binary files written
into `data/` in their working directory first.  Wall times and the
working directory's path are masked, so two snapshots of code that
behaves the same are identical:

    python3 scripts/cli_snapshot.py /tmp/before --src /path/to/old/src
    python3 scripts/cli_snapshot.py /tmp/after
    diff -r /tmp/before /tmp/after

The matrix holds thirteen working commands (search with a report, candidate
log and table; random-search with `--jobs 2`; random-search with 300 draws
over 64 cells, so most draws repeat; a memory-aware and a random ablate;
score with a kernel dump; score with `--no-bias`; score with
`--code-mode concat`; memcalc; enumerate; score over two 10-class files;
a `_M` search on them under the preset budget; search over one 100-class
file) and eighteen bad inputs, two of them a bad label byte and a truncated
10-class file.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
TINY = ["--stem-channels", "4", "--classes", "4", "--batch-size", "4", "--timesteps", "2"]
OUTPUTS = ["--report-out", "report.json", "--candidate-log", "cands.ndjson",
           "--table-out", "runs.csv"]
LOW_THRESHOLD = {"v_threshold": 0.2}
CIFAR_SCORE = ["score", "--opset", "2O", "--indices", "40,63", "--dataset", "cifar10",
               "--data-dir", "data", *TINY]


def _records(classes: int, n: int, seed: int) -> bytes:
    """`n` seeded records of the 10- or 100-class binary layout.

    A 100-class record starts with a coarse label byte, then the fine one.
    """
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, classes, size=(n, 1), dtype=np.uint8)
    head = labels if classes == 10 else np.hstack([labels // 5, labels])
    pixels = rng.integers(0, 256, size=(n, 3072), dtype=np.uint8)
    return np.hstack([head, pixels]).tobytes()


def _cifar10(edit=lambda raw: raw) -> dict[str, bytes]:
    """Two 8-record data_batch files; `edit` rewrites the second one's bytes."""
    return {"data/data_batch_1.bin": _records(10, 8, 1),
            "data/data_batch_2.bin": edit(_records(10, 8, 2))}


# Command name -> {path in the working directory: file bytes}.
DATA_FILES = {
    "score_cifar10": _cifar10(),
    "search_preset_budget": _cifar10(),
    "search_cifar100": {"data/train.bin": _records(100, 16, 3)},
    # the label byte of the second record is 10
    "err_cifar10_label": _cifar10(lambda raw: raw[:3073] + bytes([10]) + raw[3074:]),
    "err_cifar10_length": _cifar10(lambda raw: raw[:-1]),
}

# (name, argv, config file contents or None); a config file is passed as
# `--config config.json`.
COMMANDS = [
    ("search", ["search", "--scenario", "1C2O", "--dataset", "synth", "--seed", "42",
                *OUTPUTS, *TINY], LOW_THRESHOLD),
    ("random_search_jobs2", ["random-search", "--scenario", "2C3O_M", "--dataset", "synth",
                             "--budget", "3000", "--iterations", "20", "--jobs", "2",
                             "--candidate-log", "cands.ndjson", "--table-out", "runs.csv",
                             *TINY], LOW_THRESHOLD),
    ("random_search_repeats", ["random-search", "--scenario", "1C2O", "--dataset", "synth",
                               "--iterations", "300", "--jobs", "2",
                               "--candidate-log", "cands.ndjson", *TINY], None),
    ("ablate_memory_aware", ["ablate", "--opset", "3O", "--cells", "1", "--remove",
                             "avgpool3x3", "--dataset", "synth", *OUTPUTS, *TINY], None),
    ("ablate_random", ["ablate", "--opset", "5O", "--cells", "2", "--remove", "zeroize",
                       "--strategy", "random", "--iterations", "6", "--dataset", "synth",
                       *TINY], LOW_THRESHOLD),
    ("score", ["score", "--opset", "2O", "--indices", "40", "--dataset", "synth",
               "--seed", "3", "--dump-kernels", "kernels.txt", *TINY], None),
    ("score_no_bias", ["score", "--opset", "3O", "--indices", "100", "--dataset", "synth",
                       "--no-bias", *TINY], LOW_THRESHOLD),
    ("score_concat", ["score", "--opset", "3O", "--indices", "100,200", "--dataset",
                      "synth", "--code-mode", "concat", *TINY], LOW_THRESHOLD),
    ("memcalc", ["memcalc", "--opset", "3O", "--indices", "100,200", "--bits", "8",
                 "--stem-channels", "16"], None),
    ("enumerate", ["enumerate", "--opset", "2O"], None),
    ("score_cifar10", CIFAR_SCORE, LOW_THRESHOLD),
    ("search_preset_budget", ["search", "--scenario", "1C2O_M", "--dataset", "cifar10",
                              "--data-dir", "data", "--report-out", "report.json", *TINY],
     LOW_THRESHOLD),
    ("search_cifar100", ["search", "--scenario", "1C2O", "--dataset", "cifar100",
                         "--data-dir", "data", "--seed", "7", *TINY], LOW_THRESHOLD),
    ("err_scenario_opset", ["search", "--scenario", "4C9O", "--dataset", "synth"], None),
    ("err_scenario_cells", ["search", "--scenario", "4C2O", "--dataset", "synth"], None),
    ("err_scenario_malformed", ["search", "--scenario", "bogus", "--dataset", "synth"], None),
    ("err_preset_budget", ["search", "--scenario", "1C2O_M", "--dataset", "synth", *TINY],
     None),
    ("err_no_feasible", ["search", "--scenario", "1C2O_M", "--dataset", "synth",
                         "--budget", "10", *TINY], None),
    ("err_opset_too_small", ["ablate", "--opset", "2O", "--cells", "1", "--remove",
                             "conv3x3", "--dataset", "synth", *TINY], None),
    ("err_op_not_in_set", ["ablate", "--opset", "2O", "--remove", "zeroize",
                           "--dataset", "synth", *TINY], None),
    ("err_ablate_cells", ["ablate", "--opset", "3O", "--remove", "skipcon", "--cells", "4",
                          "--dataset", "cifar10"], None),
    ("err_no_data_dir", ["search", "--scenario", "1C2O", "--dataset", "cifar10", *TINY],
     None),
    ("err_cifar10_label", CIFAR_SCORE, None),
    ("err_cifar10_length", CIFAR_SCORE, None),
    ("err_index_range", ["score", "--opset", "2O", "--indices", "64", "--dataset", "synth",
                         *TINY], None),
    ("err_macro_cells", ["memcalc", "--opset", "2O", "--indices", "1,2,3,4"], None),
    ("err_memcalc_unread_flag", ["memcalc", "--opset", "2O", "--indices", "1",
                                 "--jobs", "2"], None),
    ("err_config_value", ["score", "--opset", "2O", "--indices", "40", "--dataset", "synth",
                          *TINY], {"no_bias": "false"}),
    ("err_config_seed", ["score", "--opset", "2O", "--indices", "40", "--dataset", "synth",
                         *TINY], {"seed": -1}),
    ("err_bits_no_budget", ["search", "--scenario", "1C2O", "--dataset", "synth",
                            "--bits", "0", *TINY], None),
    ("err_output_dir", ["search", "--scenario", "1C2O", "--dataset", "synth",
                        "--report-out", "missing/report.json", *TINY], None),
]

_WALL_JSON = re.compile(r'("wall_time_ms": )[0-9.eE+-]+')
_LAST_FIELD = re.compile(r",[^,\r\n]*(?=\r?\n?$)")


def _mask(text: str, work: Path) -> str:
    text = text.replace(str(work), "<work>")
    return _WALL_JSON.sub(r'\1"<masked>"', text)


def _mask_csv(text: str) -> str:
    """Blank the last column, wall_time_ms, of every data row."""
    header, *rows = text.splitlines(keepends=True)
    return header + "".join(_LAST_FIELD.sub(",<masked>", row) for row in rows)


def snapshot(out: Path, src: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("SPIKENAS_DATA_DIR", None)
    for name, argv, config in COMMANDS:
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp).resolve()
            for rel, raw in DATA_FILES.get(name, {}).items():
                (work / rel).parent.mkdir(exist_ok=True)
                (work / rel).write_bytes(raw)
            if config is not None:
                (work / "config.json").write_text(json.dumps(config), encoding="utf-8")
                argv = argv + ["--config", "config.json"]
            proc = subprocess.run([sys.executable, "-m", "spikenas.cli", *argv], cwd=work,
                                  env=env, capture_output=True, text=True)
            case = out / name
            case.mkdir(parents=True)
            (case / "stdout.txt").write_text(_mask(proc.stdout, work), encoding="utf-8")
            (case / "stderr.txt").write_text(_mask(proc.stderr, work), encoding="utf-8")
            (case / "exit_code.txt").write_text(f"{proc.returncode}\n", encoding="utf-8")
            for path in sorted(work.iterdir()):
                if path.name == "config.json" or not path.is_file():
                    continue
                text = _mask(path.read_bytes().decode("utf-8"), work)
                if path.suffix == ".csv":
                    text = _mask_csv(text)
                (case / path.name).write_bytes(text.encode("utf-8"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", type=Path, help="directory to write (must not exist)")
    parser.add_argument("--src", type=Path, default=SRC,
                        help="source tree holding the spikenas package")
    args = parser.parse_args()
    if args.out_dir.exists():
        parser.error(f"{args.out_dir} already exists")
    snapshot(args.out_dir, args.src.resolve())
    print(f"{len(COMMANDS)} commands written to {args.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
