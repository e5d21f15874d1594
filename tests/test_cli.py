import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from oracles import REPORT_FIELDS, write_cifar10, write_cifar100
from spikenas.arch import MacroConfig, build_network, decode_cell, get_opset
from spikenas.cli import (
    PRESET_BUDGET_PARAMS,
    Scenario,
    _run_config,
    _settings_from_args,
    build_parser,
    main,
    parse_scenario,
)
from spikenas.data import DATA_DIR_ENV, load_dataset, synth_dataset
from spikenas.errors import SpikeNasError
from spikenas.memmodel import MemoryBudget, count_network_params, footprint
from spikenas.search import CHOICES
from spikenas.snn import LIFParams
import spikenas
from spikenas import cli as cli_mod
from spikenas import data as data_mod
from spikenas import report as report_mod
from spikenas import score as score_mod

TINY = ["--stem-channels", "4", "--classes", "4", "--batch-size", "4",
        "--timesteps", "2"]


def _args(**kw):
    """Parsed arguments with every setting flag unset but those in `kw`; a `dataset`
    only if given, as a command without `--dataset` has none."""
    ns = argparse.Namespace()
    for key in ("config", "data_dir", "seed", "alpha", "timesteps", "batch_size",
                "jobs", "bits", "budget", "stem_channels", "width_mult", "classes",
                "no_bias", "code_mode", "input_coding", "carryover",
                "candidate_log"):
        setattr(ns, key, kw.get(key))
    if "dataset" in kw:
        ns.dataset = kw["dataset"]
    return ns


def _config(scenario="1C2O", **kw):
    """`_run_config`'s SearchConfig and bits for `scenario` and the settings in `kw`."""
    return _run_config(_args(**kw), parse_scenario(scenario))


class TestScenarioParsing:
    @pytest.mark.parametrize("name,cells,q,constrained", [
        ("1C2O", 1, 2, False),
        ("2C3O_M", 2, 3, True),
        ("3C5O", 3, 5, False),
        ("2C2O_M", 2, 2, True),
        ("4C2O", 4, 2, False),  # SearchConfig refuses the cell count
    ])
    def test_valid(self, name, cells, q, constrained):
        s = parse_scenario(name)
        assert s == Scenario(name, cells, get_opset(f"{q}O"), constrained)

    MALFORMED = {
        "4C9O": r"unknown operation set '9O'; expected one of \['2O', '3O', '5O'\]",
        "2C4O": r"unknown operation set '4O'; expected one of \['2O', '3O', '5O'\]",
        "2C3O_X": "malformed scenario '2C3O_X'",
        "cells2": "malformed scenario 'cells2'",
        "2C3O_M_M": "malformed scenario '2C3O_M_M'",
        "": "malformed scenario ''",
    }

    @pytest.mark.parametrize("name", list(MALFORMED))
    def test_malformed(self, name):
        with pytest.raises(SpikeNasError, match=self.MALFORMED[name]):
            parse_scenario(name)

    def test_cli_exit_code_on_parse_error(self, capsys):
        for name, cells in (("4C2O", 4), ("0C2O", 0)):
            rc = main(["search", "--scenario", name, "--dataset", "synth"])
            assert rc == 1
            err = capsys.readouterr().err
            assert err == f"error: cell count must be 1..3, got {cells}\n"
        rc = main(["search", "--scenario", "bogus", "--dataset", "synth"])
        assert rc == 1
        assert "malformed scenario" in capsys.readouterr().err


class TestBudgetResolution:
    @pytest.fixture
    def synth_load(self, monkeypatch):
        """`cli.load_dataset` answers every dataset with synthetic data."""
        monkeypatch.setattr(cli_mod, "load_dataset", lambda *a, **kw: synth_dataset(2, 10, 0))

    def test_presets(self, synth_load):
        c10, _ = _config("2C3O_M", dataset="cifar10")
        assert c10.budget == MemoryBudget(PRESET_BUDGET_PARAMS["cifar10"], 32)
        assert c10.budget.max_params == 1_200_000
        c100, _ = _config("2C3O_M", dataset="cifar100")
        assert c100.budget.max_params == PRESET_BUDGET_PARAMS["cifar100"] == 2_000_000

    def test_unconstrained_scenario_has_no_budget(self, synth_load):
        assert _config("1C2O", dataset="cifar10")[0].budget is None

    def test_explicit_budget_overrides_preset(self, synth_load):
        assert _config("2C3O_M", dataset="cifar10", budget=777)[0].budget.max_params == 777

    def test_constrained_synth_requires_explicit_budget(self):
        with pytest.raises(SpikeNasError, match="'synth' has no preset budget"):
            _config("1C2O_M", dataset="synth")

    @pytest.mark.parametrize("file_cfg, flags, budget", [
        ({"budget": 5000}, [], MemoryBudget(5000, 32)),
        ({"budget": 5000}, ["--bits", "8"], MemoryBudget(5000, 8)),
        ({"bits": 8}, [], MemoryBudget(1_200_000, 8)),
        ({"bits": 8}, ["--bits", "4"], MemoryBudget(1_200_000, 4)),
    ], ids=["file-budget", "file-budget-flag-bits", "file-bits", "flag-bits"])
    def test_report_budget_of_a_constrained_search(self, tmp_path, capsys, file_cfg,
                                                   flags, budget):
        # a file-set budget beats the preset as a flag does; the preset holds `bits`
        write_cifar10(tmp_path / "data_batch_1.bin", synth_dataset(8, 10, 1))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(file_cfg))
        argv = ["search", "--scenario", "1C2O_M", "--dataset", "cifar10", "--data-dir",
                str(tmp_path), "--config", str(cfg), *flags] + TINY
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["budget"] == {"max_params": budget.max_params,
                                 "bit_precision": budget.bit_precision}


class TestSettingsPrecedence:
    def test_flag_beats_file_beats_env(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"data_dir": "/from/file", "seed": 5}))
        env_dir = tmp_path / "env"
        env_dir.mkdir()
        write_cifar10(env_dir / "data_batch_1.bin", synth_dataset(12, 10, 5))
        monkeypatch.setenv(DATA_DIR_ENV, str(env_dir))

        flag = _settings_from_args(_args(config=str(cfg), data_dir="/from/flag"))
        assert flag["data_dir"] == "/from/flag"

        file_only = _settings_from_args(_args(config=str(cfg)))
        assert file_only["data_dir"] == "/from/file"
        assert file_only["seed"] == 5

        # an unset data_dir leaves the environment to the loader
        env_only = _settings_from_args(_args())
        assert env_only["data_dir"] is None
        assert env_only["seed"] == 0
        assert len(load_dataset("cifar10", env_only["data_dir"]).labels) == 12

    def test_lif_settings_from_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"v_threshold": 0.25, "timesteps": 3}))
        lif = _config(config=str(cfg))[0].lif
        assert lif.v_threshold == 0.25
        assert lif.timesteps == 3

    def test_no_bias_flag(self):
        assert _settings_from_args(_args(no_bias=True))["no_bias"] is True
        assert not _config(no_bias=True)[0].macro.bias

    def test_bad_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        with pytest.raises(SpikeNasError, match="must hold a JSON object"):
            _settings_from_args(_args(config=str(cfg)))
        cfg.write_text("{broken")
        with pytest.raises(SpikeNasError, match="cannot read config file"):
            _settings_from_args(_args(config=str(cfg)))


SCORE = ["score", "--opset", "2O", "--indices", "40", "--dataset", "synth"] + TINY


class TestStrictSettings:
    @pytest.mark.parametrize("file_cfg,argv,message", [
        ({"code_mode": "sum"}, SCORE, "unknown code_mode 'sum'"),
        ({"input_coding": "ttfs"}, SCORE, "unknown input_coding 'ttfs'"),
        ({"carryover": "worst"}, SCORE, "unknown carryover 'worst'"),
        ({"code_mode": 1}, SCORE, "'code_mode': 1; expected a string"),
        ({"timestep": 1}, SCORE, "unknown key(s) in config file"),
        ({"no_bias": "false"}, SCORE, "'no_bias': 'false'; expected true or false"),
        ({"no_bias": 1}, SCORE, "'no_bias'"),
        ({"seed": 1.9}, SCORE, "'seed': 1.9; expected an integer"),
        ({"seed": -1}, ["memcalc", "--opset", "2O", "--indices", "1"],
         "seed must be non-negative, got -1"),
        ({"seed": True}, SCORE, "'seed': True"),
        ({"alpha": "0.5"}, SCORE, "'alpha'"),
        ({"data_dir": None}, SCORE, "'data_dir'"),
        ({"iterations": 0}, ["random-search", "--scenario", "1C2O",
                             "--dataset", "synth"] + TINY,
         "iterations must be >= 1, got 0"),
        (None, SCORE + ["--seed", "-1"], "seed must be non-negative, got -1"),
        (None, SCORE + ["--batch-size", "0"], "batch_size must be >= 2, got 0"),
        (None, SCORE + ["--alpha", "nan"], "alpha must be a finite number, got nan"),
        (None, ["search", "--scenario", "1C2O", "--dataset", "synth",
                "--alpha", "inf"] + TINY, "alpha must be a finite number, got inf"),
        (None, ["random-search", "--scenario", "1C2O", "--dataset", "synth",
                "--iterations", "0"] + TINY, "iterations must be >= 1, got 0"),
        (None, ["ablate", "--opset", "3O", "--cells", "1", "--remove", "avgpool3x3",
                "--dataset", "synth", "--iterations", "0"] + TINY,
         "iterations must be >= 1, got 0"),
        (None, ["memcalc", "--opset", "2O", "--indices", "1", "--bits", "65"],
         "bit_precision must be in 1..64, got 65"),
        # refused before the (absent) cifar10 data is looked for
        (None, ["ablate", "--opset", "2O", "--cells", "1", "--remove", "zeroize",
                "--dataset", "cifar10"] + TINY, "zeroize is not in operation set '2O'"),
        (None, ["ablate", "--opset", "2O", "--cells", "1", "--remove", "conv3x3",
                "--dataset", "cifar10"] + TINY,
         "removing conv3x3 leaves 1 operation(s); need at least 2 to search"),
        (None, ["ablate", "--opset", "3O", "--remove", "skipcon", "--cells", "4",
                "--dataset", "cifar10"] + TINY, "cell count must be 1..3, got 4"),
    ])
    def test_bad_setting_is_a_clean_error(self, tmp_path, capsys, file_cfg, argv,
                                          message):
        if file_cfg is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(file_cfg))
            argv = argv + ["--config", str(cfg)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert message in err

    def test_every_table_key_is_accepted_from_a_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "data_dir": "/d", "seed": 3, "alpha": 2, "batch_size": 8, "jobs": 2,
            "bits": 8, "budget": 900, "iterations": 7, "stem_channels": 4,
            "width_mult": 3, "classes": 5, "no_bias": False, "tau_leak": 3,
            "v_threshold": 0.5, "v_reset": -0.5, "timesteps": 2,
            "code_mode": "concat", "input_coding": "rate", "carryover": "literal",
        }))
        s = _settings_from_args(_args(config=str(cfg)))
        assert s["alpha"] == 2.0 and type(s["alpha"]) is float
        assert (s["budget"], s["bits"], s["iterations"]) == (900, 8, 7)
        run, bits = _config(config=str(cfg))
        assert bits == 8 and run.budget == MemoryBudget(900, 8)
        assert (run.seed, run.alpha, run.batch_size, run.jobs, run.iterations) == (
            3, 2.0, 8, 2, 7)
        assert run.macro == MacroConfig(stem_channels=4, width_mult=3, num_classes=5)
        assert run.lif == LIFParams(3.0, 0.5, -0.5, 2)
        assert (run.code_mode, run.input_coding, run.carryover) == (
            "concat", "rate", "literal")


# One out-of-range value of each ranged setting, and the start of the message of the
# record that checks it: SearchConfig, MacroConfig, LIFParams, MemoryBudget, or
# memmodel.footprint for `bits`.
OUT_OF_RANGE = [
    ("seed", -1, "seed must be non-negative, got -1"),
    ("alpha", float("inf"), "alpha must be a finite number, got inf"),
    ("batch_size", 1, "batch_size must be >= 2, got 1"),
    ("jobs", 0, "jobs must be >= 1, got 0"),
    ("bits", 0, "bit_precision must be in 1..64, got 0"),
    ("budget", 0, "max_params must be >= 1, got 0"),
    ("iterations", 0, "iterations must be >= 1, got 0"),
    ("stem_channels", 0, "widths and class count must be positive: stem=0,"),
    ("width_mult", 0, "widths and class count must be positive: stem=64, mult=0,"),
    ("classes", 0, "widths and class count must be positive: stem=64, mult=2, classes=0"),
    ("tau_leak", 0.5, "tau_leak must be >= 1, got 0.5"),
    ("v_threshold", -1.0, "v_threshold (-1.0) must exceed v_reset (0.0)"),
    ("v_reset", 1.0, "v_threshold (1.0) must exceed v_reset (1.0)"),
    ("timesteps", 0, "timesteps must be >= 1, got 0"),
    ("code_mode", "sum", "unknown code_mode 'sum'"),
    ("input_coding", "ttfs", "unknown input_coding 'ttfs'"),
    ("carryover", "worst", "unknown carryover 'worst'"),
]
# The commands that read a dataset, on cifar10 files that are not there.
DATA_COMMANDS = {
    "search": ["search", "--scenario", "1C2O", "--dataset", "cifar10"],
    "random-search": ["random-search", "--scenario", "1C2O", "--dataset", "cifar10"],
    "ablate": ["ablate", "--opset", "3O", "--remove", "avgpool3x3", "--dataset", "cifar10"],
    "score": ["score", "--opset", "2O", "--indices", "4", "--dataset", "cifar10"],
}

# The settings each of them takes as flags, but the choice flags: they take only their
# choices, so a choice's value is given by file alone.
_SUBCOMMANDS = next(a for a in build_parser()._actions if a.dest == "command").choices
_BY_FLAG = {command: {a.dest for a in _SUBCOMMANDS[command]._actions} - set(CHOICES)
            for command in DATA_COMMANDS}
# Every row for every data command, by file, and by flag where the command has one.
REFUSALS = [pytest.param(command, via, *row, id=f"{command}-{row[0]}-{via}")
            for command in DATA_COMMANDS for row in OUT_OF_RANGE for via in ("flag", "file")
            if via == "file" or row[0] in _BY_FLAG[command]]


class TestRangesCheckedByRecords:
    """Each out-of-range setting is one `error:` line from the record that holds its
    range, before any data file is opened."""

    @pytest.fixture
    def no_data(self, monkeypatch):
        monkeypatch.delenv(DATA_DIR_ENV, raising=False)

        def fail(*args, **kwargs):
            raise AssertionError("a data file was opened despite a bad setting")
        monkeypatch.setattr(cli_mod, "load_dataset", fail)

    def test_table_names_every_ranged_setting(self):
        ranged = {row[0] for row in cli_mod.SETTINGS} - {"data_dir", "no_bias"}
        assert [key for key, _, _ in OUT_OF_RANGE] == [
            row[0] for row in cli_mod.SETTINGS if row[0] in ranged]

    @pytest.mark.parametrize("command, via, key, value, message", REFUSALS)
    def test_refused_before_the_data(self, tmp_path, capsys, no_data, command, via, key,
                                     value, message):
        # without --budget, so a bad `bits` has no MemoryBudget to check it
        argv = list(DATA_COMMANDS[command])
        if via == "flag":
            argv += ["--" + key.replace("_", "-"), str(value)]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({key: value}))
            argv += ["--config", str(cfg)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: " + message) and err.count("\n") == 1, err

    @pytest.mark.parametrize("value, message", [
        (0, "iterations must be >= 1, got 0"),
        (2.5, "bad value for 'iterations': 2.5; expected an integer"),
        (True, "bad value for 'iterations': True; expected an integer"),
    ])
    @pytest.mark.parametrize("command", [
        *DATA_COMMANDS.values(), ["memcalc", "--opset", "2O", "--indices", "4"],
    ], ids=[*DATA_COMMANDS, "memcalc"])
    def test_iterations_in_a_file_refused_by_every_command(self, tmp_path, capsys, no_data,
                                                           command, value, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"iterations": value}))
        assert main(command + ["--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("via", ["flag", "file"])
    @pytest.mark.parametrize("command", [
        ["random-search", "--scenario", "1C2O"],
        ["ablate", "--opset", "3O", "--cells", "1", "--remove", "avgpool3x3"],
    ], ids=["random-search", "ablate"])
    def test_iterations_refused_before_any_candidate(self, tmp_path, monkeypatch,
                                                     capsys, via, command):
        def fail(*args, **kwargs):
            raise AssertionError("a candidate was scored despite a bad iterations")
        monkeypatch.setattr(score_mod, "score_candidate", fail)
        argv = command + ["--dataset", "synth"] + TINY
        if via == "flag":
            argv += ["--iterations", "0"]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"iterations": 0}))
            argv += ["--config", str(cfg)]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: iterations must be >= 1, got 0\n"


MACRO_FLAGS = {"--config", "--stem-channels", "--width-mult", "--classes", "--no-bias"}
SCORE_FLAGS = MACRO_FLAGS | {"--data-dir", "--seed", "--alpha", "--batch-size",
                             "--timesteps", "--code-mode", "--input-coding"}
SEARCH_FLAGS = SCORE_FLAGS | {"--jobs", "--bits", "--budget", "--carryover",
                              "--report-out", "--candidate-log", "--table-out"}


class TestFlagsFromTable:
    @pytest.mark.parametrize("command, extra", [
        ("search", SEARCH_FLAGS | {"--scenario", "--dataset"}),
        ("random-search", SEARCH_FLAGS | {"--scenario", "--dataset", "--iterations"}),
        ("ablate", SEARCH_FLAGS | {"--opset", "--cells", "--remove", "--dataset",
                                   "--strategy", "--iterations"}),
        ("score", SCORE_FLAGS | {"--opset", "--indices", "--dataset", "--dump-kernels"}),
        ("memcalc", MACRO_FLAGS | {"--opset", "--indices", "--bits"}),
    ])
    def test_each_command_has_its_flags(self, command, extra):
        sub = next(a for a in build_parser()._actions if a.dest == "command")
        flags = {opt for action in sub.choices[command]._actions
                 for opt in action.option_strings if opt.startswith("--")}
        # the LIF constants are config-file keys only; each command takes
        # only the flags it reads
        assert flags - {"--help"} == extra

    def test_search_and_random_search_share_their_flags(self):
        sub = next(a for a in build_parser()._actions if a.dest == "command")

        def helps(command):
            return {a.dest: a.help for a in sub.choices[command]._actions
                    if a.dest != "iterations"}
        assert helps("random-search") == helps("search")
        assert helps("search")["scenario"] == "pCqO or pCqO_M"

    def test_flag_values_pass_the_table_casts(self):
        args = build_parser().parse_args(
            ["memcalc", "--opset", "2O", "--indices", "1", "--no-bias", "--bits", "8"])
        assert (args.no_bias, args.bits) == (True, 8)
        s = _settings_from_args(args)
        assert (s["bits"], s["no_bias"]) == (8, True)
        assert _run_config(args, Scenario("", 1, get_opset("2O"), False))[0].macro == (
            MacroConfig().without_bias())
        args = build_parser().parse_args(
            SCORE + ["--alpha", "2", "--code-mode", "concat"])
        assert (args.alpha, args.code_mode) == (2.0, "concat")
        s = _settings_from_args(args)
        assert s["alpha"] == 2.0 and s["code_mode"] == "concat"

    @pytest.mark.parametrize("argv", [
        ["memcalc", "--opset", "2O", "--indices", "1", "--jobs", "2"],
        ["memcalc", "--opset", "2O", "--indices", "1", "--seed", "3"],
        SCORE + ["--jobs", "2"],
        SCORE + ["--bits", "8"],
        SCORE + ["--carryover", "literal"],
    ], ids=["memcalc-jobs", "memcalc-seed", "score-jobs", "score-bits", "score-carryover"])
    def test_unread_flag_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_readme_config_table_lists_every_setting(self):
        # the rows of README's table of config-file keys, in the table's order;
        # a set default is written bare if a number, else as JSON in backticks
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme.split("It accepts exactly these keys:", 1)[1].split("\n\n")[1]
        rows = re.findall(r"^\| `(\w+)` \| .* \| (.*) \|$", table, flags=re.M)
        assert [key for key, _ in rows] == [row[0] for row in cli_mod.SETTINGS]
        for (key, cell), (_, _, default, _) in zip(rows, cli_mod.SETTINGS):
            if default is not None:
                want = (f"`{json.dumps(default)}`" if isinstance(default, (str, bool))
                        else str(default))
                assert cell == want, key

    def test_any_config_key_is_accepted_by_memcalc(self, tmp_path, capsys):
        # one file can serve both a search and a memcalc run
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"jobs": 2, "carryover": "literal", "seed": 3,
                                   "timesteps": 9, "bits": 8}))
        assert main(["memcalc", "--opset", "2O", "--indices", "1",
                     "--config", str(cfg)]) == 0
        assert "mem_bits=" in capsys.readouterr().out


class TestEnumerate:
    def test_two_op_set_prints_64_lines(self, capsys):
        assert main(["enumerate", "--opset", "2O"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 64
        assert lines[0] == "0\tskipcon,skipcon,skipcon,skipcon,skipcon,skipcon"
        assert lines[63] == "63\tconv3x3,conv3x3,conv3x3,conv3x3,conv3x3,conv3x3"

    def test_unknown_opset_is_usage_error(self):
        with pytest.raises(SystemExit):
            main(["enumerate", "--opset", "7O"])


def _cli_process(argv, stdout):
    """The CLI in a fresh interpreter on this package, its stderr piped."""
    src = str(Path(spikenas.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.Popen([sys.executable, "-m", "spikenas.cli", *argv], stdout=stdout,
                            stderr=subprocess.PIPE, env=env)


def _assert_stdout_error(proc):
    """Exit 1 after exactly one `error: cannot write standard output` stderr line."""
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 1, err
    lines = err.splitlines()
    assert len(lines) == 1, err
    assert lines[0].startswith("error: cannot write standard output: "), err


class TestFailedStandardOutput:
    def test_pipe_closed_after_one_line(self):
        proc = _cli_process(["enumerate", "--opset", "5O"], subprocess.PIPE)
        with proc.stderr:
            assert proc.stdout.readline() == b"0\t" + b",".join([b"zeroize"] * 6) + b"\n"
            proc.stdout.close()
            _assert_stdout_error(proc)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    @pytest.mark.parametrize("argv", [["enumerate", "--opset", "2O"],
                                      ["memcalc", "--opset", "2O", "--indices", "0"],
                                      ["--help"], ["search", "--help"]],
                             ids=["enumerate", "memcalc", "help", "search-help"])
    def test_full_device(self, argv):
        with open("/dev/full", "wb") as full:
            proc = _cli_process(argv, full)
        with proc.stderr:
            _assert_stdout_error(proc)


class TestMemcalc:
    def test_matches_library_call(self, capsys):
        assert main(["memcalc", "--opset", "3O", "--indices", "5,17",
                     "--stem-channels", "8", "--bits", "8"]) == 0
        out = capsys.readouterr().out.strip()
        fields = dict(kv.split("=") for kv in out.split())
        opset = get_opset("3O")
        net = build_network([decode_cell(5, opset), decode_cell(17, opset)],
                            MacroConfig(stem_channels=8))
        n = count_network_params(net)
        fp = footprint(n, 8)
        assert int(fields["n_param"]) == n
        assert int(fields["mem_bits"]) == fp.bits
        assert int(fields["mem_bytes"]) == fp.bytes

    def test_all_skip_cell_counts_skeleton_only(self, capsys):
        main(["memcalc", "--opset", "2O", "--indices", "0",
              "--stem-channels", "16"])
        out = capsys.readouterr().out.strip()
        n = int(dict(kv.split("=") for kv in out.split())["n_param"])
        stem = 3 * 3 * 3 * 16 + 16
        fc = 16 * 10 + 10
        assert n == stem + fc

    def test_bits_flag_scales_bytes(self, capsys):
        main(["memcalc", "--opset", "2O", "--indices", "0", "--bits", "8"])
        low = dict(kv.split("=") for kv in capsys.readouterr().out.strip().split())
        main(["memcalc", "--opset", "2O", "--indices", "0", "--bits", "16"])
        high = dict(kv.split("=") for kv in capsys.readouterr().out.strip().split())
        assert 2 * int(low["mem_bytes"]) == int(high["mem_bytes"])

    def test_bad_indices(self, capsys):
        assert main(["memcalc", "--opset", "2O", "--indices", "64"]) == 1
        assert "outside" in capsys.readouterr().err


class TestScoreCommand:
    def test_same_seed_identical_output(self, capsys):
        argv = ["score", "--opset", "2O", "--indices", "40", "--dataset", "synth",
                "--seed", "3"] + TINY
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert set(payload) == {"score", "singular", "n_param", "seed"}

    def test_kernel_dump_written(self, tmp_path, capsys):
        dump = tmp_path / "kernels.txt"
        argv = ["score", "--opset", "2O", "--indices", "40", "--dataset", "synth",
                "--dump-kernels", str(dump)] + TINY
        assert main(argv) == 0
        capsys.readouterr()
        text = dump.read_text()
        assert text.startswith("# layer stem")
        assert "# sum" in text


def _run_search(tmp_path, capsys, *extra, scenario="1C2O", seed="42"):
    report_path = tmp_path / "report.json"
    argv = ["search", "--scenario", scenario, "--dataset", "synth",
            "--seed", seed, "--report-out", str(report_path)] + TINY + list(extra)
    rc = main(argv)
    capsys.readouterr()
    assert rc == 0
    return json.loads(report_path.read_text())


class TestSearchCommand:
    def test_writes_schema_stable_report(self, tmp_path, capsys):
        doc = _run_search(tmp_path, capsys)
        assert doc["scenario"] == "1C2O"
        assert doc["dataset"] == "synth"
        assert doc["opset"] == "2O"
        assert doc["cells"] == 1
        assert doc["budget"] is None
        assert doc["evaluations_total"] == 64
        assert doc["engine_version"] == spikenas.__version__
        assert set(doc) == set(REPORT_FIELDS)
        assert set(doc["best_arch"]) == {"cell_indices", "opset", "macro"}

    def test_report_round_trips(self, tmp_path, capsys):
        doc = _run_search(tmp_path, capsys)
        text = (tmp_path / "report.json").read_text()
        assert report_mod.to_json(doc) + "\n" == text

    def test_stdout_when_no_report_file(self, capsys):
        argv = ["search", "--scenario", "1C2O", "--dataset", "synth"] + TINY
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"] == "1C2O"

    def test_candidate_log_and_table(self, tmp_path, capsys):
        log = tmp_path / "cands.ndjson"
        table = tmp_path / "runs.csv"
        _run_search(tmp_path, capsys, "--candidate-log", str(log),
                    "--table-out", str(table))
        lines = log.read_text().strip().splitlines()
        assert len(lines) == 64
        rec = json.loads(lines[0])
        assert set(rec) == {"phase", "index", "n_param", "feasible", "score",
                            "singular"}
        _run_search(tmp_path, capsys, "--table-out", str(table), seed="43")
        rows = table.read_text().strip().splitlines()
        assert rows[0].startswith("scenario,")
        assert len(rows) == 3  # header + two runs

    def test_constrained_scenario_on_synth_needs_budget(self, capsys):
        argv = ["search", "--scenario", "1C2O_M", "--dataset", "synth"] + TINY
        assert main(argv) == 1
        assert "budget" in capsys.readouterr().err

    def test_explicit_budget_respected(self, tmp_path, capsys):
        doc = _run_search(tmp_path, capsys, "--budget", "2000",
                          scenario="1C2O_M")
        assert doc["budget"]["max_params"] == 2000
        assert doc["n_param"] <= 2000
        assert doc["evaluations_total"] + doc["evaluations_skipped"] == 64

    def test_infeasible_budget_fails_cleanly(self, capsys):
        argv = ["search", "--scenario", "1C2O_M", "--dataset", "synth",
                "--budget", "10"] + TINY
        assert main(argv) == 1
        assert "budget" in capsys.readouterr().err.lower()


class TestRandomSearchCommand:
    def test_runs_with_few_iterations(self, capsys):
        argv = ["random-search", "--scenario", "1C2O", "--dataset", "synth",
                "--iterations", "5", "--seed", "1"] + TINY
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["strategy"] == "random"
        assert payload["iterations"] == 5
        assert payload["evaluations_total"] + payload["evaluations_skipped"] == 5


class TestAblateCommand:
    def test_removes_operation_and_labels_report(self, capsys):
        argv = ["ablate", "--opset", "3O", "--cells", "1", "--remove",
                "avgpool3x3", "--dataset", "synth", "--strategy", "random",
                "--iterations", "4"] + TINY
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["removed_op"] == "avgpool3x3"
        assert payload["opset"] == "3O-avgpool3x3"

    def test_removing_zeroize_from_five_set(self, capsys):
        argv = ["ablate", "--opset", "5O", "--cells", "1", "--remove", "zeroize",
                "--dataset", "synth", "--strategy", "random",
                "--iterations", "3"] + TINY
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["removed_op"] == "zeroize"
        assert payload["opset"] == "5O-zeroize"
        assert max(payload["best_arch"]["cell_indices"]) < 4 ** 6

    def test_too_small_opset_fails(self, capsys):
        argv = ["ablate", "--opset", "2O", "--cells", "1", "--remove", "conv3x3",
                "--dataset", "synth"] + TINY
        assert main(argv) == 1
        assert "at least 2" in capsys.readouterr().err


class TestRealDataPath:
    def test_search_reads_written_binary_files(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        write_cifar10(data_dir / "data_batch_1.bin", synth_dataset(48, 10, 5))
        report_path = tmp_path / "r.json"
        argv = ["search", "--scenario", "1C2O", "--dataset", "cifar10",
                "--data-dir", str(data_dir), "--seed", "2",
                "--report-out", str(report_path)] + TINY
        assert main(argv) == 0
        capsys.readouterr()
        doc = json.loads(report_path.read_text())
        assert doc["dataset"] == "cifar10"
        assert doc["evaluations_total"] == 64


def _rewrite_same_size(path):
    """Other records of the same size in `path`, with a modification time a second on."""
    before = path.stat()
    write_cifar10(path, synth_dataset(8, 10, 6))
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns + 10**9))


class TestCleanErrors:
    """Failures past the argument checks still end in `error: ...` and exit 1."""

    def test_unreadable_dataset_file(self, tmp_path, monkeypatch, capsys):
        write_cifar10(tmp_path / "data_batch_1.bin", synth_dataset(8, 10, 5))

        def refuse(path, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(path))
        monkeypatch.setattr(data_mod, "open", refuse, raising=False)
        argv = ["score", "--opset", "2O", "--indices", "4", "--dataset", "cifar10",
                "--data-dir", str(tmp_path)] + TINY
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: cannot read ")

    @pytest.mark.parametrize("command", [
        ["search", "--scenario", "1C2O"],
        ["score", "--opset", "2O", "--indices", "4"],
    ], ids=["search", "score"])
    @pytest.mark.parametrize("change, message", [
        (lambda f: f.write_bytes(f.read_bytes()[:-3073]), "bytes, not the 24584 it had"),
        (lambda f: f.unlink(), "cannot read "),
        (_rewrite_same_size, "was modified after the dataset was loaded"),
    ], ids=["shrinks", "vanishes", "rewritten"])
    def test_dataset_file_changed_after_load(self, tmp_path, monkeypatch, capsys,
                                             command, change, message):
        # a file that shrinks, vanishes or is rewritten between the load and
        # the batch draw is named in one error line, not read as mixed records
        batch = tmp_path / "data_batch_1.bin"
        write_cifar10(batch, synth_dataset(8, 10, 5))

        def load_then_change(*args, **kwargs):
            dataset = load_dataset(*args, **kwargs)
            change(batch)
            return dataset
        monkeypatch.setattr(cli_mod, "load_dataset", load_then_change)
        argv = command + ["--dataset", "cifar10", "--data-dir", str(tmp_path)] + TINY
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err and str(batch) in err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv", [
        ["search", "--scenario", "1C2O", "--dataset", "synth", "--report-out"],
        ["search", "--scenario", "1C2O", "--dataset", "synth", "--candidate-log"],
        ["search", "--scenario", "1C2O", "--dataset", "synth", "--table-out"],
        ["score", "--opset", "2O", "--indices", "4", "--dataset", "synth",
         "--dump-kernels"],
    ], ids=["report-out", "candidate-log", "table-out", "dump-kernels"])
    def test_output_write_fails_after_the_work(self, capsys, argv):
        # /dev/full passes the up-front path check, then refuses every write
        assert main(argv + ["/dev/full"] + TINY) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "/dev/full" in err

    @pytest.mark.parametrize("argv, alpha", [
        (["random-search", "--scenario", "1C3O", "--iterations", "20", "--batch-size", "16",
          "--alpha", "1e306"], "1e+306"),
        (["score", "--opset", "2O", "--indices", "63", "--alpha", "1e308"], "1e+308"),
    ], ids=["random-search", "score"])
    def test_overflowing_alpha(self, capsys, recwarn, argv, alpha):
        # a finite alpha whose kernel overflows is one error line, not a warning and
        # a singular score
        argv = argv + ["--dataset", "synth", "--stem-channels", "4", "--timesteps", "2"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: alpha {alpha} is too large: the score overflows\n"
        assert captured.out == "" and not recwarn.list

    @pytest.mark.parametrize("message, printed", [
        ("Unable to allocate 7.28 TiB", "Unable to allocate 7.28 TiB"),
        ("", "out of memory"),
    ])
    def test_memory_error(self, monkeypatch, capsys, message, printed):
        def exhaust(*args, **kwargs):
            raise MemoryError(message)
        monkeypatch.setattr(cli_mod, "search_random", exhaust)
        argv = ["random-search", "--scenario", "1C2O", "--dataset", "synth"] + TINY
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {printed}\n"


class TestOutputPathsCheckedFirst:
    """A bad output path is refused before any search or scoring runs."""

    @pytest.fixture(autouse=True)
    def _no_work(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("work started despite a bad output path")
        for name in ("search_memory_aware", "search_random", "ablate_operation",
                     "score_candidate"):
            monkeypatch.setattr(cli_mod, name, fail)

    @pytest.mark.parametrize("command, flag", [
        (["search", "--scenario", "1C2O"], "--report-out"),
        (["search", "--scenario", "1C2O"], "--candidate-log"),
        (["random-search", "--scenario", "1C2O"], "--table-out"),
        (["ablate", "--opset", "3O", "--remove", "conv3x3"], "--report-out"),
        (["score", "--opset", "2O", "--indices", "40"], "--dump-kernels"),
    ])
    def test_missing_directory(self, capsys, command, flag):
        argv = command + ["--dataset", "synth", flag, "/nonexistent/out.txt"] + TINY
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag in err and "/nonexistent" in err

    def test_directory_given_as_file(self, tmp_path, capsys):
        argv = ["search", "--scenario", "1C2O", "--dataset", "synth",
                "--report-out", str(tmp_path)] + TINY
        assert main(argv) == 1
        assert "is a directory" in capsys.readouterr().err

    def test_two_flags_naming_one_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        argv = ["search", "--scenario", "1C2O", "--dataset", "synth",
                "--report-out", "same.json", "--candidate-log", "same.json"] + TINY
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: --report-out and --candidate-log name the same file same.json\n")
        assert not (tmp_path / "same.json").exists()

    def test_one_file_spelled_relative_and_absolute(self, tmp_path, monkeypatch,
                                                    capsys):
        monkeypatch.chdir(tmp_path)
        absolute = str(tmp_path / "runs.csv")
        argv = ["random-search", "--scenario", "1C2O", "--dataset", "synth",
                "--table-out", "runs.csv", "--report-out", absolute] + TINY
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --report-out and --table-out name the same file")


class TestClassesFromDataset:
    """An unset `classes` follows the dataset; memcalc, with none, keeps 10."""

    ALL_SKIP = ["--opset", "2O", "--indices", "0", "--stem-channels", "4"]

    def _n_param(self, capsys, argv):
        assert main(argv) == 0
        out = capsys.readouterr().out
        if out.startswith("{"):
            return json.loads(out)["n_param"]
        return int(dict(kv.split("=") for kv in out.split())["n_param"])

    @pytest.fixture
    def cifar100_dir(self, tmp_path):
        write_cifar100(tmp_path / "train.bin", synth_dataset(32, 100, 3))
        return str(tmp_path)

    def test_cifar100_default_is_100_classes(self, capsys, cifar100_dir):
        argv = ["score", *self.ALL_SKIP, "--dataset", "cifar100",
                "--data-dir", cifar100_dir]
        # stem 3*3*3*4 + 4, classifier 4*100 + 100
        assert self._n_param(capsys, argv) == 612

    def test_explicit_classes_win(self, capsys, cifar100_dir):
        argv = ["score", *self.ALL_SKIP, "--dataset", "cifar100",
                "--data-dir", cifar100_dir, "--classes", "10"]
        assert self._n_param(capsys, argv) == 162

    def test_synth_and_memcalc_keep_10(self, capsys):
        assert self._n_param(capsys, ["score", *self.ALL_SKIP, "--dataset", "synth"]) == 162
        assert self._n_param(capsys, ["memcalc", *self.ALL_SKIP]) == 162
