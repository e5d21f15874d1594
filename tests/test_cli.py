import argparse
import json

import pytest

from oracles import REPORT_FIELDS, write_cifar10, write_cifar100
from spikenas.arch import MacroConfig, build_network, decode_cell, get_opset
from spikenas.cli import (
    PRESET_BUDGET_PARAMS,
    Scenario,
    _resolve_budget,
    _settings_from_args,
    build_parser,
    main,
    parse_scenario,
)
from spikenas.data import DATA_DIR_ENV, load_dataset, synth_dataset
from spikenas.errors import SpikeNasError
from spikenas.memmodel import MemoryBudget, count_network_params, footprint
from spikenas.snn import LIFParams
import spikenas
from spikenas import cli as cli_mod
from spikenas import report as report_mod

TINY = ["--stem-channels", "4", "--classes", "4", "--batch-size", "4",
        "--timesteps", "2"]


def _args(**kw):
    ns = argparse.Namespace()
    for key in ("config", "data_dir", "seed", "alpha", "timesteps", "batch_size",
                "jobs", "bits", "budget", "stem_channels", "width_mult", "classes",
                "no_bias", "code_mode", "input_coding", "carryover",
                "candidate_log"):
        setattr(ns, key, kw.get(key))
    return ns


class TestScenarioParsing:
    @pytest.mark.parametrize("name,cells,q,constrained", [
        ("1C2O", 1, 2, False),
        ("2C3O_M", 2, 3, True),
        ("3C5O", 3, 5, False),
        ("2C2O_M", 2, 2, True),
    ])
    def test_valid(self, name, cells, q, constrained):
        s = parse_scenario(name)
        assert s == Scenario(name, cells, q, constrained)

    MALFORMED = {
        "4C9O": "'4C9O': cell count must be 1..3, got 4",
        "0C2O": "'0C2O': cell count must be 1..3, got 0",
        "2C4O": r"'2C4O': no 4-operation preset \(choose from \[2, 3, 5\]\)",
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
        rc = main(["search", "--scenario", "4C9O", "--dataset", "synth"])
        assert rc == 1
        assert "cell count must be 1..3" in capsys.readouterr().err
        rc = main(["search", "--scenario", "bogus", "--dataset", "synth"])
        assert rc == 1
        assert "malformed scenario" in capsys.readouterr().err


class TestBudgetResolution:
    def test_presets(self):
        s = _settings_from_args(_args())
        c10 = _resolve_budget(parse_scenario("2C3O_M"), "cifar10", s)
        assert c10.max_params == PRESET_BUDGET_PARAMS["cifar10"] == 1_200_000
        c100 = _resolve_budget(parse_scenario("2C3O_M"), "cifar100", s)
        assert c100.max_params == PRESET_BUDGET_PARAMS["cifar100"] == 2_000_000

    def test_unconstrained_scenario_has_no_budget(self):
        s = _settings_from_args(_args())
        assert _resolve_budget(parse_scenario("1C2O"), "cifar10", s) is None

    def test_explicit_budget_overrides_preset(self):
        s = _settings_from_args(_args(budget=777))
        assert _resolve_budget(parse_scenario("2C3O_M"), "cifar10", s).max_params == 777

    def test_constrained_synth_requires_explicit_budget(self):
        s = _settings_from_args(_args())
        with pytest.raises(SpikeNasError, match="'synth' has no preset budget"):
            _resolve_budget(parse_scenario("1C2O_M"), "synth", s)


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
        s = _settings_from_args(_args(config=str(cfg)))
        assert s["lif"].v_threshold == 0.25
        assert s["lif"].timesteps == 3

    def test_no_bias_flag(self):
        s = _settings_from_args(_args(no_bias=True))
        assert not s["macro"].stem_bias and not s["macro"].fc_bias

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
        ({"code_mode": "sum"}, SCORE, "'code_mode': 'sum'"),
        ({"input_coding": "ttfs"}, SCORE, "'input_coding': 'ttfs'"),
        ({"carryover": "worst"}, SCORE, "'carryover'"),
        ({"timestep": 1}, SCORE, "unknown key(s) in config file"),
        ({"no_bias": "false"}, SCORE, "'no_bias': 'false'; expected true or false"),
        ({"no_bias": 1}, SCORE, "'no_bias'"),
        ({"seed": 1.9}, SCORE, "'seed': 1.9; expected an integer >= 0"),
        ({"seed": True}, SCORE, "'seed': True"),
        ({"alpha": "0.5"}, SCORE, "'alpha'"),
        ({"data_dir": None}, SCORE, "'data_dir'"),
        ({"iterations": 0}, ["random-search", "--scenario", "1C2O",
                             "--dataset", "synth"] + TINY, "'iterations'"),
        (None, SCORE + ["--seed", "-1"], "'seed': -1"),
        (None, SCORE + ["--batch-size", "0"], "'batch_size': 0"),
        (None, SCORE + ["--alpha", "nan"], "'alpha': nan; expected a finite number"),
        (None, ["search", "--scenario", "1C2O", "--dataset", "synth",
                "--alpha", "inf"] + TINY, "'alpha': inf"),
        (None, ["random-search", "--scenario", "1C2O", "--dataset", "synth",
                "--iterations", "0"] + TINY, "'iterations': 0"),
        (None, ["ablate", "--opset", "3O", "--cells", "1", "--remove", "zeroize",
                "--dataset", "synth", "--iterations", "0"] + TINY, "'iterations': 0"),
        (None, ["memcalc", "--opset", "2O", "--indices", "1", "--bits", "65"],
         "'bits': 65; expected an integer in 1..64"),
        # refused before the (absent) cifar10 data is looked for
        (None, ["ablate", "--opset", "2O", "--cells", "1", "--remove", "zeroize",
                "--dataset", "cifar10"] + TINY, "zeroize is not in operation set '2O'"),
        (None, ["ablate", "--opset", "2O", "--cells", "1", "--remove", "conv3x3",
                "--dataset", "cifar10"] + TINY,
         "removing conv3x3 leaves 1 operation(s); need at least 2 to search"),
        (None, ["ablate", "--opset", "3O", "--remove", "skipcon", "--cells", "4",
                "--dataset", "cifar10"] + TINY, "num_cells must be 1..3, got 4"),
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
        assert s["budget"] == MemoryBudget(900, 8)
        assert s["iterations"] == 7
        assert s["macro"] == MacroConfig(stem_channels=4, width_mult=3, num_classes=5)
        assert s["lif"] == LIFParams(3.0, 0.5, -0.5, 2)
        assert (s["code_mode"], s["input_coding"], s["carryover"]) == (
            "concat", "rate", "literal")


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

    def test_flag_values_pass_the_table_casts(self):
        args = build_parser().parse_args(
            ["memcalc", "--opset", "2O", "--indices", "1", "--no-bias", "--bits", "8"])
        assert (args.no_bias, args.bits) == (True, 8)
        s = _settings_from_args(args)
        assert s["bits"] == 8 and s["macro"] == MacroConfig().without_bias()
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
