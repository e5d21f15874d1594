import argparse
import json

import pytest

from spikenas.arch import MacroConfig, build_network, decode_cell, get_opset
from spikenas.cli import (
    PRESET_BUDGET_PARAMS,
    Scenario,
    _resolve_budget,
    _settings_from_args,
    main,
    parse_scenario,
    scenario_name,
)
from spikenas.data import DATA_DIR_ENV, synth_dataset, write_cifar10
from spikenas.errors import ConfigError
from spikenas.memmodel import MemoryBudget, count_network_params, footprint
from spikenas.snn import LIFParams
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
        assert scenario_name(cells, q, constrained) == name

    @pytest.mark.parametrize("name", ["4C9O", "0C2O", "2C4O", "2C3O_X", "cells2",
                                      "2C3O_M_M", ""])
    def test_malformed(self, name):
        with pytest.raises(ConfigError):
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
        with pytest.raises(ConfigError):
            _resolve_budget(parse_scenario("1C2O_M"), "synth", s)


class TestSettingsPrecedence:
    def test_flag_beats_file_beats_env(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"data_dir": "/from/file", "seed": 5}))
        monkeypatch.setenv(DATA_DIR_ENV, "/from/env")

        flag = _settings_from_args(_args(config=str(cfg), data_dir="/from/flag"))
        assert flag["data_dir"] == "/from/flag"

        file_only = _settings_from_args(_args(config=str(cfg)))
        assert file_only["data_dir"] == "/from/file"
        assert file_only["seed"] == 5

        env_only = _settings_from_args(_args())
        assert env_only["data_dir"] == "/from/env"

        monkeypatch.delenv(DATA_DIR_ENV)
        default = _settings_from_args(_args())
        assert default["data_dir"] is None
        assert default["seed"] == 0

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
        with pytest.raises(ConfigError):
            _settings_from_args(_args(config=str(cfg)))
        cfg.write_text("{broken")
        with pytest.raises(ConfigError):
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
        (None, SCORE + ["--bits", "65"], "'bits': 65; expected an integer in 1..64"),
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
    return report_mod.read_report(report_path)


class TestSearchCommand:
    def test_writes_schema_stable_report(self, tmp_path, capsys):
        doc = _run_search(tmp_path, capsys)
        assert doc.scenario == "1C2O"
        assert doc.dataset == "synth"
        assert doc.opset == "2O"
        assert doc.cells == 1
        assert doc.budget is None
        assert doc.evaluations_total == 64
        assert doc.engine_version == report_mod.ENGINE_VERSION
        raw = json.loads(report_mod.to_json(doc))
        assert set(raw) == set(report_mod.REPORT_FIELDS)
        assert set(raw["best_arch"]) == {"cell_indices", "opset", "macro"}

    def test_report_round_trips(self, tmp_path, capsys):
        doc = _run_search(tmp_path, capsys)
        assert report_mod.from_json(report_mod.to_json(doc)) == doc

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
        assert doc.budget.max_params == 2000
        assert doc.n_param <= 2000
        assert doc.evaluations_total + doc.evaluations_skipped == 64

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
        doc = report_mod.read_report(report_path)
        assert doc.dataset == "cifar10"
        assert doc.evaluations_total == 64
