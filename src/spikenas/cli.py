"""Command-line entry point.

Scenario names follow the ``pCqO`` / ``pCqO_M`` convention: p cells,
q operation types, with ``_M`` marking a memory-constrained run.  The
constrained presets are 1.2M parameters for cifar10 and 2M for
cifar100.  Setting precedence is: command-line flags, then the JSON
config file given by --config, then environment variables, then
built-in defaults.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import dataclass, fields

from . import report as report_mod
from .arch import (
    MacroConfig,
    Operation,
    OPSETS,
    build_network,
    decode_cell,
    get_opset,
    search_space_size,
)
from .data import DATA_DIR_ENV, load_dataset, sample_batch
from .errors import ConfigError, SpikeNasError
from .memmodel import MemoryBudget, count_network_params, footprint
from .score import score_candidate, write_kernel_dump
from .search import (
    CARRY_BEST,
    CARRY_LITERAL,
    MEMORY_AWARE,
    RANDOM,
    SearchConfig,
    SearchReport,
    ablate_operation,
    search_memory_aware,
    search_random,
)
from .snn import LIFParams

PRESET_BUDGET_PARAMS = {"cifar10": 1_200_000, "cifar100": 2_000_000}

_SCENARIO_RE = re.compile(r"^(\d+)C(\d+)O(_M)?$")
_OPSET_BY_SIZE = {2: "2O", 3: "3O", 5: "5O"}


@dataclass(frozen=True)
class Scenario:
    name: str
    cells: int
    opset_size: int
    constrained: bool


def parse_scenario(name: str) -> Scenario:
    m = _SCENARIO_RE.match(name.strip())
    if not m:
        raise ConfigError(
            f"malformed scenario {name!r}; expected pCqO or pCqO_M, e.g. 2C3O_M"
        )
    cells, opset_size = int(m.group(1)), int(m.group(2))
    if cells not in (1, 2, 3):
        raise ConfigError(f"scenario {name!r}: cell count must be 1..3, got {cells}")
    if opset_size not in _OPSET_BY_SIZE:
        raise ConfigError(
            f"scenario {name!r}: no {opset_size}-operation preset "
            f"(choose from {sorted(_OPSET_BY_SIZE)})"
        )
    return Scenario(name.strip(), cells, opset_size, m.group(3) is not None)


def scenario_name(cells: int, opset_size: int, constrained: bool) -> str:
    return f"{cells}C{opset_size}O" + ("_M" if constrained else "")


def _cast(expected: str, ok, convert=None):
    """Setting cast: values failing `ok` are rejected as not `expected`."""
    def cast(value):
        if not ok(value):
            raise ValueError(expected)
        return convert(value) if convert else value
    return cast


def _int(lo: int, hi: float = math.inf):
    """Integers, not booleans, in [lo, hi]."""
    return _cast(f"an integer in {lo}..{hi}" if hi < math.inf else f"an integer >= {lo}",
                 lambda v: type(v) is int and lo <= v <= hi)


def _choice(*options: str):
    return _cast("one of " + ", ".join(options), lambda v: v in options)


_FLOAT = _cast("a finite number",
               lambda v: type(v) in (int, float) and math.isfinite(v), float)
_BOOL = _cast("true or false", lambda v: type(v) is bool)
_STR = _cast("a string", lambda v: type(v) is str)

# Every run setting as (key, cast, default[, environment variable]).  The
# key names both the flag's destination and the config-file key; a value
# from a flag, the file or the environment must pass the cast.
SETTINGS = (
    ("data_dir", _STR, None, DATA_DIR_ENV),
    ("seed", _int(0), 0),
    ("alpha", _FLOAT, 1.0),
    ("batch_size", _int(2), 16),
    ("jobs", _int(1), 1),
    ("bits", _int(1, 64), 32),
    ("budget", _int(1), None),
    ("iterations", _int(1), 5000),
    ("stem_channels", _int(1), 64),
    ("width_mult", _int(1), 2),
    ("classes", _int(1), 10),
    ("no_bias", _BOOL, False),
    ("tau_leak", _FLOAT, 2.0),
    ("v_threshold", _FLOAT, 1.0),
    ("v_reset", _FLOAT, 0.0),
    ("timesteps", _int(1), 5),
    ("code_mode", _choice("any", "concat"), "any"),
    ("input_coding", _choice("direct", "rate"), "direct"),
    ("carryover", _choice(CARRY_BEST, CARRY_LITERAL), CARRY_BEST),
)
_SEARCH_FIELDS = {f.name for f in fields(SearchConfig)}


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    unknown = sorted(set(cfg) - {key for key, *_ in SETTINGS})
    if unknown:
        raise ConfigError(f"unknown key(s) in config file {path}: {', '.join(unknown)}")
    return cfg


def _settings_from_args(args: argparse.Namespace) -> dict:
    """Resolve SETTINGS by flag > config file > environment > default.

    The macro and LIF keys are folded into `macro` and `lif`, and
    `budget` becomes an explicit MemoryBudget or None, so that every key
    that names a SearchConfig field holds that field's value.
    """
    cfg = _load_config_file(getattr(args, "config", None))
    s = {}
    for key, cast, default, *env in SETTINGS:
        value = getattr(args, key, None)
        if value is None and key in cfg:
            value = cfg[key]
        elif value is None and env and os.environ.get(env[0]):
            value = os.environ[env[0]]
        elif value is None:
            s[key] = default
            continue
        try:
            s[key] = cast(value)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {value!r}; expected {exc}") from None
    macro = MacroConfig(s.pop("stem_channels"), s.pop("width_mult"), s.pop("classes"))
    s["macro"] = macro.without_bias() if s.pop("no_bias") else macro
    try:
        s["lif"] = LIFParams(s.pop("tau_leak"), s.pop("v_threshold"),
                             s.pop("v_reset"), s.pop("timesteps"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if s["budget"] is not None:
        s["budget"] = MemoryBudget(s["budget"], s["bits"])
    s["keep_candidate_log"] = bool(getattr(args, "candidate_log", None))
    return s


def _resolve_budget(scenario: Scenario | None, dataset: str,
                    s: dict) -> MemoryBudget | None:
    """The explicit budget, else the dataset preset for a constrained scenario."""
    if s["budget"] is not None or scenario is None or not scenario.constrained:
        return s["budget"]
    preset = PRESET_BUDGET_PARAMS.get(dataset)
    if preset is None:
        raise ConfigError(
            f"scenario {scenario.name} is memory-constrained but dataset "
            f"{dataset!r} has no preset budget; pass --budget"
        )
    return MemoryBudget(preset, s["bits"])


def _search_config(dataset_name: str, opset_name: str, cells: int,
                   s: dict, strategy: str = MEMORY_AWARE) -> SearchConfig:
    dataset = load_dataset(dataset_name, s["data_dir"], seed=s["seed"])
    try:
        return SearchConfig(dataset=dataset, opset=get_opset(opset_name),
                            num_cells=cells, strategy=strategy,
                            **{k: v for k, v in s.items() if k in _SEARCH_FIELDS})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def run_scenario(scenario: Scenario, dataset_name: str, s: dict, *,
                 strategy: str = MEMORY_AWARE) -> tuple[report_mod.ReportDoc, SearchReport]:
    """Execute one scenario and return its report document."""
    s = dict(s, budget=_resolve_budget(scenario, dataset_name, s))
    cfg = _search_config(dataset_name, _OPSET_BY_SIZE[scenario.opset_size],
                         scenario.cells, s, strategy)
    if strategy == RANDOM:
        result = search_random(cfg, s["iterations"])
    else:
        result = search_memory_aware(cfg)
    doc = report_mod.from_search_report(result, scenario.name, dataset_name, s["bits"])
    return doc, result


def _emit(args: argparse.Namespace, doc: report_mod.ReportDoc,
          result: SearchReport | None) -> None:
    out = getattr(args, "report_out", None)
    if out:
        report_mod.write_report(out, doc)
        print(f"report written to {out}")
    else:
        print(report_mod.to_json(doc))
    log_path = getattr(args, "candidate_log", None)
    if log_path and result is not None and result.candidate_log is not None:
        report_mod.write_candidate_log(log_path, result.candidate_log)
    table = getattr(args, "table_out", None)
    if table:
        report_mod.append_table_row(table, doc)


def _cmd_search(args: argparse.Namespace) -> int:
    """Both `search` and `random-search`; the subcommand sets the strategy."""
    s = _settings_from_args(args)
    scenario = parse_scenario(args.scenario)
    doc, result = run_scenario(scenario, args.dataset, s, strategy=args.strategy)
    _emit(args, doc, result)
    return 0


def _cmd_ablate(args: argparse.Namespace) -> int:
    s = _settings_from_args(args)
    try:
        removed = Operation.from_label(args.remove)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    cfg = _search_config(args.dataset, args.opset, args.cells, s,
                         strategy=args.strategy)
    result = ablate_operation(cfg, removed, iterations=s["iterations"])
    doc = report_mod.from_search_report(result, None, args.dataset, s["bits"])
    _emit(args, doc, result)
    return 0


def _parse_indices(text: str, opset_name: str) -> tuple[int, ...]:
    opset = get_opset(opset_name)
    space = search_space_size(opset)
    try:
        indices = tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad --indices {text!r}: {exc}") from exc
    for i in indices:
        if not 0 <= i < space:
            raise ConfigError(
                f"candidate index {i} outside [0, {space}) for operation set {opset_name}"
            )
    return indices


def _net_from_args(args: argparse.Namespace, s: dict):
    opset = get_opset(args.opset)
    indices = _parse_indices(args.indices, args.opset)
    cells = [decode_cell(i, opset) for i in indices]
    try:
        return build_network(cells, s["macro"])
    except SpikeNasError as exc:
        raise ConfigError(str(exc)) from exc


def _cmd_score(args: argparse.Namespace) -> int:
    s = _settings_from_args(args)
    net = _net_from_args(args, s)
    dataset = load_dataset(args.dataset, s["data_dir"], seed=s["seed"])
    batch = sample_batch(dataset, s["batch_size"], s["seed"])
    result = score_candidate(net, batch.pixels, s["lif"], s["seed"], s["alpha"],
                             code_mode=s["code_mode"], input_coding=s["input_coding"],
                             keep_kernels=bool(args.dump_kernels))
    if args.dump_kernels:
        write_kernel_dump(args.dump_kernels, result)
    print(json.dumps({
        "score": None if result.singular else result.value,
        "singular": result.singular,
        "n_param": count_network_params(net),
        "seed": s["seed"],
    }, allow_nan=False))
    return 0


def _cmd_memcalc(args: argparse.Namespace) -> int:
    s = _settings_from_args(args)
    net = _net_from_args(args, s)
    n_param = count_network_params(net)
    fp = footprint(n_param, s["bits"])
    print(f"n_param={n_param} mem_bits={fp.bits} mem_bytes={fp.bytes}")
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    opset = get_opset(args.opset)
    for index in range(search_space_size(opset)):
        edges = decode_cell(index, opset).edges()
        print(f"{index}\t{','.join(op.label for op in edges)}")
    return 0


def _add_common(parser: argparse.ArgumentParser, *, with_outputs: bool = True) -> None:
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--data-dir", dest="data_dir",
                        help=f"dataset root (default: ${DATA_DIR_ENV})")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--alpha", type=float, help="sparsity normalization factor")
    parser.add_argument("--timesteps", type=int, help="simulation horizon")
    parser.add_argument("--batch-size", dest="batch_size", type=int)
    parser.add_argument("--jobs", type=int, help="worker threads for scoring")
    parser.add_argument("--bits", type=int, help="bit precision per parameter")
    parser.add_argument("--stem-channels", dest="stem_channels", type=int)
    parser.add_argument("--width-mult", dest="width_mult", type=int)
    parser.add_argument("--classes", type=int)
    parser.add_argument("--no-bias", dest="no_bias", action="store_true",
                        default=None, help="count and simulate without biases")
    parser.add_argument("--code-mode", dest="code_mode", choices=("any", "concat"))
    parser.add_argument("--input-coding", dest="input_coding",
                        choices=("direct", "rate"))
    parser.add_argument("--carryover", choices=("best", "literal"))
    if with_outputs:
        parser.add_argument("--report-out", dest="report_out")
        parser.add_argument("--candidate-log", dest="candidate_log")
        parser.add_argument("--table-out", dest="table_out")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spikenas",
        description="Training-free, memory-aware architecture search for "
                    "spiking neural networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("search", help="memory-aware per-cell search")
    p.add_argument("--scenario", required=True, help="pCqO or pCqO_M")
    p.add_argument("--dataset", required=True,
                   choices=("cifar10", "cifar100", "synth"))
    p.add_argument("--budget", type=int, help="max parameter count")
    _add_common(p)
    p.set_defaults(handler=_cmd_search, strategy=MEMORY_AWARE)

    p = sub.add_parser("random-search", help="random baseline search")
    p.add_argument("--scenario", required=True)
    p.add_argument("--dataset", required=True,
                   choices=("cifar10", "cifar100", "synth"))
    p.add_argument("--budget", type=int)
    p.add_argument("--iterations", type=int, help="number of draws (default 5000)")
    _add_common(p)
    p.set_defaults(handler=_cmd_search, strategy=RANDOM)

    p = sub.add_parser("ablate", help="search with one operation removed")
    p.add_argument("--opset", default="5O", choices=sorted(OPSETS))
    p.add_argument("--cells", type=int, default=2)
    p.add_argument("--remove", required=True, help="operation label to drop")
    p.add_argument("--dataset", required=True,
                   choices=("cifar10", "cifar100", "synth"))
    p.add_argument("--budget", type=int)
    p.add_argument("--strategy", default=MEMORY_AWARE,
                   choices=(MEMORY_AWARE, RANDOM))
    p.add_argument("--iterations", type=int)
    _add_common(p)
    p.set_defaults(handler=_cmd_ablate)

    p = sub.add_parser("score", help="score one architecture")
    p.add_argument("--opset", required=True, choices=sorted(OPSETS))
    p.add_argument("--indices", required=True,
                   help="comma-separated per-cell candidate indices")
    p.add_argument("--dataset", required=True,
                   choices=("cifar10", "cifar100", "synth"))
    p.add_argument("--dump-kernels", dest="dump_kernels",
                   help="write kernel matrices to this file")
    _add_common(p, with_outputs=False)
    p.set_defaults(handler=_cmd_score)

    p = sub.add_parser("memcalc", help="parameter count and memory footprint")
    p.add_argument("--opset", required=True, choices=sorted(OPSETS))
    p.add_argument("--indices", required=True)
    _add_common(p, with_outputs=False)
    p.set_defaults(handler=_cmd_memcalc)

    p = sub.add_parser("enumerate", help="list every candidate of an operation set")
    p.add_argument("--opset", required=True, choices=sorted(OPSETS))
    p.set_defaults(handler=_cmd_enumerate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except SpikeNasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
