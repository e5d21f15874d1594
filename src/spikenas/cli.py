"""Command-line entry point.

Scenario names follow the ``pCqO`` / ``pCqO_M`` convention: p cells,
q operation types, with ``_M`` marking a memory-constrained run.  The
constrained presets are 1.2M parameters for cifar10 and 2M for
cifar100.  Setting precedence is: command-line flags, then the JSON
config file given by --config, then built-in defaults.  An unset
`data_dir` leaves `data.load_dataset` to read SPIKENAS_DATA_DIR.
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
from .data import DATA_DIR_ENV, DATASETS, load_dataset, sample_batch
from .errors import SpikeNasError
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
    ablated_opset,
    search_memory_aware,
    search_random,
)
from .snn import CODE_MODES, INPUT_CODINGS, LIFParams

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
        raise SpikeNasError(
            f"malformed scenario {name!r}; expected pCqO or pCqO_M, e.g. 2C3O_M"
        )
    cells, opset_size = int(m.group(1)), int(m.group(2))
    if cells not in (1, 2, 3):
        raise SpikeNasError(f"scenario {name!r}: cell count must be 1..3, got {cells}")
    if opset_size not in _OPSET_BY_SIZE:
        raise SpikeNasError(
            f"scenario {name!r}: no {opset_size}-operation preset "
            f"(choose from {sorted(_OPSET_BY_SIZE)})"
        )
    return Scenario(name.strip(), cells, opset_size, m.group(3) is not None)


def _cast(expected: str, ok, convert=None, **flag):
    """Setting cast: values failing `ok` are rejected as not `expected`.

    `flag` holds the argparse options of the setting's flag.
    """
    def cast(value):
        if not ok(value):
            raise ValueError(expected)
        return convert(value) if convert else value
    cast.flag = flag
    return cast


def _int(lo: int, hi: float = math.inf):
    """Integers, not booleans, in [lo, hi]."""
    return _cast(f"an integer in {lo}..{hi}" if hi < math.inf else f"an integer >= {lo}",
                 lambda v: type(v) is int and lo <= v <= hi, type=int)


def _choice(*options: str):
    return _cast("one of " + ", ".join(options), lambda v: v in options, choices=options)


_FLOAT = _cast("a finite number",
               lambda v: type(v) in (int, float) and math.isfinite(v), float, type=float)
_BOOL = _cast("true or false", lambda v: type(v) is bool, action="store_true",
              default=None)
_STR = _cast("a string", lambda v: type(v) is str)

# Every run setting as (key, cast, default, flag help).  The key names
# both the config-file key and the destination of the flag `--<key>`
# (underscores as dashes); a key with no help has no flag.  A value from
# a flag or the file must pass the cast.
SETTINGS = (
    ("data_dir", _STR, None, f"dataset root (default: ${DATA_DIR_ENV})"),
    ("seed", _int(0), 0, "seed of the weights, the batch and synthetic data"),
    ("alpha", _FLOAT, 1.0, "sparsity normalization factor"),
    ("batch_size", _int(2), 16, "samples scored per candidate"),
    ("jobs", _int(1), 1, "worker threads for scoring, capped at the core count; "
                         "each uses one BLAS thread"),
    ("bits", _int(1, 64), 32, "bit precision per parameter"),
    ("budget", _int(1), None, "max parameter count"),
    ("iterations", _int(1), 5000, "number of draws (default 5000)"),
    ("stem_channels", _int(1), 64, "stem conv channels"),
    ("width_mult", _int(1), 2, "width factor at each downsample"),
    ("classes", _int(1), None, "number of classes (default: the dataset's, else 10)"),
    ("no_bias", _BOOL, False, "count no bias parameters"),
    ("tau_leak", _FLOAT, 2.0, None),
    ("v_threshold", _FLOAT, 1.0, None),
    ("v_reset", _FLOAT, 0.0, None),
    ("timesteps", _int(1), 5, "simulation horizon"),
    ("code_mode", _choice(*CODE_MODES), "any", "stage code: any spike, or every step"),
    ("input_coding", _choice(*INPUT_CODINGS), "direct", "image as input, or as spikes"),
    ("carryover", _choice(CARRY_BEST, CARRY_LITERAL), CARRY_BEST,
     "earlier cells in later phases: best so far, or last tried"),
)
_SEARCH_FIELDS = {f.name for f in fields(SearchConfig)}

# The settings each subcommand reads, and so takes as flags.
_MACRO_KEYS = ("stem_channels", "width_mult", "classes", "no_bias")
_SCORE_KEYS = ("data_dir", "seed", "alpha", "batch_size", *_MACRO_KEYS, "timesteps",
               "code_mode", "input_coding")
_SEARCH_KEYS = (*_SCORE_KEYS, "jobs", "bits", "budget", "carryover")


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SpikeNasError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise SpikeNasError(f"config file {path} must hold a JSON object")
    unknown = sorted(set(cfg) - {row[0] for row in SETTINGS})
    if unknown:
        raise SpikeNasError(f"unknown key(s) in config file {path}: {', '.join(unknown)}")
    return cfg


def _settings_from_args(args: argparse.Namespace) -> dict:
    """Resolve SETTINGS by flag > config file > default.

    The macro and LIF keys are folded into `macro` and `lif`, and
    `budget` becomes an explicit MemoryBudget or None, so that every key
    that names a SearchConfig field holds that field's value.
    """
    cfg = _load_config_file(getattr(args, "config", None))
    s = {}
    for key, cast, default, _ in SETTINGS:
        value = getattr(args, key, None)
        if value is None and key in cfg:
            value = cfg[key]
        elif value is None:
            s[key] = default
            continue
        try:
            s[key] = cast(value)
        except ValueError as exc:
            raise SpikeNasError(
                f"bad value for {key!r}: {value!r}; expected {exc}") from None
    classes = s.pop("classes") or DATASETS.get(getattr(args, "dataset", None), 10)
    macro = MacroConfig(s.pop("stem_channels"), s.pop("width_mult"), classes)
    s["macro"] = macro.without_bias() if s.pop("no_bias") else macro
    try:
        s["lif"] = LIFParams(s.pop("tau_leak"), s.pop("v_threshold"),
                             s.pop("v_reset"), s.pop("timesteps"))
    except ValueError as exc:
        raise SpikeNasError(str(exc)) from exc
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
        raise SpikeNasError(
            f"scenario {scenario.name} is memory-constrained but dataset "
            f"{dataset!r} has no preset budget; pass --budget"
        )
    return MemoryBudget(preset, s["bits"])


def _search_config(dataset_name: str, opset_name: str, cells: int,
                   s: dict, strategy: str) -> SearchConfig:
    dataset = load_dataset(dataset_name, s["data_dir"], seed=s["seed"])
    try:
        return SearchConfig(dataset=dataset, opset=get_opset(opset_name),
                            num_cells=cells, strategy=strategy,
                            **{k: v for k, v in s.items() if k in _SEARCH_FIELDS})
    except ValueError as exc:
        raise SpikeNasError(str(exc)) from exc


# Output-file flags as (destination, flag), checked before any work runs.
_OUTPUT_FLAGS = (("report_out", "--report-out"), ("candidate_log", "--candidate-log"),
                 ("table_out", "--table-out"), ("dump_kernels", "--dump-kernels"))


def _check_output_paths(args: argparse.Namespace) -> None:
    """Refuse an output path that could not be written after the work, or named twice."""
    flags_by_file = {}
    for dest, flag in _OUTPUT_FLAGS:
        path = getattr(args, dest, None)
        if not path:
            continue
        other = flags_by_file.setdefault(os.path.realpath(path), flag)
        if other != flag:
            raise SpikeNasError(f"{other} and {flag} name the same file {path}")
        folder = os.path.dirname(os.path.abspath(path))
        if os.path.isdir(path):
            raise SpikeNasError(f"{flag} {path} is a directory")
        if not os.path.isdir(folder):
            raise SpikeNasError(f"{flag} {path}: directory {folder} does not exist")
        if not os.access(folder, os.W_OK | os.X_OK) or (
                os.path.exists(path) and not os.access(path, os.W_OK)):
            raise SpikeNasError(f"{flag} {path} is not writable")


def _emit(args: argparse.Namespace, result: SearchReport, scenario: str | None,
          s: dict) -> None:
    """Print or write the report, then write the candidate log and table row."""
    doc = report_mod.from_search_report(result, scenario, args.dataset, s["bits"])
    if args.report_out:
        report_mod.write_report(args.report_out, doc)
        print(f"report written to {args.report_out}")
    else:
        print(report_mod.to_json(doc))
    if args.candidate_log and result.candidate_log is not None:
        report_mod.write_candidate_log(args.candidate_log, result.candidate_log)
    if args.table_out:
        report_mod.append_table_row(args.table_out, doc)


def _cmd_search(args: argparse.Namespace) -> int:
    """Both `search` and `random-search`; the subcommand sets the strategy."""
    s = _settings_from_args(args)
    scenario = parse_scenario(args.scenario)
    s["budget"] = _resolve_budget(scenario, args.dataset, s)
    cfg = _search_config(args.dataset, _OPSET_BY_SIZE[scenario.opset_size],
                         scenario.cells, s, args.strategy)
    if args.strategy == RANDOM:
        result = search_random(cfg, s["iterations"])
    else:
        result = search_memory_aware(cfg)
    _emit(args, result, scenario.name, s)
    return 0


def _cmd_ablate(args: argparse.Namespace) -> int:
    s = _settings_from_args(args)
    try:
        removed = Operation.from_label(args.remove)
        ablated_opset(get_opset(args.opset), removed)  # refuse it before loading data
    except ValueError as exc:
        raise SpikeNasError(str(exc)) from exc
    if args.cells not in (1, 2, 3):  # refuse it before loading data, too
        raise SpikeNasError(f"num_cells must be 1..3, got {args.cells}")
    cfg = _search_config(args.dataset, args.opset, args.cells, s, args.strategy)
    result = ablate_operation(cfg, removed, iterations=s["iterations"])
    _emit(args, result, None, s)
    return 0


def _parse_indices(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise SpikeNasError(f"bad --indices {text!r}: {exc}") from exc


def _net_from_args(args: argparse.Namespace, s: dict):
    opset = get_opset(args.opset)
    indices = _parse_indices(args.indices)
    return build_network([decode_cell(i, opset) for i in indices], s["macro"])


def _cmd_score(args: argparse.Namespace) -> int:
    s = _settings_from_args(args)
    net = _net_from_args(args, s)
    dataset = load_dataset(args.dataset, s["data_dir"], seed=s["seed"])
    batch = sample_batch(dataset, s["batch_size"], s["seed"])
    result = score_candidate(net, batch.pixels, s["lif"], s["seed"], s["alpha"],
                             code_mode=s["code_mode"], input_coding=s["input_coding"])
    if args.dump_kernels:
        write_kernel_dump(args.dump_kernels, result.codes, s["alpha"])
    print(json.dumps({
        **report_mod.score_fields(result.value),
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


def _add_common(parser: argparse.ArgumentParser, keys: tuple[str, ...], *,
                with_outputs: bool = True) -> None:
    """`--config` and a flag for each of `keys`; the file may set any key."""
    parser.add_argument("--config", help="JSON config file")
    for key, cast, _, help_text in SETTINGS:
        if help_text and key in keys:
            parser.add_argument("--" + key.replace("_", "-"), dest=key, help=help_text,
                                **cast.flag)
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
    p.add_argument("--dataset", required=True, choices=DATASETS)
    _add_common(p, _SEARCH_KEYS)
    p.set_defaults(handler=_cmd_search, strategy=MEMORY_AWARE)

    p = sub.add_parser("random-search", help="random baseline search")
    p.add_argument("--scenario", required=True)
    p.add_argument("--dataset", required=True, choices=DATASETS)
    _add_common(p, (*_SEARCH_KEYS, "iterations"))
    p.set_defaults(handler=_cmd_search, strategy=RANDOM)

    p = sub.add_parser("ablate", help="search with one operation removed")
    p.add_argument("--opset", default="5O", choices=sorted(OPSETS))
    p.add_argument("--cells", type=int, default=2)
    p.add_argument("--remove", required=True, help="operation label to drop")
    p.add_argument("--dataset", required=True, choices=DATASETS)
    p.add_argument("--strategy", default=MEMORY_AWARE,
                   choices=(MEMORY_AWARE, RANDOM))
    _add_common(p, (*_SEARCH_KEYS, "iterations"))
    p.set_defaults(handler=_cmd_ablate)

    p = sub.add_parser("score", help="score one architecture")
    p.add_argument("--opset", required=True, choices=sorted(OPSETS))
    p.add_argument("--indices", required=True,
                   help="comma-separated per-cell candidate indices")
    p.add_argument("--dataset", required=True, choices=DATASETS)
    p.add_argument("--dump-kernels", dest="dump_kernels",
                   help="write kernel matrices to this file")
    _add_common(p, _SCORE_KEYS, with_outputs=False)
    p.set_defaults(handler=_cmd_score)

    p = sub.add_parser("memcalc", help="parameter count and memory footprint")
    p.add_argument("--opset", required=True, choices=sorted(OPSETS))
    p.add_argument("--indices", required=True)
    _add_common(p, ("bits", *_MACRO_KEYS), with_outputs=False)
    p.set_defaults(handler=_cmd_memcalc)

    p = sub.add_parser("enumerate", help="list every candidate of an operation set")
    p.add_argument("--opset", required=True, choices=sorted(OPSETS))
    p.set_defaults(handler=_cmd_enumerate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_output_paths(args)
        return args.handler(args)
    except SpikeNasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
