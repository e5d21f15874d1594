"""Command-line entry point.

Scenario names follow the ``pCqO`` / ``pCqO_M`` convention: p cells,
q operation types, with ``_M`` marking a memory-constrained run.  A run's
settings take two steps.  `_settings_from_args` resolves each one from its
flag, else the JSON file given by --config, else its default, and checks
its JSON type; an unset `data_dir` leaves `data.load_dataset` to read
SPIKENAS_DATA_DIR.  `_run_config` then builds the records that check the
ranges (`MacroConfig`, `LIFParams`, `memmodel.footprint` for `bits`,
`MemoryBudget`, `SearchConfig`) before any data file is opened.  A
constrained scenario's unset `budget` is its dataset's preset: 1.2M
parameters for cifar10 and 2M for cifar100.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass, fields, replace

from . import report as report_mod
from .arch import (
    MacroConfig,
    Operation,
    OpSet,
    OPSETS,
    build_network,
    decode_cell,
    get_opset,
    search_space_size,
)
from .data import DATA_DIR_ENV, DATASETS, load_dataset, sample_batch, synth_dataset
from .errors import SpikeNasError
from .memmodel import MemoryBudget, count_network_params, footprint
from .score import score_candidate, write_kernel_dump
from .search import (
    CHOICES,
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


@dataclass(frozen=True)
class Scenario:
    name: str
    cells: int
    opset: OpSet
    constrained: bool


def parse_scenario(name: str) -> Scenario:
    m = _SCENARIO_RE.match(name.strip())
    if not m:
        raise SpikeNasError(
            f"malformed scenario {name!r}; expected pCqO or pCqO_M, e.g. 2C3O_M"
        )
    opset = get_opset(f"{m.group(2)}O")  # refuses a q with no operation set
    return Scenario(name.strip(), int(m.group(1)), opset, m.group(3) is not None)


def _cast(expected: str, *types: type, **flag):
    """Setting cast: a value of a type not in `types` is rejected as not `expected`.

    `flag` holds the argparse options of the flag; a `type` there converts file values too.
    """
    def cast(value):
        if type(value) not in types:
            raise ValueError(expected)
        return flag["type"](value) if "type" in flag else value
    cast.flag = flag
    return cast


def _choice(key: str):
    return _cast("a string", str, choices=CHOICES[key])


_INT = _cast("an integer", int, type=int)  # a bool is not one
_FLOAT = _cast("a number", int, float, type=float)
_BOOL = _cast("true or false", bool, action="store_true", default=None)
_STR = _cast("a string", str)

# Every run setting as (key, cast, default, flag help).  The key names the config-file
# key and the destination of the flag `--<key>` (underscores as dashes); a key with no
# help has no flag.  A cast checks a value's JSON type, and the record that holds the
# setting its range.  A default that a record field holds is read from that field.
SETTINGS = (
    ("data_dir", _STR, None, f"dataset root (default: ${DATA_DIR_ENV})"),
    ("seed", _INT, SearchConfig.seed, "seed of the weights, the batch and synthetic data"),
    ("alpha", _FLOAT, SearchConfig.alpha, "sparsity normalization factor"),
    ("batch_size", _INT, SearchConfig.batch_size, "samples scored per candidate"),
    ("jobs", _INT, SearchConfig.jobs,
     "worker threads per phase, capped at the usable cores and the candidates, each on one "
     "BLAS thread; one worker with large GEMMs splits each batch across the cores"),
    ("bits", _INT, MemoryBudget.bit_precision, "bit precision per parameter"),
    ("budget", _INT, None, "max parameter count"),
    ("iterations", _INT, SearchConfig.iterations,
     f"number of draws (default {SearchConfig.iterations})"),
    ("stem_channels", _INT, MacroConfig.stem_channels, "stem conv channels"),
    ("width_mult", _INT, MacroConfig.width_mult, "width factor at each downsample"),
    ("classes", _INT, None,
     f"number of classes (default: the dataset's, else {MacroConfig.num_classes})"),
    ("no_bias", _BOOL, False, "count no bias parameters"),
    ("tau_leak", _FLOAT, LIFParams.tau_leak, None),
    ("v_threshold", _FLOAT, LIFParams.v_threshold, None),
    ("v_reset", _FLOAT, LIFParams.v_reset, None),
    ("timesteps", _INT, LIFParams.timesteps, "simulation horizon"),
    ("code_mode", _choice("code_mode"), SearchConfig.code_mode,
     "stage code: any spike, or every step"),
    ("input_coding", _choice("input_coding"), SearchConfig.input_coding,
     "image as input, or as spikes"),
    ("carryover", _choice("carryover"), SearchConfig.carryover,
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
    """Resolve SETTINGS by flag > config file > default, each value checked for its
    JSON type; the values stay raw, for `_run_config` to build into records."""
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
    if s["classes"] is None:
        s["classes"] = DATASETS.get(getattr(args, "dataset", None), MacroConfig.num_classes)
    return s


def _run_config(args: argparse.Namespace, scenario: Scenario,
                strategy: str = MEMORY_AWARE) -> tuple[SearchConfig, int]:
    """The run's SearchConfig and bit precision, each record checked before the command's
    `--dataset`, if any, is loaded; a constrained scenario's budget defaults to its preset."""
    s = _settings_from_args(args)
    macro = MacroConfig(s["stem_channels"], s["width_mult"], s["classes"],
                        bias=not s["no_bias"])
    lif = LIFParams(s["tau_leak"], s["v_threshold"], s["v_reset"], s["timesteps"])
    footprint(0, s["bits"])  # with no budget to hold it, checked here
    if s["budget"] is None and scenario.constrained:
        if args.dataset not in PRESET_BUDGET_PARAMS:
            raise SpikeNasError(f"scenario {scenario.name} is memory-constrained but dataset "
                                f"{args.dataset!r} has no preset budget; pass --budget")
        s["budget"] = PRESET_BUDGET_PARAMS[args.dataset]
    if s["budget"] is not None:
        s["budget"] = MemoryBudget(s["budget"], s["bits"])
    cfg = SearchConfig(dataset=synth_dataset(0, 1, 0), opset=scenario.opset,
                       num_cells=scenario.cells, macro=macro, lif=lif, strategy=strategy,
                       keep_candidate_log=bool(getattr(args, "candidate_log", None)),
                       **{k: v for k, v in s.items() if k in _SEARCH_FIELDS})
    if "dataset" in args:
        cfg = replace(cfg, dataset=load_dataset(args.dataset, s["data_dir"], seed=cfg.seed))
    return cfg, s["bits"]


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
          bits: int) -> str:
    """Write the report, candidate log and table row that were asked for; the report, or
    where it went, is the standard output."""
    doc = report_mod.from_search_report(result, scenario, args.dataset, bits)
    if args.report_out:
        report_mod.write_report(args.report_out, doc)
    if args.candidate_log and result.candidate_log is not None:
        report_mod.write_candidate_log(args.candidate_log, result.candidate_log)
    if args.table_out:
        report_mod.append_table_row(args.table_out, doc)
    return (f"report written to {args.report_out}" if args.report_out
            else report_mod.to_json(doc))


def _cmd_search(args: argparse.Namespace) -> str:
    """Both `search` and `random-search`; the subcommand sets the strategy."""
    scenario = parse_scenario(args.scenario)
    cfg, bits = _run_config(args, scenario, args.strategy)
    result = (search_random(cfg, cfg.iterations) if cfg.strategy == RANDOM
              else search_memory_aware(cfg))
    return _emit(args, result, scenario.name, bits)


def _cmd_ablate(args: argparse.Namespace) -> str:
    removed = Operation.from_label(args.remove)
    opset = get_opset(args.opset)
    opset.without(removed)  # refuse it before loading data
    cfg, bits = _run_config(args, Scenario("", args.cells, opset, False), args.strategy)
    return _emit(args, ablate_operation(cfg, removed), None, bits)


def _net_from_args(args: argparse.Namespace):
    """The SearchConfig, bit precision and network of `--opset` and `--indices`."""
    opset = get_opset(args.opset)
    try:
        indices = [int(tok) for tok in args.indices.split(",")]
    except ValueError as exc:
        raise SpikeNasError(f"bad --indices {args.indices!r}: {exc}") from exc
    cfg, bits = _run_config(args, Scenario("", len(indices), opset, False))
    return cfg, bits, build_network([decode_cell(i, opset) for i in indices], cfg.macro)


def _cmd_score(args: argparse.Namespace) -> str:
    cfg, _, net = _net_from_args(args)
    pixels = sample_batch(cfg.dataset, cfg.batch_size, cfg.seed)
    result = score_candidate(net, pixels, cfg.lif, cfg.seed, cfg.alpha,
                             code_mode=cfg.code_mode, input_coding=cfg.input_coding)
    if args.dump_kernels:
        write_kernel_dump(args.dump_kernels, result.codes, cfg.alpha)
    return json.dumps({
        **report_mod.score_fields(result.value),
        "n_param": count_network_params(net),
        "seed": cfg.seed,
    }, allow_nan=False)


def _cmd_memcalc(args: argparse.Namespace) -> str:
    _, bits, net = _net_from_args(args)
    n_param = count_network_params(net)
    fp = footprint(n_param, bits)
    return f"n_param={n_param} mem_bits={fp.bits} mem_bytes={fp.bytes}"


def _cmd_enumerate(args: argparse.Namespace) -> str:
    opset = get_opset(args.opset)
    lines = (f"{i}\t{','.join(op.label for op in decode_cell(i, opset).edges())}"
             for i in range(search_space_size(opset)))
    return "\n".join(lines)


def _add_common(parser: argparse.ArgumentParser, keys: tuple[str, ...], *,
                with_outputs: bool = True) -> None:
    """`--config` and a flag for each of `keys`; the file may set any key."""
    parser.add_argument("--config", help="JSON config file")
    for key, cast, _, help_text in SETTINGS:
        if help_text and key in keys:
            parser.add_argument("--" + key.replace("_", "-"), dest=key, help=help_text,
                                **cast.flag)
    for dest, flag in _OUTPUT_FLAGS[:3] if with_outputs else ():
        parser.add_argument(flag, dest=dest)


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None):  # written as `main` writes; the help action exits next
        self.exit(_write_stdout(self.format_help().rstrip("\n")))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spikenas",
        description="Training-free, memory-aware architecture search for "
                    "spiking neural networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text, strategy, keys in (
            ("search", "memory-aware per-cell search", MEMORY_AWARE, _SEARCH_KEYS),
            ("random-search", "random baseline search", RANDOM,
             (*_SEARCH_KEYS, "iterations"))):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--scenario", required=True, help="pCqO or pCqO_M")
        p.add_argument("--dataset", required=True, choices=DATASETS)
        _add_common(p, keys)
        p.set_defaults(handler=_cmd_search, strategy=strategy)

    p = sub.add_parser("ablate", help="search with one operation removed")
    p.add_argument("--opset", default="5O", choices=sorted(OPSETS))
    p.add_argument("--cells", type=int, default=2)
    p.add_argument("--remove", required=True, help="operation label to drop")
    p.add_argument("--dataset", required=True, choices=DATASETS)
    p.add_argument("--strategy", default=MEMORY_AWARE, choices=CHOICES["strategy"])
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


def _write_stdout(text: str) -> int:
    """Print `text`; 1, after one error line, if standard output cannot take it, else 0."""
    try:
        print(text, flush=True)
    except OSError as exc:  # what stays buffered goes where the flush at exit cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write standard output: {exc}", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    """Run one command; its handler returns the text for standard output, written here."""
    args = build_parser().parse_args(argv)
    try:
        _check_output_paths(args)
        text = args.handler(args)
    except (SpikeNasError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    return _write_stdout(text)


if __name__ == "__main__":
    sys.exit(main())
