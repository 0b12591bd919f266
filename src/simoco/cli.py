"""Command-line entry point: run one scenario, a full matrix, or tours only.

Exit codes: 0 success, 1 configuration error (flags, config file, values),
2 runtime error. Scenario settings resolve as dataclass defaults, then
config file entries, then flags; config files are flat `key = value` lines
mirroring ScenarioConfig field names, and unknown keys are errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional, Sequence, get_type_hints

from .engine import ScenarioConfig, deploy, run_scenario, trace_lines
from .metrics import emit_csv, resolve_workers, run_experiment_matrix
from .mobility import generate_tour, tour_export_lines


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems with exit code 1."""

    def error(self, message):  # noqa: A003 - argparse API
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


_CONFIG_FIELD_TYPES = get_type_hints(ScenarioConfig)

_MATRIX_DEFAULT_SIZES = "50,100,150,200,250,300"
_MATRIX_DEFAULT_SEEDS = "10"


def _parse_config_file(path: str) -> dict:
    """Flat `key = value` file; `#` starts a comment; keys must be
    ScenarioConfig field names."""
    overrides = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_FIELD_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        overrides[key] = _cast_value(key, value, f"{path}:{lineno}")
    return overrides


def _cast_value(key: str, value: str, where: str):
    target = _CONFIG_FIELD_TYPES[key]
    try:
        if target is int:
            return int(value)
        if target is float:
            return float(value)
        return value
    except ValueError as exc:
        raise ConfigError(f"{where}: {key} expects {target.__name__}, got {value!r}") from exc


def _parse_traffic(value: str) -> dict:
    """--traffic VALUE where VALUE is all_nodes_each_round (alias: all) or
    random_sources[:COUNT] (alias: random[:COUNT])."""
    name, _, count = value.partition(":")
    overrides: dict = {}
    aliases = {"all": "all_nodes_each_round", "random": "random_sources"}
    name = aliases.get(name, name)
    overrides["traffic"] = name
    if count:
        if name == "all_nodes_each_round":
            raise ConfigError(f"--traffic {value!r}: all-nodes traffic takes no count")
        try:
            overrides["sources_per_round"] = int(count)
        except ValueError as exc:
            raise ConfigError(f"--traffic count must be an integer, got {count!r}") from exc
    return overrides


def _parse_int_list(value: str, flag: str) -> list[int]:
    try:
        items = [int(part) for part in value.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"{flag} expects comma-separated integers, got {value!r}") from exc
    if not items:
        raise ConfigError(f"{flag} must not be empty")
    if len(set(items)) != len(items):
        raise ConfigError(f"{flag} repeats an entry: {value!r}")
    return items


def _parse_seeds(value: str) -> list[int]:
    """`--seeds 10` means seeds 1..10; `--seeds 3,7,9` is an explicit list."""
    if "," in value:
        return _parse_int_list(value, "--seeds")
    try:
        count = int(value)
    except ValueError as exc:
        raise ConfigError(f"--seeds expects a count or comma list, got {value!r}") from exc
    if count < 1:
        raise ConfigError(f"--seeds count must be >= 1, got {count}")
    return list(range(1, count + 1))


def _add_common_flags(sub: argparse.ArgumentParser, *, nodes: bool, seed: bool) -> None:
    sub.add_argument("--config", metavar="PATH", help="flat key = value config file")
    if nodes:
        sub.add_argument("--nodes", type=int, metavar="N", help="node count")
    if seed:
        sub.add_argument("--seed", type=int, metavar="S", help="scenario seed")
    sub.add_argument("--range", type=float, metavar="M", dest="comm_range",
                     help="communication radius in meters")
    sub.add_argument("-o", "--output", metavar="PATH", help="output file (default: stdout)")


def _build_parser() -> _Parser:
    parser = _Parser(prog="simoco", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="subcommand", required=True)

    run = subs.add_parser("run", help="simulate one scenario and export its trace")
    _add_common_flags(run, nodes=True, seed=True)
    run.add_argument("--mode", choices=("static", "mobile"), help="sink mode")
    run.add_argument("--rounds", type=int, metavar="R", help="round budget")
    run.add_argument("--energy", type=float, metavar="J", help="initial node energy in joules")
    run.add_argument("--packet-bits", type=int, metavar="K", help="packet size in bits")
    run.add_argument("--traffic", metavar="SPEC",
                     help="all_nodes_each_round or random_sources[:COUNT]")

    matrix = subs.add_parser("matrix", help="run the (size, mode, seed) experiment matrix")
    _add_common_flags(matrix, nodes=False, seed=False)
    matrix.add_argument("--sizes", default=_MATRIX_DEFAULT_SIZES, metavar="LIST",
                        help=f"comma-separated node counts (default {_MATRIX_DEFAULT_SIZES})")
    matrix.add_argument("--seeds", default=_MATRIX_DEFAULT_SEEDS, metavar="N|LIST",
                        help="seed count (1..N) or comma-separated seeds (default 10)")
    matrix.add_argument("--rounds", type=int, metavar="R", help="round budget")
    matrix.add_argument("--energy", type=float, metavar="J", help="initial node energy in joules")
    matrix.add_argument("--packet-bits", type=int, metavar="K", help="packet size in bits")
    matrix.add_argument("--traffic", metavar="SPEC",
                        help="all_nodes_each_round or random_sources[:COUNT]")

    tour = subs.add_parser("tour", help="compute placements and sojourn tours, no simulation")
    _add_common_flags(tour, nodes=True, seed=True)

    return parser


def _scenario_overrides(args: argparse.Namespace) -> dict:
    overrides: dict = {}
    if getattr(args, "config", None):
        overrides.update(_parse_config_file(args.config))
    flag_to_field = {
        "mode": "mode",
        "nodes": "n",
        "seed": "seed",
        "rounds": "max_rounds",
        "comm_range": "comm_range",
        "energy": "initial_energy",
        "packet_bits": "packet_bits",
    }
    for flag, field in flag_to_field.items():
        value = getattr(args, flag, None)
        if value is not None:
            overrides[field] = value
    traffic = getattr(args, "traffic", None)
    if traffic is not None:
        overrides.update(_parse_traffic(traffic))
    return overrides


def _build_config(args: argparse.Namespace, defaults: Optional[dict] = None) -> ScenarioConfig:
    settings = dict(defaults or {})
    settings.update(_scenario_overrides(args))
    try:
        return ScenarioConfig(**settings)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _write_output(args: argparse.Namespace, text: str) -> None:
    if args.output:
        with open(args.output, "w", newline="\n") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _cmd_run(args: argparse.Namespace) -> int:
    config = _build_config(args)
    trace = run_scenario(config)
    _write_output(args, "\n".join(trace_lines(trace)) + "\n")
    return 0


def _cmd_matrix(args: argparse.Namespace) -> int:
    # the scaling experiment grows every field from the 50-node base square,
    # keeping node density constant across sizes
    base = _build_config(args, defaults={"base_n": 50})
    sizes = _parse_int_list(args.sizes, "--sizes")
    seeds = _parse_seeds(args.seeds)
    try:  # every size and the worker count must be valid before any cell runs
        for size in sizes:
            replace(base, n=size)
        workers = resolve_workers()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    rows = run_experiment_matrix(base, sizes, seeds, max_workers=workers)
    for row in rows:
        if row.error is not None:
            print(f"cell (n={row.size}, {row.mode}, seed {row.seed}) failed: {row.error}",
                  file=sys.stderr)
    _write_output(args, emit_csv(rows))
    return 0


def _cmd_tour(args: argparse.Namespace) -> int:
    config = _build_config(args)
    field, partitions, placements, _ = deploy(config)
    tours = [
        generate_tour(field, partition, placement)
        for partition, placement in zip(partitions, placements)
        if placement is not None
    ]
    _write_output(args, "\n".join(tour_export_lines(tours)) + "\n")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        if args.subcommand == "run":
            return _cmd_run(args)
        if args.subcommand == "matrix":
            return _cmd_matrix(args)
        return _cmd_tour(args)
    except ConfigError as exc:
        print(f"simoco: config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"simoco: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())
