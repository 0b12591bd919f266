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

from .engine import MODES, ScenarioConfig, deploy, run_scenario, trace_lines
from .metrics import emit_csv, resolve_workers, run_experiment_matrix
from .mobility import generate_tour, tour_export_lines


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems with exit code 1 and
    matches a flag only when it is spelled in full; subparsers inherit both."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):  # noqa: A003 - argparse API
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


_CONFIG_FIELD_TYPES = get_type_hints(ScenarioConfig)


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
        target = _CONFIG_FIELD_TYPES[key]
        try:
            overrides[key] = target(value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {key} expects {target.__name__}, "
                              f"got {value!r}") from exc
    return overrides


def _parse_traffic(value: str) -> dict:
    """--traffic VALUE where VALUE is all_nodes_each_round or
    random_sources[:COUNT]; only random_sources takes a count."""
    name, colon, count = value.partition(":")
    if not colon:
        return {"traffic": name}
    if name != "random_sources":
        raise ConfigError(f"--traffic {value!r}: only random_sources takes a count")
    try:
        return {"traffic": name, "sources_per_round": int(count)}
    except ValueError as exc:
        raise ConfigError(f"--traffic count must be an integer, got {count!r}") from exc


def parse_int_list(value: str, flag: str) -> list[int]:
    """Comma-separated integers; an empty or repeated entry is an error."""
    try:
        items = [int(part) for part in value.split(",")]
    except ValueError as exc:
        raise ConfigError(f"{flag} expects comma-separated integers, got {value!r}") from exc
    if len(set(items)) != len(items):
        raise ConfigError(f"{flag} repeats an entry: {value!r}")
    return items


def _parse_seeds(value: str) -> list[int]:
    """`--seeds 10` means seeds 1..10; `--seeds 3,7,9` is an explicit list."""
    if "," in value:
        return parse_int_list(value, "--seeds")
    try:
        count = int(value)
    except ValueError as exc:
        raise ConfigError(f"--seeds expects a count or comma list, got {value!r}") from exc
    if count < 1:
        raise ConfigError(f"--seeds count must be >= 1, got {count}")
    return list(range(1, count + 1))


def _build_parser() -> _Parser:
    """Each scenario flag's dest is the ScenarioConfig field it sets, except
    --traffic, whose spec _parse_traffic splits into two fields."""
    parser = _Parser(prog="simoco", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="subcommand", required=True)
    run = subs.add_parser("run", help="simulate one scenario and export its trace")
    matrix = subs.add_parser("matrix", help="run the (size, mode, seed) experiment matrix")
    tour = subs.add_parser("tour", help="compute placements and sojourn tours, no simulation")

    for sub in (run, matrix, tour):
        sub.add_argument("--config", metavar="PATH", help="flat key = value config file")
        sub.add_argument("--range", type=float, metavar="M", dest="comm_range",
                         help="communication radius in meters")
        sub.add_argument("-o", "--output", metavar="PATH", help="output file (default: stdout)")
    for sub in (run, tour):
        sub.add_argument("--nodes", type=int, metavar="N", dest="n", help="node count")
        sub.add_argument("--seed", type=int, metavar="S", help="scenario seed")
    for sub in (run, matrix):
        sub.add_argument("--rounds", type=int, metavar="R", dest="max_rounds",
                         help="round budget")
        sub.add_argument("--energy", type=float, metavar="J", dest="initial_energy",
                         help="initial node energy in joules")
        sub.add_argument("--packet-bits", type=int, metavar="K", help="packet size in bits")
        sub.add_argument("--traffic", metavar="SPEC", dest="traffic_spec",
                         help="all_nodes_each_round or random_sources[:COUNT]")
    run.add_argument("--mode", choices=MODES, help="sink mode")
    matrix.add_argument("--sizes", default="50,100,150,200,250,300", metavar="LIST",
                        help="comma-separated node counts (default %(default)s)")
    matrix.add_argument("--seeds", default="10", metavar="N|LIST",
                        help="seed count (1..N) or comma-separated seeds (default %(default)s)")
    return parser


def _build_config(args: argparse.Namespace, **defaults) -> ScenarioConfig:
    """Dataclass defaults, then `defaults`, then the config file, then flags."""
    parsed = vars(args)
    settings = dict(defaults)
    if args.config:
        settings.update(_parse_config_file(args.config))
    settings.update((key, value) for key, value in parsed.items()
                    if key in _CONFIG_FIELD_TYPES and value is not None)
    if parsed.get("traffic_spec") is not None:
        settings.update(_parse_traffic(parsed["traffic_spec"]))
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
    base = _build_config(args, base_n=50)
    sizes = parse_int_list(args.sizes, "--sizes")
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
