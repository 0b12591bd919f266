#!/usr/bin/env python3
"""Network-size sweep: lifetime vs node count under density-preserving scaling.

Fields grow from the 50-node 200x200 m base so node density stays constant;
prints the seed-mean first-death round per size and mode and writes the full
per-run table as CSV.
"""

import argparse
import sys
import time
from dataclasses import replace

from simoco import ScenarioConfig, emit_csv, mean_over_seeds, run_experiment_matrix
from simoco.cli import ConfigError, parse_int_list


def cell(value) -> str:
    """Format a seed mean; a first death no seed reached prints as n/a."""
    return f"{'n/a':>22}" if value is None else f"{value:>22.1f}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0], allow_abbrev=False)
    parser.add_argument("--sizes", default="50,100,150,200,250,300")
    parser.add_argument("--seeds", type=int, default=10, help="seed count, uses 1..N")
    parser.add_argument("-o", "--output", default="size_sweep.csv")
    args = parser.parse_args()

    if args.seeds < 1:
        parser.error(f"--seeds must be >= 1, got {args.seeds}")
    try:  # every size must be valid before any cell runs
        sizes = parse_int_list(args.sizes, "--sizes")
        base = ScenarioConfig(base_side=200.0, base_n=50, comm_range=45.0, initial_energy=0.5)
        for size in sizes:
            replace(base, n=size)
    except (ConfigError, ValueError) as exc:
        parser.error(str(exc))
    seeds = list(range(1, args.seeds + 1))

    start = time.perf_counter()
    rows = run_experiment_matrix(base, sizes=sizes, seeds=seeds)
    print(f"{len(rows)} runs in {time.perf_counter() - start:.1f}s")

    print(f"{'n':>6}{'static first death':>22}{'mobile first death':>22}")
    for size in sizes:
        static = mean_over_seeds(rows, size, "static", "rounds_to_first_death")
        mobile = mean_over_seeds(rows, size, "mobile", "rounds_to_first_death")
        print(f"{size:>6}{cell(static)}{cell(mobile)}")

    with open(args.output, "w", newline="\n") as handle:
        handle.write(emit_csv(rows))
    print(f"per-run table written to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
