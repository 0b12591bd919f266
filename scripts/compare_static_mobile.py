#!/usr/bin/env python3
"""Static vs mobile sink comparison at a single network size.

Runs both modes over a seed list and prints the seed-mean of every metric,
plus the energy ratio. Defaults reproduce the 100-node, 200x200 m, 45 m
range setup with 0.5 J per node.
"""

import argparse
import sys
import time

from simoco import ScenarioConfig, emit_csv, mean_over_seeds, run_experiment_matrix

METRICS = (
    ("avg_energy_per_packet", "avg energy/packet [J]"),
    ("rounds_to_neighbor_death", "rounds to neighbor death"),
    ("rounds_to_first_death", "rounds to first death"),
    ("avg_hop_count", "avg hop count"),
)


def cell(value, spec: str) -> str:
    """Format a seed mean; a metric no seed reached prints as n/a."""
    return f"{'n/a':>14}" if value is None else format(value, spec)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0], allow_abbrev=False)
    parser.add_argument("--nodes", type=int, default=100)
    parser.add_argument("--seeds", type=int, default=10, help="seed count, uses 1..N")
    parser.add_argument("--energy", type=float, default=0.5)
    parser.add_argument("--csv", metavar="PATH", help="also write the per-run table")
    args = parser.parse_args()

    if args.seeds < 1:
        parser.error(f"--seeds must be >= 1, got {args.seeds}")
    try:
        base = ScenarioConfig(n=args.nodes, base_n=args.nodes, base_side=200.0,
                              comm_range=45.0, initial_energy=args.energy)
    except ValueError as exc:
        parser.error(str(exc))
    seeds = list(range(1, args.seeds + 1))
    start = time.perf_counter()
    rows = run_experiment_matrix(base, sizes=[args.nodes], seeds=seeds)
    elapsed = time.perf_counter() - start

    print(f"{args.nodes} nodes, field {base.base_side:.0f} m, range {base.comm_range:.0f} m, "
          f"{len(seeds)} seeds, {elapsed:.1f}s")
    print(f"{'metric':<28}{'static':>14}{'mobile':>14}")
    for attr, label in METRICS:
        static = mean_over_seeds(rows, args.nodes, "static", attr)
        mobile = mean_over_seeds(rows, args.nodes, "mobile", attr)
        spec = ">14.4e" if attr == "avg_energy_per_packet" else ">14.1f"
        print(f"{label:<28}{cell(static, spec)}{cell(mobile, spec)}")
    static_e = mean_over_seeds(rows, args.nodes, "static", "avg_energy_per_packet")
    mobile_e = mean_over_seeds(rows, args.nodes, "mobile", "avg_energy_per_packet")
    ratio = None if static_e is None or mobile_e is None else mobile_e / static_e
    print(f"{'energy ratio mobile/static':<28}{cell(ratio, '>14.3f')}")

    if args.csv:
        with open(args.csv, "w", newline="\n") as handle:
            handle.write(emit_csv(rows))
        print(f"per-run table written to {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
