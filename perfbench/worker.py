"""One part of a run of one workload, in a fresh process; prints one JSON line.

    PYTHONPATH=src python3 perfbench/worker.py --workload lifetime --seeds 3,4 --part pass

`--part pass` runs the workload's cells serially and reports the pass's
wall time, its peak resident memory (`ru_maxrss`), and for every cell the
SHA-256 digest of its output bytes, its delivery-record count and its
energy-conservation error. `--part traced` does the same under
`layers.Tracer` and adds the per-layer metrics. `--part setup` times the
import plus a replay of deployment, partitioning, CNP and tour planning for
every cell through the public API, and runs nothing else; the pass runs the
same stages inside `run_scenario`, so its wall time includes them too.
`perfbench/run.py` starts the workers and judges their results.

Exit codes: 0 when the part finished (failed cells are reported, not
fatal), 2 if simoco cannot be imported from the checkout, 3 if a layer
guard trips.
"""

from __future__ import annotations

import argparse
import resource
import sys
from dataclasses import replace
from pathlib import Path
from time import perf_counter

from layers import LayerGuardError, Tracer
from workloads import WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src"


def conservation_error(trace) -> float:
    """Relative energy-conservation error, by the formula of metrics._run_cell."""
    config = trace.config
    delivered = sum(d.energy for rec in trace.rounds for d in rec.deliveries if d.delivered)
    drained = sum(config.initial_energy - node.energy for node in trace.field.nodes)
    scale = max(abs(delivered), abs(drained), 1e-30)
    return abs(delivered - drained) / scale


def replay_setup(simoco, config) -> None:
    """Deployment, partitioning, CNP, tours and initial neighbour sets, as
    run_scenario does them before its first round."""
    field = simoco.generate_network(
        config.n, config.base_side, config.base_n, config.comm_range,
        config.seed, config.initial_energy,
    )
    for partition in simoco.quadrant_partition(field):
        if not partition.member_ids:
            continue
        placement = simoco.cnp_initial_sink_position(field, partition)
        if config.mode == "mobile":
            simoco.generate_tour(field, partition, placement)
        simoco.one_hop_neighbors(field, placement.position)


def run_matrix(workload, seeds, engine, metrics, digest):
    """run_experiment_matrix + emit_csv; a cell's output is its CSV row.

    The matrix returns reports only, so a thin wrapper on the
    `metrics.run_scenario` name counts each cell's delivery records.
    """
    base = engine.ScenarioConfig(**workload.config)
    records = {}
    run_scenario = metrics.run_scenario

    def counted(config):
        trace = run_scenario(config)
        records[f"{config.seed}:{config.mode}"] = sum(len(r.deliveries) for r in trace.rounds)
        return trace

    metrics.run_scenario = counted
    start = perf_counter()
    rows = metrics.run_experiment_matrix(base, [base.n], seeds, max_workers=1)
    csv = metrics.emit_csv(rows)
    timed = perf_counter() - start
    metrics.run_scenario = run_scenario

    by_key = {f"{row.seed}:{row.mode}": row for row in rows}
    header, *lines = csv.splitlines()
    cells = {}
    for line in lines:
        _, mode, seed = line.split(",")[:3]
        key = f"{seed}:{mode}"
        row = by_key[key]
        cells[key] = {
            # The header is folded into every row's digest, so a changed
            # header fails every cell.
            "digest": digest(f"{header}\n{line}\n".encode()),
            "attempts": records.get(key, 0),
            "rel_err": row.energy_conservation_rel_err,
            "error": row.error,
        }
    missing = {f"{seed}:{mode}" for seed in seeds for mode in engine.MODES} - cells.keys()
    for key in sorted(missing):
        cells[key] = {"digest": None, "attempts": 0, "rel_err": None, "error": "no CSV row"}
    return timed, cells


def run_traces(workload, seeds, engine, metrics, digest):
    """run_scenario + trace_lines + compute_report; a cell's output is its
    trace bytes followed by the report's repr."""
    timed = 0.0
    cells = {}
    for seed in seeds:
        config = engine.ScenarioConfig(**workload.config, seed=seed)
        key = f"{seed}:{config.mode}"
        start = perf_counter()
        try:
            trace = engine.run_scenario(config)
            data = ("\n".join(engine.trace_lines(trace)) + "\n").encode()
            report = metrics.compute_report(trace)
        except Exception as exc:  # a failed cell is counted, not fatal
            timed += perf_counter() - start
            cells[key] = {"digest": None, "attempts": 0, "rel_err": None,
                          "error": f"{type(exc).__name__}: {exc}"}
            continue
        timed += perf_counter() - start
        cells[key] = {
            "digest": digest(data + repr(report).encode()),
            "attempts": sum(len(r.deliveries) for r in trace.rounds),
            "rel_err": conservation_error(trace),
            "error": None,
        }
        del trace, data  # keep the peak to one cell's trace
    return timed, cells


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", required=True, help="comma-separated scenario seeds")
    parser.add_argument("--part", required=True, choices=("setup", "pass", "traced"))
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    seeds = [int(s) for s in args.seeds.split(",")]

    start = perf_counter()
    try:
        import simoco
        from simoco import engine, metrics, routing
    except ImportError as exc:
        print(f"worker: cannot import simoco: {exc}", file=sys.stderr)
        return 2
    import_s = perf_counter() - start
    if Path(simoco.__file__).resolve().parent != SRC / "simoco":
        print(f"worker: simoco imported from {simoco.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import hashlib
    import json

    def digest(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    if args.part == "setup":
        base = engine.ScenarioConfig(**workload.config)
        modes = engine.MODES if workload.kind == "matrix" else (base.mode,)
        mark = perf_counter()
        for seed in seeds:
            for mode in modes:
                replay_setup(simoco, replace(base, seed=seed, mode=mode))
        print(json.dumps({"setup_s": import_s + perf_counter() - mark}))
        return 0

    tracer = None
    if args.part == "traced":
        tracer = Tracer()
        try:
            tracer.install(engine, metrics, routing.SINK_ID)
        except LayerGuardError as exc:
            print(f"worker: {exc}", file=sys.stderr)
            return 3

    run = run_matrix if workload.kind == "matrix" else run_traces
    timed, cells = run(workload, seeds, engine, metrics, digest)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out = {"wall_s": import_s + timed, "rss_mb": rss_mb, "cells": cells}
    if tracer is not None:
        try:
            tracer.check_ran(workload.must_run)
        except LayerGuardError as exc:
            print(f"worker: {workload.name}: {exc}", file=sys.stderr)
            return 3
        layers = tracer.metrics()
        records = sum(cell["attempts"] for cell in cells.values())
        problems = []
        if layers["routing.deliver_packet.calls"] != records:
            problems.append(f"deliver_packet.calls {layers['routing.deliver_packet.calls']} "
                            f"!= {records} delivery records")
        if layers["routing.min_hop_route.calls"] != layers["routing.deliver_packet.calls"]:
            problems.append("min_hop_route.calls != deliver_packet.calls")
        out["layers"] = layers
        out["problems"] = problems
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
