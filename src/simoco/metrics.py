"""Trace metrics and the static-vs-mobile experiment matrix.

Four metrics summarize a trace: mean energy per delivered packet, rounds
until every initial 1-hop neighbor of some sink is dead, rounds until the
first death anywhere, and mean hop count per delivered packet. Lifetime
metrics are None ("not reached") when the run ends first; packet means are
None ("not available") when nothing was delivered. All of them come from
one pass over the rounds.

A sink's initial neighbor set is every node within range of its CNP
placement across the whole field, so it can hold nodes of a neighboring
partition, and the neighbor-death metric waits for those too. CNP itself
counts only the sink's own partition.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from itertools import repeat
from typing import Iterable, Optional, Sequence

from .engine import MODES, RoundRecord, ScenarioConfig, SimulationTrace, run_scenario


@dataclass(frozen=True)
class MetricsReport:
    avg_energy_per_packet: Optional[float]
    rounds_to_neighbor_death: Optional[int]
    rounds_to_first_death: Optional[int]
    avg_hop_count: Optional[float]
    packets_delivered: int
    # Summed energy of delivered packets, for the matrix's conservation
    # check; left out of repr so a report's text stays the four metrics
    # and the packet count.
    delivered_energy: float = field(default=0.0, repr=False)


def _fold(rounds: Iterable[RoundRecord], neighbor_sets: Sequence[frozenset[int]]) -> MetricsReport:
    """Every metric in one pass over the rounds. Neighbor death is the
    earliest round at which some partition's whole initial neighbor set is
    dead; partitions with empty initial neighbor sets are excluded."""
    energy = 0.0
    hops = 0
    delivered = 0
    first_death = None
    death_round: dict[int, int] = {}
    for rec in rounds:
        for _, hop_count, cost, ok, count in rec.deliveries.runs():
            if ok:
                hops += hop_count * count
                delivered += count
                if count == 1:  # every static run but a few
                    energy += cost
                else:
                    for _ in repeat(None, count):  # in order: cost * count rounds differently
                        energy += cost
        if rec.deaths and first_death is None:
            first_death = rec.round_index
        for node_id in rec.deaths:
            death_round.setdefault(node_id, rec.round_index)
    candidates = []
    for neighbors in neighbor_sets:
        if neighbors and all(node_id in death_round for node_id in neighbors):
            candidates.append(max(death_round[node_id] for node_id in neighbors))
    return MetricsReport(
        avg_energy_per_packet=energy / delivered if delivered else None,
        rounds_to_neighbor_death=min(candidates) if candidates else None,
        rounds_to_first_death=first_death,
        avg_hop_count=hops / delivered if delivered else None,
        packets_delivered=delivered,
        delivered_energy=energy,
    )


def compute_report(trace: SimulationTrace) -> MetricsReport:
    return _fold(trace.rounds, trace.initial_neighbor_sets)


@dataclass(frozen=True)
class MatrixRow:
    size: int
    mode: str
    seed: int
    report: Optional[MetricsReport]
    error: Optional[str] = None
    energy_conservation_rel_err: Optional[float] = None


def _run_cell(config: ScenarioConfig) -> MatrixRow:
    size, mode, seed = config.n, config.mode, config.seed
    try:
        trace = run_scenario(config)
        report = compute_report(trace)
    except Exception as exc:  # failed cell is reported, not fatal
        return MatrixRow(size, mode, seed, None, error=f"{type(exc).__name__}: {exc}")
    delivered = report.delivered_energy
    drained = sum(config.initial_energy - node.energy for node in trace.field.nodes)
    scale = max(abs(delivered), abs(drained), 1e-30)
    rel_err = abs(delivered - drained) / scale
    return MatrixRow(size, mode, seed, report, energy_conservation_rel_err=rel_err)


def resolve_workers(max_workers: Optional[int] = None) -> int:
    """Worker count for matrix cells: explicit argument, else SIMOCO_THREADS
    (0 = auto), else auto (one per CPU)."""
    if max_workers is None:
        env = os.environ.get("SIMOCO_THREADS", "").strip()
        if env:
            try:
                max_workers = int(env)
            except ValueError as exc:
                raise ValueError(f"SIMOCO_THREADS must be an integer, got {env!r}") from exc
        else:
            max_workers = 0
    if max_workers < 0:
        raise ValueError(f"worker count must be >= 0, got {max_workers}")
    if max_workers == 0:
        max_workers = os.cpu_count() or 1
    return max_workers


def run_experiment_matrix(
    base: ScenarioConfig,
    sizes: Sequence[int],
    seeds: Sequence[int],
    max_workers: Optional[int] = None,
) -> list[MatrixRow]:
    """Run every (size, mode, seed) cell, in parallel across processes when
    more than one worker is available. Rows come back sorted by
    (size, mode, seed) regardless of completion order. Every ValueError is
    raised before any cell runs; a cell that fails later reports its `error`."""
    if not sizes:
        raise ValueError("sizes must be nonempty")
    if not seeds:
        raise ValueError("seeds must be nonempty")
    cells = [
        replace(base, n=size, mode=mode, seed=seed)
        for size in sizes
        for mode in MODES
        for seed in seeds
    ]
    workers = min(resolve_workers(max_workers), len(cells))
    if workers <= 1:
        rows = [_run_cell(cell) for cell in cells]
    else:
        from concurrent.futures import ProcessPoolExecutor  # ~20 ms; serial runs skip it
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_cell, cells, chunksize=1))
    rows.sort(key=lambda row: (row.size, row.mode, row.seed))
    return rows


CSV_HEADER = "size,mode,seed,avg_energy_j,neighbor_death_round,first_death_round,avg_hops,packets"


def _cell(value) -> str:
    return "" if value is None else repr(value) if isinstance(value, float) else str(value)


def emit_csv(rows: Iterable[MatrixRow]) -> str:
    """CSV for the experiment table; not-reached / not-available render as
    empty cells and rows sort by (size, mode, seed)."""
    out = [CSV_HEADER]
    for row in sorted(rows, key=lambda r: (r.size, r.mode, r.seed)):
        report = row.report
        if report is None:
            fields = ["", "", "", "", ""]
        else:
            fields = [
                _cell(report.avg_energy_per_packet),
                _cell(report.rounds_to_neighbor_death),
                _cell(report.rounds_to_first_death),
                _cell(report.avg_hop_count),
                str(report.packets_delivered),
            ]
        out.append(",".join([str(row.size), row.mode, str(row.seed)] + fields))
    return "\n".join(out) + "\n"


def mean_over_seeds(
    rows: Iterable[MatrixRow], size: int, mode: str, metric: str
) -> Optional[float]:
    """Mean of one report metric across the seeds of a (size, mode) cell;
    None-valued runs are excluded, and an all-None cell yields None."""
    values = [
        getattr(row.report, metric)
        for row in rows
        if row.size == size and row.mode == mode and row.report is not None
    ]
    values = [v for v in values if v is not None]
    return sum(values) / len(values) if values else None


_SUMMARY_METRICS = (
    ("avg_energy_per_packet", "avg energy/packet [J]", ">14.4e"),
    ("rounds_to_neighbor_death", "rounds to neighbor death", ">14.1f"),
    ("rounds_to_first_death", "rounds to first death", ">14.1f"),
    ("avg_hop_count", "avg hop count", ">14.1f"),
)


def summary_table(rows: Sequence[MatrixRow]) -> str:
    """Seed means per size, a static and a mobile column per metric, then the
    mobile/static energy ratio. A mean no seed reached, and a ratio missing
    either mean, print as n/a; a failed cell counts as a seed reaching nothing."""
    def cell(value, spec):
        return f"{'n/a':>14}" if value is None else format(value, spec)

    out = [f"{'n':>6}  {'metric':<28}{'static':>14}{'mobile':>14}"]
    for size in sorted({row.size for row in rows}):
        means = {attr: [mean_over_seeds(rows, size, mode, attr) for mode in MODES]
                 for attr, _, _ in _SUMMARY_METRICS}
        for attr, label, spec in _SUMMARY_METRICS:
            out.append(f"{size:>6}  {label:<28}" + "".join(cell(m, spec) for m in means[attr]))
        static, mobile = means["avg_energy_per_packet"]
        ratio = None if static is None or mobile is None else mobile / static
        out.append(f"{size:>6}  {'energy ratio mobile/static':<28}{cell(ratio, '>14.3f')}")
    return "\n".join(out) + "\n"
