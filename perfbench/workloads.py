"""The benchmark's workloads: what one pass runs, and from which scenario seeds.

Every workload runs through simoco's public functions with cells run
serially. A pass runs `units` scenario seeds derived from the benchmark's
`--seed`; matrix workloads run both modes for each of them. Nothing here
imports simoco, so run.py can describe a workload without loading the
code under test.
"""

from __future__ import annotations

from dataclasses import dataclass

# The paper's base field: 100 nodes in 200 m x 200 m, 45 m range, 0.5 J.
BASE = dict(base_side=200.0, base_n=100, comm_range=45.0, initial_energy=0.5)

# Layers every workload must call at least once in a traced pass.
ALWAYS = (
    "core.generate_network",
    "core.one_hop_neighbors",
    "partitioning.quadrant_partition",
    "placement.cnp",
    "routing.build_graph",
    "routing.sink_distance_field",
    "routing.min_hop_route",
    "routing.deliver_packet",
    "engine.run_scenario",
    "metrics.compute_report",
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # "matrix": run_experiment_matrix + emit_csv.
    # "trace": run_scenario + trace_lines + compute_report, one seed at a time.
    kind: str
    config: dict
    units: int  # scenario seeds per pass
    must_run: tuple[str, ...]  # traced layers that may not record zero calls

    def scenario_seeds(self, seed: int) -> list[int]:
        """Distinct blocks of scenario seeds for distinct benchmark seeds."""
        return [seed * self.units + i for i in range(1, self.units + 1)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="lifetime",
            why="paper's lifetime batch: n=100, both modes run to death via the matrix; "
            "per-packet routing and delivery dominate, few graph builds",
            kind="matrix",
            config=dict(BASE, n=100),
            units=2,
            must_run=ALWAYS + (
                "mobility.generate_tour",
                "routing.remove_node",
                "metrics.emit_csv",
                "metrics.run_experiment_matrix",
            ),
        ),
        Workload(
            name="large_mobile",
            why="n=1600 mobile, 200 rounds: ~300 per-position graph builds dominate; "
            "1-hop deliveries, no deaths, 9 MB trace export",
            kind="trace",
            config=dict(BASE, n=1600, mode="mobile", max_rounds=200),
            units=1,
            must_run=ALWAYS + ("mobility.generate_tour", "engine.trace_lines"),
        ),
        Workload(
            name="large_static",
            why="n=1600 static, 200 rounds: 4 graph builds, so it bypasses graph-build work; "
            "multi-hop routes, deaths, BFS recomputes and drops",
            kind="trace",
            config=dict(BASE, n=1600, mode="static", max_rounds=200),
            units=6,
            must_run=ALWAYS + ("routing.remove_node", "engine.trace_lines"),
        ),
    )
}
