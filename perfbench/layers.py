"""Per-layer tracing for the benchmark's traced passes.

The tracer replaces module attributes of `simoco.engine` and `simoco.metrics`
with timing wrappers. Those two modules import the layer functions by name,
so the names must be patched where they are looked up, not where they are
defined. A span's self time is its duration minus the time its child spans
took. Spans are folded into per-layer totals as they close rather than kept
one by one: a lifetime pass opens over a million of them.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter


class LayerGuardError(RuntimeError):
    """A patched name is missing, or a layer that must run recorded no call."""


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.seconds: defaultdict[str, float] = defaultdict(float)
        self.self_seconds: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self._open: list[float] = []  # child time so far, one entry per open span
        self._edges: set[tuple[int, int]] = set()
        self._sink_id = None

    def wrap(self, layer, fn, observe=None):
        """Time `fn` as `layer`. `observe(args, result)` updates counters; its
        own time is charged to no layer's self time."""
        calls, seconds, self_seconds, open_spans = (
            self.calls, self.seconds, self.self_seconds, self._open
        )

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                child = open_spans.pop()
                calls[layer] += 1
                seconds[layer] += elapsed
                self_seconds[layer] += elapsed - child
            if observe is not None:
                mark = perf_counter()
                observe(args, result)
                elapsed += perf_counter() - mark
            if open_spans:
                open_spans[-1] += elapsed
            return result

        return traced

    def install(self, engine, metrics, sink_id: int) -> None:
        """Patch every traced name, failing loudly if one no longer exists.
        `sink_id` is the graph vertex of the sink, which is not a node."""
        self._sink_id = sink_id
        plan = [
            (engine, "generate_network", "core.generate_network", None),
            (engine, "one_hop_neighbors", "core.one_hop_neighbors", None),
            (engine, "quadrant_partition", "partitioning.quadrant_partition", None),
            (engine, "cnp_initial_sink_position", "placement.cnp", self._on_cnp),
            (engine, "generate_tour", "mobility.generate_tour", self._on_tour),
            (engine, "build_graph", "routing.build_graph", self._on_graph),
            (engine, "sink_distance_field", "routing.sink_distance_field", None),
            (engine, "min_hop_route", "routing.min_hop_route", self._on_route),
            (engine, "deliver_packet", "routing.deliver_packet", self._on_delivery),
            (engine, "remove_node", "routing.remove_node", None),
            (engine, "run_scenario", "engine.run_scenario", self._on_trace),
            (engine, "trace_lines", "engine.trace_lines", self._on_export),
            (metrics, "run_scenario", "engine.run_scenario", self._on_trace),
            (metrics, "compute_report", "metrics.compute_report", None),
            (metrics, "emit_csv", "metrics.emit_csv", None),
            (metrics, "run_experiment_matrix", "metrics.run_experiment_matrix", None),
        ]
        missing = [
            f"{module.__name__}.{attr}"
            for module, attr, _, _ in plan
            if not callable(getattr(module, attr, None))
        ]
        if missing:
            raise LayerGuardError(f"traced names no longer exist: {', '.join(missing)}")
        for module, attr, layer, observe in plan:
            setattr(module, attr, self.wrap(layer, getattr(module, attr), observe))

    def check_ran(self, layers) -> None:
        silent = [layer for layer in layers if self.calls[layer] == 0]
        if silent:
            raise LayerGuardError(f"layers recorded zero calls: {', '.join(silent)}")

    # Observers: counts read off the values the layers return.

    def _on_cnp(self, args, placement) -> None:
        self.counts["placement.cnp.iterations"] += placement.iterations

    def _on_tour(self, args, tour) -> None:
        self.counts["mobility.tour_points"] += len(tour.points)

    def _on_graph(self, args, graph) -> None:
        edges = [
            (u, v)
            for u, neighbors in graph.adjacency.items()
            if u != self._sink_id
            for v in neighbors
            if u < v
        ]
        self.counts["routing.edges_built"] += len(edges)
        self._edges.update(edges)

    def _on_route(self, args, route) -> None:
        if route is not None:
            self.counts["routing.route_hops"] += route.hop_count

    def _on_delivery(self, args, record) -> None:
        if not record.delivered:
            self.counts["routing.deliver_packet.dropped"] += 1
        self.counts["routing.deliver_packet.deaths"] += len(record.died)

    def _on_trace(self, args, trace) -> None:
        self.counts["engine.rounds"] += len(trace.rounds)
        # Node ids repeat across scenarios, so distinct edges are counted per run.
        self.counts["routing.distinct_edges"] += len(self._edges)
        self._edges.clear()

    def _on_export(self, args, lines) -> None:
        self.counts["engine.trace_bytes"] += sum(len(line) + 1 for line in lines)

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics, by the names BENCHMARK.json lists."""
        c, s, counts = self.calls, self.seconds, self.counts
        return {
            "core.generate_network.s": s["core.generate_network"],
            "core.one_hop_neighbors.s": s["core.one_hop_neighbors"],
            "partitioning.quadrant_partition.s": s["partitioning.quadrant_partition"],
            "placement.cnp.s": s["placement.cnp"],
            "placement.cnp.iterations": counts["placement.cnp.iterations"],
            "mobility.generate_tour.s": s["mobility.generate_tour"],
            "mobility.tour_points": counts["mobility.tour_points"],
            "routing.build_graph.calls": c["routing.build_graph"],
            "routing.build_graph.s": s["routing.build_graph"],
            "routing.graph_rebuild_ratio": (
                counts["routing.edges_built"] / counts["routing.distinct_edges"]
                if counts["routing.distinct_edges"] else 0.0
            ),
            "routing.sink_distance_field.calls": c["routing.sink_distance_field"],
            "routing.sink_distance_field.s": s["routing.sink_distance_field"],
            "routing.min_hop_route.calls": c["routing.min_hop_route"],
            "routing.min_hop_route.s": s["routing.min_hop_route"],
            "routing.hops_per_route": (
                counts["routing.route_hops"] / c["routing.min_hop_route"]
                if c["routing.min_hop_route"] else 0.0
            ),
            "routing.deliver_packet.calls": c["routing.deliver_packet"],
            "routing.deliver_packet.s": s["routing.deliver_packet"],
            "routing.deliver_packet.dropped": counts["routing.deliver_packet.dropped"],
            "routing.deliver_packet.deaths": counts["routing.deliver_packet.deaths"],
            "routing.remove_node.calls": c["routing.remove_node"],
            "routing.remove_node.s": s["routing.remove_node"],
            "engine.run_scenario.s": s["engine.run_scenario"],
            "engine.self_s": self.self_seconds["engine.run_scenario"],
            "engine.rounds": counts["engine.rounds"],
            "engine.trace_lines.s": s["engine.trace_lines"],
            "engine.trace_bytes": counts["engine.trace_bytes"],
            "metrics.compute_report.s": s["metrics.compute_report"],
            "metrics.emit_csv.s": s["metrics.emit_csv"],
            "metrics.run_experiment_matrix.self_s": self.self_seconds[
                "metrics.run_experiment_matrix"
            ],
        }
