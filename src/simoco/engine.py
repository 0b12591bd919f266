"""Round-based simulation of static-sink and mobile-sink (SiMoCo) scenarios.

Each round every traffic source generates one packet. A static sink sits at
its partition's CNP placement forever, so every source routes its packet to
that position the same round, multi-hop where needed. A mobile sink cycles
through the sojourn tour one position per round (initial -> points ->
initial -> ...) and collects on arrival: a node hands over its accumulated
packets in the round the sink sojourns at the tour position serving it,
which by the tour's coverage guarantee is a single-hop exchange. Static
mode is exactly the mobile machinery with a one-position cycle.

All randomness flows from the scenario seed: deployment uses
random.Random(seed), traffic sampling uses random.Random(f"traffic:{seed}").
Identical configs therefore produce bit-identical traces.

A run ends at max_rounds, when every node is dead, or as soon as every
partition has gone one full sink cycle without a delivery or a death; from
such a state the simulation is provably periodic with no further energy
spend, so nothing observable would ever change.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .core import NetworkField, Position, generate_network, one_hop_neighbors
from .mobility import SojournTour, generate_tour
from .partitioning import Partition, quadrant_partition
from .placement import SinkPlacement, cnp_initial_sink_position
from .routing import (
    RadioEnergyModel,
    build_graph,
    deliver_packet,
    min_hop_route,
    remove_node,
    sink_distance_field,
)

MODES = ("static", "mobile")
TRAFFIC_MODES = ("all_nodes_each_round", "random_sources")


@dataclass(frozen=True)
class ScenarioConfig:
    mode: str = "static"
    n: int = 100
    base_side: float = 200.0
    base_n: int = 100
    comm_range: float = 45.0
    initial_energy: float = 0.5
    e_elec: float = 50e-9
    e_amp: float = 100e-12
    packet_bits: int = 2000
    seed: int = 1
    max_rounds: int = 10000
    traffic: str = "all_nodes_each_round"
    sources_per_round: int = 10

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.traffic not in TRAFFIC_MODES:
            raise ValueError(f"traffic must be one of {TRAFFIC_MODES}, got {self.traffic!r}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.base_n < 1:
            raise ValueError(f"base_n must be >= 1, got {self.base_n}")
        if self.max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1, got {self.max_rounds}")
        if self.sources_per_round < 1:
            raise ValueError(f"sources_per_round must be >= 1, got {self.sources_per_round}")
        for name in ("base_side", "comm_range", "initial_energy", "e_elec", "e_amp"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        # the tour walk takes about side / comm_range steps per buffered node
        side = self.base_side * math.sqrt(self.n / self.base_n)
        if self.comm_range < side / 1000:
            raise ValueError(f"comm_range must be >= side/1000 = {side / 1000!r}, "
                             f"got {self.comm_range!r}")
        if self.packet_bits < 1:
            raise ValueError(f"packet_bits must be >= 1, got {self.packet_bits}")

    def radio(self) -> RadioEnergyModel:
        return RadioEnergyModel(self.e_elec, self.e_amp, self.packet_bits)


class Delivery(NamedTuple):
    source: int
    hop_count: int
    energy: float
    delivered: bool


@dataclass(frozen=True)
class RoundRecord:
    round_index: int
    sink_positions: tuple[Position, ...]
    deliveries: tuple[Delivery, ...]
    deaths: tuple[int, ...]


@dataclass
class SimulationTrace:
    config: ScenarioConfig
    placements: list[Optional[SinkPlacement]]
    tours: Optional[list[Optional[SojournTour]]]
    rounds: list[RoundRecord]
    initial_neighbor_sets: list[frozenset[int]]
    field: NetworkField  # final node state after the last round


class _PartitionState:
    """Mutable runtime of one partition, an empty one included: sink cycle,
    connectivity graph, per-position distance fields, service schedule."""

    __slots__ = ("cycle", "assigned_members", "graph", "dist_fields", "quiet")

    def __init__(self, partition: Partition, field: NetworkField, cycle: tuple[Position, ...]):
        self.cycle = cycle
        # Each member is served at the cycle position nearest to it, preferring
        # positions that cover it (guaranteed to exist by tour coverage);
        # remaining ties break on the earliest position index.
        r = field.comm_range
        groups: list[list[int]] = [[] for _ in cycle]
        for node_id in partition.member_ids:
            pos = field.nodes[node_id].pos
            best = min(
                range(len(cycle)),
                key=lambda j: (math.dist(pos, cycle[j]) > r, math.dist(pos, cycle[j]), j),
            )
            groups[best].append(node_id)
        self.assigned_members = [tuple(g) for g in groups]
        self.graph = build_graph(field, partition)
        self.dist_fields: dict[int, dict[int, int]] = {}
        self.quiet = 0

    def dist_field_at(self, pos_idx: int) -> dict[int, int]:
        df = self.dist_fields.get(pos_idx)
        if df is None:
            df = sink_distance_field(self.graph, self.cycle[pos_idx])
            self.dist_fields[pos_idx] = df
        return df

    def on_death(self, node_id: int) -> None:
        remove_node(self.graph, node_id)
        self.dist_fields.clear()


def _quadrant_center(partition: Partition) -> Position:
    b = partition.bounds
    return Position((b.x_min + b.x_max) / 2.0, (b.y_min + b.y_max) / 2.0)


def deploy(
    config: ScenarioConfig,
) -> tuple[NetworkField, list[Partition], list[Optional[SinkPlacement]], list[frozenset[int]]]:
    """The seeded setup every consumer of a scenario shares: deployment,
    quadrant split, a CNP placement per non-empty partition and each sink's
    initial 1-hop neighbor set. Empty partitions get no placement and an
    empty neighbor set."""
    field = generate_network(
        config.n, config.base_side, config.base_n, config.comm_range,
        config.seed, config.initial_energy,
    )
    partitions = quadrant_partition(field)
    placements = [
        cnp_initial_sink_position(field, partition) if partition.member_ids else None
        for partition in partitions
    ]
    neighbor_sets = [
        frozenset(one_hop_neighbors(field, placement.position))
        if placement is not None else frozenset()
        for placement in placements
    ]
    return field, partitions, placements, neighbor_sets


def run_scenario(config: ScenarioConfig) -> SimulationTrace:
    """Deploy and place, (in mobile mode) plan tours, then simulate rounds."""
    field, partitions, placements, initial_neighbor_sets = deploy(config)
    model = config.radio()
    mobile = config.mode == "mobile"
    tours = [
        generate_tour(field, partition, placement)
        if mobile and placement is not None else None
        for partition, placement in zip(partitions, placements)
    ]
    # an empty quadrant's sink idles at the quadrant centre and serves no one
    states = [
        _PartitionState(partition, field, tour.cycle() if tour is not None else (
            placement.position if placement is not None else _quadrant_center(partition),
        ))
        for partition, placement, tour in zip(partitions, placements, tours)
    ]

    nodes = field.nodes
    part_of = [0] * len(nodes)
    for k, part in enumerate(partitions):
        for node_id in part.member_ids:
            part_of[node_id] = k

    traffic_rng = random.Random(f"traffic:{config.seed}")
    backlog = [0] * len(nodes)
    rounds: list[RoundRecord] = []

    def record_death(node_id: int) -> None:
        """Log a death in the current round's `deaths` and `activity`."""
        deaths.append(node_id)
        k = part_of[node_id]
        states[k].on_death(node_id)
        activity[k] = True

    for round_index in range(1, config.max_rounds + 1):
        alive_ids = [node.id for node in nodes if node.alive]
        if not alive_ids:
            break

        sources = (
            alive_ids if config.traffic == "all_nodes_each_round"
            else traffic_rng.sample(alive_ids, min(config.sources_per_round, len(alive_ids)))
        )
        for node_id in sources:
            backlog[node_id] += 1

        pos_indices = [(round_index - 1) % len(state.cycle) for state in states]
        sink_positions = tuple(state.cycle[j] for state, j in zip(states, pos_indices))

        deliveries: list[Delivery] = []
        deaths: list[int] = []
        pending_deaths: set[int] = set()
        activity = [False, False, False, False]

        for k, state in enumerate(states):
            pos_idx = pos_indices[k]
            ready = [
                node_id
                for node_id in state.assigned_members[pos_idx]
                if nodes[node_id].alive and backlog[node_id] > 0
            ]
            if not ready:
                continue
            dist = state.dist_field_at(pos_idx)
            for source in ready:
                node = nodes[source]
                while node.alive and backlog[source] > 0:
                    if source not in dist:
                        break  # unreachable this round: sends nothing, pays nothing
                    route = min_hop_route(state.graph, source, sink_positions[k], dist)
                    record = deliver_packet(field, model, route)
                    backlog[source] -= 1
                    deliveries.append(
                        Delivery(source, route.hop_count, record.total_energy, record.delivered)
                    )
                    if not record.delivered:
                        pending_deaths.update(record.underpowered)
                        break  # dropped: stop serving this source this round
                    activity[k] = True
                    if record.died:
                        for dead_id in record.died:
                            record_death(dead_id)
                        dist = state.dist_field_at(pos_idx)

        # Underpowered nodes could not afford a packet they were routed on;
        # nothing was deducted from them, but they leave the network now.
        for node_id in sorted(pending_deaths):
            node = nodes[node_id]
            if node.alive:
                node.alive = False
                record_death(node_id)

        rounds.append(RoundRecord(round_index, sink_positions, tuple(deliveries), tuple(deaths)))

        for state, active in zip(states, activity):
            state.quiet = 0 if active else state.quiet + 1
        if all(state.quiet >= len(state.cycle) for state in states):
            break

    return SimulationTrace(
        config=config,
        placements=placements,
        tours=tours if mobile else None,
        rounds=rounds,
        initial_neighbor_sets=initial_neighbor_sets,
        field=field,
    )


def trace_lines(trace: SimulationTrace) -> list[str]:
    """Newline-delimited trace export, one JSON object per round."""
    lines = []
    for rec in trace.rounds:
        obj = {
            "round": rec.round_index,
            "sinks": [[p.x, p.y] for p in rec.sink_positions],
            "deliveries": [[d.source, d.hop_count, d.energy, d.delivered] for d in rec.deliveries],
            "deaths": list(rec.deaths),
        }
        lines.append(json.dumps(obj, separators=(",", ":")))
    return lines


def parse_trace_lines(lines: list[str]) -> list[RoundRecord]:
    """Rebuild round records from an exported trace."""
    rounds = []
    for line in lines:
        if not line.strip():
            continue
        obj = json.loads(line)
        rounds.append(
            RoundRecord(
                round_index=obj["round"],
                sink_positions=tuple(Position(x, y) for x, y in obj["sinks"]),
                deliveries=tuple(Delivery(s, h, e, ok) for s, h, e, ok in obj["deliveries"]),
                deaths=tuple(obj["deaths"]),
            )
        )
    return rounds

