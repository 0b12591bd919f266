"""Round-based simulation of static-sink and mobile-sink (SiMoCo) scenarios.

Each round every traffic source generates one packet: every alive node, or
with `sources_per_round` set, that many sampled alive nodes. A static sink
sits at its partition's CNP placement forever, so every source routes its
packet to that position the same round, multi-hop where needed. A mobile
sink cycles through the sojourn tour one position per round (initial ->
points -> initial -> ...) and collects on arrival: a node hands over its
accumulated packets in the round the sink sojourns at the tour position
serving it, which by the tour's coverage guarantee is a single-hop
exchange. Static mode is exactly the mobile machinery with a one-position
cycle: every sink has a tour, and a static or idle sink's is its position
alone. A backlog is the packets generated less those sent; under full
traffic a node has generated `round_index`, so no round scans all n nodes.
`deploy` returns the setup as a trace with no rounds; `run_scenario`
deploys and appends the rounds.

All randomness flows from the scenario seed: deployment uses
random.Random(seed), traffic sampling uses random.Random(f"traffic:{seed}").
Identical configs therefore produce bit-identical traces.

A partition is quiet in a round with no record of its own and no served
member that its current sink position reaches. A run ends at max_rounds,
when every node is dead, or once every partition has been quiet for a full
sink cycle, after which no member can ever send and nothing can change.
"""

from __future__ import annotations

import json
import math
import random
import struct
import sys
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterable, Iterator, NamedTuple, Optional

from .core import Grid, NetworkField, Position, generate_network, one_hop_neighbors
from .mobility import SojournTour, generate_tour
from .partitioning import Partition, quadrant_partition
from .placement import SinkPlacement, cnp_initial_sink_position
from .routing import (
    RadioEnergyModel,
    SinkField,
    build_graph,
    deliver_packet,
    min_hop_route,
    remove_node,
    rx_energy,
    sink_distance_field,
    tx_energy,
)

MODES = ("static", "mobile")


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
    sources_per_round: Optional[int] = None  # None: every alive node sends

    def __post_init__(self) -> None:
        """The one validation site: the layers trust a config that passes."""
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        for name in ("n", "base_n", "max_rounds", "packet_bits"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.sources_per_round is not None and self.sources_per_round < 1:
            raise ValueError(f"sources_per_round must be >= 1, got {self.sources_per_round}")
        # the traffic RNG is seeded from str(seed); Python < 3.10.7 has no limit
        digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if digits and abs(self.seed) >= 10 ** digits:
            raise ValueError(f"seed must have at most {digits} decimal digits")
        for name in ("base_side", "comm_range", "initial_energy", "e_elec", "e_amp"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        # Each sum or product a run forms is bounded by one of these (a path's
        # charges, energy drained, a centroid sum, a tour step's product).
        try:  # OverflowError: an int too large for a float, as packet_bits
            side = self.base_side * math.sqrt(self.n / self.base_n)
            radio = self.radio()
            hop = tx_energy(radio, self.comm_range) + rx_energy(radio)
            derived = {"n * largest per-hop charge": self.n * hop,
                       "n * initial_energy": self.n * self.initial_energy,
                       "n * side": self.n * side, "2 * side * side": 2 * side * side}
        except OverflowError as exc:
            raise ValueError(f"scenario exceeds the float range: {exc}") from exc
        for name, value in derived.items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be a finite float, got {value!r}")
        if side * side < sys.float_info.min:  # nor may a tour step's products underflow
            raise ValueError(f"side * side underflows: side {side!r} is too small")
        # the tour walk takes about side / comm_range steps per buffered node
        if self.comm_range < side / 1000:
            raise ValueError(f"comm_range must be >= side/1000 = {side / 1000!r}, "
                             f"got {self.comm_range!r}")

    def radio(self) -> RadioEnergyModel:
        return RadioEnergyModel(self.e_elec, self.e_amp, self.packet_bits)


class Delivery(NamedTuple):
    source: int
    hop_count: int
    energy: float
    delivered: bool


# One run of equal delivery records, 26 bytes: int64 source and hop_count,
# float64 energy, a bool delivered and a uint8 count of records, at most
# MAX_RUN; a longer run is stored as several. Only `Deliveries` packs or reads it.
RECORD = struct.Struct("<qqd?B")
MAX_RUN = 255


class Deliveries:
    """One round's delivery records, a read-only sequence of `Delivery` held
    as one `bytes` object, which the garbage collector never tracks, of runs
    `(source, hop_count, energy, delivered, count)`: `count` equal records in
    a row, as a mobile backlog hands over. `len()` and iteration see the
    records; `runs()` reads the runs, as the fold and the export do."""

    __slots__ = ("_packed",)

    def __init__(self, runs: Iterable[tuple] = ()):
        # One run at a time: a join would first hold a small bytes object per
        # run, and their freed memory raised the peak RSS of an n=1600 mobile
        # run by about 2 MB.
        packed = bytearray()
        for source, hop_count, energy, delivered, count in runs:
            while count > MAX_RUN:
                packed += RECORD.pack(source, hop_count, energy, delivered, MAX_RUN)
                count -= MAX_RUN
            packed += RECORD.pack(source, hop_count, energy, delivered, count)
        self._packed = bytes(packed)

    def runs(self) -> Iterator[tuple[int, int, float, bool, int]]:
        """The runs as plain (source, hop_count, energy, delivered, count) tuples."""
        return RECORD.iter_unpack(self._packed)

    def __len__(self) -> int:
        return sum(self._packed[RECORD.size - 1::RECORD.size])  # the counts, one byte each

    def __iter__(self) -> Iterator[Delivery]:
        return map(Delivery._make,
                   chain.from_iterable(repeat(run[:4], run[4]) for run in self.runs()))


@dataclass(frozen=True, slots=True)
class RoundRecord:
    round_index: int
    sink_positions: tuple[Position, ...]
    deliveries: Deliveries
    deaths: tuple[int, ...]


@dataclass
class SimulationTrace:
    config: ScenarioConfig
    field: NetworkField  # node state: initial after deploy, final after the rounds
    partitions: list[Partition]
    placements: list[Optional[SinkPlacement]]  # None for an empty partition
    tours: list[SojournTour]
    initial_neighbor_sets: list[frozenset[int]]
    rounds: list[RoundRecord]


class _PartitionState:
    """Mutable runtime of one partition, an empty one included: sink cycle,
    connectivity graph, and per position a distance field and the members it
    serves, which each new field prunes to those it reached: the graph only
    loses nodes and a position never moves, so the rest can never send.
    A member is served at the nearest covering position of its 3x3 grid
    cells, the earliest of equals (tour coverage), else at the nearest.
    `on_death` is the one place a node dies: it flags, logs and prunes it."""

    __slots__ = ("cycle", "assigned_members", "graph", "dist_fields", "quiet")

    def __init__(self, partition: Partition, field: NetworkField, model: RadioEnergyModel,
                 cycle: tuple[Position, ...]):
        self.cycle = cycle
        r, grid = field.comm_range, Grid(field.comm_range, enumerate(cycle))
        groups: list[list[int]] = [[] for _ in cycle]
        for node_id in partition.member_ids:
            pos = field.nodes[node_id].pos
            covering = [(gap, j) for j in grid.near(pos) if (gap := math.dist(pos, cycle[j])) <= r]
            everywhere = ((math.dist(pos, q), j) for j, q in enumerate(cycle))  # lazy
            groups[min(covering or everywhere)[1]].append(node_id)  # nearest, then earliest
        self.assigned_members = [tuple(g) for g in groups]
        self.graph = build_graph(field, partition, model)
        self.dist_fields: dict[int, SinkField] = {}
        self.quiet = 0

    def dist_field_at(self, pos_idx: int) -> SinkField:
        df = self.dist_fields.get(pos_idx)
        if df is None:
            members = self.assigned_members[pos_idx]
            df = self.dist_fields[pos_idx] = sink_distance_field(
                self.graph, self.cycle[pos_idx], members)
            self.assigned_members[pos_idx] = tuple(m for m in members if m in df.hops)
        return df

    def on_death(self, node_id: int, deaths: list[int]) -> None:
        self.graph.field.nodes[node_id].alive = False
        deaths.append(node_id)
        remove_node(self.graph, node_id)
        self.dist_fields.clear()


def deploy(config: ScenarioConfig) -> SimulationTrace:
    """The seeded setup of a scenario, as a trace with no rounds yet:
    deployment, quadrant split, a CNP placement per non-empty partition, a
    tour per sink (a static sink's holds its placement alone) and each
    sink's initial 1-hop neighbor set. An empty partition's sink idles at
    the quadrant centre, serves no one and has no neighbors."""
    field = generate_network(
        config.n, config.base_side, config.base_n, config.comm_range,
        config.seed, config.initial_energy,
    )
    partitions = quadrant_partition(field)
    placements = [
        cnp_initial_sink_position(field, partition) if partition.member_ids else None
        for partition in partitions
    ]
    tours = []
    for partition, placement in zip(partitions, placements):
        if placement is None:
            b = partition.bounds
            centre = Position((b.x_min + b.x_max) / 2.0, (b.y_min + b.y_max) / 2.0)
            tours.append(SojournTour(partition.id, centre, ()))
        elif config.mode == "mobile":
            tours.append(generate_tour(field, partition, placement))
        else:
            tours.append(SojournTour(partition.id, placement.position, ()))
    neighbor_sets = [
        frozenset(one_hop_neighbors(field, placement.position))
        if placement is not None else frozenset()
        for placement in placements
    ]
    return SimulationTrace(config, field, partitions, placements, tours, neighbor_sets, [])


def run_scenario(config: ScenarioConfig) -> SimulationTrace:
    """Deploy, then simulate rounds, appending each to the trace's `rounds`."""
    trace = deploy(config)
    field, rounds = trace.field, trace.rounds
    model = config.radio()
    states = [
        _PartitionState(partition, field, model, tour.cycle())
        for partition, tour in zip(trace.partitions, trace.tours)
    ]

    nodes = field.nodes
    traffic_rng = random.Random(f"traffic:{config.seed}")
    full = config.sources_per_round is None  # every alive node generates one a round
    generated = None if full else [0] * len(nodes)
    sent = [0] * len(nodes)  # handed over, delivered or dropped
    alive = len(nodes)

    for round_index in range(1, config.max_rounds + 1):
        if not alive:
            break
        if not full:
            alive_ids = [node.id for node in nodes if node.alive]  # ascending
            for node_id in traffic_rng.sample(alive_ids, min(config.sources_per_round, alive)):
                generated[node_id] += 1

        pos_indices = [(round_index - 1) % len(state.cycle) for state in states]
        sink_positions = tuple(state.cycle[j] for state, j in zip(states, pos_indices))

        runs: list[tuple[int, int, float, bool, int]] = []
        add_run = runs.append
        deaths: list[int] = []
        pending_deaths: dict[int, _PartitionState] = {}  # node -> the state that routed it

        for state, pos_idx in zip(states, pos_indices):
            first_run = len(runs)
            graph, dist = state.graph, state.dist_field_at(pos_idx)
            for source in state.assigned_members[pos_idx]:
                generated_now = round_index if full else generated[source]
                # a fresh field holds only alive, reachable nodes, and every death refreshes it
                while sent[source] < generated_now and source in dist.hops:
                    route = min_hop_route(graph, source, dist)
                    energy, delivered, died, underpowered = deliver_packet(field, model, route)
                    count = 1
                    if len(route.path) == 1:
                        # A one-hop route is its source's until it drops or dies, so
                        # the rest of the backlog is served here, as one run.
                        backlog = generated_now - sent[source]
                        while delivered and not died and count < backlog:
                            last, delivered, died, underpowered = deliver_packet(
                                field, model, min_hop_route(graph, source, dist))
                            count += 1
                    sent[source] += count
                    if not delivered and count > 1:  # the drop is a run of its own
                        add_run((source, 1, energy, True, count - 1))
                        energy, count = last, 1
                    add_run((source, len(route.path), energy, delivered, count))
                    if not delivered:
                        pending_deaths.update(dict.fromkeys(underpowered, state))
                        break  # dropped: stop serving this source this round
                    if died:
                        for dead_id in died:
                            state.on_death(dead_id, deaths)
                        dist = state.dist_field_at(pos_idx)
            # a death follows its partition's delivery or drop in the same round
            quiet = len(runs) == first_run and not state.assigned_members[pos_idx]
            state.quiet = state.quiet + 1 if quiet else 0

        # Underpowered nodes could not afford a packet they were routed on;
        # nothing was deducted from them, but they leave the network now.
        for node_id, owner in sorted(pending_deaths.items()):  # unique keys: no state compared
            if nodes[node_id].alive:
                owner.on_death(node_id, deaths)

        alive -= len(deaths)
        rounds.append(RoundRecord(round_index, sink_positions, Deliveries(runs), tuple(deaths)))
        if all(state.quiet >= len(state.cycle) for state in states):
            break

    return trace


def trace_lines(trace: SimulationTrace) -> list[str]:
    """Newline-delimited trace export, one JSON object per round, as
    `json.dumps` writes it: a trace holds no NaN or Infinity, so a float's
    text is its `repr`. A run's record text is written `count` times, and
    a run equal to its source's latest one, as a mobile sink's next visit
    mostly is, reuses that text. A dropped record's `0.0` never meets a
    `-0.0`: a delivered record's energy is a sum of positive costs."""
    latest: dict[int, tuple[tuple, str]] = {}  # source -> (its last run, that run's record text)
    lines = []
    for rec in trace.rounds:
        texts = []
        for run in rec.deliveries.runs():
            hit = latest.get(run[0])
            if hit is None or hit[0] != run:
                s, h, e, ok, _ = run
                hit = latest[s] = run, f"[{s},{h},{e!r},{'true' if ok else 'false'}]"
            if run[4] == 1:  # every static run but a few
                texts.append(hit[1])
            else:
                texts.extend(repeat(hit[1], run[4]))
        sinks = json.dumps([[p.x, p.y] for p in rec.sink_positions], separators=(",", ":"))
        deaths = json.dumps(list(rec.deaths), separators=(",", ":"))
        lines.append(f'{{"round":{rec.round_index},"sinks":{sinks},'
                     f'"deliveries":[{",".join(texts)}],"deaths":{deaths}}}')
    return lines
