"""Connectivity graph, minimum-hop routing, and radio energy accounting.

Routing is a breadth-first shortest path to the sink. The graph joins
nodes only; the sink is a routing parameter, not a vertex, so one graph
serves every sink position of a partition. Among next hops that lie on some
fewest-hop path, the neighbor with the highest residual energy wins,
remaining ties break on the lowest node id; this rotates relay duty as
batteries drain while keeping routes deterministic.

Energy follows the first order radio model: transmitting k bits over
distance d costs e_elec*k + e_amp*k*d^2, receiving costs e_elec*k, and the
sink is not energy constrained.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .core import NetworkField, Position, SensorNode
from .partitioning import Partition

SINK_ID = -1


@dataclass
class ConnectivityGraph:
    """Undirected graph over one partition's alive members.

    Edges join alive nodes within comm_range of each other. `nodes` keeps
    live references so residual energy is read at routing time.
    """

    nodes: dict[int, SensorNode]
    adjacency: dict[int, set[int]]
    comm_range: float


@dataclass(frozen=True)
class Route:
    """Hop sequence from `source` (exclusive) to the sink, SINK_ID (inclusive)."""

    source: int
    hops: tuple[int, ...]
    sink_pos: Position

    @property
    def hop_count(self) -> int:
        return len(self.hops)


class DeliveryRecord(NamedTuple):
    hop_count: int
    total_energy: float
    delivered: bool
    died: tuple[int, ...]
    underpowered: tuple[int, ...]


@dataclass(frozen=True)
class RadioEnergyModel:
    e_elec: float = 50e-9  # J per bit, transceiver electronics
    e_amp: float = 100e-12  # J per bit per m^2, transmit amplifier
    packet_bits: int = 2000

    def __post_init__(self) -> None:
        if self.e_elec <= 0 or self.e_amp <= 0 or self.packet_bits <= 0:
            raise ValueError("radio parameters must be strictly positive")


def tx_energy(model: RadioEnergyModel, d: float) -> float:
    if d < 0:
        raise ValueError(f"negative distance {d}")
    return model.e_elec * model.packet_bits + model.e_amp * model.packet_bits * d * d


def rx_energy(model: RadioEnergyModel) -> float:
    return model.e_elec * model.packet_bits


def build_graph(field: NetworkField, partition: Partition) -> ConnectivityGraph:
    r = field.comm_range
    by_id = field.by_id
    alive = [by_id[i] for i in sorted(partition.member_ids) if by_id[i].alive]
    nodes = {node.id: node for node in alive}
    adjacency: dict[int, set[int]] = {node.id: set() for node in alive}
    for i, a in enumerate(alive):
        for b in alive[i + 1 :]:
            if math.dist(a.pos, b.pos) <= r:
                adjacency[a.id].add(b.id)
                adjacency[b.id].add(a.id)
    return ConnectivityGraph(nodes, adjacency, r)


def remove_node(graph: ConnectivityGraph, node_id: int) -> None:
    """Drop a (dead) node from the graph in place."""
    for other in graph.adjacency.pop(node_id, ()):
        graph.adjacency[other].discard(node_id)
    graph.nodes.pop(node_id, None)


def sink_distance_field(graph: ConnectivityGraph, sink_pos: Position) -> dict[int, int]:
    """Hop distance to a sink at `sink_pos` for every vertex that can reach
    it (BFS); the nodes within comm_range of the sink are one hop away, and
    SINK_ID maps to 0."""
    dist = {SINK_ID: 0}
    queue: deque[int] = deque()
    for node_id, node in graph.nodes.items():
        if math.dist(node.pos, sink_pos) <= graph.comm_range:
            dist[node_id] = 1
            queue.append(node_id)
    adjacency = graph.adjacency
    while queue:
        u = queue.popleft()
        du = dist[u] + 1
        for v in adjacency[u]:
            if v not in dist:
                dist[v] = du
                queue.append(v)
    return dist


def min_hop_route(
    graph: ConnectivityGraph,
    source: int,
    sink_pos: Position,
    dist_field: Optional[dict[int, int]] = None,
) -> Optional[Route]:
    """Fewest-hop route from source to a sink at `sink_pos`, or None when
    unreachable.

    Accepts that sink's precomputed distance field so a round's BFS can be
    shared across sources; passing one changes nothing in the result.
    """
    node = graph.nodes.get(source)
    if node is None or not node.alive:
        raise ValueError(f"source {source} is dead or not in the graph")
    dist = dist_field if dist_field is not None else sink_distance_field(graph, sink_pos)
    d = dist.get(source)
    if d is None:
        return None
    nodes = graph.nodes
    adjacency = graph.adjacency
    hops: list[int] = []
    current = source
    while d > 1:
        best = None
        best_key = None
        for v in adjacency[current]:
            if dist.get(v) == d - 1:
                cand = nodes[v]
                key = (cand.energy, -v)
                if best_key is None or key > best_key:
                    best, best_key = v, key
        assert best is not None, "distance field inconsistent with adjacency"
        hops.append(best)
        current = best
        d -= 1
    hops.append(SINK_ID)
    return Route(source, tuple(hops), sink_pos)


def deliver_packet(field: NetworkField, model: RadioEnergyModel, route: Route) -> DeliveryRecord:
    """Charge one packet's traversal of `route` against the field's nodes.

    Every sender pays tx for its hop distance and every relay additionally
    pays rx; the sink pays nothing. Delivery is atomic: if any node on the
    route cannot afford its share, the packet is dropped, nothing is
    deducted, and the offenders are reported as underpowered (to be marked
    dead at round end by the caller). Nodes whose energy falls below the
    death threshold after a completed delivery are marked dead here.
    """
    by_id = field.by_id
    path = [route.source] + [h for h in route.hops if h != SINK_ID]
    nodes = []
    for node_id in path:
        node = by_id[node_id]
        if not node.alive:
            raise ValueError(f"stale route: node {node_id} is dead")
        nodes.append(node)
    costs = []
    for idx, node in enumerate(nodes):
        next_pos = nodes[idx + 1].pos if idx + 1 < len(nodes) else route.sink_pos
        cost = tx_energy(model, math.dist(node.pos, next_pos))
        if idx > 0:
            cost += rx_energy(model)
        costs.append(cost)
    underpowered = tuple(n.id for n, c in zip(nodes, costs) if n.energy < c)
    if underpowered:
        return DeliveryRecord(route.hop_count, 0.0, False, (), underpowered)
    total = 0.0
    for node, cost in zip(nodes, costs):
        node.energy -= cost
        total += cost
    threshold = rx_energy(model)  # dead once it cannot afford receiving a packet
    died = []
    for node in nodes:
        if node.alive and node.energy < threshold:
            node.alive = False
            died.append(node.id)
    return DeliveryRecord(route.hop_count, total, True, tuple(died), ())
