"""Connectivity graph, minimum-hop routing, and radio energy accounting.

Routing is a breadth-first shortest path to the sink. The graph joins
nodes only, keyed by node id, which indexes `field.nodes`; the sink is a
position passed to routing, not a vertex, so one graph serves every sink
position of a partition. Among next hops that lie on some fewest-hop path,
the neighbor with the highest residual energy wins, remaining ties break
on the lowest node id; this rotates relay duty as batteries drain while
keeping routes deterministic.

Energy follows the first order radio model: transmitting k bits over
distance d costs e_elec*k + e_amp*k*d^2, receiving costs e_elec*k, and the
sink is not energy constrained.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

from .core import NetworkField, Position
from .partitioning import Partition

# The sink is a position, so no route or distance field holds this id. Only
# perfbench/worker.py reads the name, until ROADMAP item 1's benchmark change removes it.
SINK_ID = -1


@dataclass
class ConnectivityGraph:
    """Undirected graph over one partition's alive members, the keys of
    `adjacency`; `adjacency[u][v]` is u's tx cost, priced once under `model`,
    to a neighbor v within comm_range. Residual energy is read at routing time.
    """

    field: NetworkField
    model: RadioEnergyModel
    adjacency: dict[int, dict[int, float]]


class Route(NamedTuple):
    """The nodes that transmit a packet, source first; the last sends to the
    sink. `costs[i]` is what `path[i]` pays: its tx cost, plus rx for a relay."""

    path: tuple[int, ...]
    costs: tuple[float, ...]

    @property
    def hop_count(self) -> int:
        return len(self.path)


class SinkField(NamedTuple):
    """One sink position's routing state until a node dies: the hop counts
    `sink_distance_field` found, each in-range node's one-hop route, and,
    filled on first use, each node's `(neighbor, tx cost)` pairs one hop closer."""

    hops: dict[int, int]
    direct: dict[int, Route]
    closer: dict[int, list[tuple[int, float]]]


class DeliveryRecord(NamedTuple):
    total_energy: float
    delivered: bool
    died: tuple[int, ...]
    underpowered: tuple[int, ...]


@dataclass(frozen=True)
class RadioEnergyModel:
    e_elec: float = 50e-9  # J per bit, transceiver electronics
    e_amp: float = 100e-12  # J per bit per m^2, transmit amplifier
    packet_bits: int = 2000


def tx_energy(model: RadioEnergyModel, d: float) -> float:
    return model.e_elec * model.packet_bits + model.e_amp * model.packet_bits * d * d


def rx_energy(model: RadioEnergyModel) -> float:
    return model.e_elec * model.packet_bits


def build_graph(
    field: NetworkField, partition: Partition, model: RadioEnergyModel
) -> ConnectivityGraph:
    r = field.comm_range
    alive = [field.nodes[i] for i in partition.member_ids if field.nodes[i].alive]
    adjacency: dict[int, dict[int, float]] = {node.id: {} for node in alive}
    for i, a in enumerate(alive):
        for b in alive[i + 1 :]:
            d = math.dist(a.pos, b.pos)
            if d <= r:
                adjacency[a.id][b.id] = adjacency[b.id][a.id] = tx_energy(model, d)
    return ConnectivityGraph(field, model, adjacency)


def remove_node(graph: ConnectivityGraph, node_id: int) -> None:
    """Drop a (dead) node from the graph in place."""
    for other in graph.adjacency.pop(node_id, ()):
        del graph.adjacency[other][node_id]


def sink_distance_field(
    graph: ConnectivityGraph, sink_pos: Position, targets: Iterable[int]
) -> SinkField:
    """Hop distance to a sink at `sink_pos` (BFS); the nodes within
    comm_range of the sink are one hop away. The search stops once every
    alive node of `targets` that can reach the sink has its hop count; by
    then every node closer than a target has one too, so the targets'
    routes are those of a full search, and a target left out cannot reach
    the sink. A mobile sink's targets are all in its one-hop ring."""
    nodes, r, adjacency = graph.field.nodes, graph.field.comm_range, graph.adjacency
    hops, direct = {}, {}
    queue: deque[int] = deque()
    for node_id in adjacency:
        d = math.dist(nodes[node_id].pos, sink_pos)
        if d <= r:
            hops[node_id] = 1
            direct[node_id] = Route((node_id,), (tx_energy(graph.model, d),))
            queue.append(node_id)
    pending = {v for v in targets if v in adjacency and v not in hops}
    while queue and pending:
        u = queue.popleft()
        du = hops[u] + 1
        for v in adjacency[u]:
            if v not in hops:
                hops[v] = du
                queue.append(v)
                pending.discard(v)
    return SinkField(hops, direct, {})


def min_hop_route(graph: ConnectivityGraph, source: int, sink_field: SinkField) -> Optional[Route]:
    """Fewest-hop route from source to the sink of `sink_field`, or None when
    unreachable; one `sink_distance_field` serves each of its targets.
    Each `closer` list ascends by id, as `build_graph` fills adjacency in id
    order and `remove_node` keeps it, so the first richest is the lowest id."""
    hops, direct, closer = sink_field
    route = direct.get(source)
    if route is not None:
        return route
    d = hops.get(source)
    if d is None:
        return None
    nodes = graph.field.nodes
    relay_rx = rx_energy(graph.model)
    path, costs, current = [source], [], source
    rx = 0.0  # the source receives nothing, and tx + 0.0 == tx
    while d > 1:
        options = closer.get(current)
        if options is None:
            options = closer[current] = [
                (v, cost) for v, cost in graph.adjacency[current].items() if hops.get(v) == d - 1
            ]
        best, best_cost = options[0]
        best_energy = nodes[best].energy
        for v, cost in options:
            energy = nodes[v].energy
            if energy > best_energy:
                best, best_cost, best_energy = v, cost, energy
        path.append(best)
        costs.append(best_cost + rx)
        rx = relay_rx
        current = best
        d -= 1
    costs.append(direct[current].costs[0] + rx)
    return Route(tuple(path), tuple(costs))


def deliver_packet(field: NetworkField, model: RadioEnergyModel, route: Route) -> DeliveryRecord:
    """Charge one packet's traversal of `route`: each node pays its share in
    `route.costs`, the sink nothing. Delivery is atomic: if any node cannot
    afford its share, the packet drops, nothing is deducted, and the
    offenders are reported as underpowered (dead at round end); else nodes
    left below the death threshold are reported as died. The caller marks both.
    """
    # Records are built by tuple.__new__, which skips the NamedTuple's own
    # Python-level __new__; this runs once per packet.
    nodes = field.nodes
    path, costs = route
    threshold = model.e_elec * model.packet_bits  # dead once it cannot afford an rx
    if len(path) == 1:  # every mobile delivery; its total, 0.0 + cost, is cost itself
        node, cost = nodes[path[0]], costs[0]
        if not node.alive:
            raise ValueError(f"stale route: node {node.id} is dead")
        energy = node.energy
        if energy < cost:
            return tuple.__new__(DeliveryRecord, (0.0, False, (), path))
        node.energy = energy = energy - cost
        if energy < threshold:
            return tuple.__new__(DeliveryRecord, (cost, True, path, ()))
        return tuple.__new__(DeliveryRecord, (cost, True, (), ()))
    underpowered = []
    for node_id, cost in zip(path, costs):
        node = nodes[node_id]
        if not node.alive:
            raise ValueError(f"stale route: node {node_id} is dead")
        if node.energy < cost:
            underpowered.append(node_id)
    if underpowered:
        return tuple.__new__(DeliveryRecord, (0.0, False, (), tuple(underpowered)))
    total = 0.0
    died = []
    for node_id, cost in zip(path, costs):
        node = nodes[node_id]
        node.energy -= cost
        total += cost
        if node.energy < threshold:
            died.append(node_id)
    return tuple.__new__(DeliveryRecord, (total, True, tuple(died), ()))
