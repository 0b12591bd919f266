"""A naive reference engine, the differential oracle for `simoco.engine`,
and a naive trace writer, the oracle for `simoco.trace_lines`.

It is written from the docstrings of `engine` and `routing` and keeps no
cache and no fast path. For every packet it rebuilds the partition's graph
of alive nodes, runs the breadth-first search from the sink position, walks
a fewest-hop route that picks the next hop by highest residual energy and
then lowest id, prices every hop from the radio model and charges the packet
all at once or not at all. Only deployment, CNP placement and the SiMoCo
tour walk are shared with the engine; each sink's cycle, an idle sink's
quadrant centre and the position serving each node are computed here.
"""

import json
import math
import random
from collections import deque
from dataclasses import replace

from simoco import Deliveries, Position, RoundRecord, SojournTour, deploy, generate_tour
from simoco.partitioning import quadrant_index


def alive_graph(field, members):
    """Adjacency lists over the alive members, joining nodes within range."""
    alive = [i for i in members if field.nodes[i].alive]

    def near(u, v):
        return math.dist(field.nodes[u].pos, field.nodes[v].pos) <= field.comm_range

    return {u: [v for v in alive if v != u and near(u, v)] for u in alive}


def hops_to_sink(field, graph, sink):
    """Fewest hops to the sink; the nodes within range of it are one hop away."""
    dist = {u: 1 for u in graph if math.dist(field.nodes[u].pos, sink) <= field.comm_range}
    queue = deque(dist)
    while queue:
        u = queue.popleft()
        for v in graph[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def route(field, graph, dist, source):
    """The nodes that transmit the packet, source first."""
    path = [source]
    while dist[path[-1]] > 1:
        closer = [v for v in graph[path[-1]] if dist.get(v) == dist[path[-1]] - 1]
        path.append(max(closer, key=lambda v: (field.nodes[v].energy, -v)))
    return path


def send(field, config, path, sink):
    """Charge one packet along `path`: (delivered, energy, died, underpowered)."""
    bits = config.packet_bits
    rx = config.e_elec * bits
    costs = []
    for i, u in enumerate(path):
        target = field.nodes[path[i + 1]].pos if i + 1 < len(path) else sink
        d = math.dist(field.nodes[u].pos, target)
        tx = config.e_elec * bits + config.e_amp * bits * d * d
        costs.append(tx + rx if i > 0 else tx)
    short = [u for u, cost in zip(path, costs) if field.nodes[u].energy < cost]
    if short:
        return False, 0.0, [], short
    total = 0.0
    for u, cost in zip(path, costs):
        field.nodes[u].energy -= cost
        total += cost
    died = [u for u in path if field.nodes[u].energy < rx]
    for u in died:
        field.nodes[u].alive = False
    return True, total, died, []


def run_reference(config):
    """Simulate `config` from scratch, packet by packet."""
    setup = deploy(config)
    field = setup.field
    cycles = []
    for partition, placement in zip(setup.partitions, setup.placements):
        b = partition.bounds
        centre = Position((b.x_min + b.x_max) / 2.0, (b.y_min + b.y_max) / 2.0)
        if placement is None:
            cycles.append((centre,))
        elif config.mode == "mobile":
            cycles.append(generate_tour(field, partition, placement).cycle())
        else:
            cycles.append((placement.position,))

    r = field.comm_range
    part_of = [quadrant_index(node.pos, field.side) for node in field.nodes]
    members = [[u for u, k in enumerate(part_of) if k == q] for q in range(4)]
    serve_at = []  # nearest covering cycle position, then nearest, then earliest
    for node in field.nodes:
        cycle = cycles[part_of[node.id]]
        gap = [math.dist(node.pos, p) for p in cycle]
        serve_at.append(min(range(len(cycle)), key=lambda j: (gap[j] > r, gap[j], j)))

    rng = random.Random(f"traffic:{config.seed}")
    backlog = [0] * len(field.nodes)
    quiet = [0] * 4
    rounds = []
    for round_index in range(1, config.max_rounds + 1):
        alive = [node.id for node in field.nodes if node.alive]
        if not alive:
            break
        if config.sources_per_round is None:
            sources = alive
        else:
            sources = rng.sample(alive, min(config.sources_per_round, len(alive)))
        for u in sources:
            backlog[u] += 1
        at = [(round_index - 1) % len(cycle) for cycle in cycles]
        sinks = tuple(cycle[j] for cycle, j in zip(cycles, at))

        deliveries, deaths, underpowered = [], [], set()
        active = [False] * 4
        for k in range(4):
            for source in members[k]:
                if serve_at[source] != at[k]:
                    continue
                while field.nodes[source].alive and backlog[source] > 0:
                    graph = alive_graph(field, members[k])
                    dist = hops_to_sink(field, graph, sinks[k])
                    if source not in dist:
                        break
                    path = route(field, graph, dist, source)
                    delivered, energy, died, short = send(field, config, path, sinks[k])
                    backlog[source] -= 1
                    deliveries.append((source, len(path), energy, delivered, 1))  # a run of one
                    if not delivered:
                        underpowered.update(short)
                        break
                    active[k] = True
                    deaths.extend(died)
        for u in sorted(underpowered):
            if field.nodes[u].alive:
                field.nodes[u].alive = False
                deaths.append(u)
                active[part_of[u]] = True
        rounds.append(RoundRecord(round_index, sinks, Deliveries(deliveries), tuple(deaths)))

        for k in range(4):  # quiet: no delivery, no death, no member that can still send
            reach = hops_to_sink(field, alive_graph(field, members[k]), sinks[k])
            served = any(u in reach for u in members[k] if serve_at[u] == at[k])
            quiet[k] = 0 if active[k] or served else quiet[k] + 1
        if all(q >= len(cycle) for q, cycle in zip(quiet, cycles)):
            break
    tours = [SojournTour(k, cycle[0], cycle[1:]) for k, cycle in enumerate(cycles)]
    return replace(setup, tours=tours, rounds=rounds)


def reference_trace_lines(trace):
    """The trace export as `json.dumps` of one dict per round, with no record
    text reused: what `trace_lines` must write byte for byte."""
    return [
        json.dumps({
            "round": rec.round_index,
            "sinks": [[p.x, p.y] for p in rec.sink_positions],
            "deliveries": [list(d) for d in rec.deliveries],
            "deaths": list(rec.deaths),
        }, separators=(",", ":"))
        for rec in trace.rounds
    ]
