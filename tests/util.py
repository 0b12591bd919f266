"""Shared test helpers."""

import math

from hypothesis import strategies as st

from simoco import NetworkField, Partition, Position, ScenarioConfig, SensorNode
from simoco.engine import MODES
from simoco.partitioning import Rect


def make_field(points, comm_range=45.0, side=None, energy=0.5) -> NetworkField:
    """Field with nodes at explicit positions, ids in listing order."""
    if side is None:
        side = max((max(x, y) for x, y in points), default=1.0) or 1.0
    nodes = [SensorNode(i, Position(float(x), float(y)), energy) for i, (x, y) in enumerate(points)]
    return NetworkField(nodes=nodes, side=float(side), comm_range=float(comm_range))


def scenario_strategy(**overrides):
    """Small random scenarios in both modes, with every alive node or a few
    random sources sending each round; a keyword replaces the strategy of
    that ScenarioConfig field."""
    fields = dict(
        mode=st.sampled_from(MODES),
        n=st.integers(min_value=1, max_value=40),
        comm_range=st.floats(min_value=20.0, max_value=60.0),
        initial_energy=st.floats(min_value=0.002, max_value=0.05),
        seed=st.integers(min_value=0, max_value=2**32),
        max_rounds=st.integers(min_value=1, max_value=200),
        sources_per_round=st.none() | st.integers(min_value=1, max_value=10),
    )
    return st.builds(ScenarioConfig, **{**fields, **overrides})


def whole_field_partition(field: NetworkField, pid: int = 0) -> Partition:
    """A partition containing every node of the field."""
    return Partition(
        pid,
        tuple(node.id for node in field.nodes),
        Rect(0.0, 0.0, field.side, field.side),
    )


SINK = "sink"  # the oracle's own sink vertex; node ids are ints


def floyd_warshall_hops(graph, sink):
    """Independent all-pairs shortest hop counts over the same adjacency,
    with the sink added as a vertex, SINK, joined to every node within range."""
    nodes, r = graph.field.nodes, graph.field.comm_range
    adjacency = {u: set(vs) for u, vs in graph.adjacency.items()}
    adjacency[SINK] = {u for u in graph.adjacency if math.dist(nodes[u].pos, sink) <= r}
    for u in adjacency[SINK]:
        adjacency[u].add(SINK)
    vertices = list(adjacency)
    inf = float("inf")
    dist = {u: {v: (0 if u == v else inf) for v in vertices} for u in vertices}
    for u in vertices:
        for v in adjacency[u]:
            dist[u][v] = 1
    for k in vertices:
        for i in vertices:
            dik = dist[i][k]
            if dik == inf:
                continue
            for j in vertices:
                alt = dik + dist[k][j]
                if alt < dist[i][j]:
                    dist[i][j] = alt
    return dist
