"""Shared test helpers."""

import math

from simoco import NetworkField, Partition, Position, SensorNode
from simoco.partitioning import Rect
from simoco.routing import SINK_ID


def make_field(points, comm_range=45.0, side=None, energy=0.5, seed=0) -> NetworkField:
    """Field with nodes at explicit positions, ids in listing order."""
    if side is None:
        side = max((max(x, y) for x, y in points), default=1.0) or 1.0
    nodes = [SensorNode(i, Position(float(x), float(y)), energy) for i, (x, y) in enumerate(points)]
    return NetworkField(nodes=nodes, side=float(side), comm_range=float(comm_range), seed=seed)


def whole_field_partition(field: NetworkField, pid: int = 0) -> Partition:
    """A partition containing every node of the field."""
    return Partition(
        pid,
        frozenset(node.id for node in field.nodes),
        Rect(0.0, 0.0, field.side, field.side),
    )


def floyd_warshall_hops(graph, sink):
    """Independent all-pairs shortest hop counts over the same adjacency,
    with the sink added as a vertex joined to every node within range."""
    adjacency = {u: set(vs) for u, vs in graph.adjacency.items()}
    adjacency[SINK_ID] = {
        u for u, node in graph.nodes.items() if math.dist(node.pos, sink) <= graph.comm_range
    }
    for u in adjacency[SINK_ID]:
        adjacency[u].add(SINK_ID)
    vertices = sorted(adjacency)
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
