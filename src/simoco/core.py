"""Geometry primitives, sensor nodes, and seeded random network generation."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import NamedTuple


class Position(NamedTuple):
    x: float
    y: float


@dataclass
class SensorNode:
    id: int
    pos: Position
    energy: float
    alive: bool = True


@dataclass
class NetworkField:
    """A square deployment area with its nodes and a common disk comm range.
    A node's id is its index in `nodes`."""

    nodes: list[SensorNode]
    side: float
    comm_range: float

    def __post_init__(self) -> None:
        if any(node.id != i for i, node in enumerate(self.nodes)):
            raise ValueError("every node id must equal its index in nodes")


def centroid(points: list[Position]) -> Position:
    if not points:
        raise ValueError("empty point set")
    n = len(points)
    return Position(sum(p.x for p in points) / n, sum(p.y for p in points) / n)


def one_hop_neighbors(field: NetworkField, p: Position) -> set[int]:
    """Ids of nodes within comm_range of p (inclusive boundary)."""
    r = field.comm_range
    return {node.id for node in field.nodes if math.dist(node.pos, p) <= r}


def generate_network(
    n: int,
    base_side: float,
    base_n: int,
    comm_range: float,
    seed: int,
    initial_energy: float,
) -> NetworkField:
    """Place n nodes uniformly at random in a density-preserving square.

    The side is scaled to base_side * sqrt(n / base_n) so the node density
    always matches the base configuration. Deployment is drawn from a
    Mersenne Twister (random.Random) seeded with `seed`; per node id order,
    x is drawn before y, which makes layouts bit-reproducible.
    """
    if n < 1:
        raise ValueError(f"node count must be >= 1, got {n}")
    if base_n < 1:
        raise ValueError(f"base node count must be >= 1, got {base_n}")
    if base_side <= 0 or comm_range <= 0:
        raise ValueError("base_side and comm_range must be positive")
    side = base_side * math.sqrt(n / base_n)
    rng = random.Random(seed)
    nodes = [
        SensorNode(i, Position(rng.uniform(0.0, side), rng.uniform(0.0, side)), initial_energy)
        for i in range(n)
    ]
    return NetworkField(nodes=nodes, side=side, comm_range=comm_range)
