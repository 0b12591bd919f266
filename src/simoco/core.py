"""Geometry primitives, sensor nodes, and seeded random network generation."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, NamedTuple


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


class Grid:
    """Keys bucketed by position into square cells, the one spatial index of
    every range query: the 3x3 cells around a point hold every key within
    `reach` of it, for the caller to filter with `math.dist`. A cell is
    `reach * (1 + 2**-20)` wide, so that rounding in `x / side` never puts a
    pair at exactly `reach` two cells apart (for |x| below 2**32 cells)."""

    def __init__(self, reach: float, items: Iterable[tuple[int, Position]]):
        self.side = reach * (1.0 + 2.0**-20)
        self.cells: dict[tuple[int, int], list[int]] = {}
        for key, pos in items:
            self.cells.setdefault(self.cell(pos), []).append(key)

    def cell(self, p: Position) -> tuple[int, int]:
        return math.floor(p[0] / self.side), math.floor(p[1] / self.side)

    def near(self, p: Position) -> list[int]:
        """The keys of the 3x3 cells around p, in no useful order."""
        cx, cy = self.cell(p)
        return [key for dx in (-1, 0, 1) for dy in (-1, 0, 1)
                for key in self.cells.get((cx + dx, cy + dy), ())]


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
    side = base_side * math.sqrt(n / base_n)
    rng = random.Random(seed)
    nodes = [
        SensorNode(i, Position(rng.uniform(0.0, side), rng.uniform(0.0, side)), initial_energy)
        for i in range(n)
    ]
    return NetworkField(nodes=nodes, side=side, comm_range=comm_range)
