"""Quadrant split of the field into four sub-networks, one sink each."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .core import NetworkField, Position


class Rect(NamedTuple):
    x_min: float
    y_min: float
    x_max: float
    y_max: float


@dataclass(frozen=True)
class Partition:
    id: int
    member_ids: tuple[int, ...]  # ascending
    bounds: Rect


def quadrant_index(pos: Position, side: float) -> int:
    """Quadrant of a position: 0=SW, 1=SE, 2=NW, 3=NE.

    Boundary rule: x == side/2 goes right, y == side/2 goes up, so every
    position maps to exactly one quadrant. The outer field edges are closed.
    """
    mid = side / 2.0
    return (2 if pos.y >= mid else 0) + (1 if pos.x >= mid else 0)


def quadrant_partition(field: NetworkField) -> list[Partition]:
    """Split the field at side/2 on both axes into four partitions.

    Empty partitions are legal; placement and mobility skip them downstream.
    """
    if not field.nodes:
        raise ValueError("cannot partition an empty field")
    side = field.side
    mid = side / 2.0
    members: list[list[int]] = [[], [], [], []]
    for node in field.nodes:
        members[quadrant_index(node.pos, side)].append(node.id)
    bounds = [
        Rect(0.0, 0.0, mid, mid),
        Rect(mid, 0.0, side, mid),
        Rect(0.0, mid, mid, side),
        Rect(mid, mid, side, side),
    ]
    return [Partition(k, tuple(members[k]), bounds[k]) for k in range(4)]
