"""CNP sink placement: centroid hill-climbing on 1-hop neighbor count.

The sink starts at the centroid of all partition members. Each iteration
takes the centroid of the current position's 1-hop members as a candidate
and moves there only if the candidate strictly increases the 1-hop neighbor
count; otherwise the current position is final. Accepted neighbor counts
strictly increase and are bounded by the partition size, so the climb
terminates within |partition| accepted positions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from .core import NetworkField, Position, centroid
from .partitioning import Partition


@dataclass(frozen=True)
class SinkPlacement:
    position: Position
    neighbor_count: int
    iterations: int


def _count_in_range(points: list[Position], p: Position, r: float) -> int:
    return sum(1 for q in points if math.dist(q, p) <= r)


def cnp_iterates(field: NetworkField, partition: Partition) -> Iterator[tuple[Position, int]]:
    """Yield each accepted (position, neighbor_count) of the CNP climb in order.

    All partition members participate regardless of their alive flag:
    placement happens before any simulation round. Neighbor counting is
    restricted to the sink's own partition. Equal counts stop the climb
    (only a strict improvement moves the sink), and a position with zero
    1-hop neighbors terminates immediately so the centroid of an empty
    neighbor set is never taken.
    """
    if not partition.member_ids:
        raise ValueError(f"empty partition {partition.id}")
    points = [field.nodes[i].pos for i in partition.member_ids]
    r = field.comm_range
    current = centroid(points)
    count = _count_in_range(points, current, r)
    yield current, count
    while count > 0:
        in_range = [q for q in points if math.dist(q, current) <= r]
        candidate = centroid(in_range)
        candidate_count = _count_in_range(points, candidate, r)
        if candidate_count <= count:
            return
        current, count = candidate, candidate_count
        yield current, count


def cnp_initial_sink_position(field: NetworkField, partition: Partition) -> SinkPlacement:
    """Run the CNP climb and return the final sink placement."""
    iterations = 0
    position = None
    count = 0
    for position, count in cnp_iterates(field, partition):
        iterations += 1
    assert position is not None
    return SinkPlacement(position, count, iterations)
