"""SiMoCo sojourn-tour generation: coverage buffer and stepwise sink movement.

Starting from the CNP placement, every partition member farther than the
comm range goes into a buffer sorted by descending distance from that
initial position. While the buffer is nonempty the sink steps a distance of
exactly `comm_range` from its current position toward the buffer head, the
new position becomes a sojourn point, and every buffered node now within
range is removed. The buffer order stays frozen at construction; only the
step geometry uses the current sink position. When the buffer empties the
sink conceptually returns to the initial position, so the finished tour
covers every member from at least one position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .core import NetworkField, Position
from .partitioning import Partition
from .placement import SinkPlacement


class CoverageBufferEntry(NamedTuple):
    node_id: int
    pos: Position
    initial_distance: float


@dataclass(frozen=True)
class SojournTour:
    """Ordered sojourn points of one partition's sink, excluding the initial.

    The return to `initial` at the end of the tour is implicit; `initial`
    is stored once and cycling logic treats the tour as
    initial -> points[0] -> ... -> points[-1] -> initial -> ...
    """

    partition_id: int
    initial: Position
    points: tuple[Position, ...]

    @property
    def step_count(self) -> int:
        return len(self.points)

    def cycle(self) -> tuple[Position, ...]:
        return (self.initial,) + self.points


def build_coverage_buffer(
    field: NetworkField, partition: Partition, sink: Position
) -> list[CoverageBufferEntry]:
    """Members farther than comm_range from the sink, farthest first.

    Ties on distance break by ascending node id. A node at exactly
    comm_range is a 1-hop neighbor (inclusive rule) and stays out.
    """
    r = field.comm_range
    entries = []
    for node_id in partition.member_ids:
        pos = field.nodes[node_id].pos
        d = math.dist(pos, sink)
        if d > r:
            entries.append(CoverageBufferEntry(node_id, pos, d))
    entries.sort(key=lambda e: (-e.initial_distance, e.node_id))
    return entries


def next_sojourn_point(current: Position, target: Position, comm_range: float) -> Position:
    """Step from `current` a distance of comm_range along the line to `target`.

    With d_fs = |current - target| and move = d_fs - comm_range, the new
    point is the convex combination (move * current + comm_range * target)
    / d_fs per axis, which leaves the target at distance d_fs - comm_range.
    """
    d_fs = math.dist(current, target)
    if d_fs == 0.0:
        raise ValueError("degenerate segment: current and target coincide")
    if d_fs <= comm_range:
        raise ValueError(f"target already covered: distance {d_fs} <= range {comm_range}")
    move = d_fs - comm_range
    return Position(
        (move * current.x + comm_range * target.x) / d_fs,
        (move * current.y + comm_range * target.y) / d_fs,
    )


def generate_tour(field: NetworkField, partition: Partition, sink: SinkPlacement) -> SojournTour:
    """Walk the coverage buffer down to empty and return the sojourn tour.

    While the buffer head stays fixed each step shortens its distance by
    exactly comm_range, so the head is removed after finitely many steps
    and the loop terminates; the iteration cap converts any latent bug
    into a clean error instead of a hang.
    """
    entries = build_coverage_buffer(field, partition, sink.position)
    r = field.comm_range
    cap = 4 * len(field.nodes) * math.ceil(field.side * math.sqrt(2.0) / r)
    current = sink.position
    points: list[Position] = []
    while entries:
        if len(points) >= cap:
            raise RuntimeError(f"tour did not converge within {cap} steps")
        target = entries[0]
        current = next_sojourn_point(current, target.pos, r)
        points.append(current)
        entries = [e for e in entries if math.dist(e.pos, current) > r]
    return SojournTour(partition.id, sink.position, tuple(points))


def tour_export_lines(tours: Iterable[SojournTour]) -> list[str]:
    """Plain-text trajectory export: one `partition_id,step_index,x,y` line
    per position, step_index 0 being the initial position."""
    lines = []
    for tour in tours:
        for idx, pos in enumerate(tour.cycle()):
            lines.append(f"{tour.partition_id},{idx},{pos.x!r},{pos.y!r}")
    return lines
