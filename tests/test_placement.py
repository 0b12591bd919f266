import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simoco import (
    Position,
    cnp_initial_sink_position,
    cnp_iterates,
    generate_network,
    quadrant_partition,
)
from util import make_field, whole_field_partition


def place(points, comm_range=45.0):
    field = make_field(points, comm_range=comm_range, side=500)
    return cnp_initial_sink_position(field, whole_field_partition(field))


class TestCnpExamples:
    def test_five_member_cluster_plus_outlier(self):
        # oracle hand trace: centroid (24,24) sees the 4 cluster nodes; the
        # candidate (centroid of those 4) sees the same 4, so no move
        got = place([(0, 0), (10, 0), (0, 10), (10, 10), (100, 100)])
        assert got.position == pytest.approx((24.0, 24.0))
        assert got.neighbor_count == 4
        assert got.iterations == 1

    def test_five_member_variant_sum_122(self):
        # same trace with the cluster at 11: centroid (122/5, 122/5) = (24.4, 24.4)
        got = place([(0, 0), (11, 0), (0, 11), (11, 11), (100, 100)])
        assert got.position == pytest.approx((24.4, 24.4))
        assert got.neighbor_count == 4
        assert got.iterations == 1

    def test_single_member(self):
        got = place([(50, 50)])
        assert got.position == Position(50, 50)
        assert got.neighbor_count == 1
        assert got.iterations == 1

    def test_tight_cluster_returns_initial_centroid(self):
        pts = [(40, 40), (42, 40), (40, 42), (44, 44), (41, 43)]
        got = place(pts)
        xs = sum(x for x, _ in pts) / 5
        ys = sum(y for _, y in pts) / 5
        assert got.position == pytest.approx((xs, ys))
        assert got.iterations == 1

    def test_zero_neighbor_centroid_terminates_immediately(self):
        got = place([(0, 0), (200, 200)])
        assert got.position == pytest.approx((100.0, 100.0))
        assert got.neighbor_count == 0
        assert got.iterations == 1

    def test_hill_climb_moves_toward_density(self):
        # hand trace: the global centroid sits at x=72 and sees only the
        # stack at x=60 (10 nodes); that stack's centroid (60, 50) also
        # reaches the stack at x=20, doubling the count, so one move is
        # accepted and the next candidate (x=40) ties at 20 and stops
        stack_a = [(20, 50)] * 10
        stack_b = [(60, 50)] * 10
        outliers = [(200, 50)] * 5
        got = place(stack_a + stack_b + outliers, comm_range=45)
        assert got.position == Position(60.0, 50.0)
        assert got.neighbor_count == 20
        assert got.iterations == 2

    def test_empty_partition_rejected(self):
        field = generate_network(4, 200, 100, 45, 2, 0.5)
        empties = [p for p in quadrant_partition(field) if not p.member_ids]
        assert empties, "seed 2 is known to leave a quadrant bare"
        with pytest.raises(ValueError, match="empty partition"):
            cnp_initial_sink_position(field, empties[0])


class TestCnpProperties:
    def test_termination_and_strict_monotonicity(self):
        rng = random.Random(42)
        for _ in range(120):
            n = rng.randint(1, 60)
            pts = [(rng.uniform(0, 150), rng.uniform(0, 150)) for _ in range(n)]
            field = make_field(pts, comm_range=rng.uniform(10, 60), side=150)
            part = whole_field_partition(field)
            counts = [count for _, count in cnp_iterates(field, part)]
            assert 1 <= len(counts) <= n
            assert all(b > a for a, b in zip(counts, counts[1:]))
            placement = cnp_initial_sink_position(field, part)
            assert placement.iterations == len(counts)
            assert placement.neighbor_count == counts[-1]
            # final count never drops below the all-members-centroid count
            assert placement.neighbor_count >= counts[0]

    def test_neighbor_count_matches_one_hop_at_return(self):
        field = generate_network(60, 200, 100, 45, 5, 0.5)
        for part in quadrant_partition(field):
            if not part.member_ids:
                continue
            placement = cnp_initial_sink_position(field, part)
            in_range = sum(
                1
                for node_id in part.member_ids
                if math.dist(field.nodes[node_id].pos, placement.position) <= field.comm_range
            )
            assert placement.neighbor_count == in_range

    @given(
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=-50, max_value=50),
        st.integers(min_value=-50, max_value=50),
    )
    @settings(max_examples=30, deadline=None)
    def test_translation_equivariance(self, seed, dx, dy):
        rng = random.Random(seed)
        pts = [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(rng.randint(1, 40))]
        base = make_field(pts, comm_range=45, side=300)
        moved = make_field([(x + dx + 60, y + dy + 60) for x, y in pts], comm_range=45, side=300)
        a = cnp_initial_sink_position(base, whole_field_partition(base))
        b = cnp_initial_sink_position(moved, whole_field_partition(moved))
        assert b.position.x == pytest.approx(a.position.x + dx + 60, abs=1e-9)
        assert b.position.y == pytest.approx(a.position.y + dy + 60, abs=1e-9)
        assert b.neighbor_count == a.neighbor_count
        assert b.iterations == a.iterations
