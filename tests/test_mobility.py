import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simoco import (
    Position,
    build_coverage_buffer,
    cnp_initial_sink_position,
    generate_tour,
    next_sojourn_point,
    tour_export_lines,
)
from simoco.placement import SinkPlacement
from util import make_field, whole_field_partition


def tour_for(points, sink_pos, comm_range=45.0):
    field = make_field(points, comm_range=comm_range, side=500)
    part = whole_field_partition(field)
    placement = SinkPlacement(Position(float(sink_pos[0]), float(sink_pos[1])), 0, 1)
    return generate_tour(field, part, placement)


class TestCoverageBuffer:
    def test_descending_order_with_in_range_excluded(self):
        field = make_field([(0, 0), (40, 0), (100, 0), (60, 0)], comm_range=45, side=200)
        buf = build_coverage_buffer(field, whole_field_partition(field), Position(0, 0))
        assert [e.node_id for e in buf] == [2, 3]
        assert [e.initial_distance for e in buf] == [100.0, 60.0]

    def test_all_within_range_gives_empty_buffer(self):
        field = make_field([(10, 0), (0, 20), (30, 30)], comm_range=45, side=100)
        buf = build_coverage_buffer(field, whole_field_partition(field), Position(0, 0))
        assert buf == []

    def test_exactly_at_range_excluded(self):
        field = make_field([(45, 0)], comm_range=45, side=100)
        buf = build_coverage_buffer(field, whole_field_partition(field), Position(0, 0))
        assert buf == []

    def test_distance_ties_break_by_node_id(self):
        field = make_field([(0, 60), (60, 0)], comm_range=45, side=100)
        buf = build_coverage_buffer(field, whole_field_partition(field), Position(0, 0))
        assert [e.node_id for e in buf] == [0, 1]


class TestNextSojournPoint:
    def test_step_along_x_axis(self):
        assert next_sojourn_point(Position(0, 0), Position(100, 0), 45) == Position(45.0, 0.0)

    def test_second_step_reaches_coverage(self):
        got = next_sojourn_point(Position(45, 0), Position(100, 0), 45)
        assert got == Position(90.0, 0.0)
        assert math.dist(got, (100, 0)) == pytest.approx(10.0)

    def test_step_along_y_axis(self):
        assert next_sojourn_point(Position(0, 0), Position(0, 100), 45) == Position(0.0, 45.0)

    def test_covered_target_rejected(self):
        with pytest.raises(ValueError, match="already covered"):
            next_sojourn_point(Position(0, 0), Position(30, 0), 45)
        with pytest.raises(ValueError, match="already covered"):
            next_sojourn_point(Position(0, 0), Position(45, 0), 45)

    def test_degenerate_segment_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            next_sojourn_point(Position(5, 5), Position(5, 5), 45)

    @given(
        st.floats(min_value=0, max_value=400),
        st.floats(min_value=0, max_value=400),
        st.floats(min_value=0, max_value=400),
        st.floats(min_value=0, max_value=400),
        st.floats(min_value=1, max_value=80),
    )
    @settings(max_examples=200)
    def test_step_geometry(self, cx, cy, tx, ty, r):
        current, target = Position(cx, cy), Position(tx, ty)
        d = math.dist(current, target)
        if d <= r:
            return
        stepped = next_sojourn_point(current, target, r)
        assert math.dist(current, stepped) == pytest.approx(r, abs=1e-9)
        assert math.dist(stepped, target) == pytest.approx(d - r, abs=1e-9)
        # collinearity via distance decomposition
        assert math.dist(current, stepped) + math.dist(stepped, target) == pytest.approx(d, abs=1e-9)


class TestGenerateTour:
    def test_hand_traced_two_step_tour(self):
        tour = tour_for([(40, 0), (60, 0), (100, 0)], (0, 0))
        assert tour.points == (Position(45.0, 0.0), Position(90.0, 0.0))
        assert len(tour.points) == 2
        assert tour.initial == Position(0.0, 0.0)
        assert tour.cycle() == (Position(0.0, 0.0), Position(45.0, 0.0), Position(90.0, 0.0))

    def test_empty_buffer_keeps_sink_home(self):
        tour = tour_for([(10, 0), (0, 20)], (0, 0))
        assert tour.points == ()
        assert len(tour.points) == 0

    def test_single_node_within_two_steps(self):
        tour = tour_for([(80, 0)], (0, 0))
        assert tour.points == (Position(45.0, 0.0),)
        assert math.dist(tour.points[0], (80, 0)) <= 45

    def test_determinism(self):
        rng = random.Random(7)
        pts = [(rng.uniform(0, 200), rng.uniform(0, 200)) for _ in range(40)]
        assert tour_for(pts, (100, 100)).points == tour_for(pts, (100, 100)).points

    def test_coverage_over_random_partitions(self):
        rng = random.Random(99)
        for _ in range(60):
            n = rng.randint(1, 50)
            r = rng.uniform(15, 60)
            pts = [(rng.uniform(0, 250), rng.uniform(0, 250)) for _ in range(n)]
            field = make_field(pts, comm_range=r, side=250)
            part = whole_field_partition(field)
            placement = cnp_initial_sink_position(field, part)
            tour = generate_tour(field, part, placement)
            cycle = tour.cycle()
            for node in field.nodes:
                assert min(math.dist(node.pos, p) for p in cycle) <= r

    def test_progress_bound_on_step_count(self):
        # every step shortens the current head's distance by exactly the
        # range, and the head is at most a field diagonal away when it takes
        # over, so each buffered node costs at most ceil(diag / r) steps
        rng = random.Random(3)
        for _ in range(40):
            pts = [(rng.uniform(0, 300), rng.uniform(0, 300)) for _ in range(rng.randint(1, 30))]
            r = rng.uniform(20, 60)
            field = make_field(pts, comm_range=r, side=300)
            part = whole_field_partition(field)
            placement = cnp_initial_sink_position(field, part)
            buf = build_coverage_buffer(field, part, placement.position)
            bound = len(buf) * math.ceil(field.side * math.sqrt(2) / r)
            tour = generate_tour(field, part, placement)
            assert len(tour.points) <= bound


class TestTourExport:
    def test_line_format_with_initial_as_step_zero(self):
        tour = tour_for([(40, 0), (60, 0), (100, 0)], (0, 0))
        lines = tour_export_lines([tour])
        assert lines == [
            "0,0,0.0,0.0",
            "0,1,45.0,0.0",
            "0,2,90.0,0.0",
        ]

    def test_multiple_partitions_concatenate(self):
        a = tour_for([(10, 0)], (0, 0))
        b = tour_for([(80, 0)], (0, 0))
        lines = tour_export_lines([a, b])
        assert lines[0].startswith("0,0,")
        assert len(lines) == 1 + 2
