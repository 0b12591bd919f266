import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simoco import Position, generate_network, quadrant_index, quadrant_partition
from util import make_field


def membership(parts):
    return {node_id: p.id for p in parts for node_id in p.member_ids}


class TestQuadrantPartition:
    def test_one_node_per_quadrant(self):
        field = make_field([(10, 10), (190, 10), (10, 190), (190, 190)], side=200)
        parts = quadrant_partition(field)
        assert [sorted(p.member_ids) for p in parts] == [[0], [1], [2], [3]]

    def test_center_tie_goes_right_and_up(self):
        field = make_field([(100, 100)], side=200)
        parts = quadrant_partition(field)
        owners = [p.id for p in parts if p.member_ids]
        assert owners == [3]

    def test_half_ties(self):
        # x on the split goes right, y on the split goes up
        assert quadrant_index(Position(100, 20), 200) == 1
        assert quadrant_index(Position(20, 100), 200) == 2
        assert quadrant_index(Position(99.999, 99.999), 200) == 0

    def test_outer_edges_closed(self):
        field = make_field([(0, 0), (200, 200), (200, 0), (0, 200)], side=200)
        parts = quadrant_partition(field)
        assert membership(parts) == {0: 0, 1: 3, 2: 1, 3: 2}

    def test_degenerate_distribution(self):
        field = make_field([(10, 10), (20, 20), (30, 5)], side=200)
        parts = quadrant_partition(field)
        assert sorted(parts[0].member_ids) == [0, 1, 2]
        assert all(not parts[k].member_ids for k in (1, 2, 3))

    def test_empty_field_rejected(self):
        with pytest.raises(ValueError):
            quadrant_partition(make_field([], side=100))

    def test_bounds_tile_the_field(self):
        field = make_field([(1, 1)], side=200)
        parts = quadrant_partition(field)
        assert parts[0].bounds == (0, 0, 100, 100)
        assert parts[3].bounds == (100, 100, 200, 200)

    def test_members_lie_in_bounds(self):
        field = generate_network(120, 200, 50, 45, 7, 0.5)
        for p in quadrant_partition(field):
            for node_id in p.member_ids:
                pos = field.nodes[node_id].pos
                b = p.bounds
                assert b.x_min <= pos.x <= b.x_max
                assert b.y_min <= pos.y <= b.y_max

    @given(st.integers(min_value=1, max_value=300), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=40, deadline=None)
    def test_total_function(self, n, seed):
        field = generate_network(n, 200, 50, 45, seed, 0.5)
        parts = quadrant_partition(field)
        assert len(parts) == 4
        ids = [node_id for p in parts for node_id in p.member_ids]
        assert len(ids) == n  # disjoint
        assert set(ids) == {node.id for node in field.nodes}  # total
        for p in parts:
            for node_id in p.member_ids:
                assert quadrant_index(field.nodes[node_id].pos, field.side) == p.id
