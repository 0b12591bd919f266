import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simoco import (
    NetworkField,
    Position,
    SensorNode,
    centroid,
    generate_network,
    one_hop_neighbors,
)
from util import make_field

coords = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
positions = st.builds(Position, coords, coords)


class TestCentroid:
    def test_square_symmetry(self):
        c = centroid([Position(0, 0), Position(2, 0), Position(0, 2), Position(2, 2)])
        assert c == Position(1, 1)

    def test_single_point(self):
        assert centroid([Position(5, 7)]) == Position(5, 7)

    def test_five_point_hand_sum(self):
        # oracle: coordinate sums are 120 per axis, so the mean is 24.0
        pts = [Position(0, 0), Position(10, 0), Position(0, 10), Position(10, 10), Position(100, 100)]
        assert centroid(pts) == pytest.approx((24.0, 24.0))

    def test_five_point_hand_sum_122(self):
        # oracle: coordinate sums are 122 per axis, so the mean is 24.4
        pts = [Position(0, 0), Position(11, 0), Position(0, 11), Position(11, 11), Position(100, 100)]
        assert centroid(pts) == pytest.approx((24.4, 24.4))

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="empty point set"):
            centroid([])

    @given(st.lists(positions, min_size=1, max_size=30))
    def test_within_bounding_box(self, pts):
        c = centroid(pts)
        eps = 1e-6
        assert min(p.x for p in pts) - eps <= c.x <= max(p.x for p in pts) + eps
        assert min(p.y for p in pts) - eps <= c.y <= max(p.y for p in pts) + eps


class TestNetworkField:
    def test_node_id_must_be_its_index(self):
        nodes = [SensorNode(1, Position(0, 0), 0.5), SensorNode(0, Position(5, 5), 0.5)]
        with pytest.raises(ValueError, match="index"):
            NetworkField(nodes=nodes, side=10.0, comm_range=45.0)
        nodes.reverse()
        assert NetworkField(nodes=nodes, side=10.0, comm_range=45.0).nodes[1].id == 1


class TestOneHopNeighbors:
    def test_boundary_exclusive_above_range(self):
        field = make_field([(0, 0), (44, 0), (46, 0)], comm_range=45)
        assert one_hop_neighbors(field, Position(0, 0)) == {0, 1}

    def test_empty_field(self):
        field = make_field([], side=100)
        assert one_hop_neighbors(field, Position(10, 10)) == set()

    def test_coincident_node_included(self):
        field = make_field([(30, 30)], comm_range=45, side=100)
        assert one_hop_neighbors(field, Position(30, 30)) == {0}

    def test_exactly_at_range_included(self):
        field = make_field([(45, 0)], comm_range=45, side=100)
        assert one_hop_neighbors(field, Position(0, 0)) == {0}

    @given(st.integers(min_value=0, max_value=2**32), st.floats(min_value=1, max_value=100))
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_range(self, seed, extra):
        field = generate_network(25, 200, 50, 45, seed, 0.5)
        small = one_hop_neighbors(field, Position(100, 100))
        wider = make_field(
            [(n.pos.x, n.pos.y) for n in field.nodes], comm_range=45 + extra, side=field.side
        )
        assert small <= one_hop_neighbors(wider, Position(100, 100))


class TestGenerateNetwork:
    def test_base_size_keeps_side(self):
        field = generate_network(50, 200, 50, 45, 1, 0.5)
        assert field.side == 200.0

    def test_density_preserving_scaling(self):
        field = generate_network(200, 200, 50, 45, 1, 0.5)
        assert field.side == pytest.approx(400.0)

    def test_same_seed_bit_identical(self):
        a = generate_network(80, 200, 50, 45, 9, 0.5)
        b = generate_network(80, 200, 50, 45, 9, 0.5)
        assert [n.pos for n in a.nodes] == [n.pos for n in b.nodes]

    def test_different_seeds_differ(self):
        a = generate_network(80, 200, 50, 45, 1, 0.5)
        b = generate_network(80, 200, 50, 45, 2, 0.5)
        assert [n.pos for n in a.nodes] != [n.pos for n in b.nodes]

    def test_nodes_start_alive_with_energy(self):
        field = generate_network(10, 200, 50, 45, 3, 0.7)
        assert all(n.alive and n.energy == 0.7 for n in field.nodes)
        assert [n.id for n in field.nodes] == list(range(10))

    def test_positions_inside_square(self):
        field = generate_network(300, 200, 50, 45, 4, 0.5)
        assert all(0 <= n.pos.x <= field.side and 0 <= n.pos.y <= field.side for n in field.nodes)

    def test_invalid_counts_rejected(self):
        with pytest.raises(ValueError):
            generate_network(0, 200, 50, 45, 1, 0.5)
        with pytest.raises(ValueError):
            generate_network(10, 200, 0, 45, 1, 0.5)

    @given(st.integers(min_value=1, max_value=400), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=40, deadline=None)
    def test_density_invariant(self, n, seed):
        field = generate_network(n, 200, 50, 45, seed, 0.5)
        assert n / field.side**2 == pytest.approx(50 / 200**2, rel=1e-9)
