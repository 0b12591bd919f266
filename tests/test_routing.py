import random

import pytest

from simoco import (
    Position,
    RadioEnergyModel,
    build_graph,
    deliver_packet,
    generate_network,
    min_hop_route,
    quadrant_partition,
    rx_energy,
    sink_distance_field,
    tx_energy,
)
from util import SINK, floyd_warshall_hops, make_field, whole_field_partition

MODEL = RadioEnergyModel(e_elec=50e-9, e_amp=100e-12, packet_bits=2000)


def graph_for(points, sink_pos, comm_range=45.0):
    field = make_field(points, comm_range=comm_range, side=500)
    return field, build_graph(field, whole_field_partition(field)), Position(*sink_pos)


class TestBuildGraph:
    def test_path_topology(self):
        _, g, sink = graph_for([(0, 0), (40, 0), (80, 0)], (120, 0))
        assert g.adjacency == {0: {1}, 1: {0, 2}, 2: {1}}
        assert sink_distance_field(g, sink) == {2: 1, 1: 2, 0: 3}

    def test_all_dead_leaves_sink_only(self):
        field = make_field([(0, 0), (10, 0)], side=100)
        for node in field.nodes:
            node.alive = False
        g = build_graph(field, whole_field_partition(field))
        assert g.adjacency == {}
        assert sink_distance_field(g, Position(0, 0)) == {}

    def test_coincident_nodes_adjacent(self):
        _, g, _ = graph_for([(5, 5), (5, 5)], (200, 200))
        assert g.adjacency[0] == {1}
        assert g.adjacency[1] == {0}


class TestMinHopRoute:
    def test_forced_three_hop_path(self):
        _, g, sink = graph_for([(0, 0), (40, 0), (80, 0)], (120, 0))
        route = min_hop_route(g, 0, sink, sink_distance_field(g, sink))
        assert route.path == (0, 1, 2)
        assert route.hop_count == 3

    def test_direct_hop(self):
        _, g, sink = graph_for([(10, 0)], (0, 0))
        route = min_hop_route(g, 0, sink, sink_distance_field(g, sink))
        assert route.path == (0,)
        assert route.hop_count == 1

    def test_disconnected_source_unreachable(self):
        _, g, sink = graph_for([(0, 0), (300, 300)], (310, 300))
        assert min_hop_route(g, 0, sink, sink_distance_field(g, sink)) is None

    def test_dead_or_unknown_source_rejected(self):
        field, g, sink = graph_for([(0, 0)], (10, 0))
        with pytest.raises(ValueError):
            min_hop_route(g, 99, sink, sink_distance_field(g, sink))
        field.nodes[0].alive = False
        with pytest.raises(ValueError):
            min_hop_route(g, 0, sink, sink_distance_field(g, sink))

    def test_energy_tie_break_prefers_higher_residual(self):
        # two equal-hop relays; the richer one carries the packet
        field, g, sink = graph_for([(0, 0), (40, 10), (40, -10)], (80, 0))
        field.nodes[1].energy = 0.2
        field.nodes[2].energy = 0.3
        assert min_hop_route(g, 0, sink, sink_distance_field(g, sink)).path == (0, 2)
        field.nodes[1].energy = 0.5
        assert min_hop_route(g, 0, sink, sink_distance_field(g, sink)).path == (0, 1)

    def test_equal_energy_tie_break_prefers_lower_id(self):
        _, g, sink = graph_for([(0, 0), (40, 10), (40, -10)], (80, 0))
        assert min_hop_route(g, 0, sink, sink_distance_field(g, sink)).path == (0, 1)

    def test_hop_counts_match_exhaustive_search(self):
        rng = random.Random(2024)
        for _ in range(20):
            n = rng.randint(2, 20)
            side = rng.uniform(50, 250)
            pts = [(rng.uniform(0, side), rng.uniform(0, side)) for _ in range(n)]
            field = make_field(pts, comm_range=rng.uniform(20, 80), side=side)
            sink = Position(rng.uniform(0, side), rng.uniform(0, side))
            g = build_graph(field, whole_field_partition(field))
            oracle = floyd_warshall_hops(g, sink)
            dist = sink_distance_field(g, sink)
            for source in sorted(g.adjacency):
                route = min_hop_route(g, source, sink, dist)
                expected = oracle[source][SINK]
                if route is None:
                    assert expected == float("inf")
                else:
                    assert route.hop_count == expected


class TestRadioEnergy:
    def test_tx_at_ten_meters(self):
        assert tx_energy(MODEL, 10) == pytest.approx(1.2e-4, rel=1e-12)

    def test_tx_at_zero_is_electronics_only(self):
        assert tx_energy(MODEL, 0) == pytest.approx(1.0e-4, rel=1e-12)

    def test_tx_linear_in_packet_bits(self):
        double = RadioEnergyModel(MODEL.e_elec, MODEL.e_amp, 2 * MODEL.packet_bits)
        assert tx_energy(double, 17.5) == pytest.approx(2 * tx_energy(MODEL, 17.5), rel=1e-12)

    def test_rx(self):
        assert rx_energy(MODEL) == pytest.approx(1.0e-4, rel=1e-12)

    def test_rx_equals_tx_at_zero(self):
        assert rx_energy(MODEL) == tx_energy(MODEL, 0)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            tx_energy(MODEL, -1)

    def test_nonpositive_parameters_rejected(self):
        with pytest.raises(ValueError):
            RadioEnergyModel(e_elec=0)
        with pytest.raises(ValueError):
            RadioEnergyModel(packet_bits=0)


class TestDeliverPacket:
    def test_single_hop_sink_receives_free(self):
        field, g, sink = graph_for([(0, 0)], (10, 0))
        route = min_hop_route(g, 0, sink, sink_distance_field(g, sink))
        record = deliver_packet(field, MODEL, route)
        assert record.delivered
        assert route.hop_count == 1
        assert record.total_energy == pytest.approx(1.2e-4, rel=1e-12)
        assert field.nodes[0].energy == pytest.approx(0.5 - 1.2e-4, rel=1e-12)

    def test_relay_pays_rx_plus_tx(self):
        field, g, sink = graph_for([(0, 0), (10, 0)], (20, 0), comm_range=12)
        route = min_hop_route(g, 0, sink, sink_distance_field(g, sink))
        record = deliver_packet(field, MODEL, route)
        assert route.hop_count == 2
        assert record.total_energy == pytest.approx(3.4e-4, rel=1e-12)
        assert field.nodes[0].energy == pytest.approx(0.5 - 1.2e-4, rel=1e-12)
        assert field.nodes[1].energy == pytest.approx(0.5 - 2.2e-4, rel=1e-12)

    def test_exact_exhaustion_marks_dead(self):
        field, g, sink = graph_for([(0, 0)], (10, 0))
        field.nodes[0].energy = tx_energy(MODEL, 10.0)
        route = min_hop_route(g, 0, sink, sink_distance_field(g, sink))
        record = deliver_packet(field, MODEL, route)
        assert record.delivered
        assert field.nodes[0].energy == 0.0
        assert not field.nodes[0].alive
        assert record.died == (0,)

    def test_stale_route_rejected(self):
        field, g, sink = graph_for([(0, 0), (10, 0)], (20, 0), comm_range=12)
        route = min_hop_route(g, 0, sink, sink_distance_field(g, sink))
        field.nodes[1].alive = False
        with pytest.raises(ValueError, match="stale route"):
            deliver_packet(field, MODEL, route)

    def test_insufficient_energy_drops_packet_without_deduction(self):
        field, g, sink = graph_for([(0, 0), (10, 0)], (20, 0), comm_range=12)
        field.nodes[1].energy = 1.5e-4  # relay needs rx + tx ~ 2.2e-4
        route = min_hop_route(g, 0, sink, sink_distance_field(g, sink))
        record = deliver_packet(field, MODEL, route)
        assert not record.delivered
        assert record.total_energy == 0.0
        assert record.underpowered == (1,)
        assert field.nodes[0].energy == 0.5
        assert field.nodes[1].energy == 1.5e-4
        assert field.nodes[1].alive  # caller marks underpowered nodes at round end

    def test_total_energy_equals_node_drain(self):
        rng = random.Random(11)
        field = generate_network(30, 200, 100, 45, 12, 0.5)
        part = quadrant_partition(field)[3]
        g = build_graph(field, part)
        spent = 0.0
        before = sum(node.energy for node in field.nodes)
        sink = Position(150, 150)
        dist = sink_distance_field(g, sink)
        for source in sorted(g.adjacency):
            route = min_hop_route(g, source, sink, dist)
            if route is None:
                continue
            record = deliver_packet(field, MODEL, route)
            if record.delivered:
                spent += record.total_energy
        after = sum(node.energy for node in field.nodes)
        assert spent == pytest.approx(before - after, rel=1e-9)

    def test_rerouting_after_relay_death(self):
        # relay 1 has the higher residual, carries one rx+tx (~5.4e-4), and
        # dies; after removing it from the graph the other relay takes over
        field, g, sink = graph_for([(0, 0), (40, 10), (40, -10)], (80, 0))
        field.nodes[1].energy = 6.0e-4
        field.nodes[2].energy = 5.0e-4
        first_route = min_hop_route(g, 0, sink, sink_distance_field(g, sink))
        assert first_route.path == (0, 1)
        first = deliver_packet(field, MODEL, first_route)
        assert first.delivered
        assert first.died == (1,)
        assert not field.nodes[1].alive
        from simoco.routing import remove_node

        remove_node(g, 1)
        assert min_hop_route(g, 0, sink, sink_distance_field(g, sink)).path == (0, 2)
