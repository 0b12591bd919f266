"""The spatial grid against brute-force scans: every range query it serves
(the graph build, the serving assignment, a sink's one-hop ring and the
tour walk's coverage removal) must give what a scan of every candidate
gives, order included, on fields with pairs at exactly the range across a
cell edge and coordinates on cell boundaries."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

import simoco.engine as engine
from reference import tour_walk
from simoco import (
    Position,
    RadioEnergyModel,
    build_graph,
    generate_tour,
    sink_distance_field,
    tx_energy,
)
from simoco.core import Grid
from simoco.placement import SinkPlacement
from simoco.routing import remove_node
from util import make_field, whole_field_partition

MODEL = RadioEnergyModel()
# a partner's offset, in ranges: along an axis or on a 3-4-5 diagonal
OFFSETS = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0), (0.6, 0.8), (-0.8, 0.6)]


@st.composite
def edge_points(draw, r, max_size):
    """Points at random, on multiples of r or of the grid's cell side, each
    with an optional partner at r along an axis or a 3-4-5 diagonal."""
    cell = Grid(r, ()).side
    steps = st.integers(-2, 6)
    coordinate = st.one_of(
        st.floats(-r, 6 * r, allow_nan=False),
        steps.map(lambda k: k * r),
        steps.map(lambda k: k * cell),
        steps.map(lambda k: math.nextafter(k * cell, -math.inf)),
    )
    points = []
    for x, y in draw(st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=max_size)):
        points.append((x, y))
        offset = draw(st.none() | st.sampled_from(OFFSETS))
        if offset is not None:
            points.append((x + offset[0] * r, y + offset[1] * r))
    return points


ranges = st.one_of(st.sampled_from([1.0, 0.1, 3.0, 7.3, 45.0]), st.floats(0.05, 80.0))


@st.composite
def edge_fields(draw, max_size=25):
    r = draw(ranges)
    field = make_field(draw(edge_points(r, max_size)), comm_range=r, side=6 * r)
    for node in field.nodes:
        node.alive = draw(st.booleans()) or draw(st.booleans())
    return field


def all_pairs_adjacency(field, model):
    """Every alive pair in id order, measured from its lower id."""
    r = field.comm_range
    alive = [node for node in field.nodes if node.alive]
    adjacency = {node.id: {} for node in alive}
    for i, a in enumerate(alive):
        for b in alive[i + 1:]:
            d = math.dist(a.pos, b.pos)
            if d <= r:
                adjacency[a.id][b.id] = adjacency[b.id][a.id] = tx_energy(model, d)
    return adjacency


def ordered(adjacency):
    return [(u, list(row.items())) for u, row in adjacency.items()]


@given(edge_fields())
@settings(max_examples=200, deadline=None)
def test_build_graph_equals_an_all_pairs_build(field):
    graph = build_graph(field, whole_field_partition(field), MODEL)
    assert ordered(graph.adjacency) == ordered(all_pairs_adjacency(field, MODEL))


@given(edge_fields(), st.data())
@settings(max_examples=200, deadline=None)
def test_one_hop_ring_equals_a_scan(field, data):
    r = field.comm_range
    graph = build_graph(field, whole_field_partition(field), MODEL)
    for node_id in data.draw(st.lists(st.sampled_from(range(len(field.nodes))), max_size=4)):
        remove_node(graph, node_id)  # the grid keeps removed nodes; the ring must not
    sink = Position(*data.draw(edge_points(r, 1))[-1])
    ring = [(u, math.dist(field.nodes[u].pos, sink)) for u in graph.adjacency]
    ring = [(u, (u,), (tx_energy(MODEL, d),)) for u, d in ring if d <= r]
    dist = sink_distance_field(graph, sink, ())
    assert [(u, *route) for u, route in dist.direct.items()] == ring
    assert list(dist.hops.items()) == [(u, 1) for u, _, _ in ring]


@given(edge_fields(), st.data())
@settings(max_examples=200, deadline=None)
def test_serving_assignment_equals_a_scan(field, data):
    r = field.comm_range
    cycle = tuple(Position(*p) for p in data.draw(edge_points(r, 6)))
    state = engine._PartitionState(whole_field_partition(field), field, MODEL, cycle)
    groups = [[] for _ in cycle]
    for node in field.nodes:
        gap = [math.dist(node.pos, q) for q in cycle]
        groups[min(range(len(cycle)), key=lambda j: (gap[j] > r, gap[j]))].append(node.id)
    assert state.assigned_members == [tuple(g) for g in groups]


@given(edge_fields(max_size=40), st.data())
@settings(max_examples=200, deadline=None)
def test_generate_tour_equals_a_brute_force_walk(field, data):
    start = Position(*data.draw(edge_points(field.comm_range, 1))[0])
    partition = whole_field_partition(field)
    tour = generate_tour(field, partition, SinkPlacement(start, 0, 1))
    assert tour.points == tour_walk(field, partition, start)
