"""Property tests for the engine invariants on small random scenarios:
energy is conserved, no node's energy ever rises, each node dies at most
once, and a mobile-mode delivery takes exactly one hop."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import simoco.engine as engine
from simoco import ScenarioConfig, run_scenario

scenarios = st.builds(
    ScenarioConfig,
    mode=st.sampled_from(engine.MODES),
    n=st.integers(min_value=1, max_value=40),
    comm_range=st.floats(min_value=20.0, max_value=60.0),
    initial_energy=st.floats(min_value=0.002, max_value=0.05),
    seed=st.integers(min_value=0, max_value=2**32),
    max_rounds=st.integers(min_value=1, max_value=200),
    traffic=st.sampled_from(engine.TRAFFIC_MODES),
    sources_per_round=st.integers(min_value=1, max_value=10),
)
invariant = settings(max_examples=40, deadline=None)


@given(scenarios)
@invariant
def test_energy_is_conserved(config):
    trace = run_scenario(config)
    delivered = sum(d.energy for rec in trace.rounds for d in rec.deliveries if d.delivered)
    drained = sum(config.initial_energy - node.energy for node in trace.field.nodes)
    assert abs(delivered - drained) <= 1e-9 * max(abs(delivered), abs(drained), 1e-30)


@given(scenarios)
@invariant
def test_no_energy_ever_rises(config):
    rises = []
    deliver = engine.deliver_packet

    def observed(field, model, route):
        before = [node.energy for node in field.nodes]
        record = deliver(field, model, route)
        rises.extend(
            node.id for node, old in zip(field.nodes, before) if node.energy > old
        )
        return record

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "deliver_packet", observed)
        trace = run_scenario(config)
    assert rises == []
    assert all(node.energy <= config.initial_energy for node in trace.field.nodes)


@given(scenarios)
@invariant
def test_each_node_dies_at_most_once(config):
    trace = run_scenario(config)
    death_round = {}
    for rec in trace.rounds:
        for d in rec.deliveries:
            assert d.source not in death_round, "a dead node sent a packet"
        for node_id in rec.deaths:
            assert node_id not in death_round, f"node {node_id} died twice"
            death_round[node_id] = rec.round_index
    assert set(death_round) == {node.id for node in trace.field.nodes if not node.alive}


@given(scenarios.filter(lambda config: config.mode == "mobile"))
@invariant
def test_mobile_delivery_is_one_hop(config):
    trace = run_scenario(config)
    for rec in trace.rounds:
        for d in rec.deliveries:
            if d.delivered:
                assert d.hop_count == 1


@pytest.mark.parametrize("mode", engine.MODES)
def test_build_graph_once_per_partition(mode, monkeypatch):
    built = []
    build = engine.build_graph

    def counted(field, partition, *rest):
        built.append(partition.id)
        return build(field, partition, *rest)

    monkeypatch.setattr(engine, "build_graph", counted)
    trace = run_scenario(ScenarioConfig(mode=mode, n=60, seed=3, max_rounds=200))
    assert sorted(built) == [
        k for k, placement in enumerate(trace.placements) if placement is not None
    ]
