"""Property tests for the engine invariants on small random scenarios:
energy is conserved, no node's energy ever rises, each node dies at most
once, and a mobile-mode delivery takes exactly one hop."""

import pytest
from hypothesis import given, settings

import simoco.engine as engine
from simoco import ScenarioConfig, run_scenario
from util import scenario_strategy

scenarios = scenario_strategy()
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
    charges = 0
    deliver = engine.deliver_packet

    def observed(field, model, route):
        nonlocal charges
        charges += 1
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
    # every delivery record, delivered or dropped, was charged under the watch
    assert charges == sum(len(rec.deliveries) for rec in trace.rounds)
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
    build = engine.build_graph
    # n=3, seed 1 leaves quadrant 3 empty; it gets a graph all the same
    for n, seed in ((60, 3), (3, 1)):
        built = []

        def counted(field, partition, *rest):
            built.append(partition.id)
            return build(field, partition, *rest)

        monkeypatch.setattr(engine, "build_graph", counted)
        run_scenario(ScenarioConfig(mode=mode, n=n, seed=seed, max_rounds=200))
        assert sorted(built) == [0, 1, 2, 3]
