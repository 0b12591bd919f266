"""Differential tests: `run_scenario` against the naive reference engine in
`reference.py`, on the invariant tests' scenarios and on tiny, low-energy
ones in which packets drop, nodes die and quadrants are empty; and
`trace_lines` against the naive `json.dumps` writer there."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import reference_trace_lines, run_reference
from simoco import ScenarioConfig, run_scenario, trace_lines
from simoco.engine import MODES
from util import scenario_strategy

tiny = scenario_strategy(
    n=st.integers(min_value=1, max_value=8),
    initial_energy=st.floats(min_value=1e-4, max_value=2e-3),
)


@given(st.one_of(scenario_strategy(), tiny))
# static, 48 rounds: about 300 multi-hop routes, 70 drops and 76 deaths
@example(ScenarioConfig(n=100, seed=1, initial_energy=0.005, max_rounds=100))
# a lone node sits at its sink (d = 0), so its first packet leaves it at exactly
# the death threshold, one packet's rx cost: it stays alive until the second
@example(ScenarioConfig(n=1, initial_energy=2 * 50e-9 * 2000, max_rounds=5))
# static, seed 17: the initial energy is tuned so that a packet relayed for
# node 6 leaves relay 14 at exactly the death threshold; it stays alive then
@example(ScenarioConfig(n=16, seed=17, comm_range=20.0, initial_energy=0.002095463969534062,
                        max_rounds=30))
# sampled static traffic: the run ends at round 162, once none of the 6 nodes
# left alive can reach its sink
@example(ScenarioConfig(mode="static", n=20, comm_range=20.0, initial_energy=0.001, seed=1,
                        sources_per_round=1, max_rounds=2000))
@settings(max_examples=200, deadline=None)
def test_engine_matches_reference(config):
    trace = run_scenario(config)
    expected = run_reference(config)
    assert trace_lines(trace) == reference_trace_lines(expected)
    assert [(node.energy, node.alive) for node in trace.field.nodes] == [
        (node.energy, node.alive) for node in expected.field.nodes
    ]


# 12 nodes on a 100 m side with a 20 m range: one quadrant is empty, packets
# drop, nodes die, mobile sinks collect backlog runs, static routes go multi-hop
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", [8, 15])
def test_export_matches_json_dumps_of_a_dict(mode, seed):
    config = ScenarioConfig(mode=mode, n=12, base_n=12, base_side=100.0, comm_range=20.0,
                            initial_energy=0.003, seed=seed, max_rounds=2000)
    trace = run_scenario(config)
    records = [d for rec in trace.rounds for d in rec.deliveries]
    assert any(not part.member_ids for part in trace.partitions)
    assert any(rec.deaths for rec in trace.rounds)
    assert not all(d.delivered for d in records)
    if mode == "mobile":  # the same record twice in a row: one source's backlog
        assert any(a == b for rec in trace.rounds
                   for a, b in zip(rec.deliveries, list(rec.deliveries)[1:]))
    else:
        assert max(d.hop_count for d in records) > 1
    # Equal records share their text, and 0.0 == -0.0, but no record holds a
    # -0.0: a dropped record's energy is the literal 0.0 and a delivered one's
    # is a sum of positive costs.
    for d in records:
        assert d.energy > 0 if d.delivered else repr(d.energy) == "0.0"
    assert trace_lines(trace) == reference_trace_lines(trace)
