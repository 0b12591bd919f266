"""Differential test: `run_scenario` against the naive reference engine in
`reference.py`, on the invariant tests' scenarios and on tiny, low-energy
ones in which packets drop, nodes die and quadrants are empty."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import run_reference
from simoco import ScenarioConfig, run_scenario, trace_lines
from util import scenario_strategy

tiny = scenario_strategy(
    n=st.integers(min_value=1, max_value=8),
    initial_energy=st.floats(min_value=1e-4, max_value=2e-3),
)


@given(st.one_of(scenario_strategy(), tiny))
# static, 48 rounds: about 300 multi-hop routes, 70 drops and 76 deaths
@example(ScenarioConfig(n=100, seed=1, initial_energy=0.005, max_rounds=100))
@settings(max_examples=200, deadline=None)
def test_engine_matches_reference(config):
    trace = run_scenario(config)
    expected = run_reference(config)
    assert trace_lines(trace) == trace_lines(expected)
    assert [(node.energy, node.alive) for node in trace.field.nodes] == [
        (node.energy, node.alive) for node in expected.field.nodes
    ]
