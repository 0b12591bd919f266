import math
import statistics

import pytest

from simoco import (
    ScenarioConfig,
    compute_report,
    deploy,
    parse_trace_lines,
    run_scenario,
    rx_energy,
    trace_lines,
    tx_energy,
)


def small(mode="static", **kw):
    defaults = dict(mode=mode, n=24, seed=5, initial_energy=0.02, max_rounds=4000)
    defaults.update(kw)
    return ScenarioConfig(**defaults)


class TestConfig:
    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(mode="walking")
        with pytest.raises(ValueError):
            ScenarioConfig(max_rounds=0)
        with pytest.raises(ValueError):
            ScenarioConfig(n=0)
        with pytest.raises(ValueError):
            ScenarioConfig(traffic="bursty")
        with pytest.raises(ValueError):
            ScenarioConfig(traffic="random_sources", sources_per_round=0)
        with pytest.raises(ValueError):
            ScenarioConfig(initial_energy=0)

    def test_radio_model_from_config(self):
        model = ScenarioConfig().radio()
        assert model.packet_bits == 2000
        assert rx_energy(model) == pytest.approx(1e-4, rel=1e-12)


class TestRunScenario:
    def test_single_node_death_round_closed_form(self):
        config = ScenarioConfig(mode="static", n=1, seed=3)
        trace = run_scenario(config)
        model = config.radio()
        # lone node sits at its own centroid, so every round costs tx(0);
        # replay the per-round subtraction independently
        cost = tx_energy(model, 0.0)
        threshold = rx_energy(model)
        energy = config.initial_energy
        expected = 0
        while True:
            expected += 1
            if energy < cost:
                break  # dropped packet, marked dead at round end
            energy -= cost
            if energy < threshold:
                break  # drained below the death threshold
        report = compute_report(trace)
        assert report.rounds_to_first_death == expected
        assert abs(expected - math.floor(config.initial_energy / cost)) <= 1
        assert len(trace.rounds) == expected

    @pytest.mark.parametrize("mode", ["static", "mobile"])
    def test_setup_comes_from_deploy(self, mode):
        config = small(mode, n=40, comm_range=25.0)
        field, _, placements, neighbor_sets = deploy(config)
        trace = run_scenario(config)
        assert trace.placements == placements
        assert trace.initial_neighbor_sets == neighbor_sets
        assert [n.pos for n in trace.field.nodes] == [n.pos for n in field.nodes]
        if mode == "mobile":
            assert [t.initial if t else None for t in trace.tours] == [
                p.position if p else None for p in placements
            ]

    def test_max_rounds_one_yields_one_record(self):
        trace = run_scenario(small(max_rounds=1))
        assert len(trace.rounds) == 1
        assert trace.rounds[0].round_index == 1

    def test_same_config_bit_identical_traces(self):
        a = run_scenario(small(mode="mobile"))
        b = run_scenario(small(mode="mobile"))
        assert trace_lines(a) == trace_lines(b)

    def test_random_sources_deterministic(self):
        cfg = small(traffic="random_sources", sources_per_round=4, max_rounds=60)
        assert trace_lines(run_scenario(cfg)) == trace_lines(run_scenario(cfg))

    def test_empty_buffers_make_mobile_identical_to_static(self):
        # n=8 under default scaling gives a 56.6 m field whose quadrants fit
        # inside one comm disk, so every tour degenerates to the placement
        for seed in (1, 5, 11):
            static = run_scenario(ScenarioConfig(mode="static", n=8, seed=seed, max_rounds=300))
            mobile = run_scenario(ScenarioConfig(mode="mobile", n=8, seed=seed, max_rounds=300))
            assert all(tour is None or tour.points == () for tour in mobile.tours)
            assert trace_lines(static) == trace_lines(mobile)

    def test_mobile_sink_positions_come_from_tour(self):
        trace = run_scenario(small(mode="mobile", n=40, seed=1, max_rounds=200))
        allowed = []
        for k in range(4):
            tour = trace.tours[k]
            if tour is not None:
                allowed.append(set(tour.cycle()))
            else:
                allowed.append(None)
        for rec in trace.rounds:
            for k in range(4):
                if allowed[k] is not None:
                    assert rec.sink_positions[k] in allowed[k]

    def test_static_sink_positions_fixed_at_placement(self):
        trace = run_scenario(small(n=40, seed=1, max_rounds=50))
        for rec in trace.rounds:
            for k in range(4):
                if trace.placements[k] is not None:
                    assert rec.sink_positions[k] == trace.placements[k].position

    def test_deaths_unique_and_alive_set_monotone(self):
        trace = run_scenario(small(n=40, seed=2))
        seen = []
        for rec in trace.rounds:
            seen.extend(rec.deaths)
        assert len(seen) == len(set(seen))
        dead = {node.id for node in trace.field.nodes if not node.alive}
        assert set(seen) == dead

    def test_deliveries_stop_for_dead_sources(self):
        trace = run_scenario(small(n=40, seed=2))
        dead_from = {}
        for rec in trace.rounds:
            for node_id in rec.deaths:
                dead_from[node_id] = rec.round_index
        for rec in trace.rounds:
            for d in rec.deliveries:
                if d.source in dead_from:
                    assert rec.round_index <= dead_from[d.source]

    def test_all_dead_network_ends_cleanly(self):
        trace = run_scenario(small(n=10, seed=4, initial_energy=3e-4, max_rounds=500))
        assert len(trace.rounds) < 500
        assert all(not node.alive for node in trace.field.nodes)

    def test_unreachable_sources_send_and_pay_nothing(self):
        # seed 1 with n=6 on a 200m base square per node-density unit puts two
        # nodes alone in one quadrant, mutually out of range: its placement
        # covers nobody, so those sources never transmit
        config = ScenarioConfig(mode="static", n=6, base_side=200.0, base_n=1,
                                seed=1, max_rounds=40)
        trace = run_scenario(config)
        isolated = [k for k in range(4)
                    if trace.placements[k] is not None
                    and trace.placements[k].neighbor_count == 0]
        assert isolated, "seed is known to produce an uncovered partition"
        # nodes 2 and 4 form the uncovered partition for this seed
        for node_id in (2, 4):
            node = trace.field.nodes[node_id]
            assert node.energy == config.initial_energy
            assert node.alive
        sources = {d.source for rec in trace.rounds for d in rec.deliveries}
        assert not sources & {2, 4}

    def test_energy_conservation(self):
        for mode in ("static", "mobile"):
            config = small(mode=mode, n=30, seed=7)
            trace = run_scenario(config)
            delivered = sum(
                d.energy for rec in trace.rounds for d in rec.deliveries if d.delivered
            )
            drained = sum(config.initial_energy - node.energy for node in trace.field.nodes)
            assert delivered == pytest.approx(drained, rel=1e-9)

    def test_dropped_deliveries_record_zero_energy(self):
        trace = run_scenario(small(n=40, seed=2))
        drops = [d for rec in trace.rounds for d in rec.deliveries if not d.delivered]
        assert all(d.energy == 0.0 for d in drops)


class TestTraceExport:
    def test_roundtrip(self):
        trace = run_scenario(small(mode="mobile", n=30, seed=9, max_rounds=150))
        parsed = parse_trace_lines(trace_lines(trace))
        assert parsed == list(trace.rounds)

    def test_line_shape(self):
        import json

        trace = run_scenario(small(n=10, seed=1, max_rounds=3))
        line = trace_lines(trace)[0]
        obj = json.loads(line)
        assert list(obj) == ["round", "sinks", "deliveries", "deaths"]
        assert obj["round"] == 1
        assert len(obj["sinks"]) == 4
        assert all(len(pair) == 2 for pair in obj["sinks"])
        for source, hops, energy, ok in obj["deliveries"]:
            assert isinstance(source, int) and isinstance(hops, int)
            assert isinstance(energy, float) and isinstance(ok, bool)


class TestFunnellingContrast:
    def test_static_spend_variance_exceeds_mobile_at_first_death(self):
        static_vars = []
        mobile_vars = []
        for seed in range(1, 11):
            base = dict(n=60, seed=seed, initial_energy=0.1)
            full = run_scenario(ScenarioConfig(mode="static", **base))
            first = compute_report(full).rounds_to_first_death
            assert first is not None
            for mode, sink in (("static", static_vars), ("mobile", mobile_vars)):
                truncated = run_scenario(
                    ScenarioConfig(mode=mode, max_rounds=first, **base)
                )
                spends = [0.1 - node.energy for node in truncated.field.nodes]
                sink.append(statistics.pvariance(spends))
        assert statistics.mean(static_vars) >= statistics.mean(mobile_vars)
