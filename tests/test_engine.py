import gc
import json
import math
import re
import statistics
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import simoco.engine as engine
import simoco.metrics as metrics
from reference import reference_trace_lines, run_reference
from simoco import (
    Deliveries,
    Delivery,
    Position,
    RoundRecord,
    ScenarioConfig,
    SojournTour,
    compute_report,
    deploy,
    generate_tour,
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
            ScenarioConfig(sources_per_round=0)
        with pytest.raises(TypeError):  # traffic is sources_per_round, nothing else
            ScenarioConfig(traffic="random_sources")
        with pytest.raises(ValueError):
            ScenarioConfig(initial_energy=0)

    def test_radio_model_from_config(self):
        model = ScenarioConfig().radio()
        assert model.packet_bits == 2000
        assert rx_energy(model) == pytest.approx(1e-4, rel=1e-12)

    def test_one_bit_packet_accepted_and_simulated(self):
        config = ScenarioConfig(n=4, packet_bits=1, max_rounds=3)
        trace = run_scenario(config)
        deliveries = [d for rec in trace.rounds for d in rec.deliveries]
        assert len(deliveries) == 3 * 4 and all(d.delivered for d in deliveries)
        assert min(d.energy for d in deliveries) >= tx_energy(config.radio(), 0.0) == 50e-9

    def test_seed_beyond_the_int_str_limit_rejected(self):
        # the traffic RNG is seeded from str(seed), which refuses longer ints
        digits = sys.get_int_max_str_digits()
        if not digits:
            pytest.skip("this interpreter has no int-to-str limit")
        for seed in (10**digits, -(10**digits)):
            with pytest.raises(ValueError, match=f"seed must have at most {digits} decimal"):
                ScenarioConfig(seed=seed)
        for seed in (10**digits - 1, -(10**digits - 1)):
            trace = run_scenario(ScenarioConfig(n=4, max_rounds=2, seed=seed, sources_per_round=2))
            assert len(trace.rounds) == 2

    # each config breaks exactly one derived quantity; every other check passes
    @pytest.mark.parametrize("kw, message", [
        (dict(packet_bits=10**400), "exceeds the float range"),
        (dict(n=4, e_amp=1e306, packet_bits=1000), "n * largest per-hop charge"),
        (dict(n=2, initial_energy=1e308), "n * initial_energy"),
        (dict(n=10**300, base_n=10**300, base_side=1e10, comm_range=1e8, e_elec=1e-30,
              e_amp=1e-30, packet_bits=1, initial_energy=1e-30), "n * side"),
        (dict(base_side=1e155, comm_range=1e153), "2 * side * side"),
        (dict(base_side=1e-160, comm_range=1e-162), "side * side underflows"),
    ], ids=["packet-bits-int-overflow", "hop-charge", "total-energy", "centroid-sum",
            "tour-step-overflow", "tour-step-underflow"])
    def test_derived_quantity_must_be_a_finite_float(self, kw, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            ScenarioConfig(**kw)


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


# ordinary values, IEEE extremes and any other positive float
_floats = st.one_of(
    st.floats(min_value=1e-3, max_value=1e3),
    st.sampled_from([5e-324, sys.float_info.min, 1e-160, 1e-150, 1e150, 1e154, 1e300,
                     sys.float_info.max]),
    st.floats(min_value=5e-324, max_value=sys.float_info.max),
)
_huge_ints = st.sampled_from([2**53, 2**1023, 10**400])


@st.composite
def _configs(draw):
    """Keywords for every ScenarioConfig field; n <= 8 and max_rounds <= 3,
    so no example allocates much."""
    kw = dict(
        mode=draw(st.sampled_from(engine.MODES)),
        n=draw(st.integers(min_value=1, max_value=8)),
        base_side=draw(_floats),
        base_n=draw(st.integers(min_value=1, max_value=16) | _huge_ints),
        initial_energy=draw(_floats),
        e_elec=draw(_floats),
        e_amp=draw(_floats),
        packet_bits=draw(st.integers(min_value=1, max_value=10**4) | _huge_ints),
        # a seed past the int-to-str limit (4,300 digits) is rejected by the config
        seed=draw(st.integers(min_value=-(10**4300 - 1), max_value=10**4300 - 1)
                  | st.integers(min_value=-(10**4400), max_value=10**4400)),
        max_rounds=draw(st.integers(min_value=1, max_value=3)),
        sources_per_round=draw(st.none() | st.integers(min_value=1, max_value=10) | _huge_ints),
    )
    # a range well below the field side plans tours with points
    scale = draw(st.none() | st.floats(min_value=1e-3, max_value=0.25))
    side = kw["base_side"] * math.sqrt(kw["n"] / kw["base_n"])
    kw["comm_range"] = draw(_floats) if scale is None else side * scale
    return kw


@given(_configs())
@settings(max_examples=400, deadline=None)
def test_accepted_config_runs_to_finite_output(kw):
    """Every config is rejected with ValueError, or runs, exports and
    reports in finite floats: the layers never re-check it."""
    digits = sys.get_int_max_str_digits()
    if digits and abs(kw["seed"]) >= 10**digits:
        with pytest.raises(ValueError, match="seed must have at most"):
            ScenarioConfig(**kw)
        return
    try:
        config = ScenarioConfig(**kw)
    except ValueError:
        return
    trace = run_scenario(config)
    lines = trace_lines(trace)
    assert lines == reference_trace_lines(trace)
    for line in lines:
        json.loads(line, parse_constant=_reject_constant)
    report = compute_report(trace)
    row = metrics._run_cell(config)
    assert row.error is None and row.report == report
    values = [node.energy for node in trace.field.nodes]
    values += [c for tour in trace.tours for p in tour.cycle() for c in p]
    values += [report.avg_energy_per_packet, report.avg_hop_count, report.delivered_energy,
               row.energy_conservation_rel_err]
    assert all(math.isfinite(v) for v in values if v is not None)


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

    @pytest.mark.parametrize("mode", engine.MODES)
    def test_setup_comes_from_deploy(self, mode):
        # n=40 at 25 m plans tours with points; n=8 at seed 2 leaves quadrant 2 empty
        empty = points = 0
        for config in (small(mode, n=40, comm_range=25.0), small(mode, n=8, seed=2)):
            setup = deploy(config)
            assert setup.rounds == []
            trace = run_scenario(config)
            for name in ("partitions", "placements", "tours", "initial_neighbor_sets"):
                assert getattr(trace, name) == getattr(setup, name)
            assert [n.pos for n in trace.field.nodes] == [n.pos for n in setup.field.nodes]
            assert len(setup.tours) == 4
            for partition, placement, tour in zip(setup.partitions, setup.placements,
                                                  setup.tours):
                assert tour.partition_id == partition.id
                if placement is None:
                    empty += 1
                    b = partition.bounds
                    centre = Position((b.x_min + b.x_max) / 2, (b.y_min + b.y_max) / 2)
                    assert tour == SojournTour(partition.id, centre, ())
                elif mode == "static":
                    assert tour == SojournTour(partition.id, placement.position, ())
                else:
                    assert tour == generate_tour(setup.field, partition, placement)
                points += len(tour.points)
        assert empty == 1
        assert (points > 0) == (mode == "mobile")

    def test_max_rounds_one_yields_one_record(self):
        trace = run_scenario(small(max_rounds=1))
        assert len(trace.rounds) == 1
        assert trace.rounds[0].round_index == 1

    def test_same_config_bit_identical_traces(self):
        a = run_scenario(small(mode="mobile"))
        b = run_scenario(small(mode="mobile"))
        assert trace_lines(a) == trace_lines(b)

    def test_random_sources_deterministic(self):
        cfg = small(sources_per_round=4, max_rounds=60)
        assert trace_lines(run_scenario(cfg)) == trace_lines(run_scenario(cfg))

    @pytest.mark.parametrize("mode", ["static", "mobile"])
    def test_sampling_every_alive_node_equals_unset(self, mode):
        # a sample of every alive node differs only in the order backlogs
        # grow, which no output shows
        for seed in (1, 2, 3):
            config = small(mode, n=20, seed=seed, max_rounds=300)
            expected = trace_lines(run_scenario(config))
            for count in (config.n, 10**6):
                sampled = run_scenario(replace(config, sources_per_round=count))
                assert trace_lines(sampled) == expected

    def test_sampled_traffic_outlasts_a_quiet_round(self):
        # one sampled source a round: a round whose source cannot reach its
        # sink is quiet, yet 54 of these 100 nodes can still reach theirs
        config = ScenarioConfig(n=100, comm_range=25.0, sources_per_round=1, max_rounds=50)
        trace = run_scenario(config)
        assert len(trace.rounds) == 50
        assert all(node.alive for node in trace.field.nodes)
        assert sum(len(rec.deliveries) for rec in trace.rounds) > 0

    def test_sampled_run_ends_once_no_served_member_can_send(self):
        # one sampled source a round; the last delivery and death come at round
        # 161, and none of the 6 nodes left alive can reach its sink after that,
        # so round 162 is quiet in every partition (each has a one-position cycle)
        config = ScenarioConfig(mode="static", n=20, comm_range=20.0, initial_energy=0.001,
                                seed=1, sources_per_round=1, max_rounds=2000)
        trace = run_scenario(config)
        assert len(trace.rounds) == 162
        assert sum(node.alive for node in trace.field.nodes) == 6

    def test_empty_buffers_make_mobile_identical_to_static(self):
        # n=8 under default scaling gives a 56.6 m field whose quadrants fit
        # inside one comm disk, so every tour degenerates to the placement
        for seed in (1, 5, 11):
            static = run_scenario(ScenarioConfig(mode="static", n=8, seed=seed, max_rounds=300))
            mobile = run_scenario(ScenarioConfig(mode="mobile", n=8, seed=seed, max_rounds=300))
            assert all(tour.points == () for tour in mobile.tours)
            assert trace_lines(static) == trace_lines(mobile)

    def test_mobile_sink_positions_come_from_tour(self):
        trace = run_scenario(small(mode="mobile", n=40, seed=1, max_rounds=200))
        allowed = [set(tour.cycle()) for tour in trace.tours]
        for rec in trace.rounds:
            for k in range(4):
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

    @pytest.mark.parametrize("config", [
        # static, 48 rounds: multi-hop routes, drops and deaths
        ScenarioConfig(n=100, seed=1, initial_energy=0.005, max_rounds=100),
        small(mode="mobile", n=40, seed=1, max_rounds=200),
    ], ids=["static", "mobile"])
    def test_one_route_and_one_charge_per_delivery_record(self, config, monkeypatch):
        calls = {"min_hop_route": 0, "deliver_packet": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(engine, name)):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(engine, name, counted)
        trace = run_scenario(config)
        deliveries = [d for rec in trace.rounds for d in rec.deliveries]
        assert calls == {"min_hop_route": len(deliveries), "deliver_packet": len(deliveries)}
        if config.mode == "static":
            assert max(d.hop_count for d in deliveries) > 1
            assert not all(d.delivered for d in deliveries)
            assert any(rec.deaths for rec in trace.rounds)


class TestTraceExport:
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


class TestDeliveryColumns:
    def test_finished_trace_tracks_objects_per_round_not_per_record(self):
        trace = run_scenario(small(mode="mobile"))
        assert not any(node.alive for node in trace.field.nodes)  # it ran to death
        rounds = len(trace.rounds)
        records = sum(len(rec.deliveries) for rec in trace.rounds)
        assert records > 10 * rounds  # so one tracked object per record would show
        for rec in trace.rounds:
            packed = [obj for obj in gc.get_referents(rec.deliveries) if obj is not Deliveries]
            assert [type(obj) for obj in packed] == [bytes] and not gc.is_tracked(packed[0])
            assert len(packed[0]) == engine.RECORD.size * len(tuple(rec.deliveries.runs()))
        gc.collect()
        with_rounds = len(gc.get_objects())
        trace.rounds.clear()
        gc.collect()
        assert with_rounds - len(gc.get_objects()) <= 5 * rounds

    def test_a_sequence_of_delivery_records(self):
        trace = run_scenario(small(n=60, seed=3, initial_energy=0.005, max_rounds=300))
        rec = next(rec for rec in trace.rounds if not all(d.delivered for d in rec.deliveries))
        records = tuple(rec.deliveries)
        assert len(records) == len(rec.deliveries) > 1
        assert all(type(d) is Delivery and type(d.delivered) is bool for d in records)
        assert tuple(Deliveries((*d, 1) for d in records)) == records
        assert tuple(map(tuple, rec.deliveries)) == tuple(map(tuple, records))
        changed = records[:-1] + (records[-1]._replace(hop_count=records[-1].hop_count + 1),)
        assert tuple(Deliveries((*d, 1) for d in changed)) != records
        assert tuple(Deliveries()) == () and len(Deliveries()) == 0

    def test_a_mobile_backlog_is_stored_as_runs(self):
        config = ScenarioConfig(mode="mobile", n=100, seed=3)
        trace = run_scenario(config)
        records = sum(len(rec.deliveries) for rec in trace.rounds)
        runs = sum(1 for rec in trace.rounds for _ in rec.deliveries.runs())
        assert (records, runs) == (282_113, 66_993)
        # the per-packet reference engine stores runs of one; 30 rounds span
        # several visits of every sink's cycle, 3 to 6 positions long
        expected = run_reference(replace(config, max_rounds=30)).rounds
        assert [tuple(rec.deliveries) for rec in trace.rounds[:30]] == [
            tuple(rec.deliveries) for rec in expected]

    @pytest.mark.parametrize("k", [1, 2, engine.MAX_RUN, engine.MAX_RUN + 1, 600])
    def test_len_rows_and_iteration_agree_on_a_run_of_k(self, k):
        deliveries = Deliveries([(3, 1, 1e-4, True, k), (4, 2, 0.0, False, 1)])
        rows = ((3, 1, 1e-4, True),) * k + ((4, 2, 0.0, False),)
        assert len(deliveries) == len(rows)
        assert tuple(map(tuple, deliveries)) == rows
        assert tuple(deliveries) == tuple(map(Delivery._make, rows))
        # a run longer than the count can hold is stored as several
        assert len(tuple(deliveries.runs())) == -(-k // engine.MAX_RUN) + 1

    @given(st.lists(st.lists(st.tuples(
        st.integers(0, 5), st.integers(1, 4), st.one_of(st.just(0.0), st.floats(1e-9, 1e-3)),
        st.booleans(), st.integers(1, 2 * engine.MAX_RUN)), max_size=6), max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_fold_and_export_read_runs_as_their_records(self, rounds_of_runs):
        setup = deploy(small(n=4, max_rounds=1))

        def trace(rows_of):
            return replace(setup, rounds=[
                RoundRecord(i, (Position(0.0, 0.0),) * 4, Deliveries(rows_of(runs)), ())
                for i, runs in enumerate(rounds_of_runs, start=1)])

        as_runs = trace(lambda runs: runs)
        as_ones = trace(lambda runs: [run[:4] + (1,) for run in runs for _ in range(run[4])])
        assert compute_report(as_runs) == compute_report(as_ones)  # floats compared with ==
        assert trace_lines(as_runs) == trace_lines(as_ones) == reference_trace_lines(as_ones)

    def test_round_record_is_slotted_frozen_and_hashable(self):
        rec = run_scenario(small(n=10, seed=1, max_rounds=2)).rounds[0]
        assert not hasattr(rec, "__dict__")
        with pytest.raises(AttributeError):  # FrozenInstanceError is one
            rec.round_index = 5
        assert hash(rec) == hash(replace(rec)) and rec == replace(rec)


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
