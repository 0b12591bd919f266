import pytest

from simoco import (
    Delivery,
    MatrixRow,
    MetricsReport,
    NetworkField,
    Position,
    RoundRecord,
    ScenarioConfig,
    SimulationTrace,
    compute_report,
    deploy,
    emit_csv,
    mean_over_seeds,
    parse_trace_lines,
    report_from_export,
    run_experiment_matrix,
    run_scenario,
    trace_lines,
)
import simoco.metrics as metrics_module

SINKS = tuple(Position(0.0, 0.0) for _ in range(4))


def round_rec(idx, deliveries=(), deaths=()):
    return RoundRecord(idx, SINKS, tuple(deliveries), tuple(deaths))


def fake_trace(rounds, neighbor_sets=None):
    return SimulationTrace(
        config=ScenarioConfig(),
        placements=[None] * 4,
        tours=None,
        rounds=list(rounds),
        initial_neighbor_sets=neighbor_sets or [frozenset()] * 4,
        field=NetworkField(nodes=[], side=200.0, comm_range=45.0),
    )


class TestMetricOps:
    def test_avg_energy_mean(self):
        trace = fake_trace([
            round_rec(1, [Delivery(0, 1, 1.2e-4, True)]),
            round_rec(2, [Delivery(1, 2, 3.4e-4, True)]),
        ])
        assert compute_report(trace).avg_energy_per_packet == pytest.approx(2.3e-4)

    def test_avg_energy_singleton_and_empty(self):
        single = fake_trace([round_rec(1, [Delivery(0, 1, 5e-4, True)])])
        assert compute_report(single).avg_energy_per_packet == 5e-4
        assert compute_report(fake_trace([round_rec(1)])).avg_energy_per_packet is None

    def test_avg_energy_ignores_drops(self):
        trace = fake_trace([
            round_rec(1, [Delivery(0, 1, 2e-4, True), Delivery(1, 3, 0.0, False)]),
        ])
        assert compute_report(trace).avg_energy_per_packet == 2e-4

    def test_neighbor_death_takes_last_member(self):
        trace = fake_trace(
            [round_rec(5, deaths=[10]), round_rec(9, deaths=[11])],
            neighbor_sets=[frozenset({10, 11}), frozenset(), frozenset(), frozenset()],
        )
        assert compute_report(trace).rounds_to_neighbor_death == 9

    def test_neighbor_death_censored(self):
        trace = fake_trace(
            [round_rec(5, deaths=[10])],
            neighbor_sets=[frozenset({10, 11}), frozenset(), frozenset(), frozenset()],
        )
        assert compute_report(trace).rounds_to_neighbor_death is None

    def test_neighbor_death_earliest_partition_wins(self):
        trace = fake_trace(
            [round_rec(12, deaths=[1]), round_rec(20, deaths=[2])],
            neighbor_sets=[frozenset({1}), frozenset({2}), frozenset(), frozenset()],
        )
        assert compute_report(trace).rounds_to_neighbor_death == 12

    def test_neighbor_death_all_sets_empty(self):
        trace = fake_trace([round_rec(1, deaths=[5])])
        assert compute_report(trace).rounds_to_neighbor_death is None

    def test_neighbor_death_waits_for_neighbors_in_other_partitions(self):
        # A sink's initial neighbor set spans the whole field, while CNP counts
        # only its own partition; seed 1's SE sink reaches node 94 across the
        # quadrant border, so its set dies only when node 94 does.
        config = ScenarioConfig(seed=1)
        _, partitions, _, neighbor_sets = deploy(config)
        own = neighbor_sets[1] & set(partitions[1].member_ids)
        assert neighbor_sets[1] - own == {94}
        trace = fake_trace(
            [round_rec(5, deaths=sorted(own)), round_rec(9, deaths=[94])],
            neighbor_sets=[frozenset(), neighbor_sets[1], frozenset(), frozenset()],
        )
        assert compute_report(trace).rounds_to_neighbor_death == 9

    def test_first_death(self):
        def first_death(rounds):
            return compute_report(fake_trace(rounds)).rounds_to_first_death

        assert first_death([round_rec(6), round_rec(7, deaths=[3])]) == 7
        assert first_death([round_rec(1)]) is None
        assert first_death([round_rec(1, deaths=[0])]) == 1

    def test_avg_hops(self):
        trace = fake_trace([
            round_rec(1, [Delivery(0, 1, 1e-4, True), Delivery(1, 2, 1e-4, True)]),
            round_rec(2, [Delivery(2, 3, 1e-4, True)]),
        ])
        assert compute_report(trace).avg_hop_count == 2.0

    def test_avg_hops_all_single(self):
        trace = fake_trace([round_rec(1, [Delivery(0, 1, 1e-4, True)] * 3)])
        assert compute_report(trace).avg_hop_count == 1.0
        assert compute_report(fake_trace([round_rec(1)])).avg_hop_count is None

    def test_compute_report_packets_delivered(self):
        trace = fake_trace([
            round_rec(1, [Delivery(0, 1, 1e-4, True), Delivery(1, 1, 0.0, False)]),
        ])
        report = compute_report(trace)
        assert report.packets_delivered == 1
        assert report.avg_hop_count == 1.0


class TestReportFromExport:
    @pytest.mark.parametrize("mode", ["static", "mobile"])
    def test_matches_in_memory_report(self, mode):
        config = ScenarioConfig(mode=mode, n=30, seed=6, initial_energy=0.02, max_rounds=3000)
        trace = run_scenario(config)
        parsed = parse_trace_lines(trace_lines(trace))
        assert report_from_export(config, parsed) == compute_report(trace)


class TestExperimentMatrix:
    def test_minimal_matrix_runs_both_modes(self):
        base = ScenarioConfig(n=50, base_n=50, initial_energy=0.004, max_rounds=400)
        rows = run_experiment_matrix(base, sizes=[50], seeds=[1], max_workers=1)
        assert [(r.size, r.mode, r.seed) for r in rows] == [(50, "mobile", 1), (50, "static", 1)]
        assert all(r.report is not None for r in rows)

    def test_cartesian_count_and_order(self):
        base = ScenarioConfig(n=10, base_n=10, initial_energy=0.002, max_rounds=150)
        rows = run_experiment_matrix(base, sizes=[12, 8], seeds=[2, 1], max_workers=1)
        assert len(rows) == 2 * 2 * 2
        assert [(r.size, r.mode, r.seed) for r in rows] == [
            (8, "mobile", 1), (8, "mobile", 2), (8, "static", 1), (8, "static", 2),
            (12, "mobile", 1), (12, "mobile", 2), (12, "static", 1), (12, "static", 2),
        ]

    def test_empty_inputs_rejected(self):
        base = ScenarioConfig()
        with pytest.raises(ValueError):
            run_experiment_matrix(base, sizes=[], seeds=[1])
        with pytest.raises(ValueError):
            run_experiment_matrix(base, sizes=[50], seeds=[])

    def test_parallel_equals_sequential(self):
        base = ScenarioConfig(n=10, base_n=10, initial_energy=0.002, max_rounds=150)
        seq = run_experiment_matrix(base, sizes=[10, 20], seeds=[1, 2], max_workers=1)
        par = run_experiment_matrix(base, sizes=[10, 20], seeds=[1, 2], max_workers=2)
        assert seq == par

    def test_failed_cell_reported_not_fatal(self, monkeypatch):
        base = ScenarioConfig(n=10, base_n=10, initial_energy=0.002, max_rounds=100)
        real = metrics_module.run_scenario

        def flaky(config):
            if config.seed == 2:
                raise RuntimeError("boom")
            return real(config)

        monkeypatch.setattr(metrics_module, "run_scenario", flaky)
        rows = run_experiment_matrix(base, sizes=[10], seeds=[1, 2], max_workers=1)
        by_seed = {(r.seed, r.mode): r for r in rows}
        assert by_seed[(2, "static")].report is None
        assert "boom" in by_seed[(2, "static")].error
        assert by_seed[(1, "static")].report is not None

    def test_conservation_error_tracked(self):
        base = ScenarioConfig(n=20, base_n=20, initial_energy=0.004, max_rounds=400)
        rows = run_experiment_matrix(base, sizes=[20], seeds=[1], max_workers=1)
        assert all(r.energy_conservation_rel_err <= 1e-9 for r in rows)


class TestEmitCsv:
    HEADER = "size,mode,seed,avg_energy_j,neighbor_death_round,first_death_round,avg_hops,packets"

    def test_empty_table(self):
        assert emit_csv([]) == self.HEADER + "\n"

    def test_single_row(self):
        report = MetricsReport(2.5e-4, 10, 4, 1.5, 42)
        out = emit_csv([MatrixRow(50, "static", 1, report)])
        assert out.splitlines() == [self.HEADER, "50,static,1,0.00025,10,4,1.5,42"]

    def test_not_reached_renders_empty(self):
        report = MetricsReport(None, None, None, None, 0)
        out = emit_csv([MatrixRow(50, "mobile", 2, report)])
        assert out.splitlines()[1] == "50,mobile,2,,,,,0"

    def test_failed_cell_renders_empty_metrics(self):
        out = emit_csv([MatrixRow(50, "static", 3, None, error="boom")])
        assert out.splitlines()[1] == "50,static,3,,,,,"

    def test_rows_sorted(self):
        report = MetricsReport(1e-4, 1, 1, 1.0, 1)
        rows = [
            MatrixRow(100, "static", 2, report),
            MatrixRow(50, "static", 1, report),
            MatrixRow(100, "mobile", 1, report),
        ]
        lines = emit_csv(rows).splitlines()[1:]
        assert [line.split(",")[:3] for line in lines] == [
            ["50", "static", "1"],
            ["100", "mobile", "1"],
            ["100", "static", "2"],
        ]


class TestMeans:
    def test_mean_over_seeds_invariant_to_order(self):
        r1 = MatrixRow(50, "static", 1, MetricsReport(2e-4, 5, 2, 1.0, 10))
        r2 = MatrixRow(50, "static", 2, MetricsReport(4e-4, 7, 4, 2.0, 10))
        forward = mean_over_seeds([r1, r2], 50, "static", "avg_energy_per_packet")
        backward = mean_over_seeds([r2, r1], 50, "static", "avg_energy_per_packet")
        assert forward == backward == pytest.approx(3e-4)

    def test_mean_over_seeds_skips_missing(self):
        r1 = MatrixRow(50, "static", 1, MetricsReport(2e-4, None, 2, 1.0, 10))
        r2 = MatrixRow(50, "static", 2, MetricsReport(4e-4, 7, 4, 2.0, 10))
        assert mean_over_seeds([r1, r2], 50, "static", "rounds_to_neighbor_death") == 7
        assert mean_over_seeds([r1], 50, "static", "rounds_to_neighbor_death") is None
