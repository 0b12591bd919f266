"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured numbers once its assertions hold.

The directional comparisons (criteria 1-4) aggregate means across ten seeds
of full-lifetime runs; the heavy run batches are shared session fixtures so
each scenario is simulated exactly once.
"""

import math
import random
import time

import pytest

from simoco import (
    Position,
    RadioEnergyModel,
    ScenarioConfig,
    build_graph,
    cnp_initial_sink_position,
    cnp_iterates,
    generate_network,
    generate_tour,
    mean_over_seeds,
    min_hop_route,
    next_sojourn_point,
    quadrant_partition,
    run_experiment_matrix,
    sink_distance_field,
)
from simoco.cli import main
from util import SINK, floyd_warshall_hops, make_field, whole_field_partition

SEEDS = list(range(1, 11))
SIZES = [50, 100, 150, 200, 250, 300]


@pytest.fixture(scope="session")
def lifetime_batch():
    """Criteria 1, 2, 8: n=100 in the 200x200 field, range 45, both modes."""
    base = ScenarioConfig(n=100, base_side=200.0, base_n=100, comm_range=45.0,
                          initial_energy=0.5)
    start = time.perf_counter()
    rows = run_experiment_matrix(base, sizes=[100], seeds=SEEDS)
    elapsed = time.perf_counter() - start
    return rows, elapsed


@pytest.fixture(scope="session")
def scaling_batch():
    """Criteria 3, 8: sizes 50..300 grown density-preserving from the
    50-node 200x200 base."""
    base = ScenarioConfig(base_side=200.0, base_n=50, comm_range=45.0,
                          initial_energy=0.5)
    return run_experiment_matrix(base, sizes=SIZES, seeds=SEEDS)


@pytest.fixture(scope="session")
def hop_batch():
    """Criteria 4, 8: randomly generated events, ten per round."""
    base = ScenarioConfig(n=100, base_side=200.0, base_n=100, comm_range=45.0,
                          initial_energy=0.5, sources_per_round=10,
                          max_rounds=2000)
    return run_experiment_matrix(base, sizes=[100], seeds=SEEDS)


@pytest.fixture(scope="session")
def random_partitions():
    """Criteria 5, 7: 500 nonempty partitions from random fields of 5-200
    nodes with assorted communication ranges."""
    rng = random.Random(20240915)
    cases = []
    while len(cases) < 500:
        n = rng.randint(5, 200)
        base_n = rng.randint(20, 150)
        comm_range = rng.uniform(15.0, 70.0)
        field = generate_network(n, 200.0, base_n, comm_range, rng.randrange(2**32), 0.5)
        for partition in quadrant_partition(field):
            if partition.member_ids and len(cases) < 500:
                cases.append((field, partition))
    return cases


def test_criterion_1_energy_direction(lifetime_batch):
    rows, elapsed = lifetime_batch
    static = mean_over_seeds(rows, 100, "static", "avg_energy_per_packet")
    mobile = mean_over_seeds(rows, 100, "mobile", "avg_energy_per_packet")
    assert static is not None and mobile is not None
    assert mobile < static
    assert mobile <= 0.95 * static
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 1 PASS: avg energy/packet mobile {mobile:.4e} J <= "
          f"0.95 * static {static:.4e} J (ratio {mobile / static:.3f}); "
          f"20 runs in {elapsed:.1f}s < 60s")


def test_criterion_2_neighbor_lifetime_direction(lifetime_batch):
    rows, _ = lifetime_batch
    values = {}
    for mode in ("static", "mobile"):
        per_seed = [r.report.rounds_to_neighbor_death for r in rows if r.mode == mode]
        assert all(v is not None for v in per_seed), f"{mode}: neighbor death not reached"
        values[mode] = sum(per_seed) / len(per_seed)
    assert values["mobile"] > values["static"]
    print(f"\nACCEPTANCE 2 PASS: rounds to neighbor death mobile {values['mobile']:.0f} "
          f"> static {values['static']:.0f}")


def test_criterion_3_first_death_scaling(scaling_batch):
    rows = scaling_batch
    static_means = []
    for size in SIZES:
        static = mean_over_seeds(rows, size, "static", "rounds_to_first_death")
        mobile = mean_over_seeds(rows, size, "mobile", "rounds_to_first_death")
        assert static is not None and mobile is not None
        assert mobile > static, f"mobile should outlive static at n={size}"
        static_means.append(static)
    violations = []
    for a, b in zip(static_means, static_means[1:]):
        if b > a:
            violations.append((b - a) / a)
    assert len(violations) <= 1
    assert all(v <= 0.05 for v in violations)
    pretty = ", ".join(f"{m:.0f}" for m in static_means)
    print(f"\nACCEPTANCE 3 PASS: mobile first death > static at all sizes; "
          f"static means non-increasing [{pretty}] with {len(violations)} violation(s)")


def test_criterion_4_hop_count_direction(hop_batch):
    rows = hop_batch
    static = mean_over_seeds(rows, 100, "static", "avg_hop_count")
    mobile = mean_over_seeds(rows, 100, "mobile", "avg_hop_count")
    assert static is not None and mobile is not None
    assert mobile < static
    print(f"\nACCEPTANCE 4 PASS: avg hop count mobile {mobile:.3f} < static {static:.3f}")


def test_criterion_5_tour_coverage(random_partitions):
    violations = 0
    for field, partition in random_partitions:
        placement = cnp_initial_sink_position(field, partition)
        tour = generate_tour(field, partition, placement)
        cycle = tour.cycle()
        for node_id in partition.member_ids:
            pos = field.nodes[node_id].pos
            if min(math.dist(pos, p) for p in cycle) > field.comm_range:
                violations += 1
    assert violations == 0
    print(f"\nACCEPTANCE 5 PASS: full coverage on {len(random_partitions)} partitions, "
          f"0 violations")


def test_criterion_6_sojourn_step_oracle():
    def lerp_oracle(current, target, r):
        # independent parametric form: current + (r / d) * (target - current)
        d = math.dist(current, target)
        t = r / d
        return Position(current.x + t * (target.x - current.x),
                        current.y + t * (target.y - current.y))

    rng = random.Random(61)
    checked = 0
    worst = 0.0
    while checked < 1000:
        current = Position(rng.uniform(0, 400), rng.uniform(0, 400))
        target = Position(rng.uniform(0, 400), rng.uniform(0, 400))
        r = rng.uniform(5.0, 90.0)
        d = math.dist(current, target)
        if d <= r:
            continue
        stepped = next_sojourn_point(current, target, r)
        assert math.dist(current, stepped) == pytest.approx(r, abs=1e-9)
        assert math.dist(stepped, target) == pytest.approx(d - r, abs=1e-9)
        oracle = lerp_oracle(current, target, r)
        delta = max(abs(stepped.x - oracle.x), abs(stepped.y - oracle.y))
        worst = max(worst, delta)
        assert delta <= 1e-9
        checked += 1
    print(f"\nACCEPTANCE 6 PASS: 1000 step triples within 1e-9 of both distance "
          f"identities and the interpolation oracle (worst oracle delta {worst:.2e})")


def test_criterion_7_cnp_termination_and_example(random_partitions):
    for field, partition in random_partitions:
        counts = [count for _, count in cnp_iterates(field, partition)]
        assert len(counts) <= len(partition.member_ids)
        assert all(b > a for a, b in zip(counts, counts[1:]))
    # hand-traced five-node example: coordinate sums 122 per axis, so the
    # first centroid is (24.4, 24.4); it already sees all four cluster nodes
    field = make_field([(0, 0), (11, 0), (0, 11), (11, 11), (100, 100)],
                       comm_range=45, side=500)
    placement = cnp_initial_sink_position(field, whole_field_partition(field))
    assert placement.position == pytest.approx((24.4, 24.4))
    assert placement.neighbor_count == 4
    assert placement.iterations == 1
    print(f"\nACCEPTANCE 7 PASS: CNP terminated with strictly increasing counts on "
          f"{len(random_partitions)} partitions; 5-node example -> (24.4, 24.4)")


def test_criterion_8_energy_conservation(lifetime_batch, scaling_batch, hop_batch):
    rows = list(lifetime_batch[0]) + list(scaling_batch) + list(hop_batch)
    worst = 0.0
    for row in rows:
        assert row.error is None
        assert row.energy_conservation_rel_err is not None
        worst = max(worst, row.energy_conservation_rel_err)
        assert row.energy_conservation_rel_err <= 1e-9
    print(f"\nACCEPTANCE 8 PASS: energy conserved in all {len(rows)} traces "
          f"(worst relative error {worst:.2e})")


def test_criterion_9_route_optimality_oracle():
    rng = random.Random(90210)
    fields = 0
    routes = 0
    while fields < 200:
        n = rng.randint(1, 20)
        side = rng.uniform(40, 260)
        pts = [(rng.uniform(0, side), rng.uniform(0, side)) for _ in range(n)]
        field = make_field(pts, comm_range=rng.uniform(15, 80), side=side)
        sink = Position(rng.uniform(0, side), rng.uniform(0, side))
        graph = build_graph(field, whole_field_partition(field), RadioEnergyModel())
        oracle = floyd_warshall_hops(graph, sink)
        dist = sink_distance_field(graph, sink, graph.adjacency)
        for source in sorted(graph.adjacency):
            route = min_hop_route(graph, source, dist)
            expected = oracle[source][SINK]
            if route is None:
                assert expected == float("inf")
            else:
                assert route.hop_count == expected
                routes += 1
        fields += 1
    print(f"\nACCEPTANCE 9 PASS: {routes} routes across 200 fields match the "
          f"exhaustive shortest-path oracle")


def test_criterion_10_cli_determinism(tmp_path, monkeypatch):
    run_flags = ["run", "--mode", "mobile", "--nodes", "40", "--seed", "3",
                 "--energy", "0.05", "--rounds", "3000"]
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(run_flags + ["-o", str(a)]) == 0
    assert main(run_flags + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    matrix_flags = ["matrix", "--sizes", "20,40", "--seeds", "3",
                    "--energy", "0.02", "--rounds", "2000"]
    c, d = tmp_path / "c.csv", tmp_path / "d.csv"
    monkeypatch.setenv("SIMOCO_THREADS", "2")
    assert main(matrix_flags + ["-o", str(c)]) == 0
    monkeypatch.setenv("SIMOCO_THREADS", "1")
    assert main(matrix_flags + ["-o", str(d)]) == 0
    assert c.read_bytes() == d.read_bytes()
    print("\nACCEPTANCE 10 PASS: byte-identical trace and CSV across repeated "
          "CLI invocations and worker counts")
