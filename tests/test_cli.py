import pytest

import simoco.metrics as metrics_module
from simoco import (
    ScenarioConfig,
    cnp_initial_sink_position,
    emit_csv,
    generate_network,
    generate_tour,
    quadrant_partition,
    run_experiment_matrix,
    run_scenario,
    tour_export_lines,
    trace_lines,
)
from simoco.cli import main
from simoco.metrics import CSV_HEADER, MatrixRow, MetricsReport, summary_table

RUN_FLAGS = ["run", "--mode", "mobile", "--nodes", "24", "--seed", "5",
             "--energy", "0.02", "--rounds", "2000"]


@pytest.fixture(autouse=True)
def single_worker(monkeypatch):
    monkeypatch.setenv("SIMOCO_THREADS", "1")


def read(path):
    return path.read_text()


def summary_row(err, size, label):
    """The values on the `matrix` summary line for `size` and metric `label`."""
    prefix = [str(size), *label.split()]
    return next(line.split()[len(prefix):] for line in err.splitlines()
                if line.split()[:len(prefix)] == prefix)


class TestRun:
    def test_trace_matches_direct_module_calls(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        assert main(RUN_FLAGS + ["-o", str(out)]) == 0
        config = ScenarioConfig(mode="mobile", n=24, seed=5, initial_energy=0.02,
                                max_rounds=2000)
        expected = "\n".join(trace_lines(run_scenario(config))) + "\n"
        assert read(out) == expected

    def test_stdout_by_default(self, capsys):
        assert main(["run", "--nodes", "6", "--seed", "1", "--rounds", "2",
                     "--energy", "0.01"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 2
        assert out.startswith('{"round":1,')

    def test_traffic_flag_with_count(self, tmp_path):
        out = tmp_path / "t.jsonl"
        code = main(["run", "--nodes", "12", "--seed", "2", "--rounds", "50",
                     "--energy", "0.01", "--sources", "3", "-o", str(out)])
        assert code == 0
        config = ScenarioConfig(n=12, seed=2, max_rounds=50, initial_energy=0.01,
                                sources_per_round=3)
        assert read(out) == "\n".join(trace_lines(run_scenario(config))) + "\n"


class TestMatrix:
    def test_csv_matches_direct_module_calls(self, tmp_path, capsys):
        # the seed-mean summary goes to stderr, so neither -o nor stdout holds it
        argv = ["matrix", "--sizes", "8,12", "--seeds", "2", "--energy", "0.004",
                "--rounds", "500"]
        out = tmp_path / "results.csv"
        assert main(argv + ["-o", str(out)]) == 0
        assert main(argv) == 0
        streams = capsys.readouterr()
        base = ScenarioConfig(base_n=50, initial_energy=0.004, max_rounds=500)
        rows = run_experiment_matrix(base, [8, 12], [1, 2], max_workers=1)
        assert read(out) == streams.out == emit_csv(rows)
        assert streams.err == 2 * summary_table(rows)

    def test_seed_list_form(self, tmp_path):
        out = tmp_path / "results.csv"
        code = main(["matrix", "--sizes", "8", "--seeds", "3,9",
                     "--energy", "0.004", "--rounds", "300", "-o", str(out)])
        assert code == 0
        lines = read(out).splitlines()
        assert len(lines) == 1 + 4  # header + 1 size x 2 modes x 2 seeds
        assert lines[1].startswith("8,mobile,3,")
        assert lines[2].startswith("8,mobile,9,")

    @pytest.mark.parametrize("seeds, expected", [
        ("7..7", [7]), ("4..6", [4, 5, 6]), ("2", [1, 2]),
    ])
    def test_seed_count_and_range_forms(self, seeds, expected, capsys):
        assert main(["matrix", "--sizes", "8", "--seeds", seeds, "--rounds", "5"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [int(row.split(",")[2]) for row in rows] == expected * 2

    def test_failed_cell_exits_two_after_writing_csv(self, tmp_path, monkeypatch, capsys):
        real = metrics_module.run_scenario

        def static_only(config):
            if config.mode == "mobile":
                raise RuntimeError("boom")
            return real(config)

        monkeypatch.setattr(metrics_module, "run_scenario", static_only)
        out = tmp_path / "results.csv"
        code = main(["matrix", "--sizes", "8", "--seeds", "1", "--energy", "0.004",
                     "--rounds", "100", "-o", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "cell (n=8, mobile, seed 1) failed: RuntimeError: boom" in err
        lines = read(out).splitlines()
        assert lines[1] == "8,mobile,1,,,,,"
        assert lines[2].startswith("8,static,1,") and lines[2] != "8,static,1,,,,,"
        # the failed mode is left out of the seed means, so its column is n/a
        for label in ("avg energy/packet [J]", "rounds to first death", "avg hop count"):
            static, mobile = summary_row(err, 8, label)
            assert float(static) > 0 and mobile == "n/a"
        assert summary_row(err, 8, "energy ratio mobile/static") == ["n/a"]


class TestMatrixSummary:
    def test_reached_metrics(self, tmp_path, capsys):
        # base_n = n keeps the 200 m field of a single-size comparison
        cfg = tmp_path / "compare.cfg"
        cfg.write_text("base_n = 12\n")
        out = tmp_path / "runs.csv"
        argv = ["matrix", "--config", str(cfg), "--sizes", "12", "--seeds", "1",
                "--energy", "0.05", "-o", str(out)]
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert "n/a" not in err
        assert float(summary_row(err, 12, "energy ratio mobile/static")[0]) > 0
        assert read(out).startswith(CSV_HEADER + "\n")

    def test_reached_first_death(self, capsys):
        assert main(["matrix", "--sizes", "8", "--seeds", "1"]) == 0
        streams = capsys.readouterr()
        assert "n/a" not in streams.err
        assert len(summary_row(streams.err, 8, "rounds to first death")) == 2
        assert len(streams.out.splitlines()) == 1 + 2  # header + both modes

    def test_unreached_lifetime_prints_na(self, capsys):
        # 100 J per node: no node dies within the 10000-round budget
        assert main(["matrix", "--sizes", "3", "--seeds", "1", "--energy", "100"]) == 0
        err = capsys.readouterr().err
        assert summary_row(err, 3, "rounds to first death") == ["n/a", "n/a"]
        assert summary_row(err, 3, "rounds to neighbor death") == ["n/a", "n/a"]
        assert summary_row(err, 3, "avg hop count") == ["1.0", "1.0"]

    def test_unreached_first_death_prints_na(self, capsys):
        # a 50-round budget ends every run before its first death
        assert main(["matrix", "--sizes", "8,12", "--seeds", "1", "--rounds", "50"]) == 0
        err = capsys.readouterr().err
        assert summary_row(err, 8, "rounds to first death") == ["n/a", "n/a"]
        assert summary_row(err, 12, "rounds to first death") == ["n/a", "n/a"]

    def test_missing_energy_mean_prints_na_ratio(self):
        reached = MetricsReport(1e-4, 50, 20, 1.0, 10)
        nothing_delivered = MetricsReport(None, None, None, None, 0)
        rows = [MatrixRow(5, "static", 1, reached), MatrixRow(5, "mobile", 1, nothing_delivered)]
        table = summary_table(rows)
        assert summary_row(table, 5, "avg energy/packet [J]") == ["1.0000e-04", "n/a"]
        assert summary_row(table, 5, "energy ratio mobile/static") == ["n/a"]


class TestTour:
    def test_lines_match_direct_module_calls(self, tmp_path):
        out = tmp_path / "tours.txt"
        # at a 30 m range this field's tours have sojourn points
        argv = ["tour", "--nodes", "40", "--seed", "7", "--range", "30", "-o", str(out)]
        assert main(argv) == 0
        field = generate_network(40, 200.0, 100, 30.0, 7, 0.5)
        tours = []
        for part in quadrant_partition(field):
            if part.member_ids:
                tours.append(generate_tour(field, part, cnp_initial_sink_position(field, part)))
        assert read(out) == "\n".join(tour_export_lines(tours)) + "\n"
        assert any(line.split(",")[1] != "0" for line in read(out).splitlines())

    @pytest.mark.parametrize("mode", ["static", "mobile"])
    def test_mode_in_config_file_is_ignored(self, mode, tmp_path):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(f"mode = {mode}\n")
        plain, configured = tmp_path / "plain.txt", tmp_path / "configured.txt"
        # at a 30 m range this field's tours have sojourn points
        argv = ["tour", "--nodes", "40", "--seed", "7", "--range", "30"]
        assert main(argv + ["-o", str(plain)]) == 0
        assert main(argv + ["--config", str(cfg), "-o", str(configured)]) == 0
        assert configured.read_bytes() == plain.read_bytes()
        assert any(line.split(",")[1] != "0" for line in read(plain).splitlines())


class TestConfigFileAndOverrides:
    def test_config_file_applies(self, tmp_path):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(
            "# comparison scenario\n"
            "mode = mobile\n"
            "n = 24\n"
            "seed = 5\n"
            "initial_energy = 0.02\n"
            "max_rounds = 2000\n"
        )
        out = tmp_path / "trace.jsonl"
        assert main(["run", "--config", str(cfg), "-o", str(out)]) == 0
        direct = tmp_path / "direct.jsonl"
        assert main(RUN_FLAGS + ["-o", str(direct)]) == 0
        assert read(out) == read(direct)

    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("n = 6\nseed = 1\ninitial_energy = 0.01\nmax_rounds = 5\n")
        out = tmp_path / "trace.jsonl"
        assert main(["run", "--config", str(cfg), "--rounds", "2", "-o", str(out)]) == 0
        assert len(read(out).splitlines()) == 2

    def test_unknown_config_key_is_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nodes = 10\n")  # field is called n
        assert main(["run", "--config", str(cfg)]) == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_missing_config_file_is_error(self, capsys):
        assert main(["run", "--config", "/nonexistent/x.cfg"]) == 1
        assert "config error" in capsys.readouterr().err

    def test_repeated_config_key_is_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n = 12\nseed = 3\nn = 30\n")
        assert main(["run", "--config", str(cfg)]) == 1
        assert "bad.cfg:3: config key 'n' given twice" in capsys.readouterr().err

    def test_line_without_equals_is_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("mode mobile\n")
        assert main(["run", "--config", str(cfg)]) == 1
        assert f"{cfg}:1: expected key = value" in capsys.readouterr().err

    def test_bad_value_type_is_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n = many\n")
        assert main(["run", "--config", str(cfg)]) == 1
        assert "expects int" in capsys.readouterr().err


FLAG_FIELDS = {
    "--config": (None, {"e_elec": 4e-08, "sources_per_round": 5}),
    "--range": (["--range", "30"], {"comm_range": 30.0}),
    "--nodes": (["--nodes", "7"], {"n": 7}),
    "--seed": (["--seed", "9"], {"seed": 9}),
    "--rounds": (["--rounds", "77"], {"max_rounds": 77}),
    "--energy": (["--energy", "0.3"], {"initial_energy": 0.3}),
    "--packet-bits": (["--packet-bits", "1000"], {"packet_bits": 1000}),
    "--sources": (["--sources", "3"], {"sources_per_round": 3}),
    "--mode": (["--mode", "mobile"], {"mode": "mobile"}),
}
SUBCOMMAND_FLAGS = {
    "run": ["--config", "--range", "--nodes", "--seed", "--rounds", "--energy",
            "--packet-bits", "--sources", "--mode"],
    "matrix": ["--config", "--range", "--rounds", "--energy", "--packet-bits", "--sources"],
    "tour": ["--config", "--range", "--nodes", "--seed"],
}
# `tour` deploys its scenario in mobile mode, whatever mode the settings name
SUBCOMMAND_DEFAULTS = {"run": {}, "matrix": {"base_n": 50}, "tour": {"mode": "mobile"}}


class StopCommand(Exception):
    """Raised by the captured entry points once the command has built its config."""


@pytest.fixture
def captured_configs(monkeypatch):
    configs = []

    def capture(config, *args, **kwargs):
        configs.append(config)
        raise StopCommand

    for name in ("run_scenario", "run_experiment_matrix", "deploy"):
        monkeypatch.setattr(f"simoco.cli.{name}", capture)
    return configs


class TestFlagsReachFields:
    @pytest.mark.parametrize("subcommand, flag", [
        (subcommand, flag) for subcommand, flags in SUBCOMMAND_FLAGS.items() for flag in flags
    ])
    def test_flag_sets_its_field(self, subcommand, flag, captured_configs, tmp_path):
        argv, fields = FLAG_FIELDS[flag]
        if argv is None:
            cfg = tmp_path / "scenario.cfg"
            cfg.write_text("".join(f"{key} = {value}\n" for key, value in fields.items()))
            argv = ["--config", str(cfg)]
        # the capture raises, so main reports a runtime error after building the config
        assert main([subcommand] + argv) == 2
        assert captured_configs == [ScenarioConfig(**SUBCOMMAND_DEFAULTS[subcommand], **fields)]

    @pytest.mark.parametrize("subcommand", list(SUBCOMMAND_FLAGS))
    def test_flag_beats_config_file(self, subcommand, captured_configs, tmp_path):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("comm_range = 20\ne_elec = 4e-08\n")
        assert main([subcommand, "--config", str(cfg), "--range", "30"]) == 2
        expected = ScenarioConfig(**SUBCOMMAND_DEFAULTS[subcommand], comm_range=30.0,
                                  e_elec=4e-08)
        assert captured_configs == [expected]


class TestExitCodes:
    def test_unknown_flag_exits_one(self, capsys):
        assert main(["run", "--frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_bad_subcommand_exits_one(self, capsys):
        assert main(["simulate"]) == 1

    def test_invalid_mode_value_exits_one(self, capsys):
        assert main(["run", "--mode", "hovering"]) == 1

    def test_invalid_scenario_value_exits_one(self, capsys):
        assert main(["run", "--nodes", "0"]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, config_text", [
        (["run", "--range", "nan"], None),
        (["run", "--mode", "mobile", "--range", "nan"], None),
        (["run", "--energy", "nan"], None),
        (["run", "--energy", "inf"], None),
        (["run", "--packet-bits", "0"], None),
        (["run"], "base_side = nan\n"),
        (["run"], "e_elec = nan\n"),
        (["run"], "e_amp = -1\n"),
        (["matrix", "--sizes", "8", "--seeds", "1", "--energy", "nan"], None),
        (["matrix", "--sizes", "0", "--seeds", "1"], None),
        (["run", "--mode", "mobile", "--range", "1e-6"], None),
        (["run", "--sources", "0"], None),
        (["matrix", "--sizes", "8", "--seeds", "1,1"], None),
        (["matrix", "--sizes", "8,8", "--seeds", "1"], None),
        (["run"], "traffic = random_sources\n"),
        (["matrix", "--sizes", "8,,12", "--seeds", "1"], None),
        (["matrix", "--sizes", "8", "--seeds", "2,"], None),
        (["matrix", "--sizes", "8", "--seeds", "0"], None),
        (["matrix", "--sizes", "a", "--seeds", "1"], None),
        (["matrix", "--sizes", "8", "--seeds", "7..5"], None),
        (["matrix", "--sizes", "8", "--seeds", "3.."], None),
        (["matrix", "--sizes", "8", "--seeds", "1..2..3"], None),
        (["run"], "n = 12\nn = 30\n"),
    ], ids=["range-nan-static", "range-nan-mobile", "energy-nan", "energy-inf",
            "packet-bits-0", "base-side-nan", "e-elec-nan", "e-amp-negative",
            "matrix-energy-nan", "matrix-size-0", "range-tiny-mobile",
            "sources-0", "matrix-seed-repeated", "matrix-size-repeated",
            "traffic-config-key-gone", "matrix-size-empty-entry",
            "matrix-seed-trailing-comma", "matrix-seeds-0", "matrix-size-not-int",
            "matrix-seed-range-reversed", "matrix-seed-range-open",
            "matrix-seed-range-malformed", "config-key-repeated"])
    def test_nonsense_physical_value_exits_one(self, argv, config_text, tmp_path, capsys):
        # small sizes keep the case fast should validation ever let it run
        if argv[0] == "run":
            argv = argv + ["--nodes", "8"]
        if config_text is not None:
            cfg = tmp_path / "bad.cfg"
            cfg.write_text(config_text)
            argv = argv + ["--config", str(cfg)]
        assert main(argv + ["--rounds", "5", "-o", str(tmp_path / "out")]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["matrix", "--sizes", "8", "--seed", "2"], "--seed"),  # matrix takes --seeds
        (["run", "--node", "5"], "--node"),  # run takes --nodes
        (["matrix", "--size", "8", "--seeds", "1"], "--size"),  # matrix takes --sizes
    ], ids=["matrix-seed-prefix", "run-nodes-prefix", "matrix-size-prefix"])
    def test_flag_prefix_exits_one(self, argv, flag, tmp_path, capsys):
        assert main(argv + ["--rounds", "5", "-o", str(tmp_path / "out")]) == 1
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # the bad arguments once given to the single-size comparison script (a
    # `matrix` run on a field of base_n = n) and to the size sweep script
    @pytest.mark.parametrize("argv, config_text, message", [
        (["--sizes", "100", "--seeds", "0"], "base_n = 100\n", "config error"),
        (["--sizes", "0", "--seeds", "1"], "base_n = 100\n", "config error"),
        (["--sizes", "100", "--seeds", "1", "--energy", "nan"], "base_n = 100\n",
         "config error"),
        (["--sizes", "8", "--seeds", "0"], None, "config error"),
        (["--sizes", "a", "--seeds", "1"], None, "config error"),
        (["--sizes", "0", "--seeds", "1"], None, "config error"),
        (["--sizes", "8,8", "--seeds", "1"], None, "config error"),
        (["--size", "6", "--seed", "1"], "base_n = 6\n", "unrecognized arguments: --size"),
        (["--size", "8", "--seed", "1"], None, "unrecognized arguments: --size"),
    ], ids=["compare-seeds-0", "compare-nodes-0", "compare-energy-nan", "sweep-seeds-0",
            "sweep-sizes-not-int", "sweep-sizes-0", "sweep-sizes-repeated",
            "compare-flag-prefix", "sweep-flag-prefix"])
    def test_bad_matrix_argument_runs_no_cell(self, argv, config_text, message, tmp_path,
                                              capsys):
        argv = ["matrix", *argv, "--rounds", "5"]
        if config_text is not None:
            cfg = tmp_path / "scenario.cfg"
            cfg.write_text(config_text)
            argv += ["--config", str(cfg)]
        out = tmp_path / "runs.csv"
        assert main(argv + ["-o", str(out)]) == 1
        streams = capsys.readouterr()
        assert message in streams.err
        assert "energy ratio" not in streams.err  # no summary: no cell ran
        assert streams.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("line", ["n = 40", "mode = mobile", "seed = 7"])
    def test_matrix_rejects_per_cell_config_key(self, line, tmp_path, capsys):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(line + "\n")
        argv = ["matrix", "--config", str(cfg), "--sizes", "8", "--seeds", "1",
                "--rounds", "20", "-o", str(tmp_path / "out")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "--sizes and --seeds" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("threads", ["abc", "-1"])
    def test_bad_thread_count_exits_one(self, threads, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv("SIMOCO_THREADS", threads)
        argv = ["matrix", "--sizes", "8", "--seeds", "1", "--rounds", "5",
                "-o", str(tmp_path / "out")]
        assert main(argv) == 1
        assert "config error" in capsys.readouterr().err

    # each once exited 2, or exited 0 with NaN or Infinity in a trace that is
    # not valid JSON; a derived quantity outside the float range is a config error
    @pytest.mark.parametrize("argv, config_text", [
        (["run", "--nodes", "4", "--rounds", "3", "--packet-bits", "1" + "0" * 400], None),
        (["run", "--mode", "mobile", "--nodes", "3", "--rounds", "3"],
         "base_n = 1\nbase_side = 1e308\ncomm_range = 1e308\n"),
        (["tour", "--nodes", "3"], "base_n = 1\nbase_side = 1e308\ncomm_range = 1e308\n"),
        (["run", "--packet-bits", "1000", "--nodes", "4", "--seed", "1", "--rounds", "3"],
         "e_amp = 1e306\n"),
        (["run", "--nodes", "8", "--seed", "1", "--rounds", "3"],
         "base_side = 1e308\nbase_n = 8\ncomm_range = 1e306\n"),
    ], ids=["packet-bits-beyond-float", "tour-cap-overflow-run", "tour-cap-overflow-tour",
            "nan-energy-on-sink", "infinite-centroid"])
    def test_float_range_exceeded_exits_one(self, argv, config_text, tmp_path, capsys):
        if config_text is not None:
            cfg = tmp_path / "extreme.cfg"
            cfg.write_text(config_text)
            argv = argv + ["--config", str(cfg)]
        out = tmp_path / "out"
        assert main(argv + ["-o", str(out)]) == 1
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_tiny_range_tour_exits_one(self, capsys):
        # below side/1000 the tour walk would take ~1e10 steps instead of failing
        assert main(["tour", "--nodes", "20", "--range", "1e-6"]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["run", "--sources", "few"], "argument --sources: invalid int value"),
        (["run", "--traffic", "random_sources:3"], "unrecognized arguments: --traffic"),
    ], ids=["sources-not-int", "traffic-flag-gone"])
    def test_usage_error_exits_one(self, argv, message, tmp_path, capsys):
        assert main(argv + ["-o", str(tmp_path / "out")]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_runtime_error_exits_two(self, capsys):
        # a writable-looking output that fails on write: a run-time I/O error
        code = main(["run", "--nodes", "4", "--seed", "1", "--rounds", "1",
                     "-o", "/dev/full"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand", ["run", "matrix", "tour"])
    @pytest.mark.parametrize("output", ["missing/out", "."], ids=["missing-dir", "directory"])
    def test_bad_output_exits_one_before_any_run(
        self, subcommand, output, captured_configs, tmp_path, capsys
    ):
        argv = [subcommand, "-o", str(tmp_path / output)]
        if subcommand == "matrix":
            argv += ["--sizes", "8", "--seeds", "1"]
        # a command that got as far as running would hit the capture and exit 2
        assert main(argv) == 1
        assert "config error" in capsys.readouterr().err
        assert captured_configs == []
        assert list(tmp_path.iterdir()) == []

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "simoco" in capsys.readouterr().out


class TestDeterminism:
    def test_run_invocation_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(RUN_FLAGS + ["-o", str(a)]) == 0
        assert main(RUN_FLAGS + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_matrix_byte_identical_across_worker_counts(self, tmp_path, monkeypatch):
        flags = ["matrix", "--sizes", "8,12", "--seeds", "2",
                 "--energy", "0.004", "--rounds", "300"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        monkeypatch.setenv("SIMOCO_THREADS", "1")
        assert main(flags + ["-o", str(a)]) == 0
        monkeypatch.setenv("SIMOCO_THREADS", "2")
        assert main(flags + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
