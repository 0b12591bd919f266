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

RUN_FLAGS = ["run", "--mode", "mobile", "--nodes", "24", "--seed", "5",
             "--energy", "0.02", "--rounds", "2000"]


@pytest.fixture(autouse=True)
def single_worker(monkeypatch):
    monkeypatch.setenv("SIMOCO_THREADS", "1")


def read(path):
    return path.read_text()


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
    def test_csv_matches_direct_module_calls(self, tmp_path):
        out = tmp_path / "results.csv"
        code = main(["matrix", "--sizes", "8,12", "--seeds", "2",
                     "--energy", "0.004", "--rounds", "500", "-o", str(out)])
        assert code == 0
        base = ScenarioConfig(base_n=50, initial_energy=0.004, max_rounds=500)
        rows = run_experiment_matrix(base, [8, 12], [1, 2], max_workers=1)
        assert read(out) == emit_csv(rows)

    def test_seed_list_form(self, tmp_path):
        out = tmp_path / "results.csv"
        code = main(["matrix", "--sizes", "8", "--seeds", "3,9",
                     "--energy", "0.004", "--rounds", "300", "-o", str(out)])
        assert code == 0
        lines = read(out).splitlines()
        assert len(lines) == 1 + 4  # header + 1 size x 2 modes x 2 seeds
        assert lines[1].startswith("8,mobile,3,")
        assert lines[2].startswith("8,mobile,9,")

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
        assert "cell (n=8, mobile, seed 1) failed: RuntimeError: boom" in capsys.readouterr().err
        lines = read(out).splitlines()
        assert lines[1] == "8,mobile,1,,,,,"
        assert lines[2].startswith("8,static,1,") and lines[2] != "8,static,1,,,,,"


class TestTour:
    def test_lines_match_direct_module_calls(self, tmp_path):
        out = tmp_path / "tours.txt"
        assert main(["tour", "--nodes", "40", "--seed", "7", "-o", str(out)]) == 0
        field = generate_network(40, 200.0, 100, 45.0, 7, 0.5)
        tours = []
        for part in quadrant_partition(field):
            if part.member_ids:
                tours.append(generate_tour(field, part, cnp_initial_sink_position(field, part)))
        assert read(out) == "\n".join(tour_export_lines(tours)) + "\n"


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
SUBCOMMAND_DEFAULTS = {"run": {}, "matrix": {"base_n": 50}, "tour": {}}


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
    ], ids=["range-nan-static", "range-nan-mobile", "energy-nan", "energy-inf",
            "packet-bits-0", "base-side-nan", "e-elec-nan", "e-amp-negative",
            "matrix-energy-nan", "matrix-size-0", "range-tiny-mobile",
            "sources-0", "matrix-seed-repeated", "matrix-size-repeated",
            "traffic-config-key-gone", "matrix-size-empty-entry",
            "matrix-seed-trailing-comma"])
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
    ], ids=["matrix-seed-prefix", "run-nodes-prefix"])
    def test_flag_prefix_exits_one(self, argv, flag, tmp_path, capsys):
        assert main(argv + ["--rounds", "5", "-o", str(tmp_path / "out")]) == 1
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("threads", ["abc", "-1"])
    def test_bad_thread_count_exits_one(self, threads, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv("SIMOCO_THREADS", threads)
        argv = ["matrix", "--sizes", "8", "--seeds", "1", "--rounds", "5",
                "-o", str(tmp_path / "out")]
        assert main(argv) == 1
        assert "config error" in capsys.readouterr().err

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
