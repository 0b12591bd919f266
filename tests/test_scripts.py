"""The experiment scripts run end to end on tiny inputs, including runs in
which a lifetime metric is not reached."""

import functools
import importlib.util
import sys
from pathlib import Path

import pytest

from simoco import ScenarioConfig
from simoco.metrics import CSV_HEADER

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_main(module, monkeypatch, *argv):
    monkeypatch.setattr(sys, "argv", [module.__file__, *argv])
    return module.main()


def row(out, label):
    """The words of the first output line whose leading words are `label`."""
    words = label.split()
    return next(line.split() for line in out.splitlines() if line.split()[:len(words)] == words)


@pytest.fixture(autouse=True)
def one_worker(monkeypatch):
    monkeypatch.setenv("SIMOCO_THREADS", "1")


class TestCompareStaticMobile:
    def test_reached_metrics(self, tmp_path, monkeypatch, capsys):
        module = load("compare_static_mobile")
        csv = tmp_path / "runs.csv"
        argv = ["--nodes", "12", "--seeds", "1", "--energy", "0.05", "--csv", str(csv)]
        assert run_main(module, monkeypatch, *argv) == 0
        out = capsys.readouterr().out
        assert "n/a" not in out
        assert float(row(out, "energy ratio")[-1]) > 0
        assert csv.read_text().startswith(CSV_HEADER + "\n")

    def test_unreached_lifetime_prints_na(self, monkeypatch, capsys):
        # 100 J per node: no node dies within the 10000-round budget
        module = load("compare_static_mobile")
        argv = ["--nodes", "3", "--seeds", "1", "--energy", "100"]
        assert run_main(module, monkeypatch, *argv) == 0
        out = capsys.readouterr().out
        assert row(out, "rounds to first death")[-2:] == ["n/a", "n/a"]
        assert row(out, "rounds to neighbor death")[-2:] == ["n/a", "n/a"]
        assert row(out, "avg hop count")[-2:] == ["1.0", "1.0"]

    def test_missing_energy_mean_prints_na_ratio(self, monkeypatch, capsys):
        module = load("compare_static_mobile")
        monkeypatch.setattr(module, "mean_over_seeds", lambda *args: None)
        assert run_main(module, monkeypatch, "--nodes", "3", "--seeds", "1") == 0
        assert row(capsys.readouterr().out, "energy ratio")[-1] == "n/a"


class TestSizeSweep:
    def test_reached_first_death(self, tmp_path, monkeypatch, capsys):
        module = load("size_sweep")
        csv = tmp_path / "sweep.csv"
        assert run_main(module, monkeypatch, "--sizes", "8", "--seeds", "1", "-o", str(csv)) == 0
        out = capsys.readouterr().out
        assert "n/a" not in out
        assert len(row(out, "8")) == 3
        assert len(csv.read_text().splitlines()) == 1 + 2  # header + both modes

    def test_unreached_first_death_prints_na(self, tmp_path, monkeypatch, capsys):
        module = load("size_sweep")
        # a 50-round budget ends every run before its first death
        monkeypatch.setattr(module, "ScenarioConfig", functools.partial(ScenarioConfig,
                                                                         max_rounds=50))
        argv = ["--sizes", "8,12", "--seeds", "1", "-o", str(tmp_path / "sweep.csv")]
        assert run_main(module, monkeypatch, *argv) == 0
        out = capsys.readouterr().out
        assert row(out, "8") == ["8", "n/a", "n/a"]
        assert row(out, "12") == ["12", "n/a", "n/a"]


@pytest.mark.parametrize("script, argv", [
    ("compare_static_mobile", ["--seeds", "0"]),
    ("compare_static_mobile", ["--nodes", "0"]),
    ("compare_static_mobile", ["--energy", "nan"]),
    ("size_sweep", ["--seeds", "0"]),
    ("size_sweep", ["--sizes", "a", "--seeds", "1"]),
    ("size_sweep", ["--sizes", "0", "--seeds", "1"]),
    ("size_sweep", ["--sizes", "8,8", "--seeds", "1"]),
], ids=["compare-seeds-0", "compare-nodes-0", "compare-energy-nan", "sweep-seeds-0",
        "sweep-sizes-not-int", "sweep-sizes-0", "sweep-sizes-repeated"])
def test_bad_argument_is_usage_error(script, argv, tmp_path, monkeypatch, capsys):
    module = load(script)
    csv = tmp_path / "runs.csv"
    output_flag = "--csv" if script == "compare_static_mobile" else "-o"
    with pytest.raises(SystemExit) as exit_info:
        run_main(module, monkeypatch, *argv, output_flag, str(csv))
    assert exit_info.value.code == 2
    streams = capsys.readouterr()
    assert "usage:" in streams.err
    assert streams.out == ""  # no cell ran
    assert not csv.exists()
