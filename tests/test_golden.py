"""Golden SHA-256 digests of CLI outputs and of the reports of the `run` cases.

The digests pin the simulator's output bytes, so a refactor that changes
one trace, CSV, tour or report byte fails here. Regenerate them only for an intended behaviour
change, and say so in CHANGES.md.
"""

import hashlib
import tempfile
from pathlib import Path

import pytest

from simoco import ScenarioConfig, compute_report, run_scenario
from simoco.cli import main

CASES = {
    f"run-{mode}-{traffic}-s{seed}": [
        "run", "--mode", mode, "--seed", str(seed), *sources,
        "--nodes", "30", "--range", "25", "--energy", "0.01", "--rounds", "400",
    ]
    for mode in ("static", "mobile")
    for traffic, sources in (("all_nodes_each_round", []),
                             ("random_sources", ["--sources", "5"]))
    for seed in (1, 2)
}
CASES["matrix"] = ["matrix", "--sizes", "12,20", "--seeds", "2", "--range", "30",
                   "--energy", "0.004", "--rounds", "300"]
CASES["tour"] = ["tour", "--nodes", "60", "--seed", "3", "--range", "25"]

OUTPUT_DIGESTS = {
    "run-static-all_nodes_each_round-s1": "56051f4b110df60a07d3adf9e6b6326707a21ad2ebb559613642c88b30f322cd",
    "run-static-all_nodes_each_round-s2": "d81bc7929ea624022075c23941ed9e9141c64c793a3f325cc5b38f09a92e6b0b",
    "run-static-random_sources-s1": "aa8456f6cbd6d52ada13b357e59b488053b2d344a685597f82ffcb85ad332849",
    "run-static-random_sources-s2": "0686905ae7dfaa72bf98429f84babfa41ce1cbfd0402d199cb9b5ab636fbeb24",
    "run-mobile-all_nodes_each_round-s1": "39e527f72af2e8120223c15e415dbfee72f69683637e7d81331c58127b0a9358",
    "run-mobile-all_nodes_each_round-s2": "951e203477cabedaf40957f4ee0f6124467a843bf198090db784748611f84311",
    "run-mobile-random_sources-s1": "b8e6a5d4a87aa96a70d9f01b915325d097a720cc133c5c92fdfeadce5a612e54",
    "run-mobile-random_sources-s2": "3cd7dbbc07fe0abb7475b3002daf8e366f80fd565ce081c7d1cc448d3f24f0ca",
    "matrix": "e1bee7cc0a77d5bae732752193d02987bac63020ec1dc010b595a4ef25dd8382",
    "tour": "e1db8965348f808998d1f881091e1f59df47c35b608da16ff5e5f598e6105472",
}

REPORT_DIGESTS = {
    "run-static-all_nodes_each_round-s1": "a7b14aec187ee2eab68c6e6abf15165fd749fb7aff65e5b6f95204a3ed39f0a4",
    "run-static-all_nodes_each_round-s2": "e3a701b17ecab8212f1ad66236db6117a1c3c2124206f3f56cc404a88c9cfaba",
    "run-static-random_sources-s1": "05c35bf718e05c14ba74c99b15aba85483b04b3891d692a4e698e8ae1a9bb6a9",
    "run-static-random_sources-s2": "a9d4bf1c101bc19fd47aeb7e976a69ceae0c2574e1e8a6528d1d037e465f7c7c",
    "run-mobile-all_nodes_each_round-s1": "34a7f5a46fe11d2161bf062fb42c86a7848c7f1938902e790c67e66fcf653f3e",
    "run-mobile-all_nodes_each_round-s2": "03d933982dc6ca84907c9ca33604919b07f792954e7c198967b593bc26da0059",
    "run-mobile-random_sources-s1": "df33fdde099ceef07e374741dc9ce92213511ccebf0ff38f1a17fbb765d87940",
    "run-mobile-random_sources-s2": "4d11ea75fee20be2ccf36729c775df0770aca79e60e917f1274058ad1f96988f",
}


@pytest.fixture(autouse=True)
def single_worker(monkeypatch):
    monkeypatch.setenv("SIMOCO_THREADS", "1")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli_output(argv) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        assert main(argv + ["-o", str(out)]) == 0
        return out.read_bytes()


def run_report(argv):
    """The report of the scenario a `run` case simulates."""
    flags = dict(zip(argv[1::2], argv[2::2]))
    sources = flags.get("--sources")
    config = ScenarioConfig(
        mode=flags["--mode"], n=int(flags["--nodes"]), seed=int(flags["--seed"]),
        comm_range=float(flags["--range"]), initial_energy=float(flags["--energy"]),
        max_rounds=int(flags["--rounds"]),
        sources_per_round=int(sources) if sources is not None else None,
    )
    return compute_report(run_scenario(config))


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_digest(name):
    assert _sha(cli_output(CASES[name])) == OUTPUT_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(n for n in CASES if n.startswith("run-")))
def test_report_from_export_digest(name):
    assert _sha(repr(run_report(CASES[name])).encode()) == REPORT_DIGESTS[name]
