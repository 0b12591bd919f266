"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload lifetime --seed 1 --seconds 36 --trace 0

Run from the root of a checkout; simoco is imported from its `src/`. Each
pass is a fresh `perfbench/worker.py` process with cells run serially, and
passes repeat, on the same inputs, until `--seconds` is used up, at least
twice so that every output and every count is produced twice.

--trace 0 prints the end-to-end metrics named in BENCHMARK.json: medians over
passes of `wall_s` (import plus the timed workload), `deliveries_per_s`
(delivery records, delivered or dropped, per second of `wall_s`) and
`peak_rss_mb`, and `setup_s`, the median of fresh processes, two before
each pass, that only import simoco and replay deployment, partitioning, CNP
and tours.
--trace 1 runs untraced and traced passes in pairs and prints the per-layer
metrics of the traced passes plus `trace.overhead_s`, the traced minus the
untraced `wall_s`.

Every cell's output bytes are checked against `perfbench/digests.json`;
cells without a recorded digest must repeat byte for byte across passes.
A cell also fails if it raised or if its relative energy-conservation error
exceeds 1e-9. The last line of stdout is one JSON object; `failed` over
`attempted` counts cells and is the workload's error rate.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MAX_REL_ERR = 1e-9
MIN_PASSES = 2
SETUP_PROBES_PER_PASS = 2
WORKER_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def spawn(argv: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    # Imports read cached bytecode, as an installed simoco would.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    try:
        return subprocess.run(
            [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker took over {WORKER_TIMEOUT_S} s") from exc


def run_part(workload: str, seeds: list[int], part: str) -> dict:
    proc = spawn([str(HERE / "worker.py"), "--workload", workload,
                  "--seeds", ",".join(map(str, seeds)), "--part", part])
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Judge:
    """Counts cells and the ones whose output is wrong."""

    def __init__(self, recorded: dict[str, str]):
        self.recorded = recorded
        self.first_seen: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, cells: dict[str, dict]) -> None:
        for key, cell in sorted(cells.items()):
            self.attempted += 1
            problem = self._problem(key, cell)
            if problem:
                self.failures.append(f"{key}: {problem}")

    def _problem(self, key: str, cell: dict) -> str | None:
        if cell["error"]:
            return f"raised {cell['error']}"
        if cell["rel_err"] is None or not cell["rel_err"] <= MAX_REL_ERR:
            return f"energy-conservation error {cell['rel_err']} > {MAX_REL_ERR}"
        if key in self.recorded:
            if cell["digest"] != self.recorded[key]:
                return "output differs from the recorded digest"
        elif cell["digest"] != self.first_seen.setdefault(key, cell["digest"]):
            return "output differs between passes of the same inputs"
        return None


def attempts(p: dict) -> int:
    return sum(cell["attempts"] for cell in p["cells"].values())


def end_to_end(passes: list[dict], setups: list[float]) -> dict[str, float]:
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "deliveries_per_s": statistics.median(attempts(p) / p["wall_s"] for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }


def per_layer(pairs: list[tuple[dict, dict]], units: dict[str, str], problems: list[str]):
    traced = [t for _, t in pairs]
    values = {}
    for name in traced[0]["layers"]:
        samples = [t["layers"][name] for t in traced]
        if units[name] == "s":
            values[name] = statistics.median(samples)
        else:  # counts and ratios of counts must repeat exactly
            if len(set(samples)) > 1:
                problems.append(f"{name} differs between traced passes: {samples}")
            values[name] = samples[0]
    values["trace.overhead_s"] = statistics.median(t["wall_s"] - u["wall_s"] for u, t in pairs)
    for t in traced:
        problems.extend(t["problems"])
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "simoco" / "__init__.py").is_file():
        print(f"run.py: no simoco sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    workload = WORKLOADS[args.workload]
    seeds = workload.scenario_seeds(args.seed)
    recorded = json.loads((HERE / "digests.json").read_text()).get(workload.name, {})
    judge = Judge(recorded)
    problems: list[str] = []

    try:
        # Compile simoco's bytecode before anything is timed.
        warm = spawn(["-c", "import simoco"])
        if warm.returncode != 0:
            raise BenchError(f"cannot import simoco: {warm.stderr.strip()}")
        deadline = monotonic() + args.seconds
        passes, pairs, setups = [], [], []
        last = 0.0
        while len(passes) < MIN_PASSES or monotonic() + last <= deadline:
            began = monotonic()
            if not args.trace:
                setups += [run_part(workload.name, seeds, "setup")["setup_s"]
                           for _ in range(SETUP_PROBES_PER_PASS)]
            passes.append(run_part(workload.name, seeds, "pass"))
            judge.check(passes[-1]["cells"])
            if args.trace:
                pairs.append((passes[-1], run_part(workload.name, seeds, "traced")))
                judge.check(pairs[-1][1]["cells"])
            last = monotonic() - began
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    values = per_layer(pairs, units, problems) if args.trace else end_to_end(passes, setups)
    if set(values) != set(units):
        print(f"run.py: metrics {sorted(set(values) ^ set(units))} do not match "
              f"BENCHMARK.json", file=sys.stderr)
        return 1
    runs = pairs if args.trace else passes
    cells = len(passes[0]["cells"])
    checked = sum(1 for key in passes[0]["cells"] if key in recorded)
    print(f"{workload.name}: seed {args.seed} -> scenario seeds {seeds}; "
          f"{len(runs)} {'traced/untraced pairs' if args.trace else 'passes'}, "
          f"one fresh process per pass, cells serial; nproc {os.cpu_count()}, "
          f"python {platform.python_version()}")
    print(f"outputs: {checked}/{cells} cells against recorded digests, "
          f"{cells - checked} held out (checked for repeat output)")
    for failure in judge.failures + problems:
        print(f"FAIL {failure}")
    if args.trace:
        wall = statistics.median(t["wall_s"] for _, t in pairs)
        for name, value in values.items():
            share = f"  {100 * value / wall:5.1f}% of traced wall" if units[name] == "s" else ""
            print(f"  {name:40s} {value:14.6g} {units[name]}{share}")
    else:
        walls = sorted(p["wall_s"] for p in passes)
        print(f"  wall_s per pass: min {walls[0]:.4f} s, max {walls[-1]:.4f} s")
        for name, value in values.items():
            print(f"  {name:40s} {value:14.6g} {units[name]}")
        print(f"  {'error_rate':40s} {len(judge.failures) / judge.attempted:14.6g} "
              f"({len(judge.failures)} of {judge.attempted} cells)")
    print(json.dumps({
        "correct": not judge.failures and not problems,
        "attempted": judge.attempted,
        "failed": len(judge.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
