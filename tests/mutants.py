"""Mutation check for the fast oracles: the golden digests, the reference
engine and the engine invariants must each fail on every fault below.

    python tests/mutants.py

Each fault is applied to a fresh copy of `src/`, and the three oracle
modules run against that copy. The unmutated copy runs first and must pass.
Prints killed or survived per fault and exits 1 if any fault survives.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ORACLES = ["test_golden.py", "test_reference.py", "test_invariants.py"]

# (fault, file under src/simoco, text that occurs once, its replacement)
FAULTS = [
    ("reversed id tie-break in min_hop_route", "routing.py",
     "if energy > best_energy:", "if energy >= best_energy:"),
    ("dropped pending death", "engine.py",
     "pending_deaths.update(dict.fromkeys(underpowered, state))", "pass"),
    ("SinkField cache kept across a death", "engine.py",
     "self.dist_fields.clear()", "pass"),
    ("death threshold <= in place of <", "routing.py",
     "if node.energy < threshold:", "if node.energy <= threshold:"),
    ("drop that keeps serving its source", "engine.py",
     "break  # dropped", "continue  # dropped"),
    ("underpowered node charged", "routing.py",
     "if underpowered:", "if underpowered and False:"),
    ("one-hop death threshold <= in place of <", "routing.py",
     "if energy < threshold:", "if energy <= threshold:"),
    ("one-hop underpowered source charged", "routing.py",
     "if energy < cost:", "if energy < cost and False:"),
    ("mobile member served at a non-covering position", "engine.py",
     "math.dist(pos, cycle[j])) <= r]", "math.dist(pos, cycle[j])) > r]"),
    ("static sink given its mobile tour", "engine.py",
     'elif config.mode == "mobile":', 'elif config.mode != "mobile":'),
    ("idle sink off the quadrant centre", "engine.py",
     "(b.x_min + b.x_max) / 2.0", "b.x_min"),
    ("delivery energy packed as float32", "engine.py",
     'struct.Struct("<qqd?B")', 'struct.Struct("<qqf?B")'),
    ("_fold reads a record's energy and hop_count swapped", "metrics.py",
     "for _, hop_count, cost, ok, count in", "for _, cost, hop_count, ok, count in"),
    ("export reads a record's source and hop_count swapped", "engine.py",
     "s, h, e, ok, _ = run", "h, s, e, ok, _ = run"),
    ("_fold ignores the delivered flag", "metrics.py",
     "            if ok:", "            if True:"),
    ("delivered flag exported as 0 and 1", "engine.py",
     "{'true' if ok else 'false'}", "{ok}"),
    ("export reuses a record's text on its source alone", "engine.py",
     "if hit is None or hit[0] != run:", "if hit is None:"),
    ("sink BFS stops before labelling its last target", "routing.py",
     "while queue and pending:", "while queue and len(pending) > 1:"),
    ("served members pruned to the one-hop ring", "engine.py",
     "if m in df.hops)", "if m in df.direct)"),
    ("quiet count ignores the served members", "engine.py",
     "and not state.assigned_members[pos_idx]", ""),
    ("serving loop drops its reachability guard", "engine.py",
     "while sent[source] < generated_now and source in dist.hops:",
     "while sent[source] < generated_now:"),
    ("a run expands to one record too few", "engine.py",
     "repeat(run[:4], run[4])", "repeat(run[:4], run[4] - 1)"),
    ("_fold adds a run's energy as cost * count", "metrics.py",
     "for _ in repeat(None, count):  # in order: cost * count rounds differently\n"
     "                        energy += cost",
     "energy += cost * count"),
    ("a drop merged into the delivered run before it", "engine.py",
     "if not delivered and count > 1:", "if False:"),
    ("a death leaves its node flagged alive", "engine.py",
     "self.graph.field.nodes[node_id].alive = False", "pass"),
    ("a partition that wrote records counted quiet", "engine.py",
     "quiet = len(runs) == first_run and", "quiet = True and"),
    ("multi-hop threshold death not reported", "routing.py",
     "died.append(node_id)", "pass"),
    ("grid query skips a neighbour cell", "core.py",
     "for dx in (-1, 0, 1) for dy", "for dx in (0, 1) for dy"),
    ("full-traffic backlog off by one round", "engine.py",
     "generated_now = round_index if full", "generated_now = round_index - 1 if full"),
    ("a round's deaths not subtracted from the alive count", "engine.py",
     "alive -= len(deaths)", "pass"),
]


def run_oracles(src: Path, workdir: Path) -> subprocess.CompletedProcess:
    """Run the oracles with `src` first on the import path; the working
    directory keeps hypothesis's example database out of the checkout."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               "--hypothesis-seed=0", *(str(ROOT / "tests" / name) for name in ORACLES)]
    return subprocess.run(command, cwd=workdir, env=env, capture_output=True, text=True)


def mutant(tmp: Path, fault) -> Path:
    """A fresh copy of src/ with `fault` applied (None: unmutated)."""
    src = tmp / "src"
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    if fault is not None:
        _, name, old, new = fault
        path = src / "simoco" / name
        text = path.read_text()
        if text.count(old) != 1:
            raise SystemExit(f"{name}: {old!r} occurs {text.count(old)} times, not once")
        path.write_text(text.replace(old, new))
    return src


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        clean = run_oracles(mutant(tmp, None), tmp)
        if clean.returncode != 0:
            print(clean.stdout + clean.stderr)
            print("the oracles fail on the unmutated source; no fault can be judged")
            return 1
        survived = 0
        for fault in FAULTS:
            killed = run_oracles(mutant(tmp, fault), tmp).returncode != 0
            survived += not killed
            print(f"{'killed' if killed else 'SURVIVED'}: {fault[0]}", flush=True)
    print(f"{len(FAULTS) - survived} of {len(FAULTS)} faults killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
