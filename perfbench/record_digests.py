"""Record the output digests that perfbench/run.py checks cells against.

    python3 perfbench/record_digests.py --seeds 0-10 [--workload lifetime ...]

For each benchmark seed in the range, runs one untraced pass of each named
workload (all of them by default) on the scenario seeds run.py derives, and
writes every cell's SHA-256 digest into perfbench/digests.json. Re-record
only for an intended change of simoco's outputs, and say so where the change
is described. A cell that raised or broke energy conservation is refused.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import HERE, MAX_REL_ERR, SRC, BenchError, run_part
from workloads import WORKLOADS

DIGESTS = HERE / "digests.json"


def cell_order(key: str) -> tuple[int, str]:
    seed, mode = key.split(":")
    return int(seed), mode


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="benchmark seed range FIRST-LAST")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args()
    first, last = (int(s) for s in args.seeds.split("-"))
    if not (SRC / "simoco" / "__init__.py").is_file():
        print(f"record_digests.py: no simoco sources under {SRC}", file=sys.stderr)
        return 2

    digests = json.loads(DIGESTS.read_text())
    for name in args.workload or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        recorded = digests.setdefault(name, {})
        for seed in range(first, last + 1):
            try:
                cells = run_part(name, workload.scenario_seeds(seed), "pass")["cells"]
            except BenchError as exc:
                print(f"record_digests.py: {exc}", file=sys.stderr)
                return 1
            for key, cell in cells.items():
                if cell["error"] or cell["rel_err"] is None or not cell["rel_err"] <= MAX_REL_ERR:
                    print(f"record_digests.py: {name} {key} failed: {cell}", file=sys.stderr)
                    return 1
                if recorded.get(key, cell["digest"]) != cell["digest"]:
                    print(f"{name} {key}: digest changed")
                recorded[key] = cell["digest"]
            print(f"{name} seed {seed}: {len(cells)} cells", flush=True)
        digests[name] = dict(sorted(recorded.items(), key=lambda kv: cell_order(kv[0])))
        ordered = {key: digests[key] for key in sorted(digests)}
        DIGESTS.write_text(json.dumps(ordered, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
