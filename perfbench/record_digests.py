"""Record the reference sha256 of every op's output for a range of seeds.

    PYTHONPATH=src python3 perfbench/record_digests.py --seeds 0..31

Each op runs once; an output that fails its invariant checks is refused.
The digests are written to digests.json beside this file, and a benchmark
run whose seed is listed there compares every output with them.  Re-record
only in a change that means to alter the CLI's output, and say so.
"""
from __future__ import annotations

import argparse
import json
import sys

import workloads
from worker import DIGESTS, problems_of, run_op


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", required=True, help="range such as 0..31")
    args = parser.parse_args()
    lo, _, hi = args.seeds.partition("..")
    seeds = range(int(lo), int(hi or lo) + 1)

    digests = json.loads(DIGESTS.read_text())
    for name in sorted(workloads.WORKLOADS):
        for seed in seeds:
            recorded = {}
            for op in workloads.WORKLOADS[name](seed):
                result = run_op(op)
                problems = problems_of(op, result, reference=None)
                if problems:
                    print(f"{name} seed {seed} {op.name}: {problems}", file=sys.stderr)
                    return 1
                recorded[op.name] = op.digest(result.output)
            digests.setdefault(name, {})[str(seed)] = recorded
            print(f"{name} seed {seed}: {len(recorded)} ops", flush=True)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
