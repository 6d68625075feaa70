"""One pass over a workload's ops, in a fresh process; prints one JSON line.

Started by run.py once per pass; run directly only to debug:

    PYTHONPATH=src python3 perfbench/worker.py --workload exact-n20 --seed 1

Each pass gets its own interpreter because every CLI call does: the import,
the allocator's state and the first-call costs of the pass are what a user
of the CLI pays.  The ops run one at a time through ``shiftwalk.cli.main``
with stdout captured, then every output is checked, and each check is shown
to reject a corrupted copy of the output.
"""
from __future__ import annotations

import time

_start = time.perf_counter()
import shiftwalk.cli  # noqa: E402  (timed: the set-up every CLI call pays)

IMPORT_S = time.perf_counter() - _start

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

DIGESTS = Path(__file__).resolve().with_name("digests.json")


@dataclass(frozen=True)
class Result:
    seconds: float
    code: object
    output: str
    error: str | None = None


def run_op(op: workloads.Op) -> Result:
    """One in-process CLI call, timed, with its stdout captured."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = shiftwalk.cli.main(list(op.argv))
    except SystemExit as exc:
        code = exc.code
    except Exception:
        code, error = None, traceback.format_exc()
    seconds = time.perf_counter() - start
    return Result(seconds, code, out.getvalue(), error)


def problems_of(op: workloads.Op, result: Result, reference: str | None) -> list[str]:
    """Why an op failed: a traceback, an exit code other than 0, a broken
    invariant, or an output that differs from its reference digest."""
    if result.error is not None:
        return ["traceback: " + result.error.strip().splitlines()[-1]]
    if result.code != 0:
        return [f"exit code {result.code}"]
    try:
        problems = op.check(result.output)
    except Exception as exc:  # a malformed output is a failed op, not a crash
        problems = [f"unreadable output: {exc!r}"]
    if reference is not None and op.digest(result.output) != reference:
        problems.append("sha256 differs from the reference recorded for this seed")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace-out", type=Path, default=None,
                        help="trace this pass and write its spans here")
    args = parser.parse_args()

    ops = workloads.WORKLOADS[args.workload](args.seed)
    references = json.loads(DIGESTS.read_text()).get(args.workload, {})
    references = references.get(str(args.seed), {})
    tracer = tracing.Tracer() if args.trace_out else None
    if tracer:
        tracer.install()
    results = [run_op(op) for op in ops]

    report = {
        "import_s": IMPORT_S,
        "wall_s": sum(r.seconds for r in results),
        "ops": [
            {"name": op.name, "seconds": r.seconds, "digest": op.digest(r.output),
             "problems": problems_of(op, r, references.get(op.name))}
            for op, r in zip(ops, results)
        ],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    # Self-test: with no reference digest, only the invariant checks can
    # reject the corrupted outputs, and each must.
    corrupted = [problems_of(op, Result(r.seconds, r.code, op.corrupt(r.output)), None)
                 for op, r in zip(ops, results) if r.error is None]
    report["self_test"] = {"corrupted": len(corrupted),
                           "rejected": sum(1 for p in corrupted if p)}
    if tracer:
        report["layers"] = tracer.layer_metrics()
        tracer.write(args.trace_out)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
