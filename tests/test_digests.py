"""The benchmark's outputs, pinned in the tests: every op of every workload
in perfbench/workloads.py, run for seed 0 through the CLI in process,
passes its own check and hashes to the digest in perfbench/digests.json,
so output drift fails here as well as in a benchmark run."""
import contextlib
import io
import json
import sys
import types
from pathlib import Path

import pytest

from shiftwalk.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_workloads() -> types.ModuleType:
    """perfbench/workloads.py, compiled from its source: nothing is added to
    sys.path and no bytecode is written beside it."""
    path = PERFBENCH / "workloads.py"
    module = types.ModuleType("perfbench_workloads")
    module.__file__ = str(path)
    sys.modules[module.__name__] = module  # dataclasses look the module up
    try:
        exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


WORKLOADS = load_workloads().WORKLOADS
DIGESTS = json.loads((PERFBENCH / "digests.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_0_matches_the_recorded_digests(workload):
    ops = WORKLOADS[workload](0)
    want = DIGESTS[workload]["0"]
    assert sorted(op.name for op in ops) == sorted(want)
    for op in ops:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(list(op.argv)) == 0, op.name
        assert op.check(out.getvalue()) == [], op.name
        assert op.digest(out.getvalue()) == want[op.name], op.name
