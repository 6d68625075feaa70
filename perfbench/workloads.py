"""The benchmark's workloads: which CLI calls each one makes, and how each
call's output is checked.

Every workload builds its ops from the workload seed alone and passes
``--seed`` to the CLI explicitly, so the same seed gives the same inputs and,
because every random stream is keyed by (seed, index), the same output bytes.

Each op carries two checks:

* ``check`` tests invariants that hold for any seed (monotone exact TV,
  estimates inside [0, 1], solve/replay round trips, a passing report);
* ``digest`` hashes the output so it can be compared with a reference
  recorded for the seeds in ``digests.json`` and across passes of a run.

``corrupt`` damages an output in a way ``check`` alone must catch; the
worker's self-test feeds every op's corrupted output through the same
accounting that produces ``failed``.

The package is imported only when ops are built, so run.py can read the
workload table without importing it.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import random
import statistics
from dataclasses import dataclass
from typing import Callable

EXACT_N = 20
EXACT_T_MAX = EXACT_N + 1
MC_N = 1024
MC_T = (843, 1025)
MC_SAMPLES = 5_000
SAMPLE_N = 64
SAMPLE_COUNT = 10_000
SAMPLE_ROUND_TRIPS = 16
SOLVE_N = 2048
SOLVES = 2
VERIFY_TRIALS = 20_000
VERIFY_SAMPLES = 20_000

TV_SLACK = 1e-12

Check = Callable[[str], "list[str]"]


@dataclass(frozen=True)
class Op:
    """One CLI call of a workload."""

    name: str
    argv: tuple[str, ...]
    check: Check
    corrupt: Callable[[str], str]
    digest_view: Callable[[str], bytes] = str.encode

    def digest(self, output: str) -> str:
        return hashlib.sha256(self.digest_view(output)).hexdigest()


# ------------------------------------------------------------------ profile

def _profile_rows(output: str) -> list[dict]:
    lines = [ln for ln in output.splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def _float(text: str) -> float | None:
    return float(text) if text else None


def _check_exact_profile(output: str) -> list[str]:
    rows = _profile_rows(output)
    ts = [int(r["t"]) for r in rows]
    if ts != list(range(EXACT_T_MAX + 1)):
        return [f"rows cover t={ts[:3]}..., expected 0..{EXACT_T_MAX}"]
    tv = [_float(r["tv_exact"]) for r in rows]
    if any(v is None or not 0.0 <= v <= 1.0 for v in tv):
        return ["tv_exact missing or outside [0, 1]"]
    problems = [
        f"tv_exact rises from t={t} to t={t + 1}"
        for t in range(EXACT_T_MAX)
        if tv[t + 1] > tv[t] + TV_SLACK
    ]
    bound = _float(rows[EXACT_T_MAX]["tv_upper"])
    if bound is None:
        problems.append(f"no spectral bound at t={EXACT_T_MAX}")
    elif tv[EXACT_T_MAX] > bound + TV_SLACK:
        problems.append(f"tv_exact {tv[EXACT_T_MAX]} above the spectral bound {bound}")
    return problems


def _check_mc_profile(output: str) -> list[str]:
    rows = _profile_rows(output)
    lo, hi = MC_T
    ts = [int(r["t"]) for r in rows]
    if ts != list(range(lo, hi + 1)):
        return [f"rows cover t={ts[:3]}..., expected {lo}..{hi}"]
    problems = []
    for r in rows:
        tv, se = _float(r["tv_lower_emp"]), _float(r["tv_lower_emp_se"])
        if tv is None or not 0.0 <= tv <= 1.0:
            problems.append(f"tv_lower_emp {r['tv_lower_emp']!r} at t={r['t']}")
        if se is None or not (math.isfinite(se) and se >= 0.0):
            problems.append(f"tv_lower_emp_se {r['tv_lower_emp_se']!r} at t={r['t']}")
    return problems


def _corrupt_last_row(column: str, value: str) -> Callable[[str], str]:
    def corrupt(output: str) -> str:
        lines = output.rstrip("\n").split("\n")
        columns = next(ln for ln in lines if not ln.startswith("#")).split(",")
        cells = lines[-1].split(",")
        cells[columns.index(column)] = value
        return "\n".join(lines[:-1] + [",".join(cells)]) + "\n"

    return corrupt


# ------------------------------------------------------------ sample, solve

def _sample_round_trip(seed: int) -> Check:
    """Sample i is the q2 walk from 0 driven by the first n draws of stream
    (seed, i): solving for its driving bits must give those draws, and
    replaying them must reach the sample."""
    from shiftwalk import chains, exact_sampler, rng
    from shiftwalk.gf2 import BitVector

    n, m = SAMPLE_N, SAMPLE_N // 2
    x0 = BitVector.zeros(n)
    picks = [k * SAMPLE_COUNT // SAMPLE_ROUND_TRIPS for k in range(SAMPLE_ROUND_TRIPS)]

    def check(output: str) -> list[str]:
        lines = output.splitlines()
        if len(lines) != SAMPLE_COUNT:
            return [f"{len(lines)} samples, expected {SAMPLE_COUNT}"]
        if any(len(ln) != n or ln.strip("01") for ln in lines):
            return [f"a sample is not a {n}-bit string"]
        problems = []
        for i in picks:
            z = BitVector.from_string(lines[i])
            bits = exact_sampler.solve_driving(x0, z).bits
            drawn = tuple(int(b) for b in rng.stream(seed, i).integers(0, 2, size=n))
            end = chains.simulate(chains.q2(n), x0, chains.DrivingSequence((m,) * n, bits))[-1]
            if bits != drawn or end != z:
                problems.append(f"sample {i} is not the walk driven by stream ({seed}, {i})")
        return problems

    return check


def _flip_char(text: str, pos: int) -> str:
    return text[:pos] + ("1" if text[pos] == "0" else "0") + text[pos + 1 :]


def _solve_replay(x: str, z: str) -> Check:
    from shiftwalk import chains
    from shiftwalk.gf2 import BitVector

    def check(output: str) -> list[str]:
        text = output.strip()
        if len(text) != SOLVE_N or text.strip("01"):
            return [f"solve output is not a {SOLVE_N}-bit string"]
        driving = chains.DrivingSequence(
            (SOLVE_N // 2,) * SOLVE_N, tuple(int(c) for c in text)
        )
        end = chains.simulate(chains.q2(SOLVE_N), BitVector.from_string(x), driving)[-1]
        return [] if end.to_string() == z else ["replayed driving misses the target"]

    return check


# ------------------------------------------------------------------ verify

def _check_report(output: str) -> list[str]:
    report = json.loads(output)
    if report.get("passed") is not True:
        return ["report says passed != true"]
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    return [f"check failed: {name}" for name in failed]


def _report_view(output: str) -> bytes:
    """The report minus what varies between identical runs or builds:
    wall-clock readings and version strings."""

    def strip(value):
        if isinstance(value, dict):
            return {k: strip(v) for k, v in value.items() if k not in ("elapsed_s", "versions")}
        if isinstance(value, list):
            return [strip(v) for v in value]
        return value

    return json.dumps(strip(json.loads(output)), sort_keys=True).encode()


def _corrupt_report(output: str) -> str:
    report = json.loads(output)
    report["passed"] = False
    return json.dumps(report)


# --------------------------------------------------------------- workloads

def _random_bits(gen: random.Random, n: int) -> str:
    return format(gen.getrandbits(n), f"0{n}b")


def _exact(seed: int) -> list[Op]:
    argv = ("profile", "--chain", "q1", "--n", str(EXACT_N),
            "--t", f"0..{EXACT_T_MAX}", "--seed", str(seed), "--format", "csv")
    return [Op("profile", argv, _check_exact_profile, _corrupt_last_row("tv_exact", "0.5"))]


def _mc(seed: int) -> list[Op]:
    argv = ("profile", "--chain", "q1", "--n", str(MC_N), "--t", f"{MC_T[0]}..{MC_T[1]}",
            "--samples", str(MC_SAMPLES), "--seed", str(seed), "--format", "csv")
    return [Op("profile", argv, _check_mc_profile, _corrupt_last_row("tv_lower_emp", "1.5"))]


def _sampler(seed: int) -> list[Op]:
    ops = [Op(
        "sample",
        ("sample", "--n", str(SAMPLE_N), "--count", str(SAMPLE_COUNT), "--seed", str(seed)),
        _sample_round_trip(seed),
        lambda out: _flip_char(out, 0),
    )]
    gen = random.Random(seed)
    for k in range(SOLVES):
        x, z = _random_bits(gen, SOLVE_N), _random_bits(gen, SOLVE_N)
        ops.append(Op(
            f"solve{k}", ("solve", "--from", x, "--to", z), _solve_replay(x, z),
            lambda out: _flip_char(out, 0),
        ))
    return ops


def _verify(seed: int) -> list[Op]:
    argv = ("verify", "all", "--seed", str(seed), "--format", "json",
            "--trials", str(VERIFY_TRIALS), "--samples", str(VERIFY_SAMPLES))
    return [Op("verify", argv, _check_report, _corrupt_report, _report_view)]


WORKLOADS: dict[str, Callable[[int], list[Op]]] = {
    "exact-n20": _exact,
    "mc-n1024": _mc,
    "sampler-n64": _sampler,
    "verify-all": _verify,
}


def rates(workload: str, op_seconds: dict[str, list[float]]) -> dict:
    """The workload-specific end-to-end rates, from median op times."""

    def median(name: str) -> float:
        return statistics.median(op_seconds[name])

    if workload == "exact-n20":
        return {"exact_state_steps_per_s": (1 << EXACT_N) * EXACT_T_MAX / median("profile")}
    if workload == "mc-n1024":
        return {"mc_trajectory_steps_per_s": MC_SAMPLES * MC_T[1] / median("profile")}
    if workload == "sampler-n64":
        solves = [s for k in range(SOLVES) for s in op_seconds[f"solve{k}"]]
        return {
            "samples_per_s": SAMPLE_COUNT / median("sample"),
            "solve_s": statistics.median(solves),
            "solve_count": len(solves),
        }
    return {}
