"""Benchmark of the shiftwalk CLI, end to end and per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: the package is imported from ``src/``,
and nothing is installed.  Passes over the workload's ops (workloads.py)
run one after another, each in a fresh worker process (worker.py), for
about S seconds, all on one CPU; a calibration kernel timed between passes
scales the reported times to one host speed.  The last line of output is
the result and the line before it the details.  README.md describes the
workloads, metrics and checks, and how noisy the metrics are.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 3
TIME_LIMIT_S = 170.0
# Import timings taken before the first pass, on top of one per pass.
SETUP_READINGS = 4
# Calibrate after each pass for at least this share of the pass's time.
CAL_SHARE = 0.15
# The host's speed drifts by up to 2x over minutes (README.md, Noise).  A
# fixed kernel (calibrate.py), timed before the first pass and after every
# pass, measures it, and the reported times are scaled to the speed at
# which the kernel takes CAL_REF_S, about its time on a quiet stretch of
# the 2-vCPU Xeon VM the benchmark was defined on.
CAL_REF_S = 0.2


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def machine() -> dict:
    info = {"nproc": len(os.sched_getaffinity(0)), "cpu_model": None}
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            info["cpu_model"] = line.split(":", 1)[1].strip()
            break
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        level, kind, size = (_read(f"{base}/{f}") for f in ("level", "type", "size"))
        if level in ("2", "3") and kind == "Unified":
            info[f"l{level}"] = size
    info["exact_oracle_working_set_mib_computed"] = tracing.EXACT_WORKING_SET_MIB
    return info


def time_import(env: dict) -> float:
    code = ("import time; s = time.perf_counter(); import shiftwalk.cli; "
            "print(time.perf_counter() - s)")
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                          capture_output=True, text=True, timeout=TIME_LIMIT_S)
    return float(proc.stdout)


def run_pass(args, env: dict, index: int, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.trace and index % 2 == 1:
        name = f"{args.workload}-seed{args.seed}-pass{index}.json"
        cmd += ["--trace-out", str(ROOT / ".bench_build" / "trace" / name)]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    start = time.monotonic()
    src = ROOT / "src"
    if not (src / "shiftwalk" / "cli.py").is_file():
        print(f"error: no shiftwalk sources under {src}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    # One thread on one CPU: the workers inherit this process's CPU, so the
    # calibration kernel measures the CPU the passes run on.
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = "1"
    host = machine()
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    passes = []
    cal_s = []
    calibrator = subprocess.Popen([sys.executable, str(HERE / "calibrate.py")], cwd=ROOT,
                                  stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def calibrate() -> None:
        calibrator.stdin.write("\n")
        calibrator.stdin.flush()
        cal_s.append(float(calibrator.stdout.readline()))

    try:
        time_import(env)  # compiles the bytecode, so no reading pays for it
        import_s = [time_import(env) for _ in range(SETUP_READINGS)]
        calibrate()
        while True:
            pass_start = time.monotonic()
            timeout = TIME_LIMIT_S - (pass_start - start)
            passes.append(run_pass(args, env, len(passes), timeout))
            import_s.append(passes[-1]["import_s"])
            cal_start = time.monotonic()
            calibrate()
            while time.monotonic() - cal_start < CAL_SHARE * (cal_start - pass_start):
                calibrate()
            last = time.monotonic() - pass_start
            if (len(passes) >= MIN_PASSES
                    and time.monotonic() - start + last > args.seconds):
                break
    except (subprocess.SubprocessError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        calibrator.kill()
        calibrator.wait()

    untraced = [p for p in passes if "layers" not in p]
    traced = [p for p in passes if "layers" in p]
    attempted = failed = 0
    first_digest: dict[str, str] = {}
    problems = []
    for index, p in enumerate(passes):
        for op in p["ops"]:
            attempted += 1
            op_problems = list(op["problems"])
            if first_digest.setdefault(op["name"], op["digest"]) != op["digest"]:
                op_problems.append("output differs from the first pass")
            if op_problems:
                failed += 1
                problems.append(f"pass {index} {op['name']}: {op_problems}")
    selftest_ok = all(
        p["self_test"]["rejected"] == p["self_test"]["corrupted"] == len(p["ops"])
        for p in passes
    )
    speed = CAL_REF_S / statistics.fmean(cal_s)
    raw_wall_s = statistics.fmean(p["wall_s"] for p in untraced)
    wall_s = raw_wall_s * speed
    if args.trace:
        layers = {k: statistics.fmean(p["layers"][k] for p in traced)
                  for k in traced[0]["layers"]}
        layers["trace.overhead_s"] = statistics.fmean(p["wall_s"] for p in traced) - raw_wall_s
        metrics = {k: {"value": layers[k], "unit": u}
                   for k, u in tracing.metric_units().items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(import_s) * speed, "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mib": {"value": max(p["peak_rss_mib"] for p in untraced), "unit": "MiB"},
        }
    op_seconds: dict[str, list[float]] = {}
    for p in untraced:
        for op in p["ops"]:
            op_seconds.setdefault(op["name"], []).append(op["seconds"])
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "raw_wall_s": raw_wall_s,
        "calibration_s": cal_s,
        "passes": [{k: v for k, v in p.items() if k not in ("ops", "layers", "versions")}
                   | {"traced": "layers" in p} for p in passes],
        "op_seconds": op_seconds,
        "rates": workloads.rates(args.workload, op_seconds),
        "fail_share": failed / attempted,
        "problems": problems[:20],
        "self_test_ok": selftest_ok,
        "versions": passes[0]["versions"],
        "machine": host,
    }
    if args.trace:
        detail["trace_attribution_gap_s"] = tracing.attribution_gap(layers)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0 and selftest_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
