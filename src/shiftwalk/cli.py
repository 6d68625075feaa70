"""Command-line front end.

Subcommands: verify (run a named check suite), profile (distance-to-uniform
columns over a time range), sample (exact uniform draws), solve (recover
the driving bits reaching a target), simulate (dump one trajectory).
Every command is a pure function of its arguments and seed; when no seed
is given one is drawn from system entropy and printed to stderr.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import secrets
import sys
import time
from collections.abc import Iterator
from datetime import datetime, timezone
from typing import ContextManager, TextIO

import numpy as np

from . import __version__, distribution, spectral, suites, weight_stats
from .chains import ChainKind, _replay, random_driving
from .exact_sampler import _sample_blocks, solve_driving
from .gf2 import BitVector

SCHEMA_VERSION = 1


def _versions() -> dict:
    return {"shiftwalk": __version__, "numpy": np.__version__}


def _resolve_seed(seed: int | None) -> int:
    """The given seed, or one drawn and printed to stderr.  Streams are
    keyed by the seed mod 2**64, so a seed outside 0..2**64-1 would name
    another seed's streams; it is rejected."""
    if seed is None:
        seed = secrets.randbits(63)
        print(f"seed: {seed}", file=sys.stderr)
    elif not 0 <= seed < 2**64:
        raise ValueError(f"--seed must be in 0..2**64-1, got {seed}")
    return seed


def _open_output(out: str | None) -> ContextManager[TextIO]:
    if out is None:
        return contextlib.nullcontext(sys.stdout)
    return open(out, "w", encoding="utf-8")


def _strict_json(report: dict) -> str:
    """The report as strict JSON: non-finite floats become null."""

    def finite(value):
        if isinstance(value, dict):
            return {k: finite(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [finite(v) for v in value]
        if isinstance(value, (float, np.floating)) and not math.isfinite(value):
            return None
        if isinstance(value, BitVector):
            return value.to_string()
        return value

    return json.dumps(finite(report), indent=2, default=float, allow_nan=False)


# Coordinates of a state rendered at a time by ``_write_json``; a multiple of 8.
_STATE_CHUNK = 1 << 16


def _write_bits(fh: TextIO, packed: np.ndarray, n: int) -> None:
    """Write bits 0..n-1 of the little-endian bytes ``packed`` to ``fh`` as
    0s and 1s, bit 0 first, _STATE_CHUNK bits at a time."""
    for lo in range(0, n, _STATE_CHUNK):
        bits = np.unpackbits(packed[lo // 8 : (lo + _STATE_CHUNK) // 8], bitorder="little")
        fh.write((bits[: n - lo] + np.uint8(ord("0"))).tobytes().decode("ascii"))


def _write_json(report: dict, key: str, items: Iterator[dict], out: str | None) -> None:
    """Write ``_strict_json({**report, key: [*items]})`` to ``out`` (to stdout,
    with a final newline, if None), rendering the items 1000 at a time, each
    chunk indented one level deeper than on its own, and each BitVector in
    ``report`` from its packed bytes by ``_write_bits``."""
    # Packed before ``out`` is opened, so a state too large to hold fails first.
    states = {k: (v.n, np.frombuffer(v.word.to_bytes((v.n + 7) // 8, "little"), np.uint8))
              for k, v in report.items() if isinstance(v, BitVector)}
    head = _strict_json({**report, **dict.fromkeys(states, ""), key: []})
    with _open_output(out) as fh:
        for name, (n, packed) in states.items():
            before, head = head.split(f'"{name}": ""', 1)
            fh.write(f'{before}"{name}": "')
            _write_bits(fh, packed, n)
            head = '"' + head
        fh.write(head[: -len("]\n}")])
        sep = "\n"
        while chunk := list(itertools.islice(items, 1000)):
            fh.write(sep + "  " + _strict_json(chunk)[2:-2].replace("\n", "\n  "))
            sep = ",\n"
        fh.write(("\n  ]" if sep == ",\n" else "]") + "\n}")
        if out is None:
            fh.write("\n")


def _check_printable(n: int) -> None:
    """A state prints as n characters, and a str holds at most sys.maxsize."""
    if n > sys.maxsize:
        raise ValueError(f"--n {n} is past {sys.maxsize}, the longest state that can be printed")


def _parse_state(value: str | None, n: int) -> BitVector:
    if value is None:
        return BitVector.zeros(n)
    state = BitVector.from_string(value)
    if state.n != n:
        raise ValueError(f"state {value!r} has length {state.n}, expected {n}")
    return state


# ``profile`` and ``simulate`` times lie below this bound, which also caps
# the rows: the exact sweep, the Monte Carlo buffers and the driving of the
# simulated trajectory run to the last time, so a far one would hang or
# exhaust memory.
MAX_PROFILE_TIMES = 10**6


def _parse_t_range(value: str) -> range:
    parts = value.split("..") if ".." in value else [value, value]
    try:
        lo, hi = map(int, parts)
    except ValueError:
        raise ValueError(f"--t expects a time T or a range A..B of integers, "
                         f"got {value!r}") from None
    if hi < lo:
        raise ValueError(f"empty time range {value!r}")
    if lo < 0:
        raise ValueError(f"times must be >= 0, got {value!r}")
    if hi >= MAX_PROFILE_TIMES:
        raise ValueError(
            f"time {hi} is past {MAX_PROFILE_TIMES - 1}, the last time a profile reports"
        )
    return range(lo, hi + 1)


# ---------------------------------------------------------------- verify

def _cmd_verify(args: argparse.Namespace) -> int:
    if args.suite == "all" and args.n_max is not None:
        cap = suites.EXACT_SWEEP_N_MAX
        raise ValueError(
            "--n-max is for one suite, not 'all': matrix-order reads it as n <= 512, "
            "term-bounds and fourier 2000, bounded-diff 64, moments and variance "
            f"10 (at most {cap}), q2-exact 16 (at most {cap}), by default"
        )
    for flag, count in (("--trials", args.trials), ("--samples", args.samples)):
        if count is not None and count < 0:
            raise ValueError(f"{flag} must be >= 0, got {count}")
    seed = _resolve_seed(args.seed)
    start = time.perf_counter()
    checks = suites.run_suite(
        args.suite,
        n_max=args.n_max,
        seed=seed,
        trials=args.trials,
        samples=args.samples,
    )
    passed = all(c.passed for c in checks)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "suite": args.suite,
        "seed": seed,
        "versions": _versions(),
        "passed": passed,
        "elapsed_s": round(time.perf_counter() - start, 3),
    }
    if args.format == "json" or args.out:
        entries = ({"name": c.name, "passed": c.passed, "elapsed_s": c.elapsed_s,
                    "observed": c.observed} for c in checks)
        _write_json(report, "checks", entries, args.out)
    if args.format != "json":
        for c in checks:
            tag = "PASS" if c.passed else "FAIL"
            print(f"[{tag}] {c.name}")
            if not c.passed:
                print(f"       observed: {c.observed}")
        print(f"suite {args.suite}: {'all checks passed' if passed else 'FAILED'}")
    return 0 if passed else 1


# --------------------------------------------------------------- profile

_PROFILE_COLUMNS = (
    "t", "tv_exact", "tv_upper", "tv_lower_emp", "tv_lower_emp_se", "chebyshev_lower",
)


def _profile(args: argparse.Namespace) -> tuple[dict, Iterator[dict]]:
    """The report's fields and its rows, each row a dict of its non-empty
    columns.

    Every argument is checked, then the seed resolved, and every column
    computed before this returns; the rows are then built one at a time as
    they are taken.
    """
    if args.samples < 0:
        raise ValueError(f"--samples must be >= 0, got {args.samples}")
    weight_stats.check_window(args.alpha, args.c)
    chain = ChainKind(args.chain, args.n)
    n = args.n
    ts = _parse_t_range(args.t)
    x0 = _parse_state(args.x0, n)
    if args.format == "json":
        _check_printable(n)
    exact = n <= distribution.MAX_EXACT_N
    if exact:
        # 2^n words a step: at most the work of the largest n over t = 0..n+1.
        cap = distribution.MAX_EXACT_N
        if (1 << n) * (ts[-1] + 1) > (1 << cap) * (cap + 2):
            raise ValueError(f"the exact column at n = {n} up to t = {ts[-1]} is past "
                             f"the work of n = {cap} up to t = {cap + 1}; shorten --t")
    # The window overflows a float at a huge n, and the stationary law
    # has a largest n: both fail before the seed is drawn.
    window = None
    if chain.kind == "q1" and n >= 3:
        window = weight_stats.chebyshev_window(n, args.alpha, args.c)
    if args.samples:
        pmf = weight_stats.stationary_weight_pmf(n)
    seed = _resolve_seed(args.seed)

    curve = distribution.exact_tv_curve(chain, x0, ts[-1]) if exact else None
    # Rows report the bound from t = n+1 on; so its sweep over n runs only
    # for n below --t's bound.
    upper = None
    if chain.kind == "q1" and n >= 3 and ts[-1] >= n + 1:
        upper = spectral.fourier_sum(n).tv_bound
    if args.samples:
        counts = weight_stats.weight_counts(chain, x0, ts, args.samples, seed)

    def rows() -> Iterator[dict]:
        for t in ts:
            row = {"t": t}
            if curve is not None:
                row["tv_exact"] = curve[t][1]
            # Valid from t = n+1 on: distance to uniform is nonincreasing.
            if upper is not None and t >= n + 1:
                row["tv_upper"] = upper
            if args.samples:
                row["tv_lower_emp"], row["tv_lower_emp_se"] = weight_stats.histogram_tv(
                    counts[t], pmf
                )
            if window is not None and t == window[0]:
                row["chebyshev_lower"] = window[1]
            yield row

    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "profile",
        "chain": chain.kind,
        "n": n,
        "x0": x0 if args.format == "json" else None,  # CSV never prints it
        "seed": seed,
        "samples": args.samples,
        "alpha": args.alpha,
        "c": args.c,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "versions": _versions(),
    }
    return report, rows()


def _cmd_profile(args: argparse.Namespace) -> int:
    report, rows = _profile(args)
    # The rows are written as they are built, so memory does not grow with
    # the time range.
    if args.format == "json":
        _write_json(report, "rows", rows, args.out)
        return 0
    with _open_output(args.out) as fh:
        fh.write(f"# shiftwalk profile schema_version={report['schema_version']} "
                 f"chain={report['chain']} n={report['n']} seed={report['seed']} "
                 f"samples={report['samples']}\n{','.join(_PROFILE_COLUMNS)}\n")
        for row in rows:
            fh.write(",".join([str(row.get(col, "")) for col in _PROFILE_COLUMNS]) + "\n")
    return 0


# ---------------------------------------------------------------- sample

_HEX_DIGITS = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)


def _sample_text(bits: np.ndarray, hex_out: bool) -> str:
    """The lines of ``sample`` for one (rows, n) block of sample bits:
    coordinate 1 first, or with ``hex_out`` the state's word in hex, most
    significant digit first."""
    rows, n = bits.shape
    if hex_out:
        packed = np.packbits(bits, axis=1, bitorder="little")
        # Digit k of the word, counted from the least significant, is the
        # low (k even) or high (k odd) half of byte k // 2.
        nibbles = np.stack((packed & 15, packed >> 4), axis=2).reshape(rows, -1)
        chars = _HEX_DIGITS[nibbles[:, (n + 3) // 4 - 1 :: -1]]
    else:
        chars = bits + np.uint8(ord("0"))
    text = np.empty((rows, chars.shape[1] + 1), dtype=np.uint8)
    text[:, :-1] = chars
    text[:, -1] = ord("\n")
    return text.tobytes().decode("ascii")


def _cmd_sample(args: argparse.Namespace) -> int:
    _check_printable(args.n)
    if args.count < 0:
        raise ValueError(f"--count must be >= 0, got {args.count}")
    x0 = _parse_state(args.x0, args.n)
    if args.n % 2:
        raise ValueError(f"--n must be even, got {args.n}")
    seed = _resolve_seed(args.seed)
    blocks = _sample_blocks(x0, seed, 0, args.count)
    with _open_output(args.out) as fh:
        # One write per block of draws, so memory does not grow with --count.
        for bits in blocks:
            fh.write(_sample_text(bits, args.hex))
        if args.count == 0:
            fh.write("\n")
    return 0


# ----------------------------------------------------------------- solve

# The bytes 0 and 1 to the ASCII digits: the solved bits, which are the
# ints 0 and 1, as bytes.
_BIT_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _cmd_solve(args: argparse.Namespace) -> int:
    start = BitVector.from_string(args.from_state)
    target = BitVector.from_string(args.to_state)
    driving = solve_driving(start, target)
    print(bytes(driving.bits).translate(_BIT_DIGITS).decode("ascii"))
    return 0


# -------------------------------------------------------------- simulate

def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.t < 0:
        raise ValueError(f"--t must be >= 0, got {args.t}")
    if args.t >= MAX_PROFILE_TIMES:
        raise ValueError(f"--t {args.t} is past {MAX_PROFILE_TIMES - 1}, "
                         "the last time simulate reports")
    _check_printable(args.n)
    chain = ChainKind(args.chain, args.n)
    x0 = _parse_state(args.x0, args.n)
    # Row 0 first: an n too large to print fails before the seed is drawn.
    row0 = f"0,{x0.to_string()},{x0.weight()}\n"
    seed = _resolve_seed(args.seed)
    words = _replay(chain, x0, random_driving(chain, args.t, seed))
    next(words)  # x_0, whose row is formed
    with _open_output(args.out) as fh:
        # One row per step, written as it is stepped: only the driving is held.
        fh.write(f"# shiftwalk simulate schema_version={SCHEMA_VERSION} "
                 f"chain={chain.kind} n={args.n} seed={seed}\nt,state,weight\n{row0}")
        for t, word in enumerate(words, 1):
            x = BitVector(chain.n, word)
            fh.write(f"{t},{x.to_string()},{x.weight()}\n")
    return 0


# ---------------------------------------------------------------- parser

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call of a process and
    shared after it: building it takes about 0.8 ms, and parsing leaves it
    as it was."""
    parser = argparse.ArgumentParser(
        prog="shiftwalk",
        description="Verification lab for the shift-register walk on the hypercube.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", choices=suites.suite_names())
    p.add_argument("--n-max", type=int, default=None,
                   help="largest dimension to sweep (one suite, not 'all')")
    p.add_argument("--trials", type=int, default=None, help="replay count (bounded-diff)")
    p.add_argument("--samples", type=int, default=None, help="trajectory count (variance)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None, help="write the JSON report to a file")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("profile", help="distance-to-uniform profile over time")
    p.add_argument("--chain", choices=("q1", "q2"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", required=True, help="time or range, e.g. 11 or 0..15")
    p.add_argument("--samples", type=int, default=0,
                   help="Monte Carlo trajectories for the empirical lower bound")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--alpha", type=float, default=0.75)
    p.add_argument("--c", type=float, default=None,
                   help="window constant (default: log n)")
    p.add_argument("--x0", default=None, help="start state bitstring (default 0)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_profile)

    p = sub.add_parser("sample", help="exact uniform samples via the n-step walk")
    p.add_argument("--n", type=int, required=True, help="even state length")
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--x0", default=None)
    p.add_argument("--hex", action="store_true", help="emit packed hex, not bits")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("solve", help="driving bits that steer one state to another")
    p.add_argument("--from", dest="from_state", required=True, metavar="BITS")
    p.add_argument("--to", dest="to_state", required=True, metavar="BITS")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("simulate", help="dump one random trajectory as CSV")
    p.add_argument("--chain", choices=("q1", "q2"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--x0", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, OverflowError) as exc:
        # Bad input, a size past what a float or an index can hold, or an
        # unwritable --out: a usage error, not a failed check.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # Sizes the host cannot hold, e.g. many --samples over a long --t.
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
