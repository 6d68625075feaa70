"""Hamming-weight statistics of the walk: moment formulas, bounded
differences under driving-sequence perturbations, variance bounds, and
distinguishing-statistic lower bounds on the distance to uniform.

Monte Carlo routines run trajectories on independent counter-based streams
(master seed, trajectory index) and merge in fixed order, so results are
reproducible and independent of batching.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import rng
from .chains import (
    ChainKind,
    DrivingSequence,
    _decode_driving,
    _driving_values,
    _replay,
)
from .gf2 import BitVector
from .spectral import _log_binom

__all__ = [
    "ReplayDivergence",
    "VarianceReport",
    "mean_weight_closed_form",
    "mean_weight_recursion",
    "prob_first_coord_one",
    "replay_divergence",
    "variance_bound_check",
    "chebyshev_window",
    "empirical_tv_lower_bound",
    "sample_weights",
    "stationary_weight_pmf",
]


def _check_time(n: int, t: int) -> None:
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if not 0 <= t <= n:
        raise ValueError(f"t must be in 0..{n}, got {t}")


def mean_weight_closed_form(n: int, t: int) -> float:
    """E[weight at time t] from the all-zeros start: ((t-n)/2)(1-1/n)^t + n/2."""
    _check_time(n, t)
    return ((t - n) / 2.0) * (1.0 - 1.0 / n) ** t + n / 2.0


def mean_weight_recursion(n: int, t: int) -> float:
    """Same mean, by iterating the one-step recursion from 0."""
    _check_time(n, t)
    c1 = 1.0 - 1.0 / n
    c2 = (2.0 * n - 1.0) / (2.0 * n)
    mu = 0.0
    c1_pow = 1.0  # c1**s
    for _ in range(t):
        mu = c1 * mu - (c1 / 2.0) * (1.0 - c1_pow) + c2
        c1_pow *= c1
    return mu


def prob_first_coord_one(n: int, t: int) -> float:
    """[1 - (1-1/n)^t] / 2: chance the leading bit is set at time t, from 0.

    Valid while the backward trace of the leading bit stays inside the
    word, i.e. for t <= n - 1; at t = n the traced bit is the appended
    parity of the first step, which is exactly uniform.
    """
    _check_time(n, t)
    return (1.0 - (1.0 - 1.0 / n) ** t) / 2.0


@dataclass(frozen=True)
class ReplayDivergence:
    """How far two replays drift apart: final |weight difference| and the
    largest intermediate Hamming distance."""

    weight_diff: int
    max_hamming: int


def replay_divergence(
    chain: ChainKind,
    x0: BitVector,
    driving_a: DrivingSequence,
    driving_b: DrivingSequence,
) -> ReplayDivergence:
    """Jointly replay two driving sequences of equal length from ``x0``."""
    if len(driving_a) != len(driving_b):
        raise ValueError("driving sequences must have equal length")
    max_d = 0  # the replays start at x_0, so the loop binds a and b
    for a, b in zip(_replay(chain, x0, driving_a), _replay(chain, x0, driving_b)):
        max_d = max(max_d, (a ^ b).bit_count())
    return ReplayDivergence(
        weight_diff=abs(a.bit_count() - b.bit_count()), max_hamming=max_d
    )


def _replay_pairs(
    n: np.ndarray,
    t: np.ndarray,
    start: np.ndarray,
    coords: np.ndarray,
    bits: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """``replay_divergence`` for a block of pairs, advanced together.

    Pair r replays q1(n[r]) for t[r] steps from the start whose coordinate
    c + 1 is start[r, c] for c < n[r], start being a (rows, width >= max n)
    uint8 array of bits.  Rows are sorted by t, longest first, so the pairs
    still running at a step are a prefix.  coords (0-based) and bits are
    (max t, 2, rows) unsigned integer arrays, index 0 and 1 of the middle
    axis driving the two replays.  Returns the pairs' weight differences
    and largest Hamming distances.
    """
    rows, width = start.shape
    words = (width + 63) // 64
    start = start & (np.arange(width) < n[:, None])  # the columns c < n[r]
    packed = np.zeros((rows, 8 * words), dtype=np.uint8)
    packed[:, : (width + 7) // 8] = np.packbits(start, axis=1, bitorder="little")
    x0 = packed.view("<u8").T
    # uint64 word w holds coordinates 64w+1 .. 64w+64, position p at bit
    # p - 64w; a shift by 64 or more, or by a wrapped negative count, gives
    # 0 and so leaves the word alone.
    base = (64 * np.arange(words, dtype=np.uint64))[:, None, None]
    top = n.astype(np.uint64)[None, None, :] - np.uint64(1) - base
    states = np.repeat(x0[:, None, :], 2, axis=1)
    parity = np.bitwise_count(states).sum(axis=0, dtype=np.uint64) & np.uint64(1)
    hamming = np.zeros(rows, dtype=np.int64)
    running = np.searchsorted(-t, -np.arange(len(coords)))  # rows with t > s
    for s, k in enumerate(running):
        x = states[:, :, :k]
        r = bits[s, :, :k]
        x ^= r << (coords[s, :, :k] - base)
        appended = parity[:, :k] ^ r  # the flipped word's parity
        # The new word drops bit 0 and appends the parity, so its parity
        # is the dropped bit.
        np.bitwise_and(x[0], np.uint64(1), out=parity[:, :k])
        carry = x[1:] << np.uint64(63)
        x >>= np.uint64(1)
        x[:-1] |= carry
        x |= appended << top[:, :, :k]
        apart = np.bitwise_count(x[:, 0] ^ x[:, 1]).sum(axis=0, dtype=np.int64)
        np.maximum(hamming[:k], apart, out=hamming[:k])
    weight = np.bitwise_count(states).sum(axis=0, dtype=np.int64)
    return np.abs(weight[0] - weight[1]), hamming


# A Monte Carlo block holds at most _MAX_BLOCK trajectories, and its working
# set, about (n+1) + 3 T bytes a trajectory (uint8 cells and bits, uint16
# q1 coordinates; T the steps of all its horizons), stays under
# _BLOCK_BYTES.  A block still holds at least _MIN_BLOCK trajectories (or
# all of them), since past 8 KiB a trajectory the byte cap alone would
# leave too few to pay for the per-step overhead (blocks of 92 at
# t_max = 30000 ran at half speed); memory then grows with t_max, never
# with the number of samples.  _MAX_BLOCK keeps a block's cells in cache.
# weight_counts by block width (ms, best of 5; 2 shared vCPUs, numpy 2.4):
#
#   width                         1024  2048  3072  4096  6144  8192  16384
#   n = 128, t = 64, 20 000 runs    56    50    48    47    47    47     48
#   n = 128, t = 128, 100 000      380   345   343   329   326   329    346
#
# At n = 1024 over t = 824..1025 (5000 runs) the byte cap binds first, at
# 2046 a block; widths 1024 / 1667 / 2500 / 5000 took 116 / 111 / 105 /
# 106 ms.
_BLOCK_BYTES = 8 << 20
_MIN_BLOCK = 1024
_MAX_BLOCK = 4096


def _weight_blocks(
    chain: ChainKind,
    x0: BitVector,
    horizons: Sequence[Sequence[int]],
    samples: int,
    seed: int,
) -> Iterator[tuple[int, int, np.ndarray]]:
    """The Monte Carlo kernel: steps ``samples`` trajectories in blocks and
    yields ``(j, t, weights)`` for each block, each horizon j and each time
    t in ``horizons[j]``, weights being the block's int64 Hamming weights
    at t in trajectory order.  Blocks come in trajectory order.

    Horizon j steps trajectory i for t_j = max(horizons[j]) steps, driven
    by stream (seed, i) read as a driving of t_j steps
    (``chains._decode_driving``): horizons of different lengths read one
    stream as different drivings.  Each block of streams is drawn once, as
    far as the longest horizon reads, and decoded for every horizon.

    The samples are split into near-equal blocks (see ``_MAX_BLOCK``),
    stepped one after another in buffers allocated once.  Each trajectory
    is held as the n+1 cells (x, parity of x), on which the shift is a
    rotation by one cell (see ``gf2._shift_power``).  The buffer never
    moves: after s steps coordinate u sits in cell (u-1+s) mod (n+1) and
    the parity in cell (n+s) mod (n+1), so a step only toggles those two
    cells when its bit is set.  Cells, bits and coordinates are stored
    cell- or step-major, (rows, trajectories), so a step reads contiguous
    rows.
    """
    chain.check_start(x0)
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    horizons = [sorted(set(int(t) for t in ts)) for ts in horizons]
    if any(ts and ts[0] < 0 for ts in horizons):
        raise ValueError("snapshot times must be >= 0")
    lengths = {j: ts[-1] for j, ts in enumerate(horizons) if ts}
    if not lengths:
        return
    n = chain.n
    m = n + 1
    per_block = min(_MAX_BLOCK, _BLOCK_BYTES // (m + 3 * sum(lengths.values())))
    blocks = -(-samples // max(_MIN_BLOCK, per_block))
    width = -(-samples // blocks)

    coord_type = np.uint16 if n < 1 << 16 else np.int64
    drivings = []  # (j, snapshot times, coordinates or None for q2, bits)
    for j, t in lengths.items():
        coords = None
        if chain.kind == "q1":
            coords = np.empty((t, width), dtype=coord_type)
        bits = np.empty((t, width), dtype=np.uint8)
        drivings.append((j, set(horizons[j]), coords, bits))
    values = max(_driving_values(chain, t) for t in lengths.values())
    # Cell (u-1+s) mod (n+1) of coordinate u at step s+1 starts at
    # row_starts[(s-1) mod (n+1) + u] of the flat cells.
    row_starts = np.arange(2 * m, dtype=np.int64) % m * width
    cells = np.empty((m, width), dtype=np.uint8)
    flat = cells.reshape(-1)
    start_cells = np.array([*x0, x0.parity()], dtype=np.uint8)[:, None]
    start_ones = x0.weight() + x0.parity()

    first = 0
    for block in range(blocks):
        b = samples // blocks + (block < samples % blocks)
        for i, words in rng.stream_words(seed, first, b, values):
            for _, _, coords, bits in drivings:
                c, r = _decode_driving(chain, len(bits), words, seed, first + i)
                if coords is not None:
                    coords[:, i : i + len(r)] = c.astype(coords.dtype, copy=False).T
                bits[:, i : i + len(r)] = r.T
        columns = np.arange(b)
        updated = np.empty(b, dtype=np.int64)
        both = np.empty(b, dtype=np.uint8)
        toggled = np.empty(b, dtype=np.uint8)
        for j, snapshots, coords, bits in drivings:
            t_max = len(bits)
            cells[:, :b] = start_cells
            # A set bit toggles two cells that held `both` ones, so the
            # cells' ones change by 2 - 2 both.  `half` gathers -both at
            # each step and the set bits up to each snapshot, where the
            # weight is start_ones + 2 half - parity cell.
            half = np.zeros(b, dtype=np.int64)
            counted = 0  # the steps whose set bits half holds
            for s in range(t_max + 1):
                parity = cells[(n + s) % m, :b]  # a view, toggled in place below
                if s in snapshots:
                    half += bits[counted:s, :b].sum(axis=0, dtype=np.int64)
                    counted = s
                    weights = 2 * half
                    weights += start_ones
                    weights -= parity
                    yield j, s, weights
                if s == t_max:
                    break
                r = bits[s, :b]
                if coords is None:
                    cell = cells[(chain.middle - 1 + s) % m, :b]
                    np.add(cell, parity, out=both)
                    cell ^= r
                else:
                    # mode="clip" lets take write to `out` without a
                    # buffered copy; every index is in range.
                    row_starts[(s - 1) % m :].take(
                        coords[s, :b], out=updated, mode="clip"
                    )
                    updated += columns
                    flat.take(updated, out=both, mode="clip")
                    np.bitwise_xor(both, r, out=toggled)
                    flat[updated] = toggled
                    both += parity
                parity ^= r
                both *= r
                half -= both
        first += b


def sample_weights(
    chain: ChainKind,
    x0: BitVector,
    ts: "list[int] | tuple[int, ...]",
    samples: int,
    seed: int,
) -> dict[int, np.ndarray]:
    """Hamming weights of ``samples`` independent trajectories at each time
    in ``ts``, returned as {t: int64 array of length samples}.

    Trajectory i consumes stream (seed, i); one pass serves all snapshot
    times.  The arrays are ``_weight_blocks``' blocks, concatenated;
    ``weight_counts`` gives their histograms without holding them.
    """
    parts: dict[int, list[np.ndarray]] = {}
    for _, t, weights in _weight_blocks(chain, x0, [ts], samples, seed):
        parts.setdefault(t, []).append(weights)
    return {t: np.concatenate(blocks) for t, blocks in parts.items()}


def weight_counts(
    chain: ChainKind,
    x0: BitVector,
    ts: "list[int] | tuple[int, ...]",
    samples: int,
    seed: int,
) -> dict[int, np.ndarray]:
    """The histograms of ``sample_weights``: {t: int64 counts of the
    weights 0..n at time t}.

    Each block of trajectories adds its counts and is dropped, so memory
    does not grow with ``samples``.
    """
    counts: dict[int, np.ndarray] = {}
    for _, t, weights in _weight_blocks(chain, x0, [ts], samples, seed):
        block_counts = np.bincount(weights, minlength=chain.n + 1)
        if t in counts:
            counts[t] += block_counts
        else:
            counts[t] = block_counts
    return counts


MAX_PMF_N = 2**14


def stationary_weight_pmf(n: int) -> np.ndarray:
    """Binomial(n, 1/2) mass function via log-gamma, for n <= 2**14.

    Beyond that the log-gamma differences lose too many digits: at n = 2**15
    the mass sums to 1 only within 6e-11.
    """
    if n > MAX_PMF_N:
        raise ValueError(
            f"the stationary weight law is computed for n <= {MAX_PMF_N}, got {n}"
        )
    k = np.arange(n + 1, dtype=np.float64)
    return np.exp(_log_binom(n, k) - n * math.log(2.0))


def histogram_tv(counts: np.ndarray, pmf: np.ndarray) -> tuple[float, float]:
    """TV distance between the empirical law of a histogram and ``pmf``,
    with its delta-method standard error."""
    total = counts.sum()
    emp = counts / total
    tv = 0.5 * float(np.abs(emp - pmf).sum())
    # Delta-method error of the signed functional 0.5 * sum s_w (emp_w - q_w).
    signs = np.sign(emp - pmf)
    mu = float((signs * emp).sum())
    se = 0.5 * math.sqrt(max(1.0 - mu * mu, 0.0) / total)
    return tv, se


def empirical_tv_lower_bound(
    chain: ChainKind, x0: BitVector, t: int, samples: int, seed: int
) -> float:
    """TV distance between the sampled weight histogram at time ``t`` and
    the stationary Binomial(n, 1/2) weight law.

    A consistent estimator of a quantity that lower-bounds the distance of
    the chain from uniform at time t, since the weight is a function of
    the state.
    """
    pmf = stationary_weight_pmf(chain.n)
    return histogram_tv(weight_counts(chain, x0, [t], samples, seed)[t], pmf)[0]


@dataclass(frozen=True)
class VarianceReport:
    """Monte Carlo weight-variance estimate against the 4t bound."""

    n: int
    t: int
    samples: int
    seed: int
    estimate: float
    std_error: float
    bound: float
    passed: bool


def variance_bound_check(n: int, t: int, samples: int, seed: int) -> VarianceReport:
    """Estimate Var(weight at time t) for the random-coordinate walk from 0
    and compare against 4t; passes when estimate <= 4t + 3 standard errors.
    One trajectory estimates nothing (both read 0), so it never passes."""
    return _variance_reports(n, (t,), samples, seed)[0]


def _variance_reports(
    n: int, ts: "tuple[int, ...]", samples: int, seed: int
) -> list[VarianceReport]:
    """``variance_bound_check(n, t, samples, seed)`` for each t in ``ts``,
    from one draw of each block of streams (see ``_weight_blocks``)."""
    for t in ts:
        _check_time(n, t)
    # Each horizon's weights as floats; _weight_blocks rejects samples < 1.
    weights = [np.empty(max(samples, 0)) for _ in ts]
    filled = [0] * len(ts)
    horizons = [(t,) for t in ts]
    for j, _, block in _weight_blocks(
        ChainKind("q1", n), BitVector.zeros(n), horizons, samples, seed
    ):
        weights[j][filled[j] : filled[j] + len(block)] = block
        filled[j] += len(block)
    reports = []
    for t, w in zip(ts, weights):
        if samples > 1:
            est = float(w.var(ddof=1))
        else:
            est = 0.0
        centered = w - w.mean()
        m4 = float((centered**4).mean())
        se = math.sqrt(max(m4 - est**2, 0.0) / samples)
        bound = 4.0 * t
        reports.append(
            VarianceReport(
                n=n,
                t=t,
                samples=samples,
                seed=seed,
                estimate=est,
                std_error=se,
                bound=bound,
                passed=samples > 1 and bool(est <= bound + 3.0 * se),
            )
        )
    return reports


def check_window(alpha: float, c: float | None) -> None:
    """Raise ValueError unless 1/2 < alpha < 1 and c, when given, is finite
    and > 0: the window parameters of ``chebyshev_window``."""
    if not 0.5 < alpha < 1.0:  # also rejects NaN and infinities
        raise ValueError(f"alpha must be in (1/2, 1), got {alpha}")
    if c is not None and not (math.isfinite(c) and c > 0):
        raise ValueError(f"c must be finite and > 0, got {c}")


def chebyshev_window(
    n: int, alpha: float = 0.75, c: float | None = None
) -> tuple[int, float] | None:
    """(t, bound) for the distinguishing-statistic window at t = round(n -
    n^alpha): bound = max(0, 1 - 1/(4c^2) - 4/delta^2) is a rigorous lower
    bound on the distance to uniform at t, with delta = n^(alpha-1/2)/(2e)
    - c and c = log n when None.  None when delta <= 0: the bound is vacuous.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if c is None:
        c = math.log(n)
    check_window(alpha, c)
    delta = n ** (alpha - 0.5) / (2.0 * math.e) - c
    if delta <= 0:
        return None
    # For c <= 1/2, 1/(4c^2) >= 1 already, so the max is 0; a tiny c^2
    # would be 0.
    bound = 0.0 if c <= 0.5 else max(0.0, 1.0 - 1.0 / (4.0 * c**2) - 4.0 / delta**2)
    return round(n - n**alpha), bound
