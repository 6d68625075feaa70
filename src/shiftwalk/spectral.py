"""Walsh-transform analysis of the (n+1)-step random-coordinate kernel.

After n+1 steps the deterministic part of the walk returns to the
identity, and the transform of the transition law factors into per-step
terms whose value depends only on the frequency's Hamming weight.  This
module evaluates the resulting closed forms in log-space, sums the squared
coefficients by weight class, and converts the sum into an L2 bound on the
total variation distance to uniform.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .distribution import DistributionVector
from .gf2 import BitVector

__all__ = [
    "FourierSummary",
    "WeightClassBoundReport",
    "weight_class_term",
    "check_weight_class_bounds",
    "fourier_coeff_closed_form",
    "fourier_bruteforce",
    "fourier_sum",
]


# Cephes' lgam (the routine behind scipy.special.gammaln) for x >= 13:
# log sqrt(2 pi) and the coefficients of its asymptotic correction for x < 1000.
_LS2PI = 0.91893853320467274178
_LGAM_A = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)
_log_factorials = np.zeros(0)
# (n, k) entries per weight_class_log_terms call of a sweep over n: about
# 64 KiB an array, so a sweep's memory does not grow with its range.
_SWEEP_ENTRIES = 1 << 13


def _lgam(x: np.ndarray) -> np.ndarray:
    """log Gamma(x) at positive integers x, bit for bit what cephes' lgam
    (the routine behind scipy.special.gammaln) returns.

    It follows lgam's operations in lgam's order: log((x-1)!) for x < 13,
    otherwise (x - 0.5) log x - x + log sqrt(2 pi) plus a series in 1/x^2
    (five terms for x < 1000, three up to 1e8, none above).  Each log x
    comes from libm through ``math.log``; ``np.log`` differs from it in the
    last bit at some integers.  The rest is elementwise numpy, one rounding
    per operation as in C.
    """
    x = np.asarray(x, dtype=np.float64)
    log_x = np.fromiter(map(math.log, x.tolist()), np.float64, x.size)
    out = (x - 0.5) * log_x - x + _LS2PI
    small = x < 1000.0
    xs = x[small]
    p = 1.0 / (xs * xs)
    poly = _LGAM_A[0]
    for c in _LGAM_A[1:]:
        poly = poly * p + c
    out[small] += poly / xs
    mid = ~small & (x <= 1e8)
    xm = x[mid]
    p = 1.0 / (xm * xm)
    out[mid] += (
        (7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
        + 0.0833333333333333333333
    ) / xm
    for i in np.flatnonzero(x < 13.0):
        out[i] = math.log(math.factorial(int(x[i]) - 1))
    return out


def _log_factorial_table(m_max: int) -> np.ndarray:
    """log(m!) = lgam(m + 1) for m = 0..m_max at least.

    Built once and grown geometrically; an entry never changes.
    """
    global _log_factorials
    lo = len(_log_factorials)
    if m_max >= lo:
        hi = max(m_max + 1, 2 * lo, 16)
        _log_factorials = np.concatenate(
            (_log_factorials, _lgam(np.arange(lo + 1, hi + 1)))
        )
    return _log_factorials


def _log_binom(n: int, k: np.ndarray | int) -> np.ndarray:
    """log C(n, k), elementwise over integer-valued 0 <= k <= n."""
    n, k = np.asarray(n), np.asarray(k)
    with np.errstate(invalid="ignore"):  # NaN and inf fail the checks below
        n_int, k_int = n.astype(np.int64), k.astype(np.int64)
    rest = n_int - k_int
    if not (
        (n_int == n).all() and (k_int == k).all()
        and (k_int >= 0).all() and (rest >= 0).all()
    ):
        raise ValueError(
            f"log C(n, k) needs integers 0 <= k <= n, got n={n}, k={k}"
        )
    table = _log_factorial_table(int(n_int.max()))
    return table[n_int] - table.take(k_int) - table.take(rest)


def _with_powers(
    log_binom: np.ndarray, n: np.ndarray | int, k: np.ndarray, lag: int
) -> np.ndarray:
    """``weight_class_log_terms`` from its log C(n, k) and float64 k: the
    one log-term formula, which the sweeps call directly."""
    return (
        log_binom
        + (2 * n - 2 * k + 2 * lag) * np.log1p(-k / n)
        + 2 * k * np.log((k - lag) / n)
    )


def weight_class_log_terms(
    n: np.ndarray | int, k: np.ndarray | int, lag: int = 0
) -> np.ndarray:
    """log of C(n,k) (1-k/n)^(2n-2k+2 lag) ((k-lag)/n)^(2k), elementwise
    over weights lag < k < n, with integer n broadcast against k.

    ``lag = 0`` gives the envelope ``weight_class_term``; ``lag = 1`` the
    exact squared-coefficient class summed by ``fourier_sum``.
    """
    k = np.asarray(k, dtype=np.float64)
    return _with_powers(_log_binom(n, k), n, k, lag)


def _weight_class_sweep(
    n_lo: int, n_hi: int, lag: int
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """``weight_class_log_terms`` at k = 2..n-1 for n = n_lo..n_hi (n >= 3),
    in runs of consecutive n.

    Yields ``(ns, starts, log_terms)`` per run: n = ns[i] holds
    log_terms[starts[i]:starts[i + 1]], its terms at k = 2..n-1 in order.
    A run holds at most ``_SWEEP_ENTRIES`` terms, or a single n.  Each
    entry is what the call for that n alone gives, bit for bit.  The
    sweep builds its integer grids itself, so it skips their checks.
    """
    ns = np.arange(n_lo, n_hi + 1)
    ends = np.cumsum(ns - 2)
    table = _log_factorial_table(n_hi)
    i = 0
    while i < len(ns):
        base = int(ends[i - 1]) if i else 0
        j = max(i + 1, int(np.searchsorted(ends, base + _SWEEP_ENTRIES, "right")))
        run, sizes = ns[i:j], ns[i:j] - 2
        starts = np.concatenate(([0], ends[i:j] - base))
        n = np.repeat(run, sizes)
        k = np.arange(starts[-1]) - np.repeat(starts[:-1] - 2, sizes)
        log_binom = np.repeat(table[run], sizes) - table.take(k) - table.take(n - k)
        yield run, starts, _with_powers(log_binom, n, k.astype(np.float64), lag)
        i = j


def weight_class_term(n: int, k: int) -> float:
    """C(n,k) (1-k/n)^(2n-2k) (k/n)^(2k), evaluated in log-space.

    Dominating envelope for the squared-coefficient mass of the weight-k
    frequency class.  Uses the 0*log(0) = 0 convention at k = 0 and k = n,
    where the term is 1; terms below exp(-745) underflow to 0.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 <= k <= n:
        raise ValueError(f"k must be in 0..{n}, got {k}")
    if k in (0, n):
        return 1.0
    return float(np.exp(weight_class_log_terms(n, k)))


@dataclass(frozen=True)
class WeightClassBoundReport:
    """Extremes of the weight-class terms against their 1/n^2 and 1/n caps."""

    n: int
    max_interior_ratio: float  # max over 2 <= k <= n-2 of term * n^2
    argmax_interior_k: int
    edge_ratio: float  # term at k = n-1, times n
    passed: bool


def _bound_ratios(
    n_lo: int, n_hi: int
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """The weight-class terms against their caps for n = n_lo..n_hi
    (n >= 6), in the runs of ``_weight_class_sweep``.

    Yields ``(ns, starts, interior, edge)`` per run: n = ns[i] holds the
    ratios term * n^2 at k = 2..n-2 in interior[starts[i]:starts[i + 1]],
    and edge[i] = term(n, n-1) * n.
    """
    for ns, starts, log_terms in _weight_class_sweep(n_lo, n_hi, lag=0):
        last = starts[1:] - 1  # k = n-1 of each n
        interior = np.delete(log_terms, last)
        interior += np.repeat(2 * np.log(ns), ns - 3)
        edge = np.exp(log_terms[last]) * ns
        yield ns, starts - np.arange(len(starts)), np.exp(interior), edge


def _bound_extremes(
    n_lo: int, n_hi: int
) -> tuple[list[int], tuple[float, int, int], tuple[float, int]]:
    """``_bound_ratios`` over n = n_lo..n_hi, reduced: the n whose terms
    break a cap, the first largest interior ratio in (n, k) order as
    (ratio, n, k), and the first largest edge ratio as (ratio, n).  An
    empty range gives ([], (0.0, 0, 0), (0.0, 0))."""
    failures = []
    interior_max = (0.0, 0, 0)
    edge_max = (0.0, 0)
    for ns, starts, interior, edge in _bound_ratios(n_lo, n_hi):
        peaks = np.maximum.reduceat(interior, starts[:-1])
        failures.extend(ns[~((peaks <= 1.0) & (edge <= 1.0))].tolist())
        i = int(np.argmax(interior))
        if interior[i] > interior_max[0]:
            j = int(np.searchsorted(starts, i, "right")) - 1
            interior_max = (float(interior[i]), int(ns[j]), i - int(starts[j]) + 2)
        j = int(np.argmax(edge))
        if edge[j] > edge_max[0]:
            edge_max = (float(edge[j]), int(ns[j]))
    return failures, interior_max, edge_max


def check_weight_class_bounds(n: int) -> WeightClassBoundReport:
    """Verify term(n,k) <= 1/n^2 for 2 <= k <= n-2 and term(n,n-1) <= 1/n."""
    if n <= 5:
        raise ValueError(f"bounds hold for n >= 6, got {n}")
    failures, (max_interior, _, k), (edge, _) = _bound_extremes(n, n)
    return WeightClassBoundReport(n, max_interior, k, edge, passed=not failures)


def fourier_coeff_closed_form(n: int, x: BitVector, k: int) -> float:
    """Transform coefficient of the (n+1)-step kernel from ``x`` at the
    canonical weight-k frequency (ones in the first k positions).

    Equals (-1)^(x_1+..+x_k) (1-k/n)^(n-k+1) ((k-1)/n)^k; the magnitude
    depends only on k, so squared coefficients are constant on each weight
    class.  Zero at k = 1 and k = n.
    """
    if x.n != n:
        raise ValueError(f"state has length {x.n}, expected {n}")
    if not 0 <= k <= n:
        raise ValueError(f"k must be in 0..{n}, got {k}")
    sign = -1.0 if (x.word & ((1 << k) - 1)).bit_count() & 1 else 1.0
    return sign * (1.0 - k / n) ** (n - k + 1) * ((k - 1) / n) ** k


def fourier_bruteforce(d: DistributionVector, y: BitVector) -> float:
    """The transform sum_z (-1)^(y.z) d(z), evaluated directly."""
    if y.n != d.n:
        raise ValueError(f"frequency has length {y.n}, expected {d.n}")
    idx = np.arange(1 << d.n, dtype=np.uint64)
    par = np.bitwise_count(idx & np.uint64(y.word)).astype(np.int64) & 1
    return float(((1.0 - 2.0 * par) * d.probs).sum())


@dataclass(frozen=True)
class FourierSummary:
    """Squared-coefficient mass of the (n+1)-step kernel.

    ``total`` is the sum S over weight classes k = 2..n-1 of
    C(n,k) (1-k/n)^(2n-2k+2) ((k-1)/n)^(2k), and ``tv_bound`` = sqrt(S)/2
    bounds the TV distance to uniform after n+1 steps, from any start.
    """

    n: int
    total: float
    tv_bound: float


def _fourier_totals(n_lo: int, n_hi: int) -> Iterator[tuple[int, float]]:
    """(n, S) for n = n_lo..n_hi (n >= 3), S the sum of the exact
    squared-coefficient classes k = 2..n-1; each n's terms are summed
    on their own, in one pairwise ``sum``."""
    for ns, starts, log_terms in _weight_class_sweep(n_lo, n_hi, lag=1):
        terms = np.exp(log_terms)
        bounds = starts.tolist()
        for n, lo, hi in zip(ns.tolist(), bounds, bounds[1:]):
            yield n, float(terms[lo:hi].sum())


def fourier_sum(n: int) -> FourierSummary:
    """Sum the exact squared-coefficient classes for k = 2..n-1 in log-space."""
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    ((_, total),) = _fourier_totals(n, n)
    return FourierSummary(n=n, total=total, tv_bound=float(np.sqrt(total) / 2.0))
