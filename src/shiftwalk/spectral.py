"""Walsh-transform analysis of the (n+1)-step random-coordinate kernel.

After n+1 steps the deterministic part of the walk returns to the
identity, and the transform of the transition law factors into per-step
terms whose value depends only on the frequency's Hamming weight.  This
module evaluates the resulting closed forms in log-space, sums the squared
coefficients by weight class, and converts the sum into an L2 bound on the
total variation distance to uniform.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .distribution import DistributionVector
from .gf2 import BitVector

__all__ = [
    "FourierSummary",
    "WeightClassBoundReport",
    "weight_class_log_terms",
    "weight_class_term",
    "check_weight_class_bounds",
    "fourier_coeff_closed_form",
    "fourier_bruteforce",
    "fourier_sum",
]


def _log_binom(n: float, k: np.ndarray | float):
    return gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)


def weight_class_log_terms(
    n: int, k: np.ndarray | int, lag: int = 0
) -> np.ndarray:
    """log of C(n,k) (1-k/n)^(2n-2k+2 lag) ((k-lag)/n)^(2k), elementwise
    over weights lag < k < n.

    ``lag = 0`` gives the envelope ``weight_class_term``; ``lag = 1`` the
    exact squared-coefficient class summed by ``fourier_sum``.
    """
    k = np.asarray(k, dtype=np.float64)
    return (
        _log_binom(n, k)
        + (2 * n - 2 * k + 2 * lag) * np.log1p(-k / n)
        + 2 * k * np.log((k - lag) / n)
    )


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


def check_weight_class_bounds(n: int) -> WeightClassBoundReport:
    """Verify term(n,k) <= 1/n^2 for 2 <= k <= n-2 and term(n,n-1) <= 1/n."""
    if n <= 5:
        raise ValueError(f"bounds hold for n >= 6, got {n}")
    k = np.arange(2, n, dtype=np.float64)  # the interior, then k = n-1
    log_terms = weight_class_log_terms(n, k)
    ratios = np.exp(log_terms[:-1] + 2 * np.log(n))
    i = int(np.argmax(ratios))
    edge = float(np.exp(log_terms[-1])) * n
    max_interior = float(ratios[i])
    return WeightClassBoundReport(
        n=n,
        max_interior_ratio=max_interior,
        argmax_interior_k=int(k[i]),
        edge_ratio=edge,
        passed=bool(max_interior <= 1.0 and edge <= 1.0),
    )


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


def fourier_sum(n: int) -> FourierSummary:
    """Sum the exact squared-coefficient classes for k = 2..n-1 in log-space."""
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    terms = np.exp(weight_class_log_terms(n, np.arange(2, n), lag=1))
    total = float(terms.sum())
    return FourierSummary(n=n, total=total, tv_bound=float(np.sqrt(total) / 2.0))
