"""Named verification suites behind the ``verify`` command.

Each suite runs a batch of checks with explicit tolerances and returns
CheckResult records carrying the observed extremal values, so reports stay
machine readable and reruns are comparable.
"""
from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, replace
from typing import Iterator

import numpy as np

from . import distribution, rng, spectral, weight_stats
from .chains import _draw_driving_blocks, q1, q2
from .distribution import DistributionVector
from .gf2 import BitVector, _power_rows

__all__ = ["CheckResult", "SUITES", "run_suite", "suite_names", "transform_max_diff"]

EXACT_SWEEP_N_MAX = 16  # n_max cap of the exact-oracle sweeps, one evolution per n


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    observed: dict = field(default_factory=dict)
    elapsed_s: float | None = None  # seconds its suite took; set by run_suite


def _sweep_check(name: str, swept: bool, passed: bool, observed: dict) -> CheckResult:
    """A check over a sweep (of n, t or trials).  Over an empty sweep it
    says nothing, so it is reported as vacuous and not passed."""
    if not swept:
        return CheckResult(f"{name} [vacuous: empty range]", False, observed)
    return CheckResult(name, passed, observed)


def _power_is_identity(n: int, k: int) -> bool:
    """Whether M^k = I, reading M^k's rows one at a time up to the first
    that differs from the identity's (row i is ``1 << i``)."""
    return all(row == 1 << i for i, row in enumerate(_power_rows(n, k)))


def suite_matrix_order(
    n_max: int = 512, spot_n: int = 10_000, **_: object
) -> list[CheckResult]:
    """The shift map's matrix has order n+1: M^(n+1) = I.

    M^k's rows come one at a time from the rotation formula of
    ``gf2._power_rows``, which therefore fixes the verdicts; the independent
    evidence is ``mat_pow`` (tests/test_gf2.py::TestCompanionPower, criterion 5).
    """
    failures = [n for n in range(2, n_max + 1) if not _power_is_identity(n, n + 1)]
    results = [
        _sweep_check(
            f"power n+1 is identity for 2 <= n <= {n_max}",
            swept=n_max >= 2,
            passed=not failures,
            observed={"failures": failures},
        )
    ]
    # Minimality is reported, not asserted: no smaller power should hit I.
    scan_max = min(n_max, 64)
    early = [(n, k) for n in range(2, scan_max + 1) for k in range(1, n + 1)
             if _power_is_identity(n, k)]
    results.append(
        _sweep_check(
            f"no smaller power is the identity (n <= {scan_max}, informational)",
            swept=n_max >= 2,
            passed=True,
            observed={"early_identities": early},
        )
    )
    if spot_n:
        start = time.perf_counter()
        ok = _power_is_identity(spot_n, spot_n + 1)
        results.append(
            CheckResult(
                name=f"spot check at n = {spot_n}",
                passed=ok,
                observed={"elapsed_s": round(time.perf_counter() - start, 3)},
            )
        )
    return results


def suite_term_bounds(n_max: int = 2000, **_: object) -> list[CheckResult]:
    """Weight-class terms stay below 1/n^2 (interior) and 1/n (k = n-1)."""
    worst_interior = (0.0, 0, 0)  # ratio, n, k: the first maximum in (n, k) order
    worst_edge = (0.0, 0)
    failures = []
    for ns, starts, interior, edge in spectral._bound_ratios(6, n_max):
        peaks = np.maximum.reduceat(interior, starts[:-1])
        failures.extend(ns[~((peaks <= 1.0) & (edge <= 1.0))].tolist())
        i = int(np.argmax(interior))
        if interior[i] > worst_interior[0]:
            j = int(np.searchsorted(starts, i, "right")) - 1
            worst_interior = (float(interior[i]), int(ns[j]), i - int(starts[j]) + 2)
        j = int(np.argmax(edge))
        if edge[j] > worst_edge[0]:
            worst_edge = (float(edge[j]), int(ns[j]))
    return [
        _sweep_check(
            f"term bounds hold for 6 <= n <= {n_max}",
            swept=n_max >= 6,
            passed=not failures,
            observed={
                "failures": failures,
                "max_interior_ratio": worst_interior[0],
                "at_n": worst_interior[1],
                "at_k": worst_interior[2],
                "max_edge_ratio": worst_edge[0],
                "edge_at_n": worst_edge[1],
            },
        )
    ]


def _fourier_oracle() -> Iterator[tuple[int, DistributionVector, list[float], float]]:
    """For n in (6, 8, 10): the q1 law at t = n+1 from 0, its brute-force
    transform at every frequency word (indexed by the word) and the largest
    |brute force - closed form| over them."""
    for n in (6, 8, 10):
        zero = BitVector.zeros(n)
        d = distribution.evolve_exact(q1(n), distribution.point_mass(n, zero), n + 1)
        mags = [spectral.fourier_coeff_closed_form(n, zero, k) for k in range(n + 1)]
        transform = [spectral.fourier_bruteforce(d, BitVector(n, w)) for w in range(1 << n)]
        gap = max(abs(c - mags[w.bit_count()]) for w, c in enumerate(transform))
        yield n, d, transform, gap


def transform_max_diff() -> float:
    """Largest |brute-force - closed-form| transform coefficient of the q1
    law at t = n+1 from 0, over all 2^n frequencies, for n in {6, 8, 10}."""
    return max(gap for *_, gap in _fourier_oracle())


def suite_fourier(n_max: int = 2000, **_: object) -> list[CheckResult]:
    """Closed-form transform coefficients against the brute-force oracle,
    whose laws are evaluated once, after the 2/n sweep and so not held in it."""
    worst_ratio = 0.0
    for n, s in spectral._fourier_totals(6, n_max):
        worst_ratio = max(worst_ratio, s * n / 2.0)
    oracle = {n: (d, transform, gap) for n, d, transform, gap in _fourier_oracle()}
    worst = max(gap for *_, gap in oracle.values())
    results = [
        CheckResult(
            name="closed form matches brute force at n in {6,8,10}, all frequencies",
            passed=worst <= 1e-12,
            observed={"max_abs_diff": worst},
        )
    ]

    n = 6
    brute_sum = sum(c**2 for c in oracle[n][1][1:])
    summary = spectral.fourier_sum(n)
    diff = abs(brute_sum - summary.total)
    results.append(
        CheckResult(
            name="squared-coefficient total matches exhaustive sum at n = 6",
            passed=diff <= 1e-10,
            observed={"exhaustive": brute_sum, "closed_form": summary.total},
        )
    )

    results.append(
        _sweep_check(
            f"coefficient mass stays below 2/n for 6 <= n <= {n_max}",
            swept=n_max >= 6,
            passed=worst_ratio <= 1.0,
            observed={"max_of_total_times_n_over_2": worst_ratio},
        )
    )

    n = 10
    exact_tv = distribution.tv_to_uniform(oracle[n][0])
    bound = spectral.fourier_sum(n).tv_bound
    results.append(
        CheckResult(
            name="spectral bound dominates exact TV at t = n+1 for n = 10",
            passed=exact_tv <= bound + 1e-12,
            observed={"exact_tv": exact_tv, "tv_bound": bound},
        )
    )
    return results


def suite_moments(n_max: int = 10, **_: object) -> list[CheckResult]:
    """Mean-weight and first-coordinate formulas against the exact oracle."""
    results = []
    worst_cf = 0.0
    for n in (2, 3, 5, 10, 137, 1000, 10_000):
        for t in sorted({0, 1, n // 3, n // 2, n - 1, n}):
            closed = weight_stats.mean_weight_closed_form(n, t)
            diff = abs(closed - weight_stats.mean_weight_recursion(n, t))
            worst_cf = max(worst_cf, diff / max(1.0, abs(closed)))
    results.append(
        CheckResult(
            name="closed form equals recursion (n up to 10^4, sampled t)",
            passed=worst_cf <= 1e-12,
            observed={"max_scaled_diff": worst_cf},
        )
    )

    n_max = min(n_max, EXACT_SWEEP_N_MAX)
    worst_mean = 0.0
    worst_marginal = 0.0
    worst_terminal = 0.0
    for n in range(2, n_max + 1):
        for t, d in distribution.exact_laws(q1(n), BitVector.zeros(n), n):
            mean, _ = distribution.weight_moments(d)
            worst_mean = max(
                worst_mean, abs(mean - weight_stats.mean_weight_closed_form(n, t))
            )
            marginal = distribution.coordinate_marginal(d, 1)
            if t <= n - 1:
                worst_marginal = max(
                    worst_marginal,
                    abs(marginal - weight_stats.prob_first_coord_one(n, t)),
                )
            else:
                # The traced bit at t = n is the appended parity of step 1,
                # which is exactly uniform.
                worst_terminal = max(worst_terminal, abs(marginal - 0.5))
    results.append(
        _sweep_check(
            f"exact mean matches closed form (n <= {n_max}, t <= n)",
            swept=n_max >= 2,
            passed=worst_mean <= 1e-12,
            observed={"max_abs_diff": worst_mean},
        )
    )
    results.append(
        _sweep_check(
            f"exact leading-bit marginal matches formula (n <= {n_max}, t <= n-1)",
            swept=n_max >= 2,
            passed=worst_marginal <= 1e-12,
            observed={"max_abs_diff": worst_marginal},
        )
    )
    results.append(
        _sweep_check(
            "leading-bit marginal is exactly 1/2 at t = n",
            swept=n_max >= 2,
            passed=worst_terminal <= 1e-12,
            observed={"max_abs_diff": worst_terminal},
        )
    )

    worst_gap = -np.inf
    for n in (100, 1000, 10_000):
        for alpha in (0.6, 0.75, 0.9):
            t = round(n - n**alpha)
            mu = weight_stats.mean_weight_closed_form(n, t)
            envelope = n / 2.0 - n**alpha / (2.0 * np.e)
            worst_gap = max(worst_gap, mu - envelope)
    results.append(
        CheckResult(
            name="mean displacement envelope at t = round(n - n^alpha)",
            passed=worst_gap <= 0.0,
            observed={"max_mu_minus_envelope": worst_gap},
        )
    )
    return results


# A bounded-diff block holds at most this many trials, and at most this
# many trial-steps, so each of its (steps, trials) arrays stays within a
# few MiB.
_BLOCK_TRIALS = 1024
_BLOCK_STEPS = 1 << 18


def _bounded_diff_stats(
    seed: int, trials: int, n_max: int
) -> tuple[int, int, int, int, int]:
    """The trials of the bounded-diff suite, replayed together in blocks:
    the largest bit-flip and coordinate-change weight differences, the
    largest Hamming distance, and the zero-bit and same-coordinate
    violations.  Coordinates are ``uint32`` (n <= n_max <= 2**32)."""
    steps = 2 * n_max + 3
    rows = max(1, min(_BLOCK_TRIALS, _BLOCK_STEPS // n_max))
    max_flip = max_coord = max_hamming = zero_bit = same_coord = 0
    for first in range(0, trials, rows):
        count = min(rows, trials - first)
        j = np.arange(first, first + count)
        n = 2 + j * (n_max - 1) // trials
        coords = np.empty((count, steps), dtype=np.uint32)
        bits = np.empty((count, steps), dtype=np.uint8)
        # n never decreases with j: decode each run of one n as one chain.
        runs = np.flatnonzero(np.diff(n, prepend=-1, append=-1)).tolist()
        for lo, hi in zip(runs[:-1], runs[1:]):
            chain = q1(int(n[lo]))
            for i, c, b in _draw_driving_blocks(chain, steps, seed, first + lo, hi - lo):
                coords[lo + i : lo + i + len(b)] = c
                bits[lo + i : lo + i + len(b)] = b
        times = coords[:, [2 * n_max, 2 * n_max + 2]].astype(np.int64)
        i, t = times.min(axis=1), times.max(axis=1)
        u_new = coords[:, 2 * n_max + 1]

        order = np.argsort(-t, kind="stable")
        n, t, i, u_new, flip = n[order], t[order], i[order], u_new[order], j[order] % 2 == 1
        coords, bits = coords[order], bits[order]
        # The two replays' step-major copies, with 0-based coordinates,
        # which the replay widens per step.
        pair_coords = np.repeat(coords[:, None, : t[0]].T - 1, 2, axis=1)
        pair_bits = np.repeat(bits[:, None, : t[0]].T, 2, axis=1)
        block_rows = np.arange(count)
        at = i - 1
        pair_bits[at[flip], 1, block_rows[flip]] ^= 1
        pair_coords[at[~flip], 1, block_rows[~flip]] = u_new[~flip] - 1

        # The start: coordinate c is the bit of step n_max + c.
        start = bits[:, n_max : n_max + int(n.max())]
        diff, hamming = weight_stats._replay_pairs(n, t, start, pair_coords, pair_bits)
        changed = ~flip & (diff != 0)
        max_flip = max(max_flip, int(diff[flip].max(initial=0)))
        max_coord = max(max_coord, int(diff[~flip].max(initial=0)))
        max_hamming = max(max_hamming, int(hamming.max()))
        zero_bit += int(np.count_nonzero(changed & (bits[block_rows, at] == 0)))
        same_coord += int(np.count_nonzero(changed & (coords[block_rows, at] == u_new)))
    return max_flip, max_coord, max_hamming, zero_bit, same_coord


def suite_bounded_diff(
    trials: int = 100_000, seed: int = 0, n_max: int = 64, **_: object
) -> list[CheckResult]:
    """Single-change replays never move the final weight by more than 2.

    Trial j (0-based) is a q1 driving sequence on stream (seed, j), drawn
    as every Monte Carlo trajectory is (``chains._draw_driving_blocks``).
    Its dimension is n = 2 + j (n_max - 1) // trials, which spreads
    2..n_max evenly, and it reads the driving of 2 n_max + 3 steps of
    q1(n), so that the trials of a block share one layout: steps 1..t
    drive the walk, the bits of steps n_max+1 .. n_max+n are the start,
    and the coordinates of steps 2 n_max + 1 and 2 n_max + 3 are two
    uniform times in 1..n, i the smaller and t the larger.  Odd trials
    flip the bit at time i; even trials set the coordinate at time i to
    the coordinate of step 2 n_max + 2.  A block of trials is decoded
    into arrays of its own and replayed at once by
    ``weight_stats._replay_pairs``, which takes each start as its bits
    (``weight_stats.replay_divergence`` replays one pair).
    """
    half = trials // 2
    swept = n_max >= 2
    max_flip, max_coord, max_hamming, zero_bit_violations, same_coord_violations = (
        _bounded_diff_stats(seed, trials, n_max) if swept else (0,) * 5
    )
    return [
        _sweep_check(
            f"bit-flip weight differences <= 2 ({half} trials)",
            swept=swept and half > 0,
            passed=max_flip <= 2,
            observed={"max_weight_diff": max_flip},
        ),
        _sweep_check(
            f"coordinate-change weight differences <= 2 ({trials - half} trials)",
            swept=swept and trials > half,
            passed=max_coord <= 2
            and zero_bit_violations == 0
            and same_coord_violations == 0,
            observed={
                "max_weight_diff": max_coord,
                "zero_bit_violations": zero_bit_violations,
                "same_coord_violations": same_coord_violations,
            },
        ),
        _sweep_check(
            "intermediate Hamming distance <= 2 (all trials)",
            swept=swept and trials > 0,
            passed=max_hamming <= 2,
            observed={"max_hamming": max_hamming},
        ),
    ]


def suite_variance(
    samples: int = 100_000, seed: int = 0, n_max: int = 10, **_: object
) -> list[CheckResult]:
    """Weight variance stays below 4t: exactly at small n, sampled at n = 128."""
    worst = -np.inf
    n_max = min(n_max, EXACT_SWEEP_N_MAX)
    for n in range(2, n_max + 1):
        for t, d in distribution.exact_laws(q1(n), BitVector.zeros(n), n):
            _, var = distribution.weight_moments(d)
            worst = max(worst, var - 4.0 * t)
    results = [
        _sweep_check(
            f"exact variance <= 4t (n <= {n_max}, t <= n)",
            swept=n_max >= 2,
            passed=worst <= 1e-12,
            observed={"max_var_minus_4t": worst},
        )
    ]
    sampled = {
        t: {"n": 128, "t": t, "samples": samples, "seed": seed} for t in (64, 128)
    }
    if samples >= 1:
        # Both horizons read one draw of the streams (seed, 0..samples-1).
        for rep in weight_stats._variance_reports(128, tuple(sampled), samples, seed):
            sampled[rep.t] = asdict(rep)
    for t, observed in sampled.items():
        # A variance estimate needs two trajectories.
        results.append(
            _sweep_check(
                f"sampled variance at n = 128, t = {t} ({samples} trajectories)",
                swept=samples >= 2,
                passed=bool(observed.get("passed")),
                observed=observed,
            )
        )
    return results


def suite_q2_exact(
    n_max: int = 16, seed: int = 0, starts: int = 16, **_: object
) -> list[CheckResult]:
    """The middle-coordinate walk is exactly uniform after n steps."""
    n_max = min(n_max, EXACT_SWEEP_N_MAX)
    worst = 0.0
    for n in range(4, n_max + 1, 2):
        chain = q2(n)
        gen = rng.stream(seed, n)
        for _ in range(starts):
            x0 = BitVector.random(n, gen)
            d = distribution.evolve_exact(chain, distribution.point_mass(n, x0), n)
            worst = max(worst, distribution.tv_to_uniform(d))
    return [
        _sweep_check(
            f"exact TV at t = n is 0 (even n <= {n_max}, {starts} starts each)",
            swept=n_max >= 4 and starts > 0,
            passed=worst <= 1e-12,
            observed={"max_tv": worst},
        )
    ]


SUITES = {
    "matrix-order": suite_matrix_order,
    "term-bounds": suite_term_bounds,
    "fourier": suite_fourier,
    "moments": suite_moments,
    "bounded-diff": suite_bounded_diff,
    "variance": suite_variance,
    "q2-exact": suite_q2_exact,
}


def suite_names() -> list[str]:
    return [*SUITES, "all"]


def _timed(suite, kwargs: dict) -> list[CheckResult]:
    start = time.perf_counter()
    checks = suite(**kwargs)
    elapsed = round(time.perf_counter() - start, 3)
    return [replace(c, elapsed_s=elapsed) for c in checks]


def run_suite(name: str, **kwargs: object) -> list[CheckResult]:
    """Run one suite (or every suite for ``all``), dropping unset kwargs;
    each check carries the seconds its suite took, in ``elapsed_s``."""
    kwargs = {k: v for k, v in kwargs.items() if v is not None}
    if name == "all":
        return [c for suite in SUITES.values() for c in _timed(suite, kwargs)]
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {suite_names()}")
    return _timed(SUITES[name], kwargs)
