import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from conftest import peak_bytes
from shiftwalk import (
    BitVector,
    DistributionVector,
    check_weight_class_bounds,
    distribution,
    evolve_exact,
    exact_tv_curve,
    fourier_bruteforce,
    fourier_coeff_closed_form,
    fourier_sum,
    point_mass,
    q1,
    spectral,
    stream,
    weight_class_term,
    weight_stats,
)
from shiftwalk.spectral import WeightClassBoundReport
from shiftwalk.suites import (
    _sweep_check,
    suite_fourier,
    suite_term_bounds,
    transform_max_diff,
)


def term_exact(n, k):
    """Independent rational evaluation of the weight-class term."""
    return (
        Fraction(math.comb(n, k))
        * Fraction(n - k, n) ** (2 * n - 2 * k)
        * Fraction(k, n) ** (2 * k)
    )


def evolved(n, x0=None):
    x0 = x0 if x0 is not None else BitVector.zeros(n)
    return evolve_exact(q1(n), point_mass(n, x0), n + 1)


class TestWeightClassTerm:
    def test_k_zero_is_one(self):
        for n in (1, 7, 500):
            assert weight_class_term(n, 0) == pytest.approx(1.0, rel=1e-14)

    def test_frozen_small_case(self):
        assert weight_class_term(6, 2) == pytest.approx(3840 / 531441, rel=1e-13)

    def test_interior_bound_small_n(self):
        for k in range(2, 6):
            assert weight_class_term(7, k) <= 1 / 49

    def test_log_space_matches_exact_rational(self):
        for n in range(2, 31):
            for k in range(n + 1):
                exact = float(term_exact(n, k))
                assert weight_class_term(n, k) == pytest.approx(exact, rel=1e-12)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            weight_class_term(5, 6)
        with pytest.raises(ValueError):
            weight_class_term(0, 0)


class TestBoundReport:
    def test_small_and_large_n_pass(self):
        for n in (6, 37, 1000):
            report = check_weight_class_bounds(n)
            assert report.passed
            assert report.max_interior_ratio <= 1.0
            assert report.edge_ratio <= 1.0

    def test_report_matches_terms(self):
        for n in (6, 37, 1000):
            report = check_weight_class_bounds(n)
            assert report.edge_ratio == weight_class_term(n, n - 1) * n
            interior = [weight_class_term(n, k) * n * n for k in range(2, n - 1)]
            assert report.max_interior_ratio == pytest.approx(max(interior), rel=1e-12)
            assert interior[report.argmax_interior_k - 2] == \
                pytest.approx(max(interior), rel=1e-12)

    def test_rejects_n_at_most_five(self):
        with pytest.raises(ValueError):
            check_weight_class_bounds(5)

    def test_edge_term_at_n_five(self):
        # below the n > 5 regime the k = n-1 cap still holds numerically
        assert 5 * weight_class_term(5, 4) < 1.0


class TestClosedForm:
    def test_degenerate_weights_vanish(self):
        z = BitVector.zeros(6)
        assert fourier_coeff_closed_form(6, z, 1) == 0.0
        assert fourier_coeff_closed_form(6, z, 6) == 0.0

    def test_weight_zero_is_normalization(self):
        assert fourier_coeff_closed_form(9, BitVector.zeros(9), 0) == 1.0

    def test_frozen_value(self):
        expected = float(Fraction(1, 2) ** 4 * Fraction(1, 3) ** 3)
        assert fourier_coeff_closed_form(6, BitVector.zeros(6), 3) == \
            pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(1 / 432)

    def test_sign_from_start_prefix(self):
        x = BitVector.from_string("110000")
        mag = fourier_coeff_closed_form(6, BitVector.zeros(6), 3)
        assert fourier_coeff_closed_form(6, x, 3) == pytest.approx(mag)
        x = BitVector.from_string("100000")
        assert fourier_coeff_closed_form(6, x, 3) == pytest.approx(-mag)


class TestBruteForce:
    def test_frequency_zero_is_total_mass(self):
        d = evolved(5)
        assert fourier_bruteforce(d, BitVector.zeros(5)) == pytest.approx(1.0)

    def test_uniform_kills_nonzero_frequencies(self):
        d = DistributionVector(6, np.full(64, 1 / 64))
        for word in (1, 7, 63):
            assert abs(fourier_bruteforce(d, BitVector(6, word))) <= 1e-15

    def test_matches_closed_form_exhaustively(self):
        n = 6
        d = evolved(n)
        mags = [fourier_coeff_closed_form(n, BitVector.zeros(n), k)
                for k in range(n + 1)]
        worst = max(
            abs(fourier_bruteforce(d, BitVector(n, w)) - mags[BitVector(n, w).weight()])
            for w in range(1 << n)
        )
        assert worst <= 1e-12

    def test_matches_closed_form_with_signs(self):
        # general frequency y picks up the sign (-1)^(x . y)
        n = 6
        gen = stream(8, 0)
        x0 = BitVector.random(n, gen)
        d = evolved(n, x0)
        mags = [fourier_coeff_closed_form(n, BitVector.zeros(n), k)
                for k in range(n + 1)]
        for w in range(1 << n):
            y = BitVector(n, w)
            sign = -1.0 if (x0.word & y.word).bit_count() & 1 else 1.0
            assert fourier_bruteforce(d, y) == \
                pytest.approx(sign * mags[y.weight()], abs=1e-12)

    def test_fourier_suite_evaluates_each_oracle_law_once(self, monkeypatch):
        # The laws at t = n+1 for n = 6, 8, 10 are each evolved once and
        # transformed once at each of their 2^n frequencies, and every check
        # that needs them reads those values.
        calls = {"evolutions": 0, "transforms": 0}
        evolution, transform = distribution._evolution, spectral.fourier_bruteforce

        def counted(key, fn):
            def call(*args):
                calls[key] += 1
                return fn(*args)
            return call

        monkeypatch.setattr(distribution, "_evolution", counted("evolutions", evolution))
        monkeypatch.setattr(spectral, "fourier_bruteforce", counted("transforms", transform))
        checks = suite_fourier()
        assert calls == {"evolutions": 3, "transforms": 64 + 256 + 1024}
        # Each value is what the check's own evaluation of its law gives.
        assert checks[0].observed["max_abs_diff"] == transform_max_diff()
        d = evolved(6)
        assert checks[1].observed["exhaustive"] == sum(
            fourier_bruteforce(d, BitVector(6, w)) ** 2 for w in range(1, 64)
        )
        curve = exact_tv_curve(q1(10), BitVector.zeros(10), 11)
        assert checks[3].observed["exact_tv"] == curve[11][1]
        assert all(c.passed for c in checks)


class TestFourierSum:
    def test_total_matches_exhaustive_sum(self):
        n = 6
        d = evolved(n)
        exhaustive = sum(
            fourier_bruteforce(d, BitVector(n, w)) ** 2 for w in range(1, 1 << n)
        )
        summary = fourier_sum(n)
        assert summary.total == pytest.approx(exhaustive, abs=1e-10)

    def test_total_below_two_over_n(self):
        for n in range(6, 2001):
            assert fourier_sum(n).total <= 2 / n

    def test_tv_bound_definition(self):
        s = fourier_sum(12)
        assert s.tv_bound**2 == pytest.approx(s.total / 4, rel=1e-12)

    def test_bound_dominates_exact_tv(self):
        for n in (8, 10, 12):
            curve = dict(exact_tv_curve(q1(n), BitVector.zeros(n), n + 1))
            s = fourier_sum(n)
            assert curve[n + 1] <= s.tv_bound + 1e-12
            assert s.tv_bound <= math.sqrt(2 / n) / 2 + 1e-12

    def test_squared_coefficient_consistency_up_to_n10(self):
        for n in (8, 10):
            d = evolved(n)
            exhaustive = sum(
                fourier_bruteforce(d, BitVector(n, w)) ** 2
                for w in range(1, 1 << n)
            )
            assert exhaustive == pytest.approx(fourier_sum(n).total, abs=1e-10)

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            fourier_sum(2)


def log_binom_gammaln(n, k):
    """The log-binomial as scipy's gammaln gives it, the table's reference."""
    return gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestLogFactorialTable:
    def test_table_is_gammaln_bit_for_bit(self):
        table = spectral._log_factorial_table(2**16)[: 2**16 + 1]
        assert same_bits(table, gammaln(np.arange(1, 2**16 + 2, dtype=np.float64)))

    def test_branch_edges_and_large_arguments_are_gammaln_bit_for_bit(self):
        edges = [1, 2, 12, 13, 999, 1000, 10**8, 10**8 + 1]
        spread = np.random.default_rng(13).integers(1, 10**12, size=10**4)
        x = np.concatenate((edges, spread))
        assert same_bits(spectral._lgam(x), gammaln(x.astype(np.float64)))

    @pytest.mark.parametrize("n", [*range(3, 65), 1024, 2000, 2**14])
    def test_callers_keep_the_gammaln_bits(self, n, monkeypatch):
        k = np.arange(n + 1, dtype=np.float64)
        inner = np.arange(2, n, dtype=np.float64)

        def outputs():
            return [
                spectral._log_binom(n, k),
                spectral.weight_class_log_terms(n, inner, lag=0),
                spectral.weight_class_log_terms(n, inner, lag=1),
                spectral.fourier_sum(n).total,
                weight_stats.stationary_weight_pmf(n),
            ]

        table_values = outputs()
        monkeypatch.setattr(spectral, "_log_binom", log_binom_gammaln)
        monkeypatch.setattr(weight_stats, "_log_binom", log_binom_gammaln)
        for got, expected in zip(table_values, outputs(), strict=True):
            assert same_bits(got, expected)

    def test_growing_in_steps_matches_one_build(self, monkeypatch):
        monkeypatch.setattr(spectral, "_log_factorials", np.zeros(0))
        for m in (10, 40, 5000):
            stepped = spectral._log_factorial_table(m)
        monkeypatch.setattr(spectral, "_log_factorials", np.zeros(0))
        whole = spectral._log_factorial_table(5000)
        assert len(stepped) == len(whole) == 5001
        assert same_bits(stepped, whole)

    @pytest.mark.parametrize(
        "n, k",
        [(5, 2.5), (5, -1), (5, 6), (4.5, 2), (-1, 0), (5, np.array([1.0, 2.5])),
         (5, np.nan), (np.inf, 1)],
    )
    def test_rejects_non_integer_or_negative_arguments(self, n, k):
        with pytest.raises(ValueError, match="integers 0 <= k <= n"):
            spectral._log_binom(n, k)
        with pytest.raises(ValueError, match="integers 0 <= k <= n"):
            spectral.weight_class_log_terms(n, k)


# The per-n loops that term-bounds and fourier ran before the sweep, kept as
# references: one weight_class_log_terms call per n.

def reference_log_terms(n, lag):
    return spectral.weight_class_log_terms(n, np.arange(2, n, dtype=np.float64), lag)


def reference_bounds(n):
    k = np.arange(2, n, dtype=np.float64)  # the interior, then k = n-1
    log_terms = spectral.weight_class_log_terms(n, k)
    ratios = np.exp(log_terms[:-1] + 2 * np.log(n))
    i = int(np.argmax(ratios))
    edge = float(np.exp(log_terms[-1])) * n
    max_interior = float(ratios[i])
    return WeightClassBoundReport(
        n, max_interior, int(k[i]), edge, bool(max_interior <= 1.0 and edge <= 1.0)
    )


def reference_fourier_total(n):
    terms = np.exp(spectral.weight_class_log_terms(n, np.arange(2, n), lag=1))
    return float(terms.sum())


def reference_term_bounds(n_max):
    worst_interior = (0.0, 0, 0)
    worst_edge = (0.0, 0)
    failures = []
    for n in range(6, n_max + 1):
        rep = reference_bounds(n)
        if not rep.passed:
            failures.append(n)
        if rep.max_interior_ratio > worst_interior[0]:
            worst_interior = (rep.max_interior_ratio, n, rep.argmax_interior_k)
        if rep.edge_ratio > worst_edge[0]:
            worst_edge = (rep.edge_ratio, n)
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


def reference_fourier_mass(n_max):
    worst_ratio = 0.0
    for n in range(6, n_max + 1):
        worst_ratio = max(worst_ratio, reference_fourier_total(n) * n / 2.0)
    return _sweep_check(
        f"coefficient mass stays below 2/n for 6 <= n <= {n_max}",
        swept=n_max >= 6,
        passed=worst_ratio <= 1.0,
        observed={"max_of_total_times_n_over_2": worst_ratio},
    )


def assert_sweep_is_per_n(n_lo, n_hi):
    """Every sweep over n_lo..n_hi gives each n the per-n call's bits, in
    runs of consecutive n that respect the entry cap."""
    cap = spectral._SWEEP_ENTRIES
    for lag in (0, 1):
        seen = []
        for ns, starts, log_terms in spectral._weight_class_sweep(n_lo, n_hi, lag):
            assert len(ns) == 1 or len(log_terms) <= cap
            assert starts[0] == 0 and starts[-1] == len(log_terms)
            for i, n in enumerate(ns.tolist()):
                assert same_bits(log_terms[starts[i] : starts[i + 1]],
                                 reference_log_terms(n, lag)), (n, lag)
            seen.extend(ns.tolist())
        assert seen == list(range(n_lo, n_hi + 1))
    for ns, starts, interior, edge in spectral._bound_ratios(max(n_lo, 6), n_hi):
        for i, n in enumerate(ns.tolist()):
            ref = reference_bounds(n)
            ratios = interior[starts[i] : starts[i + 1]]
            assert len(ratios) == n - 3
            assert ratios.max() == ref.max_interior_ratio and edge[i] == ref.edge_ratio
            assert int(np.argmax(ratios)) + 2 == ref.argmax_interior_k
    for n, total in spectral._fourier_totals(n_lo, n_hi):
        assert total == reference_fourier_total(n), n


class TestWeightClassSweep:
    @pytest.mark.parametrize("cap", [1, 7, 300, spectral._SWEEP_ENTRIES])
    @pytest.mark.parametrize("lag", [0, 1])
    def test_log_terms_are_the_per_n_bits(self, cap, lag, monkeypatch):
        monkeypatch.setattr(spectral, "_SWEEP_ENTRIES", cap)
        got = {}
        for ns, starts, log_terms in spectral._weight_class_sweep(6, 2100, lag):
            assert len(ns) == 1 or len(log_terms) <= cap
            for i, n in enumerate(ns.tolist()):
                got[n] = log_terms[starts[i] : starts[i + 1]]
        assert list(got) == list(range(6, 2101))
        for n, terms in got.items():
            assert same_bits(terms, reference_log_terms(n, lag)), n

    @pytest.mark.parametrize("n", [*range(6, 40), 1000, 2000, 8193, 8194, 9000])
    def test_one_n_is_the_per_n_call(self, n):
        assert check_weight_class_bounds(n) == reference_bounds(n)
        assert fourier_sum(n).total == reference_fourier_total(n)

    @pytest.mark.parametrize("n_max", [-1, 5, 6, 7, 8, 100, 2000])
    def test_suites_match_the_per_n_loops(self, n_max):
        assert suite_term_bounds(n_max) == reference_term_bounds(n_max)
        checks = suite_fourier(n_max)
        assert checks[2] == reference_fourier_mass(n_max)
        assert checks[1].observed["closed_form"] == reference_fourier_total(6)
        assert checks[3].observed["tv_bound"] == float(
            np.sqrt(reference_fourier_total(10)) / 2.0
        )

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_property_any_range_and_cap(self, data):
        n_hi = data.draw(st.integers(3, 400), label="n_hi")
        n_lo = data.draw(st.integers(3, n_hi), label="n_lo")
        cap = data.draw(st.integers(1, 500), label="cap")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectral, "_SWEEP_ENTRIES", cap)
            assert_sweep_is_per_n(n_lo, n_hi)
            assert suite_term_bounds(n_hi) == reference_term_bounds(n_hi)

    @pytest.mark.parametrize("suite", [suite_term_bounds, suite_fourier])
    def test_memory_stays_small(self, suite):
        # Flat arrays over all of n = 6..2000 would take about 16 MiB each.
        _, peak = peak_bytes(suite)
        assert peak < 2 * 2**20, peak
