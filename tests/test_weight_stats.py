import math
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import peak_bytes
from shiftwalk import (
    BitVector,
    DrivingSequence,
    chebyshev_window,
    coordinate_marginal,
    empirical_tv_lower_bound,
    evolve_exact,
    mean_weight_closed_form,
    mean_weight_recursion,
    point_mass,
    prob_first_coord_one,
    q1,
    q2,
    random_driving,
    replay_divergence,
    sample_weights,
    simulate,
    stationary_weight_pmf,
    stream,
    variance_bound_check,
    weight_moments,
)
from shiftwalk import chains, suites, weight_stats
from shiftwalk.chains import _draw_driving_blocks
from shiftwalk.distribution import exact_laws
from shiftwalk.weight_stats import histogram_tv, weight_counts


def flip_bit(driving: DrivingSequence, i: int) -> DrivingSequence:
    """``driving`` with the update bit at 1-based time ``i`` toggled."""
    bits = list(driving.bits)
    bits[i - 1] ^= 1
    return DrivingSequence(driving.coords, tuple(bits))


def replace_coord(driving: DrivingSequence, i: int, u: int) -> DrivingSequence:
    """``driving`` with the update coordinate at 1-based time ``i`` set to u."""
    coords = list(driving.coords)
    coords[i - 1] = u
    return DrivingSequence(tuple(coords), driving.bits)


def reference_sample_weights(chain, x0, ts, samples, seed):
    """``sample_weights`` with every trajectory drawn and stepped at once,
    (samples, n+1) cells and (samples, t_max) driving arrays: the kernel
    the block-wise one replaced."""
    ts = sorted(set(int(t) for t in ts))
    n = chain.n
    t_max = ts[-1] if ts else 0
    coords_all = None
    if chain.kind == "q1":
        coords_all = np.empty((samples, t_max), dtype=np.int64)
    bits_all = np.empty((samples, t_max), dtype=np.uint8)
    for i, coords, bits in _draw_driving_blocks(chain, t_max, seed, 0, samples):
        if coords_all is not None:
            coords_all[i : i + len(bits)] = coords
        bits_all[i : i + len(bits)] = bits
    m = n + 1
    cells = np.empty((samples, m), dtype=np.uint8)
    cells[:, :n] = np.array(list(x0), dtype=np.uint8)
    cells[:, n] = x0.parity()
    flat = cells.reshape(-1)
    row_starts = np.arange(0, samples * m, m)
    ones = np.full(samples, x0.weight() + x0.parity(), dtype=np.int64)
    out = {}
    for s in range(t_max + 1):
        parity = cells[:, (n + s) % m]
        if s in ts:
            out[s] = ones - parity
        if s == t_max:
            break
        r = bits_all[:, s]
        if coords_all is None:
            col = (chain.middle - 1 + s) % m
        else:
            col = (coords_all[:, s] - 1 + s) % m
        updated = row_starts + col
        both = flat[updated]
        flat[updated] = both ^ r
        both += parity
        parity ^= r
        ones += r * (2 - 2 * both.view(np.int8))
    return out


class TestMeanFormulas:
    def test_boundary_values(self):
        assert mean_weight_closed_form(7, 0) == 0.0
        assert mean_weight_closed_form(7, 7) == pytest.approx(3.5)
        assert mean_weight_recursion(9, 0) == 0.0

    def test_frozen_value(self):
        expected = float(Fraction(921, 432))
        assert mean_weight_closed_form(6, 3) == pytest.approx(expected, rel=1e-14)

    def test_one_step_recursion(self):
        for n in (2, 5, 40):
            assert mean_weight_recursion(n, 1) == pytest.approx((2 * n - 1) / (2 * n))
            assert mean_weight_closed_form(n, 1) == \
                pytest.approx(mean_weight_recursion(n, 1), abs=1e-14)

    def test_recursion_equals_closed_form(self):
        # absolute at small magnitudes, relative once the mean is large; a
        # 5000-step float64 iteration cannot do better than ~1e-12 relative
        for n in (2, 6, 137, 10_000):
            for t in sorted({0, 1, n // 2, n - 1, n}):
                assert mean_weight_recursion(n, t) == pytest.approx(
                    mean_weight_closed_form(n, t), rel=1e-12, abs=1e-12
                )

    def test_rejects_t_beyond_n(self):
        with pytest.raises(ValueError):
            mean_weight_closed_form(5, 6)
        with pytest.raises(ValueError):
            mean_weight_recursion(5, 6)
        with pytest.raises(ValueError):
            prob_first_coord_one(5, 6)

    def test_exact_oracle_agreement(self):
        for n in (2, 5, 8):
            for t, d in exact_laws(q1(n), BitVector.zeros(n), n):
                mean, _ = weight_moments(d)
                assert mean == pytest.approx(
                    mean_weight_closed_form(n, t), abs=1e-12
                )

    def test_displacement_envelope(self):
        for n in (100, 1000, 10_000):
            for alpha in (0.6, 0.75, 0.9):
                t = round(n - n**alpha)
                assert mean_weight_closed_form(n, t) <= \
                    n / 2 - n**alpha / (2 * math.e)


class TestFirstCoordinate:
    def test_boundary_values(self):
        assert prob_first_coord_one(8, 0) == 0.0
        for n in (2, 9):
            assert prob_first_coord_one(n, 1) == pytest.approx(1 / (2 * n))

    def test_exact_oracle_agreement_below_n(self):
        for n in (2, 4, 6, 8):
            for t, d in exact_laws(q1(n), BitVector.zeros(n), n - 1):
                assert coordinate_marginal(d, 1) == pytest.approx(
                    prob_first_coord_one(n, t), abs=1e-12
                )

    def test_marginal_is_exactly_half_at_t_equal_n(self):
        # at t = n the traced bit is the appended parity of step one, which
        # is uniform; the backward-trace formula stops applying here
        for n in (2, 3, 4, 6, 8):
            d = evolve_exact(q1(n), point_mass(n, BitVector.zeros(n)), n)
            assert coordinate_marginal(d, 1) == pytest.approx(0.5, abs=1e-12)
            assert prob_first_coord_one(n, n) != pytest.approx(0.5, abs=1e-3)


class TestBoundedDifferences:
    def test_zero_driving_flip(self):
        chain = q1(8)
        driving = DrivingSequence((3,) * 8, (0,) * 8)
        div = replay_divergence(chain, BitVector.zeros(8), driving,
                                flip_bit(driving, 4))
        assert div.weight_diff in (0, 1, 2)

    def test_random_flips_bounded(self):
        gen = stream(21, 0)
        worst = 0
        worst_hamming = 0
        for _ in range(2000):
            n = int(gen.integers(2, 33))
            t = int(gen.integers(1, n + 1))
            driving = random_driving(q1(n), t, seed=int(gen.integers(1 << 30)))
            x0 = BitVector.random(n, gen)
            i = int(gen.integers(1, t + 1))
            div = replay_divergence(q1(n), x0, driving, flip_bit(driving, i))
            worst = max(worst, div.weight_diff)
            worst_hamming = max(worst_hamming, div.max_hamming)
        assert worst <= 2
        assert worst_hamming <= 2

    def test_last_step_flip_at_coordinate_one(self):
        # flipping the final bit with update coordinate 1: the pre-shift
        # words differ only at position 1, which shifts out, so the states
        # differ only in the appended parity
        gen = stream(22, 0)
        for _ in range(200):
            n = int(gen.integers(2, 20))
            t = int(gen.integers(1, n + 1))
            coords = tuple(int(u) for u in gen.integers(1, n + 1, size=t - 1)) + (1,)
            bits = tuple(int(b) for b in gen.integers(0, 2, size=t))
            driving = DrivingSequence(coords, bits)
            x0 = BitVector.random(n, gen)
            a = simulate(q1(n), x0, driving)[-1]
            b = simulate(q1(n), x0, flip_bit(driving, t))[-1]
            assert (a ^ b).weight() == 1
            assert abs(a.weight() - b.weight()) <= 1

    def test_coord_change_with_zero_bit_is_silent(self):
        gen = stream(23, 0)
        for _ in range(200):
            n = int(gen.integers(2, 20))
            t = int(gen.integers(1, n + 1))
            coords = tuple(int(u) for u in gen.integers(1, n + 1, size=t))
            bits = list(int(b) for b in gen.integers(0, 2, size=t))
            i = int(gen.integers(1, t + 1))
            bits[i - 1] = 0
            driving = DrivingSequence(coords, tuple(bits))
            u_new = int(gen.integers(1, n + 1))
            div = replay_divergence(q1(n), BitVector.random(n, gen), driving,
                                    replace_coord(driving, i, u_new))
            assert div.weight_diff == 0

    def test_coord_change_same_coordinate_is_identity(self):
        driving = random_driving(q1(12), 10, seed=3)
        x0 = BitVector.zeros(12)
        other = replace_coord(driving, 5, driving.coords[4])
        assert replay_divergence(q1(12), x0, driving, other).weight_diff == 0

    def test_random_coord_changes_bounded(self):
        gen = stream(24, 0)
        worst = 0
        for _ in range(2000):
            n = int(gen.integers(2, 33))
            t = int(gen.integers(1, n + 1))
            driving = random_driving(q1(n), t, seed=int(gen.integers(1 << 30)))
            i = int(gen.integers(1, t + 1))
            u_new = int(gen.integers(1, n + 1))
            div = replay_divergence(
                q1(n), BitVector.random(n, gen), driving,
                replace_coord(driving, i, u_new),
            )
            worst = max(worst, max(div.weight_diff, div.max_hamming))
        assert worst <= 2

    def test_validation(self):
        driving = random_driving(q1(6), 4, seed=1)
        with pytest.raises(ValueError):
            replay_divergence(q1(6), BitVector.zeros(6), driving,
                              random_driving(q1(6), 5, seed=1))
        with pytest.raises(ValueError):
            replay_divergence(q1(6), BitVector.zeros(6), driving,
                              replace_coord(driving, 1, 7))

    def test_validation_comes_before_any_step(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("stepped before checking the drivings")

        monkeypatch.setattr(chains, "_step_word", unreachable)
        driving = random_driving(q1(6), 4, seed=1)
        for other in (random_driving(q1(6), 5, seed=1), replace_coord(driving, 4, 7)):
            with pytest.raises(ValueError):
                replay_divergence(q1(6), BitVector.zeros(6), driving, other)
        # q2 replays only its middle coordinate, as simulate does.
        middle = DrivingSequence((3, 3), (1, 0))
        with pytest.raises(ValueError):
            replay_divergence(q2(6), BitVector.zeros(6), middle,
                              replace_coord(middle, 2, 2))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.integers(1, 70))
    def test_property_matches_two_simulated_paths(self, data, n):
        t = data.draw(st.integers(0, 2 * n))
        steps = st.lists(st.tuples(st.integers(1, n), st.integers(0, 1)),
                         min_size=t, max_size=t)
        a_steps, b_steps = data.draw(steps), data.draw(steps)
        a_driving, b_driving = (
            DrivingSequence(tuple(u for u, _ in p), tuple(r for _, r in p))
            for p in (a_steps, b_steps)
        )
        x0 = BitVector(n, data.draw(st.integers(0, (1 << n) - 1)))
        a = simulate(q1(n), x0, a_driving)
        b = simulate(q1(n), x0, b_driving)
        div = replay_divergence(q1(n), x0, a_driving, b_driving)
        assert div.max_hamming == max((x ^ y).weight() for x, y in zip(a, b))
        assert div.weight_diff == abs(a[-1].weight() - b[-1].weight())


class TestEnsemble:
    def test_matches_per_trajectory_replay(self):
        # 65535 and 65536 sit on either side of the uint16 coordinate buffer.
        for n in (12, 65535, 65536):
            chain, t, samples, seed = q1(n), 12, 40, 99
            weights = sample_weights(chain, BitVector.zeros(n), [5, t], samples, seed)
            for i in range(samples):
                states = simulate(chain, BitVector.zeros(n),
                                  random_driving(chain, t, seed, i))
                assert weights[t][i] == states[t].weight()
                assert weights[5][i] == states[5].weight()

    def test_q2_ensemble_matches_replay(self):
        chain = q2(10)
        weights = sample_weights(chain, BitVector.zeros(10), [10], 25, 7)
        for i in range(25):
            states = simulate(chain, BitVector.zeros(10),
                              random_driving(chain, 10, 7, i))
            assert weights[10][i] == states[-1].weight()

    def test_nonzero_start(self):
        x0 = BitVector.from_string("111000")
        weights = sample_weights(q1(6), x0, [0, 3], 10, 1)
        assert np.all(weights[0] == 3)
        states = simulate(q1(6), x0, random_driving(q1(6), 3, 1, 4))
        assert weights[3][4] == states[-1].weight()

    @settings(max_examples=80, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(1, 40),
        kind=st.sampled_from(["q1", "q2"]),
        samples=st.integers(1, 6),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_property_matches_replay_past_the_wrap(
        self, data, n, kind, samples, seed
    ):
        # The n+1 cells wrap from t = n+1 on; snapshots run to 3n+2.
        if kind == "q2":
            n += n % 2
        chain = q1(n) if kind == "q1" else q2(n)
        x0 = BitVector(n, data.draw(st.integers(0, (1 << n) - 1)))
        t_max = data.draw(st.integers(0, 3 * n + 2))
        ts = data.draw(st.lists(st.integers(0, t_max), max_size=8)) + [t_max]
        weights = sample_weights(chain, x0, ts, samples, seed)
        assert sorted(weights) == sorted(set(ts))
        for i in range(samples):
            states = simulate(chain, x0, random_driving(chain, t_max, seed, i))
            for t, w in weights.items():
                assert w[i] == states[t].weight()

    @settings(max_examples=160, deadline=None)
    @given(
        data=st.data(),
        n=st.one_of(st.integers(1, 70), st.sampled_from([1, 2, 4, 8, 16, 32, 64, 128])),
        kind=st.sampled_from(["q1", "q2"]),
        samples=st.integers(1, 30),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_property_blocks_change_nothing(self, data, n, kind, samples, seed):
        if kind == "q2":
            n += n % 2
        chain = q1(n) if kind == "q1" else q2(n)
        word = data.draw(st.one_of(st.just(0), st.integers(0, (1 << n) - 1)))
        x0 = BitVector(n, word)
        # The steps before the first snapshot are applied in bulk: none of
        # them, one round of the n+1 cells, or several, where the cells
        # that a round's steps toggle wrap.
        m = n + 1
        skip = data.draw(st.one_of(
            st.sampled_from([0, m - 1, m, m + 1, 2 * m, 3 * m + 2]), st.integers(0, 3 * m)
        ))
        t_max = data.draw(st.integers(skip, skip + 2 * n + 2))
        ts = data.draw(st.lists(st.integers(skip, t_max), max_size=6))
        ts = ts + [skip, t_max] + ts[:2]
        # Blocks of per_block trajectories by their bytes, and of at most
        # max_block by their count.
        per_block = data.draw(st.sampled_from([1, 2, 7, samples + 1]))
        max_block = data.draw(st.sampled_from([1, 2, 7, samples + 1]))
        reference = reference_sample_weights(chain, x0, ts, samples, seed)
        with pytest.MonkeyPatch.context() as patch:
            # A block's working set is about n + 1 + 3 (t_max - skip) bytes
            # a trajectory.
            patch.setattr(weight_stats, "_BLOCK_BYTES", per_block * (m + 3 * (t_max - skip)))
            patch.setattr(weight_stats, "_MIN_BLOCK", 1)
            patch.setattr(weight_stats, "_MAX_BLOCK", max_block)
            weights = sample_weights(chain, x0, ts, samples, seed)
            counts = weight_counts(chain, x0, ts, samples, seed)
        assert sorted(weights) == sorted(counts) == sorted(reference)
        for t, w in reference.items():
            assert weights[t].dtype == np.int64
            assert np.array_equal(weights[t], w)
            assert np.array_equal(counts[t], np.bincount(w, minlength=n + 1))

    def test_count_memory_does_not_grow_with_samples(self):
        # With snapshots at 0 and t, `small` trajectories of q1(256) fill
        # one block, so both sample counts step blocks of `small`; the
        # all-at-once kernel's peak grew from 8.1 to 161 MiB between the two.
        n, small, large = 256, 2_000, 40_000
        t = (weight_stats._BLOCK_BYTES // small - (n + 1)) // 3
        peaks = []
        for samples in (small, large):
            counts, peak = peak_bytes(
                weight_counts, q1(n), BitVector.zeros(n), [0, t], samples, 3
            )
            peaks.append(peak)
            assert counts[t].sum() == samples
        assert abs(peaks[1] - peaks[0]) < 2**20

    def test_profile_window_memory(self):
        # mc-n1024's kernel: the 843 steps before the first snapshot are
        # applied as their streams are decoded.  The kernel that stepped
        # them one by one peaked at 8.7 MiB here, this one at 6.0 MiB.
        counts, peak = peak_bytes(
            weight_counts, q1(1024), BitVector.zeros(1024), range(843, 1026), 5000, 8
        )
        assert sorted(counts) == list(range(843, 1026))
        assert peak < 7 * 2**20, peak

    @settings(max_examples=80, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(1, 40),
        kind=st.sampled_from(["q1", "q2"]),
        samples=st.integers(1, 20),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_property_horizons_share_one_draw(self, data, n, kind, samples, seed):
        # Each horizon reads the streams as a driving of its own length,
        # so it gives sample_weights' weights at its times.
        if kind == "q2":
            n += n % 2
        chain = q1(n) if kind == "q1" else q2(n)
        x0 = BitVector(n, data.draw(st.integers(0, (1 << n) - 1)))
        times = st.lists(st.integers(0, 3 * n + 2), max_size=4)
        horizons = data.draw(st.lists(times, min_size=1, max_size=4))
        max_block = data.draw(st.sampled_from([1, 2, 7, samples + 1]))
        got = [{} for _ in horizons]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(weight_stats, "_MIN_BLOCK", 1)
            patch.setattr(weight_stats, "_MAX_BLOCK", max_block)
            blocks = weight_stats._weight_blocks(chain, x0, horizons, samples, seed)
            for j, t, weights in blocks:
                got[j].setdefault(t, []).append(weights)
        for ts, parts in zip(horizons, got):
            want = sample_weights(chain, x0, ts, samples, seed)
            assert sorted(parts) == sorted(want)
            for t, w in want.items():
                assert np.array_equal(np.concatenate(parts[t]), w)


class TestVarianceBound:
    def test_zero_time(self):
        rep = variance_bound_check(16, 0, 100, seed=0)
        assert rep.passed and rep.estimate == 0.0 and rep.bound == 0.0

    def test_exact_variance_below_4t(self):
        for n in (4, 7, 10):
            for t, d in exact_laws(q1(n), BitVector.zeros(n), n):
                _, var = weight_moments(d)
                assert var <= 4 * t + 1e-12

    @pytest.mark.parametrize("samples", [0, -1])
    def test_rejects_no_trajectories(self, samples):
        with pytest.raises(ValueError, match="samples must be >= 1"):
            variance_bound_check(16, 4, samples, seed=0)

    def test_one_trajectory_does_not_pass(self):
        # Its estimate and standard error are both 0, which says nothing.
        rep = variance_bound_check(128, 64, 1, seed=0)
        assert rep.estimate == 0.0 and rep.std_error == 0.0
        assert rep.passed is False

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_suite_reports_each_horizon_as_its_check(self, seed):
        # The suite draws the streams once for both horizons.
        for samples in (0, 1, 2, 999, 20_000):
            sampled = [c.observed for c in suites.suite_variance(samples=samples, seed=seed)[1:]]
            assert [o["t"] for o in sampled] == [64, 128]
            for observed in sampled:
                if samples == 0:
                    want = {"n": 128, "t": observed["t"], "samples": 0, "seed": seed}
                else:
                    want = asdict(variance_bound_check(128, observed["t"], samples, seed))
                assert observed == want

    def test_suite_memory(self):
        # Blocks of 4000 trajectories; the float weights of both horizons,
        # 2 x 160 kB, are held to the end.
        _, peak = peak_bytes(suites.suite_variance, samples=20_000, seed=0)
        assert peak < 4 * 2**20

    def test_sampled_variance_n128(self):
        rep = variance_bound_check(128, 128, 5000, seed=11)
        assert rep.passed
        assert rep.estimate <= rep.bound + 3 * rep.std_error
        assert rep.n == 128 and rep.t == 128


class TestChebyshev:
    def test_formula_value(self):
        # delta = 41.2035688354936 here.
        t, bound = chebyshev_window(10**6, alpha=0.9, c=5.0)
        assert t == 748811
        assert bound == pytest.approx(0.987643918422881, rel=1e-12)

    def test_default_c_is_log_n(self):
        for n, alpha in ((10**6, 0.9), (10**9, 0.75)):
            window = chebyshev_window(n, alpha)
            assert window is not None
            assert window == chebyshev_window(n, alpha, c=math.log(n))

    def test_t_is_rounded(self):
        # n - n^alpha = 842.98 and delta = 0.54 > 0.
        assert chebyshev_window(1024, alpha=0.75, c=0.5) == (843, 0.0)

    def test_degenerate_window(self):
        # at n = 10^6, alpha = 0.75, c = log n the window is negative
        assert chebyshev_window(10**6, alpha=0.75) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            chebyshev_window(100, alpha=0.4)
        with pytest.raises(ValueError):
            chebyshev_window(100, alpha=0.75, c=-1.0)
        with pytest.raises(ValueError):
            chebyshev_window(100, alpha=0.75, c=0.0)
        for n in (1, 0, -5):
            with pytest.raises(ValueError):
                chebyshev_window(n, alpha=0.75, c=1.0)

    @pytest.mark.parametrize("alpha, c", [
        (math.nan, None), (math.inf, None), (0.75, math.nan), (0.75, math.inf),
        (0.75, -math.inf),
    ])
    def test_rejects_non_finite(self, alpha, c):
        with pytest.raises(ValueError):
            chebyshev_window(100, alpha=alpha, c=c)

    def test_tiny_c_gives_zero(self):
        # 1/(4c^2) exceeds 1 for c <= 1/2; at c = 1e-300 c^2 underflows to 0.
        for c in (1e-300, 1e-160, 0.5):
            t, bound = chebyshev_window(10**6, alpha=0.9, c=c)
            assert t == 748811 and bound == 0.0


class TestEmpiricalLowerBound:
    def test_degenerate_time_zero(self):
        n = 16
        value = empirical_tv_lower_bound(q1(n), BitVector.zeros(n), 0, 500, seed=5)
        assert value == pytest.approx(1 - stationary_weight_pmf(n)[0], abs=1e-12)

    def test_stationary_chain_shows_no_signal(self):
        value = empirical_tv_lower_bound(q2(16), BitVector.zeros(16), 16,
                                         100_000, seed=6)
        assert value <= 0.02

    def test_prestationary_chain_shows_signal(self):
        n = 256
        t = round(n - n**0.75)
        value = empirical_tv_lower_bound(q1(n), BitVector.zeros(n), t, 2000, seed=7)
        assert value >= 0.5

    def test_pmf_normalization(self):
        for n in (10, 1000, 2**14):
            assert stationary_weight_pmf(n).sum() == pytest.approx(1.0, abs=1e-9)

    def test_pmf_rejects_n_beyond_its_range(self):
        assert stationary_weight_pmf(2**14).shape == (2**14 + 1,)
        with pytest.raises(ValueError):
            stationary_weight_pmf(2**14 + 1)

    def test_n_beyond_the_pmf_is_rejected_before_sampling(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("sampled before checking n")

        monkeypatch.setattr(weight_stats, "weight_counts", unreachable)
        n = 2**14 + 2
        with pytest.raises(ValueError, match="stationary weight law"):
            empirical_tv_lower_bound(q1(n), BitVector.zeros(n), 1, 10, seed=0)

    def test_histogram_rows(self):
        # The estimate is the TV of the histogram of the sampled weights.
        weights = sample_weights(q1(8), BitVector.zeros(8), [4], 300, seed=2)[4]
        counts = np.bincount(weights, minlength=9)
        assert counts.shape == (9,) and counts.sum() == 300
        value = empirical_tv_lower_bound(q1(8), BitVector.zeros(8), 4, 300, seed=2)
        assert value == histogram_tv(counts, stationary_weight_pmf(8))[0]

    def test_histogram_tv_and_its_error(self):
        pmf = np.array([0.25, 0.5, 0.25])
        assert histogram_tv(np.array([1, 2, 1]), pmf) == (0.0, 0.25)
        assert histogram_tv(np.array([4, 0, 0]), pmf) == (0.75, 0.0)
        tv, se = histogram_tv(np.array([3, 1, 0]), pmf)  # signed mean 1/2
        assert tv == 0.5 and se == pytest.approx(0.5 * math.sqrt(0.75 / 4), rel=1e-15)
