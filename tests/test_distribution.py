from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import peak_bytes
from shiftwalk import (
    MAX_EXACT_N,
    BitVector,
    coordinate_marginal,
    evolve_exact,
    exact_tv_curve,
    point_mass,
    q1,
    q2,
    stream,
    tv_to_uniform,
    weight_moments,
)
from shiftwalk import distribution
from shiftwalk.chains import _step_word
from shiftwalk.distribution import (
    DistributionVector,
    _unshift,
    _unshift_index,
    exact_laws,
)


def uniform_law(n):
    return DistributionVector(n, np.full(1 << n, 2.0**-n))


def reference_inverse_shift_index(n):
    """Scatter construction: invert the forward shift map entry by entry."""
    idx = np.arange(1 << n, dtype=np.int64)
    par = (np.bitwise_count(idx.astype(np.uint64)).astype(np.int64)) & 1
    forward = (idx >> 1) | (par << (n - 1))
    inverse = np.empty_like(forward)
    inverse[forward] = idx
    return inverse


def reference_step(chain, probs, inv):
    """Pull form of the kernel, one fancy-index gather per pre-shift flip."""
    n = chain.n
    if chain.kind == "q1":
        out = 0.5 * probs[inv]
        w = 1.0 / (2 * n)
        for i in range(n):
            out += w * probs[inv ^ (1 << i)]
        return out
    m = chain.middle
    return 0.5 * (probs[inv] + probs[inv ^ (1 << (m - 1))])


def reference_evolve(chain, probs, steps):
    inv = reference_inverse_shift_index(chain.n)
    for _ in range(steps):
        probs = reference_step(chain, probs, inv)
    return probs


def rough_law(n, slab_bits, seed, dead, negative, subnormal):
    """A law on 2**n states: each slab of 2**slab_bits entries is all +0.0
    with probability ``dead``; elsewhere an entry is -0.0 with probability
    ``negative``, a subnormal mass with probability ``subnormal``, and a
    normal mass otherwise.  One entry holds a normal mass in any case."""
    gen = stream(seed, n)
    size = 1 << n
    u = gen.random(size)
    probs = gen.random(size)
    tiny = u < negative + subnormal
    probs[tiny] = gen.integers(1, 1 << 52, size, dtype=np.uint64).view(np.float64)[tiny]
    probs[u < negative] = -0.0
    probs.reshape(-1, 1 << slab_bits)[gen.random(size >> slab_bits) < dead] = 0.0
    probs[gen.integers(size)] = 1.0
    return probs / probs.sum()


def reference_curve(chain, x0, t_max):
    """(t, TV to uniform) for t = 0..t_max, stepped by ``reference_step``."""
    n = chain.n
    inv = reference_inverse_shift_index(n)
    probs = point_mass(n, x0).probs
    curve = []
    for t in range(t_max + 1):
        curve.append((t, 0.5 * float(np.abs(probs - 2.0**-n).sum())))
        probs = reference_step(chain, probs, inv)
    return curve


class TestConstruction:
    def test_point_mass(self):
        d = point_mass(2, BitVector.zeros(2))
        assert d.probs.tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_point_mass_tv(self):
        for n in (2, 5, 9):
            d = point_mass(n, BitVector(n, 1))
            assert tv_to_uniform(d) == pytest.approx(1 - 2.0**-n, abs=1e-15)

    def test_point_mass_moments(self):
        assert weight_moments(point_mass(6, BitVector.zeros(6))) == (0.0, 0.0)

    def test_guard(self):
        with pytest.raises(ValueError, match="MiB"):
            point_mass(MAX_EXACT_N + 1, BitVector.zeros(MAX_EXACT_N + 1))

    def test_validation(self):
        with pytest.raises(ValueError):
            DistributionVector(2, np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            DistributionVector(1, np.array([1.5, -0.5]))
        with pytest.raises(ValueError):
            DistributionVector(1, np.array([0.7, 0.7]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("others", [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, np.inf, 0.0)])
    def test_rejects_non_finite_entries(self, bad, others):
        # NaN compares false both ways, so each test must fail on it.
        with pytest.raises(ValueError):
            DistributionVector(2, np.array([bad, *others]))

    def test_non_finite_messages(self):
        with pytest.raises(ValueError, match="NaN probability entry"):
            DistributionVector(2, np.array([np.nan, 1.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match="mass inf not 1"):
            DistributionVector(2, np.array([np.inf, 0.0, 0.0, 0.0]))


class TestEvolve:
    def test_zero_steps_identity(self):
        d = point_mass(4, BitVector.zeros(4))
        assert evolve_exact(q1(4), d, 0) is d

    def test_q2_uniform_at_n(self):
        d = evolve_exact(q2(4), point_mass(4, BitVector.zeros(4)), 4)
        assert np.max(np.abs(d.probs - 1 / 16)) <= 1e-15

    def test_q1_tv_bound_at_n_plus_1(self):
        n = 6
        d = evolve_exact(q1(n), point_mass(n, BitVector.zeros(n)), n + 1)
        assert tv_to_uniform(d) <= 2 / n

    def test_mass_conserved(self):
        d = point_mass(6, BitVector.from_string("010101"))
        d = evolve_exact(q1(6), d, 25)
        assert abs(d.probs.sum() - 1.0) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            evolve_exact(q1(5), point_mass(4, BitVector.zeros(4)), 1)
        with pytest.raises(ValueError):
            evolve_exact(q1(4), point_mass(4, BitVector.zeros(4)), -1)

    def test_one_step_matches_enumerated_kernel_exactly(self):
        # independent dense kernel built by enumerating every (u, r) move
        # through the packed-word step
        for chain, moves in (
            (q1(5), [(u, r) for u in range(1, 6) for r in (0, 1)]),
            (q2(6), [(3, 0), (3, 1)]),
        ):
            n = chain.n
            size = 1 << n
            kernel = np.zeros((size, size))
            prob = 1.0 / len(moves)
            for word in range(size):
                for u, r in moves:
                    kernel[word, _step_word(n, word, u, r)] += prob
            gen = stream(55, n)
            d = DistributionVector(n, gen.dirichlet(np.ones(size)))
            stepped = evolve_exact(chain, d, 1)
            assert np.max(np.abs(stepped.probs - d.probs @ kernel)) <= 1e-15

    def test_one_step_matches_empirical_kernel(self):
        # 10^6 sampled single steps (via the chain step, not this module)
        # against the exact one-step distribution
        n, trials = 6, 1_000_000
        x0 = BitVector.from_string("110100")
        exact = evolve_exact(q1(n), point_mass(n, x0), 1).probs
        gen = stream(2024, 0)
        u = gen.integers(1, n + 1, size=trials).tolist()
        r = gen.integers(0, 2, size=trials).tolist()
        counts = np.zeros(1 << n, dtype=np.int64)
        word = x0.word
        for ui, ri in zip(u, r):
            counts[_step_word(n, word, ui, ri)] += 1
        emp = counts / trials
        se = np.sqrt(exact * (1 - exact) / trials)
        assert np.all(np.abs(emp - exact) <= 4 * se + 1e-12)


class TestAgainstReference:
    """The in-place step equals the pull-form reference bit for bit."""

    CHAINS = [q1(n) for n in range(1, 17)] + [q2(n) for n in range(2, 17, 2)]

    @pytest.mark.parametrize("slab_bits", [1, 2, 3, 4, distribution._SLAB_BITS])
    def test_piecewise_inverse_shift(self, slab_bits):
        # Gathering the states themselves gives the inverse shift: pieces of
        # the module's own size up to n = 20, and of 2 to 16 entries (up to
        # 2^15 piece pairs) up to n = 16.
        top = 20 if slab_bits == distribution._SLAB_BITS else 16
        with mock.patch.object(distribution, "_SLAB_BITS", slab_bits):
            for n in range(1, top + 1):
                out = np.empty(1 << n, dtype=np.int64)
                _unshift(np.arange(1 << n), out, _unshift_index(n))
                assert np.array_equal(out, reference_inverse_shift_index(n)), n

    @pytest.mark.parametrize("n", [16, 18])
    def test_memory_is_two_buffers(self, n):
        # Two 2^n-word buffers, the index (2^16 words) and numpy's ufunc
        # buffer, which the flips of bits 2..12 take, with 16 KiB to spare:
        # a third buffer would not fit, nor at n = 18 a 2^n index.
        _, peak = peak_bytes(exact_tv_curve, q1(n), BitVector.zeros(n), 3)
        assert peak < 2 * 2**n * 8 + 2**16 * 8 + np.getbufsize() * 8 + 16 * 1024

    @pytest.mark.parametrize("chain", CHAINS, ids=lambda c: f"{c.kind}-n{c.n}")
    def test_point_mass_and_random_vector(self, chain):
        n = chain.n
        gen = stream(77, n)
        starts = [
            point_mass(n, BitVector.random(n, gen)),
            DistributionVector(n, gen.dirichlet(np.ones(1 << n))),
        ]
        for d in starts:
            for steps in (1, 3):
                assert (
                    evolve_exact(chain, d, steps).probs.tobytes()
                    == reference_evolve(chain, d.probs, steps).tobytes()
                )

    @pytest.mark.parametrize("chain", [q1(20), q2(20)], ids=lambda c: f"{c.kind}-n{c.n}")
    def test_benchmark_size(self, chain):
        # n = 20, the size of the exact-n20 benchmark: 8 MiB arrays.
        d = DistributionVector(20, stream(77, 20).dirichlet(np.ones(1 << 20)))
        assert (
            evolve_exact(chain, d, 1).probs.tobytes()
            == reference_step(chain, d.probs, reference_inverse_shift_index(20)).tobytes()
        )

    def test_curve_matches_reference(self):
        for chain in (q1(9), q2(10)):
            x0 = BitVector(chain.n, 1 << 2)
            assert exact_tv_curve(chain, x0, chain.n + 1) == reference_curve(
                chain, x0, chain.n + 1
            )

    def test_law_sweep_matches_reference(self):
        for chain in (q1(9), q2(10)):
            n = chain.n
            x0 = BitVector(n, 1 << 2)
            inv = reference_inverse_shift_index(n)
            probs = point_mass(n, x0).probs
            times = []
            for t, d in exact_laws(chain, x0, n + 1):
                assert d.n == n and d.probs.tobytes() == probs.tobytes()
                probs = reference_step(chain, probs, inv)
                times.append(t)
            assert times == list(range(n + 2))

    def test_input_is_not_mutated(self):
        for chain in (q1(8), q2(8)):
            d = DistributionVector(8, stream(5, 0).dirichlet(np.ones(256)))
            before = d.probs.copy()
            evolve_exact(chain, d, 4)
            assert np.array_equal(d.probs, before)

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(1, 10),
        kind=st.sampled_from(["q1", "q2"]),
        steps=st.integers(1, 4),
    )
    def test_property_mass_and_reference(self, data, n, kind, steps):
        if kind == "q2":
            n += n % 2
        weights = data.draw(
            arrays(np.float64, 1 << n, elements=st.floats(0.0, 1.0)).filter(
                lambda a: a.sum() > 0
            )
        )
        d = DistributionVector(n, weights / weights.sum())
        chain = q1(n) if kind == "q1" else q2(n)
        stepped = evolve_exact(chain, d, steps).probs
        assert abs(float(stepped.sum()) - 1.0) <= 1e-12
        assert stepped.tobytes() == reference_evolve(chain, d.probs, steps).tobytes()

    @settings(max_examples=240, deadline=None)
    @given(
        n=st.integers(1, 12),
        slab_bits=st.integers(1, 4),
        kind=st.sampled_from(["q1", "q2"]),
        start=st.sampled_from(["point", "dirichlet", "rough"]),
        shares=st.tuples(*[st.sampled_from([0.0, 0.3, 0.7, 1.0])] * 3),
        steps=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_small_slabs(self, n, slab_bits, kind, start, shares, steps, seed):
        # Slabs of 2 to 16 entries: the slab loop runs over many slabs, each
        # adding its partner slabs' products, at sizes the reference steps
        # fast.  A rough law has whole slabs of +0.0, which skip their
        # average and add no partner products, beside -0.0 entries, which
        # +0.0 turns into +0.0, and subnormal masses; the bytes must match.
        if kind == "q2":
            n += n % 2
        chain = q1(n) if kind == "q1" else q2(n)
        gen = stream(seed, n)
        if start == "point":
            d = point_mass(n, BitVector.random(n, gen))
        elif start == "dirichlet":
            d = DistributionVector(n, gen.dirichlet(np.ones(1 << n)))
        else:
            d = DistributionVector(n, rough_law(n, min(n, slab_bits), seed, *shares))
        with mock.patch.object(distribution, "_SLAB_BITS", slab_bits):
            stepped = evolve_exact(chain, d, steps).probs
        assert stepped.tobytes() == reference_evolve(chain, d.probs, steps).tobytes()

    def test_zero_slabs_signed_zeros_subnormals_across_slabs(self):
        # Rough laws (see test_property_small_slabs) at n = 17: 4 slabs of
        # 2**15 entries, with the complex flips of bits 1 and 2.
        n = 17
        for seed, shares in ((1, (0.5, 0.7, 0.3)), (2, (0.3, 1.0, 0.0)), (3, (0.7, 0.0, 0.3))):
            d = DistributionVector(n, rough_law(n, distribution._SLAB_BITS, seed, *shares))
            for steps in (1, 2):
                assert (
                    evolve_exact(q1(n), d, steps).probs.tobytes()
                    == reference_evolve(q1(n), d.probs, steps).tobytes()
                ), (seed, steps)

    @pytest.mark.parametrize("n", [17, 18])
    def test_curve_across_slabs(self, n):
        # 2 and 4 slabs of 2**15 entries, each adding its partners' products.
        chain = q1(n)
        x0 = BitVector.random(n, stream(41, n))
        assert exact_tv_curve(chain, x0, n + 1) == reference_curve(chain, x0, n + 1)


class TestTV:
    def test_uniform_is_zero(self):
        assert tv_to_uniform(uniform_law(5)) == 0.0

    def test_two_point_mixture(self):
        probs = np.zeros(4)
        probs[0] = probs[3] = 0.5
        assert tv_to_uniform(DistributionVector(2, probs)) == pytest.approx(0.5)


class TestMoments:
    def test_uniform_moments(self):
        mean, var = weight_moments(uniform_law(8))
        assert mean == pytest.approx(4.0, abs=1e-12)
        assert var == pytest.approx(2.0, abs=1e-12)

    def test_marginal_bounds(self):
        d = uniform_law(4)
        assert coordinate_marginal(d, 1) == pytest.approx(0.5)
        for coord in (0, 5):
            with pytest.raises(ValueError):
                coordinate_marginal(d, coord)

    def test_marginal_equals_masked_sum(self):
        """Bit for bit equal to the sum over the states whose bit is set."""

        def masked(d, coord):
            idx = np.arange(1 << d.n, dtype=np.int64)
            return float(d.probs[(idx >> (coord - 1)) & 1 == 1].sum())

        for n in range(1, 11):
            start = BitVector(n, 1)
            laws = [(t, d.probs.copy()) for t, d in exact_laws(q1(n), start, n + 2)]
            laws.append((-1, stream(9, n).dirichlet(np.ones(1 << n))))
            for t, probs in laws:
                d = DistributionVector(n, probs)
                for coord in range(1, n + 1):
                    assert coordinate_marginal(d, coord) == masked(d, coord), (n, t, coord)


class TestCurve:
    def test_starts_at_point_mass_distance(self):
        curve = exact_tv_curve(q1(5), BitVector.zeros(5), 3)
        assert curve[0] == (0, pytest.approx(1 - 2.0**-5))

    def test_q2_hits_zero_at_n(self):
        curve = dict(exact_tv_curve(q2(6), BitVector.zeros(6), 6))
        assert curve[6] <= 1e-12

    def test_nonincreasing(self):
        for chain in (q1(6), q2(6)):
            values = [tv for _, tv in exact_tv_curve(chain, BitVector.zeros(6), 12)]
            for a, b in zip(values, values[1:]):
                assert b <= a + 1e-12

    def test_q2_exact_from_random_starts(self):
        gen = stream(31, 0)
        for n in (4, 6, 8, 10):
            chain = q2(n)
            for _ in range(16):
                x0 = BitVector.random(n, gen)
                d = evolve_exact(chain, point_mass(n, x0), n)
                assert tv_to_uniform(d) <= 1e-12
