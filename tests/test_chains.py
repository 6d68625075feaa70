import itertools

import pytest

from shiftwalk import (
    BitVector,
    DrivingSequence,
    evolve_symbolic,
    q1,
    q2,
    random_driving,
    shift_register,
    simulate,
    stream,
)
from shiftwalk.chains import _step_word


def bit_vector(bits):
    """The vector whose coordinate i+1 is bits[i]."""
    return BitVector.from_string("".join(map(str, bits)))


def table_t6(r):
    """Final state of the six-step middle-coordinate walk from 0 as an
    explicit function of the driving bits (independent hand derivation)."""
    r1, r2, r3, r4, r5, r6 = r
    return bit_vector([r1 ^ r5, r2 ^ r6, r3, r1 ^ r4, r2 ^ r5, r3 ^ r6])


class TestChainKind:
    def test_q2_requires_even(self):
        with pytest.raises(ValueError):
            q2(5)
        assert q2(6).middle == 3

    def test_q1_has_no_fixed_coordinate(self):
        with pytest.raises(ValueError):
            q1(5).middle

    def test_unknown_kind(self):
        from shiftwalk import ChainKind
        with pytest.raises(ValueError):
            ChainKind("q3", 4)


class TestSteps:
    def test_zero_state_no_flip(self):
        for u in range(1, 6):
            assert _step_word(5, 0, u, 0) == 0

    def test_flip_then_shift(self):
        out = BitVector(4, _step_word(4, 0, 2, 1))
        assert out == shift_register(BitVector.from_string("0100"))
        assert out.to_string() == "1001"

    def test_coordinate_range(self):
        with pytest.raises(ValueError):
            simulate(q1(4), BitVector.zeros(4), DrivingSequence((5,), (1,)))
        with pytest.raises(ValueError):
            simulate(q1(4), BitVector.zeros(4), DrivingSequence((0,), (1,)))

    def test_bit_validation(self):
        with pytest.raises(ValueError):
            simulate(q1(4), BitVector.zeros(4), DrivingSequence((1,), (2,)))

    def test_q2_first_step(self):
        one, zero = (DrivingSequence((3,), (r,)) for r in (1, 0))
        assert simulate(q2(6), BitVector.zeros(6), one)[-1].to_string() == "010001"
        assert simulate(q2(6), BitVector.zeros(6), zero)[-1] == BitVector.zeros(6)

    def test_q2_two_steps(self):
        x = simulate(q2(6), BitVector.zeros(6), DrivingSequence((3, 3), (1, 0)))[-1]
        assert x.to_string() == "100010"

    def test_appended_bit_is_preshift_parity(self):
        gen = stream(11, 0)
        for _ in range(50):
            n = int(gen.integers(2, 20))
            x = BitVector.random(n, gen)
            u = int(gen.integers(1, n + 1))
            r = int(gen.integers(0, 2))
            flipped = x ^ BitVector(n, r << (u - 1))
            assert _step_word(n, x.word, u, r) >> (n - 1) == flipped.parity()


class TestSimulate:
    def test_empty_driving(self):
        x0 = BitVector.from_string("0110")
        assert simulate(q1(4), x0, DrivingSequence((), ())) == [x0]

    def test_q2_six_steps_matches_hand_table(self):
        chain = q2(6)
        for bits in itertools.product((0, 1), repeat=6):
            driving = DrivingSequence((3,) * 6, bits)
            states = simulate(chain, BitVector.zeros(6), driving)
            assert states[-1] == table_t6(bits)

    def test_weight_column_is_hamming_weight(self):
        driving = random_driving(q1(6), 10, seed=5)
        for x in simulate(q1(6), BitVector.zeros(6), driving):
            assert BitVector.from_string(x.to_string()).weight() == x.weight()

    def test_driving_validation(self):
        with pytest.raises(ValueError):
            simulate(q2(6), BitVector.zeros(6), DrivingSequence((2,), (1,)))
        with pytest.raises(ValueError):
            simulate(q1(4), BitVector.zeros(4), DrivingSequence((5,), (1,)))
        with pytest.raises(ValueError):
            DrivingSequence((1, 2), (1,))
        with pytest.raises(ValueError):
            DrivingSequence((1,), (2,))

    NAN = float("nan")

    @pytest.mark.parametrize("coords, bits, valid", [
        ((1, 3), (0, 1), True), ((2,), (True,), True), ((2,), (1.0,), True),
        ((), (), True),
        ((NAN, 2), (0, 1), True),  # NaN < 1 is false
        ((0,), (1,), False), ((-1,), (1,), False), ((2, 0), (1, 1), False),
        # A NaN before or after a 0: min over the first returns the NaN.
        ((NAN, 0), (1, 1), False), ((0, NAN), (1, 1), False),
        ((1,), (2,), False), ((1,), (-1,), False), ((1,), (NAN,), False),
        ((1, 1), (0, 2), False),
    ])
    def test_driving_checks_are_the_per_entry_checks(self, coords, bits, valid):
        """DrivingSequence accepts what ``u < 1`` and ``b not in (0, 1)``,
        tested entry by entry, accept."""
        assert valid == (not any(u < 1 for u in coords)
                         and not any(b not in (0, 1) for b in bits))
        if valid:
            assert DrivingSequence(coords, bits).bits == bits
        else:
            with pytest.raises(ValueError):
                DrivingSequence(coords, bits)


class TestSimulateRandom:
    def test_deterministic_for_fixed_seed(self):
        def path(seed):
            return simulate(q1(8), BitVector.zeros(8), random_driving(q1(8), 20, seed))

        assert path(42) == path(42)
        assert path(42) != path(43)

    def test_coordinate_frequencies(self):
        n, t = 8, 100_000
        driving = random_driving(q1(n), t, seed=9)
        counts = [0] * (n + 1)
        for u in driving.coords:
            counts[u] += 1
        sigma = (t * (1 / n) * (1 - 1 / n)) ** 0.5
        for u in range(1, n + 1):
            assert abs(counts[u] - t / n) <= 5 * sigma

    def test_last_coordinate_is_uniform_after_one_step(self):
        n, trials = 6, 20_000
        ones = 0
        for i in range(trials):
            driving = random_driving(q1(n), 1, seed=77, stream_index=i)
            x1 = simulate(q1(n), BitVector.zeros(n), driving)[1]
            ones += x1.bit(n - 1)
        # exactly Bernoulli(1/2); 5 sigma band
        assert abs(ones - trials / 2) <= 5 * (trials * 0.25) ** 0.5

    def test_q2_driving_uses_middle_only(self):
        driving = random_driving(q2(10), 7, seed=1)
        assert set(driving.coords) == {5}


class TestEvolveSymbolic:
    def test_zero_steps(self):
        x0 = BitVector.from_string("1010")
        state = evolve_symbolic(q1(4), x0, ())
        assert state.map.n_cols == 0
        assert state.offset == x0

    def test_q2_table_row(self):
        state = evolve_symbolic(q2(6), BitVector.zeros(6), 6)
        for bits in itertools.product((0, 1), repeat=6):
            assert state.map @ bit_vector(bits) ^ state.offset == \
                table_t6(bits)

    def test_exhaustive_replay_q1(self):
        gen = stream(13, 0)
        chain = q1(5)
        for t in range(1, 6):
            x0 = BitVector.random(5, gen)
            coords = tuple(int(u) for u in gen.integers(1, 6, size=t))
            state = evolve_symbolic(chain, x0, coords)
            for bits in itertools.product((0, 1), repeat=t):
                replay = simulate(chain, x0, DrivingSequence(coords, bits))[-1]
                assert state.map @ bit_vector(bits) ^ state.offset == replay

    def test_affine_correctness_random(self):
        gen = stream(14, 0)
        for n in (6, 8):
            chain = q1(n)
            for _ in range(3):
                t = int(gen.integers(1, n + 1))
                x0 = BitVector.random(n, gen)
                coords = tuple(int(u) for u in gen.integers(1, n + 1, size=t))
                state = evolve_symbolic(chain, x0, coords)
                for _ in range(16):
                    bits = tuple(int(b) for b in gen.integers(0, 2, size=t))
                    replay = simulate(chain, x0, DrivingSequence(coords, bits))[-1]
                    assert state.map @ bit_vector(bits) ^ state.offset == \
                        replay

    def test_step_count_only_for_q2(self):
        with pytest.raises(ValueError):
            evolve_symbolic(q1(4), BitVector.zeros(4), 3)

    def test_single_step_last_coordinate_tracks_bit(self):
        # the appended coordinate after one step from 0 equals the fresh bit
        state = evolve_symbolic(q1(6), BitVector.zeros(6), (5,))
        for r in (0, 1):
            assert (state.map @ BitVector(1, r) ^ state.offset).bit(5) == r
