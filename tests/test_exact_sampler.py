import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from shiftwalk import (
    BitVector,
    DrivingSequence,
    GF2Matrix,
    build_offset,
    det_gf2,
    evolve_symbolic,
    exact_sample,
    q2,
    rng,
    shift_register,
    simulate,
    solve_driving,
    solve_linear,
    stream,
)
from shiftwalk.chains import _step_word
from shiftwalk.exact_sampler import _sample_blocks


def reference_sample(x0, seed, stream_index=0):
    """The n-step middle-coordinate walk the closed-form sampler replaces."""
    n, m = x0.n, x0.n // 2
    word = x0.word
    for r in stream(seed, stream_index).integers(0, 2, size=n):
        word = _step_word(n, word, m, int(r))
    return BitVector(n, word)


def kernel_lines(x0, seed, start, count):
    """The block kernel's samples as strings, coordinate 1 first."""
    return ["".join(map(str, row))
            for block in _sample_blocks(x0, seed, start, count) for row in block]


def reference_solve(x0, z, matrix):
    """The GF(2) elimination on B the closed-form solver replaces."""
    return solve_linear(matrix, z ^ build_offset(x0)).bits


def transfer_map(m):
    """B: the map from update bits to the state after 2m q2 steps from 0."""
    n = 2 * m
    return evolve_symbolic(q2(n), BitVector.zeros(n), n).map


class TestTransferMatrix:
    def test_m1_blocks_collapse(self):
        b = transfer_map(1)
        # rows 10 and 11; bit j of a row word is column j
        assert b == GF2Matrix(2, 2, (0b01, 0b11))
        assert det_gf2(b) == 1

    def test_m3_explicit_grid(self):
        grid = ["100010", "010001", "001000", "100100", "010010", "001001"]
        assert transfer_map(3) == GF2Matrix(
            6, 6, tuple(BitVector.from_string(row).word for row in grid)
        )

    def test_unit_determinant(self):
        for m in range(1, 13):
            assert det_gf2(transfer_map(m)) == 1

    def test_matches_symbolic_evolution(self):
        # B has the block form [[I, C], [I, I]], C the m x m superdiagonal shift
        for m in range(1, 11):
            top = [(1 << i) | (1 << (m + i + 1) if i < m - 1 else 0)
                   for i in range(m)]
            bottom = [(1 << i) | (1 << (m + i)) for i in range(m)]
            assert transfer_map(m) == GF2Matrix(2 * m, 2 * m, tuple(top + bottom))

    def test_kernel_applies_symbolic_map(self):
        # Sample i is B @ R ^ offset, R the first n draws of stream (seed, i).
        gen = stream(21, 0)
        for m in range(1, 71):
            n = 2 * m
            x0 = BitVector.random(n, gen)
            state = evolve_symbolic(q2(n), x0, n)
            want = []
            for i in range(5):
                r = "".join(map(str, stream(13, i).integers(0, 2, size=n)))
                want.append((state.map @ BitVector.from_string(r) ^ state.offset)
                            .to_string())
            assert kernel_lines(x0, 13, 0, 5) == want

    def test_replays_six_step_walk(self):
        chain = q2(6)
        b = transfer_map(3)
        gen = stream(17, 0)
        for _ in range(64):
            bits = tuple(int(x) for x in gen.integers(0, 2, size=6))
            replay = simulate(chain, BitVector.zeros(6),
                              DrivingSequence((3,) * 6, bits))[-1]
            assert b @ BitVector.from_string("".join(map(str, bits))) == replay


class TestOffset:
    def test_zero_maps_to_zero(self):
        assert build_offset(BitVector.zeros(6)) == BitVector.zeros(6)

    def test_parity_then_prefix(self):
        assert build_offset(BitVector.from_string("1000")) == \
            BitVector.from_string("1100")

    def test_inverts_shift(self):
        gen = stream(18, 0)
        for _ in range(100):
            x = BitVector.random(8, gen)
            assert shift_register(build_offset(x)) == x

    def test_is_symbolic_offset(self):
        gen = stream(19, 0)
        for n in (4, 8, 12):
            x = BitVector.random(n, gen)
            state = evolve_symbolic(q2(n), x, n)
            assert state.offset == build_offset(x)

    def test_full_cycle_with_zero_bits(self):
        gen = stream(20, 0)
        for _ in range(20):
            x = BitVector.random(6, gen)
            replay = simulate(q2(6), x, DrivingSequence((3,) * 6, (0,) * 6))[-1]
            assert replay == build_offset(x)

    def test_rejects_odd_length(self):
        with pytest.raises(ValueError):
            build_offset(BitVector.zeros(5))


class TestExactSample:
    def test_deterministic(self):
        a = exact_sample(BitVector.zeros(8), seed=7)
        b = exact_sample(BitVector.zeros(8), seed=7)
        assert a == b
        assert exact_sample(BitVector.zeros(8), seed=7, stream_index=1) != a

    def test_rejects_odd_length(self):
        with pytest.raises(ValueError):
            exact_sample(BitVector.zeros(5), seed=1)

    def test_chi_square_uniformity(self):
        n, trials = 4, 300_000
        counts = np.zeros(16, dtype=np.int64)
        x0 = BitVector.from_string("1010")
        for block in _sample_blocks(x0, 123, 0, trials):
            counts += np.bincount(block @ (1 << np.arange(4)), minlength=16)
        null = np.full(16, trials / 16)
        statistic, pvalue = stats.chisquare(counts, null)
        assert pvalue > 1e-4, (statistic, pvalue)


class TestSampleAgainstWalk:
    """The closed-form sampler equals the step-by-step walk bit for bit."""

    @pytest.mark.parametrize("n", list(range(2, 67, 2)) + [128, 130, 2048])
    def test_random_and_zero_starts(self, n):
        gen = stream(31, n)
        for x0 in (BitVector.zeros(n), BitVector.random(n, gen)):
            for i in range(50):
                assert exact_sample(x0, 9, i) == reference_sample(x0, 9, i)

    @pytest.mark.parametrize("m", range(1, 71))
    def test_kernel_blocks(self, monkeypatch, m):
        n = 2 * m
        monkeypatch.setattr(rng, "_BLOCK_VALUES", 3 * n)  # 3 streams a block
        x0 = BitVector.random(n, stream(32, n))
        start = 2**64 - 4  # the indices wrap mod 2**64
        blocks = list(_sample_blocks(x0, 9, start, 10))
        assert [b.shape for b in blocks] == [(3, n)] * 3 + [(1, n)]
        assert all(b.dtype == np.uint8 for b in blocks)
        want = [reference_sample(x0, 9, (start + i) % 2**64).to_string()
                for i in range(10)]
        assert kernel_lines(x0, 9, start, 10) == want

    def test_kernel_rejects_odd_length_before_drawing(self):
        with pytest.raises(ValueError):
            _sample_blocks(BitVector.zeros(5), 1, 0, 1)

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        m=st.integers(1, 64),
        seed=st.integers(0, 2**64 - 1),
        index=st.integers(0, 2**64 - 1),
    )
    def test_property(self, data, m, seed, index):
        n = 2 * m
        x0 = BitVector(n, data.draw(st.integers(0, (1 << n) - 1)))
        assert exact_sample(x0, seed, index) == reference_sample(x0, seed, index)


class TestSolveAgainstElimination:
    """The closed-form solver equals Gaussian elimination on B."""

    def test_small_m(self):
        gen = stream(41, 0)
        for m in range(1, 65):
            n = 2 * m
            matrix = transfer_map(m)
            for _ in range(20):
                x0, z = BitVector.random(n, gen), BitVector.random(n, gen)
                assert solve_driving(x0, z).bits == reference_solve(x0, z, matrix)

    def test_m1024(self):
        gen = stream(42, 0)
        matrix = transfer_map(1024)
        for _ in range(3):
            x0, z = BitVector.random(2048, gen), BitVector.random(2048, gen)
            assert solve_driving(x0, z).bits == reference_solve(x0, z, matrix)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), m=st.integers(1, 64))
    def test_property_solve_then_replay(self, data, m):
        n = 2 * m
        words = st.integers(0, (1 << n) - 1)
        x0, z = BitVector(n, data.draw(words)), BitVector(n, data.draw(words))
        driving = solve_driving(x0, z)
        assert driving.coords == (m,) * n
        assert simulate(q2(n), x0, driving)[-1] == z


class TestSolveDriving:
    def test_homogeneous_case(self):
        driving = solve_driving(BitVector.zeros(2), BitVector.zeros(2))
        assert driving.coords == (1, 1)
        assert driving.bits == (0, 0)

    def test_round_trip_random(self):
        gen = stream(25, 0)
        for n in (6, 12):
            chain = q2(n)
            for _ in range(100):
                x0 = BitVector.random(n, gen)
                z = BitVector.random(n, gen)
                driving = solve_driving(x0, z)
                assert set(driving.coords) == {n // 2}
                assert simulate(chain, x0, driving)[-1] == z

    def test_recovers_known_driving(self):
        bits = (1, 0, 0, 0, 0, 0)
        chain = q2(6)
        z = simulate(chain, BitVector.zeros(6), DrivingSequence((3,) * 6, bits))[-1]
        assert solve_driving(BitVector.zeros(6), z).bits == bits

    def test_rejects_mismatch(self):
        with pytest.raises(ValueError):
            solve_driving(BitVector.zeros(4), BitVector.zeros(6))
        with pytest.raises(ValueError):
            solve_driving(BitVector.zeros(5), BitVector.zeros(5))


class TestBijectivity:
    def test_affine_map_has_full_rank(self):
        for n in (4, 8, 12):
            state = evolve_symbolic(q2(n), BitVector.zeros(n), n)
            assert det_gf2(state.map) == 1

    def test_exhaustive_bijection_small(self):
        chain = q2(6)
        images = {
            simulate(chain, BitVector.zeros(6),
                     DrivingSequence((3,) * 6, tuple((w >> i) & 1 for i in range(6)))
                     )[-1].word
            for w in range(64)
        }
        assert len(images) == 64
