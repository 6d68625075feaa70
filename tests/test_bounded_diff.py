"""The bounded-diff suite's batched decode and replay against the
per-trial loop it replaces, which is kept here as the reference: trial j
makes its generator calls on stream (seed, j) and replays one pair with
``replay_divergence``."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftwalk import BitVector, DrivingSequence, q1, replay_divergence, rng, stream
from shiftwalk import suites, weight_stats
from shiftwalk.suites import CheckResult, _sweep_check

SEEDS = (0, 1, 2**63 - 1, 2**64 - 1)


def reference_trials(streams, trials: int, n_max: int):
    """The trials of the bounded-diff suite, one generator call and one
    scalar replay at a time, trial j drawing from ``streams(j)``: yields
    (n, x0, driving, changed driving, i, new coordinate or None,
    divergence)."""
    half = trials // 2
    for trial in range(trials if n_max >= 2 else 0):
        gen = streams(trial)
        n = int(gen.integers(2, n_max + 1))
        t = int(gen.integers(1, n + 1))
        coords = tuple(int(u) for u in gen.integers(1, n + 1, size=n_max)[:t])
        bits = tuple(int(b) for b in gen.integers(0, 2, size=n_max)[:t])
        x0 = BitVector(n, BitVector.random(n_max, gen).word & ((1 << n) - 1))
        driving = DrivingSequence(coords, bits)
        i = int(gen.integers(1, t + 1))
        if trial < half:
            u_new = None
            other = driving.flip_bit(i)
        else:
            u_new = int(gen.integers(1, n + 1))
            other = driving.replace_coord(i, u_new)
        div = replay_divergence(q1(n), x0, driving, other)
        yield n, x0, driving, other, i, u_new, div


def reference_suite(streams, trials: int, n_max: int) -> list[CheckResult]:
    """The bounded-diff report from ``reference_trials``."""
    max_flip = 0
    max_coord = 0
    max_hamming = 0
    zero_bit_violations = 0
    same_coord_violations = 0
    half = trials // 2
    swept = n_max >= 2
    for _, _, driving, _, i, u_new, div in reference_trials(streams, trials, n_max):
        if u_new is None:
            max_flip = max(max_flip, div.weight_diff)
        else:
            max_coord = max(max_coord, div.weight_diff)
            if driving.bits[i - 1] == 0 and div.weight_diff != 0:
                zero_bit_violations += 1
            if u_new == driving.coords[i - 1] and div.weight_diff != 0:
                same_coord_violations += 1
        max_hamming = max(max_hamming, div.max_hamming)
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


def numpy_streams(seed: int):
    return lambda j: stream(seed, j)


def reference(seed: int, trials: int, n_max: int) -> list[CheckResult]:
    return reference_suite(numpy_streams(seed), trials, n_max)


def batched(seed: int, trials: int, n_max: int) -> list[CheckResult]:
    return suites.suite_bounded_diff(trials=trials, seed=seed, n_max=n_max)


def reference_pairs(streams, trials: int, n_max: int) -> list[tuple]:
    """Every replayed pair as (n, start, driving, changed driving, weight
    difference, largest Hamming distance), sorted."""
    return sorted(
        (n, x0.word, (a.coords, a.bits), (b.coords, b.bits),
         div.weight_diff, div.max_hamming)
        for n, x0, a, b, _, _, div in reference_trials(streams, trials, n_max)
    )


def batched_pairs(monkeypatch, seed: int, trials: int, n_max: int) -> list[tuple]:
    """The pairs the suite hands to the batched replay, and what it
    returns for them, in the form of ``reference_pairs``."""
    replay = weight_stats._replay_pairs
    pairs = []

    def spy(n, t, x0, coords, bits):
        diff, hamming = replay(n, t, x0, coords, bits)
        for r in range(len(n)):
            k = int(t[r])
            start = sum(int(x0[w, r]) << (64 * w) for w in range(len(x0)))
            a, b = (
                (tuple(int(u) + 1 for u in coords[:k, h, r]),
                 tuple(int(v) for v in bits[:k, h, r]))
                for h in (0, 1)
            )
            pairs.append((int(n[r]), start, a, b, int(diff[r]), int(hamming[r])))
        return diff, hamming

    monkeypatch.setattr(weight_stats, "_replay_pairs", spy)
    batched(seed, trials, n_max)
    return sorted(pairs)


class WordGenerator:
    """The generator calls of ``reference_trials`` over a given list of
    32-bit values, by numpy's algorithms written out: a bounded draw is
    ``(u * k) >> 32``, drawn again while ``(u * k) mod 2**32 < 2**32 mod k``,
    and reads nothing when k = 1; ``bytes`` reads 32-bit values as
    little-endian bytes.  ``rejected`` holds the 1-based numbers of the
    ``integers`` calls that rejected a value."""

    def __init__(self, values):
        self.values = [int(v) for v in values]
        self.pos = 0
        self.calls = 0
        self.rejected = set()

    def _next(self) -> int:
        self.pos += 1
        return self.values[self.pos - 1]

    def _bounded(self, lo: int, hi: int) -> int:
        k = hi - lo
        if k == 1:
            return lo
        while True:
            m = self._next() * k
            if m % 2**32 >= 2**32 % k:
                return lo + (m >> 32)
            self.rejected.add(self.calls)

    def integers(self, lo, hi, size=None):
        self.calls += 1
        if size is None:
            return self._bounded(lo, hi)
        return np.array([self._bounded(lo, hi) for _ in range(size)])

    def bytes(self, length: int) -> bytes:
        values = [self._next() for _ in range((length + 3) // 4)]
        return b"".join(v.to_bytes(4, "little") for v in values)[:length]


def stream_values(seed: int, count: int, index: int = 0) -> np.ndarray:
    (_, values), = rng.stream_words(seed, index, 1, count)
    return values[0]


class PlantedStreams:
    """Streams (seed, j) in which every value at a position p with
    (p + j) % period == 0 is 0, which a bounded draw rejects for every
    range that is not a power of two.  The zero moves by one position from
    one stream to the next, so over ``period`` trials it meets every draw.

    ``words`` stands in for ``rng.stream_words`` and ``generator(j)`` for
    ``rng.stream(seed, j)``; ``made`` keeps every generator handed out.
    """

    def __init__(self, seed: int, period: int) -> None:
        self.seed = seed
        self.period = period
        self.stream_words = rng.stream_words
        self.made: list[WordGenerator] = []

    def _plant(self, values: np.ndarray, index: np.ndarray) -> np.ndarray:
        values = values.copy()
        positions = np.arange(values.shape[-1])
        values[(positions + index[:, None]) % self.period == 0] = 0
        return values

    def words(self, seed, start, count, k):
        assert seed == self.seed
        for offset, block in self.stream_words(seed, start, count, k):
            index = start + offset + np.arange(len(block))
            yield offset, self._plant(block, index)

    def generator(self, j: int) -> WordGenerator:
        (_, values), = self.stream_words(self.seed, j, 1, 3 * self.period)
        gen = WordGenerator(self._plant(values, np.array([j]))[0])
        self.made.append(gen)
        return gen

    def install(self, monkeypatch) -> None:
        monkeypatch.setattr(rng, "stream_words", self.words)
        monkeypatch.setattr(rng, "stream", lambda seed, j: self.generator(j))


def planted_period(n_max: int) -> int:
    # A little more than a trial's 2 n_max + 4 + ceil(n_max / 32) values,
    # so a trial holds one zero, or none.
    return 2 * n_max + 9 + (n_max + 31) // 32


class TestWordGenerator:
    """The test double reads real streams as numpy does, so it may stand
    in for numpy on planted streams."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_numpy(self, seed):
        gen = stream(seed, 3)
        double = WordGenerator(stream_values(seed, 4000, index=3))
        for hi in (2, 3, 64, 65, 2**31 + 1, 3 * 2**30, 2**32, 1):
            assert double.integers(0, hi) == int(gen.integers(0, hi))
            assert double.integers(5, 5 + hi) == int(gen.integers(5, 5 + hi))
        for size in (1, 7):
            for hi in (2, 63, 2**31 + 1, 3 * 2**30):
                assert list(double.integers(1, hi + 1, size=size)) == list(
                    gen.integers(1, hi + 1, size=size))
        for length in range(1, 14):
            assert double.bytes(length) == gen.bytes(length)
            assert double.integers(0, 7) == int(gen.integers(0, 7))


class TestAgainstReference:
    @pytest.mark.parametrize("trials", [-5, 0, 1, 2, 3, 17, 1023, 1025])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_trials(self, seed, trials):
        assert batched(seed, trials, 64) == reference(seed, trials, 64)

    @pytest.mark.parametrize("n_max", [2, 3, 7, 63, 64, 65, 130, 200])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_n_max(self, seed, n_max):
        assert batched(seed, 300, n_max) == reference(seed, 300, n_max)

    @pytest.mark.parametrize("n_max", [2, 7, 65, 130])
    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_every_pair(self, monkeypatch, seed, n_max):
        monkeypatch.setattr(suites, "_BLOCK_TRIALS", 64)
        assert batched_pairs(monkeypatch, seed, 200, n_max) == reference_pairs(
            numpy_streams(seed), 200, n_max)

    @pytest.mark.parametrize("n_max", [-3, 0, 1])
    def test_no_n_to_sweep(self, n_max):
        got = batched(0, 40, n_max)
        assert got == reference(0, 40, n_max)
        assert all("vacuous" in c.name and not c.passed for c in got)

    def test_default_trials_of_a_benchmark_run(self):
        assert batched(0, 20_000, 64) == reference(0, 20_000, 64)

    @pytest.mark.parametrize("rows", [1, 2, 7])
    def test_block_size_does_not_matter(self, monkeypatch, rows):
        monkeypatch.setattr(suites, "_BLOCK_TRIALS", rows)
        for n_max in (7, 65):
            assert batched(5, 41, n_max) == reference(5, 41, n_max)

    def test_steps_bound_the_block(self, monkeypatch):
        monkeypatch.setattr(suites, "_BLOCK_STEPS", 300)  # 2 trials of n <= 130
        assert batched(6, 25, 130) == reference(6, 25, 130)

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        trials=st.integers(-2, 3000),
        n_max=st.integers(0, 130),
    )
    def test_property(self, seed, trials, n_max):
        assert batched(seed, trials, n_max) == reference(seed, trials, n_max)


class TestRejectedDraws:
    """On planted streams every kind of draw is rejected now and then:
    n, t, the coordinates, i and the new coordinate.  A trial with a
    rejection is drawn again by generator calls on its own stream."""

    # The 1-based numbers of the reference's integers calls in a trial.
    KINDS = {1: "n", 2: "t", 3: "coordinates", 5: "i", 6: "u_new"}

    @pytest.mark.parametrize("n_max", [7, 64, 65, 130])
    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_matches_reference(self, monkeypatch, seed, n_max):
        trials = 150
        planted = PlantedStreams(seed, planted_period(n_max))
        want = reference_suite(planted.generator, trials, n_max)
        planted.install(monkeypatch)
        monkeypatch.setattr(suites, "_BLOCK_TRIALS", 64)
        assert batched(seed, trials, n_max) == want

    @pytest.mark.parametrize("n_max", [7, 65])
    def test_every_pair(self, monkeypatch, n_max):
        trials = 150
        planted = PlantedStreams(3, planted_period(n_max))
        want = reference_pairs(planted.generator, trials, n_max)
        planted.install(monkeypatch)
        monkeypatch.setattr(suites, "_BLOCK_TRIALS", 64)
        assert batched_pairs(monkeypatch, 3, trials, n_max) == want

    @pytest.mark.parametrize("n_max", [7, 64])
    def test_every_kind_is_rejected(self, monkeypatch, n_max):
        trials = 8 * planted_period(n_max)
        planted = PlantedStreams(1, planted_period(n_max))
        want = reference_suite(planted.generator, trials, n_max)
        kinds = set().union(*(gen.rejected for gen in planted.made))
        assert {self.KINDS[k] for k in kinds} == set(self.KINDS.values())
        planted.install(monkeypatch)
        assert batched(1, trials, n_max) == want


def test_replay_pairs_matches_replay_divergence():
    """Two unrelated driving sequences per pair, so the replays drift far
    apart, on states of one to four words."""
    gen = np.random.default_rng(8)
    rows, n_max = 60, 200
    n = gen.integers(1, n_max + 1, size=rows)
    t = np.sort(gen.integers(1, n + 1))[::-1]
    n = np.maximum(n, t)
    starts = [BitVector.random(int(k), gen) for k in n]
    words = (n_max + 63) // 64
    x0 = np.array(
        [[(x.word >> (64 * w)) & (2**64 - 1) for x in starts] for w in range(words)],
        dtype=np.uint64,
    )
    coords = (gen.random((t[0], 2, rows)) * n).astype(np.uint64)
    bits = gen.integers(0, 2, size=(t[0], 2, rows)).astype(np.uint64)
    diff, hamming = weight_stats._replay_pairs(n, t, x0, coords, bits)
    for r in range(rows):
        k = int(t[r])
        a, b = (
            DrivingSequence(tuple(int(u) + 1 for u in coords[:k, h, r]),
                            tuple(int(v) for v in bits[:k, h, r]))
            for h in (0, 1)
        )
        want = replay_divergence(q1(int(n[r])), starts[r], a, b)
        assert (diff[r], hamming[r]) == (want.weight_diff, want.max_hamming)
