"""The bounded-diff suite's batched replay against the per-trial loop it
replaces, which is kept here as the reference."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftwalk import BitVector, DrivingSequence, q1, replay_divergence, rng, stream
from shiftwalk import suites, weight_stats
from shiftwalk.suites import CheckResult, _sweep_check

SEEDS = (0, 1, 2**63 - 1, 2**64 - 1)


def reference_trials(gen, trials: int, n_max: int):
    """The trials of the bounded-diff suite, one generator call and one
    scalar replay at a time: yields (n, x0, driving, changed driving, new
    coordinate or None, divergence)."""
    half = trials // 2
    for trial in range(trials if n_max >= 2 else 0):
        n = int(gen.integers(2, n_max + 1))
        t = int(gen.integers(1, n + 1))
        x0 = BitVector.random(n, gen)
        coords = tuple(int(u) for u in gen.integers(1, n + 1, size=t))
        bits = tuple(int(b) for b in gen.integers(0, 2, size=t))
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


def reference_suite(gen, trials: int, n_max: int) -> list[CheckResult]:
    """The bounded-diff report from ``reference_trials``."""
    max_flip = 0
    max_coord = 0
    max_hamming = 0
    zero_bit_violations = 0
    same_coord_violations = 0
    half = trials // 2
    swept = n_max >= 2
    for _, _, driving, _, i, u_new, div in reference_trials(gen, trials, n_max):
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


def reference(seed: int, trials: int, n_max: int) -> list[CheckResult]:
    return reference_suite(stream(seed, 0), trials, n_max)


def batched(seed: int, trials: int, n_max: int) -> list[CheckResult]:
    return suites.suite_bounded_diff(trials=trials, seed=seed, n_max=n_max)


def reference_pairs(gen, trials: int, n_max: int) -> list[tuple]:
    """Every replayed pair as (n, start, driving, changed driving, weight
    difference, largest Hamming distance), sorted."""
    return sorted(
        (n, x0.word, (a.coords, a.bits), (b.coords, b.bits),
         div.weight_diff, div.max_hamming)
        for n, x0, a, b, _, _, div in reference_trials(gen, trials, n_max)
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
    """The generator calls of ``reference_suite`` over a given list of
    32-bit values, by numpy's algorithms written out: a bounded draw is
    ``(u * k) >> 32``, drawn again while ``(u * k) mod 2**32 < 2**32 mod k``,
    and reads nothing when k = 1; ``bytes`` reads 32-bit values as
    little-endian bytes."""

    def __init__(self, values):
        self.values = [int(v) for v in values]
        self.pos = 0

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

    def integers(self, lo, hi, size=None):
        if size is None:
            return self._bounded(lo, hi)
        return np.array([self._bounded(lo, hi) for _ in range(size)])

    def bytes(self, length: int) -> bytes:
        values = [self._next() for _ in range((length + 3) // 4)]
        return b"".join(v.to_bytes(4, "little") for v in values)[:length]


def stream_values(seed: int, count: int, index: int = 0) -> np.ndarray:
    (_, values), = rng.stream_words(seed, index, 1, count)
    return values[0]


# Every PLANT-th value of a planted stream is 0, which a bounded draw
# rejects for every range that is not a power of two.
PLANT = 23


def planted_values(seed: int, count: int) -> np.ndarray:
    values = stream_values(seed, count).copy()
    values[::PLANT] = 0
    return values


class PlantedCursor(rng.WordCursor):
    """A WordCursor over ``planted_values`` of its seed."""

    def __init__(self, seed: int, index: int = 0) -> None:
        super().__init__(seed, index)
        self.loaded = 0

    def _load(self, end: int) -> None:
        kept = len(self.words)
        super()._load(end)
        fresh = self.words[kept:]
        fresh[(self.loaded + np.arange(len(fresh))) % PLANT == 0] = 0
        self.loaded += len(fresh)


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
            stream(seed, 0), 200, n_max)

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
    """On a planted stream every kind of draw is rejected now and then:
    n, t, i, the new coordinate and, above all, the coordinates, whose
    rejection sends a trial through the one-by-one parse."""

    @pytest.mark.parametrize("n_max", [7, 64, 65, 130])
    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_matches_reference(self, monkeypatch, seed, n_max):
        trials = 150
        values = planted_values(seed, trials * (2 * n_max + 40))
        want = reference_suite(WordGenerator(values), trials, n_max)
        monkeypatch.setattr(rng, "WordCursor", PlantedCursor)
        monkeypatch.setattr(suites, "_BLOCK_TRIALS", 64)
        assert batched(seed, trials, n_max) == want

    @pytest.mark.parametrize("n_max", [7, 65])
    def test_every_pair(self, monkeypatch, n_max):
        trials = 150
        values = planted_values(3, trials * (2 * n_max + 40))
        want = reference_pairs(WordGenerator(values), trials, n_max)
        monkeypatch.setattr(rng, "WordCursor", PlantedCursor)
        monkeypatch.setattr(suites, "_BLOCK_TRIALS", 64)
        assert batched_pairs(monkeypatch, 3, trials, n_max) == want


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
