"""The bounded-diff suite's batched decode and replay against a per-trial
reference: trial j draws the driving of 2 n_max + 3 steps of q1(n_j) with
``_draw_driving_arrays`` on stream (seed, j), cuts its replay, start, times
and new coordinate out of it, and replays one pair with
``replay_divergence``."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import peak_bytes
from shiftwalk import BitVector, DrivingSequence, q1, replay_divergence, rng
from shiftwalk import suites, weight_stats
from shiftwalk.chains import _draw_driving_arrays
from shiftwalk.suites import CheckResult, _sweep_check

SEEDS = (0, 1, 2**63 - 1, 2**64 - 1)
BOUNDED = rng.bounded


def reference_trials(seed: int, trials: int, n_max: int):
    """The trials of the bounded-diff suite, one stream and one scalar
    replay at a time: yields (n, x0, driving, changed driving, i, new
    coordinate or None, divergence)."""
    for j in range(trials if n_max >= 2 else 0):
        n = 2 + j * (n_max - 1) // trials
        coords, bits = _draw_driving_arrays(q1(n), 2 * n_max + 3, seed, j)
        coords, bits = [int(u) for u in coords], [int(b) for b in bits]
        i, t = sorted((coords[2 * n_max], coords[2 * n_max + 2]))
        x0 = BitVector(n, sum(b << c for c, b in enumerate(bits[n_max : n_max + n])))
        driving = DrivingSequence(tuple(coords[:t]), tuple(bits[:t]))
        if j % 2:
            u_new = None
            bits[i - 1] ^= 1
        else:
            u_new = coords[2 * n_max + 1]
            coords[i - 1] = u_new
        other = DrivingSequence(tuple(coords[:t]), tuple(bits[:t]))
        div = replay_divergence(q1(n), x0, driving, other)
        yield n, x0, driving, other, i, u_new, div


def reference(seed: int, trials: int, n_max: int) -> list[CheckResult]:
    """The bounded-diff report from ``reference_trials``."""
    max_flip = 0
    max_coord = 0
    max_hamming = 0
    zero_bit_violations = 0
    same_coord_violations = 0
    half = trials // 2
    swept = n_max >= 2
    for _, _, driving, _, i, u_new, div in reference_trials(seed, trials, n_max):
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


def batched(seed: int, trials: int, n_max: int) -> list[CheckResult]:
    return suites.suite_bounded_diff(trials=trials, seed=seed, n_max=n_max)


def reference_pairs(seed: int, trials: int, n_max: int) -> list[tuple]:
    """Every replayed pair as (n, start, driving, changed driving, weight
    difference, largest Hamming distance), sorted."""
    return sorted(
        (n, x0.word, (a.coords, a.bits), (b.coords, b.bits),
         div.weight_diff, div.max_hamming)
        for n, x0, a, b, _, _, div in reference_trials(seed, trials, n_max)
    )


def batched_pairs(monkeypatch, seed: int, trials: int, n_max: int) -> list[tuple]:
    """The pairs the suite hands to the batched replay, and what it
    returns for them, in the form of ``reference_pairs``."""
    replay = weight_stats._replay_pairs
    pairs = []

    def spy(n, t, start, coords, bits):
        diff, hamming = replay(n, t, start, coords, bits)
        for r in range(len(n)):
            k = int(t[r])
            x0 = sum(int(b) << c for c, b in enumerate(start[r, : n[r]]))
            a, b = (
                (tuple(int(u) + 1 for u in coords[:k, h, r]),
                 tuple(int(v) for v in bits[:k, h, r]))
                for h in (0, 1)
            )
            pairs.append((int(n[r]), x0, a, b, int(diff[r]), int(hamming[r])))
        return diff, hamming

    monkeypatch.setattr(weight_stats, "_replay_pairs", spy)
    batched(seed, trials, n_max)
    return sorted(pairs)


class ForcedRejections:
    """Stands in for ``rng.bounded``: every ``period``-th row it decodes
    is flagged as rejected at one column, the next column for the next
    such row, and its values are zeroed, so the row comes out right only
    if it is drawn again through the per-stream path."""

    def __init__(self, period: int) -> None:
        self.period = period
        self.seen = 0
        self.columns: list[int] = []  # the flagged column of each flagged row

    def __call__(self, values, k):
        out, rejected = BOUNDED(values, k)
        for r in range(-self.seen % self.period, len(values), self.period):
            column = len(self.columns) % values.shape[1]
            self.columns.append(column)
            rejected[r, column] = True
            out[r] = 0
        self.seen += len(values)
        return out, rejected

    def install(self, monkeypatch) -> None:
        monkeypatch.setattr(rng, "bounded", self)


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
        monkeypatch.setattr(weight_stats, "_BLOCK_TRIALS", 64)
        assert batched_pairs(monkeypatch, seed, 200, n_max) == reference_pairs(
            seed, 200, n_max)

    @pytest.mark.parametrize("n_max", [-3, 0, 1])
    def test_no_n_to_sweep(self, n_max):
        got = batched(0, 40, n_max)
        assert got == reference(0, 40, n_max)
        assert all("vacuous" in c.name and not c.passed for c in got)

    def test_default_trials_of_a_benchmark_run(self):
        assert batched(0, 20_000, 64) == reference(0, 20_000, 64)

    @pytest.mark.parametrize("rows", [1, 2, 7])
    def test_block_size_does_not_matter(self, monkeypatch, rows):
        """Blocks of ``rows`` trials, each decoded three streams at a time."""
        monkeypatch.setattr(weight_stats, "_BLOCK_TRIALS", rows)
        for n_max in (7, 65):
            steps = 2 * n_max + 3
            monkeypatch.setattr(rng, "_BLOCK_VALUES", 3 * (steps + (steps + 3) // 4))
            assert batched_pairs(monkeypatch, 5, 41, n_max) == reference_pairs(
                5, 41, n_max)

    def test_steps_bound_the_block(self, monkeypatch):
        monkeypatch.setattr(weight_stats, "_BLOCK_STEPS", 300)  # 2 trials of n <= 130
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
    """Rows flagged as rejected in the block decode are drawn again through
    ``_draw_driving_arrays`` with their own n, and the report does not
    change."""

    @pytest.mark.parametrize("n_max", [7, 64, 65, 130])
    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_matches_reference(self, monkeypatch, seed, n_max):
        forced = ForcedRejections(4)
        forced.install(monkeypatch)
        monkeypatch.setattr(weight_stats, "_BLOCK_TRIALS", 64)
        assert batched(seed, 150, n_max) == reference(seed, 150, n_max)
        assert len(forced.columns) >= 150 // 4

    @pytest.mark.parametrize("n_max", [7, 65])
    def test_every_pair(self, monkeypatch, n_max):
        want = reference_pairs(3, 150, n_max)
        ForcedRejections(3).install(monkeypatch)
        monkeypatch.setattr(weight_stats, "_BLOCK_TRIALS", 64)
        assert batched_pairs(monkeypatch, 3, 150, n_max) == want

    @pytest.mark.parametrize("n_max", [7, 64])
    def test_every_kind_is_rejected(self, monkeypatch, n_max):
        """A rejection among the replay's coordinates, the start's, either
        time or the new coordinate sends the row to the per-stream path."""
        columns = 2 * n_max + 3
        forced = ForcedRejections(2)
        forced.install(monkeypatch)
        assert batched(1, 2 * columns, n_max) == reference(1, 2 * columns, n_max)
        assert set(forced.columns) == set(range(columns))


def test_memory_does_not_grow_with_trials():
    # 20 and 100 blocks of 1024 trials: the arrays are a block's, so the
    # peak is set by the block size, not by the number of trials.
    small, large = (
        peak_bytes(suites.suite_bounded_diff, trials=trials, seed=1, n_max=64)[1]
        for trials in (20 * 1024, 100 * 1024)
    )
    assert abs(large - small) <= 128 << 10, (small, large)
    assert max(small, large) < 4 << 20, (small, large)


def test_replay_pairs_matches_replay_divergence():
    """Two unrelated driving sequences per pair, so the replays drift far
    apart, on states of one to four words; the start's columns past each
    pair's n hold random bits, which the replay must ignore."""
    gen = np.random.default_rng(8)
    rows, n_max = 60, 200
    n = gen.integers(1, n_max + 1, size=rows)
    t = np.sort(gen.integers(1, n + 1))[::-1]
    n = np.maximum(n, t)
    start = gen.integers(0, 2, size=(rows, n_max), dtype=np.uint8)
    starts = [
        BitVector(int(k), sum(int(b) << c for c, b in enumerate(row[:k])))
        for k, row in zip(n, start)
    ]
    coords = (gen.random((t[0], 2, rows)) * n).astype(np.uint64)
    bits = gen.integers(0, 2, size=(t[0], 2, rows)).astype(np.uint64)
    diff, hamming = weight_stats._replay_pairs(n, t, start, coords, bits)
    for r in range(rows):
        k = int(t[r])
        a, b = (
            DrivingSequence(tuple(int(u) + 1 for u in coords[:k, h, r]),
                            tuple(int(v) for v in bits[:k, h, r]))
            for h in (0, 1)
        )
        want = replay_divergence(q1(int(n[r])), starts[r], a, b)
        assert (diff[r], hamming[r]) == (want.weight_diff, want.max_hamming)
