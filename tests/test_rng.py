"""Batched stream draws against the per-stream generators they replace."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import peak_bytes
from shiftwalk import BitVector, ChainKind, rng, stream
from shiftwalk.chains import _decode_driving, _draw_driving_arrays, _draw_driving_blocks
from shiftwalk.exact_sampler import _sample_blocks, exact_sample

SEEDS = (0, 1, 2**63 - 1, 2**64 - 1)
NS = (1, 2, 3, 7, 64, 100, 128, 1000, 1024)
TS = (0, 1, 2, 3, 4, 5, 127, 128, 1025)
START = 5
# Values of rng._ROUND_MAX_BLOCKS that send every block of rng.stream_words
# down one path: the numpy rounds, or one Philox reset per stream.
PATHS = {"rounds": 2**31, "resets": 0}


def force_path(monkeypatch, path):
    monkeypatch.setattr(rng, "_ROUND_MAX_BLOCKS", PATHS[path])


def reference(chain, t, seed, start, count):
    """Stacked per-stream draws: the arrays the batched path must equal."""
    pairs = [_draw_driving_arrays(chain, t, seed, start + i) for i in range(count)]
    coords = None if chain.kind == "q2" else np.stack([c for c, _ in pairs])
    return coords, np.stack([b for _, b in pairs])


def batched(chain, t, seed, start, count):
    """The blocks of _draw_driving_blocks stacked, checking their offsets."""
    coords, bits = [], []
    for offset, c, b in _draw_driving_blocks(chain, t, seed, start, count):
        assert offset == sum(len(x) for x in bits)
        coords.append(c)
        bits.append(b)
    if chain.kind == "q2":
        assert all(c is None for c in coords)
        return None, np.concatenate(bits)
    return np.concatenate(coords), np.concatenate(bits)


def assert_same(got, want):
    for g, w in zip(got, want):
        if w is None:
            assert g is None
        else:
            assert g.dtype == w.dtype and g.shape == w.shape
            assert np.array_equal(g, w)


def words_per_stream(chain, t):
    coords = t if chain.kind == "q1" and chain.n > 1 else 0
    return coords + (t + 3) // 4


def reference_words(seed, index, k):
    # integers over the full 32-bit range is numpy's next_uint32, unscaled.
    return stream(seed, index).integers(0, 2**32, size=k, dtype=np.uint64)


def reference_bounded(seed, index, k, size):
    """numpy's Lemire loop rebuilt from ``bounded`` on the raw values:
    a rejected value is dropped and the next one tried."""
    values = iter(reference_words(seed, index, 64 * size + 64))
    out = []
    while len(out) < size:
        value, rejected = rng.bounded(np.array([next(values)]), k)
        if not rejected[0]:
            out.append(int(value[0]))
    return out


class TestStreamWords:
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 64, 65, 1025])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_next_uint32(self, seed, k):
        blocks = list(rng.stream_words(seed, START, 4, k))
        words = np.concatenate([b for _, b in blocks])
        assert words.dtype == np.uint32 and words.shape == (4, k)
        for j in range(4):
            assert np.array_equal(words[j], reference_words(seed, START + j, k))

    def test_index_wraps_mod_2_64(self):
        (_, words), = rng.stream_words(3, 2**64 - 1, 2, 6)
        assert np.array_equal(words[0], reference_words(3, 2**64 - 1, 6))
        assert np.array_equal(words[1], reference_words(3, 0, 6))

    @pytest.mark.parametrize("rows", [1, 7])
    def test_block_size(self, monkeypatch, rows):
        k = 10
        whole = next(rng.stream_words(9, START, 20, k))[1]
        monkeypatch.setattr(rng, "_BLOCK_VALUES", rows * k)
        blocks = list(rng.stream_words(9, START, 20, k))
        assert [o for o, _ in blocks] == list(range(0, 20, rows))
        assert np.array_equal(np.concatenate([b for _, b in blocks]), whole)

    def test_empty_and_invalid(self):
        assert list(rng.stream_words(1, 0, 0, 8)) == []
        with pytest.raises(ValueError):
            list(rng.stream_words(1, 0, -1, 8))


class TestStreamWordsRounds(TestStreamWords):
    """The cases above with every block on the numpy rounds."""

    @pytest.fixture(autouse=True)
    def _path(self, monkeypatch):
        force_path(monkeypatch, "rounds")


class TestStreamWordsResets(TestStreamWords):
    """The cases above with every block on the per-stream resets."""

    @pytest.fixture(autouse=True)
    def _path(self, monkeypatch):
        force_path(monkeypatch, "resets")


class TestStreamWordPaths:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        start=st.one_of(st.integers(0, 2**64 - 1), st.integers(2**64 - 30, 2**64 - 1)),
        count=st.integers(0, 30),
        k=st.integers(0, 300),
        max_blocks=st.sampled_from([0, rng._ROUND_MAX_BLOCKS, 2**31]),
        block=st.integers(1, 1500),
    )
    def test_property(self, seed, start, count, k, max_blocks, block):
        """Either path hands out numpy's values, in blocks of any size,
        across the index's wrap."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rng, "_ROUND_MAX_BLOCKS", max_blocks)
            patch.setattr(rng, "_BLOCK_VALUES", block)
            blocks = list(rng.stream_words(seed, start, count, k))
        rows = max(1, block // max(k, 1))
        assert [o for o, _ in blocks] == list(range(0, count, rows))
        assert sum(len(b) for _, b in blocks) == count
        for offset, words in blocks:
            assert words.dtype == np.uint32 and words.shape[1] == k
            for j, row in enumerate(words):
                index = (start + offset + j) % 2**64
                assert np.array_equal(row, reference_words(seed, index, k))

    @pytest.mark.parametrize("k, rounds", [(64, True), (80, True), (88, False)])
    @pytest.mark.parametrize("count", [1, 272, 512])
    def test_stream_length_alone_picks_the_path(self, monkeypatch, count, k, rounds):
        """Up to 10 Philox blocks a stream (k <= 80) every block takes the
        rounds, short ones included; from k = 88 none does."""
        sizes = []
        philox_rounds = rng._philox_rounds

        def spy(seed, first, out):
            sizes.append(len(out))
            philox_rounds(seed, first, out)

        monkeypatch.setattr(rng, "_philox_rounds", spy)
        blocks = [len(words) for _, words in rng.stream_words(1, 0, count, k)]
        assert sum(blocks) == count
        assert sizes == (blocks if rounds else [])

    # The tracemalloc peaks measured (numpy 2.4): at k = 1 a block is 32768
    # streams, and one pass of rounds over them peaks at 5.0 MiB; at k = 64
    # the rounds peak at 649 KiB and the resets at 258 KiB.  The resets,
    # which k = 1 never takes, would spend about 30 s on these counts.
    @pytest.mark.parametrize("path, k", [("rounds", 1), ("rounds", 64), ("resets", 64)])
    def test_memory_does_not_grow_with_count(self, monkeypatch, path, k):
        force_path(monkeypatch, path)
        # The smaller count spans at least three blocks.
        smaller, cap = {1: (10**5, 6 * 2**20), 64: (10**4, 2**20)}[k]

        def peak(count):
            def drain():
                for _ in rng.stream_words(1, 0, count, k):
                    pass

            return peak_bytes(drain)[1]

        small, large = peak(smaller), peak(10 * smaller)
        assert abs(large - small) <= 4096, (small, large)
        assert large < cap, large


class TestBounded:
    @pytest.mark.parametrize("k", [2, 3, 7, 100, 1000, 1024, 2**31 + 1, 3 * 2**30])
    def test_matches_integers(self, k):
        for index in range(8):
            want = stream(5, index).integers(0, k, size=40)
            assert reference_bounded(5, index, k, 40) == want.tolist()

    def test_crafted_rejections(self):
        # 2**32 mod 3 = 1: only u = 0 is rejected.
        values, rejected = rng.bounded(np.array([0, 1, 2**32 - 1], np.uint32), 3)
        assert rejected.tolist() == [True, False, False]
        assert values.tolist() == [0, 0, 2]
        # 2**32 mod (2**31 + 1) = 2**31 - 1: u * k mod 2**32 is 2**31 + 1,
        # 2 and 2**31 + 3 for u = 1, 2, 3.
        _, rejected = rng.bounded(np.array([1, 2, 3], np.uint32), 2**31 + 1)
        assert rejected.tolist() == [False, True, False]

    def test_powers_of_two_never_reject(self):
        u = np.arange(0, 2**32, 2**20 - 1, dtype=np.uint64).astype(np.uint32)
        for k in (2, 4, 1024, 2**32):
            values, rejected = rng.bounded(u, k)
            assert not rejected.any()
            assert np.array_equal(values, u.astype(np.uint64) * k >> 32)


class TestDrivingBlocks:
    @pytest.mark.parametrize("n", NS)
    def test_q1(self, n):
        chain = ChainKind("q1", n)
        for t in TS:
            for seed in SEEDS:
                assert_same(batched(chain, t, seed, START, 3),
                            reference(chain, t, seed, START, 3))

    @pytest.mark.parametrize("n", [n for n in NS if n % 2 == 0])
    def test_q2(self, n):
        chain = ChainKind("q2", n)
        for t in TS:
            for seed in SEEDS:
                assert_same(batched(chain, t, seed, START, 3),
                            reference(chain, t, seed, START, 3))

    @pytest.mark.parametrize("kind, n", [("q1", 7), ("q1", 1), ("q2", 64)])
    @pytest.mark.parametrize("rows", [1, 7])
    def test_block_invariance(self, monkeypatch, kind, n, rows):
        chain, t = ChainKind(kind, n), 37
        want = reference(chain, t, 11, START, 30)
        monkeypatch.setattr(rng, "_BLOCK_VALUES", rows * words_per_stream(chain, t))
        blocks = list(_draw_driving_blocks(chain, t, 11, START, 30))
        assert [len(b) for _, _, b in blocks] == [rows] * (30 // rows) + (
            [30 % rows] if 30 % rows else []
        )
        assert_same(batched(chain, t, 11, START, 30), want)

    @pytest.mark.parametrize("n", [2**31 + 1, 3 * 2**30])
    def test_rejected_rows_fall_back(self, n):
        """At these n numpy rejects a coordinate draw with probability about
        1/2 and 1/4, so some of the 20 streams take the per-stream path."""
        chain, t, count = ChainKind("q1", n), 2, 20
        (_, words), = rng.stream_words(2, START, count, words_per_stream(chain, t))
        _, rejected = rng.bounded(words[:, :t], n)
        assert 0 < rejected.any(axis=1).sum() < count
        assert_same(batched(chain, t, 2, START, count),
                    reference(chain, t, 2, START, count))

    @pytest.mark.parametrize("kind, n", [("q1", 7), ("q1", 1), ("q1", 2**31 + 1), ("q2", 64)])
    def test_decode_reads_a_prefix_of_a_longer_draw(self, kind, n):
        """The values drawn for a longer driving decode as a driving of t
        steps, with its own redraws: at 2**31 + 1 numpy rejects about half
        of the coordinate draws."""
        chain, count = ChainKind(kind, n), 20
        for t, longer in ((0, 5), (2, 9), (37, 80)):
            (_, words), = rng.stream_words(2, START, count, words_per_stream(chain, longer))
            assert_same(_decode_driving(chain, t, words, 2, START),
                        reference(chain, t, 2, START, count))

    @pytest.mark.parametrize("rows", [1, 7, 32])
    @pytest.mark.parametrize("t", [0, 1, 57])
    def test_q1_per_stream_n(self, monkeypatch, t, rows):
        """Streams with their own n, which never decreases, decoded as the
        bounded-diff suite decodes them: one chain per run of one n, in
        blocks of ``rows`` streams.  At 2**31 + 1 and 3 * 2**30 numpy
        rejects about a half and a quarter of the coordinate draws, so
        some rows take the per-stream path, also in blocks past the
        first of their call."""
        ns = [2, 3, 7, 64, 1000, 1024, 3 * 2**30, 2**31 + 1]
        k = t + (t + 3) // 4
        if t:
            (_, words), = rng.stream_words(2, START + 28, 4, k)
            assert rng.bounded(words[:, :t], 2**31 + 1)[1].any()
        monkeypatch.setattr(rng, "_BLOCK_VALUES", rows * max(k, 1))
        for i, n in enumerate(ns):
            chain = ChainKind("q1", n)
            assert_same(batched(chain, t, 2, START + 4 * i, 4),
                        reference(chain, t, 2, START + 4 * i, 4))

    def test_rejects_negative_length(self):
        with pytest.raises(ValueError):
            next(_draw_driving_blocks(ChainKind("q1", 4), -1, 0, 0, 1))

    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(["q1", "q2"]),
        m=st.integers(1, 150),
        t=st.integers(0, 300),
        seed=st.integers(0, 2**64 - 1),
        start=st.integers(0, 2**64 - 1),
        count=st.integers(1, 12),
        block=st.integers(1, 4000),
    )
    def test_property(self, kind, m, t, seed, start, count, block):
        chain = ChainKind(kind, 2 * m if kind == "q2" else m)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rng, "_BLOCK_VALUES", block)
            got = batched(chain, t, seed, start, count)
        assert_same(got, reference(chain, t, seed, start, count))


class TestExactSamples:
    """The block kernel's samples against ``exact_sample``, one stream."""

    @pytest.mark.parametrize("n", [2, 4, 64, 66, 130])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_equals_exact_sample(self, monkeypatch, n, seed):
        monkeypatch.setattr(rng, "_BLOCK_VALUES", 7 * n)
        x0 = BitVector.random(n, stream(seed, n))
        start = 2**64 - 10  # the indices wrap mod 2**64
        got = [BitVector.from_string("".join(map(str, row)))
               for block in _sample_blocks(x0, seed, start, 20) for row in block]
        assert got == [exact_sample(x0, seed, start + i) for i in range(20)]

    def test_empty_and_invalid(self):
        assert list(_sample_blocks(BitVector.zeros(4), 1, 0, 0)) == []
        with pytest.raises(ValueError):
            list(_sample_blocks(BitVector.zeros(4), 1, 0, -1))
        with pytest.raises(ValueError):
            _sample_blocks(BitVector.zeros(5), 1, 0, 1)
