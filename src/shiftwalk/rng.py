"""Counter-based random streams.

Every stochastic operation in the package draws from a Philox generator
keyed by (master seed, stream index), so per-trajectory streams are
independent and results do not depend on scheduling or batch size.

``stream`` builds one stream's generator and is the reference.
``stream_words`` draws the raw 32-bit values of many consecutive streams
from one reused Philox, and ``bounded`` applies numpy's bounded-integer
step to them, so a batch of trajectories reads exactly what the
per-stream generators would.  ``WordCursor`` reads one long stream the
same way, for a consumer whose draw sizes depend on earlier draws.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = ["stream", "stream_words", "bounded", "WordCursor"]

_MASK64 = (1 << 64) - 1
_MASK32 = np.uint64(0xFFFFFFFF)
# Drawn 32-bit values per block of stream_words.  A block's temporaries
# downstream (raw words, split halves, 64-bit products, masks) take about
# 32 bytes per value, so a block stays near 1 MiB.
_BLOCK_VALUES = 1 << 15


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Generator for stream ``index`` of master ``seed`` (both mod 2**64)."""
    key = np.array([seed & _MASK64, index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def stream_words(
    seed: int, start: int, count: int, k: int
) -> Iterator[tuple[int, np.ndarray]]:
    """The first ``k`` 32-bit values numpy's generators hand out on streams
    ``(seed, start) .. (seed, start + count - 1)``, in blocks.

    Yields ``(offset, block)`` pairs: row j of the (rows, k) uint32 block
    holds the values of stream ``start + offset + j``.  One Philox is
    reset per stream rather than built, since building one seeds it from
    system entropy that the key then overwrites.  numpy hands out each
    64-bit output low half first.
    """
    if count < 0 or k < 0:
        raise ValueError(f"count and k must be >= 0, got {count} and {k}")
    words = (k + 1) // 2
    rows = max(1, _BLOCK_VALUES // max(k, 1))
    bitgen = np.random.Philox(0)
    key = [seed & _MASK64, 0]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for offset in range(0, count, rows):
        size = min(rows, count - offset)
        raw = np.empty((size, words), dtype=np.uint64)
        for j in range(size):
            key[1] = (start + offset + j) & _MASK64
            bitgen.state = state
            raw[j] = bitgen.random_raw(words)
        yield offset, _halves(raw)[:, :k]


def _halves(raw: np.ndarray) -> np.ndarray:
    """The 32-bit values of 64-bit Philox outputs along the last axis, in
    the order numpy hands them out: low half first."""
    values = np.empty((*raw.shape[:-1], 2 * raw.shape[-1]), dtype=np.uint32)
    values[..., 0::2] = raw & _MASK32
    values[..., 1::2] = raw >> np.uint64(32)
    return values


def bounded(
    values: np.ndarray, k: "int | np.ndarray"
) -> tuple[np.ndarray, np.ndarray]:
    """numpy's Lemire step for ``integers(0, k)``, 2 <= k <= 2**32, on
    32-bit draws: returns ``((u * k) >> 32, rejected)`` as uint64 and bool
    arrays of the shape of ``values``.  An array ``k`` broadcasts against
    ``values``, giving each draw its own range.

    numpy discards a rejected draw and draws again, so from a rejected
    draw on, the stream's later values feed different outputs.  Rejection
    needs ``(u * k) mod 2**32 < 2**32 mod k``, which is impossible when k
    is a power of two.
    """
    k = np.asarray(k, dtype=np.uint64)
    m = values * k  # uint32 values widen to uint64
    rejected = (m & _MASK32) < np.uint64(1 << 32) % k
    m >>= np.uint64(32)
    return m, rejected


class WordCursor:
    """Stream ``(seed, index)`` as the 32-bit values numpy's generator
    hands out, with a cursor over them.

    ``words`` is the loaded window of values and ``pos`` the index in it
    of the next value a generator would read.  ``integers`` draws a scalar
    the way ``Generator.integers`` does; ``skip`` passes over values that
    the caller decodes from ``words`` itself.  Values are loaded from one
    Philox in chunks of at least ``_BLOCK_VALUES``, and ``trim`` drops
    those before the cursor, so the window stays bounded.
    """

    def __init__(self, seed: int, index: int = 0) -> None:
        key = np.array([seed & _MASK64, index & _MASK64], dtype=np.uint64)
        self._bitgen = np.random.Philox(key=key)
        self.words = np.empty(0, dtype=np.uint32)
        self.pos = 0

    def _load(self, end: int) -> None:
        """Extend the window to at least ``end`` values."""
        count = max(end - len(self.words), _BLOCK_VALUES)
        raw = self._bitgen.random_raw(count // 2 + 1)
        self.words = np.concatenate([self.words, _halves(raw)])

    def trim(self) -> None:
        """Drop the values before the cursor; positions shift down by ``pos``."""
        self.words = self.words[self.pos :]
        self.pos = 0

    def skip(self, count: int) -> int:
        """Pass over ``count`` values, loading them; return the first's index."""
        start = self.pos
        self.pos += count
        if self.pos > len(self.words):
            self._load(self.pos)
        return start

    def integers(self, lo: int, hi: int) -> int:
        """``Generator.integers(lo, hi)`` for a scalar, 1 <= hi - lo <= 2**32.

        One Lemire draw, drawn again while rejected; a range of one value
        reads nothing.
        """
        k = hi - lo
        if not 1 <= k <= 1 << 32:
            raise ValueError(f"range {lo}..{hi} is not 1..2**32 values wide")
        if k == 1:
            return lo
        threshold = (1 << 32) % k
        while True:
            if self.pos >= len(self.words):
                self._load(self.pos + 1)
            m = self.words.item(self.pos) * k
            self.pos += 1
            if m & 0xFFFFFFFF >= threshold:
                return lo + (m >> 32)
