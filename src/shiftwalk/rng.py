"""Counter-based random streams.

Every stochastic operation in the package draws from a Philox generator
keyed by (master seed, stream index), so per-trajectory streams are
independent and results do not depend on scheduling or batch size.

``stream`` builds one stream's generator and is the reference.
``stream_words`` draws the raw 32-bit values of many consecutive streams
from one reused Philox, and ``bounded`` applies numpy's bounded-integer
step to them, so a batch of trajectories reads exactly what the
per-stream generators would.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np
# numpy 2 loads numpy.random on first use; load it with the package so the
# set-up every CLI call pays includes it and the first draw does not.
import numpy.random  # noqa: F401

__all__ = ["stream"]

_MASK64 = (1 << 64) - 1
# Drawn 32-bit values per block of stream_words.  A block's temporaries
# downstream (raw words, 64-bit products, rejection flags, bytes) take
# about 12 bytes per value, so a block stays under 1/2 MiB.
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
    64-bit output low half first, which a little-endian 32-bit view of
    the outputs gives on any host; the blocks' dtype is ``"<u4"``.
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
        yield offset, raw.astype("<u8", copy=False).view("<u4")[:, :k]


def bounded(values: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's Lemire step for ``integers(0, k)``, 1 <= k <= 2**32, on
    32-bit draws: returns ``((u * k) >> 32, rejected)`` as uint64 and bool
    arrays of the shape of ``values``.  At k = 1 it gives 0 and never
    rejects, though numpy reads no value for that range.

    numpy discards a rejected draw and draws again, so from a rejected
    draw on, the stream's later values feed different outputs.  Rejection
    needs ``(u * k) mod 2**32 < 2**32 mod k``, which is impossible when k
    is a power of two.
    """
    m = values * np.uint64(k)  # uint32 values widen to uint64
    low = m.astype("<u8", copy=False).view("<u4")[..., ::2]  # m mod 2**32
    rejected = low < (1 << 32) % k
    m >>= np.uint64(32)
    return m, rejected
