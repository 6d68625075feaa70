"""Counter-based random streams.

Every stochastic operation in the package draws from a Philox generator
keyed by (master seed, stream index), so per-trajectory streams are
independent and results do not depend on scheduling or batch size.

``stream`` builds one stream's generator and is the reference.
``stream_words`` draws the raw 32-bit values of many consecutive streams,
and ``bounded`` applies numpy's bounded-integer step to them, so a batch
of trajectories reads exactly what the per-stream generators would.

numpy's Philox is Philox4x64-10 (Salmon et al., "Parallel random numbers:
as easy as 1, 2, 3", SC 2011).  Stream (seed, index) has the key
(seed, index) mod 2**64, and its j-th block of four 64-bit outputs is ten
rounds over the counter (j, 0, 0, 0), j counting from 1.  A short stream
is cheapest computed from that definition, in numpy over all the
(stream, counter) pairs of a block at once; a long one by resetting a
numpy Philox to the stream's key and drawing.  The stream's length alone
picks the path.
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
# Philox4x64's round multipliers and key increments.
_M0, _M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_LOW32, _32 = np.uint64(0xFFFFFFFF), np.uint64(32)
# Streams of at most _ROUND_MAX_BLOCKS Philox blocks (k <= 80 values) take
# the rounds in numpy; longer ones reset one Philox per stream.  The rounds
# cost about 6x numpy's C loop per output and save the reset, about 2 us a
# stream.  A measured crossover (2 shared vCPUs, numpy 2.4): over 10^4
# streams the rounds were faster up to k = 80 and slower from k = 88.
_ROUND_MAX_BLOCKS = 10


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Generator for stream ``index`` of master ``seed`` (both mod 2**64)."""
    key = np.array([seed & _MASK64, index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _mulhilo(a: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The high and low 64 bits of ``a * m``, for uint64 ``a`` and a 64-bit
    constant ``m``, from the four 32-bit products of their halves.

    No sum passes 2**64: a product of two 32-bit halves is at most
    (2**32 - 1)**2, which leaves room for one more 32-bit term.
    """
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    a_lo, a_hi = a & _LOW32, a >> _32
    mid = a_lo * m_lo
    mid >>= _32
    mid += a_hi * m_lo
    a_lo *= m_hi
    a_lo += mid & _LOW32
    mid >>= _32
    a_lo >>= _32
    a_hi *= m_hi
    a_hi += mid
    a_hi += a_lo
    return a_hi, a * np.uint64(m)


def _philox_rounds(seed: int, first: int, out: np.ndarray) -> None:
    """Fill the (rows, 4 * blocks) uint64 ``out``: row j with the first
    ``4 * blocks`` outputs of stream ``first + j``.

    The ten rounds run over every stream's counters 1..blocks at once.  A
    round takes the lanes (x0, x1, x2, x3) under the key (k0, k1) to
    (hi(M1 x2) ^ x1 ^ k0, lo(M1 x2), hi(M0 x0) ^ x3 ^ k1, lo(M0 x0)), and
    the key then steps by (W0, W1).  The lanes start as broadcast rows, so
    the first two rounds multiply only one full-size lane each.
    """
    rows, blocks = out.shape[0], out.shape[1] // 4
    lanes = out.reshape(rows, blocks, 4)
    counters = np.arange(1, blocks + 1, dtype=np.uint64)
    zero = np.zeros(1, dtype=np.uint64)
    # numpy warns when a uint64 scalar overflows, not when an array does.
    k0 = seed & _MASK64
    k1 = np.arange(rows, dtype=np.uint64)[:, None]
    k1 += np.uint64(first & _MASK64)
    x0, x1, x2, x3 = counters, zero, zero, zero
    for _ in range(10):
        hi0, lo0 = _mulhilo(x0, _M0)
        hi1, lo1 = _mulhilo(x2, _M1)
        x0, x1, x2, x3 = hi1 ^ x1 ^ np.uint64(k0), lo1, hi0 ^ x3 ^ k1, lo0
        k0 = (k0 + _W0) & _MASK64
        k1 += np.uint64(_W1)
    for i, x in enumerate((x0, x1, x2, x3)):
        lanes[:, :, i] = x


def stream_words(
    seed: int, start: int, count: int, k: int
) -> Iterator[tuple[int, np.ndarray]]:
    """The first ``k`` 32-bit values numpy's generators hand out on streams
    ``(seed, start) .. (seed, start + count - 1)``, in blocks.

    Yields ``(offset, block)`` pairs: row j of the (rows, k) uint32 block
    holds the values of stream ``start + offset + j``.  A stream's k
    values fill ceil(k / 8) Philox blocks, which come from one of two
    paths with the same bits:

    * the rounds, run in numpy over every (stream, counter) pair of the
      block in one pass, for streams of at most 10 Philox blocks
      (k <= 80), where they measured faster;
    * for longer streams, one Philox reset per stream, rather than built,
      since building one seeds it from system entropy that the key then
      overwrites.

    numpy hands out each 64-bit output low half first, which a
    little-endian 32-bit view of the outputs gives on any host; the
    blocks' dtype is ``"<u4"``.
    """
    if count < 0 or k < 0:
        raise ValueError(f"count and k must be >= 0, got {count} and {k}")
    words = (k + 1) // 2
    blocks = (words + 3) // 4
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
        raw = np.empty((size, 4 * blocks), dtype=np.uint64)
        if blocks <= _ROUND_MAX_BLOCKS:
            _philox_rounds(seed, start + offset, raw)
        else:
            for j in range(size):
                key[1] = (start + offset + j) & _MASK64
                bitgen.state = state
                raw[j, :words] = bitgen.random_raw(words)
        yield offset, raw[:, :words].astype("<u8", copy=False).view("<u4")[:, :k]


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
