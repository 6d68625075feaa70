"""Counter-based random streams.

Every stochastic operation in the package draws from a Philox generator
keyed by (master seed, stream index), so per-trajectory streams are
independent and results do not depend on scheduling or batch size.

``stream`` builds one stream's generator and is the reference.
``stream_words`` draws the raw 32-bit values of many consecutive streams,
and ``bounded`` applies numpy's bounded-integer step to them, so a batch
of trajectories reads exactly what the per-stream generators would.
"""
from __future__ import annotations

import functools
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
# Philox4x64's round multipliers and key increments; _M and _W hold them
# as (2, 1, 1) columns against the lane pair (x0, x2) and the key (k0, k1).
_M0, _M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_LOW32, _32 = np.uint64(0xFFFFFFFF), np.uint64(32)
_M = np.array([_M0, _M1], dtype=np.uint64).reshape(2, 1, 1)
_M_LO, _M_HI = _M & _LOW32, _M >> _32
_W = np.array([_W0, _W1], dtype=np.uint64).reshape(2, 1, 1)
# Streams of at most _ROUND_MAX_BLOCKS Philox blocks (k <= 112 values) take
# the rounds in numpy; longer ones reset one Philox per stream.  The rounds
# cost about 0.12 us a Philox block and save the reset, about 1.7 us a
# stream.  A measured crossover (2 shared vCPUs, numpy 2.4, groups of
# _BLOCK_VALUES // 4 Philox blocks): over 10^4 streams the rounds were
# faster up to k = 112, level at k = 120 and slower from k = 128.  So
# ``sample --n 64`` (k = 64) takes the rounds, and verify all's k = 160 and
# 164 and ``profile --n 1024 --samples``' k = 1282 the reset.
_ROUND_MAX_BLOCKS = 14


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Generator for stream ``index`` of master ``seed`` (both mod 2**64)."""
    key = np.array([seed & _MASK64, index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _mulhilo(a: np.ndarray, hi: np.ndarray, s1: np.ndarray, s2: np.ndarray) -> None:
    """Write the high 64 bits of ``a * _M`` to ``hi`` and replace ``a`` by
    the low 64 bits, for a uint64 ``a`` of shape (2, ...): the four 32-bit
    products of the halves, with ``s1`` and ``s2`` as scratch of a's shape.

    No sum passes 2**64: a product of two 32-bit halves is at most
    (2**32 - 1)**2, which leaves room for one more 32-bit term.
    """
    np.bitwise_and(a, _LOW32, s1)
    np.multiply(s1, _M_LO, s2)
    s2 >>= _32
    s1 *= _M_HI
    np.right_shift(a, _32, hi)
    hi *= _M_LO
    s2 += hi  # the middle word: a_hi * m_lo plus the carry of a_lo * m_lo
    np.bitwise_and(s2, _LOW32, hi)
    s1 += hi
    s1 >>= _32
    s2 >>= _32
    s2 += s1  # what the middle words carry into the high word
    np.right_shift(a, _32, hi)
    hi *= _M_HI
    hi += s2
    a *= _M


def _philox_rounds(seed: int, first: int, out: np.ndarray) -> None:
    """Fill the C-contiguous (rows, 4 * blocks) uint64 ``out``: row j with
    the first ``4 * blocks`` outputs of stream ``first + j``.

    numpy's Philox is Philox4x64-10 (Salmon et al., "Parallel random
    numbers: as easy as 1, 2, 3", SC 2011).  Stream (seed, index) has the
    key (seed, index) mod 2**64, and its j-th block of four 64-bit outputs
    is ten rounds over the counter (j, 0, 0, 0), j counting from 1.
    A round takes the lanes (x0, x1, x2, x3) under the key (k0, k1) to
    (hi(M1 x2) ^ x1 ^ k0, lo(M1 x2), hi(M0 x0) ^ x3 ^ k1, lo(M0 x0)), and
    the key then steps by (W0, W1).  The lanes are held as the pairs
    (x0, x2) and (x1, x3), each a (2, blocks, rows) array, so that one
    numpy call serves both multiplications: a round takes the pairs
    (even, odd) to (odd ^ hi(even)[::-1] ^ key, lo(even)[::-1]).  The
    first round, over the counters alone, is taken in Python ints, and two
    of the round's scratch arrays are ``out`` until the lanes are copied in.
    """
    rows, blocks = out.shape[0], out.shape[1] // 4
    shape, size = (2, blocks, rows), 2 * blocks * rows
    seed &= _MASK64
    key = np.empty((2, 1, rows), dtype=np.uint64)
    key[0] = seed
    np.add(np.arange(rows, dtype=np.uint64), np.uint64(first & _MASK64), key[1, 0])
    # Round 1 takes (j, 0, 0, 0) to (k0, 0, hi(M0 j) ^ k1, lo(M0 j)).
    products = [j * _M0 for j in range(1, blocks + 1)]
    even, odd = np.empty(shape, dtype=np.uint64), np.empty(shape, dtype=np.uint64)
    even[0] = seed
    np.bitwise_xor(np.array([p >> 64 for p in products], dtype=np.uint64)[:, None],
                   key[1], even[1])
    odd[0] = 0
    odd[1] = np.array([p & _MASK64 for p in products], dtype=np.uint64)[:, None]
    key += _W
    flat = out.reshape(-1)
    hi, s1 = flat[:size].reshape(shape), flat[size:].reshape(shape)
    s2 = np.empty(shape, dtype=np.uint64)
    # The key broadcasts over the blocks, and for that numpy's iterator
    # allocates its ufunc buffers, 64 KiB at the default size; 1024
    # elements keep them at 8 KiB.  The setting is scoped to this block,
    # which yields to no caller and runs no reduction.
    with np.errstate():
        np.setbufsize(1024)
        for _ in range(9):
            _mulhilo(even, hi, s1, s2)
            odd ^= hi[::-1]
            odd ^= key
            key += _W
            even, odd = odd, even[::-1]
    lanes = out.reshape(rows, blocks, 4)
    for i, x in enumerate((even[0], odd[0], even[1], odd[1])):
        lanes[:, :, i] = x.T


@functools.cache
def _reset_philox() -> np.random.Philox:
    """The one Philox that the reset path re-keys before every stream.
    Building it hashes a SeedSequence, so it is built once a process, when
    a stream first needs it.  Each stream is drawn whole between the reset
    and the next yield, so interleaved ``stream_words`` calls can share it;
    threads cannot."""
    return np.random.Philox(0)


def stream_words(
    seed: int, start: int, count: int, k: int
) -> Iterator[tuple[int, np.ndarray]]:
    """The first ``k`` 32-bit values numpy's generators hand out on streams
    ``(seed, start) .. (seed, start + count - 1)``, in blocks.

    Yields ``(offset, block)`` pairs: row j of the (rows, k) uint32 block
    holds the values of stream ``start + offset + j``, with rows
    ``_BLOCK_VALUES // k``.  A stream's k values fill ceil(k / 8) Philox
    blocks, which come from one of two paths with the same bits:

    * the rounds (``_philox_rounds``), run in numpy over every (stream,
      counter) pair of a group of streams in one pass, for streams of at
      most ``_ROUND_MAX_BLOCKS`` Philox blocks.  A group is as many whole
      yielded blocks as fit in ``_BLOCK_VALUES // 4`` Philox blocks
      (streams times blocks a stream), and at least one: two at k = 64;
    * for longer streams, one Philox re-keyed per stream
      (``_reset_philox``).

    numpy hands out each 64-bit output low half first, which a
    little-endian 32-bit view of the outputs gives on any host; the
    blocks' dtype is ``"<u4"``.
    """
    if count < 0 or k < 0:
        raise ValueError(f"count and k must be >= 0, got {count} and {k}")
    words = (k + 1) // 2
    blocks = (words + 3) // 4
    rows = max(1, _BLOCK_VALUES // max(k, 1))
    rounds = blocks <= _ROUND_MAX_BLOCKS
    group = rows
    if rounds:
        group *= max(1, _BLOCK_VALUES // 4 // max(1, rows * blocks))
    else:
        bitgen, key = _reset_philox(), [seed & _MASK64, 0]
        state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": key},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
    for first in range(0, count, group):
        size = min(group, count - first)
        raw = np.empty((size, 4 * blocks), dtype=np.uint64)
        if rounds:
            _philox_rounds(seed, start + first, raw)
        else:
            for j in range(size):
                key[1] = (start + first + j) & _MASK64
                bitgen.state = state
                raw[j, :words] = bitgen.random_raw(words)
        values = raw[:, :words].astype("<u8", copy=False).view("<u4")[:, :k]
        for offset in range(0, size, rows):
            yield first + offset, values[offset : offset + rows]


def bounded(values: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's Lemire step for ``integers(0, k)``, 1 <= k <= 2**32, on
    32-bit draws: returns ``((u * k) >> 32, rejected)`` as uint64 and bool
    arrays of the shape of ``values``.  At k = 1 it gives 0 and never
    rejects, though numpy reads no value for that range.

    numpy discards a rejected draw and draws again, so from a rejected
    draw on, the stream's later values feed different outputs.  Rejection
    needs ``(u * k) mod 2**32 < 2**32 mod k``, which is impossible when k
    is a power of two, 2**j: then ``(u * k) >> 32`` is ``u >> (32 - j)``,
    which is all this computes, and ``rejected`` is all False.  Both
    arrays are new and writable in either case.
    """
    if (1 << 32) % k == 0:
        m = values.astype(np.uint64)
        m >>= np.uint64(33 - int(k).bit_length())
        return m, np.zeros(values.shape, dtype=bool)
    m = values * np.uint64(k)  # uint32 values widen to uint64
    low = m.astype("<u8", copy=False).view("<u4")[..., ::2]  # m mod 2**32
    rejected = low < (1 << 32) % k
    m >>= np.uint64(32)
    return m, rejected
