"""The middle-coordinate walk as an exact uniform sampler.

Over n = 2m steps the walk's final state is an affine function
``B @ R ^ offset`` of the n fresh update bits R, where B is the block
matrix [[I, C], [I, I]] with C the (m x m) superdiagonal shift block.  B
has unit determinant for every m, so uniform bits give an exactly uniform
state, and inverting B recovers the unique driving sequence that reaches
any target.  Neither direction walks n steps or eliminates;
``chains.evolve_symbolic(q2(n), x0, n)`` gives the explicit map that both
are checked against.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np

from . import rng
from .chains import DrivingSequence
from .gf2 import BitVector, _shift_power

__all__ = [
    "build_offset",
    "exact_sample",
    "solve_driving",
]


def build_offset(x: BitVector) -> BitVector:
    """(parity of x, x_1, ..., x_{n-1}): the image A^n x of the start after
    a full 2m-step cycle, equivalently the inverse of the shift map A."""
    if x.n % 2 != 0:
        raise ValueError(f"expected even length, got {x.n}")
    return BitVector(x.n, _shift_power(x.n, x.word, x.n))


def _invert_transfer(m: int, v: int) -> int:
    """The R with ``B @ R == v`` on packed words: bit j of R is the update
    bit of step j, and bit i of v coordinate i+1 of the state.

    The top block row [I, C] of B gives ``lo ^ (hi >> 1)`` and the bottom
    row [I, I] ``lo ^ hi``, with ``lo``/``hi`` the low and high m bits of
    R.  XOR-ing the two halves of v leaves ``w = hi ^ (hi >> 1)``, so
    ``hi`` is the suffix XOR of w, taken in log2(m) shift-and-xor rounds;
    then ``lo = (v >> m) ^ hi``.
    """
    hi = (v ^ (v >> m)) & ((1 << m) - 1)
    s = 1
    while s < m:
        hi ^= hi >> s
        s <<= 1
    return ((v >> m) ^ hi) | (hi << m)


def _sample_blocks(
    x0: BitVector, seed: int, start: int, count: int
) -> Iterator[np.ndarray]:
    """The samples ``exact_sample(x0, seed, i)`` for i in
    start..start+count-1, as one (rows, n) ``uint8`` bit array per block of
    ``rng.stream_words``; column j holds coordinate j+1.

    An odd n raises here, before the first block is drawn.
    """
    offset = np.array(build_offset(x0).bits, dtype=np.uint8)
    n, m = x0.n, x0.n // 2

    def blocks() -> Iterator[np.ndarray]:
        for _, words in rng.stream_words(seed, start, count, n):
            # Each draw is the default int64 integers(0, 2), which is
            # (u * 2) >> 32, the top bit of the 32-bit value: 2 divides
            # 2**32, so numpy never rejects one.  That bit is the top bit of
            # the little-endian word's last byte.
            r = words.view(np.uint8)[:, 3::4] >> 7
            lo, hi = r[:, :m], r[:, m:]
            out = np.empty_like(r)
            # The top block row [I, C] of B: lo ^ (hi >> 1), where bit j of
            # hi >> 1 is bit j+1 of hi.  The bottom row [I, I]: lo ^ hi.
            np.bitwise_xor(lo[:, :-1], hi[:, 1:], out=out[:, : m - 1])
            out[:, m - 1] = lo[:, -1]
            np.bitwise_xor(lo, hi, out=out[:, m:])
            out ^= offset
            yield out

    return blocks()


def exact_sample(x0: BitVector, seed: int, stream_index: int = 0) -> BitVector:
    """The state after n middle-coordinate steps from ``x0``, driven by the
    first n draws of stream ``(seed, stream_index)``.

    The output is exactly uniform on {0,1}^n for even n, from any start.
    """
    (bits,) = next(_sample_blocks(x0, seed, stream_index, 1))
    packed = np.packbits(bits, bitorder="little").tobytes()
    return BitVector(x0.n, int.from_bytes(packed, "little"))


def solve_driving(x0: BitVector, z: BitVector) -> DrivingSequence:
    """The unique n-step driving sequence taking ``x0`` to ``z``.

    Solves ``B @ R == z ^ offset(x0)``; B has unit determinant, so the
    solution always exists and is unique.
    """
    if x0.n != z.n:
        raise ValueError(f"length mismatch: {x0.n} vs {z.n}")
    m = x0.n // 2
    r = _invert_transfer(m, (z ^ build_offset(x0)).word)
    return DrivingSequence(coords=(m,) * x0.n, bits=BitVector(x0.n, r).bits)
