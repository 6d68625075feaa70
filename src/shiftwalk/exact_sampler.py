"""The middle-coordinate walk as an exact uniform sampler.

Over n = 2m steps the walk's final state is an affine function
``B @ R ^ offset`` of the n fresh update bits R, where B is the block
matrix [[I, C], [I, I]] with C the (m x m) superdiagonal shift block.  B
has unit determinant for every m, so uniform bits give an exactly uniform
state, and inverting B recovers the unique driving sequence that reaches
any target.

Sampling and solving apply B and its inverse in closed form on packed
ints, a few word operations instead of an n-step walk or a GF(2)
elimination.  ``chains.evolve_symbolic(q2(n), x0, n)`` gives the explicit
map that the closed form is checked against.
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
    "exact_samples",
    "solve_driving",
]


def build_offset(x: BitVector) -> BitVector:
    """(parity of x, x_1, ..., x_{n-1}): the image A^n x of the start after
    a full 2m-step cycle, equivalently the inverse of the shift map A."""
    if x.n % 2 != 0:
        raise ValueError(f"expected even length, got {x.n}")
    return BitVector(x.n, _shift_power(x.n, x.word, x.n))


def _apply_transfer(m: int, r: int) -> int:
    """``B @ R`` on a packed word: bit j of ``r`` is the update bit of step j.

    With ``lo``/``hi`` the low and high m bits of R, the top block row
    [I, C] gives ``lo ^ (hi >> 1)`` and the bottom row [I, I] ``lo ^ hi``.
    """
    lo = r & ((1 << m) - 1)
    hi = r >> m
    return (lo ^ (hi >> 1)) | ((lo ^ hi) << m)


def _invert_transfer(m: int, v: int) -> int:
    """The R with ``B @ R == v``, so ``_apply_transfer(m, R) == v``.

    XOR-ing the two halves of v leaves ``w = hi ^ (hi >> 1)``, so ``hi`` is
    the suffix XOR of w, taken in log2(m) shift-and-xor rounds; then
    ``lo = (v >> m) ^ hi``.
    """
    hi = (v ^ (v >> m)) & ((1 << m) - 1)
    s = 1
    while s < m:
        hi ^= hi >> s
        s <<= 1
    return ((v >> m) ^ hi) | (hi << m)


def exact_samples(
    x0: BitVector, seed: int, start: int, count: int
) -> Iterator[BitVector]:
    """Yield ``exact_sample(x0, seed, i)`` for i in start..start+count-1.

    The streams are drawn in blocks from one reused generator; each
    sample reads the same draws as its own stream would.  Samples are
    yielded as they are made, so memory does not grow with ``count``.
    """
    if x0.n % 2 != 0:
        raise ValueError(f"expected even length, got {x0.n}")
    n = x0.n
    offset = build_offset(x0).word
    for _, words in rng.stream_words(seed, start, count, n):
        # Each draw is the default int64 integers(0, 2): one 32-bit value
        # per bit.  2 divides 2**32, so numpy never rejects one.
        draws, _ = rng.bounded(words, 2)
        packed = np.packbits(draws.astype(np.uint8), axis=1, bitorder="little")
        for row in packed:
            r = int.from_bytes(row.tobytes(), "little")
            yield BitVector(n, _apply_transfer(n // 2, r) ^ offset)


def exact_sample(x0: BitVector, seed: int, stream_index: int = 0) -> BitVector:
    """The state after n middle-coordinate steps from ``x0``, driven by the
    first n draws of stream ``(seed, stream_index)``.

    The output is exactly uniform on {0,1}^n for even n, from any start.
    """
    return next(exact_samples(x0, seed, stream_index, 1))


def solve_driving(x0: BitVector, z: BitVector) -> DrivingSequence:
    """The unique n-step driving sequence taking ``x0`` to ``z``.

    Solves ``B @ R == z ^ offset(x0)``; B has unit determinant, so the
    solution always exists and is unique.
    """
    if x0.n != z.n:
        raise ValueError(f"length mismatch: {x0.n} vs {z.n}")
    if x0.n % 2 != 0:
        raise ValueError(f"expected even length, got {x0.n}")
    m = x0.n // 2
    r = _invert_transfer(m, (z ^ build_offset(x0)).word)
    return DrivingSequence(coords=(m,) * x0.n, bits=BitVector(x0.n, r).bits)
