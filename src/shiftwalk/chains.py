"""Transition kernels of the shift-register walks and deterministic replay.

Two chains share the same deterministic move (drop the leading bit, shift,
append the parity): ``q1`` first adds a random bit at a uniformly chosen
coordinate, ``q2`` always updates the middle coordinate of an even-length
state.  All randomness is factored into a DrivingSequence so that every
stochastic operation is a thin wrapper over deterministic replay.
"""
from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Iterator, Sequence, Union

import numpy as np

from . import rng
from .gf2 import BitVector, GF2Matrix, _shift_power, _shift_word

__all__ = [
    "ChainKind",
    "DrivingSequence",
    "AffineState",
    "q1",
    "q2",
    "simulate",
    "random_driving",
    "evolve_symbolic",
]


@dataclass(frozen=True)
class ChainKind:
    """One of the two kernels, with its dimension.

    ``q1`` updates a uniform random coordinate each step; ``q2`` always
    updates coordinate n/2 and requires even n.
    """

    kind: str
    n: int

    def __post_init__(self) -> None:
        if self.kind not in ("q1", "q2"):
            raise ValueError(f"unknown chain kind {self.kind!r}")
        if self.n < 1:
            raise ValueError(f"dimension must be >= 1, got {self.n}")
        if self.kind == "q2" and self.n % 2 != 0:
            raise ValueError(f"q2 needs even dimension, got n={self.n}")

    @property
    def middle(self) -> int:
        """The fixed 1-based update coordinate of q2."""
        if self.kind != "q2":
            raise ValueError("only q2 has a fixed update coordinate")
        return self.n // 2

    def check_start(self, x0: BitVector) -> None:
        """Raise ValueError unless the start ``x0`` has this chain's length."""
        if x0.n != self.n:
            raise ValueError(f"start has length {x0.n}, chain has n={self.n}")


def q1(n: int) -> ChainKind:
    return ChainKind("q1", n)


def q2(n: int) -> ChainKind:
    return ChainKind("q2", n)


@dataclass(frozen=True)
class DrivingSequence:
    """Paired update coordinates (1-based) and update bits, one per step."""

    coords: tuple[int, ...]
    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coords) != len(self.bits):
            raise ValueError(
                f"{len(self.coords)} coordinates vs {len(self.bits)} bits"
            )
        # Per entry, ``u < 1`` run by map in C; min cannot stand in, as min
        # over a NaN before a 0 returns the NaN.  A bit is counted when it
        # equals 0 or 1, which is ``b in (0, 1)``.
        if any(map(operator.lt, self.coords, itertools.repeat(1))):
            raise ValueError("update coordinates are 1-based and must be >= 1")
        if self.bits.count(0) + self.bits.count(1) != len(self.bits):
            raise ValueError("update bits must be 0 or 1")

    def __len__(self) -> int:
        return len(self.coords)


@dataclass(frozen=True)
class AffineState:
    """The state after t steps as an affine map of the update bits.

    For the fixed coordinate sequence, the state equals
    ``map @ (R_1..R_t) ^ offset`` for every realization of the bits.
    """

    map: GF2Matrix
    offset: BitVector


def _step_word(n: int, word: int, u: int, r: int) -> int:
    """One step on a packed state: flip bit at 1-based ``u`` if r, then shift."""
    if r:
        word ^= 1 << (u - 1)
    return _shift_word(n, word)


def _validate_coords(chain: ChainKind, coords: Sequence[int]) -> None:
    if any(not 1 <= u <= chain.n for u in coords):
        raise ValueError(f"update coordinates must lie in 1..{chain.n}")
    if chain.kind == "q2" and any(u != chain.middle for u in coords):
        raise ValueError(f"q2 driving must use coordinate {chain.middle} only")


def _replay(
    chain: ChainKind, x0: BitVector, driving: DrivingSequence
) -> Iterator[int]:
    """The packed states x_0..x_t of the deterministic replay, one at a
    time; ``x0`` and the driving are checked before x_0 is yielded."""
    chain.check_start(x0)
    _validate_coords(chain, driving.coords)
    n, word = chain.n, x0.word
    yield word
    for u, r in zip(driving.coords, driving.bits):
        word = _step_word(n, word, u, r)
        yield word


def simulate(
    chain: ChainKind, x0: BitVector, driving: DrivingSequence
) -> list[BitVector]:
    """Deterministic replay; returns the configuration sequence x_0..x_t."""
    return [BitVector(chain.n, word) for word in _replay(chain, x0, driving)]


def _draw_driving_arrays(chain: ChainKind, t: int, seed: int, stream_index: int):
    """Raw (coords, bits) arrays for one trajectory's stream.

    The reference for ``_decode_driving``, which also draws its rejected
    rows through it; random_driving reads it too.  coords is None for q2.
    """
    if t < 0:
        raise ValueError(f"trajectory length must be >= 0, got {t}")
    gen = rng.stream(seed, stream_index)
    coords = None
    if chain.kind == "q1":
        coords = gen.integers(1, chain.n + 1, size=t, dtype=np.int64)
    bits = gen.integers(0, 2, size=t, dtype=np.uint8)
    return coords, bits


def _driving_values(chain: ChainKind, t: int) -> int:
    """How many 32-bit values of its stream a trajectory of t steps reads,
    when numpy rejects none of its coordinates: one a q1 coordinate (none
    at n = 1, where the range has one element), then one byte a bit."""
    return (t if chain.kind == "q1" and chain.n > 1 else 0) + (t + 3) // 4


def _decode_driving(
    chain: ChainKind, t: int, words: np.ndarray, seed: int, first: int
) -> tuple[np.ndarray | None, np.ndarray]:
    """The driving arrays (coords, bits) of t steps, decoded from the
    first ``_driving_values(chain, t)`` columns of ``words``, row j of
    which holds the values of stream (seed, first + j).

    Row j equals ``_draw_driving_arrays(chain, t, seed, first + j)`` bit
    for bit.  Both draws read one 32-bit value stream: the coordinates
    first, then the bits, one byte each, low byte first, starting at the
    next value.  A row whose coordinates numpy would reject and redraw is
    drawn again through ``_draw_driving_arrays``.
    """
    n_coords = _driving_values(chain, t) - (t + 3) // 4
    coords = None
    redo = ()
    if n_coords:
        values, rejected = rng.bounded(words[:, :t], chain.n)
        coords = values.view(np.int64)  # values < 2**32: the same numbers
        coords += 1
        redo = np.flatnonzero(rejected.any(axis=1))
    elif chain.kind == "q1":
        coords = np.ones((len(words), t), dtype=np.int64)
    # The little-endian words' bytes, low byte first; a bit is the top bit
    # of its byte.
    bits = words[:, n_coords:].view(np.uint8)[:, :t] >> 7
    for j in redo:
        coords[j], bits[j] = _draw_driving_arrays(chain, t, seed, first + int(j))
    return coords, bits


def random_driving(
    chain: ChainKind, t: int, seed: int, stream_index: int = 0
) -> DrivingSequence:
    """Fresh driving sequence of length ``t`` from stream (seed, stream_index).

    q1 draws coordinates uniform on 1..n and bits uniform on {0,1}; q2
    draws only bits, its coordinate is fixed.
    """
    coords, bits = _draw_driving_arrays(chain, t, seed, stream_index)
    if coords is None:
        coord_tuple = (chain.middle,) * t
    else:
        coord_tuple = tuple(coords.tolist())
    return DrivingSequence(coord_tuple, tuple(bits.tolist()))


def evolve_symbolic(
    chain: ChainKind, x0: BitVector, coords: Union[Sequence[int], int]
) -> AffineState:
    """Track the state as an affine function of the (symbolic) update bits.

    ``coords`` is the update-coordinate sequence; for q2 an integer step
    count may be given instead, the coordinate being implied.  Column j of
    the returned map is the image of the j-th update bit and the offset is
    the image of the start, so replaying any concrete bits R reproduces
    ``map @ R ^ offset``.
    """
    chain.check_start(x0)
    if isinstance(coords, int):
        if chain.kind != "q2":
            raise ValueError("step count only implies coordinates for q2")
        coords = (chain.middle,) * coords
    coords = tuple(coords)
    _validate_coords(chain, coords)
    n, t = chain.n, len(coords)
    # X_t = A^t x0 ^ sum over s = 1..t of R_s A^(t-s+1) e_(u_s), A the shift.
    columns = [
        _shift_power(n, 1 << (u - 1), t - s + 1) for s, u in enumerate(coords, 1)
    ]
    return AffineState(
        map=GF2Matrix.from_columns(n, columns),
        offset=BitVector(n, _shift_power(n, x0.word, t)),
    )

