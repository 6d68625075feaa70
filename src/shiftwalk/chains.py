"""Transition kernels of the shift-register walks and deterministic replay.

Two chains share the same deterministic move (drop the leading bit, shift,
append the parity): ``q1`` first adds a random bit at a uniformly chosen
coordinate, ``q2`` always updates the middle coordinate of an even-length
state.  All randomness is factored into a DrivingSequence so that every
stochastic operation is a thin wrapper over deterministic replay.
"""
from __future__ import annotations

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
        if any(u < 1 for u in self.coords):
            raise ValueError("update coordinates are 1-based and must be >= 1")
        if any(b not in (0, 1) for b in self.bits):
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


def _validate_driving(chain: ChainKind, driving: DrivingSequence) -> None:
    if any(u > chain.n for u in driving.coords):
        raise ValueError(f"update coordinate exceeds n={chain.n}")
    if chain.kind == "q2" and any(u != chain.middle for u in driving.coords):
        raise ValueError(f"q2 driving must use coordinate {chain.middle} only")


def _replay(
    chain: ChainKind, x0: BitVector, driving: DrivingSequence
) -> Iterator[int]:
    """The packed states x_0..x_t of the deterministic replay, one at a time.

    ``x0`` and the driving are checked when this is called, before any step.
    """
    if x0.n != chain.n:
        raise ValueError(f"start has length {x0.n}, chain has n={chain.n}")
    _validate_driving(chain, driving)

    def states(n: int = chain.n, word: int = x0.word) -> Iterator[int]:
        yield word
        for u, r in zip(driving.coords, driving.bits):
            word = _step_word(n, word, u, r)
            yield word

    return states()


def simulate(
    chain: ChainKind, x0: BitVector, driving: DrivingSequence
) -> list[BitVector]:
    """Deterministic replay; returns the configuration sequence x_0..x_t."""
    return [BitVector(chain.n, word) for word in _replay(chain, x0, driving)]


def _draw_driving_arrays(chain: ChainKind, t: int, seed: int, stream_index: int):
    """Raw (coords, bits) arrays for one trajectory's stream.

    Shared by random_driving and the vectorized ensembles so that both
    consume the stream in the same order.  coords is None for q2.
    """
    if t < 0:
        raise ValueError(f"trajectory length must be >= 0, got {t}")
    gen = rng.stream(seed, stream_index)
    coords = None
    if chain.kind == "q1":
        coords = gen.integers(1, chain.n + 1, size=t, dtype=np.int64)
    bits = gen.integers(0, 2, size=t, dtype=np.uint8)
    return coords, bits


def _draw_driving_blocks(
    chain: "ChainKind | np.ndarray", t: int, seed: int, start: int, count: int
) -> Iterator[tuple[int, np.ndarray | None, np.ndarray]]:
    """The driving arrays of streams start..start+count-1, in blocks.

    ``chain`` is a ChainKind, or an integer array of q1 dimensions n >= 2,
    one per stream.  Yields ``(offset, coords, bits)``; row j equals
    ``_draw_driving_arrays(c, t, seed, start + offset + j)`` bit for bit,
    c being ``chain`` or ``q1(chain[offset + j])``.  Both draws read one
    32-bit value stream: a q1 coordinate takes one value (none at n = 1,
    where the range has one element), and the bits take one byte each,
    low byte first, starting at the next value.  A row whose coordinates
    numpy would reject and redraw is drawn again through the per-stream
    path.
    """
    if t < 0:
        raise ValueError(f"trajectory length must be >= 0, got {t}")
    per_stream = not isinstance(chain, ChainKind)
    if per_stream:
        ns = np.asarray(chain, dtype=np.int64)
    is_q1 = per_stream or chain.kind == "q1"
    n_coords = t if per_stream or (is_q1 and chain.n > 1) else 0
    for offset, words in rng.stream_words(
        seed, start, count, n_coords + (t + 3) // 4
    ):
        rows = len(words)
        coords = None
        redo = ()
        if n_coords:
            n = ns[offset : offset + rows, None] if per_stream else chain.n
            values, rejected = rng.bounded(words[:, :t], n)
            coords = values.view(np.int64)  # values < 2**32: the same numbers
            coords += 1
            redo = np.flatnonzero(rejected.any(axis=1))
        elif is_q1:
            coords = np.ones((rows, t), dtype=np.int64)
        # The little-endian words' bytes, low byte first; a bit is the top
        # bit of its byte.
        bits = words[:, n_coords:].view(np.uint8)[:, :t] >> 7
        for j in redo:
            row_chain = q1(int(n[j, 0])) if per_stream else chain
            coords[j], bits[j] = _draw_driving_arrays(
                row_chain, t, seed, start + offset + int(j)
            )
        yield offset, coords, bits


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
    if x0.n != chain.n:
        raise ValueError(f"start has length {x0.n}, chain has n={chain.n}")
    if isinstance(coords, int):
        if chain.kind != "q2":
            raise ValueError("step count only implies coordinates for q2")
        coords = (chain.middle,) * coords
    coords = tuple(coords)
    _validate_driving(chain, DrivingSequence(coords, (0,) * len(coords)))
    n, t = chain.n, len(coords)
    # X_t = A^t x0 ^ sum over s = 1..t of R_s A^(t-s+1) e_(u_s), A the shift.
    columns = [
        _shift_power(n, 1 << (u - 1), t - s + 1) for s, u in enumerate(coords, 1)
    ]
    return AffineState(
        map=GF2Matrix.from_columns(n, columns),
        offset=BitVector(n, _shift_power(n, x0.word, t)),
    )

