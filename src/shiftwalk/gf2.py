"""Bit-packed exact linear algebra over GF(2).

Vectors and matrices store their entries packed into Python integers, one
bit per entry, so XOR does the field arithmetic a word at a time.  All
values are immutable after construction and safe to share across tasks.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "BitVector",
    "GF2Matrix",
    "SingularMatrixError",
    "shift_register",
    "companion_matrix",
    "mat_pow",
    "det_gf2",
    "solve_linear",
]


# Maps the ASCII digits 0 and 1 to the bytes 0 and 1.
_DIGIT_VALUES = bytes.maketrans(b"01", b"\0\1")


class SingularMatrixError(ValueError):
    """A linear solve met a matrix that is not invertible over GF(2)."""


@dataclass(frozen=True)
class BitVector:
    """A point of {0,1}^n packed into an int.

    Bit ``i`` of ``word`` holds coordinate ``i + 1`` of the 1-based
    labelling used in reports, so ``word`` doubles as the state's index
    into a length-2**n probability vector.
    """

    n: int
    word: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"dimension must be >= 1, got {self.n}")
        if self.word < 0 or self.word.bit_length() > self.n:  # builds no 1 << n
            raise ValueError(f"word {self.word} out of range for n={self.n}")

    @classmethod
    def zeros(cls, n: int) -> BitVector:
        return cls(n, 0)

    @classmethod
    def from_string(cls, text: str) -> BitVector:
        """Parse a bitstring whose leftmost character is coordinate 1."""
        if not text or text.strip("01"):
            raise ValueError(f"expected a nonempty string of 0s and 1s, got {text!r}")
        return cls(len(text), int(text[::-1], 2))

    @classmethod
    def random(cls, n: int, gen: np.random.Generator) -> BitVector:
        word = int.from_bytes(gen.bytes((n + 7) // 8), "little") & ((1 << n) - 1)
        return cls(n, word)

    def bit(self, i: int) -> int:
        """Entry at 0-based position ``i``."""
        if not 0 <= i < self.n:
            raise IndexError(f"position {i} out of range for n={self.n}")
        return (self.word >> i) & 1

    def __getitem__(self, i: int) -> int:
        return self.bit(i)

    def __len__(self) -> int:
        return self.n

    def __iter__(self) -> Iterator[int]:
        return ((self.word >> i) & 1 for i in range(self.n))

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple(self.to_string().encode("ascii").translate(_DIGIT_VALUES))

    def weight(self) -> int:
        """Number of ones (Hamming weight)."""
        return self.word.bit_count()

    def parity(self) -> int:
        return self.word.bit_count() & 1

    def __xor__(self, other: BitVector) -> BitVector:
        if self.n != other.n:
            raise ValueError(f"length mismatch: {self.n} vs {other.n}")
        return BitVector(self.n, self.word ^ other.word)

    def to_string(self) -> str:
        """Coordinate 1 first: the binary digits of ``word``, reversed."""
        return format(self.word, f"0{self.n}b")[::-1]

    def __str__(self) -> str:
        return self.to_string()


def _validate_square(m: GF2Matrix) -> None:
    if m.n_rows != m.n_cols:
        raise ValueError(f"matrix must be square, got {m.n_rows}x{m.n_cols}")


@dataclass(frozen=True)
class GF2Matrix:
    """Dense GF(2) matrix; bit ``j`` of ``rows[i]`` is entry (i, j)."""

    n_rows: int
    n_cols: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        # n_cols == 0 is allowed: the empty affine map of a 0-step evolution.
        if self.n_rows < 1 or self.n_cols < 0:
            raise ValueError("matrix dimensions must be positive")
        if len(self.rows) != self.n_rows:
            raise ValueError(f"expected {self.n_rows} rows, got {len(self.rows)}")
        if any(r < 0 or r.bit_length() > self.n_cols for r in self.rows):  # no 1 << n_cols
            raise ValueError("row word out of range for column count")

    @classmethod
    def identity(cls, n: int) -> GF2Matrix:
        return cls(n, n, tuple(_power_rows(n, 0)))

    @classmethod
    def from_columns(cls, n_rows: int, columns: Sequence[int]) -> GF2Matrix:
        """Build from column words (bit ``i`` of ``columns[j]`` is entry (i, j))."""
        rows = [0] * n_rows
        for j, col in enumerate(columns):
            while col:
                lsb = col & -col
                rows[lsb.bit_length() - 1] |= 1 << j
                col ^= lsb
        return cls(n_rows, len(columns), tuple(rows))

    def mul_vec(self, v: BitVector) -> BitVector:
        if v.n != self.n_cols:
            raise ValueError(f"length mismatch: {self.n_cols} columns vs {v.n}")
        word = 0
        for i, row in enumerate(self.rows):
            word |= ((row & v.word).bit_count() & 1) << i
        return BitVector(self.n_rows, word)

    def mul_mat(self, other: GF2Matrix) -> GF2Matrix:
        if self.n_cols != other.n_rows:
            raise ValueError(
                f"shape mismatch: {self.n_rows}x{self.n_cols} @ "
                f"{other.n_rows}x{other.n_cols}"
            )
        out = []
        for row in self.rows:
            acc = 0
            while row:
                lsb = row & -row
                acc ^= other.rows[lsb.bit_length() - 1]
                row ^= lsb
            out.append(acc)
        return GF2Matrix(self.n_rows, other.n_cols, tuple(out))

    def __matmul__(self, other):
        if isinstance(other, BitVector):
            return self.mul_vec(other)
        if isinstance(other, GF2Matrix):
            return self.mul_mat(other)
        return NotImplemented


def shift_register(x: BitVector) -> BitVector:
    """Drop the leading bit, shift left, and append the parity of the word.

    Output position ``j`` holds input position ``j + 1`` for j < n-1; the
    last position holds the XOR of all n input bits.
    """
    return BitVector(x.n, _shift_word(x.n, x.word))


def _shift_word(n: int, word: int) -> int:
    return (word >> 1) | ((word.bit_count() & 1) << (n - 1))


def _shift_power(n: int, word: int, k: int) -> int:
    """``_shift_word`` applied k >= 0 times, in O(1) word operations.

    The shift rotates the (n+1)-bit word (x, parity of x) right by one:
    its low n bits become the shifted x, and the bit rotated to the top,
    the dropped x_1, is the parity of the shifted x.  So k shifts are the
    low n bits of that word rotated right by k mod (n+1).
    """
    m = n + 1
    k %= m
    y = word | ((word.bit_count() & 1) << n)
    return ((y >> k) | (y << (m - k))) & ((1 << n) - 1)


def companion_matrix(n: int) -> GF2Matrix:
    """The n x n matrix M with ``M @ x == shift_register(x)`` for all x.

    Ones on the superdiagonal of the first n-1 rows and an all-ones last
    row.  Requires n >= 2.
    """
    if n < 2:
        raise ValueError(f"companion matrix needs n >= 2, got {n}")
    rows = [1 << (i + 1) for i in range(n - 1)]
    rows.append((1 << n) - 1)
    return GF2Matrix(n, n, tuple(rows))


def _power_rows(n: int, k: int) -> Iterator[int]:
    """The rows of ``companion_matrix(n) ** k``, one at a time, for k >= 0.

    ``M @ X`` keeps rows 2..n of X and appends the XOR of all of X's rows;
    after that step the XOR of all rows is the row just dropped.  So one
    power step rotates the n+1 rows (rows of X, their XOR) left by one,
    and the rows of M^k are the first n of the cycle e_1, ..., e_n,
    (1, ..., 1) rotated left by k mod (n+1).  At k = 0 they are the rows
    of the identity, for any n >= 1.
    """
    s = k % (n + 1)
    for i in range(s, n):
        yield 1 << i
    if s:
        yield (1 << n) - 1
        for i in range(s - 1):
            yield 1 << i


def mat_pow(m: GF2Matrix, k: int) -> GF2Matrix:
    """``m ** k`` by square-and-multiply; ``k == 0`` gives the identity."""
    _validate_square(m)
    if k < 0:
        raise ValueError(f"exponent must be >= 0, got {k}")
    result = GF2Matrix.identity(m.n_rows)
    base = m
    while k:
        if k & 1:
            result = result.mul_mat(base)
        k >>= 1
        if k:
            base = base.mul_mat(base)
    return result


def _eliminate(rows: list[int], n_cols: int) -> tuple[list[int], list[int]]:
    """In-place Gauss-Jordan over the first ``n_cols`` columns.

    Returns (rows in reduced form, pivot column list).  Bits beyond
    ``n_cols`` ride along, which is how augmented systems are solved.
    """
    pivots = []
    r = 0
    for col in range(n_cols):
        mask = 1 << col
        pivot = next((i for i in range(r, len(rows)) if rows[i] & mask), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i] & mask:
                rows[i] ^= rows[r]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def det_gf2(m: GF2Matrix) -> int:
    """1 iff ``m`` is invertible over GF(2), else 0."""
    _validate_square(m)
    _, pivots = _eliminate(list(m.rows), m.n_cols)
    return 1 if len(pivots) == m.n_rows else 0


def solve_linear(m: GF2Matrix, b: BitVector) -> BitVector:
    """The unique v with ``m @ v == b`` for invertible square ``m``.

    Raises SingularMatrixError when elimination meets a zero pivot
    column, i.e. whenever ``m`` is not invertible.
    """
    _validate_square(m)
    if b.n != m.n_rows:
        raise ValueError(f"length mismatch: {m.n_rows} rows vs {b.n}")
    n = m.n_rows
    aug = [m.rows[i] | (b.bit(i) << n) for i in range(n)]
    reduced, pivots = _eliminate(aug, n)
    if len(pivots) < n:
        raise SingularMatrixError(f"matrix of rank {len(pivots)} < {n} is singular")
    # Full rank: reduced == [I | v], so the augmented bits are the solution.
    word = 0
    for i in range(n):
        word |= ((reduced[i] >> n) & 1) << i
    return BitVector(n, word)
