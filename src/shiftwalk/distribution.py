"""Exact evolution of the full state distribution.

Brute-force oracle for small n: the distribution over all 2**n states is a
dense float64 vector indexed by packed state words.  One step applies the
exact kernel in pull form: each state gathers the mass of the states that
shift onto it, with each possible pre-shift bit flip.  The kernel
probabilities are dyadic (1/2 and 1/(2n)), so accumulation error stays far
below the 1e-12 tolerances used by callers.

Each step is reproducible bit for bit: every entry is 0.5 p plus its n
flip terms w p (w = 1/(2n)), added in the order of the flipped bit.  The
products w p are formed once per step, over the whole vector, and each
flip adds the product of the entry's partner.  A product is one rounded
operation, so its value does not depend on how often it is formed.  The
entries of a step do not depend on each other, so the average runs slab
by slab, 2**15 entries at a time, in one pass while the slab is in cache:
the flips of the low bits pair entries inside the slab, and the flip of a
high bit adds the products of a partner slab, a contiguous run.  Every
entry still sees 0.5 p, then + w p[x ^ 2**i] for i = 0..n-1, the same
operations on the same values in the same order.  A slab whose entries
are all +0.0 stays +0.0 through its halving and low flips, and its
products add +0.0, which leaves any entry but -0.0 as it is; so such a
slab skips those steps, and a partner add from it is skipped where the
receiving slab held no -0.0.  The evolution holds two 2**n-word buffers,
which a q1 step swaps.
"""
from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .chains import ChainKind
from .gf2 import BitVector

__all__ = [
    "MAX_EXACT_N",
    "DistributionVector",
    "point_mass",
    "evolve_exact",
    "tv_to_uniform",
    "weight_moments",
    "coordinate_marginal",
    "exact_tv_curve",
]

# Evolving the oracle holds two 2**n-word arrays, about 256 MiB at n = 24;
# beyond that the dense oracle stops being a desk-scale tool.
MAX_EXACT_N = 24

# The bit-flip average and the inverse shift run slab by slab, 2**15
# entries (256 KiB per array) at a time, so that they run in cache.
_SLAB_BITS = 15


def _check_guard(n: int) -> None:
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if n > MAX_EXACT_N:
        mib = (1 << n) * 8 / 2**20
        raise ValueError(
            f"exact distributions limited to n <= {MAX_EXACT_N}; "
            f"n={n} would need ~{mib:.0f} MiB per vector"
        )


@dataclass(frozen=True, eq=False)
class DistributionVector:
    """Probability vector over {0,1}^n, indexed by packed state words."""

    n: int
    probs: np.ndarray

    def __post_init__(self) -> None:
        _check_guard(self.n)
        if self.probs.shape != (1 << self.n,):
            raise ValueError(
                f"expected {1 << self.n} entries for n={self.n}, "
                f"got shape {self.probs.shape}"
            )
        if np.any(self.probs < 0):
            raise ValueError("negative probability entry")
        if abs(float(self.probs.sum()) - 1.0) > 1e-12:
            raise ValueError(f"mass {self.probs.sum()!r} not 1 within 1e-12")


def point_mass(n: int, x: BitVector) -> DistributionVector:
    """All mass on state ``x``."""
    _check_guard(n)
    if x.n != n:
        raise ValueError(f"state has length {x.n}, expected {n}")
    probs = np.zeros(1 << n)
    probs[x.word] = 1.0
    return DistributionVector(n, probs)


def _split(a: np.ndarray, bit: int) -> np.ndarray:
    """View of ``a`` with axes (higher bits, ``bit``, lower bits).

    Reversing the middle axis, ``_split(a, bit)[:, ::-1]``, gives the view
    whose entry x is a[x ^ 2**bit], with no copy.
    """
    return a.reshape(-1, 2, 1 << bit)


def _add_flip(acc: np.ndarray, tmp: np.ndarray, bit: int) -> None:
    """acc[x] += tmp[x ^ 2**bit] at every x, in place."""
    if bit in (1, 2):
        # Bit 1 or 2 is bit 0 or 1 of the view that pairs entries into
        # complex numbers, whose runs are twice as long; a complex add is
        # the two float adds.
        acc, tmp, bit = acc.view(np.complex128), tmp.view(np.complex128), bit - 1
    a, b = _split(acc, bit), _split(tmp, bit)[:, ::-1]
    if bit < 2:
        # The views' inner runs are 1 or 2 entries long: iterate with the
        # long axis innermost instead.
        a, b = a.T, b.T
    np.add(a, b, out=a, order="C")


def _unshift_index(n: int) -> np.ndarray:
    """``_unshift``'s index: the inverse shift on min(n, _SLAB_BITS + 1) bits."""
    m = min(n, _SLAB_BITS + 1)
    idx = np.arange(1 << m, dtype=np.intp)
    parity = np.bitwise_count(idx) & 1
    np.left_shift(idx, 1, out=idx)
    np.bitwise_and(idx, (1 << m) - 1, out=idx)
    np.bitwise_or(idx, parity, out=idx)
    return idx


def _unshift(src: np.ndarray, out: np.ndarray, idx: np.ndarray) -> None:
    """out[y] = src[x] at every y, with x the state that shifts onto y.

    That is x = 2y + parity(y) for y < 2**(n-1), and x ^ 1 for y + 2**(n-1);
    so piece j of s = idx.size / 2 outputs and the piece 2**(n-1) after it
    read src[2js:2(j+1)s], in cache, through the halves of ``idx`` (swapped
    if parity(j) is 1)."""
    # mode="clip" writes straight into ``out``; "raise" would buffer a copy.
    size, half = idx.size >> 1, out.size >> 1
    pieces = idx[:size], idx[size:]
    for lo in range(0, half, size):
        seg, odd = src[2 * lo:2 * (lo + size)], (lo // size).bit_count() & 1
        np.take(seg, pieces[odd], out=out[lo:lo + size], mode="clip")
        np.take(seg, pieces[odd ^ 1], out=out[half + lo:half + lo + size], mode="clip")


def _step(
    chain: ChainKind, probs: np.ndarray, other: np.ndarray, idx: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One step of the kernel on ``probs``, with ``other`` a buffer of the
    same size; returns (law, scratch), the two buffers in their new roles.

    The new mass at y is 0.5 p[x] + sum_i w p[x ^ 2**i], with w = 1/(2n)
    and x the state that shifts onto y, on q1, and 0.5 (p[x] + p[x ^
    2**(m-1)]) on q2.  The bit-flip average is formed at every x first, then
    gathered into the other buffer by ``_unshift``, a permutation, so each
    entry sees the same float operations in the same order as the direct
    sum.  q2 averages into ``other`` and gathers back; q1 writes w p into
    ``other``, then averages in ``probs`` one slab of 2**_SLAB_BITS entries
    at a time: p *= 0.5, the flips i < _SLAB_BITS from the slab's own
    products, then for i = _SLAB_BITS..n-1 the products of the partner
    slab, the slab's index ^ 2**(i - _SLAB_BITS).  For every entry the
    flips come in the order i = 0..n-1.  A slab of +0.0 words skips its
    halving and low flips, and its products, all +0.0, are not added to
    a slab that held no -0.0 (see the module docstring).
    """
    if chain.kind == "q1":
        n = chain.n
        low = min(n, _SLAB_BITS)
        slabs, prods = probs.reshape(-1, 1 << low), other.reshape(-1, 1 << low)
        # A slab's largest word is 0 if its entries are all +0.0, and has
        # its top bit set if one of them is -0.0.
        top = slabs.view(np.uint64).max(axis=1)
        live, signed = (top != 0).tolist(), (top >> np.uint64(63)).tolist()
        np.multiply(probs, 1.0 / (2 * n), out=other)
        for j, (a, b) in enumerate(zip(slabs, prods)):
            if live[j]:
                np.multiply(a, 0.5, out=a)
                for i in range(low):
                    _add_flip(a, b, i)
            for i in range(n - low):
                k = j ^ (1 << i)
                if live[k] or signed[j]:
                    np.add(a, prods[k], out=a)
        _unshift(probs, other, idx)
        return other, probs
    b = chain.middle - 1
    np.add(_split(probs, b), _split(probs, b)[:, ::-1], out=_split(other, b))
    np.multiply(other, 0.5, out=other)
    _unshift(other, probs, idx)
    return probs, other


def _evolution(
    chain: ChainKind, probs: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (distribution, scratch) after 0, 1, 2, ... steps.

    Evolves in ``probs``, so the caller hands over an array it owns, and
    in one more buffer of its size; a q1 step swaps the two.  The scratch
    buffer is free for the caller's use until it advances the iterator.
    """
    idx, other = _unshift_index(chain.n), np.empty_like(probs)
    while True:
        yield probs, other
        probs, other = _step(chain, probs, other, idx)


def evolve_exact(
    chain: ChainKind, d: DistributionVector, steps: int
) -> DistributionVector:
    """Apply the exact one-step kernel ``steps`` times (mass preserving)."""
    if chain.n != d.n:
        raise ValueError(f"chain has n={chain.n}, distribution has n={d.n}")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if steps == 0:
        return d
    states = _evolution(chain, np.array(d.probs, dtype=np.float64))
    probs, _ = next(itertools.islice(states, steps, None))
    return DistributionVector(chain.n, probs)


def _tv(probs: np.ndarray, out: np.ndarray) -> float:
    """TV distance of ``probs`` to uniform, using ``out`` as scratch."""
    np.subtract(probs, 1.0 / probs.size, out=out)
    np.abs(out, out=out)
    return 0.5 * float(out.sum())


def tv_to_uniform(d: DistributionVector) -> float:
    """Total variation distance to the uniform distribution."""
    return _tv(d.probs, np.empty(d.probs.shape))


def _weights(n: int) -> np.ndarray:
    idx = np.arange(1 << n, dtype=np.uint64)
    return np.bitwise_count(idx).astype(np.float64)


def weight_moments(d: DistributionVector) -> tuple[float, float]:
    """Exact (mean, variance) of the Hamming weight under ``d``."""
    w = _weights(d.n)
    mean = float(w @ d.probs)
    var = float(((w - mean) ** 2) @ d.probs)
    return mean, var


def coordinate_marginal(d: DistributionVector, coord: int) -> float:
    """Exact P(bit at 1-based ``coord`` equals 1) under ``d``."""
    if not 1 <= coord <= d.n:
        raise ValueError(f"coordinate {coord} out of range 1..{d.n}")
    # Raveled first, so the pairwise sum adds the states in index order.
    return float(_split(d.probs, coord - 1)[:, 1].ravel().sum())


def exact_laws(
    chain: ChainKind, x0: BitVector, t_max: int
) -> Iterator[tuple[int, DistributionVector]]:
    """Yield (t, exact law) for t = 0..t_max from a point mass at ``x0``.

    One evolution serves the whole sweep: each law is updated in place, so
    it is valid only until the next one is taken.
    """
    states = _evolution(chain, point_mass(chain.n, x0).probs)
    for t, (probs, _) in zip(range(t_max + 1), states):
        yield t, DistributionVector(chain.n, probs)


def exact_tv_curve(
    chain: ChainKind, x0: BitVector, t_max: int
) -> list[tuple[int, float]]:
    """(t, TV to uniform) for t = 0..t_max from a point mass at ``x0``."""
    if t_max < 0:
        raise ValueError(f"t_max must be >= 0, got {t_max}")
    states = _evolution(chain, point_mass(chain.n, x0).probs)
    return [(t, _tv(probs, tmp)) for t, (probs, tmp) in zip(range(t_max + 1), states)]
