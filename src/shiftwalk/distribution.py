"""Exact evolution of the full state distribution.

Brute-force oracle for small n: the law over all 2**n states is a dense
float64 vector indexed by packed state words, evolved by the exact kernel
in pull form (each state gathers the mass of the states that shift onto
it).  The kernel probabilities are dyadic (1/2 and 1/(2n)), so
accumulation error stays far below the 1e-12 tolerances used by callers.
Every law and distance is reproducible bit for bit: each entry sees the
float operations of the direct sum, in its order (``_step``, ``_tv``).
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

# numpy's ufunc buffer size, in elements, while a q1 step adds its flips
# (numpy's default is 8192).  exact_tv_curve(q1(n)) over t = 0..n+1, one
# fresh process a reading, pinned to one CPU of a shared 2-vCPU VM, median
# seconds by buffer size (10 readings at n = 20, 6 at n = 22):
#
#     size     512    1024    2048    4096    8192
#     n = 20   0.261  0.263   0.257   0.284   0.286
#     n = 22   1.41   1.36    1.41    1.51    1.51
_FLIP_BUFSIZE = 1024


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
        # Written so that NaN fails both tests: an infinite entry leaves a
        # NaN or infinite mass.
        if not np.all(self.probs >= 0):
            raise ValueError("negative or NaN probability entry")
        mass = float(self.probs.sum())
        if not abs(mass - 1.0) <= 1e-12:
            raise ValueError(f"mass {mass!r} not 1 within 1e-12")


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


def _flip_views(a: np.ndarray, low: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """For each bit i < ``low``, two views of ``a`` cut into slabs of
    2**low entries, whose index j is slab j: as a flip's target, and as its
    source, whose entry x is the slab's entry x ^ 2**i.  A step only
    indexes them, so they are built once per buffer."""
    views = []
    for i in range(low):
        # Bit 1 or 2 is bit 0 or 1 of the view that pairs entries into
        # complex numbers, whose runs are twice as long; a complex add is
        # the two float adds.
        v, bit = (a.view(np.complex128), i - 1) if i in (1, 2) else (a, i)
        target = v.reshape(a.size >> low, -1, 2, 1 << bit)
        source = target[:, :, ::-1]
        if bit < 2:
            # The inner runs are 1 or 2 entries long: iterate with the
            # long axis innermost instead.
            target, source = target.transpose(0, 3, 2, 1), source.transpose(0, 3, 2, 1)
        views.append((target, source))
    return views


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


# A buffer of the evolution with its flip views (``_flip_views``).
_Buffer = tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]


def _step(
    chain: ChainKind, law: _Buffer, spare: _Buffer, idx: np.ndarray
) -> tuple[_Buffer, _Buffer]:
    """One step of the kernel.  ``law`` is the buffer ``probs`` holding the
    law and ``spare`` a buffer ``other`` of its size, each with its flip
    views; returns (law, spare), the two in their new roles.

    The new mass at y is 0.5 p[x] + sum_i w p[x ^ 2**i], with w = 1/(2n)
    and x the state that shifts onto y, on q1, and 0.5 (p[x] + p[x ^
    2**(m-1)]) on q2.  The bit-flip average is formed at every x first, then
    gathered into the other buffer by ``_unshift``, a permutation, so each
    entry sees the same float operations in the same order as the direct
    sum.  q2 averages into ``other`` and gathers back; q1 writes w p into
    ``other`` (a product is one rounding, so forming it once gives each
    flip's value), then averages in ``probs`` one slab of 2**_SLAB_BITS
    entries at a time: p *= 0.5, the flips i < _SLAB_BITS from the slab's
    own products, then for i = _SLAB_BITS..n-1 the products of the partner
    slab, the slab's index ^ 2**(i - _SLAB_BITS).  For every entry the
    flips come in the order i = 0..n-1.  A slab of +0.0 words stays +0.0
    through its halving and low flips, so it skips them; its products, all
    +0.0, leave any entry but -0.0 as it is, so they are not added to a
    slab that held no -0.0.
    """
    (probs, targets), (other, sources) = law, spare
    if chain.kind == "q1":
        n = chain.n
        low = min(n, _SLAB_BITS)
        slabs, prods = probs.reshape(-1, 1 << low), other.reshape(-1, 1 << low)
        # A slab's largest word is 0 if its entries are all +0.0, and has
        # its top bit set if one of them is -0.0.
        top = slabs.view(np.uint64).max(axis=1)
        live, signed = (top != 0).tolist(), (top >> np.uint64(63)).tolist()
        flips = [(t, s) for (t, _), (_, s) in zip(targets, sources)]
        np.multiply(probs, 1.0 / (2 * n), out=other)
        # The flip adds read their source through a reversed axis, which
        # numpy's iterator copies through its ufunc buffers; smaller ones
        # stay in L1 (see _FLIP_BUFSIZE).  The setting is scoped to this
        # block, which yields to no caller and runs no reduction, whose
        # bits could depend on it.
        with np.errstate():
            np.setbufsize(_FLIP_BUFSIZE)
            for j, a in enumerate(slabs):
                if live[j]:
                    np.multiply(a, 0.5, out=a)
                    for t, s in flips:
                        x = t[j]
                        np.add(x, s[j], out=x, order="C")
                for i in range(n - low):
                    k = j ^ (1 << i)
                    if live[k] or signed[j]:
                        np.add(a, prods[k], out=a)
        _unshift(probs, other, idx)
        return spare, law
    b = chain.middle - 1
    np.add(_split(probs, b), _split(probs, b)[:, ::-1], out=_split(other, b))
    np.multiply(other, 0.5, out=other)
    _unshift(other, probs, idx)
    return law, spare


def _evolution(
    chain: ChainKind, probs: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (distribution, scratch) after 0, 1, 2, ... steps.

    Evolves in ``probs``, so the caller hands over an array it owns, and
    in one more buffer of its size; a q1 step swaps the two.  The scratch
    buffer is free for the caller's use until it advances the iterator.
    """
    idx = _unshift_index(chain.n)
    low = min(chain.n, _SLAB_BITS) if chain.kind == "q1" else 0
    law, spare = ((a, _flip_views(a, low)) for a in (probs, np.empty_like(probs)))
    while True:
        yield law[0], spare[0]
        law, spare = _step(chain, law, spare, idx)


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


def _tv(probs: np.ndarray, scratch: np.ndarray) -> float:
    """TV distance of ``probs`` to uniform, with ``scratch`` as work space.

    ``scratch`` holds one slab: all of ``probs``, or 2**k of its entries
    with k >= 7.  Each slab's |p - 2**-n| is summed in it, in cache, and the
    partial sums are added as a binary tree of halves.  numpy's pairwise
    sum of a contiguous float64 array of 2**m entries is that tree down to
    blocks of 128 entries, so the result equals 0.5 * |probs - 2**-n|.sum()
    bit for bit.
    """
    parts = np.empty(probs.size // scratch.size)
    for j, slab in enumerate(probs.reshape(-1, scratch.size)):
        np.subtract(slab, 1.0 / probs.size, out=scratch)
        np.abs(scratch, out=scratch)
        parts[j] = scratch.sum()
    while parts.size > 1:
        parts = parts[0::2] + parts[1::2]
    return 0.5 * float(parts[0])


def tv_to_uniform(d: DistributionVector) -> float:
    """Total variation distance to the uniform distribution."""
    return _tv(d.probs, np.empty(min(d.probs.size, 1 << _SLAB_BITS)))


def weight_moments(d: DistributionVector) -> tuple[float, float]:
    """Exact (mean, variance) of the Hamming weight under ``d``."""
    w = np.bitwise_count(np.arange(1 << d.n, dtype=np.uint64)).astype(np.float64)
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
    return [
        (t, _tv(probs, tmp[: 1 << _SLAB_BITS]))
        for t, (probs, tmp) in zip(range(t_max + 1), states)
    ]
