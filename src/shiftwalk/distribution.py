"""Exact evolution of the full state distribution.

Brute-force oracle for small n: the distribution over all 2**n states is a
dense float64 vector indexed by packed state words.  One step applies the
exact kernel in pull form: each state gathers the mass of the states that
shift onto it, with each possible pre-shift bit flip.  The kernel
probabilities are dyadic (1/2 and 1/(2n)), so accumulation error stays far
below the 1e-12 tolerances used by callers.

Each step is reproducible bit for bit: every entry is 0.5 p plus its n
flip terms w p (w = 1/(2n)), added in the order of the flipped bit.  The
products w p are formed once per step and each flip adds a shifted view of
them.  A product is one rounded operation, so its value does not depend on
how often it is formed.  The flips of the low bits pair entries inside one
aligned slab of 2**15 entries, so they are applied slab by slab while the
slab is in cache; the flips of the high bits then go over the whole
vector.  The entries of a step do not depend on each other, so the order
of the passes is free: every entry still sees 0.5 p, then + w p[x ^ 2**i]
for i = 0..n-1, the same operations on the same values in the same order.
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

# Evolving the oracle holds four 2**n-word arrays (the distribution, the
# flip sum, the products w p and the inverse shift index), about 512 MiB
# at n = 24; beyond that the dense oracle stops being a desk-scale tool.
MAX_EXACT_N = 24

# The flips of the bits below this one are applied slab by slab, 2**15
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


def _inverse_shift_index(n: int) -> np.ndarray:
    """Index array P with P[y] = the state whose shift-register image is y.

    The shift sends x to (x >> 1) | (parity(x) << (n - 1)), so its inverse
    restores the low bit of x as the parity of y: P[y] = (y << 1) mod 2**n
    | parity(y).
    """
    inv = np.arange(1 << n, dtype=np.intp)
    parity = np.bitwise_count(inv) & 1
    np.left_shift(inv, 1, out=inv)
    np.bitwise_and(inv, (1 << n) - 1, out=inv)
    np.bitwise_or(inv, parity, out=inv)
    return inv


def _split(a: np.ndarray, bit: int) -> np.ndarray:
    """View of ``a`` with axes (higher bits, ``bit``, lower bits).

    Reversing the middle axis, ``_split(a, bit)[:, ::-1]``, gives the view
    whose entry x is a[x ^ 2**bit], with no copy.
    """
    return a.reshape(-1, 2, 1 << bit)


def _add_flip(acc: np.ndarray, tmp: np.ndarray, bit: int) -> None:
    """acc[x] += tmp[x ^ 2**bit] at every x, in place."""
    a, b = _split(acc, bit), _split(tmp, bit)[:, ::-1]
    if bit < 2:
        # The views' inner runs are 1 or 2 entries long: iterate with the
        # long axis innermost instead.
        a, b = a.T, b.T
    np.add(a, b, out=a, order="C")


def _step(
    chain: ChainKind,
    probs: np.ndarray,
    acc: np.ndarray,
    tmp: np.ndarray,
    inv: np.ndarray,
) -> None:
    """One step of the kernel, in place in ``probs``; ``acc`` and ``tmp``
    are scratch buffers of the same size.

    The new mass at y is 0.5 p[inv[y]] + sum_i w p[inv[y] ^ 2**i], with
    w = 1/(2n), on q1 and 0.5 (p[inv[y]] + p[inv[y] ^ 2**(m-1)]) on q2.
    The bit-flip average is formed at every x first and then gathered once
    through ``inv``; since the gather is a permutation, each entry sees the
    same float operations in the same order as the direct sum.  On q1 the
    average is formed in two phases (see the module docstring):

    - slab phase: in each slab of 2**_SLAB_BITS entries, 0.5 p into
      ``acc``, w p into ``tmp``, then flips i < _SLAB_BITS, whose partners
      lie in the same slab, while the slab is in cache;
    - high-bit phase: flips i = _SLAB_BITS..n-1 over the whole vector.

    Flip i adds to each entry the product of its partner x ^ 2**i, and for
    every entry the flips come in the order i = 0..n-1.
    """
    if chain.kind == "q1":
        n = chain.n
        low = min(n, _SLAB_BITS)
        w = 1.0 / (2 * n)
        for lo in range(0, probs.size, 1 << low):
            slab = slice(lo, lo + (1 << low))
            a, b = acc[slab], tmp[slab]
            np.multiply(probs[slab], 0.5, out=a)
            np.multiply(probs[slab], w, out=b)
            for i in range(low):
                _add_flip(a, b, i)
        for i in range(low, n):
            _add_flip(acc, tmp, i)
    else:
        b = chain.middle - 1
        np.add(_split(probs, b), _split(probs, b)[:, ::-1], out=_split(acc, b))
        np.multiply(acc, 0.5, out=acc)
    # mode="clip" writes straight into ``out``; "raise" would buffer a copy.
    np.take(acc, inv, out=probs, mode="clip")


def _evolution(
    chain: ChainKind, probs: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (distribution, scratch) after 0, 1, 2, ... steps.

    Evolves ``probs`` in place, so the caller hands over an array it owns.
    The index and both step buffers are built once; the scratch buffer is
    free for the caller's use until it advances the iterator.
    """
    inv = _inverse_shift_index(chain.n)
    acc = np.empty_like(probs)
    tmp = np.empty_like(probs)
    while True:
        yield probs, tmp
        _step(chain, probs, acc, tmp, inv)


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
