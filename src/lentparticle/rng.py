"""Counter-based random streams with stable addressing.

All randomness in the library is drawn from Philox generators addressed by
``(seed, domain, index, subindex)``.  Philox is counter-based: two streams
with different addresses are independent, and recreating a stream from the
same address replays the same draws.  This gives two properties the rest of
the code relies on:

* runs are reproducible from a single 64-bit seed, and
* enlarging a study (more paths, more auxiliary draws) never perturbs the
  draws already attributed to earlier indices, because each index owns its
  own counter block rather than a slice of one shared sequence.

The ``DOMAIN_*`` constants partition the address space by purpose so that,
for example, path simulation and auxiliary-gradient sampling can never
collide even when they share a seed.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError

# Address-space partition.  Values are arbitrary but frozen: changing them
# changes every simulation output.
DOMAIN_ATOMS = 1      # atom counts, times and marks of a jump configuration
DOMAIN_RHO = 2        # auxiliary gradient draws, one subspace per draw index
DOMAIN_PATH = 3       # per-path sub-seeds in Monte Carlo studies
DOMAIN_PARTICLE = 4   # per-particle drivers in interacting systems


def stream(seed: int, domain: int, index: int = 0, subindex: int = 0) -> np.random.Generator:
    """Return the generator addressed by ``(seed, domain, index, subindex)``.

    The same address always yields the same stream.  ``index`` and
    ``subindex`` must be non-negative and below 2**64.
    """
    if index < 0 or subindex < 0:
        raise ValueError("stream index components must be non-negative")
    # a word outside [0, 2**64) raises OverflowError here
    key = np.array([seed, domain], dtype=np.uint64)
    # counter word 0 is left free: it is what advances as blocks are consumed.
    counter = np.array([0, index, subindex, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def _check_seed(seed: int, name: str = "seed") -> None:
    """Refuse a seed outside ``[0, 2**64)``, the words a stream's key holds,
    with :class:`InputError` naming the argument."""
    if not 0 <= seed < 2 ** 64:
        raise InputError(f"{name} must lie in [0, 2**64), got {seed}")


# Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2,
# 3", SC 2011): its two multipliers and its two key increments, as numpy's
# bit generator uses them
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
_LOW, _HALF = np.uint64(0xFFFFFFFF), np.uint64(32)
# a sub-seed lies in [0, _SUB_SEEDS), the range of the generator's int64 draw
_SUB_SEEDS = 2 ** 63 - 1


def _mulhilo(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The high and the low 64-bit words of the 128-bit products ``a * b`` of
    uint64 arrays, from their 32-bit halves."""
    a0, a1, b0, b1 = a & _LOW, a >> _HALF, b & _LOW, b >> _HALF
    cross0, cross1 = a0 * b1, a1 * b0
    mid = ((a0 * b0) >> _HALF) + (cross0 & _LOW) + (cross1 & _LOW)
    return a1 * b1 + (cross0 >> _HALF) + (cross1 >> _HALF) + (mid >> _HALF), a * b


def _first_words(seed: int, domain: int, indices: np.ndarray) -> np.ndarray:
    """The first 64-bit output of the stream at each ``(seed, domain, index)``:
    Philox4x64-10 with key ``[seed, domain]`` at counter ``[1, index, 0, 0]``,
    the counter a fresh stream takes for its first block."""
    # the counter as its even words (0, 2) and its odd words (1, 3)
    even = np.zeros((2, indices.shape[0]), dtype=np.uint64)
    even[0] = 1
    odd = np.zeros_like(even)
    odd[0] = indices
    key = np.array([[seed], [domain]], dtype=np.uint64)
    for r in range(10):
        if r:
            key += _PHILOX_W
        hi, lo = _mulhilo(_PHILOX_M, even)
        even, odd = hi[::-1] ^ odd ^ key, lo[::-1]
    return even[0]


def path_seeds(seed: int, n: int, domain: int = DOMAIN_PATH) -> list[int]:
    """Derive the 64-bit sub-seeds of paths ``0 .. n - 1`` of a Monte Carlo
    study, or with ``domain=DOMAIN_PARTICLE`` of particles.

    Sub-seed ``i`` is ``int(stream(seed, domain, i).integers(0, 2**63 - 1,
    dtype=np.int64))``, the same bits, derived for every ``i`` in one numpy
    pass: the stream's first Philox output mapped onto ``[0, 2**63 - 1)`` by
    Lemire's multiply-and-shift ("Fast random integer generation in an
    interval", ACM TOMACS 2019).  Only an index whose product Lemire's method
    would reject (its low word below 2, with probability about 2**-62)
    opens its generator.  Distinct ``(seed, i)`` pairs give distinct
    sub-seeds with overwhelming probability, and the derivation is pure, so
    path ``i`` of a study is the same object no matter how many paths
    surround it.  A seed outside ``[0, 2**64)`` is refused with
    :class:`InputError`.
    """
    _check_seed(seed)
    return _sub_seeds(seed, domain, np.arange(n, dtype=np.uint64))


def _sub_seeds(seed: int, domain: int, indices: np.ndarray) -> list[int]:
    """:func:`path_seeds` at the uint64 ``indices``."""
    hi, lo = _mulhilo(_first_words(seed, domain, indices), np.uint64(_SUB_SEEDS))
    out = hi.tolist()
    for k in np.flatnonzero(lo < 2).tolist():
        out[k] = int(stream(seed, domain, int(indices[k])).integers(0, _SUB_SEEDS,
                                                                      dtype=np.int64))
    return out
