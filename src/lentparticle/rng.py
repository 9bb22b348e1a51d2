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


def path_seed(seed: int, path_index: int, domain: int = DOMAIN_PATH) -> int:
    """Derive a per-path 64-bit sub-seed for Monte Carlo studies.

    Distinct ``(seed, path_index)`` pairs give distinct sub-seeds with
    overwhelming probability, and the derivation is pure, so path ``i`` of a
    study is the same object no matter how many paths surround it.  With
    ``domain=DOMAIN_PARTICLE`` it derives the sub-seed of particle ``i``.
    """
    g = stream(seed, domain, path_index)
    return int(g.integers(0, 2**63 - 1, dtype=np.int64))
