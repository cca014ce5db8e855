"""Deterministic random-number-generator plumbing.

Every stochastic entry point in the library accepts a ``seed`` argument that
may be ``None`` (fresh OS entropy), an ``int`` (reproducible), or an
already-constructed :class:`random.Random` / :class:`numpy.random.Generator`
instance.  This module centralises the normalisation so that all modules
behave identically.

The library standardises on :class:`random.Random` for combinatorial choices
(set sampling, shuffles) because its method set maps directly onto the
operations the algorithms need, and on :class:`numpy.random.Generator` for
bulk numeric sampling inside the generators.
"""

from __future__ import annotations

import hashlib
import random
from typing import List, Union

import numpy as np

__all__ = [
    "SeedLike",
    "as_random",
    "as_numpy_rng",
    "spawn_seed",
    "as_master_seed",
    "derive_seed",
    "spawn_streams",
    "STREAM_REPLICATES",
]

#: Acceptable values for every ``seed`` parameter in the library.
SeedLike = Union[None, int, random.Random, np.random.Generator]

#: Exclusive upper bound used when deriving child seeds.
_MAX_SEED = 2**63


def as_random(seed: SeedLike = None) -> random.Random:
    """Return a :class:`random.Random` for ``seed``.

    ``None`` yields a freshly-seeded generator, an ``int`` a deterministic
    one, an existing :class:`random.Random` is passed through, and a numpy
    generator is adapted by drawing a derivation seed from it.
    """
    if seed is None:
        return random.Random()
    if isinstance(seed, random.Random):
        return seed
    if isinstance(seed, np.random.Generator):
        return random.Random(int(seed.integers(_MAX_SEED)))
    if isinstance(seed, (int, np.integer)):
        return random.Random(int(seed))
    raise TypeError(f"cannot interpret {seed!r} as a random seed")


def as_numpy_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Mirrors :func:`as_random` for numpy generators.
    """
    if seed is None:
        return np.random.default_rng()
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, random.Random):
        return np.random.default_rng(seed.randrange(_MAX_SEED))
    if isinstance(seed, (int, np.integer)):
        return np.random.default_rng(int(seed))
    raise TypeError(f"cannot interpret {seed!r} as a random seed")


def spawn_seed(rng: random.Random) -> int:
    """Draw an integer suitable for seeding an independent child generator."""
    return rng.randrange(_MAX_SEED)


# ----------------------------------------------------------------------
# Deterministic stream splitting (used by the replicate fan-out)
# ----------------------------------------------------------------------
#
# ``spawn_seed`` derives children by *advancing* a generator, so the i-th
# child depends on how many were drawn before it — fine for sequential
# code, fatal for parallel code where the number and order of draws must
# not matter.  The functions below instead derive children by *keying*:
# ``derive_seed(master, *key)`` is a pure function of the master seed and
# an integer key path, so any task can reconstruct its private stream
# from ``(master, task_index)`` alone, independent of scheduling order
# or worker count.

#: Reserved top-level stream key of the replicate fan-out.  Component
#: streams are derived as ``derive_seed(master, STREAM_X, ...)`` so that
#: two components descending from the same user-supplied seed never
#: share a stream.
STREAM_REPLICATES = 4


def as_master_seed(seed: SeedLike = None) -> int:
    """Normalise any :data:`SeedLike` to one canonical master integer.

    ``None`` draws fresh OS entropy and an ``int`` is passed through
    (reduced into range).  Generator instances are fingerprinted from
    their *state* — deterministic, and crucially **non-consuming**: the
    caller's generator keeps its exact draw sequence, so stream
    derivation can be added next to existing sequential RNG use without
    perturbing it.
    """
    if seed is None:
        return random.SystemRandom().randrange(_MAX_SEED)
    if isinstance(seed, (int, np.integer)):
        return int(seed) % _MAX_SEED
    if isinstance(seed, random.Random):
        digest = hashlib.blake2b(repr(seed.getstate()).encode(), digest_size=8)
        return int.from_bytes(digest.digest(), "big") % _MAX_SEED
    if isinstance(seed, np.random.Generator):
        digest = hashlib.blake2b(
            repr(seed.bit_generator.state).encode(), digest_size=8
        )
        return int.from_bytes(digest.digest(), "big") % _MAX_SEED
    raise TypeError(f"cannot interpret {seed!r} as a random seed")


def derive_seed(master: int, *key: int) -> int:
    """Derive a child seed from ``master`` and an integer key path.

    Stable across processes and Python versions (BLAKE2b, not ``hash``),
    collision-resistant in the key path, and independent of call order —
    the property that makes a replicate fan-out's results the same for
    any worker count.
    """
    digest = hashlib.blake2b(digest_size=8)
    for part in (master, *key):
        digest.update(int(part).to_bytes(16, "big", signed=True))
    return int.from_bytes(digest.digest(), "big") % _MAX_SEED


def spawn_streams(seed: SeedLike, n: int, *, key: int = STREAM_REPLICATES) -> List[int]:
    """Split ``seed`` into ``n`` independent stream seeds.

    The i-th element is ``derive_seed(as_master_seed(seed), key, i)``:
    handing stream ``i`` to task ``i`` gives every task a private RNG
    whose draws cannot collide with any sibling's, regardless of how the
    tasks are scheduled.
    """
    if n < 0:
        raise ValueError(f"cannot spawn a negative number of streams, got {n}")
    master = as_master_seed(seed)
    return [derive_seed(master, key, index) for index in range(n)]
