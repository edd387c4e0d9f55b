"""Seeded sample generation for property checks and instance sets."""

from __future__ import annotations

import hashlib

import numpy as np


def rng_for(seed, key):
    """Deterministic generator; independent streams per (seed, key).

    The key enters through a 64-bit hash of all its bytes, so keys that share
    a prefix (``subadditive-m``, ``subadditive-n``) draw different samples.
    """
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return np.random.default_rng((int(seed), int.from_bytes(digest, "little")))


def gaussian_points(rng, n, dim):
    """Centered Gaussian samples scaled to unit expected squared norm."""
    return rng.standard_normal((n, dim)) / np.sqrt(dim)


def cone_members(cone, rng, n):
    """``cone.members(rng, n)``, under the name the benchmark's draw span wraps."""
    return cone.members(rng, n)
