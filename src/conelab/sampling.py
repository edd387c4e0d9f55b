"""Seeded sample generation for property checks and instance sets."""

from __future__ import annotations

import hashlib

import numpy as np

from .cones import Lorentz, Simplicial, _row_norm, generators_of


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
    """Random members of the cone, O(1) norms, built from generator data.

    A polyhedral cone's members are nonnegative combinations of the rows of
    :func:`generators_of`, one coefficient per row.  For a generator or
    halfspace cone those rows are its canonical ray matrix of unit rays, so
    the draws do not depend on the order or lengths of the listed vectors,
    or on redundant generators.
    """
    m = cone.dim
    if isinstance(cone, Simplicial):
        coeff = np.abs(rng.standard_normal((n, m))) / np.sqrt(m)
        return coeff @ cone.basis.T
    if isinstance(cone, Lorentz):
        bar = rng.standard_normal((n, m - 1))
        radius = _row_norm(bar)
        t = radius * (1.0 + np.abs(rng.standard_normal(n)))
        pts = np.concatenate([bar, t[:, None]], axis=1) / np.sqrt(m)
        return -pts if cone.negated else pts
    G = generators_of(cone)  # raises for a cone that is not polyhedral
    coeff = np.abs(rng.standard_normal((n, G.shape[0]))) / G.shape[0]
    return coeff @ G
