"""Retraction pairs: two maps m, n with m + n = I and m(n(x)) = n(m(x)) = 0.

Three families are provided.  The lattice pair clamps basis coordinates of
a simplicial cone (positive part and minus the negative part).  The Moreau
pair projects onto a closed convex cone and onto its polar.  The order-unit
pair scales an interior anchor of a polyhedral cone by the smallest factor
that dominates the argument.
"""

from __future__ import annotations

import numpy as np

from . import oracle
from .cones import (DEFAULT_TOL, PolyhedralGenerators, PolyhedralHalfspaces, Simplicial,
                    _dot, _json_object, _row_max, _row_norm, _rowwise, as_vector, cone_from_json)


def project_cone(cone, x):
    """Metric projection of x onto the cone.

    The result p satisfies p in K, x - p in the polar of K, and
    <x - p, p> = 0, all at tolerance.  Accepts a vector or an (n, dim)
    batch.
    """
    # Looked up inside the lambda: x is validated before a projector is built.
    return _rowwise(lambda X: cone._projector(X), x, cone.dim)


class RetractionPair:
    """A pair of maps (m, n) with m + n = I and vanishing cross-compositions.

    ``cone_m`` and ``cone_n`` describe the ranges; both maps accept a
    vector or an (n, dim) batch.  Minkowski pairs carry the order-unit
    functional ``phi``; it is None otherwise.  Instances are immutable;
    evaluation is pure and thread-safe.
    """

    def __init__(self, family, cone_m, cone_n, m_map, n_map, tol=DEFAULT_TOL,
                 descriptor=None, subadd_cone_m=None, *, phi=None):
        self.family = family
        self.cone_m = cone_m
        self.cone_n = cone_n
        self.tol = tol
        self._m = m_map
        self._n = n_map
        self._descriptor = descriptor or {"family": family}
        self.subadd_cone_m = subadd_cone_m if subadd_cone_m is not None else cone_m
        self.phi = phi

    @property
    def dim(self):
        return self.cone_m.dim

    def m(self, x):
        return _rowwise(self._m, x, self.dim)

    def n(self, x):
        return _rowwise(self._n, x, self.dim)

    def descriptor(self):
        """JSON-serializable description, round-trips through pair_from_json."""
        return dict(self._descriptor)

    def __repr__(self):
        return f"RetractionPair(family={self.family!r}, dim={self.dim})"


def lattice_pair(cone, tol=DEFAULT_TOL):
    """Coordinatewise positive/negative-part pair of a simplicial cone.

    m(x) clamps the basis coordinates of x at zero and maps back; n(x) is
    minus the clamp of the negated coordinates, so m + n = I holds up to
    roundtrip rounding rather than by construction.
    """
    if not isinstance(cone, Simplicial):
        raise ValueError("lattice pair requires a simplicial (or orthant) cone")
    A, invA = cone.basis, cone.basis_inv

    def m_map(X):
        return _dot(np.maximum(_dot(X, invA.T), 0.0), A.T)

    def n_map(X):
        return -_dot(np.maximum(-_dot(X, invA.T), 0.0), A.T)

    return RetractionPair("lattice", cone, cone.negative(), m_map, n_map, tol=tol,
                          descriptor={"family": "lattice", "cone": cone.to_json()})


def moreau_pair(cone, tol=DEFAULT_TOL):
    """Projection pair (onto K, onto the polar of K); both maps are metric
    projections computed independently, so m + n = I is a checkable fact."""
    pol = cone.polar()
    return RetractionPair("moreau", cone, pol, cone._projector, pol._projector, tol=tol,
                          descriptor={"family": "moreau", "cone": cone.to_json()})


def minkowski_pair(cone, y, tol=DEFAULT_TOL):
    """Order-unit pair on a polyhedral cone with interior anchor y.

    phi(x) = max_j (n_j . x) / (n_j . y) is the least factor with
    phi(x) * y - x in the cone; m(x) = phi(x) y and n(x) = x - m(x).
    The range of m is the line of multiples of y (one-dimensional, not
    generating for dim >= 2); ``cone_n`` stores the closed convex hull of
    the range of n, and ``subadd_cone_m`` the nonnegative ray of y, the
    pointed order actually used for subadditivity comparisons.
    """
    hs = cone.halfspaces()
    yv = as_vector(y, hs.dim)
    N = hs.normals
    # Tested on the unit normals and y scaled by a power of two, so that no
    # norm overflows or underflows at any scale of y; a zero y is refused.
    s = oracle._scaled_rows(yv[None, :])[0][0]
    if np.any(oracle._unit_rows(N) @ s <= 1e-12 * _row_norm(s)):
        raise ValueError("anchor must be strictly interior to the cone")
    den = N @ yv

    def phi(x):
        return _rowwise(lambda X: _row_max(_dot(X, N.T) / den), x, hs.dim)

    def m_map(X):
        return phi(X)[:, None] * yv

    def n_map(X):
        return X - m_map(X)

    line = PolyhedralGenerators(np.array([yv, -yv]))
    ray = PolyhedralGenerators(np.array([yv]))
    return RetractionPair(
        "minkowski", line, PolyhedralHalfspaces(-N), m_map, n_map, tol=tol,
        descriptor={"family": "minkowski", "cone": cone.to_json(),
                    "interior_point": yv.tolist()},
        subadd_cone_m=ray, phi=phi)


_PAIR_KEYS = {
    "lattice": (("cone",), ()),
    "moreau": (("cone",), ()),
    "minkowski": (("cone", "interior_point"), ()),
}


def pair_from_json(obj, tol=DEFAULT_TOL):
    """Parse a pair descriptor; unknown keys are rejected."""
    family = _json_object(obj, "pair", tag="family", kinds=_PAIR_KEYS)
    cone = cone_from_json(obj["cone"])
    if family == "lattice":
        return lattice_pair(cone, tol=tol)
    if family == "moreau":
        return moreau_pair(cone, tol=tol)
    return minkowski_pair(cone, obj["interior_point"], tol=tol)
