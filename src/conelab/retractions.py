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
from .cones import (DEFAULT_TOL, Lorentz, PolyhedralGenerators, PolyhedralHalfspaces,
                    Simplicial, _as_batch, as_vector, cone_from_json, cone_to_json,
                    negate, polar, to_halfspaces)

_ORTHO_RTOL = 1e-12


def _lorentz_closed_form(X):
    """Three-branch projection onto {(xbar, t) : |xbar| <= t}, vectorized."""
    bar, t = X[:, :-1], X[:, -1]
    r = np.linalg.norm(bar, axis=1)
    alpha = 0.5 * (r + t)
    unit = bar / np.where(r == 0.0, 1.0, r)[:, None]
    P = np.concatenate([alpha[:, None] * unit, alpha[:, None]], axis=1)
    inside = r <= t            # ties fall to the interior branch
    inpolar = r <= -t
    P[inside] = X[inside]
    P[inpolar] = 0.0
    return P


def _projector(cone):
    """Vectorized metric projector onto a supported cone.

    Lorentz cones use a closed form, simplicial bases with orthogonal
    columns (the orthant among them) clamp scaled coordinates (exact, and
    much cheaper than enumeration), and all remaining polyhedral cones go
    through face enumeration.
    """
    if isinstance(cone, Lorentz):
        if cone.negated:
            return lambda X: -_lorentz_closed_form(-X)
        return _lorentz_closed_form
    if isinstance(cone, Simplicial):
        A = cone.basis
        gram = A.T @ A
        off = gram - np.diag(np.diag(gram))
        if np.abs(off).max() <= _ORTHO_RTOL * np.diag(gram).max():
            d = np.diag(gram).copy()
            return lambda X: np.clip((X @ A) / d, 0.0, None) @ A.T
        table = oracle.FaceTable(A.T)
        return lambda X: table.project(X)[0]
    if isinstance(cone, PolyhedralGenerators):
        table = cone._table()  # shared with the cone's membership test
        return lambda X: table.project(X)[0]
    if isinstance(cone, PolyhedralHalfspaces):
        rays = oracle.double_description(cone.normals)
        table = oracle.FaceTable(np.array(rays))
        return lambda X: table.project(X)[0]
    raise ValueError(f"unsupported cone: {cone!r}")


def project_cone(cone, x):
    """Metric projection of x onto the cone.

    The result p satisfies p in K, x - p in the polar of K, and
    <x - p, p> = 0, all at tolerance.  Accepts a vector or an (n, dim)
    batch.
    """
    X, single = _as_batch(x, cone.dim)
    P = _projector(cone)(X)
    return P[0] if single else P


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
        X, single = _as_batch(x, self.dim)
        Y = self._m(X)
        return Y[0] if single else Y

    def n(self, x):
        X, single = _as_batch(x, self.dim)
        Y = self._n(X)
        return Y[0] if single else Y

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
        return np.clip(X @ invA.T, 0.0, None) @ A.T

    def n_map(X):
        return -(np.clip(-(X @ invA.T), 0.0, None) @ A.T)

    return RetractionPair("lattice", cone, negate(cone), m_map, n_map, tol=tol,
                          descriptor={"family": "lattice", "cone": cone_to_json(cone)})


def moreau_pair(cone, tol=DEFAULT_TOL):
    """Projection pair (onto K, onto the polar of K); both maps are metric
    projections computed independently, so m + n = I is a checkable fact."""
    pol = polar(cone)
    return RetractionPair("moreau", cone, pol, _projector(cone), _projector(pol),
                          tol=tol,
                          descriptor={"family": "moreau", "cone": cone_to_json(cone)})


def minkowski_pair(cone, y, tol=DEFAULT_TOL):
    """Order-unit pair on a polyhedral cone with interior anchor y.

    phi(x) = max_j (n_j . x) / (n_j . y) is the least factor with
    phi(x) * y - x in the cone; m(x) = phi(x) y and n(x) = x - m(x).
    The range of m is the line of multiples of y (one-dimensional, not
    generating for dim >= 2); ``cone_n`` stores the closed convex hull of
    the range of n, and ``subadd_cone_m`` the nonnegative ray of y, the
    pointed order actually used for subadditivity comparisons.
    """
    hs = to_halfspaces(cone)
    yv = as_vector(y, hs.dim)
    N = hs.normals
    den = N @ yv
    if np.any(den <= 1e-12 * np.linalg.norm(N, axis=1) * np.linalg.norm(yv)):
        raise ValueError("anchor must be strictly interior to the cone")

    def phi(x):
        X, single = _as_batch(x, hs.dim)
        vals = ((X @ N.T) / den).max(axis=1)
        return float(vals[0]) if single else vals

    def m_map(X):
        return phi(X)[:, None] * yv

    def n_map(X):
        return X - m_map(X)

    line = PolyhedralGenerators(np.array([yv, -yv]))
    ray = PolyhedralGenerators(np.array([yv]))
    return RetractionPair(
        "minkowski", line, PolyhedralHalfspaces(-N), m_map, n_map, tol=tol,
        descriptor={"family": "minkowski", "cone": cone_to_json(cone),
                    "interior_point": yv.tolist()},
        subadd_cone_m=ray, phi=phi)


_PAIR_KEYS = {
    "lattice": {"family", "cone"},
    "moreau": {"family", "cone"},
    "minkowski": {"family", "cone", "interior_point"},
}


def pair_from_json(obj, tol=DEFAULT_TOL):
    """Parse a pair descriptor; unknown keys are rejected."""
    if not isinstance(obj, dict):
        raise ValueError("pair descriptor must be a JSON object")
    family = obj.get("family")
    if family not in _PAIR_KEYS:
        raise ValueError(f"unknown pair family: {family!r}")
    unknown = set(obj) - _PAIR_KEYS[family]
    if unknown:
        raise ValueError(f"unknown keys for family {family}: {sorted(unknown)}")
    if "cone" not in obj:
        raise ValueError("pair descriptor is missing the 'cone' key")
    cone = cone_from_json(obj["cone"])
    if family == "lattice":
        return lattice_pair(cone, tol=tol)
    if family == "moreau":
        return moreau_pair(cone, tol=tol)
    if "interior_point" not in obj:
        raise ValueError("minkowski pair requires 'interior_point'")
    return minkowski_pair(cone, obj["interior_point"], tol=tol)
