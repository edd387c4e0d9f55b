"""Closed convex cones in R^m with exact membership, order, and polar maps.

Supported representations: the nonnegative orthant, simplicial cones
(invertible generator basis), the second-order (Lorentz) cone and its
negation, and polyhedral cones given by generators or by inward halfspace
normals.  Membership is approximate with relative tolerance
``eps * (1 + |x|)``; all objects are immutable and all operations pure, so
concurrent use needs no synchronization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import oracle

MAX_DENSE_DIM = 16
_SINGULAR_RTOL = 1e-12


@dataclass(frozen=True)
class ToleranceConfig:
    """Membership, equality, and convergence tolerances for approximate predicates."""

    eps_membership: float = 1e-8
    eps_equal: float = 1e-8
    eps_converge: float = 1e-8

    def __post_init__(self):
        for name in ("eps_membership", "eps_equal", "eps_converge"):
            v = getattr(self, name)
            if (isinstance(v, bool) or not isinstance(v, (int, float))
                    or not (math.isfinite(v) and v > 0)):
                raise ValueError(f"{name} must be a positive finite number, got {v!r}")
            object.__setattr__(self, name, float(v))
        floor = 100.0 * float(np.finfo(np.float64).eps)
        if self.eps_converge < floor:
            raise ValueError(f"eps_converge below the {floor:.2e} floor")

    def to_json_dict(self):
        return {"membership": self.eps_membership,
                "equal": self.eps_equal,
                "converge": self.eps_converge}

    @staticmethod
    def from_json(obj):
        if not isinstance(obj, dict):
            raise ValueError("tolerances must be a JSON object")
        unknown = set(obj) - {"membership", "equal", "converge"}
        if unknown:
            raise ValueError(f"unknown tolerance keys: {sorted(unknown)}")
        return ToleranceConfig(**{f"eps_{key}": value for key, value in obj.items()})


DEFAULT_TOL = ToleranceConfig()


def _as_numbers(x, name):
    """A (nested) JSON array of numbers as a float array; strings, booleans,
    null and objects are rejected."""
    a = np.asarray(x)
    if a.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be an array of numbers, got {x!r}")
    return a.astype(float, copy=False)


def as_vector(x, dim=None):
    """Validate and return a finite 1-D float vector."""
    v = _as_numbers(x, "vector")
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got array of ndim {v.ndim}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector has NaN/Inf entries")
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {v.shape[0]}")
    return v


def _as_int(x, name, minimum=None):
    """Validate an integer read from JSON; bools, floats and null are rejected."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {x!r}")
    if minimum is not None and x < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {x}")
    return int(x)


def _as_batch(x, dim):
    """Return (points (n, dim), single_flag) for vector or batch input."""
    a = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError("input has NaN/Inf entries")
    if a.ndim == 1:
        if a.shape[0] != dim:
            raise ValueError(f"dimension mismatch: expected {dim}, got {a.shape[0]}")
        return a[None, :], True
    if a.ndim == 2:
        if a.shape[1] != dim:
            raise ValueError(f"dimension mismatch: expected {dim}, got {a.shape[1]}")
        return a, False
    raise ValueError(f"expected vector or (n, {dim}) batch, got ndim {a.ndim}")


def _scales(X):
    return 1.0 + np.linalg.norm(X, axis=1)


def _readonly(a):
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


class ConeSpec:
    """Base class for exact cone representations."""

    @property
    def dim(self) -> int:
        raise NotImplementedError

    def membership_residual(self, x):
        """Relative violation of membership; 0 for interior points.

        Accepts a vector or an (n, dim) batch and returns a float or an
        (n,) array.  A point belongs to the cone at tolerance eps iff the
        residual is <= eps.
        """
        raise NotImplementedError

    def _finish(self, res, single):
        return float(res[0]) if single else res


@dataclass(frozen=True, eq=False)
class Simplicial(ConeSpec):
    """Cone generated by the columns of an invertible basis matrix."""

    basis: np.ndarray
    basis_inv: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        B = np.asarray(self.basis, dtype=float)
        if B.ndim != 2 or B.shape[0] != B.shape[1]:
            raise ValueError("simplicial basis must be a square matrix")
        if B.shape[0] < 1 or B.shape[0] > MAX_DENSE_DIM:
            raise ValueError(f"simplicial dimension must be in 1..{MAX_DENSE_DIM}")
        if not np.all(np.isfinite(B)):
            raise ValueError("simplicial basis has NaN/Inf entries")
        sv = np.linalg.svd(B, compute_uv=False)
        if sv[-1] <= sv[0] * _SINGULAR_RTOL or sv[-1] == 0.0:
            raise ValueError("singular simplicial basis")
        object.__setattr__(self, "basis", _readonly(B))
        object.__setattr__(self, "basis_inv", _readonly(np.linalg.inv(B)))

    @property
    def dim(self):
        return self.basis.shape[0]

    def coordinates(self, x):
        """Basis coordinates c with x = basis @ c."""
        X, single = _as_batch(x, self.dim)
        C = X @ self.basis_inv.T
        return C[0] if single else C

    def membership_residual(self, x):
        X, single = _as_batch(x, self.dim)
        C = X @ self.basis_inv.T
        res = np.maximum(0.0, -C.min(axis=1)) / _scales(X)
        return self._finish(res, single)


class Orthant(Simplicial):
    """Nonnegative orthant of R^m: the simplicial cone of the identity basis."""

    def __init__(self, ambient_dim):
        if not (isinstance(ambient_dim, (int, np.integer))
                and 1 <= ambient_dim <= MAX_DENSE_DIM):
            raise ValueError(f"orthant dimension must be in 1..{MAX_DENSE_DIM}")
        Simplicial.__init__(self, np.eye(ambient_dim))

    def membership_residual(self, x):
        # The coordinates are x itself, so clamp without the basis product.
        X, single = _as_batch(x, self.dim)
        res = np.maximum(0.0, -X.min(axis=1)) / _scales(X)
        return self._finish(res, single)


@dataclass(frozen=True, eq=False)
class Lorentz(ConeSpec):
    """Second-order cone {(xbar, t) : |xbar| <= t}, optionally negated."""

    ambient_dim: int
    negated: bool = False

    def __post_init__(self):
        if not (isinstance(self.ambient_dim, (int, np.integer))
                and 2 <= self.ambient_dim <= MAX_DENSE_DIM):
            raise ValueError(f"Lorentz dimension must be in 2..{MAX_DENSE_DIM}")

    @property
    def dim(self):
        return self.ambient_dim

    def membership_residual(self, x):
        X, single = _as_batch(x, self.dim)
        if self.negated:
            X = -X
        r = np.linalg.norm(X[:, :-1], axis=1)
        res = np.maximum(0.0, r - X[:, -1]) / _scales(X)
        return self._finish(res, single)


@dataclass(frozen=True, eq=False)
class PolyhedralGenerators(ConeSpec):
    """Cone of nonnegative combinations of finitely many generators."""

    vectors: np.ndarray

    def __post_init__(self):
        V = oracle._as_generator_matrix(self.vectors)
        object.__setattr__(self, "vectors", _readonly(V))

    @property
    def dim(self):
        return self.vectors.shape[1]

    def _table(self):
        t = getattr(self, "_face_table", None)
        if t is None:
            t = oracle.FaceTable(self.vectors)
            object.__setattr__(self, "_face_table", t)
        return t

    def membership_residual(self, x):
        X, single = _as_batch(x, self.dim)
        P, _ = self._table().project(X)
        res = np.linalg.norm(X - P, axis=1) / _scales(X)
        return self._finish(res, single)


@dataclass(frozen=True, eq=False)
class PolyhedralHalfspaces(ConeSpec):
    """Cone {x : n_j . x >= 0 for all j} of inward normals n_j."""

    normals: np.ndarray

    def __post_init__(self):
        N = np.atleast_2d(np.asarray(self.normals, dtype=float))
        if N.ndim != 2 or N.size == 0:
            raise ValueError("halfspace normals must be a non-empty list of vectors")
        if not np.all(np.isfinite(N)):
            raise ValueError("halfspace normals have NaN/Inf entries")
        if N.shape[1] > MAX_DENSE_DIM:
            raise ValueError(f"dimension cap {MAX_DENSE_DIM} exceeded")
        if np.any(np.linalg.norm(N, axis=1) == 0.0):
            raise ValueError("zero normal not allowed")
        object.__setattr__(self, "normals", _readonly(N))

    @property
    def dim(self):
        return self.normals.shape[1]

    def membership_residual(self, x):
        X, single = _as_batch(x, self.dim)
        unit = self.normals / np.linalg.norm(self.normals, axis=1, keepdims=True)
        viol = np.maximum(0.0, -(X @ unit.T)).max(axis=1)
        res = viol / _scales(X)
        return self._finish(res, single)


def contains(cone, x, tol=DEFAULT_TOL):
    """True iff x lies in the cone within ``tol.eps_membership`` (relative)."""
    return cone.membership_residual(x) <= tol.eps_membership


def leq(cone, x, y, tol=DEFAULT_TOL):
    """Order test x <= y in the cone order: y - x is a member."""
    xv = as_vector(x, cone.dim)
    yv = as_vector(y, cone.dim)
    return contains(cone, yv - xv, tol)


def negate(cone):
    """The cone -K, exactly, in a closed-form representation."""
    if isinstance(cone, Simplicial):
        return Simplicial(-cone.basis)
    if isinstance(cone, Lorentz):
        return Lorentz(cone.dim, negated=not cone.negated)
    if isinstance(cone, PolyhedralGenerators):
        return PolyhedralGenerators(-cone.vectors)
    if isinstance(cone, PolyhedralHalfspaces):
        return PolyhedralHalfspaces(-cone.normals)
    raise ValueError(f"unsupported cone: {cone!r}")


def polar(cone):
    """The polar cone {y : <x, y> <= 0 for all x in K}, exactly.

    Simplicial polars (the orthant's among them) use the inverse-transpose
    basis, Lorentz polars are sign flips, generator form dualizes to
    halfspaces, and halfspace form dualizes through ray enumeration unless
    the normal matrix is square and invertible.
    """
    if isinstance(cone, Simplicial):
        return Simplicial(-cone.basis_inv.T)
    if isinstance(cone, Lorentz):
        return Lorentz(cone.dim, negated=not cone.negated)
    if isinstance(cone, PolyhedralGenerators):
        return PolyhedralHalfspaces(-cone.vectors)
    if isinstance(cone, PolyhedralHalfspaces):
        N = cone.normals
        k, m = N.shape
        if k == m:
            sv = np.linalg.svd(N, compute_uv=False)
            if sv[-1] > sv[0] * _SINGULAR_RTOL:
                return PolyhedralGenerators(-N)
        rays = oracle.double_description(N)
        return PolyhedralHalfspaces(-np.array(rays))
    raise ValueError(f"unsupported cone: {cone!r}")


def is_generating(cone):
    """True iff K - K spans the whole space (numerical rank test)."""
    if isinstance(cone, (Simplicial, Lorentz)):
        return True
    if isinstance(cone, PolyhedralGenerators):
        sv = np.linalg.svd(cone.vectors, compute_uv=False)
        return int(np.sum(sv > sv[0] * 1e-9)) == cone.dim
    if isinstance(cone, PolyhedralHalfspaces):
        span = np.array(oracle.double_description(cone.normals))
        sv = np.linalg.svd(span, compute_uv=False)
        return int(np.sum(sv > sv[0] * 1e-9)) == cone.dim
    raise ValueError(f"unsupported cone: {cone!r}")


def is_pointed(cone, tol=DEFAULT_TOL):
    """True iff K contains no line (K meets -K only at the origin)."""
    if isinstance(cone, (Simplicial, Lorentz)):
        return True
    if isinstance(cone, PolyhedralHalfspaces):
        N = cone.normals
        sv = np.linalg.svd(N, compute_uv=False)
        return int(np.sum(sv > sv[0] * 1e-9)) == cone.dim
    if isinstance(cone, PolyhedralGenerators):
        # K contains a line iff -g lies back in K for some generator g.
        table = cone._table()
        for g in cone.vectors:
            if oracle.conic_feasibility(table, -g, eps=tol.eps_membership):
                return False
        return True
    raise ValueError(f"unsupported cone: {cone!r}")


def sample_simplicial(dim, rng_seed, cond_cap=100.0):
    """Deterministic random simplicial cone with condition number <= cond_cap."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if not cond_cap > 1.0:
        raise ValueError("cond_cap must exceed 1")
    rng = np.random.default_rng(rng_seed)
    for _ in range(128):
        B = rng.standard_normal((dim, dim))
        sv = np.linalg.svd(B, compute_uv=False)
        if sv[-1] > 0.0 and sv[0] / sv[-1] <= cond_cap:
            return Simplicial(B)
    raise ValueError(f"failed to sample a dim-{dim} basis with condition <= {cond_cap}")


def to_halfspaces(cone):
    """Exact halfspace form for orthant/simplicial cones; identity otherwise."""
    if isinstance(cone, Simplicial):
        return PolyhedralHalfspaces(cone.basis_inv)
    if isinstance(cone, PolyhedralHalfspaces):
        return cone
    raise ValueError("cone not representable in halfspace form")


def generators_of(cone):
    """Generator rows for a polyhedral cone (ray enumeration for halfspaces)."""
    if isinstance(cone, Simplicial):
        return cone.basis.T.copy()
    if isinstance(cone, PolyhedralGenerators):
        return cone.vectors.copy()
    if isinstance(cone, PolyhedralHalfspaces):
        return np.array(oracle.double_description(cone.normals))
    raise ValueError("cone is not polyhedral")


_JSON_KEYS = {
    "orthant": {"type", "dim"},
    "simplicial": {"type", "basis"},
    "lorentz": {"type", "dim", "negated"},
    "generators": {"type", "vectors"},
    "halfspaces": {"type", "normals"},
}


def cone_from_json(obj):
    """Parse the cone JSON schema; unknown keys are rejected."""
    if not isinstance(obj, dict):
        raise ValueError("cone JSON must be an object")
    kind = obj.get("type")
    if kind not in _JSON_KEYS:
        raise ValueError(f"unknown cone type: {kind!r}")
    unknown = set(obj) - _JSON_KEYS[kind]
    if unknown:
        raise ValueError(f"unknown keys for cone type {kind}: {sorted(unknown)}")
    if kind == "orthant":
        return Orthant(_as_int(obj.get("dim"), "cone dim"))
    if kind == "simplicial":
        cols = _as_numbers(obj["basis"], "simplicial basis")
        if cols.ndim != 2:
            raise ValueError("simplicial basis must be a list of generator columns")
        return Simplicial(cols.T)
    if kind == "lorentz":
        negated = obj.get("negated", False)
        if not isinstance(negated, bool):
            raise ValueError(f"lorentz negated must be true or false, got {negated!r}")
        return Lorentz(_as_int(obj.get("dim"), "cone dim"), negated=negated)
    if kind == "generators":
        return PolyhedralGenerators(_as_numbers(obj["vectors"], "generator vectors"))
    return PolyhedralHalfspaces(_as_numbers(obj["normals"], "halfspace normals"))


def cone_to_json(cone):
    if isinstance(cone, Orthant):
        return {"type": "orthant", "dim": cone.dim}
    if isinstance(cone, Simplicial):
        return {"type": "simplicial", "basis": cone.basis.T.tolist()}
    if isinstance(cone, Lorentz):
        out = {"type": "lorentz", "dim": cone.dim}
        if cone.negated:
            out["negated"] = True
        return out
    if isinstance(cone, PolyhedralGenerators):
        return {"type": "generators", "vectors": cone.vectors.tolist()}
    if isinstance(cone, PolyhedralHalfspaces):
        return {"type": "halfspaces", "normals": cone.normals.tolist()}
    raise ValueError(f"unsupported cone: {cone!r}")
