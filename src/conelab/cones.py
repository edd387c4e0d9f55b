"""Closed convex cones in R^m with exact membership, order, and polar maps.

Supported representations: the nonnegative orthant, simplicial cones
(invertible generator basis), the second-order (Lorentz) cone and its
negation, and polyhedral cones given by generators or by inward halfspace
normals.  Membership is approximate with relative tolerance
``eps * (1 + |x|)``; all objects are immutable and all operations pure, so
concurrent use needs no synchronization.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import oracle

MAX_DENSE_DIM = oracle.MAX_DIM
_SINGULAR_RTOL = 1e-12
# A generator is tight on a polar ray when their unit vectors' inner product
# is within the double description's feasibility slack; a set of rays or facet
# normals has the rank of its singular values above this share of the largest.
_TIGHT_TOL = oracle._FEAS_TOL
_RAY_RANK_RTOL = 1e-9
# A generator leaves the ray matrix only when the kept rays reproduce it to
# this relative distance.
_REPRODUCE_RTOL = 1e-12
# Rays are pairwise orthogonal when their Gram matrix's off-diagonal is within
# this share of its largest diagonal entry.
_ORTHO_RTOL = 1e-12


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
        _json_object(obj, "tolerances", optional=("membership", "equal", "converge"))
        return ToleranceConfig(**{f"eps_{key}": value for key, value in obj.items()})


DEFAULT_TOL = ToleranceConfig()


def _as_numbers(x, name):
    """A (nested) JSON array of numbers as a float array; strings, booleans,
    null and objects are rejected."""
    a = np.asarray(x)
    if a.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be an array of numbers, got {x!r}")
    return a.astype(float, copy=False)


def _as_rows(x, name):
    """A JSON list of vectors as a 2-D float array; a flat list is rejected."""
    a = _as_numbers(x, name)
    if a.ndim != 2:
        raise ValueError(f"{name} must be a list of vectors, got an array of ndim {a.ndim}")
    return a


def as_vector(x, dim=None):
    """Validate and return a finite 1-D float vector."""
    v = _as_numbers(x, "vector")
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got array of ndim {v.ndim}")
    if not np.isfinite(v).all():
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


def _json_object(obj, what, required=(), optional=(), *, tag=None, kinds=None):
    """Check ``obj`` as a JSON object with every ``required`` key and no key
    outside ``required`` and ``optional`` (any key when ``optional`` is None).
    With a ``tag``, its value must be a key of ``kinds``, which gives the
    (required, optional) keys that kind adds; that kind is returned."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object")
    kind = None
    if tag is not None:
        kind = obj.get(tag)
        if not isinstance(kind, str) or kind not in kinds:
            raise ValueError(f"unknown {what} {tag}: {kind!r} (choose from {', '.join(kinds)})")
        what = f"{what} {tag} {kind}"
        required, optional = (tag, *required, *kinds[kind][0]), (*optional, *kinds[kind][1])
    if optional is not None:
        unknown = set(obj) - {*required, *optional}
        if unknown:
            raise ValueError(f"unknown keys for {what}: {sorted(unknown)}")
    missing = [key for key in required if key not in obj]
    if missing:
        raise ValueError(f"{what} is missing the {missing[0]!r} key")
    return kind


def _same_shape(x, y):
    """Raise unless the points ``x`` and ``y`` have one shape, so that they
    pair row by row instead of broadcasting."""
    if np.shape(x) != np.shape(y):
        raise ValueError(f"shape mismatch: {np.shape(x)} and {np.shape(y)}")


def _rowwise(f, x, dim):
    """``f`` applied to ``x``, a vector or an (n, dim) batch, as a batch.  A
    batch gets ``f``'s result; a vector gets row 0 of its 1-row batch: a
    float when ``f`` gives one value per row, else a vector."""
    a = np.asarray(x, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError("input has NaN/Inf entries")
    if a.ndim not in (1, 2):
        raise ValueError(f"expected vector or (n, {dim}) batch, got ndim {a.ndim}")
    if a.shape[-1] != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {a.shape[-1]}")
    if a.ndim == 2:
        return f(a)
    Y = f(a[None, :])
    return float(Y[0]) if Y.ndim == 1 else Y[0]


# A batch whose largest entry lies outside [_TINY, _HUGE) is rescaled before
# its norms are taken: squared entries overflow from 2^512 and lose bits to
# underflow below 2^-511.
_TINY, _HUGE = 2.0 ** -500, 2.0 ** 500


def _row_exponents(X):
    """Per row, the power of two e (at least -1021, so 2^-e is finite) that
    scales the row by 2^-e to a largest entry in [0.5, 1); None when the
    largest entry of the batch is 0 or in [2^-500, 2^500), which keeps
    single-vector calls cheap."""
    A = np.abs(X)
    top = float(A.max(initial=0.0))
    if top == 0.0 or _TINY <= top < _HUGE:
        return None
    return np.maximum(np.frexp(A.max(axis=1))[1], -1021)


def _relative(violation, *arrays, size=None):
    """``violation(*arrays) / (1 + size)`` per row, for a positively
    homogeneous violation of row-aligned inputs; ``size`` is |x| of the first
    input x unless a positively homogeneous ``size(*arrays)`` is given.

    This is the one place a violation becomes a relative residual.  Each row
    of every input is scaled by the same power of two, from
    :func:`_row_exponents` of all inputs side by side, and the 1 with them;
    that scaling is exact, so the quotient rounds as the unscaled one does
    wherever that neither overflows nor underflows, and it stays finite at
    any finite scale of the inputs.
    """
    e = _row_exponents(arrays[0] if len(arrays) == 1 else np.hstack(arrays))
    one = 1.0
    if e is not None:
        one = np.ldexp(1.0, -e)
        arrays = [np.ldexp(a, -e[:, None]) for a in arrays]
    norm = _row_norm(arrays[0]) if size is None else size(*arrays)
    return violation(*arrays) / (one + norm)


# From this many rows on, a fold over the columns is cheaper than numpy's
# reduction, which is set up once per row; below, the reduction is (measured
# for 1 to 8 columns), and it keeps each row's bits (see oracle._FOLD_ROWS).
_FOLD_ROWS = oracle._FOLD_ROWS


def _dot(X, A):
    """``X @ A`` for a batch ``X``.  A batch of 2 to ``_FOLD_ROWS - 1`` rows
    takes one matrix-vector product per row, so each row gets the bits of
    its own 1-row batch; one row, or ``_FOLD_ROWS`` or more, one product."""
    if 1 < len(X) < _FOLD_ROWS:
        return np.matmul(X[:, None, :], A)[:, 0]
    return X @ A


def _row_fold(f, C):
    """``f.reduce(C, axis=1)`` for ``f`` np.minimum or np.maximum: on a batch
    of ``_FOLD_ROWS`` or more rows, folded over the columns, which gives the
    same entries (a tie of 0.0 and -0.0 may come back with either sign)."""
    if len(C) < _FOLD_ROWS:
        return f.reduce(C, axis=1)
    return functools.reduce(f, C.T[1:], C[:, 0])


_row_min = functools.partial(_row_fold, np.minimum)
_row_max = functools.partial(_row_fold, np.maximum)


def _row_norm(X):
    """``np.linalg.norm(X, axis=-1)``, bit for bit, without its dispatch.  A
    batch of ``_FOLD_ROWS`` or more rows of fewer than 8 columns folds its
    squares over the columns: below 8 terms numpy's pairwise sum adds a row
    left to right, as the fold does."""
    if X.ndim == 2 and len(X) >= _FOLD_ROWS and 0 < X.shape[1] < 8:
        return np.sqrt(functools.reduce(np.add, [c * c for c in X.T]))
    return np.sqrt(np.add.reduce(X * X, axis=-1))


def _rank(A):
    """Numerical rank: singular values above ``_RAY_RANK_RTOL`` times the largest."""
    if A.size == 0:
        return 0
    sv = np.linalg.svd(A, compute_uv=False)
    return int(np.sum(sv > sv[0] * _RAY_RANK_RTOL))


def _canonical_rows(R):
    """The directions of the rows of ``R`` as a matrix that does not depend on
    their order or lengths: unit rows (normalized after an exact power-of-two
    scaling, so rows that differ by 2^k give the same bits), without a row
    within ``_REPRODUCE_RTOL`` of an earlier kept one.  Rows are in
    lexicographic order of their entries rounded to 9 decimals, then of the
    entries themselves, so that rounding noise (a ray found by double
    description, not listed) does not reorder them."""
    U = oracle._unit_rows(R) + 0.0  # -0.0 reads as 0.0
    U = U[np.lexsort(np.vstack([U.T[::-1], np.round(U, 9).T[::-1]]))]
    # far[i, j]: rows i and j differ by more than the threshold in some entry.
    far = np.abs(U[:, None, :] - U).max(axis=2) > _REPRODUCE_RTOL
    keep, ok = [], np.ones(len(U), dtype=bool)  # ok: far from every kept row
    for i in range(len(U)):
        if ok[i]:
            keep.append(i)
            ok &= far[i]
    return U[keep]


def _readonly(a):
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


class ConeSpec:
    """Base class for exact cone representations.

    A cone class provides ``dim``, ``membership_residual``, ``_projector``
    (the metric projector of an (n, dim) batch), ``members``, ``polar``
    ({y : <x, y> <= 0 for all x in K}), ``negative`` (-K), ``is_generating``
    (K - K spans R^m), ``is_pointed`` (K holds no line) and ``to_json``.  The
    defaults here: ``generators`` raises ``ValueError``, and ``_projector``,
    ``members``, ``polar`` and ``is_generating`` read ``generators``;
    ``halfspaces``, ``is_pointed`` and ``_facet_residual``, each polyhedral
    class's ``membership_residual``, read its inward facet normals ``_facets``.

    ``membership_residual`` is the relative violation of membership, 0 for
    interior points, of a vector (a float) or an (n, dim) batch (an (n,)
    array); a point belongs to the cone at tolerance eps iff it is <= eps.
    """

    def _residual(self, violation, x):
        """:func:`_relative` of ``violation`` on ``x``, a vector or a batch."""
        return _rowwise(functools.partial(_relative, violation), x, self.dim)

    def _facet_residual(self, x):
        """``max(0, -min_j <a_j, x>)`` over the rows a_j of ``_facets``, made
        relative by :meth:`_residual`; a zero residual is +0.0."""
        return self._residual(lambda X: np.maximum(-_row_min(_dot(X, self._facets.T)), 0.0), x)

    def is_pointed(self):
        # K holds no line iff its facet normals span R^m, i.e. its polar is full.
        return _rank(self._facets) == self.dim

    @functools.cached_property
    def _projector(self):
        """The metric projector of :func:`_ray_projector` on the rows of
        :meth:`generators`, built once."""
        return _ray_projector(self.generators().T)

    def members(self, rng, n):
        """``n`` random members of the cone with O(1) norms, drawn from
        ``rng``: nonnegative combinations of the rows of :meth:`generators`,
        one coefficient per row.  For a generator or halfspace cone those
        rows are its canonical ray matrix of unit rays, so the draws do not
        depend on the order or lengths of the listed vectors, or on
        redundant generators."""
        G = self.generators()
        coeff = np.abs(rng.standard_normal((n, G.shape[0]))) / G.shape[0]
        return coeff @ G

    def is_generating(self):
        return _rank(self.generators()) == self.dim

    @functools.cached_property
    def _polar(self):
        """The halfspace cone of -E, E the ray matrix, built once; see its ``_rays``."""
        return PolyhedralHalfspaces(-self.generators())

    def polar(self):
        """:attr:`_polar`, so it does not depend on how the cone was written;
        raises when the polar is {0}, which has no ray."""
        if not len(self._polar._rays):
            raise ValueError("polar cone is {0}: the generators span the whole space")
        return self._polar

    def generators(self):
        """Generator rows for a polyhedral cone, as the cone's own read-only
        matrix: the basis columns of a simplicial cone, else the cone's
        canonical ray matrix.

        The ray matrix holds the extreme rays only, as unit vectors, without
        near-parallel duplicates, in lexicographic order; a halfspace cone's
        lineality pairs follow its rays.  So it does not depend on how the cone
        was listed, and a cone's generator and halfspace forms give the same
        matrix up to rounding, bit for bit for ``dim`` orthogonal rays, which
        run no double description.  A generator cone that holds a line keeps
        its listed generators.  Raises for the cone {0}, which has no generator.
        """
        raise ValueError("cone is not polyhedral")

    def halfspaces(self):
        """The cone as the :class:`PolyhedralHalfspaces` of its ``_facets``;
        raises for a class without them and for the whole space, which has none."""
        facets = getattr(self, "_facets", None)
        if facets is None:
            raise ValueError("cone not representable in halfspace form")
        if not facets.any():
            raise ValueError("cone has no facet: the generators span the whole space")
        return PolyhedralHalfspaces(facets)


def _orthogonal(A):
    """The squared lengths of the columns of ``A`` when ``A`` is square and
    its columns are pairwise orthogonal, else None."""
    if A.shape[0] != A.shape[1]:
        return None
    gram = A.T @ A
    d = np.diag(gram).copy()
    return d if np.abs(gram - np.diag(d)).max() <= _ORTHO_RTOL * d.max() else None


def _ray_projector(A):
    """Vectorized metric projector onto the cone of the columns of ``A``.

    Square ``A`` with pairwise orthogonal columns (an orthant, rotated or
    not) projects by clamping its scaled coordinates, the lattice positive
    part (Moreau 1962): exact, and one product each way.  Any other cone
    goes through face enumeration on a ``FaceTable`` of its columns.
    """
    d = _orthogonal(A)
    if d is not None:
        return lambda X: _dot(np.maximum(_dot(X, A) / d, 0.0), A.T)
    if A.shape[1] > oracle.MAX_GENERATORS:
        raise ValueError(f"cone has {A.shape[1]} extreme rays, but the face-table "
                         f"projector takes at most {oracle.MAX_GENERATORS}")
    table = oracle.FaceTable(A.T)
    return lambda X: table.project(X)[0]


def _lorentz_closed_form(X):
    """Three-branch projection onto {(xbar, t) : |xbar| <= t}, vectorized;
    rows that :func:`_row_exponents` scales are projected scaled and
    scaled back (exact), so |xbar| neither overflows nor underflows."""
    e = _row_exponents(X)
    if e is None:
        return _lorentz_branches(X)
    return np.ldexp(_lorentz_branches(np.ldexp(X, -e[:, None])), e[:, None])


def _lorentz_branches(X):
    bar, t = X[:, :-1], X[:, -1]
    r = _row_norm(bar)
    alpha = 0.5 * (r + t)
    # One array takes all three branches; the polar's is written last, so it
    # wins where r = t = 0, which projects to +0.0 whatever the signs of X.
    P = np.empty_like(X)
    np.multiply(alpha[:, None], bar / np.where(r == 0.0, 1.0, r)[:, None], out=P[:, :-1])
    P[:, -1] = alpha
    np.copyto(P, X, where=(r <= t)[:, None])  # ties fall to the interior branch
    np.copyto(P, 0.0, where=(r <= -t)[:, None])
    return P


class _ProperCone(ConeSpec):
    """A cone that is pointed and generating by construction."""

    def is_generating(self):
        return True

    def is_pointed(self):
        return True


@dataclass(frozen=True, eq=False)
class Simplicial(_ProperCone):
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
        if sv[-1] <= sv[0] * _SINGULAR_RTOL:
            raise ValueError("singular simplicial basis")
        object.__setattr__(self, "basis", _readonly(B))
        object.__setattr__(self, "basis_inv", _readonly(np.linalg.inv(B)))

    @property
    def dim(self):
        return self.basis.shape[0]

    def coordinates(self, x):
        """Basis coordinates c with x = basis @ c."""
        return _rowwise(lambda X: _dot(X, self.basis_inv.T), x, self.dim)

    @property
    def _facets(self):
        # Unscaled rows: unit rows would cost a normalization per cone built.
        return self.basis_inv

    membership_residual = ConeSpec._facet_residual

    def members(self, rng, n):
        coeff = np.abs(rng.standard_normal((n, self.dim))) / np.sqrt(self.dim)
        return coeff @ self.basis.T

    def negative(self):
        # -B is invertible with inverse -B^-1, so skip the SVD and the inverse.
        neg = object.__new__(Simplicial)
        object.__setattr__(neg, "basis", _readonly(-self.basis))
        object.__setattr__(neg, "basis_inv", _readonly(-self.basis_inv))
        return neg

    def polar(self):
        """The simplicial cone of the negated inverse-transpose basis."""
        return Simplicial(-self.basis_inv.T)

    def generators(self):
        return self.basis.T

    def to_json(self):
        return {"type": "simplicial", "basis": self.basis.T.tolist()}


class Orthant(Simplicial):
    """Nonnegative orthant of R^m: the simplicial cone of the identity basis."""

    def __init__(self, ambient_dim):
        if not (isinstance(ambient_dim, (int, np.integer))
                and 1 <= ambient_dim <= MAX_DENSE_DIM):
            raise ValueError(f"orthant dimension must be in 1..{MAX_DENSE_DIM}")
        Simplicial.__init__(self, np.eye(ambient_dim))

    # Bound here, not inherited: perfbench/spans.py wraps each cone class's
    # own membership_residual.
    membership_residual = ConeSpec._facet_residual

    def to_json(self):
        return {"type": "orthant", "dim": self.dim}


@dataclass(frozen=True, eq=False)
class Lorentz(_ProperCone):
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

    @property
    def _projector(self):
        """The closed form of the three-branch projection; -P(-x) when negated."""
        if self.negated:
            return lambda X: -_lorentz_closed_form(-X)
        return _lorentz_closed_form

    def membership_residual(self, x):
        sign = -1.0 if self.negated else 1.0
        return self._residual(lambda X: np.maximum(0.0, _row_norm(X[:, :-1])
                                                   - sign * X[:, -1]), x)

    def members(self, rng, n):
        m = self.dim
        bar = rng.standard_normal((n, m - 1))
        radius = _row_norm(bar)
        t = radius * (1.0 + np.abs(rng.standard_normal(n)))
        pts = np.concatenate([bar, t[:, None]], axis=1) / np.sqrt(m)
        return -pts if self.negated else pts

    def negative(self):
        return Lorentz(self.dim, negated=not self.negated)

    # The Lorentz cone is self-dual: its polar is -K.
    polar = negative

    def to_json(self):
        out = {"type": "lorentz", "dim": self.dim}
        if self.negated:
            out["negated"] = True
        return out


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

    @functools.cached_property
    def _projector(self):
        p = self._derived[1]
        return super()._projector if p is None else p

    @functools.cached_property
    def _derived(self):
        """(ray matrix, projector of the rays or None), from one double
        description of the polar of the listed generators; built once.

        A generator is an extreme ray exactly when the polar rays it is tight
        on have rank ``dim - 1`` (Motzkin et al. 1953).  A generator that
        fails that test still stays unless the projector of the kept rays,
        which becomes this cone's projector, reproduces it to ``_REPRODUCE_RTOL``.
        So redundant generators change neither the ray matrix nor, through
        :meth:`ConeSpec.polar`, the polar.
        """
        V, m = self.vectors, self.dim
        P = PolyhedralHalfspaces(-V)._rays  # unit rows
        if _rank(P) < m:  # the cone holds a line: keep the listed generators
            return V, None
        S = oracle._scaled_rows(V)[0]  # exact, so no norm below overflows
        on = np.abs(oracle._unit_rows(S) @ P.T) <= _TIGHT_TOL
        sv = np.linalg.svd(on[:, :, None] * P, compute_uv=False)
        E = _canonical_rows(S[(sv > sv[:, :1] * _RAY_RANK_RTOL).sum(axis=1) >= m - 1])
        project = _ray_projector(E.T)
        missed = _row_norm(S - project(S)) > _REPRODUCE_RTOL * _row_norm(S)
        if missed.any():
            E, project = _canonical_rows(np.vstack([E, S[missed]])), None
        return _readonly(E), project

    @functools.cached_property
    def _facets(self):
        """Inward facet normals: the polar's negated rays, lineality pairs
        included; one zero row for the whole space, whose polar is {0}."""
        rays = self._polar._rays
        return _readonly(-rays if len(rays) else np.zeros((1, self.dim)))

    membership_residual = ConeSpec._facet_residual

    def negative(self):
        return PolyhedralGenerators(-self.vectors)

    def generators(self):
        # Never empty, unlike a halfspace cone's: the listed vectors are nonzero.
        return self._derived[0]

    def to_json(self):
        return {"type": "generators", "vectors": self.vectors.tolist()}


@dataclass(frozen=True, eq=False)
class PolyhedralHalfspaces(ConeSpec):
    """Cone {x : n_j . x >= 0 for all j} of inward normals n_j."""

    normals: np.ndarray

    def __post_init__(self):
        N = oracle._as_generator_matrix(self.normals, max_rows=math.inf)
        object.__setattr__(self, "normals", _readonly(N))

    @property
    def dim(self):
        return self.normals.shape[1]

    @functools.cached_property
    def _rays(self):
        """Extreme rays in canonical order (see :meth:`generators`), then a
        +/- pair per lineality row, built once: ``dim`` orthogonal canonical
        normals N are their own rays, else one double description of N finds them."""
        N = _canonical_rows(self.normals)
        if _orthogonal(N.T) is not None:
            return _readonly(N)
        rays, lines = oracle.double_description(N)
        pairs = np.stack([lines, -lines], axis=1).reshape(-1, self.dim)
        return _readonly(np.vstack([_canonical_rows(rays), pairs]))

    @functools.cached_property
    def _facets(self):
        """The unit normals, built once."""
        return _readonly(oracle._unit_rows(self.normals))

    membership_residual = ConeSpec._facet_residual

    def negative(self):
        return PolyhedralHalfspaces(-self.normals)

    def is_generating(self):
        # The rays, not generators(): the cone {0} has none, and is not generating.
        return _rank(self._rays) == self.dim

    def halfspaces(self):
        return self

    def generators(self):
        if not len(self._rays):
            raise ValueError("cone is {0}: no nonzero point meets all its halfspaces")
        return self._rays

    def to_json(self):
        return {"type": "halfspaces", "normals": self.normals.tolist()}


def contains(cone, x, tol=DEFAULT_TOL):
    """True iff x lies in the cone within ``tol.eps_membership`` (relative)."""
    return cone.membership_residual(x) <= tol.eps_membership


def leq(cone, x, y, tol=DEFAULT_TOL):
    """Order test x <= y in the cone order: y - x is a member.  Takes two
    vectors, or two (n, dim) batches with one verdict per row."""
    _same_shape(x, y)
    return contains(cone, np.subtract(y, x), tol)


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


_JSON_KEYS = {
    "orthant": (("dim",), ()),
    "simplicial": (("basis",), ()),
    "lorentz": (("dim",), ("negated",)),
    "generators": (("vectors",), ()),
    "halfspaces": (("normals",), ()),
}


def cone_from_json(obj):
    """Parse the cone JSON schema; unknown keys are rejected."""
    kind = _json_object(obj, "cone", tag="type", kinds=_JSON_KEYS)
    if kind == "orthant":
        return Orthant(_as_int(obj["dim"], "cone dim"))
    if kind == "simplicial":
        cols = _as_numbers(obj["basis"], "simplicial basis")
        if cols.ndim != 2:
            raise ValueError("simplicial basis must be a list of generator columns")
        return Simplicial(cols.T)
    if kind == "lorentz":
        negated = obj.get("negated", False)
        if not isinstance(negated, bool):
            raise ValueError(f"lorentz negated must be true or false, got {negated!r}")
        return Lorentz(_as_int(obj["dim"], "cone dim"), negated=negated)
    if kind == "generators":
        return PolyhedralGenerators(_as_rows(obj["vectors"], "generator vectors"))
    return PolyhedralHalfspaces(_as_rows(obj["normals"], "halfspace normals"))
