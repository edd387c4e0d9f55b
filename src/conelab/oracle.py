"""Brute-force reference implementations for cone computations.

Everything here is deliberately exponential: projections are found by
enumerating generator subsets and extreme rays by enumerating active
constraint sets.  That keeps the code logically independent of the
closed-form paths it is used to certify, at the price of hard caps on
problem size: at most 12 generators/halfspaces (so ray enumeration solves
at most C(12, 6) = 924 subsets, in any dimension) and dimension 16.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

MAX_GENERATORS = 12
MAX_DIM = 16  # every cone's dimension cap; cones.MAX_DENSE_DIM reads it
MAX_DD_HALFSPACES = 12

_RANK_RTOL = 1e-12
# Feasibility slack of a candidate ray against the row-normalized normals.
_FEAS_TOL = 1e-9
# A batch of fewer rows than this gives every row the bits of its own 1-row
# batch: its products are one matrix-vector product per row, as a single
# point's are, and its sums and extremes are taken row by row.  From this
# many rows on, one matrix product and folds over the columns are cheaper.
_FOLD_ROWS = 64


def _as_generator_matrix(generators, max_rows=MAX_GENERATORS):
    """Validate a list of nonzero vectors (generators or normals) as a float matrix."""
    G = np.atleast_2d(np.asarray(generators, dtype=float))
    if G.ndim != 2 or G.size == 0:
        raise ValueError("expected a non-empty list of vectors")
    if not np.all(np.isfinite(G)):
        raise ValueError("vectors contain NaN/Inf entries")
    k, m = G.shape
    if k > max_rows:
        raise ValueError(f"at most {max_rows} vectors supported, got {k}")
    if m > MAX_DIM:
        raise ValueError(f"dimension cap {MAX_DIM} exceeded, got {m}")
    if not G.any(axis=1).all():
        raise ValueError("zero vector not allowed")
    return G


def _scaled_rows(B):
    """``(S, e)``: the rows of ``B`` scaled by 2^-e to a largest entry in
    [0.5, 1), with ``e`` one power of two per row, as a column.  Exact, so
    ``np.ldexp(S, e)`` gives ``B`` back; a zero row keeps e = 0."""
    e = np.frexp(np.abs(B).max(axis=1, keepdims=True))[1]
    return np.ldexp(B, -e), e


def _unit_rows(B):
    """Rows of ``B`` divided by their norms, taken on :func:`_scaled_rows`
    of ``B``, so no norm overflows or underflows, and rows whose norms did
    neither keep their bits."""
    S = _scaled_rows(B)[0]
    return S / np.linalg.norm(S, axis=1, keepdims=True)


@functools.cache
def _subsets(k, size):
    """The ``size``-subsets of ``range(k)`` as rows, in lexicographic order; read-only."""
    S = np.array(list(itertools.combinations(range(k), size)))
    S.flags.writeable = False
    return S


@dataclass(frozen=True)
class ProjectionCertificate:
    """Certified nearest point of a finitely generated cone.

    Residuals are relative: ``residual_primal`` bounds the distance of
    ``point`` from the cone (scaled by 1 + |point|), ``residual_polar`` is
    the largest inner product of the error ``x - point`` against a unit
    generator (scaled by 1 + |x|), and ``residual_complementarity`` is
    |<x - point, point>| scaled by 1 + |x|^2.
    """

    point: np.ndarray
    active_face: tuple[int, ...]
    residual_primal: float
    residual_polar: float
    residual_complementarity: float

    def accepted(self, eps: float) -> bool:
        return max(self.residual_primal, self.residual_polar,
                   self.residual_complementarity) <= eps


class FaceTable:
    """Pre-factored least-squares data for every independent generator subset.

    Candidate projections onto ``cone{g_1, ..., g_k}`` are least-squares
    fits over the span of each subset of generators, kept when the fitted
    coefficients are (numerically) nonnegative.  The minimum-distance
    feasible candidate is the exact projection, because the true nearest
    point lies on some face and is itself such a candidate.

    Each generator row is first scaled by a power of two to a largest entry
    in [0.5, 1), so generators that differ only in length give the same
    table, bit for bit.  Subsets are ordered by size, then lexicographically;
    rank-deficient subsets are skipped.  The empty subset (candidate 0, the
    origin) is always present.  The subsets of one size are factored
    together, in one batched SVD (the rank test) and one batched
    pseudo-inverse.  A projection forms ``x - p`` and its squared length
    only for the (subset, point) pairs whose coefficients are feasible;
    exact distance ties go to the earlier, smaller face.
    """

    def __init__(self, generators):
        G = _as_generator_matrix(generators)
        # Every row is scaled by a power of two to a largest entry in
        # [0.5, 1): the cone is the same, the rank test and the pseudo-inverse
        # cutoff no longer see the rows' lengths, and no pseudo-inverse overflows.
        G = _scaled_rows(G)[0]
        self.generators = G
        k, m = G.shape
        self.dim = m
        subsets = [()]
        groups = []
        for size in range(1, min(k, m) + 1):
            S = _subsets(k, size)
            GS = G[S].transpose(0, 2, 1)  # (n_s, m, size), columns are generators
            sv = np.linalg.svd(GS, compute_uv=False)
            keep = sv[:, -1] > sv[:, 0] * _RANK_RTOL  # else covered by a smaller face
            if keep.any():
                GS = np.ascontiguousarray(GS[keep])
                groups.append((np.linalg.pinv(GS), GS))
                subsets.extend(map(tuple, S[keep].tolist()))
        self.subsets = subsets
        self._groups = groups

    def project(self, points):
        """Project a batch of points; returns (projections, winner indices).

        ``points`` has shape (n, dim); winners index into ``self.subsets``.
        Each row is projected scaled by a power of two to a largest entry in
        [0.5, 1) and scaled back: exact, since the projection is positively
        homogeneous, and free of overflow in the squared distances.  A batch
        of fewer than ``_FOLD_ROWS`` points gives each point the projection
        it gets alone, bit for bit.
        """
        X = np.atleast_2d(np.asarray(points, dtype=float))
        n = X.shape[0]
        if X.shape[1] != self.dim:
            raise ValueError(f"dimension mismatch: expected {self.dim}, got {X.shape[1]}")
        if not np.isfinite(X).all():
            raise ValueError("points contain NaN/Inf entries")
        X, e = _scaled_rows(X)
        best_p = np.zeros_like(X)
        best_d2 = np.einsum("ij,ij->i", X, X)  # empty subset: origin
        best_sub = np.zeros(n, dtype=int)
        max_rows = max((w.shape[0] * w.shape[1] for w, _ in self._groups), default=1)
        chunk = max(64, int(4e6 / max(1, max_rows * self.dim)))
        for lo in range(0, n, chunk):
            hi = min(n, lo + chunk)
            self._project_chunk(X[lo:hi], best_p[lo:hi], best_d2[lo:hi], best_sub[lo:hi])
        return np.ldexp(best_p, e), best_sub

    def _project_chunk(self, X, best_p, best_d2, best_sub):
        n = X.shape[0]
        rows = np.arange(n)
        offset = 1
        small = n < _FOLD_ROWS
        for W, GS in self._groups:
            if small:  # one matrix-vector product per (subset, point)
                C = np.matmul(W[:, None], X[:, :, None])  # (n_s, n, size, 1)
                P = np.matmul(GS[:, None], C)[..., 0].transpose(0, 2, 1)
                C = C[..., 0].transpose(0, 2, 1)
            else:
                C = W @ X.T                         # (n_s, size, n)
                P = GS @ C                          # (n_s, m, n)
            cmin, cmax = C.min(axis=1), C.max(axis=1)
            feasible = cmin >= -1e-12 * (1.0 + np.maximum(cmax, -cmin))
            s_idx, n_idx = np.nonzero(feasible)
            R = X[n_idx] - P[s_idx, :, n_idx]      # x - p at the feasible pairs only
            # Squared distances of fewer than _FOLD_ROWS points: numpy's
            # vectorised reduction, row by row; of more, a sum in coordinate
            # order.  The winners depend on these bits.
            d2 = np.full(feasible.shape, np.inf)
            d2[s_idx, n_idx] = (np.einsum("ij,ij->i", R, R) if small
                                else (R * R).cumsum(axis=1)[:, -1])
            gi = d2.argmin(axis=0)
            gd = d2[gi, rows]
            better = gd < best_d2  # exact ties keep the smaller, earlier face
            if np.any(better):
                best_d2[better] = gd[better]
                best_sub[better] = offset + gi[better]
                best_p[better] = P[gi, :, rows][better]
            offset += W.shape[0]

    def coefficients(self, subset_index, x):
        """Least-squares coefficients of ``x`` on the given subset."""
        if subset_index == 0:
            return np.zeros(0)
        offset = 1
        for W, _ in self._groups:
            if subset_index < offset + W.shape[0]:
                return W[subset_index - offset] @ x
            offset += W.shape[0]
        raise IndexError(subset_index)


def _unit_scaled(x):
    """``(x * 2^-e, e)`` with the largest entry of the scaled vector in
    [0.5, 1), so its squares neither overflow nor underflow.  The scaling is
    exact, and so is every residual quotient taken on the scaled vector with
    1 + |x| and 1 + |x|^2 scaled to 2^-e + |u| and 2^-2e + |u|^2."""
    _, e = np.frexp(np.abs(x).max(initial=0.0))
    e = max(int(e), -1021)  # subnormal entries: keep 2^-e finite
    return np.ldexp(x, -e), e


def brute_force_project(generators, x, eps=1e-8):
    """Project ``x`` onto the cone generated by ``generators``, with certificate.

    Enumerates every independent subset of generators, keeps the
    least-squares candidates with nonnegative coefficients, and returns the
    minimum-distance candidate together with its optimality residuals
    (point in the cone, error in the polar, complementarity).  Raises when
    the winning candidate fails certification at ``eps``, which signals
    inconsistent cone data.  The residuals are taken on ``x`` scaled by a
    power of two, so they do not overflow at any scale of ``x``.

    Parameters
    ----------
    generators : array_like, shape (k, m)
        Generator vectors, one per row.  k <= 12, m <= 16.
    x : array_like, shape (m,)
        Point to project.
    eps : float
        Relative acceptance tolerance for the certificate.
    """
    table = generators if isinstance(generators, FaceTable) else FaceTable(generators)
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] != table.dim:
        raise ValueError(f"x must be a vector of dimension {table.dim}")
    if not np.all(np.isfinite(x)):
        raise ValueError("x contains NaN/Inf entries")
    u, e = _unit_scaled(x)
    one = np.ldexp(1.0, -e)  # 1 on the scale of u
    P, subs = table.project(u[None, :])
    p = P[0]
    S = table.subsets[subs[0]]
    coeffs = table.coefficients(subs[0], u)

    G = table.generators
    neg = np.minimum(coeffs, 0.0)
    primal = float(np.linalg.norm(neg @ G[list(S), :]) if len(S) else 0.0)
    primal /= one + float(np.linalg.norm(p))
    ghat = _unit_rows(G)
    err = u - p
    polar = float(max(0.0, (ghat @ err).max())) / (one + float(np.linalg.norm(u)))
    # 1 + |x|^2 on the scale of u; past 2^1023 the quotient is below 2^-1019 either way.
    comp = float(abs(err @ p)) / (np.ldexp(1.0, min(-2 * e, 1023)) + float(u @ u))
    cert = ProjectionCertificate(point=np.ldexp(p, e), active_face=tuple(S),
                                 residual_primal=primal, residual_polar=polar,
                                 residual_complementarity=comp)
    if not cert.accepted(eps):
        raise ValueError("no candidate certifies: inconsistent cone data "
                         f"(residuals {primal:.3e}, {polar:.3e}, {comp:.3e})")
    return cert


def conic_feasibility(generators, x, eps=1e-8):
    """True iff ``x`` is within ``eps*(1+|x|)`` of a nonnegative combination,
    tested on ``x`` scaled by a power of two so that no norm overflows.
    Raises ``ValueError`` on NaN/Inf entries (from :meth:`FaceTable.project`)."""
    table = generators if isinstance(generators, FaceTable) else FaceTable(generators)
    u, e = _unit_scaled(np.asarray(x, dtype=float))
    P, _ = table.project(u[None, :])
    dist = float(np.linalg.norm(u - P[0]))
    return dist <= eps * (np.ldexp(1.0, -e) + float(np.linalg.norm(u)))


def double_description(halfspaces):
    """Extreme rays and lineality space of ``{x : n_j . x >= 0 for all j}``.

    Each independent (r - 1)-subset of the unit normals (r their rank) gives
    a null direction d in their row space; d, then -d, is a candidate.  One
    slack matrix of candidates by normals decides admission (no slack below
    -1e-9) and identity: admitted candidates on which the same normals are
    tight (slack at most 1e-9) are one ray, and the first is kept (Motzkin
    et al. 1953; Fukuda & Prodon 1996).

    Parameters
    ----------
    halfspaces : array_like, shape (k, m)
        Inward normal vectors, one per row.  k <= 12, m <= 16.

    Returns
    -------
    rays : ndarray, shape (n, m)
        Unit extreme rays of the cone's pointed part, in candidate order.
    lineality : ndarray, shape (m - r, m)
        Orthonormal rows spanning the lineality space, the complement of
        the normals' row space.
    """
    B = _as_generator_matrix(halfspaces, max_rows=MAX_DD_HALFSPACES)
    k, m = B.shape
    Bn = _unit_rows(B)
    _, sv, Vt = np.linalg.svd(Bn, full_matrices=True)
    r = int(np.sum(sv > sv[0] * _RANK_RTOL))
    Q = Vt[:r].T                        # (m, r) row-space basis
    Br = Bn @ Q                         # (k, r), full column rank
    if r == 1:
        D = np.ones((1, 1))
    else:
        S = _subsets(k, r - 1)
        _, sa, Va = np.linalg.svd(Br[S], full_matrices=True)
        rank = (sa > sa[:, :1] * _RANK_RTOL).sum(axis=1)
        D = Va[rank == r - 1, -1]  # null direction of each independent subset
    # Each direction, then its negation; -F is exact for -d.
    F = D @ Br.T
    C, F = np.stack([D, -D], axis=1).reshape(-1, r), np.stack([F, -F], axis=1).reshape(-1, k)
    admitted = np.flatnonzero((F >= -_FEAS_TOL).all(axis=1))
    tight = (F[admitted] <= _FEAS_TOL) @ (1 << np.arange(k))  # the tight set as k bits
    first = np.sort(np.unique(tight, return_index=True)[1])
    rays = [Q @ d for d in C[admitted[first]]]  # one product a ray, as a batch rounds otherwise
    return _unit_rows(np.array(rays).reshape(-1, m)), Vt[r:]


# Rows generate the planar cone {(a, b) : |a| <= b}, the two-dimensional
# section of the second-order cone through any axis plane.
_SOC_SECTION = np.array([[1.0, 1.0], [-1.0, 1.0]])


def lorentz_reference_project(x, eps=1e-8):
    """Reference projection onto ``{(xbar, t) : |xbar| <= t}``.

    The second-order cone is invariant under rotations that fix the t-axis,
    and the projection of ``x`` therefore lies in the plane spanned by
    ``(xbar, 0)`` and the t-axis.  Inside that plane the cone is the
    two-dimensional wedge ``|a| <= b``, so the problem reduces to a planar
    polyhedral projection handled by :func:`brute_force_project`.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] < 2:
        raise ValueError("second-order cone requires dimension >= 2")
    bar, t = x[:-1], x[-1]
    radius = float(np.linalg.norm(bar))
    if radius == 0.0:
        p = np.zeros_like(x)
        p[-1] = max(t, 0.0)
        return p
    cert = brute_force_project(_SOC_SECTION, np.array([radius, t]), eps=eps)
    a, b = cert.point
    return np.concatenate([(a / radius) * bar, [b]])
