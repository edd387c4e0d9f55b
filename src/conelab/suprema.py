"""Iterative computation of pairwise suprema from a retraction pair.

The recurrence anchors the pair's m-map at each of the two inputs
(``M_u x = u + m(x - u)``) and alternates the two anchored maps.  For a
lattice pair the fixed point is the coordinatewise supremum, checked here
against the closed form; for other pairs the iteration runs in an
exploratory mode whose trace is validated (monotone, bounded by the
scaffold upper bound m(u) + m(v)) rather than trusted.

Also here: the closed-form supremum on simplicial cones, a
lexicographic-order demonstration of missing least upper bounds, and the
check that the m-map commutes with the suprema of finite sets of Gaussian
points.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from .cones import Simplicial, _dot, _row_norm, _rowwise, _same_shape, as_vector
from .properties import _Check, _sup_commutes, sup_m
# cone_members is unused here, but perfbench/spans.py wraps
# suprema.cone_members along with suprema.gaussian_points.
from .sampling import cone_members, gaussian_points  # noqa: F401

CONVERGED, MAX_ITER, DIVERGED = "converged", "max_iter", "diverged"

# Points per set of the sup-commutes check.
_SET_SIZE = 8


@dataclass
class SupTrace:
    """Iterate history of one supremum computation."""

    status: str
    u_iterates: list = field(default_factory=list)
    v_iterates: list = field(default_factory=list)
    residuals: list = field(default_factory=list)
    result: np.ndarray | None = None
    upper_bound_used: np.ndarray | None = None
    iterations: int = 0
    result_is_upper_bound: bool | None = None
    result_below_scaffold: bool | None = None
    fixed_point_residual: float | None = None

    @property
    def certified(self):
        """Converged with the order contract intact."""
        return (self.status == CONVERGED and bool(self.result_is_upper_bound)
                and bool(self.result_below_scaffold))

    def to_json_dict(self):
        return {
            "status": self.status,
            "iterations": self.iterations,
            "result": None if self.result is None else self.result.tolist(),
            "upper_bound": None if self.upper_bound_used is None
            else self.upper_bound_used.tolist(),
            "residuals": [[float(a), float(b)] for a, b in self.residuals],
            "contracts": {
                "result_is_upper_bound": self.result_is_upper_bound,
                "result_below_scaffold": self.result_below_scaffold,
                "fixed_point_residual": self.fixed_point_residual,
            },
        }

    def to_csv(self):
        """One iterate per row: step, u coords, v coords, gap norms."""
        dim = len(self.u_iterates[0]) if self.u_iterates else 0
        buf = io.StringIO()
        cols = ["step"] + [f"u{i}" for i in range(dim)] + [f"v{i}" for i in range(dim)]
        cols += ["gap_uv", "gap_uu"]
        buf.write(",".join(cols) + "\n")
        for k, u in enumerate(self.u_iterates):
            v = self.v_iterates[k] if k < len(self.v_iterates) else None
            gaps = self.residuals[k - 1] if 0 < k <= len(self.residuals) else ("", "")
            row = [str(k + 1)] + [repr(float(c)) for c in u]
            row += [repr(float(c)) for c in v] if v is not None else [""] * dim
            row += [repr(float(g)) if g != "" else "" for g in gaps]
            buf.write(",".join(row) + "\n")
        return buf.getvalue()


def closed_form_sup(cone, u, v):
    """Supremum of {u, v} in a simplicial cone order: the coordinatewise
    maximum in the cone's basis.  Takes two vectors or two (n, dim) batches."""
    if not isinstance(cone, Simplicial):
        raise ValueError("closed-form supremum requires a simplicial cone")
    _same_shape(u, v)
    top = np.maximum(cone.coordinates(u), cone.coordinates(v))
    return _rowwise(lambda C: _dot(C, cone.basis.T), top, cone.dim)


def _violated(cone, eps, chain, e):
    """Whether some (lo, hi) of ``chain`` has a membership residual of
    (hi - lo) 2^-e above ``eps``, so relative to 2^e + |hi - lo|; the pairs
    are tested in order, up to the first."""
    return any(float(cone.membership_residual(np.ldexp(hi - lo, -e))) > eps
               for lo, hi in chain)


def iterative_sup(pair, u, v, max_iter=100):
    """Compute sup{u, v} by alternating the anchored maps of the pair.

    Starting from u1 = M_u(v), alternate v_k = M_v(u_k) and
    u_{k+1} = M_u(v_k) until both gap norms |u_{k+1} - v_k| and
    |u_{k+1} - u_k| fall below ``pair.tol.eps_converge * (1 + |u_k|)``.
    Each step is validated against the order: iterates must increase and
    stay below the scaffold bound m(u) + m(v); a violation ends the run
    with status ``diverged`` (the pair does not behave like a lattice
    retraction).  Norms, order checks and contracts are taken in units of
    2^e, the scale of the largest entry of u and v: exact, so the norms stay
    finite, and a rounding-level difference reads as rounding at any scale.

    Returns a :class:`SupTrace`; on convergence the result is checked to be
    an upper bound of {u, v} and below the scaffold bound, recorded in the
    trace contract flags.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    u, v = as_vector(u, pair.dim), as_vector(v, pair.dim)
    tol, cone, eps = pair.tol, pair.cone_m, 10.0 * pair.tol.eps_membership
    # Norms are read in units of 2^e (1 is ``one``, finite as e >= -1021).
    e = max(math.frexp(max(map(abs, u.tolist() + v.tolist())))[1], -1021)
    one = math.ldexp(1.0, -e)

    def norm(x):
        return float(_row_norm(np.ldexp(x, -e)))

    w = pair.m(u) + pair.m(v)
    u_its, v_its, gaps = [sup_m(pair, v, u)], [], []
    status = DIVERGED if _violated(cone, eps, [(u, u_its[0]), (u_its[0], w)], e) else MAX_ITER
    while status == MAX_ITER and len(v_its) < max_iter:
        u_k, prev_v = u_its[-1], v_its[-1] if v_its else v
        v_its.append(v_k := sup_m(pair, u_k, v))
        u_its.append(u_next := sup_m(pair, v_k, u))
        g_uv, g_uu = norm(u_next - v_k), norm(u_next - u_k)
        gaps.append((math.ldexp(g_uv, e), math.ldexp(g_uu, e)))
        limit = tol.eps_converge * (one + norm(u_k))
        if _violated(cone, eps, [(u_k, u_next), (prev_v, v_k), (u_next, w), (v_k, w)], e):
            status = DIVERGED
        elif g_uv <= limit and g_uu <= limit:
            status = CONVERGED

    trace = SupTrace(status=status, u_iterates=u_its, v_iterates=v_its, residuals=gaps,
                     upper_bound_used=w, iterations=len(v_its))
    if status == CONVERGED:
        result = trace.result = u_its[-1].copy()
        trace.result_is_upper_bound = not _violated(cone, tol.eps_membership,
                                                    [(u, result), (v, result)], e)
        trace.result_below_scaffold = not _violated(cone, tol.eps_membership, [(result, w)], e)
        fp = max(norm(sup_m(pair, result, u) - result), norm(sup_m(pair, result, v) - result))
        trace.fixed_point_residual = fp / (one + norm(result))
    return trace


def lex_leq(a, b):
    """Lexicographic order on R^2; comparisons are exact (no tolerance)."""
    a0, a1 = float(a[0]), float(a[1])
    b0, b1 = float(b[0]), float(b[1])
    return b0 > a0 or (b0 == a0 and a1 <= b1)


def lex_lt(a, b):
    return lex_leq(a, b) and not (float(a[0]) == float(b[0]) and float(a[1]) == float(b[1]))


_LEX_TERMS = 100
# Candidate upper bounds of the chain; each has a positive first coordinate.
_LEX_BOUNDS = ((1.0, 0.0), (0.5, -3.0), (2.0, 100.0), (0.25, -50.0),
               (3.0, -1.0), (1.0, 1.0), (10.0, 0.0), (0.125, 7.0),
               (5.0, -200.0), (0.75, 2.5))


def lex_demo():
    """No least upper bound under the lexicographic order on R^2.

    Builds the increasing chain a_n = (0, n), n = 1..100.  Every candidate
    w with w1 > 0 is an upper bound, yet w' = (w1, w2 - 1) is a strictly
    smaller upper bound, so no candidate can be least.
    """
    terms = [(0.0, float(n)) for n in range(1, _LEX_TERMS + 1)]
    increasing = all(lex_lt(terms[i], terms[i + 1]) for i in range(len(terms) - 1))
    rows = []
    for w in _LEX_BOUNDS:
        is_ub = all(lex_leq(a, w) for a in terms)
        smaller = (w[0], w[1] - 1.0)
        rows.append({
            "bound": list(w),
            "is_upper_bound": is_ub,
            "smaller_bound": list(smaller),
            "smaller_is_upper_bound": all(lex_leq(a, smaller) for a in terms),
            "strictly_smaller": lex_lt(smaller, w),
        })
    certified = increasing and all(
        r["is_upper_bound"] and r["smaller_is_upper_bound"] and r["strictly_smaller"]
        for r in rows)
    return {"terms": _LEX_TERMS, "chain_increasing": increasing,
            "candidates": rows, "certified": certified}


def finite_sigma_continuity_check(pair, n_samples=1000, seed=0):
    """m commutes with suprema of finite sets: on ``max(1, n_samples // 8)``
    sets of 8 Gaussian points, both suprema folded with
    :func:`~conelab.properties.sup_m`, whose partial suprema are the chain.
    """
    chk = _Check(pair, "monotone-sup-commutes", seed)
    n_sets = max(1, n_samples // _SET_SIZE)
    S = gaussian_points(chk.rng, n_sets * _SET_SIZE, pair.dim).reshape(n_sets, _SET_SIZE, -1)
    chk.norm("set-sup", lambda *rows: _sup_commutes(pair, np.stack(rows, axis=1)),
             {f"x{j + 1}": S[:, j] for j in range(_SET_SIZE)})
    return chk.finish(n_sets)
