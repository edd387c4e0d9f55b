"""Iterative computation of pairwise suprema from a retraction pair.

The recurrence anchors the pair's m-map at each of the two inputs
(``M_u x = u + m(x - u)``) and alternates the two anchored maps.  For a
lattice pair the fixed point is the coordinatewise supremum, checked here
against the closed form; for other pairs the iteration runs in an
exploratory mode whose trace is validated (monotone, bounded by the
scaffold upper bound m(u) + m(v)) rather than trusted.

Also here: the closed-form supremum on simplicial cones, the scaffold
upper bound, a lexicographic-order demonstration of missing least upper
bounds, and the check that the m-map commutes with the suprema of finite
sets of Gaussian points.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .cones import Simplicial, as_vector, leq
from .properties import _Check, _sup_commutes, sup_m
from .sampling import cone_members, gaussian_points, rng_for

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
    maximum in the cone's basis."""
    if not isinstance(cone, Simplicial):
        raise ValueError("closed-form supremum requires a simplicial cone")
    uv = as_vector(u, cone.dim)
    vv = as_vector(v, cone.dim)
    cu = cone.basis_inv @ uv
    cv = cone.basis_inv @ vv
    return cone.basis @ np.maximum(cu, cv)


def default_upper_bound(pair, u, v):
    """The scaffold upper bound m(u) + m(v) of {u, v}.

    Requires the pair's ranges to negate (n-range = -(m-range)); that is
    what makes x <= m(x) and hence the bound valid.  The negation premise
    is verified on a small deterministic sample and the bound's order
    contract is checked before returning.
    """
    u = as_vector(u, pair.dim)
    v = as_vector(v, pair.dim)
    rng = rng_for(0, "default-upper-bound")
    members_m = cone_members(pair.cone_m, rng, 16)
    members_n = cone_members(pair.cone_n, rng, 16)
    res = max(float(np.max(pair.cone_n.membership_residual(-members_m))),
              float(np.max(pair.cone_m.membership_residual(-members_n))))
    if res > 10.0 * pair.tol.eps_membership:
        raise ValueError("ranges do not negate; scaffold bound is not valid")
    w = pair.m(u) + pair.m(v)
    if not (leq(pair.cone_m, u, w, pair.tol) and leq(pair.cone_m, v, w, pair.tol)):
        raise ValueError("scaffold bound failed its order contract")
    return w


def iterative_sup(pair, u, v, max_iter=100):
    """Compute sup{u, v} by alternating the anchored maps of the pair.

    Starting from u1 = M_u(v), alternate v_k = M_v(u_k) and
    u_{k+1} = M_u(v_k) until both gap norms |u_{k+1} - v_k| and
    |u_{k+1} - u_k| fall below ``pair.tol.eps_converge * (1 + |u_k|)``.
    Each step is validated against the order: iterates must increase and
    stay below the scaffold bound m(u) + m(v); a violation ends the run
    with status ``diverged`` (the pair does not behave like a lattice
    retraction).

    Returns a :class:`SupTrace`; on convergence the result is checked to be
    an upper bound of {u, v} and below the scaffold bound, recorded in the
    trace contract flags.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    u = as_vector(u, pair.dim)
    v = as_vector(v, pair.dim)
    tol = pair.tol
    fail_eps = 10.0 * tol.eps_membership
    cone = pair.cone_m
    m_u = lambda x: sup_m(pair, x, u)  # noqa: E731
    m_v = lambda x: sup_m(pair, x, v)  # noqa: E731
    w = pair.m(u) + pair.m(v)

    u_its = [m_u(v)]
    v_its = []
    gaps = []
    status = MAX_ITER

    def _violates(lo, hi):
        return float(cone.membership_residual(hi - lo)) > fail_eps

    if _violates(u, u_its[0]) or _violates(u_its[0], w):
        status = DIVERGED
    else:
        for _ in range(max_iter):
            u_k = u_its[-1]
            v_k = m_v(u_k)
            u_next = m_u(v_k)
            v_its.append(v_k)
            g_uv = float(np.linalg.norm(u_next - v_k))
            g_uu = float(np.linalg.norm(u_next - u_k))
            gaps.append((g_uv, g_uu))
            prev_v = v_its[-2] if len(v_its) >= 2 else v
            if (_violates(u_k, u_next) or _violates(prev_v, v_k)
                    or _violates(u_next, w) or _violates(v_k, w)):
                u_its.append(u_next)
                status = DIVERGED
                break
            u_its.append(u_next)
            limit = tol.eps_converge * (1.0 + float(np.linalg.norm(u_k)))
            if g_uv <= limit and g_uu <= limit:
                status = CONVERGED
                break

    trace = SupTrace(status=status, u_iterates=[a.copy() for a in u_its],
                     v_iterates=[a.copy() for a in v_its], residuals=gaps,
                     upper_bound_used=w, iterations=len(v_its))
    if status == CONVERGED:
        result = u_its[-1]
        trace.result = result.copy()
        trace.result_is_upper_bound = bool(
            leq(cone, u, result, tol) and leq(cone, v, result, tol))
        trace.result_below_scaffold = bool(leq(cone, result, w, tol))
        fp = max(float(np.linalg.norm(m_u(result) - result)),
                 float(np.linalg.norm(m_v(result) - result)))
        trace.fixed_point_residual = fp / (1.0 + float(np.linalg.norm(result)))
    return trace


def lex_leq(a, b):
    """Lexicographic order on R^2; comparisons are exact (no tolerance)."""
    a0, a1 = float(a[0]), float(a[1])
    b0, b1 = float(b[0]), float(b[1])
    return b0 > a0 or (b0 == a0 and a1 <= b1)


def lex_lt(a, b):
    return lex_leq(a, b) and not (float(a[0]) == float(b[0]) and float(a[1]) == float(b[1]))


DEFAULT_LEX_BOUNDS = ((1.0, 0.0), (0.5, -3.0), (2.0, 100.0), (0.25, -50.0),
                      (3.0, -1.0), (1.0, 1.0), (10.0, 0.0), (0.125, 7.0),
                      (5.0, -200.0), (0.75, 2.5))


def lex_demo(n_terms=100, candidate_bounds=None):
    """No least upper bound under the lexicographic order on R^2.

    Builds the increasing chain a_n = (0, n).  Every candidate w with
    w1 > 0 is an upper bound, yet w' = (w1, w2 - 1) is a strictly smaller
    upper bound, so no candidate can be least.  Candidates with w1 <= 0
    are rejected.
    """
    if n_terms < 2:
        raise ValueError("n_terms must be >= 2")
    if candidate_bounds is None:
        candidate_bounds = DEFAULT_LEX_BOUNDS
    terms = [(0.0, float(n)) for n in range(1, n_terms + 1)]
    increasing = all(lex_lt(terms[i], terms[i + 1]) for i in range(len(terms) - 1))
    rows = []
    for w in candidate_bounds:
        w = (float(w[0]), float(w[1]))
        if not (np.isfinite(w[0]) and np.isfinite(w[1])):
            raise ValueError(f"candidate bound {w} rejected: coordinates must be finite")
        if w[0] <= 0.0:
            raise ValueError(f"candidate bound {w} rejected: first coordinate must be > 0")
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
    return {"terms": n_terms, "chain_increasing": increasing,
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
