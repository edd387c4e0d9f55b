import itertools

import numpy as np
import pytest

from conelab import (Lorentz, Orthant, brute_force_project, conic_feasibility,
                     double_description, lorentz_reference_project, project_cone)
from conelab.oracle import _FOLD_ROWS, FaceTable, _unit_rows
from conelab.sampling import gaussian_points, rng_for

WEDGE = np.array([[1.0, 0.0], [1.0, 1.0]])  # generators of an acute planar cone


def test_project_off_cone_point():
    cert = brute_force_project(WEDGE, [0.0, 1.0])
    np.testing.assert_allclose(cert.point, [0.5, 0.5])
    assert cert.active_face == (1,)
    assert cert.accepted(1e-8)


def test_project_member_is_identity():
    cert = brute_force_project(WEDGE, [2.0, 1.0])
    np.testing.assert_allclose(cert.point, [2.0, 1.0], atol=1e-12)
    assert cert.residual_primal <= 1e-12
    assert cert.residual_polar <= 1e-12
    assert cert.residual_complementarity <= 1e-12


def test_project_orthant_matches_clamp():
    cert = brute_force_project(np.eye(3), [-1.0, 2.0, -3.0])
    np.testing.assert_allclose(cert.point, [0.0, 2.0, 0.0], atol=1e-14)


def test_conic_feasibility_examples():
    assert conic_feasibility(WEDGE, [2.0, 1.0])
    assert not conic_feasibility(WEDGE, [0.0, 1.0])  # distance sqrt(1/2)
    assert conic_feasibility(WEDGE, [0.0, 0.0])


def test_generator_caps():
    with pytest.raises(ValueError):
        FaceTable(np.ones((13, 2)))
    with pytest.raises(ValueError):
        FaceTable(np.ones((2, 17)))
    with pytest.raises(ValueError):
        brute_force_project(WEDGE, [1.0, 2.0, 3.0])
    table = FaceTable(WEDGE)
    with pytest.raises(ValueError, match="dimension mismatch"):
        table.project(np.ones((1, 3)))
    with pytest.raises(IndexError):
        table.coefficients(len(table.subsets), np.ones(2))


def test_uncertified_projection_raises(monkeypatch):
    # A projector that answers the origin for (1, 1), inside the wedge, leaves
    # x itself as the error, which is not in the polar.
    monkeypatch.setattr(FaceTable, "project",
                        lambda self, X: (np.zeros_like(X), np.zeros(len(X), dtype=int)))
    with pytest.raises(ValueError, match="no candidate certifies"):
        brute_force_project(WEDGE, [1.0, 1.0])


def test_lorentz_reference_project_axis_and_dimension():
    with pytest.raises(ValueError, match="dimension >= 2"):
        lorentz_reference_project([1.0])
    # On the t-axis the projection is t clamped at 0.
    assert lorentz_reference_project([0.0, 0.0, 3.0]).tolist() == [0.0, 0.0, 3.0]
    assert lorentz_reference_project([0.0, 0.0, -2.0]).tolist() == [0.0, 0.0, 0.0]


def test_double_description_orthant():
    rays, lines = double_description(np.eye(2))
    assert lines.shape == (0, 2)
    rays = sorted(tuple(np.round(r, 9)) for r in rays)
    assert rays == [(0.0, 1.0), (1.0, 0.0)]


def test_double_description_wedge():
    rays, _ = double_description(np.array([[1.0, 0.0], [-1.0, 1.0]]))
    assert len(rays) == 2
    normals = np.array([[1.0, 0.0], [-1.0, 1.0]])
    for r in rays:
        assert np.all(normals @ r >= -1e-9)
    # the two rays are (0,1) and (1,1)/sqrt(2)
    found = sorted(tuple(np.round(np.abs(r) / max(np.abs(r)), 6)) for r in rays)
    assert found == [(0.0, 1.0), (1.0, 1.0)]


def test_double_description_lineality():
    rays, lines = double_description(np.array([[1.0, 0.0]]))
    # one extreme ray, and the line x_1 = 0 as the lineality space
    assert np.array_equal(rays, [[1.0, 0.0]])
    assert lines.shape == (1, 2) and np.array_equal(np.abs(lines), [[0.0, 1.0]])


def test_double_description_merges_candidates_by_tight_set():
    # The cone |x_1| + |x_2| + |x_3| <= x_4 over the octahedron: 8 facets, 6
    # rays, and each ray is tight on 4 normals, any 3 of them independent, so
    # it is found from 4 subsets and kept once.
    N = np.array([s + (1.0,) for s in itertools.product([1.0, -1.0], repeat=3)])
    rays, lines = double_description(N)
    assert rays.shape == (6, 4) and lines.shape == (0, 4)
    expected = {tuple(np.round(s * np.eye(4)[i] + np.eye(4)[3], 9)) for i in range(3)
                for s in (1.0, -1.0)}
    assert {tuple(np.round(r * np.sqrt(2.0), 9)) for r in rays} == expected
    for ray in rays:
        tight = np.flatnonzero(np.abs(N @ ray) <= 1e-9)
        assert len(tight) == 4
        assert all(np.linalg.matrix_rank(N[list(S)]) == 3
                   for S in itertools.combinations(tight, 3))


def test_double_description_caps():
    with pytest.raises(ValueError):
        double_description(np.vstack([np.eye(4)] * 4))  # 16 > 12 halfspaces


def test_oracle_matches_closed_form_orthant():
    rng = rng_for(0, "oracle-orthant")
    X = gaussian_points(rng, 400, 4)
    table = FaceTable(np.eye(4))
    P, _ = table.project(X)
    np.testing.assert_allclose(P, np.clip(X, 0.0, None), atol=1e-12)


def test_oracle_matches_closed_form_lorentz():
    rng = rng_for(1, "oracle-lorentz")
    X = gaussian_points(rng, 400, 3)
    K = Lorentz(3)
    for x in X:
        ref = lorentz_reference_project(x)
        fast = project_cone(K, x)
        np.testing.assert_allclose(fast, ref, atol=1e-9 * (1.0 + np.linalg.norm(x)))


def test_certified_point_is_argmin_empirically():
    rng = rng_for(2, "argmin")
    x = np.array([0.3, 1.4, -0.8])
    G = np.array([[1.0, 0.0, 0.1], [0.2, 1.0, 0.0], [0.0, 0.3, 1.0]])
    cert = brute_force_project(G, x)
    d_star = np.linalg.norm(x - cert.point)
    coeffs = np.abs(rng.standard_normal((1000, 3)))
    members = coeffs @ G
    dists = np.linalg.norm(members - x, axis=1)
    assert np.all(d_star <= dists + 1e-9)


def test_moreau_reconstruction_through_oracle():
    # projection onto the cone plus projection onto its polar reconstructs x
    G = np.array([[1.0, 0.0], [1.0, 1.0]])
    polar_gens = np.array([[0.0, -1.0], [-1.0, 1.0]])
    rng = rng_for(3, "moreau-oracle")
    for x in gaussian_points(rng, 200, 2):
        p = brute_force_project(G, x).point
        q = brute_force_project(polar_gens, x).point
        np.testing.assert_allclose(p + q, x, atol=1e-9 * (1.0 + np.linalg.norm(x)))


def test_certificates_deterministic():
    a = brute_force_project(WEDGE, [0.0, 1.0])
    b = brute_force_project(WEDGE, [0.0, 1.0])
    assert a.active_face == b.active_face
    assert np.array_equal(a.point, b.point)
    assert (a.residual_primal, a.residual_polar, a.residual_complementarity) == \
        (b.residual_primal, b.residual_polar, b.residual_complementarity)


def test_redundant_generators_handled():
    # duplicate and interior generators do not disturb the projection
    G = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 1.0], [2.0, 1.0]])
    cert = brute_force_project(G, [0.0, 1.0])
    np.testing.assert_allclose(cert.point, [0.5, 0.5], atol=1e-12)


def test_face_table_projection_across_scales():
    # Projection is positively homogeneous: exact under power-of-two
    # scaling, to rounding of the scaled input otherwise.
    table = FaceTable(WEDGE)
    P, _ = table.project([[3e160, -1e160]])
    np.testing.assert_array_equal(P, [[3e160, 0.0]])
    X = gaussian_points(rng_for(2, "scales"), 40, 2)
    P1, S1 = table.project(X)
    for s in np.ldexp(1.0, np.arange(-996, 997, 83)):
        Ps, Ss = table.project(s * X)
        np.testing.assert_array_equal(Ps, s * P1)
        np.testing.assert_array_equal(Ss, S1)
    for s in np.logspace(-300, 300, 25):
        Ps, Ss = table.project(s * X)
        np.testing.assert_allclose(Ps, s * P1, rtol=1e-12, atol=0.0)
        np.testing.assert_array_equal(Ss, S1)


@pytest.mark.parametrize("scale", np.logspace(-300, 300, 13))
def test_feasibility_and_certificate_across_scales(scale):
    # Neither the distance test nor the certificate's 1 + |x| and 1 + |x|^2
    # may overflow or underflow.  (3, 1) is inside the wedge at every scale;
    # (3, -1) is at distance |x| / sqrt(10) from it, so it is outside once
    # that exceeds the absolute part of eps (1 + |x|).
    outside, inside = scale * np.array([3.0, -1.0]), scale * np.array([3.0, 1.0])
    assert conic_feasibility(WEDGE, outside) == (scale < 1e-7)
    assert conic_feasibility(WEDGE, inside)
    cert = brute_force_project(WEDGE, outside)
    np.testing.assert_allclose(cert.point, [3.0 * scale, 0.0], rtol=1e-14, atol=0.0)
    assert cert.active_face == (0,)
    assert cert.accepted(1e-12)
    cert = brute_force_project(WEDGE, inside)
    np.testing.assert_allclose(cert.point, inside, rtol=1e-14, atol=0.0)
    assert cert.accepted(1e-12)


def test_feasibility_of_the_huge_outside_point():
    assert not conic_feasibility(WEDGE, [3e160, -1e160])
    assert conic_feasibility(WEDGE, [3e160, 1e160])


# Per-subset references: the loops the batched FaceTable and double
# description replaced.  The batched code must reproduce them bit for bit.

def _reference_table(G):
    k, m = G.shape
    subsets, groups = [()], []
    for size in range(1, min(k, m) + 1):
        idx_rows, w_rows, g_rows = [], [], []
        for S in itertools.combinations(range(k), size):
            GS = G[list(S), :].T
            sv = np.linalg.svd(GS, compute_uv=False)
            if sv[-1] <= sv[0] * 1e-12:
                continue
            idx_rows.append(S)
            w_rows.append(np.linalg.pinv(GS))
            g_rows.append(GS)
        if idx_rows:
            groups.append((np.array(w_rows), np.array(g_rows)))
            subsets.extend(idx_rows)
    return subsets, groups


def _reference_project(groups, dim, X):
    _, e = np.frexp(np.abs(X).max(axis=1))
    X = np.ldexp(X, -e[:, None])
    n = X.shape[0]
    best_p, best_d2 = np.zeros_like(X), np.einsum("ij,ij->i", X, X)
    best_sub = np.zeros(n, dtype=int)
    max_rows = max((w.shape[0] * w.shape[1] for w, _ in groups), default=1)
    chunk = max(64, int(4e6 / max(1, max_rows * dim)))
    spans = []
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        # A chunk of fewer than _FOLD_ROWS points is projected point by point.
        spans += [(lo, hi)] if hi - lo >= _FOLD_ROWS else [(i, i + 1) for i in range(lo, hi)]
    for lo, hi in spans:
        XT, rows, offset = X[lo:hi].T, np.arange(hi - lo), 1
        for W, GS in groups:
            C = W @ XT
            scale = 1.0 + np.abs(C).max(axis=1, keepdims=True)
            feasible = (C >= -1e-12 * scale).all(axis=1)
            P = GS @ C
            R = XT[None, :, :] - P
            d2 = np.where(feasible, np.einsum("smn,smn->sn", R, R), np.inf)
            gi = d2.argmin(axis=0)
            gd = d2[gi, rows]
            better = gd < best_d2[lo:hi]
            best_d2[lo:hi][better] = gd[better]
            best_sub[lo:hi][better] = offset + gi[better]
            best_p[lo:hi][better] = P[gi, :, rows][better]
            offset += W.shape[0]
    return np.ldexp(best_p, e[:, None]), best_sub


def _reference_rays(N):
    """Rays of a pointed cone of full rank r = m >= 2, enumerated per subset."""
    Br = N / np.linalg.norm(N, axis=1, keepdims=True)
    _, sv, Vt = np.linalg.svd(Br, full_matrices=True)
    Br = Br @ Vt.T
    r = Br.shape[1]
    rays = []
    for S in itertools.combinations(range(Br.shape[0]), r - 1):
        _, sa, Va = np.linalg.svd(Br[list(S), :], full_matrices=True)
        if np.sum(sa > sa[0] * 1e-12) != r - 1:
            continue
        for cand in (Va[-1], -Va[-1]):
            if np.all(Br @ cand >= -1e-9) and all(np.linalg.norm(d - cand) > 1e-9
                                                  for d in rays):
                rays.append(cand)
    return list(_unit_rows(np.array([Vt.T @ d for d in rays])))


def _random_generators(rng, k, m):
    G = rng.standard_normal((k, m))
    if k > 2:
        G[k - 1] = G[0]  # a duplicated generator: its faces tie exactly
    return G


@pytest.mark.parametrize("k,m", [(1, 1), (2, 2), (3, 2), (4, 3), (5, 5), (6, 4), (7, 9),
                                 (9, 5), (10, 3), (12, 6), (12, 12), (12, 16)])
def test_face_table_matches_per_subset_reference(k, m):
    rng = rng_for(k * 100 + m, "face-table-reference")
    G = _random_generators(rng, k, m)
    table = FaceTable(G)
    # The table first scales each row by a power of two to a largest entry in [0.5, 1).
    subsets, groups = _reference_table(np.ldexp(G, -np.frexp(np.abs(G).max(axis=1))[1][:, None]))
    assert table.subsets == subsets
    assert len(table._groups) == len(groups)
    for (W, GS), (W0, GS0) in zip(table._groups, groups):
        assert np.array_equal(W, W0) and np.array_equal(GS, GS0)
    inside = rng.uniform(0.0, 1.0, (40, k)) @ G  # points already in the cone
    X = np.vstack([gaussian_points(rng, 300, m), inside])
    chunk = max(64, int(4e6 / max(w.shape[0] * w.shape[1] for w, _ in groups) / m))
    batches = [X[:1], inside[:1], X[:2], X[:63], X[:65], X, np.ldexp(X, 600), np.ldexp(X, -600),
               np.ldexp(X * rng.uniform(0.5, 2.0, (len(X), 1)), -600)]
    if chunk < 3 * len(X):
        batches.append(np.resize(X, (chunk + 1, m)))  # a last chunk of one point
    for Y in batches:
        P, S = table.project(Y)
        P0, S0 = _reference_project(groups, m, Y)
        assert np.array_equal(P, P0) and np.array_equal(S, S0)


# Random normals (k, m), then the cones of perfbench's project-polyhedral
# workload: an orthogonal basis of R^d plus r strictly interior normals.
_DD_CASES = ([pytest.param(k, m, None, id=f"{k}-{m}")
              for k, m in [(2, 2), (3, 2), (3, 3), (5, 3), (6, 4), (8, 5), (12, 6), (12, 10)]]
             + [pytest.param(d + r, d, r, id=f"orthant-{d}+{r}")
                for d, r in [(5, 4), (6, 3), (7, 2)]])


@pytest.mark.parametrize("k,m,redundant", _DD_CASES)
def test_double_description_matches_per_subset_reference(k, m, redundant):
    rng = rng_for(k * 100 + m, "dd-reference")
    if redundant is None:
        N = rng.standard_normal((k, m))
        N[:, -1] = np.abs(N[:, -1]) + 0.5  # every normal leans on the last axis: pointed
        if k > m:
            N[k - 1] = N[0]  # a duplicated normal, keeping the normals of full rank
    else:
        Q = np.linalg.qr(rng.standard_normal((m, m)))[0]
        B = Q.T * rng.uniform(0.5, 2.0, (m, 1))
        N = np.vstack([B, rng.uniform(0.2, 1.0, (redundant, m)) @ B])
    rays, lines = double_description(N)
    assert lines.shape == (0, m)
    reference = _reference_rays(N)
    assert len(rays) == len(reference)
    assert all(np.array_equal(a, b) for a, b in zip(rays, reference))


def test_double_description_of_huge_and_tiny_normals():
    for big in (1e200, 1e308, 1e-200, 1e-320):
        rays, _ = double_description([[big, 0.0], [0.0, 1.0]])
        assert sorted(map(tuple, rays)) == [(0.0, 1.0), (1.0, 0.0)]
    rng = rng_for(5, "dd-scales")
    N = rng.standard_normal((7, 4))
    N[:, -1] = np.abs(N[:, -1]) + 0.5
    rays, _ = double_description(N)
    assert len(rays) >= 4
    for k in range(-990, 991, 45):
        for scaled in (np.ldexp(N, k), np.ldexp(N, rng.integers(-abs(k), abs(k) + 1, (7, 1)))):
            out, _ = double_description(scaled)
            assert len(out) == len(rays) and all(np.array_equal(a, b) for a, b in zip(out, rays))
            assert (_unit_rows(scaled) @ out.T >= -1e-9).all()


def test_face_table_of_huge_and_tiny_generators():
    # Rows far outside [2^-500, 2^500) are rescaled; the cone is the orthant.
    X = np.array([[-1.0, 2.0], [3.0, -1.0], [3.0, 2.0]])
    for g in (1e-200, 1e-320, 1e200, 1e308):
        table = FaceTable([[g, 0.0], [0.0, 1.0]])
        assert table.subsets == [(), (0,), (1,), (0, 1)]
        P, _ = table.project(X)
        np.testing.assert_allclose(P, np.clip(X, 0.0, None), rtol=1e-15, atol=0.0)
        assert conic_feasibility(table, [3.0, 2.0])
        assert brute_force_project(table, [3.0, -1.0]).accepted(1e-12)


def test_face_table_rank_test_ignores_generator_lengths():
    # The generators span the orthant; a short one must not hide the full face.
    P, S = FaceTable([[1e-100, 0.0], [0.0, 1.0]]).project([[3.0, 2.0]])
    assert S[0] == 3
    np.testing.assert_allclose(P[0], [3.0, 2.0], rtol=1e-15, atol=0.0)


def test_face_table_projects_alike_at_any_generator_lengths():
    rng = rng_for(11, "face-table-lengths")
    G = _random_generators(rng, 6, 4)
    X = gaussian_points(rng, 200, 4)
    P0, S0 = FaceTable(G).project(X)
    for _ in range(5):
        k = rng.integers(-300, 301, len(G))
        P, S = FaceTable(np.ldexp(G, k[:, None])).project(X)
        assert np.array_equal(P, P0) and np.array_equal(S, S0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_points_rejected(bad):
    table = FaceTable(WEDGE)
    with pytest.raises(ValueError, match="NaN/Inf"):
        table.project([[1.0, 1.0], [bad, 0.0]])
    with pytest.raises(ValueError, match="NaN/Inf"):
        conic_feasibility(WEDGE, [0.0, bad])
    with pytest.raises(ValueError, match="NaN/Inf"):
        brute_force_project(table, [bad, 1.0])
