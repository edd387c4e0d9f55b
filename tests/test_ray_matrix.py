"""The canonical ray matrix of a polyhedral cone, and reports that do not
depend on how the cone was written.

A cone given by generators keeps its extreme rays only, as sorted unit
vectors; a cone given by halfspaces runs one double description on its
sorted unit normals.  In either form the polar is the halfspace cone of -E
for that ray matrix E, with the rays -E when E is ``dim`` orthogonal rays.  So
permuting the generators, scaling each by 2^k, or appending positive
combinations of them changes nothing a report reads, bit for bit, and
neither does permuting or 2^k-scaling the normals of a halfspace cone.
Rotating a cone is out of scope: the sampled members then differ, and with
them, on a few nearly degenerate cones, a verdict.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conelab import (Orthant, PolyhedralGenerators, PolyhedralHalfspaces, Simplicial,
                     moreau_pair, run_catalogue)
from conelab.cones import _REPRODUCE_RTOL, _canonical_rows, _orthogonal
from conelab.oracle import FaceTable, _unit_rows
from conelab.sampling import cone_members, gaussian_points, rng_for


def _rotated_orthant(rng, d):
    Q = np.linalg.qr(rng.standard_normal((d, d)))[0]
    return Q.T * rng.uniform(0.5, 2.0, (d, 1))


def _skew(rng, d):
    s = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-4.0, -0.3)
    i, j = rng.choice(d, 2, replace=False)
    B = np.eye(d)
    B[i, j] = s
    return B.T  # rows are the basis columns


def _polygon(rng, n):
    """The self-dual cone over a regular n-gon, n odd."""
    r = np.sqrt(1.0 / np.cos(np.pi / n))
    t = 2.0 * np.pi * np.arange(n) / n + rng.uniform(0.0, 2.0 * np.pi)
    return np.column_stack([r * np.cos(t), r * np.sin(t), np.ones(n)])


def _random_pointed(rng, d):
    """Gaussian generators lifted to the halfspace x_d >= 1: pointed and full.
    With at most 8, 7 and 6 of them in R^3, R^4 and R^5 the polar has at most
    8, 10 and 9 extreme rays, under the face-table cap of 12."""
    G = rng.standard_normal((rng.integers(d + 1, 12 - d), d))
    G[:, -1] = 1.0 + np.abs(G[:, -1])
    return G


_FAMILIES = {
    "rotated-orthant": lambda rng: _rotated_orthant(rng, rng.integers(3, 6)),
    "skew": lambda rng: _skew(rng, rng.integers(3, 6)),
    "polygon": lambda rng: _polygon(rng, rng.choice([3, 5, 7, 9])),
    "random": lambda rng: _random_pointed(rng, rng.integers(3, 6)),
}


def _relisted(rng, V, combinations=True):
    """V permuted, each row scaled by 2^k with |k| <= 3, and, when asked, one
    or two positive combinations of at least two rows appended (12 rows at most)."""
    out = np.ldexp(V[rng.permutation(len(V))], rng.integers(-3, 4, (len(V), 1)))
    if combinations:
        for _ in range(min(rng.integers(1, 3), 12 - len(V))):
            c = rng.uniform(0.25, 1.0, len(V)) * (rng.random(len(V)) < 0.5)
            c[rng.choice(len(V), 2, replace=False)] = rng.uniform(0.25, 1.0, 2)
            out = np.vstack([out, c @ V])
    return out


def _halfspace_form(V):
    """The cone of the generator rows V in halfspace form: its inward normals
    are the negated rays of its polar."""
    return PolyhedralHalfspaces(-PolyhedralGenerators(V).polar().generators())


def _what_reports_read(cone):
    """Everything a Moreau verify report is computed from: both ray matrices,
    the maps and both membership residuals on one batch, and sampled members."""
    pair = moreau_pair(cone)
    X = gaussian_points(rng_for(5, "maps"), 40, cone.dim)
    X = np.vstack([X, cone_members(pair.cone_m, rng_for(5, "m"), 10),
                   cone_members(pair.cone_n, rng_for(5, "n"), 10)])
    return [pair.cone_m.generators(), pair.cone_n.generators(), pair.m(X), pair.n(X),
            pair.cone_m.membership_residual(X), pair.cone_n.membership_residual(X)]


def _same_rays(A, B, atol=1e-9):
    """A and B hold the same rows in the same order, up to ``atol``: a ray
    found by double description is accurate to about 1e-11 on the worse
    conditioned random cones, and that noise must not reorder the rows."""
    return A.shape == B.shape and np.abs(A - B).max() <= atol


def _bitwise_equal(a, b):
    return all(x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in zip(a, b))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(family=st.sampled_from(sorted(_FAMILIES)), seed=st.integers(0, 2 ** 32 - 1))
def test_relisting_a_cone_changes_nothing_a_report_reads(family, seed):
    rng = np.random.default_rng(seed)
    V = _FAMILIES[family](rng)
    assert _bitwise_equal(_what_reports_read(PolyhedralGenerators(V)),
                          _what_reports_read(PolyhedralGenerators(_relisted(rng, V))))
    H = _halfspace_form(V)
    assert _bitwise_equal(_what_reports_read(H), _what_reports_read(
        PolyhedralHalfspaces(_relisted(rng, H.normals, combinations=False))))
    # Both forms describe one cone: the same rays, so the same draws, up to rounding.
    assert _same_rays(H.generators(), PolyhedralGenerators(V).generators())


def _reports(cone, seed=1):
    """The catalogue part of a ``verify`` report, serialized as the CLI does."""
    return json.dumps([r.to_json_dict() for r in run_catalogue(moreau_pair(cone), 60, seed)],
                      sort_keys=True, indent=2)


def _verdicts(reports):
    return {r["property"]: r["verdict"] for r in json.loads(reports)}


@pytest.mark.parametrize("family, seed", [
    ("rotated-orthant", 1), ("skew", 2), ("skew", 3), ("polygon", 4), ("polygon", 5),
    ("random", 6), ("random", 7), ("random", 8),
])
def test_relisting_a_cone_keeps_its_verify_report(family, seed):
    rng = np.random.default_rng(seed)
    V = _FAMILIES[family](rng)
    reports = _reports(PolyhedralGenerators(V))
    assert _reports(PolyhedralGenerators(_relisted(rng, V))) == reports
    H = _halfspace_form(V)
    halfspace_reports = _reports(H)
    assert _reports(PolyhedralHalfspaces(_relisted(rng, H.normals, combinations=False))) \
        == halfspace_reports
    assert _verdicts(halfspace_reports) == _verdicts(reports)


def test_orthant_forms_give_equal_verdicts():
    verdicts = [_verdicts(_reports(cone)) for cone in
                (Orthant(3), Simplicial(np.eye(3)), PolyhedralGenerators(np.eye(3)),
                 PolyhedralHalfspaces(np.eye(3)))]
    assert all(v == verdicts[0] for v in verdicts)


@pytest.mark.parametrize("family, seed", [(f, s) for f in sorted(_FAMILIES) for s in range(5)])
def test_a_polar_depends_only_on_the_ray_matrix(family, seed):
    # One rule for both forms: the polar of a cone with ray matrix E is the
    # halfspace cone of -E, whose rays are -E when E is dim orthogonal rays.
    V = _FAMILIES[family](np.random.default_rng(seed))
    for cone in (PolyhedralGenerators(V), _halfspace_form(V)):
        E = cone.generators()
        polar = cone.polar()
        assert polar.normals.shape == E.shape and polar.normals.tobytes() == (-E).tobytes()
        rays = (_canonical_rows(-E) if _orthogonal(E.T) is not None
                else PolyhedralHalfspaces(-E).generators())
        assert _bitwise_equal([polar.generators()], [rays])


@pytest.mark.parametrize("d", [*range(2, 8), 11, 12])
def test_orthogonal_rays_get_the_exact_polar(d):
    # The polar of d orthogonal rays E is the cone of -E: both forms give its
    # rays as -E, bit for bit, with no double description of the polar (which
    # rounds), in every dimension up to the generator cap.
    rng = rng_for(d, "exact-orthogonal-polar")
    for redundant in range(min(4, 13 - d)):  # at most 12 generators
        G = _rotated_orthant(rng, d)
        V = np.vstack([G, rng.uniform(0.2, 1.0, (redundant, d)) @ G])  # strictly interior
        V = np.ldexp(V, rng.integers(-8, 9, (len(V), 1)))
        for cone in (PolyhedralGenerators(V), PolyhedralHalfspaces(V)):
            E = cone.generators()
            assert E.shape == (d, d)
            assert cone.polar().generators().tobytes() == _canonical_rows(-E).tobytes()
    # The Moreau maps are the clamp Q max(Q^T x, 0) and the rest.
    pair, Q = moreau_pair(PolyhedralGenerators(V)), _unit_rows(G).T
    X = gaussian_points(rng, 200, d)
    M = np.maximum(X @ Q, 0.0) @ Q.T
    tol = 1e-14 * np.linalg.norm(X, axis=1, keepdims=True)
    assert (np.abs(pair.m(X) - M) <= tol).all() and (np.abs(pair.n(X) - (X - M)) <= tol).all()


def test_the_polar_of_a_halfspace_cone_does_not_depend_on_its_listing():
    # Square invertible normals, and the same cone with a redundant normal
    # appended: each polar is the halfspace cone of -E, for one ray matrix E,
    # so its membership residual and its projection agree to rounding.
    N = np.linalg.inv(np.eye(3) + 0.3 * np.outer(np.eye(3)[0], np.eye(3)[1]))
    listings = [N, np.vstack([N, N[0] + N[1]]), np.vstack([N, N[0] + N[2]])]
    pairs = [moreau_pair(PolyhedralHalfspaces(L)) for L in listings]
    assert all(isinstance(pair.cone_n, PolyhedralHalfspaces) for pair in pairs)
    X = gaussian_points(rng_for(1, "polar-listing"), 1000, 3)
    residuals = [pair.cone_n.membership_residual(X) for pair in pairs]
    images = [pair.n(X) for pair in pairs]
    for r, y in zip(residuals[1:], images[1:]):
        np.testing.assert_allclose(r, residuals[0], rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(y, images[0], rtol=0.0, atol=1e-14)


def _skew_basis(d, s):
    B = np.eye(d)
    B[0, 1] = s
    return B


@pytest.mark.parametrize("d, s", [(3, 0.3), (6, 2.0), (8, -0.5)])
def test_membership_residual_does_not_depend_on_the_form(d, s):
    # One cone, written four ways: its residual is the largest violation of a
    # unit inward facet normal, and a generator cone's facet normals are its
    # polar's negated rays, so the forms agree to rounding of those normals.
    B = _skew_basis(d, s)
    N = np.linalg.inv(B)
    forms = [PolyhedralGenerators(B.T), PolyhedralGenerators(np.vstack([B.T, B.T.sum(axis=0)])),
             PolyhedralHalfspaces(N),
             PolyhedralHalfspaces(3.0 * N[np.random.default_rng(d).permutation(d)])]
    X = gaussian_points(rng_for(d, "form-residuals"), 1000, d)
    residuals = [cone.membership_residual(X) for cone in forms]
    for r in residuals[1:]:
        np.testing.assert_allclose(r, residuals[0], rtol=0.0, atol=np.finfo(float).eps)
    # A redundant generator leaves the ray matrix, and so the facets.
    assert residuals[1].tobytes() == residuals[0].tobytes()


def test_generator_and_halfspace_golden_reports_agree():
    # verify-generators-moreau and verify-halfspaces-moreau hold one cone in
    # two forms: every number of their reports agrees to 1e-15 relative to
    # max(1, |number|), the scale the residuals are relative to.
    golden = Path(__file__).parent / "golden"

    def numbers(obj):
        if isinstance(obj, dict):
            return [v for key in sorted(obj) for v in numbers(obj[key])]
        if isinstance(obj, list):
            return [v for item in obj for v in numbers(item)]
        return [obj]

    for seed in (1, 2):
        a, b = (numbers(json.loads((golden / f"verify-{form}-moreau-seed{seed}.json")
                                   .read_text())["reports"])
                for form in ("generators", "halfspaces"))
        assert [type(v) for v in a] == [type(v) for v in b]
        for u, v in zip(a, b):
            if isinstance(u, float):
                assert abs(u - v) <= 1e-15 * max(1.0, abs(u)), (seed, u, v)
            else:
                assert u == v


def test_generator_membership_reads_no_face_table(monkeypatch):
    cone = PolyhedralGenerators(_skew_basis(4, 0.3).T)
    moreau_pair(cone)  # builds the rays, the polar and both face tables
    projections = []
    project = FaceTable.project

    def counting_project(self, points):
        projections.append(len(points))
        return project(self, points)

    monkeypatch.setattr(FaceTable, "project", counting_project)
    X = gaussian_points(rng_for(1, "membership-no-table"), 100, 4)
    cone.membership_residual(X)
    cone.membership_residual(X[0])
    assert projections == []


def test_generator_form_builds_a_moreau_pair_above_dimension_ten():
    # Ray enumeration has no dimension cap, so a generator cone of R^11 finds
    # its polar's rays, and its Moreau verdicts are the simplicial form's.
    B = np.eye(11) + 0.3 * np.eye(11, k=1)
    verdicts = [{r.property_id: r.verdict for r in run_catalogue(moreau_pair(cone), 100, 1)}
                for cone in (Simplicial(B), PolyhedralGenerators(B.T))]
    assert verdicts[0] == verdicts[1]


@pytest.mark.parametrize("delta", [1e-1, 1e-6, 1e-10])
def test_a_ray_just_outside_the_orthant_is_kept(delta):
    # (1, 1, -delta) lies outside the orthant, so it is an extreme ray at any
    # delta > 0, even where the polar's rays put it on the facet x_3 = 0.
    cone = PolyhedralGenerators(np.vstack([np.eye(3), [1.0, 1.0, -delta]]))
    assert len(cone.generators()) == 4


@pytest.mark.xfail(strict=True, reason="double description admits candidates within 1e-9 "
                                      "of feasibility, so the polar loses a facet")
def test_polar_rays_of_a_ray_just_outside_the_orthant():
    # The polar has 4 rays, each with inner product <= 0 (up to rounding)
    # with every kept ray.  Today its double description finds 3, each within
    # 2.6e-16 of the polar, and loses the fourth.
    cone = PolyhedralGenerators(np.vstack([np.eye(3), [1.0, 1.0, -1e-10]]))
    rays, polar_rays = cone.generators(), cone.polar().generators()
    assert len(polar_rays) == 4
    assert (polar_rays @ rays.T).max() <= 1e-15


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_nearly_redundant_ray_still_fails_the_catalogue(seed):
    cone = PolyhedralGenerators(np.vstack([np.eye(3), [1.0, 1.0, -1e-6]]))
    verdicts = [r.verdict for r in run_catalogue(moreau_pair(cone), 200, seed)]
    assert "fail" in verdicts


def test_redundant_and_duplicate_generators_are_pruned():
    cone = PolyhedralGenerators(np.vstack([np.eye(3), [[1.0, 1.0, 0.0], [2.0, 0.0, 0.0]]]))
    # Unit rows, in lexicographic order.
    np.testing.assert_array_equal(cone.generators(), np.eye(3)[::-1])


@pytest.mark.parametrize("V, combination", [
    ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [1.0, 1.0, 0.0]),
    ([[1.0, 2.0, -1.0], [0.5, -1.0, 3.0]], [1.5, 1.0, 2.0]),
    ([[1.0, 2.0, 3.0]], [0.75, 1.5, 2.25]),
], ids=["planar-axes", "planar-tilted", "single-ray"])
def test_a_cone_that_spans_less_than_the_space_keeps_its_report(V, combination):
    # Not full-dimensional: the polar has lineality pairs, which are computed
    # from the kept rays too, so an appended combination changes no bit.
    V = np.array(V)
    relisted = np.vstack([V, combination])
    assert len(PolyhedralGenerators(relisted).generators()) == len(V)
    assert _bitwise_equal(_what_reports_read(PolyhedralGenerators(V)),
                          _what_reports_read(PolyhedralGenerators(relisted)))
    assert _reports(PolyhedralGenerators(relisted)) == _reports(PolyhedralGenerators(V))


def _canonical_rows_by_loop(R):
    """The pairwise loop :func:`conelab.cones._canonical_rows` replaces."""
    U = _unit_rows(R) + 0.0
    keep = []
    for i in np.lexsort(np.vstack([U.T[::-1], np.round(U, 9).T[::-1]])):
        if all(np.abs(U[i] - U[j]).max() > _REPRODUCE_RTOL for j in keep):
            keep.append(i)
    return U[keep]


@pytest.mark.parametrize("seed", range(20))
def test_canonical_rows_match_the_pairwise_loop(seed):
    # Near-duplicates on both sides of the threshold, exact duplicates,
    # 2^k-scaled copies and negations, in random order.
    rng = np.random.default_rng(seed)
    d = rng.integers(1, 7)
    R = rng.standard_normal((rng.integers(1, 9), d))
    U = _unit_rows(R)
    near = U[rng.integers(0, len(U), 6)]
    near[:, 0] += rng.choice([0.3, 0.9, 1.1, 3.0], 6) * _REPRODUCE_RTOL
    rows = np.vstack([R, U[:2], np.ldexp(R[:2], 40), -R[:1], near])
    rows = rows[rng.permutation(len(rows))]
    got, ref = _canonical_rows(rows), _canonical_rows_by_loop(rows)
    assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


def test_canonical_rows_drop_a_row_near_an_earlier_kept_one():
    # In lexicographic order b falls between a and c.  b is far from both
    # and is kept; c is within the threshold of a, not of b, and is dropped.
    a, b, c = [0.0, 0.6, 0.8], [0.5e-12, 0.6 + 5e-11, 0.8], [0.9e-12, 0.6, 0.8]
    rows = np.array([c, b, a])
    got = _canonical_rows(rows)
    assert got.tobytes() == _canonical_rows_by_loop(rows).tobytes()
    assert len(got) == 2 and 0.0 < got[1, 0] < 0.7e-12  # a and b


def test_canonical_rows_of_no_rows():
    assert _canonical_rows(np.zeros((0, 3))).shape == (0, 3)
