import numpy as np
import pytest

from conelab import (Lorentz, Orthant, brute_force_project, conic_feasibility,
                     double_description, lorentz_reference_project, project_cone)
from conelab.oracle import FaceTable
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


def test_double_description_orthant():
    rays = double_description(np.eye(2))
    rays = sorted(tuple(np.round(r, 9)) for r in rays)
    assert rays == [(0.0, 1.0), (1.0, 0.0)]


def test_double_description_wedge():
    rays = double_description(np.array([[1.0, 0.0], [-1.0, 1.0]]))
    assert len(rays) == 2
    normals = np.array([[1.0, 0.0], [-1.0, 1.0]])
    for r in rays:
        assert np.all(normals @ r >= -1e-9)
    # the two rays are (0,1) and (1,1)/sqrt(2)
    found = sorted(tuple(np.round(np.abs(r) / max(np.abs(r)), 6)) for r in rays)
    assert found == [(0.0, 1.0), (1.0, 1.0)]


def test_double_description_lineality():
    out = double_description(np.array([[1.0, 0.0]]))
    # one extreme ray plus an explicit +/- line pair
    assert len(out) == 3
    rounded = {tuple(np.round(r, 9)) for r in out}
    assert (1.0, 0.0) in rounded
    assert (0.0, 1.0) in rounded and (0.0, -1.0) in rounded


def test_double_description_caps():
    with pytest.raises(ValueError):
        double_description(np.ones((3, 11)))
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
