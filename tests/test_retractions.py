import numpy as np
import pytest

from conelab import (FaceTable, Lorentz, Orthant, PolyhedralGenerators, PolyhedralHalfspaces,
                     Simplicial, contains, is_generating, lattice_pair,
                     minkowski_pair, moreau_pair, pair_from_json, project_cone,
                     sample_simplicial)
from conelab.sampling import gaussian_points, rng_for

SIMP = Simplicial(np.array([[1.0, 1.0], [0.0, 1.0]]))


def _pair_axioms_hold(pair, n=1000, seed=0, eps=1e-8):
    rng = rng_for(seed, "pair-axioms")
    X = gaussian_points(rng, n, pair.dim)
    s = 1.0 + np.linalg.norm(X, axis=1)
    M, N = pair.m(X), pair.n(X)
    assert np.all(np.linalg.norm(M + N - X, axis=1) <= eps * s)
    assert np.all(np.linalg.norm(pair.m(N), axis=1) <= eps * s)
    assert np.all(np.linalg.norm(pair.n(M), axis=1) <= eps * s)
    assert np.all(pair.cone_m.membership_residual(M) <= eps)
    assert np.all(pair.cone_n.membership_residual(N) <= eps)
    assert np.all(np.linalg.norm(pair.m(M) - M, axis=1) <= eps * s)
    assert np.all(np.linalg.norm(pair.n(N) - N, axis=1) <= eps * s)


def test_lattice_orthant_clamp():
    pair = lattice_pair(Orthant(2))
    np.testing.assert_allclose(pair.m([1.0, -2.0]), [1.0, 0.0])
    np.testing.assert_allclose(pair.n([1.0, -2.0]), [0.0, -2.0])


def test_lattice_simplicial_coordinates():
    pair = lattice_pair(SIMP)
    np.testing.assert_allclose(pair.m([0.0, 1.0]), [1.0, 1.0])
    np.testing.assert_allclose(pair.n([0.0, 1.0]), [-1.0, 0.0])
    assert contains(pair.cone_n, pair.n([0.0, 1.0]))


def test_lattice_fixes_members():
    pair = lattice_pair(SIMP)
    rng = rng_for(1, "members")
    coeffs = np.abs(rng.standard_normal((100, 2)))
    members = coeffs @ SIMP.basis.T
    np.testing.assert_allclose(pair.m(members), members, atol=1e-12)
    assert np.all(np.linalg.norm(pair.n(members), axis=1) <= 1e-12)


def test_lattice_requires_simplicial():
    with pytest.raises(ValueError):
        lattice_pair(Lorentz(3))


def test_project_cone_examples():
    np.testing.assert_allclose(project_cone(Orthant(3), [-1.0, 2.0, -3.0]), [0.0, 2.0, 0.0])
    np.testing.assert_allclose(project_cone(SIMP, [0.0, 1.0]), [0.5, 0.5])
    np.testing.assert_allclose(project_cone(Lorentz(3), [3.0, 4.0, -10.0]), [0.0, 0.0, 0.0])
    np.testing.assert_allclose(project_cone(Lorentz(3), [1.0, 0.0, 0.0]), [0.5, 0.0, 0.5])


def test_project_cone_kkt():
    rng = rng_for(2, "kkt")
    for cone in (Orthant(3), SIMP, Lorentz(4), sample_simplicial(5, 21)):
        X = gaussian_points(rng, 200, cone.dim)
        P = project_cone(cone, X)
        from conelab import polar
        pol = polar(cone)
        s = 1.0 + np.linalg.norm(X, axis=1)
        assert np.all(cone.membership_residual(P) <= 1e-9)
        assert np.all(pol.membership_residual(X - P) <= 1e-9)
        assert np.all(np.abs(np.einsum("ij,ij->i", X - P, P)) <= 1e-9 * (1.0 + s**2))


def test_moreau_orthant_decomposition():
    pair = moreau_pair(Orthant(2))
    np.testing.assert_allclose(pair.m([1.0, -2.0]), [1.0, 0.0])
    np.testing.assert_allclose(pair.n([1.0, -2.0]), [0.0, -2.0])
    assert abs(pair.m([1.0, -2.0]) @ pair.n([1.0, -2.0])) <= 1e-14


def test_moreau_lorentz_point_in_polar():
    pair = moreau_pair(Lorentz(3))
    np.testing.assert_allclose(pair.m([0.0, 0.0, -1.0]), [0.0, 0.0, 0.0])
    np.testing.assert_allclose(pair.n([0.0, 0.0, -1.0]), [0.0, 0.0, -1.0])


def test_moreau_orthogonality_and_norms():
    rng = rng_for(3, "pythagoras")
    for cone in (Orthant(4), Lorentz(3), SIMP):
        pair = moreau_pair(cone)
        X = gaussian_points(rng, 500, cone.dim)
        M, N = pair.m(X), pair.n(X)
        inner = np.abs(np.einsum("ij,ij->i", M, N))
        norms = np.abs(np.einsum("ij,ij->i", X, X)
                       - np.einsum("ij,ij->i", M, M) - np.einsum("ij,ij->i", N, N))
        scale = 1.0 + np.einsum("ij,ij->i", X, X)
        assert np.all(inner <= 1e-9 * scale)
        assert np.all(norms <= 1e-9 * scale)


def test_pair_axioms_all_families():
    _pair_axioms_hold(lattice_pair(Orthant(3)))
    _pair_axioms_hold(lattice_pair(sample_simplicial(4, 8)))
    _pair_axioms_hold(moreau_pair(Orthant(3)))
    _pair_axioms_hold(moreau_pair(Lorentz(4)))
    _pair_axioms_hold(moreau_pair(sample_simplicial(3, 9)))
    _pair_axioms_hold(minkowski_pair(Orthant(3), [1.0, 1.0, 1.0]))


def test_moreau_polyhedral_forms():
    gens = PolyhedralGenerators([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    _pair_axioms_hold(moreau_pair(gens), n=300)
    hs = PolyhedralHalfspaces([[1.0, 0.0], [0.0, 1.0]])
    _pair_axioms_hold(moreau_pair(hs), n=300)


def test_moreau_generator_cone_builds_one_face_table(monkeypatch):
    built = []
    init = FaceTable.__init__

    def counting_init(self, generators):
        built.append(np.array(generators, dtype=float))
        init(self, generators)

    monkeypatch.setattr(FaceTable, "__init__", counting_init)
    cone = PolyhedralGenerators(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                          [0.0, 0.0, 1.0], [1.0, 1.0, 1.0]]))
    pair = moreau_pair(cone)
    X = gaussian_points(rng_for(0, "face-table"), 20, 3)
    pair.m(X)
    pair.cone_m.membership_residual(X)
    assert sum(np.array_equal(G, cone.vectors) for G in built) == 1


def test_minkowski_examples():
    pair = minkowski_pair(Orthant(2), [1.0, 1.0])
    np.testing.assert_allclose(pair.m([3.0, -1.0]), [3.0, 3.0])
    np.testing.assert_allclose(pair.n([3.0, -1.0]), [0.0, -4.0])
    assert pair.phi(pair.n([3.0, -1.0])) == pytest.approx(0.0, abs=1e-14)
    np.testing.assert_allclose(pair.m([1.0, 1.0]), [1.0, 1.0])
    np.testing.assert_allclose(pair.n([1.0, 1.0]), [0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(pair.m([0.0, 0.0]), [0.0, 0.0])


def test_minkowski_phi_homogeneous_subadditive():
    pair = minkowski_pair(Orthant(3), [1.0, 2.0, 1.0])
    rng = rng_for(4, "phi")
    X = gaussian_points(rng, 400, 3)
    Y = gaussian_points(rng, 400, 3)
    lam = np.abs(rng.standard_normal(400))
    phix, phiy = pair.phi(X), pair.phi(Y)
    assert np.all(pair.phi(X + Y) <= phix + phiy + 1e-12)
    assert np.all(np.abs(pair.phi(lam[:, None] * X) - lam * phix) <= 1e-12 * (1 + np.abs(phix)))
    assert not is_generating(pair.cone_m)


def test_minkowski_interior_required():
    with pytest.raises(ValueError):
        minkowski_pair(Orthant(2), [1.0, 0.0])
    with pytest.raises(ValueError):
        minkowski_pair(Orthant(2), [1.0, -1.0])
    with pytest.raises(ValueError):
        minkowski_pair(Lorentz(3), [0.0, 0.0, 1.0])  # no halfspace form


def test_pair_descriptor_round_trip():
    for pair in (lattice_pair(SIMP), moreau_pair(Lorentz(3)),
                 minkowski_pair(Orthant(3), [1.0, 1.0, 1.0])):
        back = pair_from_json(pair.descriptor())
        assert back.family == pair.family
        rng = rng_for(6, "descriptor")
        X = gaussian_points(rng, 50, pair.dim)
        np.testing.assert_allclose(back.m(X), pair.m(X))
        np.testing.assert_allclose(back.n(X), pair.n(X))


def test_pair_from_json_validation():
    with pytest.raises(ValueError):
        pair_from_json({"family": "lattice"})
    with pytest.raises(ValueError):
        pair_from_json({"family": "cubist", "cone": {"type": "orthant", "dim": 2}})
    with pytest.raises(ValueError):
        pair_from_json({"family": "lattice", "cone": {"type": "orthant", "dim": 2},
                        "interior_point": [1, 1]})
    with pytest.raises(ValueError):
        pair_from_json({"family": "minkowski", "cone": {"type": "orthant", "dim": 2}})
