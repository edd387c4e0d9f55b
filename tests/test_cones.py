import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conelab import (DEFAULT_TOL, Lorentz, Orthant, PolyhedralGenerators,
                     PolyhedralHalfspaces, Simplicial, ToleranceConfig,
                     closed_form_sup, cone_from_json, cone_to_json, contains,
                     generators_of, is_generating, is_pointed, lattice_pair, leq,
                     moreau_pair, negate, polar, project_cone, sample_simplicial,
                     to_halfspaces)
from conelab.sampling import cone_members, gaussian_points, rng_for

SIMP = Simplicial(np.array([[1.0, 1.0], [0.0, 1.0]]))  # columns (1,0), (1,1)


def test_orthant_contains():
    assert contains(Orthant(2), [1.0, 2.0])
    assert not contains(Orthant(2), [1.0, -1.0])
    assert contains(Orthant(3), [0.0, 0.0, 0.0])


def test_simplicial_contains_via_coordinates():
    # coordinates of (2,1) are (1,1) >= 0
    assert contains(SIMP, [2.0, 1.0])
    assert not contains(SIMP, [0.0, 1.0])
    np.testing.assert_allclose(SIMP.coordinates([2.0, 1.0]), [1.0, 1.0])


def test_lorentz_boundary_membership():
    assert contains(Lorentz(3), [3.0, 4.0, 5.0])  # |(3,4)| = 5 = t
    assert not contains(Lorentz(3), [3.0, 4.0, 4.99])
    assert contains(Lorentz(3, negated=True), [-3.0, -4.0, -5.0])


def test_leq_examples():
    assert leq(Orthant(2), [0.0, 0.0], [1.0, 1.0])
    assert not leq(Orthant(2), [1.0, 0.0], [0.0, 1.0])  # incomparable
    assert not leq(Orthant(2), [0.0, 1.0], [1.0, 0.0])
    assert not leq(SIMP, [0.0, 0.0], [0.0, 1.0])


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        contains(Orthant(2), [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        leq(Orthant(2), [1.0], [0.0, 1.0])


def test_nan_rejected():
    with pytest.raises(ValueError):
        contains(Orthant(2), [np.nan, 0.0])


def test_singular_basis_rejected():
    with pytest.raises(ValueError):
        Simplicial(np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_empty_and_zero_generators_rejected():
    with pytest.raises(ValueError):
        PolyhedralGenerators(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        PolyhedralGenerators([[0.0, 0.0]])
    with pytest.raises(ValueError):
        PolyhedralHalfspaces([[0.0, 0.0]])


def test_polar_orthant_is_sign_flip():
    P = polar(Orthant(2))
    assert contains(P, [-1.0, 0.0]) and contains(P, [0.0, -2.0])
    assert not contains(P, [1.0, 0.0])


def test_polar_simplicial_closed_form():
    P = polar(SIMP)
    # each polar generator has nonpositive inner product with each generator
    gens = SIMP.basis.T
    for g in P.basis.T:
        assert np.all(gens @ g <= 1e-12)
    # bipolar: membership agrees with the original on sampled points
    rng = rng_for(0, "bipolar")
    X = gaussian_points(rng, 1000, 2)
    PP = polar(P)
    r1 = SIMP.membership_residual(X)
    r2 = PP.membership_residual(X)
    assert np.all((r1 <= 1e-9) == (r2 <= 1e-9))


def test_polar_lorentz_sampled_pairing():
    K = Lorentz(3)
    P = polar(K)
    assert isinstance(P, Lorentz) and P.negated
    rng = rng_for(1, "lorentz-polar")
    members = cone_members(K, rng, 500)
    polars = cone_members(P, rng, 500)
    assert np.max(np.einsum("ij,ij->i", members, polars)) <= 1e-12


def test_polar_generators_and_halfspaces():
    G = PolyhedralGenerators([[1.0, 0.0], [1.0, 1.0]])
    P = polar(G)
    assert isinstance(P, PolyhedralHalfspaces)
    assert contains(P, [0.0, -1.0])
    assert not contains(P, [1.0, 0.5])
    # square invertible halfspaces use the sign-flip closed form
    H = PolyhedralHalfspaces(np.eye(2))
    PH = polar(H)
    assert isinstance(PH, PolyhedralGenerators)
    assert contains(PH, [-2.0, -3.0])
    # non-square halfspaces route through ray enumeration
    H2 = PolyhedralHalfspaces([[1.0, 0.0]])
    PH2 = polar(H2)
    assert contains(PH2, [-1.0, 0.0])
    assert not contains(PH2, [-1.0, 0.5])
    assert not contains(PH2, [1.0, 0.0])


def test_bipolar_membership_agreement_many_cones():
    rng = rng_for(3, "bipolar-many")
    for cone in (Orthant(3), Lorentz(4), sample_simplicial(3, 5),
                 PolyhedralGenerators([[1.0, 0.0, 0.2], [0.0, 1.0, 0.1], [0.3, 0.3, 1.0]])):
        X = gaussian_points(rng, 300, cone.dim)
        PP = polar(polar(cone))
        r1 = cone.membership_residual(X) <= 1e-9
        r2 = PP.membership_residual(X) <= 1e-9
        boundary = np.abs(cone.membership_residual(X)) <= 1e-7
        assert np.all((r1 == r2) | boundary)


def test_is_generating():
    assert is_generating(Orthant(4))
    assert is_generating(sample_simplicial(5, 9))
    assert is_generating(Lorentz(3))
    assert not is_generating(PolyhedralGenerators([[1.0, 2.0]]))
    assert is_generating(PolyhedralGenerators([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]))
    assert not is_generating(PolyhedralHalfspaces([[1.0, 0.0], [-1.0, 0.0]]))


def test_is_pointed():
    assert is_pointed(Orthant(3))
    assert is_pointed(Lorentz(3))
    assert not is_pointed(PolyhedralHalfspaces([[1.0, 0.0]]))  # contains the x2 axis
    assert is_pointed(PolyhedralHalfspaces(np.eye(2)))
    assert not is_pointed(PolyhedralGenerators([[1.0, 0.0], [-1.0, 0.0]]))
    assert is_pointed(PolyhedralGenerators([[1.0, 0.0], [1.0, 1.0]]))


def test_negate():
    N = negate(SIMP)
    assert contains(N, [-2.0, -1.0])
    assert not contains(N, [2.0, 1.0])
    NL = negate(Lorentz(3))
    assert contains(NL, [0.0, 0.0, -1.0])


def test_sample_simplicial_determinism_and_cond():
    a = sample_simplicial(2, 42)
    b = sample_simplicial(2, 42)
    assert np.array_equal(a.basis, b.basis)
    c = sample_simplicial(6, 7, cond_cap=100.0)
    sv = np.linalg.svd(c.basis, compute_uv=False)
    assert sv[0] / sv[-1] <= 100.0
    d = sample_simplicial(1, 3)
    assert d.basis.shape == (1, 1) and d.basis[0, 0] != 0.0
    with pytest.raises(ValueError):
        sample_simplicial(0, 1)
    with pytest.raises(ValueError):
        sample_simplicial(2, 1, cond_cap=1.0)


def test_cone_json_round_trip():
    for cone in (Orthant(3), SIMP, Lorentz(4), Lorentz(3, negated=True),
                 PolyhedralGenerators([[1.0, 2.0], [0.5, -0.5]]),
                 PolyhedralHalfspaces([[1.0, 0.0], [0.0, 1.0]])):
        back = cone_from_json(cone_to_json(cone))
        assert type(back) is type(cone)
        rng = rng_for(11, "roundtrip")
        X = gaussian_points(rng, 100, cone.dim)
        np.testing.assert_allclose(back.membership_residual(X),
                                   cone.membership_residual(X))


def test_cone_json_rejects_unknown():
    with pytest.raises(ValueError):
        cone_from_json({"type": "orthant", "dim": 2, "spin": 1})
    with pytest.raises(ValueError):
        cone_from_json({"type": "moebius", "dim": 2})
    with pytest.raises(ValueError):
        cone_from_json([1, 2, 3])


@pytest.mark.parametrize("kind", ["orthant", "lorentz"])
@pytest.mark.parametrize("dim", [None, 3.7, 3.0, "3", True])
def test_cone_json_rejects_non_integer_dim(kind, dim):
    with pytest.raises(ValueError, match="cone dim must be an integer"):
        cone_from_json({"type": kind, "dim": dim})


@pytest.mark.parametrize("negated", ["no", 0, 1, None])
def test_cone_json_rejects_non_boolean_negated(negated):
    with pytest.raises(ValueError, match="lorentz negated must be true or false"):
        cone_from_json({"type": "lorentz", "dim": 3, "negated": negated})
    assert not cone_from_json({"type": "lorentz", "dim": 3, "negated": False}).negated


def test_dimension_caps():
    with pytest.raises(ValueError):
        Orthant(17)
    with pytest.raises(ValueError, match="orthant dimension"):  # checked before np.eye
        Orthant(10**9)
    with pytest.raises(ValueError):
        Simplicial(np.eye(17))
    with pytest.raises(ValueError):
        polar(PolyhedralHalfspaces(np.random.default_rng(0).standard_normal((3, 11))))


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("d", range(1, 17))
def test_orthant_is_identity_basis_simplicial(d):
    orth, simp = Orthant(d), Simplicial(np.eye(d))
    assert isinstance(orth, Simplicial) and "membership_residual" in Orthant.__dict__
    rng = rng_for(d, "orthant-identity")
    X = gaussian_points(rng, 64, d)
    Y = gaussian_points(rng, 64, d)
    _same_bits(cone_members(orth, rng_for(d, "members"), 64),
               cone_members(simp, rng_for(d, "members"), 64))
    _same_bits(project_cone(orth, X), project_cone(simp, X))
    _same_bits(polar(orth).basis, polar(simp).basis)
    _same_bits(negate(orth).basis, negate(simp).basis)
    _same_bits(to_halfspaces(orth).normals, to_halfspaces(simp).normals)
    _same_bits(generators_of(orth), generators_of(simp))
    _same_bits(closed_form_sup(orth, X[0], Y[0]), closed_form_sup(simp, X[0], Y[0]))
    _same_bits(orth.membership_residual(X), simp.membership_residual(X))
    for make in (lattice_pair, moreau_pair):
        a, b = make(orth), make(simp)
        _same_bits(a.m(X), b.m(X))
        _same_bits(a.n(X), b.n(X))
    # The identity basis reproduces the orthant's own closed forms exactly.
    _same_bits(project_cone(orth, X), np.clip(X, 0.0, None))
    _same_bits(closed_form_sup(orth, X[0], Y[0]), np.maximum(X[0], Y[0]))
    _same_bits(polar(orth).basis, -np.eye(d))
    _same_bits(generators_of(orth), np.eye(d))
    assert cone_to_json(orth) == {"type": "orthant", "dim": d}


def test_tolerance_config_validation():
    with pytest.raises(ValueError):
        ToleranceConfig(eps_membership=0.0)
    with pytest.raises(ValueError):
        ToleranceConfig(eps_converge=1e-16)
    t = ToleranceConfig(eps_membership=1e-6)
    assert t.to_json_dict()["membership"] == 1e-6


@settings(max_examples=50, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000), lam=st.sampled_from([0.0, 0.5, 2.0]))
def test_cone_axioms_on_members(seed, lam):
    rng = rng_for(seed, "axioms")
    for cone in (Orthant(3), SIMP, Lorentz(3)):
        x = cone_members(cone, rng, 1)[0]
        y = cone_members(cone, rng, 1)[0]
        assert contains(cone, x + y)
        assert contains(cone, lam * x)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000))
def test_leq_translation_and_scale_invariance(seed):
    rng = rng_for(seed, "order")
    cone = SIMP
    x = gaussian_points(rng, 1, 2)[0]
    k = cone_members(cone, rng, 1)[0]
    y = x + k
    z = gaussian_points(rng, 1, 2)[0]
    assert leq(cone, x, y)
    assert leq(cone, x + z, y + z)
    assert leq(cone, 2.0 * x, 2.0 * y)
    # reflexivity and transitivity
    assert leq(cone, x, x)
    w = y + cone_members(cone, rng, 1)[0]
    assert leq(cone, x, w)


def test_leq_antisymmetry_at_tolerance():
    rng = rng_for(5, "antisym")
    x = gaussian_points(rng, 50, 2)
    y = gaussian_points(rng, 50, 2)
    for a, b in zip(x, y):
        if leq(SIMP, a, b) and leq(SIMP, b, a):
            assert np.linalg.norm(a - b) <= 1e-7 * (1.0 + np.linalg.norm(a))
