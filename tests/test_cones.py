import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conelab import (ConeSpec, Lorentz, Orthant, PolyhedralGenerators, PolyhedralHalfspaces,
                     Simplicial, ToleranceConfig, closed_form_sup, cone_from_json, contains,
                     lattice_pair, leq, moreau_pair, oracle, project_cone, run_catalogue,
                     sample_simplicial)
from conelab.cones import MAX_DENSE_DIM, _FOLD_ROWS, _relative, _row_max, _row_min, _row_norm
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


def test_leq_takes_a_batch():
    X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    Y = np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 1.0]])
    assert leq(Orthant(2), X, Y).tolist() == [leq(Orthant(2), x, y) for x, y in zip(X, Y)]
    assert leq(Orthant(2), X, Y).tolist() == [True, False, True]
    with pytest.raises(ValueError, match="shape mismatch"):
        leq(Orthant(2), X[0], Y)


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
    P = Orthant(2).polar()
    assert contains(P, [-1.0, 0.0]) and contains(P, [0.0, -2.0])
    assert not contains(P, [1.0, 0.0])


def test_polar_simplicial_closed_form():
    P = SIMP.polar()
    # each polar generator has nonpositive inner product with each generator
    gens = SIMP.basis.T
    for g in P.basis.T:
        assert np.all(gens @ g <= 1e-12)
    # bipolar: membership agrees with the original on sampled points
    rng = rng_for(0, "bipolar")
    X = gaussian_points(rng, 1000, 2)
    PP = P.polar()
    r1 = SIMP.membership_residual(X)
    r2 = PP.membership_residual(X)
    assert np.all((r1 <= 1e-9) == (r2 <= 1e-9))


def test_polar_lorentz_sampled_pairing():
    K = Lorentz(3)
    P = K.polar()
    assert isinstance(P, Lorentz) and P.negated
    rng = rng_for(1, "lorentz-polar")
    members = cone_members(K, rng, 500)
    polars = cone_members(P, rng, 500)
    assert np.max(np.einsum("ij,ij->i", members, polars)) <= 1e-12


def test_polar_generators_and_halfspaces():
    G = PolyhedralGenerators([[1.0, 0.0], [1.0, 1.0]])
    P = G.polar()
    assert isinstance(P, PolyhedralHalfspaces)
    assert contains(P, [0.0, -1.0])
    assert not contains(P, [1.0, 0.5])
    # halfspaces have the halfspace polar of their negated rays, square or not
    H = PolyhedralHalfspaces(np.eye(2))
    PH = H.polar()
    assert isinstance(PH, PolyhedralHalfspaces)
    assert contains(PH, [-2.0, -3.0])
    H2 = PolyhedralHalfspaces([[1.0, 0.0]])
    PH2 = H2.polar()
    assert contains(PH2, [-1.0, 0.0])
    assert not contains(PH2, [-1.0, 0.5])
    assert not contains(PH2, [1.0, 0.0])


@pytest.mark.parametrize("vectors", [
    [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]],
    [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [-1.0, 0.0, 1.0], [0.0, -1.0, 1.0]],
    [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]],
    [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
    [[1.0, 0.2, 0.0, 0.3], [0.1, 1.0, 0.4, 0.0], [0.0, 0.5, 1.0, 0.2],
     [0.3, 0.0, 0.2, 1.0], [1.0, 1.0, 1.0, 0.1]],
], ids=["orthant-redundant", "pyramid", "half-plane", "flat", "five-rays"])
def test_generator_cone_halfspaces_agree_with_membership(vectors):
    # A generator cone's halfspace form is its facet matrix, lineality pairs
    # included, so it holds the points the cone holds: of 1,000 Gaussian
    # points, and of 100 members, which a flat cone needs to hold any.
    cone = PolyhedralGenerators(vectors)
    rng = rng_for(0, "generator-halfspaces")
    X = np.vstack([gaussian_points(rng, 1000, cone.dim), cone.members(rng, 100)])
    hs = cone.halfspaces()
    assert isinstance(hs, PolyhedralHalfspaces)
    inside = contains(cone, X)
    assert inside[-100:].all() and not inside[:1000].all()
    assert np.array_equal(contains(hs, X), inside)


def test_bipolar_membership_agreement_many_cones():
    rng = rng_for(3, "bipolar-many")
    for cone in (Orthant(3), Lorentz(4), sample_simplicial(3, 5),
                 PolyhedralGenerators([[1.0, 0.0, 0.2], [0.0, 1.0, 0.1], [0.3, 0.3, 1.0]])):
        X = gaussian_points(rng, 300, cone.dim)
        PP = cone.polar().polar()
        r1 = cone.membership_residual(X) <= 1e-9
        r2 = PP.membership_residual(X) <= 1e-9
        boundary = np.abs(cone.membership_residual(X)) <= 1e-7
        assert np.all((r1 == r2) | boundary)


def test_is_generating():
    assert Orthant(4).is_generating()
    assert sample_simplicial(5, 9).is_generating()
    assert Lorentz(3).is_generating()
    assert not PolyhedralGenerators([[1.0, 2.0]]).is_generating()
    assert PolyhedralGenerators([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]).is_generating()
    assert not PolyhedralHalfspaces([[1.0, 0.0], [-1.0, 0.0]]).is_generating()
    assert not PolyhedralHalfspaces([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0],
                                     [0.0, -1.0]]).is_generating()  # the cone {0}


def test_is_pointed():
    assert Orthant(3).is_pointed()
    assert Lorentz(3).is_pointed()
    assert not PolyhedralHalfspaces([[1.0, 0.0]]).is_pointed()  # contains the x2 axis
    assert PolyhedralHalfspaces(np.eye(2)).is_pointed()
    assert not PolyhedralGenerators([[1.0, 0.0], [-1.0, 0.0]]).is_pointed()
    assert PolyhedralGenerators([[1.0, 0.0], [1.0, 1.0]]).is_pointed()


def test_the_cone_zero_and_the_whole_space_keep_their_residuals():
    X = gaussian_points(rng_for(1, "zero-and-whole"), 100, 2)
    # {0}: the normals +-e1, +-e2 are unit, so the residual is max |x_i| / (1 + |x|).
    origin = PolyhedralHalfspaces([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    expected = np.abs(X).max(axis=1) / (1.0 + np.linalg.norm(X, axis=1))
    assert origin.membership_residual(X).tobytes() == expected.tobytes()
    assert origin.is_pointed()
    # R^2: its polar is {0}, so its one facet row is zero and every residual +0.0.
    plane = PolyhedralGenerators([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    for r in (plane.membership_residual(X), np.array([plane.membership_residual(X[0])])):
        assert (r == 0.0).all() and not np.signbit(r).any()
    assert not plane.is_pointed()


def test_polar_is_built_once(monkeypatch):
    # One double description finds the rays of the listed generators' polar,
    # one those of the polar of the ray matrix; a second call reuses it.
    dd, calls = oracle.double_description, []

    def counting_dd(normals):
        calls.append(1)
        return dd(normals)

    monkeypatch.setattr(oracle, "double_description", counting_dd)
    cone = PolyhedralGenerators(np.eye(3) + 0.3 * np.outer(np.eye(3)[0], np.eye(3)[1]))
    first, second = cone.polar(), cone.polar()
    assert first is second
    first.generators()
    second.generators()
    assert len(calls) == 2


def test_halfspace_membership_normalizes_its_normals_once(monkeypatch):
    cone = PolyhedralHalfspaces(np.vstack([np.diag([1.0, 2.0, 3.0]), [1.0, 1.0, 0.0]]))
    x = np.array([1.0, -2.0, 3.0])
    first = cone.membership_residual(x)
    unit_rows, calls = oracle._unit_rows, []

    def counting_unit_rows(B):
        calls.append(1)
        return unit_rows(B)

    monkeypatch.setattr(oracle, "_unit_rows", counting_unit_rows)
    assert cone.membership_residual(x) == first
    assert calls == []


def test_negate():
    N = SIMP.negative()
    assert contains(N, [-2.0, -1.0])
    assert not contains(N, [2.0, 1.0])
    NL = Lorentz(3).negative()
    assert contains(NL, [0.0, 0.0, -1.0])


@pytest.mark.parametrize("d,s", [(3, 0.3), (6, 2.0), (8, -0.5)])
def test_negative_of_polyhedral_cones(d, s):
    # -K holds -x exactly where K holds x, with the same residual: bit for
    # bit for the halfspace form, whose normals are negated; to rounding for
    # the generator form, whose facets come from their own double description.
    B = np.eye(d) + s * np.outer(np.eye(d)[0], np.eye(d)[1])
    X = gaussian_points(rng_for(d, "negative"), 1000, d)
    for cone in (PolyhedralGenerators(B.T), PolyhedralHalfspaces(B)):
        neg = cone.negative()
        assert type(neg) is type(cone)
        np.testing.assert_allclose(neg.membership_residual(-X), cone.membership_residual(X),
                                   rtol=0.0, atol=4.4e-16)
        back = cone_from_json(neg.to_json())
        assert type(back) is type(cone) and back.to_json() == neg.to_json()
    halfspaces = PolyhedralHalfspaces(B)
    _same_bits(halfspaces.negative().membership_residual(-X), halfspaces.membership_residual(X))


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
    with pytest.raises(ValueError, match="failed to sample"):
        sample_simplicial(3, 0, cond_cap=1.000001)
    with pytest.raises(ValueError):
        sample_simplicial(2, 1, cond_cap=1.0)


def test_cone_json_round_trip():
    for cone in (Orthant(3), SIMP, Lorentz(4), Lorentz(3, negated=True),
                 PolyhedralGenerators([[1.0, 2.0], [0.5, -0.5]]),
                 PolyhedralHalfspaces([[1.0, 0.0], [0.0, 1.0]])):
        back = cone_from_json(cone.to_json())
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
    # One cap for every cone: the cone classes read the oracles' value.
    assert MAX_DENSE_DIM == oracle.MAX_DIM == 16
    with pytest.raises(ValueError):
        Orthant(17)
    with pytest.raises(ValueError, match="orthant dimension"):  # checked before np.eye
        Orthant(10**9)
    with pytest.raises(ValueError):
        Simplicial(np.eye(17))
    with pytest.raises(ValueError):
        PolyhedralHalfspaces(np.random.default_rng(0).standard_normal((3, 11))).polar()


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
    _same_bits(orth.polar().basis, simp.polar().basis)
    _same_bits(orth.negative().basis, simp.negative().basis)
    _same_bits(orth.halfspaces().normals, simp.halfspaces().normals)
    _same_bits(orth.generators(), simp.generators())
    _same_bits(closed_form_sup(orth, X[0], Y[0]), closed_form_sup(simp, X[0], Y[0]))
    _same_bits(orth.membership_residual(X), simp.membership_residual(X))
    for make in (lattice_pair, moreau_pair):
        a, b = make(orth), make(simp)
        _same_bits(a.m(X), b.m(X))
        _same_bits(a.n(X), b.n(X))
    # The identity basis reproduces the orthant's own closed forms exactly.
    _same_bits(project_cone(orth, X), np.clip(X, 0.0, None))
    _same_bits(closed_form_sup(orth, X[0], Y[0]), np.maximum(X[0], Y[0]))
    _same_bits(orth.polar().basis, -np.eye(d))
    _same_bits(orth.generators(), np.eye(d))
    assert orth.to_json() == {"type": "orthant", "dim": d}


@pytest.mark.parametrize("d", [1, 4, 16])
def test_orthant_residual_has_the_simplicial_bits_sign_included(d):
    # Both forms read the shared facet residual, so a point on the boundary,
    # whose smallest coordinate is +0.0 or -0.0, gets +0.0 from either.
    orth, simp = Orthant(d), Simplicial(np.eye(d))
    boundary = np.array([[0.0] * (d - 1) + [1.0], [1.0] * (d - 1) + [0.0],
                         [-0.0] * d, [0.0] * d, [1.0] * (d - 1) + [-0.0]])
    X = np.vstack([gaussian_points(rng_for(d, "orthant-sign"), 1000, d), boundary])
    for batch in (X, X[:63], boundary):
        _same_bits(orth.membership_residual(batch), simp.membership_residual(batch))
    for x in boundary:
        r = orth.membership_residual(x)
        assert r == simp.membership_residual(x) == 0.0 and not np.signbit(r)


_FOLD_ENTRIES = np.array([0.0, -0.0, 1.0, -1.0, 1e300, -1e300, 5e-324, -5e-324])


@pytest.mark.parametrize("rows", [0, 1, 7, _FOLD_ROWS - 1, _FOLD_ROWS, 1000])
def test_row_folds_match_numpy_reductions(rows):
    # Batches of _FOLD_ROWS or more rows are folded over the columns.  That
    # returns the entry numpy's reductions return, bit for bit, except the
    # sign of a zero: where a row's extreme is a tie of 0.0 and -0.0, numpy's
    # vectorized reduction may pick either (it does from 9 columns on
    # AVX-512).  A residual's zero sign reaches no report, which compares
    # residuals with thresholds and prints only failing ones.
    rng = rng_for(rows, "row-folds")
    for cols in range(1, 17):
        C = _FOLD_ENTRIES[rng.integers(0, len(_FOLD_ENTRIES), (rows, cols))]
        _same_bits(_row_min(C) + 0.0, C.min(axis=1) + 0.0)  # + 0.0 maps -0.0 to 0.0
        _same_bits(_row_max(C) + 0.0, C.max(axis=1) + 0.0)


_NORM_ENTRIES = np.array([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0,
                          1e300, -1e300, 1e-300, -1e-300])


@pytest.mark.parametrize("rows", [0, 1, _FOLD_ROWS - 1, _FOLD_ROWS, 1000])
def test_row_norm_matches_numpy(rows):
    # Batches of _FOLD_ROWS or more rows of fewer than 8 columns fold their
    # squares over the columns, which adds each row left to right as numpy's
    # pairwise sum does below 8 terms; from 8 columns numpy sums in lanes,
    # which the Gaussian entries (whose sums round) tell apart.
    rng = rng_for(rows, "row-norm")
    for cols in range(1, 17):
        shape = (rows, cols + 1)
        special = _NORM_ENTRIES[rng.integers(0, len(_NORM_ENTRIES), shape)]
        gauss = rng.standard_normal(shape) * np.exp2(rng.integers(-30, 31, (rows, 1)))
        for C in (special, gauss, np.where(rng.random(shape) < 0.3, special, gauss)):
            for X in (np.ascontiguousarray(C[:, :-1]), C[:, :-1], C[:, 1:],
                      np.stack([C[:, :-1], -C[:, 1:], 2.0 * C[:, :-1]])):
                with np.errstate(over="ignore"):  # (1e300)^2 is inf in both
                    norms = _row_norm(X)
                    _same_bits(norms, np.linalg.norm(X, axis=-1))
                    # A row's norm does not depend on the rest of its batch.
                    alone = [_row_norm(X[i][None, :])[0] for i in np.ndindex(X.shape[:-1])]
                    _same_bits(norms.ravel(), np.array(alone, dtype=float))


def test_relative_of_several_inputs_matches_hstack():
    # Several inputs are scaled as one: each case's residual is, bit for bit,
    # that of the inputs side by side, with the same violation and size.
    rng = rng_for(0, "joint-exponents")
    A, B = rng.standard_normal((50, 3)), rng.standard_normal((50, 4))
    huge, nan = B.copy(), B.copy()
    huge[17, 2], nan[3, 1] = 1e300, np.nan
    zeros = np.zeros((50, 2))
    cases = [
        (A, B),                                  # in range: no row is scaled
        (A, huge), (huge, A), (A, zeros, huge),  # one huge row among normal ones
        (1e-200 * A, 1e-200 * B),                # tiny rows
        (1e-200 * A, zeros),                     # tiny rows beside zeros
        (np.where(A > 0, 2.0 ** -500, 0.0), B * 0.0),  # the edges of the range
        (np.where(A > 0, 2.0 ** 500, 0.0), zeros),
        (zeros, -zeros),                         # all zero
        (np.zeros((0, 3)), np.zeros((0, 4))),    # empty
        (A, nan),                                # NaN scales as it does joined
        (huge,),
    ]

    def violation(H):
        return np.abs(H).max(axis=1, initial=0.0)

    def joined(f):
        return lambda *arrays: f(np.hstack(arrays))

    for arrays in cases:
        _same_bits(_relative(joined(violation), *arrays, size=joined(_row_norm)),
                   _relative(violation, np.hstack(arrays), size=_row_norm))


def test_negate_reuses_the_factorization():
    # inv(-B) = -inv(B) bit for bit: LU with partial pivoting pivots on |a|,
    # and every rounding is symmetric in sign.
    rng = np.random.default_rng(19)
    for d in range(1, 17):
        for _ in range(200):
            B = rng.standard_normal((d, d))
            _same_bits(np.linalg.inv(-B), -np.linalg.inv(B))
    for cone in (Orthant(3), SIMP, sample_simplicial(8, 5)):
        neg, ref = cone.negative(), Simplicial(-cone.basis)
        assert type(neg) is Simplicial
        _same_bits(neg.basis, ref.basis)
        _same_bits(neg.basis_inv, ref.basis_inv)
        assert not neg.basis.flags.writeable and not neg.basis_inv.flags.writeable


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


# Scales from 1e-300 to 1e300, and powers of two across the same range.
_SCALES = np.concatenate([np.logspace(-300, 300, 25), np.ldexp(1.0, np.arange(-996, 997, 83))])


@pytest.mark.parametrize("cone", [Orthant(3), Simplicial(np.array([[1.0, 1.0, 0.0],
                                                                   [0.0, 1.0, 1.0],
                                                                   [0.0, 0.0, 1.0]])),
                                  Lorentz(3), Lorentz(3, negated=True),
                                  PolyhedralGenerators(np.array([[1.0, 0.0, 0.0],
                                                                 [1.0, 1.0, 0.0],
                                                                 [0.0, 1.0, 1.0],
                                                                 [1.0, 1.0, 1.0]])),
                                  PolyhedralHalfspaces(np.array([[1.0, 0.0, 0.0],
                                                                 [-1.0, 1.0, 0.0],
                                                                 [0.0, -1.0, 1.0]]))],
                         ids=["orthant", "simplicial", "lorentz", "lorentz-negated",
                              "generators", "halfspaces"])
def test_membership_residual_across_scales(cone):
    # The violation is positively homogeneous and the residual divides it by
    # 1 + |x|, so at scale s it is s a / (1 + s |x|), with a fixed at s = 1;
    # up to rounding of the violation, which is of order 1e-16 |x|.
    X = gaussian_points(rng_for(3, "scales"), 40, 3)
    norms = np.linalg.norm(X, axis=1)
    a = cone.membership_residual(X) * (1.0 + norms)
    assert (a > 0.1).any() and (a < 1e-14).any()
    for s in _SCALES:
        denom = 1.0 / s + norms
        err = np.abs(cone.membership_residual(s * X) - a / denom)
        assert (err <= (1e-12 * a + 1e-14 * norms) / denom).all(), s


def test_membership_of_huge_and_tiny_points():
    for s in _SCALES:
        assert contains(Lorentz(3), [s, 0.0, s])
        assert contains(Orthant(2), [s, 0.0])
        assert contains(Orthant(2), [-s, 0.0]) == (s < 1e-7)
    assert Lorentz(3).membership_residual([1e200, 0.0, -1e200]) == pytest.approx(np.sqrt(2.0))


@pytest.mark.parametrize("g", [1e-320, 1e-200, 1e200, 1e308])
def test_huge_and_tiny_generators_and_normals(g):
    # Each describes the orthant: a row's norm may overflow or underflow, its
    # direction may not be lost.
    for K in (PolyhedralHalfspaces([[g, 0.0], [0.0, 1.0]]),
              PolyhedralGenerators([[g, 0.0], [0.0, 1.0]])):
        assert contains(K, [3.0, 2.0])
        assert not contains(K, [-1.0, 2.0]) and not contains(K, [3.0, -1.0])


# The Lorentz cone turned by a fixed rotation: a cone class defined outside
# the package, with only the protocol methods, that no built-in class is.
_TURN = np.array([[np.cos(0.7), 0.0, -np.sin(0.7)],
                  [0.0, 1.0, 0.0],
                  [np.sin(0.7), 0.0, np.cos(0.7)]])


class TurnedLorentz(ConeSpec):
    """Q L for the Lorentz cone L of R^3 (or -L) and the rotation Q = _TURN."""

    dim = 3

    def __init__(self, negated=False):
        self.upright = Lorentz(3, negated=negated)

    def membership_residual(self, x):
        return self.upright.membership_residual(np.asarray(x) @ _TURN)

    @property
    def _projector(self):
        return lambda X: self.upright._projector(X @ _TURN) @ _TURN.T

    def members(self, rng, n):
        return self.upright.members(rng, n) @ _TURN.T

    def negative(self):
        return TurnedLorentz(not self.upright.negated)

    polar = negative  # L is self-dual, and a rotation keeps inner products

    def is_generating(self):
        return True

    def is_pointed(self):
        return True

    def to_json(self):
        return {"type": "turned-lorentz", "negated": self.upright.negated}


def test_a_cone_class_defined_outside_the_package_runs_the_catalogue():
    cone = TurnedLorentz()
    pair = moreau_pair(cone)
    assert pair.descriptor() == {"family": "moreau", "cone": cone.to_json()}
    verdicts = {r.property_id: r.verdict for r in run_catalogue(pair, n_samples=200, seed=1)}
    for key in ("ranges", "polarity", "idempotence", "range-kernel", "range-negation"):
        assert verdicts[key] == "pass", key
    # The Lorentz cone of R^3 is not a lattice cone, turned or not, so its
    # Moreau positive part is not subadditive (the paper's theorem).
    assert verdicts["subadditive-m"] == "fail"


def test_operations_a_class_lacks_raise_value_error():
    with pytest.raises(ValueError, match="^cone is not polyhedral$"):
        Lorentz(3).generators()
    with pytest.raises(ValueError, match="^cone not representable in halfspace form$"):
        Lorentz(3).halfspaces()
    with pytest.raises(ValueError, match=(
            "^cone has no facet: the generators span the whole space$")):
        PolyhedralGenerators([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]).halfspaces()
    with pytest.raises(ValueError, match="^cone is not polyhedral$"):
        TurnedLorentz().generators()
    with pytest.raises(ValueError, match="^cone not representable in halfspace form$"):
        TurnedLorentz().halfspaces()
    # The polar of generators that span the plane is {0}, which has no ray;
    # so is a halfspace cone whose normals leave only the origin.
    with pytest.raises(ValueError, match=re.escape(
            "polar cone is {0}: the generators span the whole space")):
        PolyhedralGenerators([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]).polar()
    with pytest.raises(ValueError, match=re.escape(
            "cone is {0}: no nonzero point meets all its halfspaces")):
        PolyhedralHalfspaces([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]).polar()


_BUILT_IN = {Orthant: Orthant(3), Simplicial: Simplicial(np.eye(3) + 0.5 * np.eye(3, k=1)),
             Lorentz: Lorentz(3),
             PolyhedralGenerators: PolyhedralGenerators([[1.0, 0, 0], [0, 1, 0], [1, 1, 1]]),
             PolyhedralHalfspaces: PolyhedralHalfspaces([[1.0, 0, 0], [0, 1, 0], [1, 1, 1]])}


def test_each_cone_class_keeps_its_own_membership_residual(monkeypatch):
    # The benchmark's tracer wraps membership_residual in each class's own
    # namespace (an inherited one is a KeyError there) and counts one span per
    # call: a residual that called another class's would be counted twice.
    calls = []
    for cls in _BUILT_IN:
        own = vars(cls)["membership_residual"]
        monkeypatch.setattr(cls, "membership_residual",
                            lambda self, x, own=own: calls.append(1) or own(self, x))
    X = gaussian_points(rng_for(3, "own-residual"), 5, 3)
    for cls, cone in _BUILT_IN.items():
        calls.clear()
        cone.membership_residual(X)
        assert len(calls) == 1, cls.__name__
