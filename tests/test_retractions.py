import numpy as np
import pytest

from conelab import (FaceTable, Lorentz, Orthant, PolyhedralGenerators, PolyhedralHalfspaces,
                     Simplicial, contains, lattice_pair, minkowski_pair, moreau_pair,
                     pair_from_json, project_cone, sample_simplicial)
from conelab import cones, oracle, run_catalogue
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
        pol = cone.polar()
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


@pytest.mark.parametrize("dim", range(3, 9))
def test_moreau_lorentz_maps_scale_exactly(dim):
    # Power-of-two scaling is exact, so a positively homogeneous map must
    # commute with it bit for bit, from 2^-990 to 2^990: no |xbar| underflow
    # (which returned outside points unchanged) or overflow (nan, inf).
    pair = moreau_pair(Lorentz(dim))
    X = gaussian_points(rng_for(dim, "lorentz-scale"), 16, dim)
    M, N = pair.m(X), pair.n(X)
    for k in range(-990, 991):
        t = 2.0 ** k
        assert np.array_equal(pair.m(t * X), t * M), k
        assert np.array_equal(pair.n(t * X), t * N), k


def _masked_lorentz_branches(X):
    """The three-branch closed form with boolean-indexed assignments."""
    bar, t = X[:, :-1], X[:, -1]
    r = np.linalg.norm(bar, axis=1)
    alpha = 0.5 * (r + t)
    unit = bar / np.where(r == 0.0, 1.0, r)[:, None]
    P = np.concatenate([alpha[:, None] * unit, alpha[:, None]], axis=1)
    inside = r <= t
    inpolar = r <= -t
    P[inside] = X[inside]
    P[inpolar] = 0.0
    return P


@pytest.mark.parametrize("dim", range(2, 9))
def test_lorentz_closed_form_matches_masked_reference(dim):
    # The branches are written in place, the polar's last, so every bit
    # matches the masked form, signed zeros included.
    rng = rng_for(dim, "lorentz-branches")
    bar = np.vstack([np.full(dim - 1, 3.0), rng.standard_normal((1000, dim - 1))])
    r = np.linalg.norm(bar, axis=1)
    ties = np.vstack([np.column_stack([bar, r]), np.column_stack([bar, -r])])
    zeros = np.array([[0.0] * dim, [-0.0] * dim, [0.0] * (dim - 1) + [-0.0],
                      [-0.0] * (dim - 1) + [0.0]])
    X = np.vstack([ties, zeros, gaussian_points(rng, 1000, dim)])
    for rows in (X, X[:1], X[-7:], X[1001:1003], X[2002:2006]):
        ref = _masked_lorentz_branches(rows)
        assert cones._lorentz_branches(rows).tobytes() == ref.tobytes()
        for k in (-990, 990):
            got = cones._lorentz_closed_form(np.ldexp(rows, k))
            assert got.tobytes() == np.ldexp(ref, k).tobytes(), k


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


def _skew(d):
    """Rows of I + 0.3 e1 e2^T: a simplicial cone whose rays, and whose polar's
    rays, are not orthogonal, so both project through a FaceTable."""
    B = np.eye(d)
    B[0, 1] = 0.3
    return B


def _count_builds(monkeypatch):
    """Count double descriptions and FaceTable builds from here on."""
    counts = {"dd": 0, "tables": 0}
    dd, init = oracle.double_description, FaceTable.__init__

    def counting_dd(normals):
        counts["dd"] += 1
        return dd(normals)

    def counting_init(self, generators):
        counts["tables"] += 1
        init(self, generators)

    monkeypatch.setattr(oracle, "double_description", counting_dd)
    monkeypatch.setattr(FaceTable, "__init__", counting_init)
    return counts


def test_moreau_generator_cone_builds_one_face_table(monkeypatch):
    built = []
    init = FaceTable.__init__

    def counting_init(self, generators):
        built.append(np.array(generators, dtype=float))
        init(self, generators)

    monkeypatch.setattr(FaceTable, "__init__", counting_init)
    cone = PolyhedralGenerators(np.vstack([_skew(3), [[1.0, 1.0, 1.0]] @ _skew(3)]))
    pair = moreau_pair(cone)
    X = gaussian_points(rng_for(0, "face-table"), 20, 3)
    pair.m(X)
    pair.cone_m.membership_residual(X)
    assert sum(np.array_equal(G, cone.generators()) for G in built) == 1


# Three rays with two redundant interior rows, once as halfspace normals and
# once as generators: a skew cone of R^3, and a rotated orthant (orthonormal
# rows of _Q).
_INTERIOR = np.array([[0.3, 0.6, 0.9], [1.0, 0.2, 0.4]])
_SKEW_REDUNDANT = np.vstack([_skew(3), _INTERIOR @ _skew(3)])
_Q = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))[0].T
_REDUNDANT = np.vstack([_Q, _INTERIOR @ _Q])


@pytest.mark.parametrize("make", [
    lambda: PolyhedralHalfspaces(_SKEW_REDUNDANT),
    lambda: PolyhedralGenerators(_SKEW_REDUNDANT),
], ids=["halfspaces", "generators"])
def test_moreau_catalogue_builds_polyhedral_data_once(monkeypatch, make):
    # In either form, one double description finds the cone's rays E (for
    # generators, through the polar of the listed ones) and one the rays of
    # its polar, the halfspace cone of -E; each cone's FaceTable is built once.
    counts = _count_builds(monkeypatch)
    run_catalogue(moreau_pair(make()), 200, 1)
    assert (counts["dd"], counts["tables"]) == (2, 2)


@pytest.mark.parametrize("make", [
    lambda: PolyhedralHalfspaces(_REDUNDANT),
    lambda: PolyhedralGenerators(_REDUNDANT),
], ids=["halfspaces", "generators"])
def test_rotated_orthant_builds_no_face_table(monkeypatch, make):
    # Orthogonal rays project by the clamp, so no table is built; the one
    # double description finds the rays E (for generators, through the polar
    # of the listed ones), and the polar, the cone of -E, has the rays -E.
    counts = _count_builds(monkeypatch)
    run_catalogue(moreau_pair(make()), 200, 1)
    assert (counts["dd"], counts["tables"]) == (1, 0)


def test_redundant_generators_leave_the_face_tables(monkeypatch):
    # A skew cone of R^5 with 4 redundant interior generators: both tables
    # span the 5 extreme rays (2^5 subsets), not the 9 listed ones.  One
    # double description prunes the listed generators, one finds the polar's
    # rays from the kept ones.
    rng = np.random.default_rng(11)
    G = _skew(5) * rng.uniform(0.5, 2.0, (5, 1))
    cone = PolyhedralGenerators(np.vstack([G, rng.uniform(0.2, 1.0, (4, 5)) @ G]))
    subsets, dd_calls = [], []
    dd, init = oracle.double_description, FaceTable.__init__

    def counting_dd(normals):
        dd_calls.append(1)
        return dd(normals)

    def counting_init(self, generators):
        init(self, generators)
        subsets.append(len(self.subsets))

    monkeypatch.setattr(oracle, "double_description", counting_dd)
    monkeypatch.setattr(FaceTable, "__init__", counting_init)
    pair = moreau_pair(cone)
    X = gaussian_points(rng_for(0, "tables"), 50, 5)
    pair.cone_m.membership_residual(pair.m(X))
    pair.cone_n.membership_residual(pair.n(X))
    assert (subsets, len(dd_calls)) == ([32, 32], 2)


@pytest.mark.parametrize("d", range(2, 8))
@pytest.mark.parametrize("form", [PolyhedralGenerators, PolyhedralHalfspaces])
def test_orthogonal_clamp_matches_the_oracle(monkeypatch, form, d):
    # On a rotated orthant, cone(Q) = {x : Q x >= 0} and its polar is
    # cone(-Q); rows scaled by 2^k change neither.  Both maps must agree with
    # the oracle's face enumeration on the listed rows, without a FaceTable.
    rng = rng_for(d, "clamp-oracle")
    Q = np.linalg.qr(rng.standard_normal((d, d)))[0].T
    V = np.ldexp(Q, rng.integers(-8, 9, (d, 1)))
    cone_table, polar_table = FaceTable(V), FaceTable(-V)
    counts = _count_builds(monkeypatch)
    pair = moreau_pair(form(V))
    X = gaussian_points(rng, 100, d)
    M, N = pair.m(X), pair.n(X)
    assert counts["tables"] == 0
    for x, m, n in zip(X, M, N):
        scale = 1e-12 * np.linalg.norm(x)
        assert np.linalg.norm(m - oracle.brute_force_project(cone_table, x).point) <= scale
        assert np.linalg.norm(n - oracle.brute_force_project(polar_table, x).point) <= scale


@pytest.mark.parametrize("d", range(1, 7))
def test_orthant_forms_project_bit_for_bit(d):
    X = gaussian_points(rng_for(d, "orthant-forms"), 1000, d)
    pairs = [moreau_pair(cone) for cone in (Orthant(d), Simplicial(np.eye(d)),
                                            PolyhedralGenerators(np.eye(d)),
                                            PolyhedralHalfspaces(np.eye(d)))]
    M, N = pairs[0].m(X), pairs[0].n(X)
    for pair in pairs[1:]:
        assert np.array_equal(pair.m(X), M) and np.array_equal(pair.n(X), N)


@pytest.mark.parametrize("make", [Simplicial, PolyhedralGenerators], ids=["simplicial", "generators"])
def test_nearly_orthogonal_skew_cone_keeps_the_face_table(monkeypatch, make):
    # Off-diagonal Gram entries of 1e-6 are far above the clamp's 1e-12 test.
    B = np.eye(3)
    B[0, 1] = 1e-6
    counts = _count_builds(monkeypatch)
    pair = moreau_pair(make(B.T if make is Simplicial else B))
    pair.m(gaussian_points(rng_for(0, "skew"), 10, 3))
    pair.n(gaussian_points(rng_for(1, "skew"), 10, 3))
    assert counts["tables"] == 2


def test_projector_cap_names_the_extreme_rays():
    # The polar of 12 generic generators in R^6 has 38 extreme rays.
    cone = PolyhedralGenerators(np.random.default_rng(0).standard_normal((12, 6)))
    with pytest.raises(ValueError, match="^cone has 38 extreme rays, but the face-table "
                                         "projector takes at most 12$"):
        moreau_pair(cone)


_BASIS3 = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
_CONES3 = {
    "orthant": Orthant(3),
    "simplicial": Simplicial(_BASIS3),
    "lorentz": Lorentz(3),
    "generators": PolyhedralGenerators([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0],
                                        [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]]),
    "halfspaces": PolyhedralHalfspaces([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                        [0.0, 0.0, 1.0], [1.0, -1.0, 1.0]]),
}
_PAIRS3 = {
    "lattice": lattice_pair(Simplicial(_BASIS3)),
    "moreau": moreau_pair(Lorentz(3)),
    "minkowski": minkowski_pair(Orthant(3), [1.0, 2.0, 3.0]),
}
# Every public function that takes a vector or a batch, with the type it
# gives a vector: one value per row comes back as a float, a row as a vector.
_ROWWISE = (
    [(f"{k}-membership", c.membership_residual, float) for k, c in _CONES3.items()]
    + [(f"{k}-projection", lambda x, c=c: project_cone(c, x), np.ndarray)
       for k, c in _CONES3.items()]
    + [("simplicial-coordinates", _CONES3["simplicial"].coordinates, np.ndarray)]
    + [(f"{k}-{side}", getattr(p, side), np.ndarray) for k, p in _PAIRS3.items() for side in "mn"]
    + [("minkowski-phi", _PAIRS3["minkowski"].phi, float)])


@pytest.mark.parametrize("f, kind", [(f, kind) for _, f, kind in _ROWWISE],
                         ids=[name for name, _, _ in _ROWWISE])
def test_vector_gets_row_zero_of_its_batch(f, kind):
    x = rng_for(0, "rowwise").standard_normal(3)
    one, batch = f(x), f(x[None, :])
    assert type(one) is kind and np.shape(batch) == (1,) + np.shape(one)
    assert np.asarray(one).tobytes() == batch[0].tobytes()
    nan = x.copy()
    nan[1] = np.nan
    for bad in (x[:2], x[:2][None, :], nan, nan[None, :], x[None, None, :]):
        with pytest.raises(ValueError):
            f(bad)


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
    assert not pair.cone_m.is_generating()


def test_minkowski_interior_required():
    with pytest.raises(ValueError):
        minkowski_pair(Orthant(2), [1.0, 0.0])
    with pytest.raises(ValueError):
        minkowski_pair(Orthant(2), [0.0, 0.0])
    with pytest.raises(ValueError):
        minkowski_pair(Orthant(2), [1.0, -1.0])
    with pytest.raises(ValueError):
        minkowski_pair(Lorentz(3), [0.0, 0.0, 1.0])  # no halfspace form


def test_minkowski_pair_on_a_generator_cone():
    # The generator form of the orthant, with a redundant generator, has the
    # orthant's facets as its halfspace form, and so its Minkowski verdicts.
    y = [1.0, 1.0, 1.0]
    gens = PolyhedralGenerators([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                                 [1.0, 1.0, 0.0]])

    def verdicts(cone):
        reports = run_catalogue(minkowski_pair(cone, y), n_samples=200, seed=1)
        return {r.property_id: r.verdict for r in reports}

    assert verdicts(gens) == verdicts(Orthant(3))


@pytest.mark.parametrize("k", [-990, 0, 500, 990])
def test_minkowski_anchor_at_any_scale(k):
    # m is invariant under the scale of the anchor, and the interiority test
    # takes no norm of the raw anchor, whose squares overflow from 2^512.
    X = gaussian_points(rng_for(0, "anchor-scale"), 100, 2)
    pair = minkowski_pair(Orthant(2), np.ldexp([1.0, 1.0], k))
    assert np.array_equal(pair.m(X), minkowski_pair(Orthant(2), [1.0, 1.0]).m(X))


def test_pair_descriptor_round_trip():
    for pair in (lattice_pair(SIMP), moreau_pair(Lorentz(3)),
                 minkowski_pair(Orthant(3), [1.0, 1.0, 1.0])):
        back = pair_from_json(pair.descriptor())
        assert back.family == pair.family
        rng = rng_for(6, "descriptor")
        X = gaussian_points(rng, 50, pair.dim)
        np.testing.assert_allclose(back.m(X), pair.m(X))
        np.testing.assert_allclose(back.n(X), pair.n(X))


def test_pair_repr():
    assert repr(lattice_pair(Orthant(2))) == "RetractionPair(family='lattice', dim=2)"


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
