import itertools
import json
import zlib
from pathlib import Path

import numpy as np
import pytest

from conelab import (Lorentz, Orthant, PolyhedralGenerators, PolyhedralHalfspaces,
                     RetractionPair, Simplicial, lattice_pair, minkowski_pair, moreau_pair,
                     pair_from_json, sample_simplicial)
from conelab import cli, properties, sampling, suprema
from conelab.cones import _FOLD_ROWS, ToleranceConfig
from conelab.properties import (CATALOGUE, _Check, catalogue_for, check_idempotence,
                                check_isotone, check_mutual_polarity,
                                check_range_kernel, check_range_negation,
                                check_ranges, check_riesz_identities,
                                check_subadditive, check_subadditivity_defect_sets,
                                run_catalogue)
from conelab.suprema import finite_sigma_continuity_check

SIMP = Simplicial(np.array([[1.0, 1.0], [0.0, 1.0]]))
# Non-orthogonal simplicial cone whose Moreau pair runs through FaceTable.
SKEW = Simplicial(np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]]))
# The self-dual pentagonal cone: generators (r cos 2 pi k/5, r sin 2 pi k/5, 1)
# with r^2 = 1 / cos(pi/5).
_R = np.sqrt(1.0 / np.cos(np.pi / 5))
PENTAGON = PolyhedralGenerators(np.array([[_R * np.cos(2 * np.pi * k / 5),
                                           _R * np.sin(2 * np.pi * k / 5), 1.0]
                                          for k in range(5)]))


def test_polarity_passes_lattice_orthant():
    rep = check_mutual_polarity(lattice_pair(Orthant(4)), 1000, seed=3)
    assert rep.verdict == "pass"
    assert rep.witnesses == []
    assert rep.samples_run == 1000


def test_polarity_passes_moreau_lorentz():
    rep = check_mutual_polarity(moreau_pair(Lorentz(3)), 1000, seed=3)
    assert rep.verdict == "pass"


def test_polarity_fails_for_corrupted_pair():
    # m from one cone, n from a rotated copy: the axioms cannot hold
    a = lattice_pair(Orthant(2))
    theta = 0.7
    R = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    b = lattice_pair(Simplicial(R))
    frankenstein = RetractionPair("lattice", a.cone_m, b.cone_n,
                                  lambda X: a.m(X), lambda X: b.n(X))
    rep = check_mutual_polarity(frankenstein, 500, seed=0)
    assert rep.verdict == "fail"
    assert rep.witnesses
    # witnesses replay: the recorded residual is reproducible
    w = rep.witnesses[0]
    x = np.array(w["x"])
    mx, nx = frankenstein.m(x), frankenstein.n(x)
    replayed = max(np.linalg.norm(mx + nx - x),
                   np.linalg.norm(frankenstein.m(nx)),
                   np.linalg.norm(frankenstein.n(mx))) / (1.0 + np.linalg.norm(x))
    assert replayed == pytest.approx(w["residual"], rel=1e-12)
    assert replayed > 1e-7


def test_nan_residual_raises():
    # NaN > eps is False, so a NaN residual would otherwise pass its row.
    a = lattice_pair(Orthant(2))

    def m_map(X):
        Y = a.m(X)
        Y[0] = np.nan
        return Y

    pair = RetractionPair("lattice", a.cone_m, a.cone_n, m_map, a.n)
    chk, X = _Check(pair, "polarity", 0), np.ones((3, 2))
    with pytest.raises(ValueError, match="polarity: check 'sum' gave a NaN residual"):
        chk.norm("sum", properties._decomposition(pair), {"x": X})
    with pytest.raises(ValueError, match="polarity: check 'member'"):
        chk.membership("member", properties._decomposition(pair), {"x": X})
    # Where the NaN image is fed back into a map or a cone, the input check of
    # that call raises first.
    with pytest.raises(ValueError):
        run_catalogue(pair, 20, seed=0)


def test_subadditive_moreau_orthant_passes():
    rep = check_subadditive(moreau_pair(Orthant(3)), "m", 2000, seed=0)
    assert rep.verdict == "pass" and rep.witnesses == []


def test_subadditive_moreau_lorentz_fails_with_witness():
    pair = moreau_pair(Lorentz(3))
    rep = check_subadditive(pair, "m", 2000, seed=0)
    assert rep.verdict == "fail"
    w = rep.witnesses[0]
    x, y = np.array(w["x"]), np.array(w["y"])
    defect = pair.m(x) + pair.m(y) - pair.m(x + y)
    assert pair.cone_m.membership_residual(defect) == pytest.approx(w["residual"], rel=1e-9)
    assert w["residual"] > 1e-6
    # shrunk witness still fails and has smaller norm
    s = w["shrunk"]
    assert s["residual"] > 1e-7
    assert np.linalg.norm(np.array(s["x"])) < np.linalg.norm(x)


def test_subadditive_which_validation():
    with pytest.raises(ValueError):
        check_subadditive(lattice_pair(Orthant(2)), "q", 10, 0)
    with pytest.raises(ValueError):
        check_isotone(lattice_pair(Orthant(2)), "x", 10, 0)


def test_isotone_lattice_passes():
    rep = check_isotone(lattice_pair(SIMP), "m", 1000, seed=1)
    assert rep.verdict == "pass"


def test_isotone_polar_projection_fails():
    # projection onto the polar of the acute wedge is not isotone
    pair = moreau_pair(SIMP)
    rep = check_isotone(pair, "n", 2000, seed=0)
    assert rep.verdict == "fail"
    w = rep.witnesses[0]
    x, y = np.array(w["x"]), np.array(w["y"])
    assert pair.cone_n.membership_residual(y - x) <= 1e-9  # comparable pair
    assert pair.cone_n.membership_residual(pair.n(y) - pair.n(x)) > 1e-7


def test_range_negation_lattice_and_orthant_moreau_pass():
    assert check_range_negation(lattice_pair(SIMP), 1000, 0).verdict == "pass"
    assert check_range_negation(moreau_pair(Orthant(3)), 1000, 0).verdict == "pass"
    assert check_range_negation(moreau_pair(Lorentz(3)), 1000, 0).verdict == "pass"


def test_range_negation_nonorthogonal_simplicial_fails():
    rep = check_range_negation(moreau_pair(SIMP), 1000, seed=0)
    assert rep.verdict == "fail"
    assert rep.witnesses


def test_range_kernel_both_directions():
    for pair in (lattice_pair(Orthant(3)), moreau_pair(Lorentz(3)), moreau_pair(SIMP)):
        rep = check_range_kernel(pair, 1000, seed=2)
        assert rep.verdict == "pass"


def test_defect_sets_lattice():
    pair = lattice_pair(sample_simplicial(4, 17, cond_cap=20.0))
    rep = check_subadditivity_defect_sets(pair, 1000, seed=5)
    assert rep.verdict == "pass"


def test_defect_sets_algebraic_identity_tight():
    # n-defect + m-defect vanishes to absolute rounding for every family
    for pair in (lattice_pair(SIMP), moreau_pair(Orthant(3)),
                 minkowski_pair(Orthant(3), [1.0, 1.0, 1.0])):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((500, pair.dim))
        Y = rng.standard_normal((500, pair.dim))
        dm = pair.m(X) + pair.m(Y) - pair.m(X + Y)
        dn = pair.n(X) + pair.n(Y) - pair.n(X + Y)
        assert np.abs(dn + dm).max() <= 1e-12


def test_defect_sets_inconclusive_when_ranges_do_not_negate():
    # the member-realization branch needs the n-range to absorb -(w + k)
    rep = check_subadditivity_defect_sets(moreau_pair(SIMP), 400, seed=0)
    assert rep.verdict in ("fail", "inconclusive")


def test_riesz_identities_pass_on_lattice():
    for seed in (0, 1):
        pair = lattice_pair(sample_simplicial(3, 30 + seed, cond_cap=20.0))
        rep = check_riesz_identities(pair, 800, seed=seed)
        assert rep.verdict == "pass"


# The paper's conclusion: when a Moreau pair has the catalogue's order
# properties, m is the positive-part map of a lattice cone.  A cone with
# pairwise orthogonal extreme rays (an orthant, Lorentz(2)) gives such a pair;
# on Lorentz(3), Lorentz(5), the skew simplicial cone and the self-dual
# pentagon the supremum y + m(x - y) does not commute with m, for pairs of
# points and for sets of 8.
@pytest.mark.parametrize("cone, lattice", [(Orthant(4), True), (Lorentz(2), True),
                                           (Lorentz(3), False), (SKEW, False),
                                           (Lorentz(5), False), (PENTAGON, False)],
                         ids=["orthant-4", "lorentz-2", "lorentz-3", "skew-simplicial",
                              "lorentz-5", "pentagon"])
def test_riesz_identities_follow_theorem_on_moreau(cone, lattice):
    pair = moreau_pair(cone)
    rep = check_riesz_identities(pair, 300, seed=0)
    sets = finite_sigma_continuity_check(pair, 300, seed=0)
    sup_fails = "sup-distributes" in {w["check"] for w in rep.witnesses}
    assert (sets.verdict == "fail") == sup_fails == (not lattice)
    assert rep.verdict == sets.verdict == ("pass" if lattice else "fail")
    names = [f"x{j}" for j in range(1, 9)]
    for w in sets.witnesses:
        small = np.array([[w["shrunk"][k] for k in names]])
        assert w["shrunk"]["residual"] == properties._sup_commutes(pair, small)[0]
        assert w["shrunk"]["residual"] > pair.tol.eps_equal
        assert np.linalg.norm(small[0, 0]) < np.linalg.norm(w["x1"])


def test_ranges_and_idempotence_minkowski():
    pair = minkowski_pair(Orthant(3), [1.0, 1.0, 1.0])
    assert check_ranges(pair, 1000, 0).verdict == "pass"
    assert check_idempotence(pair, 1000, 0).verdict == "pass"
    assert check_subadditive(pair, "m", 1000, 0).verdict == "pass"


def test_checkers_deterministic():
    pair = moreau_pair(Lorentz(3))
    a = check_subadditive(pair, "m", 300, seed=11).to_json_dict()
    b = check_subadditive(pair, "m", 300, seed=11).to_json_dict()
    assert a == b
    c = check_subadditive(pair, "m", 300, seed=12).to_json_dict()
    assert a != c


def test_witnesses_sorted_and_capped():
    rep = check_subadditive(moreau_pair(Lorentz(3)), "m", 3000, seed=0)
    norms = [np.linalg.norm(np.array(w["x"])) for w in rep.witnesses]
    assert norms == sorted(norms)
    assert len(rep.witnesses) <= 8


def test_catalogue_families():
    assert catalogue_for("lattice") == [k for k, fams, _ in CATALOGUE if "lattice" in fams]
    assert "range-negation" not in catalogue_for("minkowski")
    assert "positive-part-identities" not in catalogue_for("moreau")
    reports = run_catalogue(minkowski_pair(Orthant(3), [1.0, 1.0, 1.0]), 200, 0)
    assert [r.property_id for r in reports] == catalogue_for("minkowski")


def test_full_catalogue_passes_on_random_lattice_instances():
    # every checker passes at 1e-8 relative on seeded random simplicial cones
    for i in range(10):
        dim = 1 + i % 8
        pair = lattice_pair(sample_simplicial(dim, 600 + i, cond_cap=20.0))
        for rep in run_catalogue(pair, 500, seed=i):
            assert rep.verdict == "pass", (i, dim, rep.property_id, rep.witnesses[:1])


def test_report_json_shape():
    rep = check_mutual_polarity(lattice_pair(Orthant(2)), 50, seed=4)
    d = rep.to_json_dict()
    assert set(d) == {"property", "verdict", "samples", "seed", "witnesses", "tolerances"}
    assert d["seed"] == 4 and d["samples"] == 50
    assert set(d["tolerances"]) == {"membership", "equal", "converge"}


def _smallest_failing_scale(replay, arrays, threshold, steps=60):
    """Reference: the smallest failing scale in (0, 1] of one witness, by
    single-vector bisection."""
    lo, hi = 0.0, 1.0
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if replay(*(mid * a for a in arrays)) > threshold:
            hi = mid
        else:
            lo = mid
    return hi


def _scalar_replays(pair):
    """Single-vector residuals of the checks that fail on Moreau pairs of
    non-lattice cones, keyed by (property, check label)."""
    m, n, cm, cn = pair.m, pair.n, pair.cone_m, pair.cone_n

    def subadd(R, cone):
        return lambda x, y: float(cone.membership_residual(R(x) + R(y) - R(x + y)))

    return {
        ("subadditive-m", "defect-membership"): subadd(m, pair.subadd_cone_m),
        ("subadditive-n", "defect-membership"): subadd(n, pair.cone_n),
        ("subadditivity-defects", "defect-in-range"): subadd(m, pair.subadd_cone_m),
        ("isotone-m", "image-order"): lambda x, y: float(cm.membership_residual(m(y) - m(x))),
        ("isotone-n", "image-order"): lambda x, y: float(cn.membership_residual(n(y) - n(x))),
        ("range-negation", "negated-images"):
            lambda x: max(float(cm.membership_residual(-n(x))),
                          float(cn.membership_residual(-m(x)))),
        ("range-negation", "negated-m-member"): lambda x: float(cn.membership_residual(-x)),
        ("range-negation", "negated-n-member"): lambda x: float(cm.membership_residual(-x)),
    }


@pytest.mark.parametrize("cone", [Lorentz(d) for d in range(3, 9)] + [SKEW],
                         ids=[f"lorentz-{d}" for d in range(3, 9)] + ["skew-simplicial"])
def test_shrunk_witness_is_smallest_failing_scale(cone):
    pair = moreau_pair(cone)
    replays = _scalar_replays(pair)
    threshold = 10.0 * pair.tol.eps_membership
    shrunk = 0
    for rep in run_catalogue(pair, 300, seed=4):
        for w in rep.witnesses:
            names = [k for k in ("x", "y") if k in w]
            arrays = [np.array(w[k]) for k in names]
            small = [np.array(w["shrunk"][k]) for k in names]
            replay = replays[rep.property_id, w["check"]]
            assert w["shrunk"]["residual"] == replay(*small)
            assert w["shrunk"]["residual"] > threshold
            t_ref = _smallest_failing_scale(replay, arrays, threshold)
            t = np.linalg.norm(small[0]) / np.linalg.norm(arrays[0])
            assert abs(t / t_ref - 1.0) <= 1e-6
            assert replay(*((1.0 - 1e-6) * t_ref * a for a in arrays)) <= threshold
            shrunk += 1
    assert shrunk >= 40


def _catalogue_residuals(pair, n_samples):
    """Every residual the catalogue evaluates on ``pair``, with the names and
    sample rows of its inputs, keyed by (property, check label)."""
    found, add = {}, _Check.add

    def record(chk, check, residual, inputs, *rest):
        found[chk.property_id, check] = residual, inputs
        return add(chk, check, residual, inputs, *rest)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Check, "add", record)
        run_catalogue(pair, n_samples, seed=0)
    return found


def _row_stable_residuals(pair):
    """Assert that each row of a batch of 2 to _FOLD_ROWS - 1 rows gets the
    bits of its own 1-row batch in every catalogue residual of ``pair``;
    returns the 1-row residuals of each, keyed by (property, check label)."""
    singles = {}
    # 8 * _FOLD_ROWS samples give every check, the sets of 8 included, enough rows.
    for key, (residual, inputs) in _catalogue_residuals(pair, 8 * _FOLD_ROWS).items():
        arrays = list(inputs.values())
        one = np.array([residual(*(a[i:i + 1] for a in arrays))[0]
                        for i in range(_FOLD_ROWS - 1)])
        for k in (2, 8, 16, _FOLD_ROWS - 1):
            assert np.array_equal(residual(*(a[:k] for a in arrays)), one[:k]), (key, k)
        singles[key] = one
    return singles


@pytest.mark.parametrize("dim", range(3, 9))
def test_lorentz_residuals_are_row_stable(dim):
    # The five checks that fail on a Moreau Lorentz pair fail on some of the rows.
    pair = moreau_pair(Lorentz(dim))
    singles = _row_stable_residuals(pair)
    failing = [("subadditive-m", "defect-membership"), ("subadditive-n", "defect-membership"),
               ("isotone-m", "image-order"), ("isotone-n", "image-order"),
               ("subadditivity-defects", "defect-in-range")]
    assert all((singles[key] > 10.0 * pair.tol.eps_membership).any() for key in failing)


# Products of 2 or 3 columns round alike in one matrix product and row by
# row here, so the cones whose maps multiply have 4 or more dimensions.
_SIMPLICIAL_5 = sample_simplicial(5, 3)
_ROTATION = np.linalg.qr(np.random.default_rng(7).standard_normal((4, 4)))[0]
_ROW_STABLE_PAIRS = {
    "lattice-simplicial": lattice_pair(_SIMPLICIAL_5),
    "moreau-skew": moreau_pair(SKEW),  # both maps through FaceTable
    "moreau-pentagon": moreau_pair(PENTAGON),
    # A rotated orthant with a redundant normal: the lattice clamp projects.
    "moreau-halfspaces": moreau_pair(PolyhedralHalfspaces(
        np.vstack([_ROTATION, [1.0, 1.0, 0.5, 2.0] @ _ROTATION]))),
    "minkowski": minkowski_pair(_SIMPLICIAL_5, _SIMPLICIAL_5.basis.sum(axis=1)),
}


@pytest.mark.parametrize("name", _ROW_STABLE_PAIRS)
def test_residuals_are_row_stable(name):
    # The lattice catalogue includes both uses of _sup_commutes.  Most
    # residuals are nonzero on some row, so their bits are compared.
    singles = _row_stable_residuals(_ROW_STABLE_PAIRS[name])
    assert 2 * sum(one.any() for one in singles.values()) > len(singles)


def _golden_property_reports(report):
    """(pair descriptor, property id, property report) for every property
    report of a golden ``verify``, ``batch`` or ``demo`` report."""
    body = report.get("report", report)
    if report.get("name") == "moreau-subadd":
        cones = {label: cone for label, cone, _ in cli._MOREAU_SUBADD_CONES}
        return [({"family": "moreau", "cone": cones[row["cone"]]}, "subadditive-m", row)
                for row in body["table"]]
    return [(entry["pair"], rep["property"], rep) for entry in body.get("entries", [body])
            for rep in entry.get("reports", entry.get("checks", []))]


_GOLDEN = sorted((Path(__file__).parent / "golden").glob("*.json"))


@pytest.mark.parametrize("path", [p for p in _GOLDEN if '"shrunk"' in p.read_text()],
                         ids=lambda p: p.name)
def test_golden_witnesses_replay_on_one_row(path):
    # Every reported residual, of a witness and of its shrunk variant, is
    # what the check's residual gives the witness alone.
    report = json.loads(path.read_text())
    tol = ToleranceConfig.from_json(report["tolerances"])
    replayed = 0
    for descriptor, prop, rep in _golden_property_reports(report):
        residuals = _catalogue_residuals(pair_from_json(descriptor, tol=tol), 8)
        for w in rep["witnesses"]:
            residual, inputs = residuals[prop, w["check"]]
            for rows in (w, w["shrunk"]):
                assert residual(*(np.array([rows[name]]) for name in inputs))[0] == \
                    rows["residual"], (prop, w["check"])
                replayed += 1
    assert replayed > 0


def test_lattice_maps_are_one_product_from_fold_rows():
    pair = lattice_pair(_SIMPLICIAL_5)
    A, inv = _SIMPLICIAL_5.basis, _SIMPLICIAL_5.basis_inv
    for k in (_FOLD_ROWS, 1000):
        X = sampling.gaussian_points(sampling.rng_for(k, "one-product"), k, 5)
        assert np.array_equal(pair.m(X), np.maximum(X @ inv.T, 0.0) @ A.T)
        assert np.array_equal(pair.n(X), -(np.maximum(-(X @ inv.T), 0.0) @ A.T))


@pytest.mark.parametrize("residual", [
    # a step: no fit through t = 1 and t = 1/2
    lambda X: np.where(np.linalg.norm(X, axis=1) > 0.25, 1.0, 0.0),
    # |x|^2 / (1 + |x|^2): a fit, but its scale does not confirm
    lambda X: np.linalg.norm(X, axis=1) ** 2 / (1.0 + np.linalg.norm(X, axis=1) ** 2),
    # c |x| / (1 + |x|), homogeneous, with t* = 1 - 5e-8 on unit rows: t* (1 + 1e-7) > 1
    lambda X: 0.1 * (1.0 + 1.0 / (1.0 - 5e-8)) * np.linalg.norm(X, axis=1)
    / (1.0 + np.linalg.norm(X, axis=1)),
], ids=["step", "quadratic", "near-one"])
def test_unconfirmed_witness_is_reported_unshrunk(residual):
    X = np.random.default_rng(3).standard_normal((5, 3))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    chk = _Check(lattice_pair(Orthant(3)), "p", 0)
    chk.norm("unconfirmed", residual, {"x": X}, 0.1)
    witnesses = chk.finish(5).witnesses
    assert len(witnesses) == 5
    for w in witnesses:
        small = np.array(w["shrunk"]["x"])
        assert w["shrunk"]["x"] == w["x"]
        assert w["shrunk"]["residual"] == residual(small[None, :])[0] > 0.1


def test_witness_order_across_labels_and_arities():
    # Rows of equal norm and repeated rows: the order is by the norm of the
    # first input, then lexicographic over all inputs, then insertion order.
    rng = np.random.default_rng(5)
    base = rng.standard_normal((6, 3))
    X = np.vstack([base, base[::-1], base[:, ::-1], np.zeros((2, 3))])
    Y = rng.standard_normal(X.shape)
    pair = lattice_pair(Orthant(3), tol=ToleranceConfig(eps_membership=0.01, eps_equal=0.5))
    chk = _Check(pair, "p", 0)
    chk.norm("one", lambda X: 0.0 * X[:, 0] + 1.0, {"x": X})
    chk.membership("two", lambda X, Y: 0.0 * X[:, 0] + 1.0, {"x": X, "y": Y})
    got = [(w["check"], w["x"], w.get("y")) for w in chk.finish(1).witnesses]

    candidates = [("one", x, None) for x in X] + [("two", x, y) for x, y in zip(X, Y)]
    expected = sorted(candidates, key=lambda c: (
        float(np.linalg.norm(c[1])),
        tuple(np.concatenate([c[1]] + ([] if c[2] is None else [c[2]])).tolist())))[:8]
    assert got == [(c, x.tolist(), None if y is None else y.tolist()) for c, x, y in expected]


def test_run_catalogue_calls_checkers_by_current_name(monkeypatch):
    # The benchmark's span tracer replaces these module attributes.  Each key
    # must reach its own checker, with its own "m" or "n" side.
    calls = []

    def recording(name):
        return lambda pair, *args: calls.append((name, args)) or f"{name}-report"

    for name in dir(properties):
        if name.startswith("check_"):
            monkeypatch.setattr(properties, name, recording(name))
    monkeypatch.setattr(suprema, "finite_sigma_continuity_check",
                        lambda pair, *args: calls.append(("chain", args)) or "chain-report")
    reports = run_catalogue(lattice_pair(Orthant(2)), 20, seed=3)
    expected = [("check_ranges", ()), ("check_mutual_polarity", ()), ("check_idempotence", ()),
                ("check_range_kernel", ()), ("check_range_negation", ()),
                ("check_subadditive", ("m",)), ("check_subadditive", ("n",)),
                ("check_isotone", ("m",)), ("check_isotone", ("n",)),
                ("check_subadditivity_defect_sets", ()), ("check_riesz_identities", ()),
                ("chain", ())]
    assert [key for key, _, _ in CATALOGUE] == catalogue_for("lattice")
    assert calls == [(name, which + (20, 3)) for name, which in expected]
    assert reports == [f"{name}-report" for name, _ in expected]


def test_status_scale_decides_samples_and_verdicts():
    scale = (properties._OK, properties._BAND, properties._BAD)
    # _xor_fail: any band is inconclusive, a clean contradiction fails.
    a, b = np.meshgrid(scale, scale, indexing="ij")
    assert properties._xor_fail(a, b).tolist() == [[0, 1, 2], [1, 1, 1], [2, 1, 0]]
    eps = 1e-6
    res = np.array([0.0, 0.09e-6, eps / 10.0, eps, 1.01e-6, 10.0 * eps, 10.1e-6])
    assert properties._status(res, eps).tolist() == [0, 0, 0, 0, 2, 2, 2]
    assert properties._membership_status(res, eps).tolist() == [0, 0, 1, 1, 1, 1, 2]
    # A check's verdict is the worst status it was fed, in any order, one
    # status per labelled check or all of them in one.
    pair = lattice_pair(Orthant(2))
    for n in range(4):
        for statuses in itertools.product(scale, repeat=n):
            verdict = ("pass", "inconclusive", "fail")[max(statuses, default=0)]
            for split in ([[s] for s in statuses], [list(statuses)] if n else []):
                chk = _Check(pair, "p", 0)
                for status in split:
                    X = np.ones((len(status), 2))
                    chk.add("c", lambda X: np.ones(len(X)), {"x": X}, np.array(status),
                            np.zeros(len(status)), 0.5)
                assert chk.finish(1).verdict == verdict, (statuses, split)


def test_every_catalogue_key_draws_its_own_stream(monkeypatch):
    """Each check seeds its stream by its catalogue key and reports under that
    key, and no two keys share a stream, not even keys with a common prefix
    (subadditive-m and -n)."""
    keys = []

    def recording(seed, key):
        keys.append(key)
        return sampling.rng_for(seed, key)

    monkeypatch.setattr(properties, "rng_for", recording)
    reports = run_catalogue(lattice_pair(Orthant(2)), 4, seed=0)
    assert keys == [r.property_id for r in reports] == [key for key, _, _ in CATALOGUE]
    for seed in (0, 1, 2**31):
        firsts = {sampling.rng_for(seed, key).standard_normal(4).tobytes() for key in keys}
        assert len(firsts) == len(keys)


def _two_point_fit(residual, arrays):
    """(s, c) of 1/r(t) = s/t + c from the residual at scales 1 and 1/2."""
    r1 = residual(*arrays)
    rh = residual(*(0.5 * a for a in arrays))
    return 1.0 / rh - 1.0 / r1, 2.0 / r1 - 1.0 / rh


@pytest.mark.parametrize("which", ["m", "n"])
def test_face_table_subadditivity_residual_is_homogeneous(which):
    # FaceTable projections are positively homogeneous, so the relative
    # residual of a witness scaled by t is t a / (1 + t b): the fit through
    # t = 1 and t = 1/2 predicts it at every scale.
    pair = moreau_pair(SKEW)
    R, _, cone = properties._side(pair, which)
    residual = properties._subadditivity(R, cone)
    rep = check_subadditive(pair, which, 300, seed=1)
    assert rep.witnesses
    ts = np.logspace(-8, 8, 33)
    for w in rep.witnesses:
        arrays = [np.array([w["x"]]), np.array([w["y"]])]
        s, c = _two_point_fit(residual, arrays)
        got = np.array([residual(*(t * a for a in arrays))[0] for t in ts])
        predicted = ts / (s + c * ts)
        np.testing.assert_allclose(got, predicted, rtol=1e-10, atol=0.0)


def _rotated_orthant(seed, dim, redundant, index):
    """Generators of a rotated orthant with unequal lengths plus redundant
    interior generators, drawn as the ``project-polyhedral`` benchmark
    draws its cones (shapes (5, 4), (6, 3), (7, 2), three cones each)."""
    rng = np.random.default_rng([seed, zlib.crc32(b"project-polyhedral")])
    for d, r in ((5, 4), (6, 3), (7, 2)):
        for i in range(3):
            Q, Rq = np.linalg.qr(rng.standard_normal((d, d)))
            Q = Q * np.sign(np.diag(Rq))
            G = (Q * rng.uniform(0.5, 2.0, d)).T
            V = np.vstack([G, rng.uniform(0.2, 1.0, (r, d)) @ G])
            rng.standard_normal((1000, d))
            if (d, r, i) == (dim, redundant, index):
                return V
    raise ValueError("no such cone")


# A Moreau pair on a rotated orthant is a lattice pair, so every catalogue
# check passes.  Each case failed while FaceTable broke near-ties in favour
# of a smaller face up to 1e-12 (1 + d^2) away in squared distance.
@pytest.mark.parametrize("shape, seed", [((5, 4, 0), 4), ((7, 2, 0), 1), ((7, 2, 0), 5),
                                         ((7, 2, 1), 2)],
                         ids=["5x4-0-seed4", "7x2-0-seed1", "7x2-0-seed5", "7x2-1-seed2"])
def test_moreau_pair_on_rotated_orthant_passes_catalogue(shape, seed):
    pair = moreau_pair(PolyhedralGenerators(_rotated_orthant(1, *shape)))
    failed = [(r.property_id, r.verdict) for r in run_catalogue(pair, 200, seed)
              if r.verdict != "pass"]
    assert failed == []
