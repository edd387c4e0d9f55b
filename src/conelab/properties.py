"""Sampled property checkers for retraction pairs, with witness reports.

Each checker draws seeded samples, evaluates residuals, and returns a
:class:`PropertyReport`.  Two residual regimes are used:

* norm identities (e.g. m + n = I) pass iff the relative residual is at
  most ``eps_equal``;
* cone-membership tests use ``eps_membership`` with an indeterminate band:
  residuals inside ``[eps/10, 10*eps]`` make the verdict ``inconclusive``
  instead of flipping between pass and fail at the boundary.

Each residual is defined once, as a function of row batches that returns
one value per row: a checker evaluates it on all samples, and witness
shrinking and replay evaluate the same function on witness rows.

Failures carry replayable witnesses (the original sample, plus a
bisection-shrunk variant for readability).  Checkers are deterministic
functions of (pair, n_samples, seed); witnesses are sorted by norm and
then lexicographically, so reports are schedule-invariant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cones import DEFAULT_TOL, _scales
from .sampling import cone_members, gaussian_points, rng_for

PASS, FAIL, INCONCLUSIVE = "pass", "fail", "inconclusive"

# Absolute tolerance for identities that hold by exact algebra up to rounding.
ALGEBRA_ABS_TOL = 1e-12

_WITNESS_CAP = 8
_SHRINK_STEPS = 20

# Witness order is keyed on the 1-D norm of the first input, which can
# differ from a batch row norm by a few ulps; every failing row whose batch
# norm is within this relative margin of the cut gets the exact key.
_CUT_RTOL = 1e-9

# status codes per sample
_OK, _BAND, _BAD = 0, 1, 2


@dataclass
class PropertyReport:
    """Outcome of one sampled property check."""

    property_id: str
    verdict: str
    samples_run: int
    witnesses: list = field(default_factory=list)
    seed: int = 0
    tolerances: object = DEFAULT_TOL

    def to_json_dict(self):
        return {"property": self.property_id,
                "verdict": self.verdict,
                "samples": self.samples_run,
                "seed": self.seed,
                "witnesses": self.witnesses,
                "tolerances": self.tolerances.to_json_dict()}


def _membership_status(res, eps):
    out = np.full(np.shape(res), _OK, dtype=int)
    out[np.asarray(res) >= eps / 10.0] = _BAND
    out[np.asarray(res) > eps * 10.0] = _BAD
    return out


def _norm_status(res, eps):
    out = np.full(np.shape(res), _OK, dtype=int)
    out[np.asarray(res) > eps] = _BAD
    return out


def _shrink(residual, arrays, threshold):
    """Bisect the scale of each failing witness row toward the smallest norm
    that still fails; maps are positively homogeneous, so scaling is
    faithful.  All rows are bisected together, one batch per step.

    Returns the scaled rows and the residual of each, evaluated on its own
    1-row batch as a replay of that witness does: a k-row matmul can round
    differently in the last digit from a 1-row one.
    """
    lo = np.zeros(arrays[0].shape[0])
    hi = np.ones(arrays[0].shape[0])
    for _ in range(_SHRINK_STEPS):
        mid = 0.5 * (lo + hi)
        fails = residual(*(mid[:, None] * a for a in arrays)) > threshold
        hi = np.where(fails, mid, hi)
        lo = np.where(fails, lo, mid)
    scaled = [hi[:, None] * a for a in arrays]
    return scaled, [float(residual(*(a[i:i + 1] for a in scaled))[0])
                    for i in range(hi.size)]


class _Check:
    """Accumulates per-sample statuses and, per check label, the failing rows."""

    def __init__(self):
        self.any_band = False
        self.any_bad = False
        # (check label, residual function, shrink threshold, input names,
        #  failing rows of each input, their residuals)
        self.failures = []

    def add(self, check, residual, inputs, status, res, threshold):
        """Record one labelled check; ``residual`` replays it on rows of
        ``inputs`` (None when the rows alone cannot replay it)."""
        status = np.asarray(status)
        self.any_band = self.any_band or bool((status == _BAND).any())
        bad = status == _BAD
        if not bad.any():
            return
        self.any_bad = True
        self.failures.append((check, residual, threshold, list(inputs),
                              [np.asarray(a, dtype=float)[bad] for a in inputs.values()],
                              np.asarray(res, dtype=float)[bad]))

    def norm(self, check, residual, inputs, eps):
        """A norm identity: a sample fails when its residual exceeds eps."""
        res = residual(*inputs.values())
        self.add(check, residual, inputs, _norm_status(res, eps), res, eps)

    def membership(self, check, residual, inputs, eps):
        """A membership test, inconclusive inside the band [eps/10, 10 eps]."""
        res = residual(*inputs.values())
        self.add(check, residual, inputs, _membership_status(res, eps), res, 10.0 * eps)

    def _witnesses(self):
        """The reported witnesses: the failing rows with the smallest first
        input by norm, then lexicographically, then in insertion order;
        each with its shrunk variant when its residual can be replayed."""
        if not self.failures:
            return []
        inputs = [rows for *_, rows, _ in self.failures]
        sizes = [rows[0].shape[0] for rows in inputs]
        owner = np.repeat(np.arange(len(sizes)), sizes)
        local = np.arange(owner.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        norms = np.linalg.norm(np.concatenate([rows[0] for rows in inputs]), axis=1)
        near = range(norms.size)
        if norms.size > _WITNESS_CAP:
            cut = np.partition(norms, _WITNESS_CAP - 1)[_WITNESS_CAP - 1]
            near = np.flatnonzero(norms <= cut * (1.0 + _CUT_RTOL)).tolist()

        def key(i):
            rows, r = inputs[owner[i]], local[i]
            return (float(np.linalg.norm(rows[0][r])),
                    tuple(np.concatenate([a[r] for a in rows]).tolist()))

        chosen = sorted(near, key=key)[:_WITNESS_CAP]
        witnesses = {}
        for f, (check, residual, threshold, names, rows, res) in enumerate(self.failures):
            mine = [i for i in chosen if owner[i] == f]
            if not mine:
                continue
            picked = [a[local[mine]] for a in rows]
            if residual is not None:
                shrunk, shrunk_res = _shrink(residual, picked, threshold)
            for j, i in enumerate(mine):
                w = {name: a[j].tolist() for name, a in zip(names, picked)}
                w["residual"] = float(res[local[i]])
                w["check"] = check
                if residual is not None:
                    w["shrunk"] = {name: a[j].tolist() for name, a in zip(names, shrunk)}
                    w["shrunk"]["residual"] = shrunk_res[j]
                witnesses[i] = w
        return [witnesses[i] for i in chosen]

    def finish(self, property_id, n_samples, seed, tol):
        if self.any_bad:
            verdict = FAIL
        elif self.any_band:
            verdict = INCONCLUSIVE
        else:
            verdict = PASS
        return PropertyReport(property_id=property_id, verdict=verdict,
                              samples_run=n_samples, witnesses=self._witnesses(),
                              seed=seed, tolerances=tol)


# Residual functions shared between checkers.  Each maps row batches to one
# residual per row.

def _worst(*residuals):
    """Row-wise maximum of residuals over the same inputs."""
    return lambda *rows: np.maximum.reduce([r(*rows) for r in residuals])


def _decomposition(pair):
    """m(x) + n(x) = x, relative to 1 + |x|."""
    return lambda X: np.linalg.norm(pair.m(X) + pair.n(X) - X, axis=1) / _scales(X)


def _cross_null(pair):
    """m(n(x)) = n(m(x)) = 0, relative to 1 + |x|."""
    return lambda X: np.maximum(np.linalg.norm(pair.m(pair.n(X)), axis=1),
                                np.linalg.norm(pair.n(pair.m(X)), axis=1)) / _scales(X)


def _idempotence(R):
    """R(R(x)) = R(x), relative to 1 + |x|."""
    def residual(X):
        image = R(X)
        return np.linalg.norm(R(image) - image, axis=1) / _scales(X)
    return residual


def _image_in(cone, R):
    """Membership of R(x) in the cone."""
    return lambda X: cone.membership_residual(R(X))


def _in_kernel(R):
    """R(x) = 0, relative to 1 + |x|."""
    return lambda X: np.linalg.norm(R(X), axis=1) / _scales(X)


def _defect(R, X, Y):
    """Subadditivity defect R(x) + R(y) - R(x + y)."""
    return R(X) + R(Y) - R(X + Y)


def _subadditivity(R, cone):
    """Membership of the subadditivity defect in the cone."""
    return lambda X, Y: cone.membership_residual(_defect(R, X, Y))


def _isotonicity(R, cone):
    """Membership of R(y) - R(x) in the cone, for comparable x <= y."""
    return lambda X, Y: cone.membership_residual(R(Y) - R(X))


def sup_m(pair, X, Y):
    """The supremum y + m(x - y) of x and y in the order of the m-range, for
    a vector or a batch; a lattice pair's m makes it the lattice supremum."""
    return Y + pair.m(X - Y)


def _sup_commutes(pair, S):
    """m(sup S) = sup m(S) for each set S of an (n, k, dim) stack, both
    suprema folded with :func:`sup_m`; relative to 1 + max_{s in S} |s|."""
    n, k, dim = S.shape
    T = np.concatenate([S, pair.m(S.reshape(n * k, dim)).reshape(S.shape)])
    sup = T[:, 0]
    for j in range(1, k):
        sup = sup_m(pair, sup, T[:, j])
    scale = 1.0 + np.linalg.norm(S, axis=2).max(axis=1)
    return np.linalg.norm(pair.m(sup[:n]) - sup[n:], axis=1) / scale


def check_mutual_polarity(pair, n_samples=1000, seed=0):
    """m + n = I and m(n(x)) = n(m(x)) = 0 on Gaussian samples."""
    tol = pair.tol
    rng = rng_for(seed, "polarity")
    X = gaussian_points(rng, n_samples, pair.dim)
    chk = _Check()
    chk.norm("sum-and-cross", _worst(_decomposition(pair), _cross_null(pair)), {"x": X},
             tol.eps_equal)
    return chk.finish("polarity", n_samples, seed, tol)


def check_ranges(pair, n_samples=1000, seed=0):
    """Images of m and n land in their declared range cones."""
    tol = pair.tol
    rng = rng_for(seed, "ranges")
    X = gaussian_points(rng, n_samples, pair.dim)
    chk = _Check()
    chk.membership("m-image", _image_in(pair.cone_m, pair.m), {"x": X}, tol.eps_membership)
    chk.membership("n-image", _image_in(pair.cone_n, pair.n), {"x": X}, tol.eps_membership)
    return chk.finish("ranges", n_samples, seed, tol)


def check_idempotence(pair, n_samples=1000, seed=0):
    """m(m(x)) = m(x) and n(n(x)) = n(x)."""
    tol = pair.tol
    rng = rng_for(seed, "idempotence")
    X = gaussian_points(rng, n_samples, pair.dim)
    chk = _Check()
    chk.norm("squared", _worst(_idempotence(pair.m), _idempotence(pair.n)), {"x": X},
             tol.eps_equal)
    return chk.finish("idempotence", n_samples, seed, tol)


def _xor_fail(status_a, status_b):
    """Equivalence of two three-way classifications: clean contradiction
    fails, any band sample is inconclusive."""
    fail = ((status_a == _OK) & (status_b == _BAD)) | ((status_a == _BAD) & (status_b == _OK))
    band = ((status_a == _BAND) | (status_b == _BAND)) & ~fail
    out = np.where(fail, _BAD, np.where(band, _BAND, _OK))
    return out


def check_range_kernel(pair, n_samples=1000, seed=0):
    """Range of m = kernel of n (and symmetrically), both directions.

    Samples mix ambient Gaussians with members of both range cones so each
    implication is actually exercised.
    """
    tol = pair.tol
    rng = rng_for(seed, "range-kernel")
    n_half = max(1, n_samples // 2)
    n_quart = max(1, (n_samples - n_half) // 2)
    X = np.vstack([
        gaussian_points(rng, n_half, pair.dim),
        cone_members(pair.cone_m, rng, n_quart),
        cone_members(pair.cone_n, rng, max(1, n_samples - n_half - n_quart)),
    ])
    eps = tol.eps_membership
    chk = _Check()
    for check, cone, R in (("m-side", pair.cone_m, pair.n), ("n-side", pair.cone_n, pair.m)):
        in_kernel = _in_kernel(R)
        res_in, res_ker = cone.membership_residual(X), in_kernel(X)
        chk.add(check, _worst(cone.membership_residual, in_kernel), {"x": X},
                _xor_fail(_membership_status(res_in, eps), _membership_status(res_ker, eps)),
                np.maximum(res_in, res_ker), 10.0 * eps)
    return chk.finish("range-kernel", X.shape[0], seed, tol)


def check_range_negation(pair, n_samples=1000, seed=0):
    """The n-range is the negated m-range: images negate across, and
    sampled members of each range cone negate into the other."""
    tol = pair.tol
    eps = tol.eps_membership
    rng = rng_for(seed, "range-negation")
    X = gaussian_points(rng, n_samples, pair.dim)
    n_mem = max(1, n_samples // 2)
    Mem = cone_members(pair.cone_m, rng, n_mem)
    Nem = cone_members(pair.cone_n, rng, n_mem)

    def negated_images(X):
        return np.maximum(pair.cone_m.membership_residual(-pair.n(X)),
                          pair.cone_n.membership_residual(-pair.m(X)))

    chk = _Check()
    chk.membership("negated-images", negated_images, {"x": X}, eps)
    chk.membership("negated-m-member", lambda X: pair.cone_n.membership_residual(-X),
                   {"x": Mem}, eps)
    chk.membership("negated-n-member", lambda X: pair.cone_m.membership_residual(-X),
                   {"x": Nem}, eps)
    return chk.finish("range-negation", n_samples, seed, tol)


def _side(pair, which):
    """Map ``which`` ("m" or "n") of the pair, its range cone and the cone
    its subadditivity compares in."""
    if which == "m":
        return pair.m, pair.cone_m, pair.subadd_cone_m
    if which == "n":
        return pair.n, pair.cone_n, pair.cone_n
    raise ValueError("which must be 'm' or 'n'")


def check_subadditive(pair, which="m", n_samples=1000, seed=0):
    """R(x+y) <= R(x) + R(y) in the range order: the defect
    R(x) + R(y) - R(x+y) must be a member of the range cone."""
    tol = pair.tol
    R, _, cone = _side(pair, which)
    rng = rng_for(seed, f"subadditive-{which}")
    X = gaussian_points(rng, n_samples, pair.dim)
    Y = gaussian_points(rng, n_samples, pair.dim)
    chk = _Check()
    chk.membership("defect-membership", _subadditivity(R, cone), {"x": X, "y": Y},
                   tol.eps_membership)
    return chk.finish(f"subadditive-{which}", n_samples, seed, tol)


def check_isotone(pair, which="m", n_samples=1000, seed=0):
    """x <= y implies R(x) <= R(y); comparable pairs are built as
    y = x + k with k a random member of the order cone."""
    tol = pair.tol
    R, cone, _ = _side(pair, which)
    rng = rng_for(seed, f"isotone-{which}")
    X = gaussian_points(rng, n_samples, pair.dim)
    Y = X + cone_members(cone, rng, n_samples)
    chk = _Check()
    chk.membership("image-order", _isotonicity(R, cone), {"x": X, "y": Y},
                   tol.eps_membership)
    return chk.finish(f"isotone-{which}", n_samples, seed, tol)


def check_subadditivity_defect_sets(pair, n_samples=1000, seed=0):
    """Structure of the subadditivity defects m(x) + m(y) - m(x+y).

    Three parts: (a) every sampled defect lies in the m-range cone;
    (b) every sampled member w of the m-range is realized as a defect via
    w = m(w) + m(v) - m(w+v) with v = -(w + k), k a range member --
    requires v and w + v to land in the n-range, which is verified per
    sample and otherwise reported as inconclusive; (c) the n-defect equals
    the negated m-defect up to absolute rounding (exact algebra).
    """
    tol = pair.tol
    rng = rng_for(seed, "subadditivity-defects")
    X = gaussian_points(rng, n_samples, pair.dim)
    Y = gaussian_points(rng, n_samples, pair.dim)
    W = cone_members(pair.cone_m, rng, n_samples)
    K = cone_members(pair.cone_m, rng, n_samples)
    V = -(W + K)
    pre = np.maximum(pair.cone_n.membership_residual(V),
                     pair.cone_n.membership_residual(W + V))
    eligible = _membership_status(pre, tol.eps_membership) == _OK

    def realized(W, V):
        return np.linalg.norm(_defect(pair.m, W, V) - W, axis=1) / _scales(W)

    def negation(X, Y):
        return np.abs(_defect(pair.n, X, Y) + _defect(pair.m, X, Y)).max(axis=1)

    chk = _Check()
    chk.membership("defect-in-range", _subadditivity(pair.m, pair.subadd_cone_m),
                   {"x": X, "y": Y}, tol.eps_membership)
    res_b = realized(W, V)
    chk.add("member-realized", realized, {"x": W, "y": V},
            np.where(eligible, _norm_status(res_b, tol.eps_equal), _BAND), res_b,
            tol.eps_equal)
    chk.norm("defect-negation", negation, {"x": X, "y": Y}, ALGEBRA_ABS_TOL)
    return chk.finish("subadditivity-defects", n_samples, seed, tol)


def check_riesz_identities(pair, n_samples=1000, seed=0):
    """Positive/negative-part identities: m is the positive part of the
    order of its range.

    Per sample: idempotence, subadditivity, the pointedness separation
    (m(x) = m(-x) = 0 forces x = 0; checked on the samples where the
    antecedent holds, plus the origin), isotonicity, x = m(x) + n(x),
    vanishing cross-compositions, and distribution of m over pairwise
    suprema y + m(x - y).
    """
    tol = pair.tol
    eps = tol.eps_membership
    rng = rng_for(seed, "positive-part-identities")
    X = np.vstack([np.zeros((1, pair.dim)), gaussian_points(rng, n_samples, pair.dim)])
    Y = np.vstack([np.zeros((1, pair.dim)), gaussian_points(rng, n_samples, pair.dim)])
    K = cone_members(pair.cone_m, rng, X.shape[0])

    def separation(X):
        s = _scales(X)
        antecedent = (np.linalg.norm(pair.m(X), axis=1) <= eps * s) & \
                     (np.linalg.norm(pair.m(-X), axis=1) <= eps * s)
        separated = np.linalg.norm(X, axis=1) <= 10.0 * eps * s
        return np.where(antecedent & ~separated, np.linalg.norm(X, axis=1) / s, 0.0)

    def sup_distributes(X, Y):
        return _sup_commutes(pair, np.stack([X, Y], axis=1))

    chk = _Check()
    chk.norm("idempotent", _idempotence(pair.m), {"x": X}, tol.eps_equal)
    chk.membership("subadditive", _subadditivity(pair.m, pair.cone_m), {"x": X, "y": Y}, eps)
    chk.norm("pointed-separation", separation, {"x": X}, 10.0 * eps)
    chk.membership("isotone", _isotonicity(pair.m, pair.cone_m), {"x": X, "y": X + K}, eps)
    chk.norm("decomposition", _decomposition(pair), {"x": X}, tol.eps_equal)
    chk.norm("cross-null", _cross_null(pair), {"x": X}, tol.eps_equal)
    chk.norm("sup-distributes", sup_distributes, {"x": X, "y": Y}, tol.eps_equal)
    return chk.finish("positive-part-identities", X.shape[0], seed, tol)


def _sigma_runner(pair, n_samples, seed):
    from .suprema import finite_sigma_continuity_check
    return finite_sigma_continuity_check(pair, chain_length=8, seed=seed,
                                         n_chains=max(1, n_samples // 8))


# Catalogue of checkers by property id, in report order, with the pair
# families each applies to.  The ids are frozen strings: reports stay
# diffable across runs and releases.  Each runner looks its checker up by
# name at call time: ``perfbench/spans.py`` wraps these module attributes,
# and direct function references here would hide every check span.
CATALOGUE = (
    ("ranges", ("lattice", "moreau", "minkowski"),
     lambda pair, n, seed: check_ranges(pair, n, seed)),
    ("polarity", ("lattice", "moreau", "minkowski"),
     lambda pair, n, seed: check_mutual_polarity(pair, n, seed)),
    ("idempotence", ("lattice", "moreau", "minkowski"),
     lambda pair, n, seed: check_idempotence(pair, n, seed)),
    ("range-kernel", ("lattice", "moreau"),
     lambda pair, n, seed: check_range_kernel(pair, n, seed)),
    ("range-negation", ("lattice", "moreau"),
     lambda pair, n, seed: check_range_negation(pair, n, seed)),
    ("subadditive-m", ("lattice", "moreau", "minkowski"),
     lambda pair, n, seed: check_subadditive(pair, "m", n, seed)),
    ("subadditive-n", ("lattice", "moreau"),
     lambda pair, n, seed: check_subadditive(pair, "n", n, seed)),
    ("isotone-m", ("lattice", "moreau"),
     lambda pair, n, seed: check_isotone(pair, "m", n, seed)),
    ("isotone-n", ("lattice", "moreau"),
     lambda pair, n, seed: check_isotone(pair, "n", n, seed)),
    ("subadditivity-defects", ("lattice", "moreau"),
     lambda pair, n, seed: check_subadditivity_defect_sets(pair, n, seed)),
    ("positive-part-identities", ("lattice",),
     lambda pair, n, seed: check_riesz_identities(pair, n, seed)),
    ("monotone-sup-commutes", ("lattice",), _sigma_runner),
)


def catalogue_for(family):
    """Property ids applicable to a pair family, in report order."""
    return [key for key, families, _ in CATALOGUE if family in families]


def run_catalogue(pair, n_samples=1000, seed=0):
    """Run every applicable checker; returns reports in catalogue order."""
    reports = []
    for key, families, runner in CATALOGUE:
        if pair.family in families:
            reports.append(runner(pair, n_samples, seed))
    return reports
