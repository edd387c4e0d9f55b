"""Sampled property checkers for retraction pairs, with witness reports.

Each checker is one :class:`_Check`: it draws its samples from the seeded
stream of its catalogue key, evaluates residuals, and returns a
:class:`PropertyReport` under that same key.  Two residual regimes are used:

* norm identities (e.g. m + n = I) pass iff the relative residual is at
  most ``eps_equal``;
* cone-membership tests use ``eps_membership`` with an indeterminate band:
  residuals inside ``[eps/10, 10*eps]`` make the verdict ``inconclusive``
  instead of flipping between pass and fail at the boundary.

Each residual is defined once, as a function of row batches that returns
one value per row: a checker evaluates it on all samples, and witness
shrinking and replay evaluate the same function on witness rows.  A batch
of fewer than 64 rows (``cones._FOLD_ROWS``) gives every row the bits of
its own 1-row batch, so the residuals that shrinking takes from its two
small batches are the ones a replay of each witness gives.

Failures carry replayable witnesses: the original sample, plus the same
sample scaled to just above its smallest failing scale, which the positive
homogeneity of the maps gives in closed form (see :func:`_shrink`); a row
whose closed-form scale does not confirm is reported at scale 1.
Checkers are deterministic functions of (pair, n_samples, seed); witnesses
are sorted by the row norm of their first input (``cones._row_norm``, which
gives a row the same norm alone as in any batch), then lexicographically,
then in insertion order, so reports are schedule-invariant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cones import (DEFAULT_TOL, _relative, _row_exponents, _row_max, _row_norm,
                    _same_shape)
from .sampling import cone_members, gaussian_points, rng_for

PASS, FAIL, INCONCLUSIVE = "pass", "fail", "inconclusive"

# Tolerance (relative, like every residual) for identities exact up to rounding.
ALGEBRA_TOL = 1e-12

_WITNESS_CAP = 8
# Relative margin at which a closed-form smallest failing scale is confirmed.
_CONFIRM_REL = 1e-7

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


def _scaled(arrays, t):
    """Each input with its rows scaled by the matching entry of ``t``."""
    return [t[:, None] * a for a in arrays]


def _two_scales(arrays, t, u):
    """Each input with its rows scaled by ``t``, stacked over the same rows
    scaled by ``u``: one batch for two scales."""
    return [np.concatenate(p) for p in zip(_scaled(arrays, t), _scaled(arrays, u))]


def _shrink(residual, arrays, threshold):
    """Scale each failing witness row to just above its smallest failing scale.

    The maps are positively homogeneous and each residual is relative to
    1 + a norm, so a row scaled by t has residual r(t) = t a / (1 + t b),
    and 1/r = s/t + c is affine in 1/t.  One batch at t = 1 and t = 1/2
    fits s and c, which give the smallest failing scale
    t* = s / (1/threshold - c).  A second batch confirms that t* (1 + 1e-7)
    fails and t* (1 - 1e-7) does not, and the row is reported at
    t* (1 + 1e-7).  A row that does not confirm (a residual not of that
    form, or t* (1 + 1e-7) >= 1) is reported unshrunk, at scale 1.

    Returns the residual of each row at scale 1, the scaled rows and the
    residual of each scaled row.  Both batches hold at most twice
    ``_WITNESS_CAP`` rows, fewer than ``cones._FOLD_ROWS``, so each residual
    has the bits of its row's own 1-row batch, which a replay evaluates.
    """
    k = arrays[0].shape[0]
    r = residual(*_two_scales(arrays, np.ones(k), np.full(k, 0.5)))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inv_one, inv_half = 1.0 / r[:k], 1.0 / r[k:]
        t = (inv_half - inv_one) / (1.0 / threshold - (2.0 * inv_one - inv_half))
        up, down = t * (1.0 + _CONFIRM_REL), t * (1.0 - _CONFIRM_REL)
        fitted = np.flatnonzero(np.isfinite(t) & (t > 0.0) & (up < 1.0))
    scale, shrunk = np.ones(k), r[:k].copy()
    if fitted.size:
        rc = residual(*_two_scales([a[fitted] for a in arrays], up[fitted], down[fitted]))
        n = fitted.size
        confirmed = (rc[:n] > threshold) & (rc[n:] <= threshold)
        rows = fitted[confirmed]
        scale[rows], shrunk[rows] = up[rows], rc[:n][confirmed]
    return r[:k], _scaled(arrays, scale), shrunk


class _Check:
    """One property check of a pair: the seeded stream of its catalogue key
    (``rng``), the pair's tolerances, the per-sample statuses and, per check
    label, the failing rows."""

    def __init__(self, pair, property_id, seed):
        self.property_id = property_id
        self.seed = seed
        self.tol = pair.tol
        self.rng = rng_for(seed, property_id)
        self.any_band = False
        self.any_bad = False
        # (check label, residual function, shrink threshold, input names,
        #  failing rows of each input)
        self.failures = []

    def add(self, check, residual, inputs, status, res, threshold):
        """Record one labelled check; ``residual`` replays it on rows of
        ``inputs``.  A NaN residual raises ValueError: it compares as a pass."""
        if np.isnan(res).any():
            raise ValueError(f"{self.property_id}: check {check!r} gave a NaN residual")
        status = np.asarray(status)
        self.any_band = self.any_band or bool((status == _BAND).any())
        bad = status == _BAD
        if not bad.any():
            return
        self.any_bad = True
        self.failures.append((check, residual, threshold, list(inputs),
                              [np.asarray(a, dtype=float)[bad] for a in inputs.values()]))

    def norm(self, check, residual, inputs, eps=None):
        """A norm identity: a sample fails when its residual exceeds eps
        (``eps_equal`` by default)."""
        eps = self.tol.eps_equal if eps is None else eps
        res = residual(*inputs.values())
        self.add(check, residual, inputs, _norm_status(res, eps), res, eps)

    def membership(self, check, residual, inputs):
        """A membership test, inconclusive inside the band [eps/10, 10 eps]
        of ``eps_membership``."""
        eps = self.tol.eps_membership
        res = residual(*inputs.values())
        self.add(check, residual, inputs, _membership_status(res, eps), res, 10.0 * eps)

    def _witnesses(self):
        """The reported witnesses: the failing rows with the smallest first
        input by row norm, then lexicographically, then in insertion order;
        each with its shrunk variant."""
        if not self.failures:
            return []
        inputs = [rows for *_, rows in self.failures]
        sizes = [rows[0].shape[0] for rows in inputs]
        owner = np.repeat(np.arange(len(sizes)), sizes)
        local = np.arange(owner.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        # One power of two for all rows keeps the norms finite and their order exact.
        first = np.concatenate([rows[0] for rows in inputs])
        e = _row_exponents(first)
        shift = 0 if e is None else int(e.max())
        norms = _row_norm(np.ldexp(first, -shift))
        near = range(norms.size)
        if norms.size > _WITNESS_CAP:
            cut = np.partition(norms, _WITNESS_CAP - 1)[_WITNESS_CAP - 1]
            near = np.flatnonzero(norms <= cut).tolist()

        def key(i):
            rows, r = inputs[owner[i]], local[i]
            return float(norms[i]), tuple(np.concatenate([a[r] for a in rows]).tolist())

        chosen = sorted(near, key=key)[:_WITNESS_CAP]
        witnesses = {}
        for f, (check, residual, threshold, names, rows) in enumerate(self.failures):
            mine = [i for i in chosen if owner[i] == f]
            if not mine:
                continue
            picked = [a[local[mine]] for a in rows]
            res, shrunk, shrunk_res = _shrink(residual, picked, threshold)
            for j, i in enumerate(mine):
                w = {name: a[j].tolist() for name, a in zip(names, picked)}
                w["residual"] = float(res[j])
                w["check"] = check
                w["shrunk"] = {name: a[j].tolist() for name, a in zip(names, shrunk)}
                w["shrunk"]["residual"] = float(shrunk_res[j])
                witnesses[i] = w
        return [witnesses[i] for i in chosen]

    def finish(self, n_samples):
        if self.any_bad:
            verdict = FAIL
        elif self.any_band:
            verdict = INCONCLUSIVE
        else:
            verdict = PASS
        return PropertyReport(property_id=self.property_id, verdict=verdict,
                              samples_run=n_samples, witnesses=self._witnesses(),
                              seed=self.seed, tolerances=self.tol)


# Residual functions shared between checkers.  Each maps row batches to one
# residual per row; every norm residual is relative to 1 + |x| through
# cones._relative.

def _worst(*residuals):
    """Row-wise maximum of residuals over the same inputs."""
    return lambda *rows: np.maximum.reduce([r(*rows) for r in residuals])


def _norm_residual(violation):
    """The residual of a vector-valued violation (zero where the identity
    holds): its norm, relative to 1 + |x| of the first input."""
    return lambda *rows: _relative(lambda *U: _row_norm(violation(*U)), *rows)


def _decomposition(pair):
    """m(x) + n(x) = x."""
    return _norm_residual(lambda X: pair.m(X) + pair.n(X) - X)


def _cross_null(pair):
    """m(n(x)) = n(m(x)) = 0."""
    return _worst(_norm_residual(lambda X: pair.m(pair.n(X))),
                  _norm_residual(lambda X: pair.n(pair.m(X))))


def _idempotence(R):
    """R(R(x)) = R(x)."""
    def violation(X):
        image = R(X)
        return R(image) - image
    return _norm_residual(violation)


def _image_in(cone, R):
    """Membership of R(x) in the cone."""
    return lambda X: cone.membership_residual(R(X))


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
    a vector or a batch; a lattice pair's m makes it the lattice supremum.
    ``X`` and ``Y`` must have one shape."""
    _same_shape(X, Y)
    return Y + pair.m(X - Y)


def _sup_commutes(pair, S):
    """m(sup S) = sup m(S) for each set S of an (n, k, dim) stack, both
    suprema folded with :func:`sup_m`; relative to 1 + max_{s in S} |s|.
    Every call of m takes n rows, one member or one partial supremum of each
    set, so a batch of fewer than ``cones._FOLD_ROWS`` sets keeps its rows'
    bits."""
    n, k, dim = S.shape

    def violation(F):
        U = F.reshape(S.shape)
        images = [pair.m(U[:, j]) for j in range(k)]
        sup, sup_images = U[:, 0], images[0]
        for j in range(1, k):
            sup = sup_m(pair, sup, U[:, j])
            sup_images = sup_m(pair, sup_images, images[j])
        return _row_norm(pair.m(sup) - sup_images)

    return _relative(violation, S.reshape(n, k * dim),
                     size=lambda F: _row_max(_row_norm(F.reshape(S.shape))))


def check_mutual_polarity(pair, n_samples=1000, seed=0):
    """m + n = I and m(n(x)) = n(m(x)) = 0 on Gaussian samples."""
    chk = _Check(pair, "polarity", seed)
    X = gaussian_points(chk.rng, n_samples, pair.dim)
    chk.norm("sum-and-cross", _worst(_decomposition(pair), _cross_null(pair)), {"x": X})
    return chk.finish(n_samples)


def check_ranges(pair, n_samples=1000, seed=0):
    """Images of m and n land in their declared range cones."""
    chk = _Check(pair, "ranges", seed)
    X = gaussian_points(chk.rng, n_samples, pair.dim)
    chk.membership("m-image", _image_in(pair.cone_m, pair.m), {"x": X})
    chk.membership("n-image", _image_in(pair.cone_n, pair.n), {"x": X})
    return chk.finish(n_samples)


def check_idempotence(pair, n_samples=1000, seed=0):
    """m(m(x)) = m(x) and n(n(x)) = n(x)."""
    chk = _Check(pair, "idempotence", seed)
    X = gaussian_points(chk.rng, n_samples, pair.dim)
    chk.norm("squared", _worst(_idempotence(pair.m), _idempotence(pair.n)), {"x": X})
    return chk.finish(n_samples)


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
    chk = _Check(pair, "range-kernel", seed)
    n_half = max(1, n_samples // 2)
    n_quart = max(1, (n_samples - n_half) // 2)
    X = np.vstack([
        gaussian_points(chk.rng, n_half, pair.dim),
        cone_members(pair.cone_m, chk.rng, n_quart),
        cone_members(pair.cone_n, chk.rng, max(1, n_samples - n_half - n_quart)),
    ])
    eps = chk.tol.eps_membership
    for check, cone, R in (("m-side", pair.cone_m, pair.n), ("n-side", pair.cone_n, pair.m)):
        in_kernel = _norm_residual(R)
        res_in, res_ker = cone.membership_residual(X), in_kernel(X)
        chk.add(check, _worst(cone.membership_residual, in_kernel), {"x": X},
                _xor_fail(_membership_status(res_in, eps), _membership_status(res_ker, eps)),
                np.maximum(res_in, res_ker), 10.0 * eps)
    return chk.finish(X.shape[0])


def check_range_negation(pair, n_samples=1000, seed=0):
    """The n-range is the negated m-range: images negate across, and
    sampled members of each range cone negate into the other."""
    chk = _Check(pair, "range-negation", seed)
    X = gaussian_points(chk.rng, n_samples, pair.dim)
    n_mem = max(1, n_samples // 2)
    Mem = cone_members(pair.cone_m, chk.rng, n_mem)
    Nem = cone_members(pair.cone_n, chk.rng, n_mem)

    def negated_images(X):
        return np.maximum(pair.cone_m.membership_residual(-pair.n(X)),
                          pair.cone_n.membership_residual(-pair.m(X)))

    chk.membership("negated-images", negated_images, {"x": X})
    chk.membership("negated-m-member", lambda X: pair.cone_n.membership_residual(-X),
                   {"x": Mem})
    chk.membership("negated-n-member", lambda X: pair.cone_m.membership_residual(-X),
                   {"x": Nem})
    return chk.finish(n_samples)


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
    R, _, cone = _side(pair, which)
    chk = _Check(pair, f"subadditive-{which}", seed)
    X = gaussian_points(chk.rng, n_samples, pair.dim)
    Y = gaussian_points(chk.rng, n_samples, pair.dim)
    chk.membership("defect-membership", _subadditivity(R, cone), {"x": X, "y": Y})
    return chk.finish(n_samples)


def check_isotone(pair, which="m", n_samples=1000, seed=0):
    """x <= y implies R(x) <= R(y); comparable pairs are built as
    y = x + k with k a random member of the order cone."""
    R, cone, _ = _side(pair, which)
    chk = _Check(pair, f"isotone-{which}", seed)
    X = gaussian_points(chk.rng, n_samples, pair.dim)
    Y = X + cone_members(cone, chk.rng, n_samples)
    chk.membership("image-order", _isotonicity(R, cone), {"x": X, "y": Y})
    return chk.finish(n_samples)


def check_subadditivity_defect_sets(pair, n_samples=1000, seed=0):
    """Structure of the subadditivity defects m(x) + m(y) - m(x+y).

    Three parts: (a) every sampled defect lies in the m-range cone;
    (b) every sampled member w of the m-range is realized as a defect via
    w = m(w) + m(v) - m(w+v) with v = -(w + k), k a range member --
    requires v and w + v to land in the n-range, which is verified per
    sample and otherwise reported as inconclusive; (c) the n-defect equals
    the negated m-defect up to rounding (exact algebra), relative to 1 + |x|.
    """
    chk = _Check(pair, "subadditivity-defects", seed)
    X = gaussian_points(chk.rng, n_samples, pair.dim)
    Y = gaussian_points(chk.rng, n_samples, pair.dim)
    W = cone_members(pair.cone_m, chk.rng, n_samples)
    K = cone_members(pair.cone_m, chk.rng, n_samples)
    V = -(W + K)
    pre = np.maximum(pair.cone_n.membership_residual(V),
                     pair.cone_n.membership_residual(W + V))
    eligible = _membership_status(pre, chk.tol.eps_membership) == _OK

    realized = _norm_residual(lambda W, V: _defect(pair.m, W, V) - W)

    def negation(X, Y):
        return _relative(lambda U, V: _row_max(np.abs(_defect(pair.n, U, V)
                                                      + _defect(pair.m, U, V))), X, Y)

    chk.membership("defect-in-range", _subadditivity(pair.m, pair.subadd_cone_m),
                   {"x": X, "y": Y})
    res_b, eps = realized(W, V), chk.tol.eps_equal
    chk.add("member-realized", realized, {"x": W, "y": V},
            np.where(eligible, _norm_status(res_b, eps), _BAND), res_b, eps)
    chk.norm("defect-negation", negation, {"x": X, "y": Y}, ALGEBRA_TOL)
    return chk.finish(n_samples)


def check_riesz_identities(pair, n_samples=1000, seed=0):
    """Positive-part identities that no other key checks: the pointedness
    separation (m(x) = m(-x) = 0 forces x = 0; checked on the samples where
    the antecedent holds, plus the origin) and distribution of m over
    pairwise suprema y + m(x - y).  Idempotence, subadditivity, isotonicity
    and x = m(x) + n(x) are the keys ``idempotence``, ``subadditive-m``,
    ``isotone-m`` and ``polarity``.
    """
    chk = _Check(pair, "positive-part-identities", seed)
    eps = chk.tol.eps_membership
    X = np.vstack([np.zeros((1, pair.dim)), gaussian_points(chk.rng, n_samples, pair.dim)])
    Y = np.vstack([np.zeros((1, pair.dim)), gaussian_points(chk.rng, n_samples, pair.dim)])

    def separation(X):
        # |m(x)|, |m(-x)| and |x|, each relative to 1 + |x|
        m_plus, m_minus, size = _relative(
            lambda U: _row_norm(np.stack([pair.m(U), pair.m(-U), U])), X)
        antecedent = (m_plus <= eps) & (m_minus <= eps)
        return np.where(antecedent & (size > 10.0 * eps), size, 0.0)

    def sup_distributes(X, Y):
        return _sup_commutes(pair, np.stack([X, Y], axis=1))

    chk.norm("pointed-separation", separation, {"x": X}, 10.0 * eps)
    chk.norm("sup-distributes", sup_distributes, {"x": X, "y": Y})
    return chk.finish(X.shape[0])


def _sigma_runner(pair, n_samples, seed):
    from .suprema import finite_sigma_continuity_check
    return finite_sigma_continuity_check(pair, n_samples, seed)


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
