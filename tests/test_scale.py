"""Property residuals across input scales 2^k, |k| <= 990.

Every map is positively homogeneous and every residual is relative to
1 + |x|, so a sample scaled by t has residual t a / (1 + t b): it stays
finite, a failing sample keeps failing as t grows, and a rounding-level
residual of a lattice pair stays at rounding level.  Each checker runs on its
own draws scaled by 2^k, and every residual it records is compared with the
same checker's at scale 1.
"""

import functools
import json
import warnings

import numpy as np
import pytest

from conelab import (Lorentz, Orthant, RetractionPair, Simplicial, lattice_pair,
                     minkowski_pair, moreau_pair, sample_simplicial)
from conelab import properties, suprema
from conelab.properties import _BAD, _OK, CATALOGUE, _Check

_BASE = lattice_pair(Orthant(3))
PAIRS = {
    "lattice-skew": lattice_pair(sample_simplicial(3, 7)),
    "moreau-lorentz-3": moreau_pair(Lorentz(3)),
    # a non-orthogonal simplicial cone: its Moreau maps run through FaceTable
    "moreau-skew": moreau_pair(Simplicial(np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0],
                                                    [0.0, 0.0, 1.0]]))),
    "minkowski": minkowski_pair(Orthant(3), [1.0, 2.0, 0.5]),
    # a pair whose n is scaled by 0.9, so m + n = I fails off the m-range
    "n-scaled-0.9": RetractionPair("lattice", _BASE.cone_m, _BASE.cone_n, _BASE.m,
                                   lambda X: 0.9 * _BASE.n(X)),
}
LATTICE = {"lattice-skew"}
EXPONENTS = [-990, -700, -512, -300, -40, 14, 20, 100, 498, 512, 531, 664, 800, 990]
N_SAMPLES = 200


@functools.lru_cache(maxsize=None)
def _records(name, k):
    """(key, check, residuals, statuses, threshold) of every check of every
    catalogue key, on the pair's draws scaled by 2^k."""
    scale = np.ldexp(1.0, k)
    records = []
    original = _Check.add

    def add(self, check, residual, inputs, status, res, threshold):
        records.append((self.property_id, check, np.array(res, dtype=float),
                        np.asarray(status), threshold))
        original(self, check, residual, inputs, status, res, threshold)

    def scaled(draw):
        return lambda *args: scale * draw(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Check, "add", add)
        for module in (properties, suprema):
            mp.setattr(module, "gaussian_points", scaled(module.gaussian_points))
        mp.setattr(properties, "cone_members", scaled(properties.cone_members))
        for _, _, runner in CATALOGUE:
            runner(PAIRS[name], N_SAMPLES, 1)
    return records


@pytest.mark.parametrize("k", EXPONENTS)
@pytest.mark.parametrize("name", list(PAIRS))
def test_residuals_across_scales(name, k):
    base, scaled = _records(name, 0), _records(name, k)
    assert [r[:2] for r in scaled] == [r[:2] for r in base]
    for (key, check, res0, status0, threshold), (_, _, res, status, _) in zip(base, scaled):
        label = f"{name} {key} {check} at 2^{k}"
        assert np.isfinite(res).all(), label
        if k >= 0:
            assert (res[status0 == _BAD] > threshold).all(), label
        if name in LATTICE and (key, check) not in DEFECT_MEMBERSHIP:
            assert (status[status0 == _OK] == _OK).all(), label


# The membership residual of a subadditivity defect is relative to
# 1 + |defect|, not to 1 + |x|.  On a lattice pair of a skew cone the defect
# is often rounding noise, which grows with the scale of x while its norm
# stays small, so passing rows land in the band near 2^20 and fail from
# about 2^30.  Making it relative to 1 + |x| changes report bytes.
DEFECT_MEMBERSHIP = {("subadditive-m", "defect-membership"),
                     ("subadditive-n", "defect-membership"),
                     ("subadditivity-defects", "defect-in-range")}


@pytest.mark.xfail(strict=True, reason="defect membership is relative to 1 + |defect|")
def test_lattice_defect_membership_across_scales():
    for (key, check, _, status0, _), (_, _, _, status, _) in zip(_records("lattice-skew", 0),
                                                                 _records("lattice-skew", 30)):
        if (key, check) in DEFECT_MEMBERSHIP:
            assert (status[status0 == _OK] == _OK).all(), f"{key} {check}"


def test_scaled_pairs_have_failing_rows():
    # The failing rows that the scale test follows, at scale 1: every pair but
    # the lattice one has some, and together they cover every norm residual.
    failing = {name: {(key, check) for key, check, _, status, _ in _records(name, 0)
                      if (status == _BAD).any()} for name in PAIRS}
    assert not failing["lattice-skew"]
    assert all(failing[name] for name in PAIRS if name not in LATTICE)
    assert ("positive-part-identities", "sup-distributes") in failing["moreau-lorentz-3"]
    assert ("monotone-sup-commutes", "set-sup") in failing["moreau-skew"]
    assert {("polarity", "sum-and-cross"), ("idempotence", "squared"),
            ("subadditivity-defects", "defect-negation")} <= failing["n-scaled-0.9"]
    assert {("range-kernel", "n-side"),
            ("subadditivity-defects", "member-realized")} <= failing["minkowski"]


# The golden sup config's u and v on its Moreau pair, and lattice pairs.
SUP_CASES = {
    "moreau-lorentz-3": (PAIRS["moreau-lorentz-3"], [1.35, -0.73, 0.51], [0.16, 0.28, -0.1]),
    "lattice-orthant": (lattice_pair(Orthant(3)), [0.9, -1.7, 0.4], [-0.6, 0.3, 1.2]),
    "lattice-skew": (PAIRS["lattice-skew"], [0.9, -1.7, 0.4], [-0.6, 0.3, 1.2]),
}


@pytest.mark.parametrize("k", [300, 600, 1000])
@pytest.mark.parametrize("name", list(SUP_CASES))
def test_sup_trace_scales_exactly(name, k):
    # iterative_sup takes its norms and order checks in units of the largest
    # entry's power of two, so a trace scaled by 2^k has every iterate and
    # gap of the unscaled one times 2^k, bit for bit.
    pair, u, v = SUP_CASES[name]
    base = suprema.iterative_sup(pair, u, v)
    tr = suprema.iterative_sup(pair, np.ldexp(u, k), np.ldexp(v, k))
    assert (tr.status, tr.iterations) == (base.status, base.iterations)
    for got, ref in ((tr.u_iterates, base.u_iterates), (tr.v_iterates, base.v_iterates),
                     ([tr.upper_bound_used], [base.upper_bound_used]),
                     (tr.residuals, base.residuals)):
        assert len(got) == len(ref)
        for a, b in zip(got, ref):
            assert np.ldexp(np.asarray(b), k).tobytes() == np.asarray(a).tobytes()
    if base.result is not None:
        assert np.ldexp(base.result, k).tobytes() == tr.result.tobytes()


@pytest.mark.parametrize("k", [-1070, -600, -300, 300, 600, 1000])
@pytest.mark.parametrize("name", list(SUP_CASES))
def test_sup_trace_json_is_strict(name, k):
    # Below 1 the 1 in each relative tolerance dominates, so the status may
    # differ from the unscaled run's; no norm may over- or underflow, and at
    # 2^-1070 (subnormal entries) the unit of the norms must stay finite.
    pair, u, v = SUP_CASES[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        tr = suprema.iterative_sup(pair, np.ldexp(u, k), np.ldexp(v, k))
    json.dumps(tr.to_json_dict(), allow_nan=False)


@pytest.mark.parametrize("k", [0, 24, 32, 200])
def test_skew_lattice_sup_converges_at_every_scale(k):
    # An order check's residual is relative to the scale of u and v, not to
    # 1 + |hi - lo|: a difference that is rounding noise of u and v, such as
    # w - u1 on the skew cone, reads as rounding at any scale.
    pair = PAIRS["lattice-skew"]
    rng = np.random.default_rng(k)
    for _ in range(100):
        u, v = np.ldexp(rng.standard_normal((2, 3)), k)
        tr = suprema.iterative_sup(pair, u, v)
        assert tr.status == suprema.CONVERGED and tr.certified
