"""Moreau verdicts against the outcome the paper's theorem predicts.

If a mutually polar pair has generating, sigma-monotone complete ranges and
subadditive maps, then m is the positive part of a lattice cone.  In R^d a
closed generating lattice cone is simplicial (Yudin 1939), and the range of
the Moreau partner is the polar, so the cone is also self-dual: its extreme
rays are pairwise orthogonal.  A Moreau pair on a polyhedral cone therefore
passes the whole catalogue exactly when the cone has ``dim`` pairwise
orthogonal extreme rays, redundant generators allowed.  The isotone keys
have no prediction of their own (Isac & Nemeth 1986), so a failing family
is predicted to fail some key, not each key.
"""

import numpy as np
import pytest

from conelab import (Lorentz, PolyhedralGenerators, PolyhedralHalfspaces,
                     Simplicial, moreau_pair, run_catalogue)

# A rotated orthant of R^3: rows of _Q are orthonormal, rows of _G unequal in length.
_Q = np.linalg.qr(np.random.default_rng(7).standard_normal((3, 3)))[0].T
_G = np.array([0.5, 1.0, 2.0])[:, None] * _Q
_INTERIOR = np.array([[0.3, 0.6, 0.9], [1.0, 0.2, 0.4]])  # positive combinations


def _polygon(n):
    """The self-dual cone over a regular n-gon (n odd): generators
    (r cos 2 pi k/n, r sin 2 pi k/n, 1) with r^2 = 1 / cos(pi/n)."""
    r = np.sqrt(1.0 / np.cos(np.pi / n))
    t = 2.0 * np.pi * np.arange(n) / n
    return PolyhedralGenerators(np.column_stack([r * np.cos(t), r * np.sin(t), np.ones(n)]))


def _all_pass(v):
    return all(verdict == "pass" for verdict in v.values())


def _not_subadditive(v):
    return "fail" in (v["subadditive-m"], v["subadditive-n"])


def _some_fail(v):
    return "fail" in v.values()


FAMILIES = {
    "orthant-generators": (PolyhedralGenerators(np.vstack([_G, _INTERIOR @ _G])), _all_pass),
    # Normals are not square, so the polar goes through the cone's rays.
    "orthant-halfspaces": (PolyhedralHalfspaces(np.vstack([_Q, _INTERIOR @ _Q])), _all_pass),
    "lorentz-2": (Lorentz(2), _all_pass),
    "triangle": (_polygon(3), _all_pass),
    "lorentz-3": (Lorentz(3), _not_subadditive),
    # range(n) = -range(m) holds, so only the subadditivity keys carry the verdict.
    "pentagon": (_polygon(5),
                 lambda v: v["range-negation"] == "pass" and _not_subadditive(v)),
    "skew-basis": (Simplicial(np.eye(3) + 0.01 * np.outer([1, 0, 0], [0, 1, 0])), _some_fail),
    "orthant-plus-one": (PolyhedralGenerators(np.vstack([np.eye(3), [1.0, 1.0, -0.1]])),
                         _some_fail),
}


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("family", list(FAMILIES))
def test_moreau_verdict_matches_theorem(family, seed):
    cone, predicted = FAMILIES[family]
    verdicts = {r.property_id: r.verdict for r in run_catalogue(moreau_pair(cone), 200, seed)}
    assert predicted(verdicts), verdicts


def test_halfspace_orthant_is_the_generator_orthant():
    # Each ray of the halfspace form is one of the unit rows of _Q.
    rays = FAMILIES["orthant-halfspaces"][0]._rays()
    assert len(rays) == 3
    np.testing.assert_allclose(np.sort(rays @ _Q.T, axis=1), [[0.0, 0.0, 1.0]] * 3,
                               atol=1e-12)
