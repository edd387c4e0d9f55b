import numpy as np
import pytest

from conelab import (Lorentz, Orthant, Simplicial, closed_form_sup,
                     finite_sigma_continuity_check, iterative_sup, lattice_pair, leq,
                     lex_demo, lex_leq, lex_lt, moreau_pair, sample_simplicial, sup_m)
from conelab.properties import _sup_commutes
from conelab.sampling import cone_members, gaussian_points, rng_for

SIMP = Simplicial(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_orthant_sup_two_rounds():
    pair = lattice_pair(Orthant(2))
    tr = iterative_sup(pair, [1.0, 0.0], [0.0, 1.0])
    assert tr.status == "converged"
    assert tr.iterations <= 2
    np.testing.assert_allclose(tr.result, [1.0, 1.0])
    assert tr.certified


def test_simplicial_sup_matches_closed_form():
    pair = lattice_pair(SIMP)
    tr = iterative_sup(pair, [1.0, 0.0], [1.0, 1.0])
    np.testing.assert_allclose(tr.result, [2.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(closed_form_sup(SIMP, [1.0, 0.0], [1.0, 1.0]), [2.0, 1.0])


def test_equal_inputs_converge_immediately():
    pair = lattice_pair(Orthant(3))
    tr = iterative_sup(pair, [0.3, -0.2, 0.1], [0.3, -0.2, 0.1])
    assert tr.status == "converged" and tr.iterations == 1
    np.testing.assert_allclose(tr.result, [0.3, -0.2, 0.1], atol=1e-14)


def test_closed_form_sup_examples():
    np.testing.assert_allclose(closed_form_sup(Orthant(2), [1.0, 0.0], [0.0, 1.0]), [1.0, 1.0])
    # u below v: the supremum is v
    u = SIMP.basis @ np.array([0.1, 0.2])
    v = u + SIMP.basis @ np.array([0.5, 0.3])
    np.testing.assert_allclose(closed_form_sup(SIMP, u, v), v, atol=1e-12)
    with pytest.raises(ValueError):
        closed_form_sup(Lorentz(3), [0.0, 0.0, 1.0], [0.0, 0.0, 2.0])


def test_trace_monotone_and_bounded():
    pair = lattice_pair(sample_simplicial(4, 44, cond_cap=20.0))
    rng = rng_for(7, "trace")
    for _ in range(20):
        u = gaussian_points(rng, 1, 4)[0]
        v = gaussian_points(rng, 1, 4)[0]
        tr = iterative_sup(pair, u, v)
        assert tr.status == "converged"
        w = tr.upper_bound_used
        chain_u = [u] + tr.u_iterates
        for a, b in zip(chain_u, chain_u[1:]):
            assert leq(pair.cone_m, a, b)
        chain_v = [v] + tr.v_iterates
        for a, b in zip(chain_v, chain_v[1:]):
            assert leq(pair.cone_m, a, b)
        for it in tr.u_iterates + tr.v_iterates:
            assert leq(pair.cone_m, it, w)


def test_trace_interleaving_identities():
    # v_k = M_v(u_k) and u_{k+1} = M_u(v_k) replay exactly from the trace
    pair = lattice_pair(SIMP)
    u, v = np.array([0.4, -1.2]), np.array([-0.3, 0.8])
    tr = iterative_sup(pair, u, v)
    m_u = lambda x: u + pair.m(x - u)  # noqa: E731
    m_v = lambda x: v + pair.m(x - v)  # noqa: E731
    for k, vk in enumerate(tr.v_iterates):
        np.testing.assert_array_equal(vk, m_v(tr.u_iterates[k]))
        np.testing.assert_array_equal(tr.u_iterates[k + 1], m_u(vk))


def test_fixed_point_residual_small():
    pair = lattice_pair(Orthant(5))
    rng = rng_for(8, "fixed-point")
    u = gaussian_points(rng, 1, 5)[0]
    v = gaussian_points(rng, 1, 5)[0]
    tr = iterative_sup(pair, u, v)
    assert tr.fixed_point_residual <= 1e-12


def test_sup_agreement_random_cones():
    rng = rng_for(9, "agreement")
    for i in range(10):
        dim = 1 + i % 6
        cone = sample_simplicial(dim, 500 + i, cond_cap=20.0)
        pair = lattice_pair(cone)
        for _ in range(20):
            u = gaussian_points(rng, 1, dim)[0]
            v = gaussian_points(rng, 1, dim)[0]
            tr = iterative_sup(pair, u, v)
            assert tr.status == "converged" and tr.iterations <= 2
            ref = closed_form_sup(cone, u, v)
            assert np.linalg.norm(tr.result - ref) <= 1e-8 * (1.0 + np.linalg.norm(ref))


@pytest.mark.parametrize("dim", range(1, 9))
def test_sup_m_matches_closed_form_on_lattice_pairs(dim):
    rng = rng_for(dim, "sup-m")
    X = gaussian_points(rng, 200, dim)
    Y = gaussian_points(rng, 200, dim)
    for cone in (Orthant(dim), sample_simplicial(dim, 60 + dim, cond_cap=20.0)):
        S = sup_m(lattice_pair(cone), X, Y)
        ref = np.array([closed_form_sup(cone, x, y) for x, y in zip(X, Y)])
        err = np.linalg.norm(S - ref, axis=1)
        assert np.all(err <= 1e-12 * np.linalg.norm(ref, axis=1))


def test_sup_result_minimal_among_sampled_bounds():
    cone = sample_simplicial(3, 77, cond_cap=20.0)
    pair = lattice_pair(cone)
    rng = rng_for(10, "minimality")
    u = gaussian_points(rng, 1, 3)[0]
    v = gaussian_points(rng, 1, 3)[0]
    tr = iterative_sup(pair, u, v)
    bounds = closed_form_sup(cone, u, v) + cone_members(cone, rng, 1000)
    for w in bounds:
        assert leq(pair.cone_m, tr.result, w)


def test_exploratory_run_records_without_asserting():
    pair = moreau_pair(Lorentz(3))
    rng = rng_for(11, "exploratory")
    statuses = set()
    for _ in range(40):
        u = gaussian_points(rng, 1, 3)[0]
        v = gaussian_points(rng, 1, 3)[0]
        tr = iterative_sup(pair, u, v, max_iter=60)
        statuses.add(tr.status)
        if tr.status == "converged":
            assert tr.result is not None
        else:
            assert tr.result is None
    # the non-lattice pair must break the lattice contract at least sometimes
    assert "diverged" in statuses or "max_iter" in statuses


def test_max_iter_validation():
    with pytest.raises(ValueError):
        iterative_sup(lattice_pair(Orthant(2)), [1.0, 0.0], [0.0, 1.0], max_iter=0)


def test_lex_order_primitives():
    assert lex_leq((0.0, 3.0), (0.0, 4.0))
    assert not lex_leq((0.0, 6.0), (0.0, 5.0))
    assert lex_leq((0.0, 100.0), (1.0, -50.0))
    assert lex_lt((1.0, -1.0), (1.0, 0.0))
    assert not lex_lt((1.0, 0.0), (1.0, 0.0))


def test_lex_demo_certifies():
    rep = lex_demo()
    assert rep["certified"] and rep["chain_increasing"]
    assert len(rep["candidates"]) == 10
    for row in rep["candidates"]:
        assert row["is_upper_bound"]
        assert row["smaller_is_upper_bound"]
        assert row["strictly_smaller"]


def test_lex_demo_upper_bound_requires_positive_first_coordinate():
    # (0, 5) is not an upper bound of the chain: term (0, 6) exceeds it
    assert not lex_leq((0.0, 6.0), (0.0, 5.0))


def test_finite_sigma_orthant_example():
    pair = lattice_pair(Orthant(2))
    chain = [np.array([-1.0, -1.0]), np.array([0.0, -1.0]), np.array([1.0, 1.0])]
    sup_chain = np.maximum.reduce(chain)
    np.testing.assert_allclose(sup_chain, [1.0, 1.0])
    images = [pair.m(a) for a in chain]
    np.testing.assert_allclose(np.maximum.reduce(images), pair.m(sup_chain))


def test_finite_sigma_checker():
    rep = finite_sigma_continuity_check(lattice_pair(sample_simplicial(4, 3)), 48, seed=2)
    assert rep.verdict == "pass" and rep.samples_run == 6
    rep1 = finite_sigma_continuity_check(lattice_pair(Orthant(2)), 1, seed=0)
    assert rep1.verdict == "pass" and rep1.samples_run == 1


def _sup_commutes_reference(pair, sets):
    """The sup-commutes residual of each set, folded one set at a time as
    1-D vectors."""
    residuals = np.zeros(len(sets))
    for c, S in enumerate(sets):
        sup_set, sup_images = S[0], pair.m(S[0])
        for x in S[1:]:
            sup_set = sup_m(pair, sup_set, x)
            sup_images = sup_m(pair, sup_images, pair.m(x))
        scale = 1.0 + max(float(np.linalg.norm(x)) for x in S)
        residuals[c] = float(np.linalg.norm(pair.m(sup_set) - sup_images)) / scale
    return residuals


@pytest.mark.parametrize("dim", range(1, 9))
def test_chain_residuals_match_per_row_reference(dim):
    # Each row of the batch is one set; the fold's partial suprema are its chain.
    pairs = [lattice_pair(Orthant(dim)),
             lattice_pair(sample_simplicial(dim, 40 + dim, cond_cap=20.0))]
    pairs += [moreau_pair(Lorentz(dim))] if dim >= 2 else []
    for pair in pairs:
        for set_size in (1, 8):
            S = gaussian_points(rng_for(dim, "sets"), 50 * set_size, dim)
            S = S.reshape(50, set_size, dim)
            # On lattice pairs both residuals are rounding noise of a few ulps
            # of 1 + max |x| (up to 4.5e-15 on the simplicial ones), and the
            # batched matmuls round differently from the 1-D ones; on
            # Lorentz(d >= 3) the residual is about 0.1.
            np.testing.assert_allclose(_sup_commutes(pair, S), _sup_commutes_reference(pair, S),
                                       rtol=1e-12, atol=1e-14)


def test_trace_json_and_csv():
    pair = lattice_pair(Orthant(2))
    tr = iterative_sup(pair, [1.0, 0.0], [0.0, 1.0])
    d = tr.to_json_dict()
    assert d["status"] == "converged"
    assert d["result"] == [1.0, 1.0]
    assert d["contracts"]["result_is_upper_bound"] is True
    csv = tr.to_csv()
    lines = csv.strip().splitlines()
    assert lines[0].startswith("step,u0,u1,v0,v1")
    assert len(lines) == 1 + len(tr.u_iterates)
