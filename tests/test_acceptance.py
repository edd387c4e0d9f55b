"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The instance sets are
seeded and deterministic: 100 random simplicial cones of dimensions 1-8
for lattice pairs, and orthants 2-8, second-order cones 3-6, plus 20
random simplicial cones for projection pairs.
"""

import functools
import json
import os
import subprocess
import sys
import time

import numpy as np

from conelab import (Lorentz, Orthant, Simplicial, brute_force_project,
                     closed_form_sup, iterative_sup, lattice_pair,
                     leq, lex_demo, lorentz_reference_project, minkowski_pair,
                     moreau_pair, sample_simplicial)
from conelab.oracle import FaceTable
from conelab.properties import (check_idempotence, check_isotone,
                                check_mutual_polarity, check_range_kernel,
                                check_range_negation, check_subadditive,
                                check_subadditivity_defect_sets)
from conelab.sampling import gaussian_points, rng_for

SAMPLES = 1000
COND_CAP = 20.0


def _verdict(num, ok, desc):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


@functools.lru_cache(maxsize=1)
def lattice_instances():
    return tuple(lattice_pair(sample_simplicial(1 + i % 8, 1000 + i, cond_cap=COND_CAP))
                 for i in range(100))


@functools.lru_cache(maxsize=1)
def moreau_instances():
    cones = [Orthant(d) for d in range(2, 9)]
    cones += [Lorentz(d) for d in range(3, 7)]
    cones += [sample_simplicial(1 + i % 8, 2000 + i, cond_cap=COND_CAP) for i in range(20)]
    return tuple(moreau_pair(c) for c in cones)


def test_criterion_1_mutual_polarity_suite():
    t0 = time.monotonic()
    ok = True
    for i, pair in enumerate(lattice_instances()):
        rep = check_mutual_polarity(pair, SAMPLES, seed=i)
        ok = ok and rep.verdict == "pass" and rep.samples_run == SAMPLES
    for j, pair in enumerate(moreau_instances()):
        rep = check_mutual_polarity(pair, SAMPLES, seed=j)
        ok = ok and rep.verdict == "pass" and rep.samples_run == SAMPLES
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    _verdict(1, ok, f"polarity residuals <= 1e-8*(1+|x|) on 131 instances x {SAMPLES} "
                    f"samples in {elapsed:.1f}s (< 60s)")


def test_criterion_2_idempotence_and_range_kernel():
    ok = True
    for i, pair in enumerate(lattice_instances() + moreau_instances()):
        rep = check_idempotence(pair, SAMPLES, seed=i)
        ok = ok and rep.verdict == "pass"
        rep2 = check_range_kernel(pair, SAMPLES, seed=i)
        ok = ok and rep2.verdict == "pass"
    _verdict(2, ok, "idempotence <= 1e-8*(1+|x|) and range/kernel equivalence "
                    "(both directions) on the full instance set")


def test_criterion_3_negation_isotonicity_defects_lattice():
    ok = True
    for i, pair in enumerate(lattice_instances()):
        for rep in (check_range_negation(pair, SAMPLES, seed=i),
                    check_isotone(pair, "m", SAMPLES, seed=i),
                    check_isotone(pair, "n", SAMPLES, seed=i)):
            ok = ok and rep.verdict == "pass" and rep.witnesses == []
        defects = check_subadditivity_defect_sets(pair, SAMPLES, seed=i)
        ok = ok and defects.verdict == "pass" and defects.witnesses == []
    # the n-defect / m-defect cancellation at 1e-12 absolute, asserted directly
    for pair in lattice_instances()[:20]:
        rng = rng_for(37, "defect-algebra")
        X = gaussian_points(rng, SAMPLES, pair.dim)
        Y = gaussian_points(rng, SAMPLES, pair.dim)
        dm = pair.m(X) + pair.m(Y) - pair.m(X + Y)
        dn = pair.n(X) + pair.n(Y) - pair.n(X + Y)
        ok = ok and float(np.abs(dn + dm).max()) <= 1e-12
    _verdict(3, ok, "range negation, isotonicity (zero witnesses), defect sets in the "
                    "m-range, and n-defect = -m-defect to 1e-12 absolute")


def test_criterion_4_supremum_iteration_vs_closed_form():
    t0 = time.monotonic()
    ok = True
    for i, pair in enumerate(lattice_instances()):
        cone = pair.cone_m
        dim = pair.dim
        rng = rng_for(i, "criterion-4")
        U = rng.standard_normal((100, dim))
        V = rng.standard_normal((100, dim))
        for u, v in zip(U, V):
            tr = iterative_sup(pair, u, v)
            ref = closed_form_sup(cone, u, v)
            ok = ok and tr.status == "converged" and tr.iterations <= 2
            ok = ok and tr.certified
            ok = ok and float(np.linalg.norm(tr.result - ref)) <= 1e-8 * (1.0 + float(np.linalg.norm(ref)))
            # trace monotonicity recomputed from the stored iterates
            chain = [u] + tr.u_iterates + [tr.upper_bound_used]
            ok = ok and all(leq(cone, a, b) for a, b in zip(chain, chain[1:]))
            ok = ok and all(leq(cone, vk, tr.upper_bound_used) for vk in tr.v_iterates)
            if not ok:
                break
        if not ok:
            break
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 30.0
    _verdict(4, ok, f"supremum iteration: <= 2 rounds, matches the closed form to 1e-8, "
                    f"monotone and bounded traces on 10^4 runs in {elapsed:.1f}s (< 30s)")


def test_criterion_5_projection_oracle_equivalence():
    ok = True
    rng = rng_for(5, "criterion-5")
    for d in (2, 3, 5, 8):
        X = gaussian_points(rng, SAMPLES, d)
        table = FaceTable(np.eye(d))
        closed = np.clip(X, 0.0, None)
        for x, c in zip(X, closed):
            cert = brute_force_project(table, x, eps=1e-8)
            ok = ok and float(np.linalg.norm(cert.point - c)) <= 1e-9 * (1.0 + float(np.linalg.norm(x)))
        if not ok:
            break
    for d in (3, 4, 6):
        pair = moreau_pair(Lorentz(d))
        X = gaussian_points(rng, SAMPLES, d)
        closed = pair.m(X)
        for x, c in zip(X, closed):
            ref = lorentz_reference_project(x)
            ok = ok and float(np.linalg.norm(ref - c)) <= 1e-9 * (1.0 + float(np.linalg.norm(x)))
        if not ok:
            break
    # Moreau identity: orthogonal summands reconstructing the squared norm
    for cone in (Orthant(3), Orthant(6), Lorentz(3), Lorentz(5)):
        pair = moreau_pair(cone)
        X = gaussian_points(rng, SAMPLES, cone.dim)
        M, N = pair.m(X), pair.n(X)
        scale = 1.0 + np.einsum("ij,ij->i", X, X)
        ok = ok and bool(np.all(np.abs(np.einsum("ij,ij->i", M, N)) <= 1e-9 * scale))
        gap = np.abs(np.einsum("ij,ij->i", X, X) - np.einsum("ij,ij->i", M, M)
                     - np.einsum("ij,ij->i", N, N))
        ok = ok and bool(np.all(gap <= 1e-9 * scale))
    _verdict(5, ok, "closed-form orthant/second-order projections match the enumeration "
                    "oracle to 1e-9; orthogonal decomposition identities to 1e-9")


def test_criterion_6_subadditivity_orthant_criterion():
    pair_orthant = moreau_pair(Orthant(3))
    rep = check_subadditive(pair_orthant, "m", 10_000, seed=0)
    ok = rep.verdict == "pass" and rep.witnesses == []
    for cone in (Lorentz(3), Simplicial(np.array([[1.0, 1.0], [0.0, 1.0]]))):
        pair = moreau_pair(cone)
        rep = check_subadditive(pair, "m", 10_000, seed=0)
        ok = ok and rep.verdict == "fail" and len(rep.witnesses) > 0
        w = rep.witnesses[0]
        x, y = np.array(w["x"]), np.array(w["y"])
        defect = pair.m(x) + pair.m(y) - pair.m(x + y)
        residual = float(pair.cone_m.membership_residual(defect))
        ok = ok and residual > 1e-6 and abs(residual - w["residual"]) <= 1e-12
    _verdict(6, ok, "projection subadditivity: zero witnesses on the orthant (10^4 "
                    "samples), verified witnesses (> 1e-6) on the second-order and "
                    "non-orthogonal simplicial cones at seed 0")


def test_criterion_7_order_unit_pair_shadow():
    pair = minkowski_pair(Orthant(3), [1.0, 1.0, 1.0])
    rep_pol = check_mutual_polarity(pair, SAMPLES, seed=0)
    rep_sub = check_subadditive(pair, "m", SAMPLES, seed=0)
    ok = rep_pol.verdict == "pass" and rep_sub.verdict == "pass"
    ok = ok and pair.cone_m.is_generating() is False
    _verdict(7, ok, "order-unit pair on the 3-orthant: polarity and m-subadditivity "
                    "pass, m-range is not generating")


def test_criterion_8_lexicographic_demo():
    t0 = time.monotonic()
    rep = lex_demo()
    elapsed = time.monotonic() - t0
    ok = rep["certified"] and rep["chain_increasing"] and len(rep["candidates"]) == 10
    for row in rep["candidates"]:
        ok = ok and row["is_upper_bound"] and row["smaller_is_upper_bound"] \
            and row["strictly_smaller"]
    ok = ok and elapsed < 1.0
    _verdict(8, ok, f"lexicographic chain of 100 terms, 10 candidate bounds each with a "
                    f"strictly smaller upper bound, in {elapsed:.3f}s (< 1s)")


def test_criterion_9_deterministic_reports(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "command": "verify",
        "pair": {"family": "moreau",
                 "cone": {"type": "simplicial", "basis": [[1.0, 0.0], [1.0, 1.0]]}},
        "samples": 500, "seed": 42,
    }))
    blobs = []
    for run, cap in ((1, "1"), (2, "1"), (3, "4")):
        out = tmp_path / f"rep{run}.json"
        env = dict(os.environ, CONELAB_THREADS=cap)
        proc = subprocess.run([sys.executable, "-m", "conelab", "verify",
                               "--config", str(cfg), "--out", str(out)],
                              capture_output=True, env=env)
        blobs.append(out.read_bytes())
    ok = blobs[0] == blobs[1] == blobs[2] and len(blobs[0]) > 0
    _verdict(9, ok, "verify reports byte-identical across repeated runs and across "
                    "parallelism caps")
