"""The benchmark's workloads: seeded inputs, the timed call into conelab, and
checks of every output against facts established apart from the program.

Every workload builds its job list from ``--seed`` alone; a run repeats that
list in whole rounds.  Jobs of one workload are chosen to cost about the
same, with a fixed mix of dimensions, so that the seed moves the numbers
inside each job but not the make-up of the list.

``verify`` jobs are in-process calls of ``conelab.cli.main(["verify", ...])``
(the CLI path minus interpreter start-up); ``sup`` jobs are calls of
``conelab.iterative_sup``.  ``selftest.py`` feeds the checks perturbed
outputs.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Frozen catalogue keys (README of conelab), in report order.
CATALOGUE = ("ranges", "polarity", "idempotence", "range-kernel", "range-negation",
             "subadditive-m", "subadditive-n", "isotone-m", "isotone-n",
             "subadditivity-defects", "positive-part-identities",
             "monotone-sup-commutes")
MOREAU_KEYS = CATALOGUE[:10]

# By Moreau's decomposition and the self-duality of the Lorentz cone these
# hold for the projection pair; by the paper's theorem the pair cannot be
# subadditive on a cone that is not a lattice cone.
LORENTZ_PASSES = ("polarity", "ranges", "idempotence", "range-kernel", "range-negation")
LORENTZ_SUBADDITIVE = ("subadditive-m", "subadditive-n")

# A recomputed witness residual matches the reported one "to rounding".
RESIDUAL_RTOL = 1e-9
RESIDUAL_ATOL = 1e-15

# FaceTable's tie rule lets a smaller face win while it is within about
# 1e-6 of the projection (see README.md), so maps on generator cones are
# checked to ten times that.  A wrong face is off by O(1) and is still
# caught.
MAP_TOL = 1e-5

SUP_RTOL = 1e-8
SUP_MAX_ITER = 2


def _rng(seed, name):
    return np.random.default_rng([int(seed), zlib.crc32(name.encode())])


def _simplicial_basis(rng, dim, cond_cap=100.0):
    """Random square basis with condition number at most ``cond_cap``."""
    while True:
        B = rng.standard_normal((dim, dim))
        sv = np.linalg.svd(B, compute_uv=False)
        if sv[-1] > 0.0 and sv[0] / sv[-1] <= cond_cap:
            return B


def _rotation(rng, dim):
    """Haar-random orthogonal matrix (QR with the sign of R's diagonal fixed)."""
    Q, R = np.linalg.qr(rng.standard_normal((dim, dim)))
    return Q * np.sign(np.diag(R))


def _simplicial_descriptor(family, B):
    # The cone JSON lists generator columns.
    return {"family": family, "cone": {"type": "simplicial", "basis": B.T.tolist()}}


# ----------------------------------------------------------------------------
# Output checks.  Each returns a list of problems; an empty list passes.

def check_verdicts(report, code, keys, expect_pass):
    problems = []
    got = [r["property"] for r in report["reports"]]
    if got != list(keys) or report["catalogue"] != list(keys):
        problems.append(f"catalogue {got} != {list(keys)}")
    failing = [r["property"] for r in report["reports"] if r["verdict"] != "pass"]
    overall = "fail" if failing else "pass"
    if report["verdict"] != overall:
        problems.append(f"overall verdict {report['verdict']!r} disagrees with {failing}")
    if code != (1 if failing else 0):
        problems.append(f"exit code {code} for failing checks {failing}")
    if expect_pass:
        bad = [p for p in failing if p in expect_pass]
        if bad:
            problems.append(f"expected pass: {bad}")
    return problems


def check_lattice_report(report, code):
    """Lattice pair: every catalogue verdict is pass, so the exit code is 0."""
    return check_verdicts(report, code, CATALOGUE, CATALOGUE)


def lorentz_project(x):
    """Metric projection onto {(xbar, t) : |xbar| <= t}."""
    bar, t = x[:-1], x[-1]
    r = float(np.linalg.norm(bar))
    if r <= t:
        return x.copy()
    if r <= -t:
        return np.zeros_like(x)
    a = 0.5 * (r + t)
    return np.append((a / r) * bar, a)


def lorentz_polar_project(x):
    """Projection onto the polar cone, by Moreau's decomposition."""
    return x - lorentz_project(x)


def lorentz_residual(z, negated=False):
    """Relative distance-to-membership formula of the (negated) Lorentz cone."""
    w = -z if negated else z
    return max(0.0, float(np.linalg.norm(w[:-1])) - float(w[-1])) / (1.0 + float(np.linalg.norm(z)))


def _defect(R, x, y):
    return R(x) + R(y) - R(x + y)


# (property, witness check label) -> residual of a witness (x, y).
_LORENTZ_RESIDUALS = {
    ("subadditive-m", "defect-membership"):
        lambda x, y: lorentz_residual(_defect(lorentz_project, x, y)),
    ("subadditive-n", "defect-membership"):
        lambda x, y: lorentz_residual(_defect(lorentz_polar_project, x, y), negated=True),
    ("isotone-m", "image-order"):
        lambda x, y: lorentz_residual(lorentz_project(y) - lorentz_project(x)),
    ("isotone-n", "image-order"):
        lambda x, y: lorentz_residual(lorentz_polar_project(y) - lorentz_polar_project(x),
                                      negated=True),
    ("subadditivity-defects", "defect-in-range"):
        lambda x, y: lorentz_residual(_defect(lorentz_project, x, y)),
}


def _close(mine, reported):
    return abs(mine - reported) <= RESIDUAL_RTOL * abs(reported) + RESIDUAL_ATOL


def check_lorentz_report(report, code):
    """Moreau pair on a Lorentz cone: the Moreau facts pass, subadditivity
    fails, and every witness and shrunk residual recomputes to rounding and
    exceeds 10 eps."""
    problems = check_verdicts(report, code, MOREAU_KEYS, LORENTZ_PASSES)
    verdicts = {r["property"]: r["verdict"] for r in report["reports"]}
    if not any(verdicts.get(p) == "fail" for p in LORENTZ_SUBADDITIVE):
        problems.append("neither subadditive-m nor subadditive-n fails")
    eps = report["tolerances"]["membership"]
    for rep in report["reports"]:
        if rep["verdict"] == "fail" and not rep["witnesses"]:
            problems.append(f"{rep['property']}: fail without witnesses")
        for w in rep["witnesses"]:
            formula = _LORENTZ_RESIDUALS.get((rep["property"], w["check"]))
            if formula is None:
                problems.append(f"{rep['property']}: unexpected witness check {w['check']!r}")
                continue
            for label, sample in (("witness", w), ("shrunk", w.get("shrunk"))):
                if sample is None:
                    problems.append(f"{rep['property']}: witness without shrunk variant")
                    continue
                mine = formula(np.array(sample["x"]), np.array(sample["y"]))
                if not _close(mine, sample["residual"]):
                    problems.append(f"{rep['property']} {label} residual "
                                    f"{sample['residual']!r} != recomputed {mine!r}")
                if not sample["residual"] > 10.0 * eps:
                    problems.append(f"{rep['property']} {label} residual "
                                    f"{sample['residual']!r} <= 10 eps")
    return problems


def check_orthant_pair(M, N, res_m, res_n, X, Q):
    """Moreau pair of the rotated orthant cone(Q) with orthonormal Q:
    m(x) = Q clip(Q^T x), n(x) = -Q clip(-Q^T x), and both images lie in
    their cones, to MAP_TOL relative to 1 + |x|."""
    C = X @ Q
    scale = 1.0 + np.linalg.norm(X, axis=1)
    errors = {"m": np.linalg.norm(M - np.clip(C, 0.0, None) @ Q.T, axis=1) / scale,
              "n": np.linalg.norm(N + np.clip(-C, 0.0, None) @ Q.T, axis=1) / scale,
              "m-membership": np.asarray(res_m), "n-membership": np.asarray(res_n)}
    return [f"{name} off by {float(err.max()):.3e}" for name, err in errors.items()
            if not float(err.max()) <= MAP_TOL]


def sup_reference(B, u, v):
    """Supremum in the order of cone(B): the coordinatewise maximum in basis B."""
    return B @ np.maximum(np.linalg.solve(B, u), np.linalg.solve(B, v))


def check_sup(status, certified, iterations, result, expected):
    problems = []
    if status != "converged" or not certified:
        problems.append(f"status {status!r}, certified {certified}")
    if iterations > SUP_MAX_ITER:
        problems.append(f"{iterations} iterations > {SUP_MAX_ITER}")
    if result is None:
        problems.append("no result")
        return problems
    err = float(np.linalg.norm(result - expected))
    if err > SUP_RTOL * (1.0 + float(np.linalg.norm(expected))):
        problems.append(f"result off the closed form by {err:.3e}")
    return problems


# ----------------------------------------------------------------------------
# Workloads.

def build_pair(conelab, descriptor):
    """Build a pair and evaluate both maps and both memberships once, so that
    lazily built tables exist: the program's set-up for one pair."""
    pair = conelab.pair_from_json(descriptor)
    x = np.ones(pair.dim)
    pair.m(x)
    pair.n(x)
    pair.cone_m.membership_residual(x)
    pair.cone_n.membership_residual(x)
    return pair


@dataclass
class Job:
    index: int
    descriptor: dict
    meta: dict = field(default_factory=dict)
    config: Path | None = None


class VerifyWorkload:
    """Jobs are ``conelab verify`` runs of seeded pair descriptors."""

    name = ""
    samples = 1000
    check_report = None

    def __init__(self, conelab, seed, workdir):
        self.conelab = conelab
        workdir.mkdir(parents=True, exist_ok=True)
        self.report_path = workdir / "report.json"
        self.jobs = self.make_jobs(_rng(seed, self.name))
        for job in self.jobs:
            config = {"command": "verify", "pair": job.descriptor,
                      "samples": self.samples, "seed": job.meta["seed"]}
            job.config = workdir / f"job-{job.index:03d}.json"
            job.config.write_text(json.dumps(config))

    def make_jobs(self, rng):
        raise NotImplementedError

    def setup(self):
        """The program's own set-up for the job list (see ``build_pair``)."""
        for descriptor in {json.dumps(job.descriptor, sort_keys=True): job.descriptor
                           for job in self.jobs}.values():
            build_pair(self.conelab, descriptor)

    def call(self, job):
        return self.conelab.cli.main(["verify", "--config", str(job.config),
                                      "--out", str(self.report_path)])

    def collect(self, job, code):
        return code, self.report_path.read_bytes()

    def check(self, job, output):
        """Problems found in one job's output, and its report statistics."""
        code, raw = output
        report = json.loads(raw)
        stats = {"report_bytes": len(raw),
                 "witnesses": sum(len(r["witnesses"]) for r in report["reports"])}
        return self.check_report(report, code), stats

    @staticmethod
    def same_output(a, b):
        return a == b


class VerifyLattice(VerifyWorkload):
    """Lattice pairs of random simplicial cones, dims 2-8, three per dim."""

    name = "verify-lattice"

    def make_jobs(self, rng):
        jobs = []
        for dim in range(2, 9):
            for _ in range(3):
                B = _simplicial_basis(rng, dim)
                jobs.append(Job(len(jobs), _simplicial_descriptor("lattice", B),
                                {"seed": int(rng.integers(2**31))}))
        return jobs

    check_report = staticmethod(check_lattice_report)


class VerifyWitness(VerifyWorkload):
    """Moreau pairs on Lorentz cones, dims 3-8, two sample seeds per dim."""

    name = "verify-witness"

    def make_jobs(self, rng):
        jobs = []
        for dim in range(3, 9):
            for _ in range(2):
                jobs.append(Job(len(jobs), {"family": "moreau",
                                            "cone": {"type": "lorentz", "dim": dim}},
                                {"seed": int(rng.integers(2**31))}))
        return jobs

    check_report = staticmethod(check_lorentz_report)


class ProjectPolyhedral:
    """Moreau pairs on rotated orthants given by generators, built and
    evaluated through the public API: each job builds the pair (polar by
    double description, projectors on FaceTable) and evaluates m, n and the
    membership of m(x) on a batch of points.

    A cone has d orthogonal generators of unequal length plus r redundant
    interior ones, with (d, r) in (5, 4), (6, 3), (7, 2) so that jobs cost
    about the same; dimension 8 is left out, as even r = 2 gives 1013 face
    subsets and two to three times the cost.  ``verify`` jobs on these cones
    are left out: their verdicts flip with the seed (see README.md).
    """

    name = "project-polyhedral"
    shapes = ((5, 4), (6, 3), (7, 2))
    cones_per_shape = 3
    points = 1000

    def __init__(self, conelab, seed, workdir):
        self.conelab = conelab
        rng = _rng(seed, self.name)
        self.jobs = []
        for dim, redundant in self.shapes:
            for _ in range(self.cones_per_shape):
                Q = _rotation(rng, dim)
                G = (Q * rng.uniform(0.5, 2.0, dim)).T       # rows: length_i * Q[:, i]
                V = np.vstack([G, rng.uniform(0.2, 1.0, (redundant, dim)) @ G])
                self.jobs.append(Job(len(self.jobs),
                                     {"family": "moreau",
                                      "cone": {"type": "generators", "vectors": V.tolist()}},
                                     {"Q": Q, "X": rng.standard_normal((self.points, dim))
                                      / np.sqrt(dim)}))

    def setup(self):
        """The program's own set-up for the job list (see ``build_pair``)."""
        for job in self.jobs:
            build_pair(self.conelab, job.descriptor)

    def call(self, job):
        pair = self.conelab.pair_from_json(job.descriptor)
        X = job.meta["X"]
        M, N = pair.m(X), pair.n(X)
        return M, N, pair.cone_m.membership_residual(M), pair.cone_n.membership_residual(N)

    def collect(self, job, output):
        return output

    def check(self, job, output):
        M, N, res_m, res_n = output
        return check_orthant_pair(M, N, res_m, res_n, job.meta["X"], job.meta["Q"]), {}

    @staticmethod
    def same_output(a, b):
        return all(np.array_equal(x, y) for x, y in zip(a, b))


class SupStream:
    """Single ``iterative_sup(pair, u, v)`` calls on lattice pairs of random
    simplicial cones, dims 1-8, four cones per dim, eight (u, v) per cone."""

    name = "sup-stream"
    cones_per_dim = 4
    calls_per_cone = 8

    def __init__(self, conelab, seed, workdir):
        self.conelab = conelab
        rng = _rng(seed, self.name)
        self.descriptors, self.jobs = [], []
        for dim in range(1, 9):
            for _ in range(self.cones_per_dim):
                B = _simplicial_basis(rng, dim)
                self.descriptors.append(_simplicial_descriptor("lattice", B))
                for _ in range(self.calls_per_cone):
                    u, v = rng.standard_normal(dim), rng.standard_normal(dim)
                    self.jobs.append(Job(len(self.jobs), self.descriptors[-1],
                                         {"pair": len(self.descriptors) - 1, "u": u, "v": v,
                                          "expected": sup_reference(B, u, v)}))
        self.pairs = []

    def setup(self):
        """The program's own set-up: build every lattice pair of the stream."""
        self.pairs = [build_pair(self.conelab, d) for d in self.descriptors]

    def call(self, job):
        return self.conelab.iterative_sup(self.pairs[job.meta["pair"]],
                                          job.meta["u"], job.meta["v"])

    def collect(self, job, trace):
        return trace

    def check(self, job, trace):
        return check_sup(trace.status, trace.certified, trace.iterations, trace.result,
                         job.meta["expected"]), {}

    @staticmethod
    def same_output(a, b):
        return a.to_json_dict() == b.to_json_dict()


WORKLOADS = {cls.name: cls for cls in (VerifyLattice, VerifyWitness, ProjectPolyhedral,
                                       SupStream)}
