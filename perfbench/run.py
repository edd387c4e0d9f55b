#!/usr/bin/env python3
"""Benchmark of the conelab verifier, measured through its public entry points.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify-lattice --seed 1 --seconds 25 --trace 0

One process, one thread, BLAS pinned to one thread.  The seeded job list of
the workload is run in whole rounds by a single caller (a closed loop: each
job starts when the previous one returned and its output was checked) until
``--seconds`` have passed and at least ``MIN_ROUNDS`` rounds are done.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps conelab's
layer boundaries (see spans.py), prints the per-layer metrics per job, and
writes the spans to ``perfbench/out/``.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

import os

# Pin every BLAS back end to one thread before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# Set-up is repeated at least this often and for at least this long; the
# median is reported, so one cold or disturbed repetition does not count.
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 1.0
# A run repeats the job list at least this often, so that every job has a
# median time that a burst of interference on the machine cannot move.
MIN_ROUNDS = 5


def import_conelab():
    """Import conelab from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    conelab = importlib.import_module("conelab")
    importlib.import_module("conelab.cli")
    if Path(conelab.__file__).resolve().parent != src / "conelab":
        raise ImportError(f"conelab imported from {conelab.__file__}, not from {src}")
    return conelab


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_jobs(wl, seconds, tracer, min_rounds=MIN_ROUNDS):
    """Closed loop over whole rounds of the job list.

    Returns job durations (ns), the index in the job list of each, the number
    of failed jobs and per-job report statistics summed over all jobs.
    """
    # Warm-up and reference: job 0 runs once untimed; its output from the
    # first timed round must be identical.
    job0 = wl.jobs[0]
    reference = wl.collect(job0, wl.call(job0))
    if tracer is not None:
        tracer.install(wl.conelab)
    durations, job_ids, failed, totals = [], [], 0, {}
    deadline = time.perf_counter() + seconds
    rounds = 0
    try:
        while rounds < min_rounds or time.perf_counter() < deadline:
            for job in wl.jobs:
                if tracer is not None:
                    tracer.job = len(durations)
                error = None
                t0 = time.perf_counter_ns()
                try:
                    raw = wl.call(job)
                except Exception as exc:  # a job that raises is a failed job
                    error = exc
                durations.append(time.perf_counter_ns() - t0)
                job_ids.append(job.index)
                if tracer is not None:
                    tracer.job = -1
                if error is not None:
                    failed += 1
                    log(f"job {job.index} raised {type(error).__name__}: {error}")
                    continue
                output = wl.collect(job, raw)
                problems, stats = wl.check(job, output)
                if rounds == 0 and job is job0 and not wl.same_output(reference, output):
                    problems.append("job 0 gave different output on its second run")
                for key, value in stats.items():
                    totals[key] = totals.get(key, 0) + value
                if problems:
                    failed += 1
                    log(f"job {job.index} failed its checks: {problems[:3]}")
            rounds += 1
    finally:
        if tracer is not None:
            tracer.uninstall()
    log(f"{len(durations)} jobs in {rounds} rounds of {len(wl.jobs)}")
    return durations, job_ids, failed, totals


def end_to_end(durations, job_ids, setup_times):
    ms = [d * 1e-6 for d in durations]
    by_job = {}
    for job, t in zip(job_ids, ms):
        by_job.setdefault(job, []).append(t)
    # Each job's median over the rounds of the run: a burst of interference
    # on the machine that slows a few rounds does not move it (README.md).
    job_medians = [statistics.median(times) for times in by_job.values()]
    return {
        "jobs_per_s": (len(job_medians) / (sum(job_medians) * 1e-3), "jobs/s"),
        "job_p50_ms": (statistics.median(ms), "ms"),
        "job_tail_ms": (statistics.quantiles(job_medians, n=10, method="inclusive")[8], "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


PER_LAYER_UNITS = {"report_bytes": "B/job", "rows_per_call": "rows/call"}


def per_layer(tracer, n_jobs, totals):
    figures = tracer.per_layer(n_jobs)
    figures["cli.report_bytes"] = totals.get("report_bytes", 0) / n_jobs
    figures["properties.witnesses"] = totals.get("witnesses", 0) / n_jobs
    out = {}
    for name, value in sorted(figures.items()):
        suffix = name.rsplit(".", 1)[1]
        unit = PER_LAYER_UNITS.get(suffix, "s/job" if suffix.endswith("_s") else "count/job")
        out[name] = (value, unit)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    try:
        conelab = import_conelab()
    except ImportError as exc:
        log(f"cannot import conelab from {ROOT / 'src'}: {exc}")
        return 2
    log(f"import conelab + conelab.cli: {time.perf_counter() - t0:.3f} s")

    from spans import Tracer
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        log(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
        return 2

    OUT.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload](conelab, args.seed, OUT / f"work-{args.workload}")
    setup_times = []
    while len(setup_times) < SETUP_MIN_REPEATS or sum(setup_times) < SETUP_MIN_SECONDS:
        t0 = time.perf_counter()
        wl.setup()
        setup_times.append(time.perf_counter() - t0)

    tracer = Tracer() if args.trace else None
    durations, job_ids, failed, totals = run_jobs(wl, args.seconds, tracer)
    metrics = end_to_end(durations, job_ids, setup_times)
    if tracer is not None:
        log(f"traced jobs_per_s = {metrics['jobs_per_s'][0]:.4f}")
        tracer.save(OUT / f"trace-{args.workload}.npz")
        metrics = per_layer(tracer, len(durations), totals)

    result = {"correct": failed == 0, "attempted": len(durations), "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(line + "\n")
    print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
