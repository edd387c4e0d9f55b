#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

For each workload, a short run of its first job must finish with no failed
job; then the same run with a perturbed output (a flipped verdict, an
altered witness residual, a sup result shifted by 1e-6, a map value shifted
by 1e-4) must count every job as failed.  Exits 0 when all cases hold.
"""

import copy
import dataclasses
import json
import sys

import run


class Perturbed:
    """A workload whose collected outputs pass through ``perturb``."""

    def __init__(self, wl, perturb):
        self.wl = wl
        self.perturb = perturb

    def __getattr__(self, name):
        return getattr(self.wl, name)

    def collect(self, job, raw):
        return self.perturb(self.wl.collect(job, raw))


def _edit_report(edit):
    def perturb(output):
        code, raw = output
        report = json.loads(raw)
        edit(report)
        return code, json.dumps(report, sort_keys=True, indent=2).encode()
    return perturb


def _flip_first_verdict(report):
    report["reports"][0]["verdict"] = "fail"


def _alter_witness_residual(report):
    witness = next(w for r in report["reports"] for w in r["witnesses"])
    witness["residual"] *= 1.0 + 1e-6


def _shift_sup_result(trace):
    result = trace.result.copy()
    result[0] += 1e-6
    return dataclasses.replace(trace, result=result)


def _shift_map_value(output):
    M, N, res_m, res_n = copy.deepcopy(output)
    M[0, 0] += 1e-4
    return M, N, res_m, res_n


CASES = (
    ("verify-lattice", "flipped verdict", _edit_report(_flip_first_verdict)),
    ("verify-witness", "altered witness residual", _edit_report(_alter_witness_residual)),
    ("project-polyhedral", "map value shifted by 1e-4", _shift_map_value),
    ("sup-stream", "sup result shifted by 1e-6", _shift_sup_result),
)


def main():
    conelab = run.import_conelab()
    from workloads import WORKLOADS
    ok = True
    for name, label, perturb in CASES:
        wl = WORKLOADS[name](conelab, 0, run.OUT / f"selftest-{name}")
        wl.jobs = wl.jobs[:1]
        wl.setup()
        for case, subject, expect_all_failed in (("unperturbed", wl, False),
                                                 (label, Perturbed(wl, perturb), True)):
            durations, _, failed, _ = run.run_jobs(subject, 0.0, None, min_rounds=10)
            good = failed == (len(durations) if expect_all_failed else 0)
            ok = ok and good
            print(f"{'ok  ' if good else 'FAIL'} {name}: {case}: "
                  f"{failed} of {len(durations)} jobs failed")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
