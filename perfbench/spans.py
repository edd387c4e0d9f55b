"""Span tracing for the traced benchmark run.

The program has no tracing of its own, so the benchmark wraps conelab's
functions at the name where callers look them up (a module attribute or a
class attribute) and records one span per call: name, start, end, parent
span and job id.  Spans live in flat in-memory columns while the run lasts
and are written out once, at the end.

Each wrapped name belongs to one layer category; ``per_layer`` turns the
spans into per-job figures.  A span's self time is its duration minus the
durations of its direct child spans (calls are sequential, so children do
not overlap).
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

CLI, PAIR_BUILD, CATALOGUE, CHECK, CHAIN, SUP = range(6)
MAP, MEMBERSHIP, FT_BUILD, FT_PROJECT, DD, DRAW = range(6, 12)


def _rows(x):
    """Row count of a vector (1) or an (n, dim) batch (n)."""
    shape = np.shape(x)
    return 1 if len(shape) <= 1 else shape[0]


class Tracer:
    """Records spans in flat columns; ``job`` tags spans with a job id."""

    def __init__(self):
        self.names = []
        self.category = []
        self.name_col = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.job_col = array("i")
        self.count = array("q")
        self.stack = []
        self.job = -1
        self._patched = []

    def _name_id(self, name, category):
        self.names.append(name)
        self.category.append(category)
        return len(self.names) - 1

    def _open(self, nid, count):
        i = len(self.start)
        self.name_col.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.job_col.append(self.job)
        self.count.append(count)
        self.end.append(0)
        self.stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def _close(self, i):
        self.end[i] = time.perf_counter_ns()
        self.stack.pop()

    def wrap(self, owner, attr, category, count_in=None, count_out=None):
        """Replace ``owner.attr`` by a recording wrapper.

        ``count_in(args)`` or ``count_out(args, result)`` give the span's
        count column (rows, subsets, iterations).
        """
        fn = getattr(owner, attr)
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        nid = self._name_id(label, category)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = tracer._open(nid, count_in(args) if count_in else 0)
            try:
                result = fn(*args, **kwargs)
                if count_out:
                    tracer.count[i] = count_out(args, result)
                return result
            finally:
                tracer._close(i)

        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self, conelab):
        """Wrap the layer boundaries of an imported conelab package."""
        cli, props, sup = conelab.cli, conelab.properties, conelab.suprema
        retr, cones, orc = conelab.retractions, conelab.cones, conelab.oracle
        rows_arg1 = lambda args: _rows(args[1])  # noqa: E731  (self, x)
        rows_out = lambda args, out: _rows(out)  # noqa: E731

        self.wrap(cli, "main", CLI)
        self.wrap(cli, "pair_from_json", PAIR_BUILD)
        self.wrap(conelab, "pair_from_json", PAIR_BUILD)
        self.wrap(cli, "run_catalogue", CATALOGUE)
        for attr in sorted(vars(props)):
            if attr.startswith("check_") and callable(getattr(props, attr)):
                self.wrap(props, attr, CHECK)
        self.wrap(sup, "finite_sigma_continuity_check", CHAIN)
        self.wrap(conelab, "iterative_sup", SUP,
                  count_out=lambda args, trace: trace.iterations)
        self.wrap(retr.RetractionPair, "m", MAP, count_in=rows_arg1)
        self.wrap(retr.RetractionPair, "n", MAP, count_in=rows_arg1)
        for cls in (cones.Orthant, cones.Simplicial, cones.Lorentz,
                    cones.PolyhedralGenerators, cones.PolyhedralHalfspaces):
            self.wrap(cls, "membership_residual", MEMBERSHIP, count_in=rows_arg1)
        self.wrap(orc.FaceTable, "__init__", FT_BUILD,
                  count_out=lambda args, _: len(args[0].subsets))
        self.wrap(orc.FaceTable, "project", FT_PROJECT, count_in=rows_arg1)
        self.wrap(orc, "double_description", DD)
        for module in (props, sup):
            self.wrap(module, "gaussian_points", DRAW, count_out=rows_out)
            self.wrap(module, "cone_members", DRAW, count_out=rows_out)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def columns(self):
        """The recorded spans as numpy arrays."""
        return {"name": np.frombuffer(self.name_col, dtype=np.uint16),
                "start": np.frombuffer(self.start, dtype=np.int64),
                "end": np.frombuffer(self.end, dtype=np.int64),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "job": np.frombuffer(self.job_col, dtype=np.int32),
                "count": np.frombuffer(self.count, dtype=np.int64)}

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names),
                            categories=np.array(self.category), **self.columns())

    def per_layer(self, n_jobs):
        """Layer figures per job, from the spans of ``n_jobs`` traced jobs."""
        col = self.columns()
        n = col["start"].size
        cat = np.array(self.category, dtype=np.int64)[col["name"]] if n else np.zeros(0, int)
        dur = (col["end"] - col["start"]).astype(float) * 1e-9
        parent = col["parent"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_s = dur - child
        rows = col["count"]

        # A replay is a single-row map or membership call made under a check
        # span and outside any suprema span; nested replays count once.
        single_eval = (np.isin(cat, (MAP, MEMBERSHIP)) & (rows == 1)).tolist()
        cats = cat.tolist()
        replay = [False] * n
        under_check = [False] * n
        under_sup = [False] * n
        for i, p in enumerate(parent.tolist()):
            if p < 0:
                continue
            under_check[i] = under_check[p] or cats[p] == CHECK
            under_sup[i] = under_sup[p] or cats[p] in (SUP, CHAIN)
            replay[i] = (single_eval[i] and under_check[i] and not under_sup[i]
                         and not replay[p])
        replay = np.array(replay, dtype=bool)

        def is_(c):
            return cat == c

        def per_job(values):
            return float(np.sum(values)) / n_jobs

        draw_calls = int(np.count_nonzero(is_(DRAW)))
        draw_rows = int(rows[is_(DRAW)].sum())
        return {
            "cli.self_s": per_job(self_s[is_(CLI)]),
            "retractions.pair_build_s": per_job(dur[is_(PAIR_BUILD)]),
            "retractions.pair_builds": per_job(is_(PAIR_BUILD)),
            "retractions.map_calls": per_job(is_(MAP)),
            "retractions.map_rows": per_job(rows[is_(MAP)]),
            "retractions.map_single_row_calls": per_job(is_(MAP) & (rows == 1)),
            "retractions.map_self_s": per_job(self_s[is_(MAP)]),
            "cones.membership_calls": per_job(is_(MEMBERSHIP)),
            "cones.membership_rows": per_job(rows[is_(MEMBERSHIP)]),
            "cones.membership_single_row_calls": per_job(is_(MEMBERSHIP) & (rows == 1)),
            "cones.membership_self_s": per_job(self_s[is_(MEMBERSHIP)]),
            "oracle.facetable_builds": per_job(is_(FT_BUILD)),
            "oracle.facetable_subsets": per_job(rows[is_(FT_BUILD)]),
            "oracle.facetable_build_s": per_job(dur[is_(FT_BUILD)]),
            "oracle.project_calls": per_job(is_(FT_PROJECT)),
            "oracle.project_rows": per_job(rows[is_(FT_PROJECT)]),
            "oracle.project_s": per_job(dur[is_(FT_PROJECT)]),
            "oracle.dd_calls": per_job(is_(DD)),
            "oracle.dd_s": per_job(dur[is_(DD)]),
            "properties.checks": per_job(is_(CHECK)),
            "properties.check_self_s": per_job(self_s[is_(CHECK)]),
            "properties.replay_calls": per_job(replay),
            "properties.replay_s": per_job(dur[replay]),
            "sampling.draw_calls": per_job(is_(DRAW)),
            "sampling.draw_rows": per_job(rows[is_(DRAW)]),
            "sampling.rows_per_call": draw_rows / draw_calls if draw_calls else 0.0,
            "sampling.draw_s": per_job(dur[is_(DRAW)]),
            "suprema.sup_calls": per_job(is_(SUP)),
            "suprema.sup_iterations": per_job(rows[is_(SUP)]),
            "suprema.sup_self_s": per_job(self_s[is_(SUP)]),
            "suprema.chain_check_s": per_job(dur[is_(CHAIN)]),
            "suprema.chain_check_self_s": per_job(self_s[is_(CHAIN)]),
        }
