"""Command-line front end: JSON configs in, deterministic reports out.

``_COMMANDS`` declares each command's config keys, flags and report
formats.  Exit codes: 0 all checks pass / converged; 1 a property failed
or the iteration did not certify; 2 usage or configuration error.
Reports are byte-identical for identical (config, seed): they carry no
timestamps and no machine-dependent data.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import properties
from .cones import (ToleranceConfig, _as_int, _json_object, _relative, as_vector,
                    cone_from_json)
from .properties import PASS, catalogue_for, run_catalogue
from .retractions import moreau_pair, pair_from_json
from .sampling import gaussian_points, rng_for
from .suprema import iterative_sup, lex_demo

EXIT_OK, EXIT_VIOLATION, EXIT_USAGE = 0, 1, 2

_DEFAULT_PAIRS = {
    "lattice": {"family": "lattice", "cone": {"type": "orthant", "dim": 4}},
    "moreau": {"family": "moreau", "cone": {"type": "lorentz", "dim": 3}},
    "minkowski": {"family": "minkowski", "cone": {"type": "orthant", "dim": 3},
                  "interior_point": [1.0, 1.0, 1.0]},
}

# The config key each flag fills, where it is not the flag's own name.
_FLAG_KEYS = {"out": "output", "tol": "tolerances"}


def _inputs(args):
    """The run's one input object: the config, with each flag that was given
    in place of its key (``--tol`` as all three tolerances) and the pair of
    ``--pair`` where the config has none, checked against the keys that the
    command, or for ``demo`` the demo of that name, reads."""
    config = {}
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
        _json_object(config, "config", optional=None)
    declared = config.get("command", args.command)
    if declared != args.command:
        raise ValueError(f"config declares command {declared!r}, invoked as {args.command!r}")
    flags = {_FLAG_KEYS.get(dest, dest): value for dest, value in vars(args).items()
             if value is not None and dest not in ("command", "config", "pair")}
    if "tolerances" in flags:
        flags["tolerances"] = dict.fromkeys(ToleranceConfig().to_json_dict(), flags["tolerances"])
    inputs = {**config, **flags}
    if getattr(args, "pair", None) is not None:
        inputs.setdefault("pair", _DEFAULT_PAIRS[args.pair])
    spec = _COMMANDS[args.command]
    _json_object(inputs, args.command, spec.required, _COMMON_KEYS + spec.optional,
                 tag=spec.tag, kinds=spec.kinds)
    return inputs


def _samples_seed(inputs):
    """Sample count (>= 1) and seed (>= 0), by default 1000 and 0."""
    return (_as_int(inputs.get("samples", 1000), "samples", 1),
            _as_int(inputs.get("seed", 0), "seed", 0))


def _dump_json(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


_MARKS = {"pass": "✓", "fail": "✗", "inconclusive": "?"}


def _human_verify(report):
    lines = [f"pair: {json.dumps(report['pair'], sort_keys=True)}",
             f"samples: {report['samples']}  seed: {report['seed']}"]
    for rep in report["reports"]:
        mark = _MARKS.get(rep["verdict"], "?")
        line = f" {mark} {rep['property']}"
        if rep["witnesses"]:
            w = rep["witnesses"][0]
            parts = [f"{key}={w[key]}" for key in ("x", "y") if key in w]
            line += f"   witness: {', '.join(parts)} residual={w['residual']:.3e}"
        lines.append(line)
    lines.append(f"overall: {report['verdict']}")
    return "\n".join(lines) + "\n"


def cmd_verify(inputs, tol):
    pair = pair_from_json(inputs["pair"], tol=tol)
    samples, seed = _samples_seed(inputs)
    reports = run_catalogue(pair, n_samples=samples, seed=seed)
    ok = all(r.verdict == PASS for r in reports)
    report = {"command": "verify", "pair": pair.descriptor(), "samples": samples,
              "seed": seed, "tolerances": tol.to_json_dict(),
              "catalogue": catalogue_for(pair.family),
              "reports": [r.to_json_dict() for r in reports],
              "verdict": "pass" if ok else "fail"}
    return ok, {"json": lambda: _dump_json(report), "human": lambda: _human_verify(report)}


def _human_sup(trace):
    lines = [f"status: {trace.status}  iterations: {trace.iterations}"]
    if trace.result is not None:
        lines.append(f"result: {trace.result.tolist()}")
    lines += [f"upper bound: {trace.upper_bound_used.tolist()}", f"certified: {trace.certified}"]
    return "\n".join(lines) + "\n"


def cmd_sup(inputs, tol):
    pair = pair_from_json(inputs["pair"], tol=tol)
    u = as_vector(inputs["u"], pair.dim)
    v = as_vector(inputs["v"], pair.dim)
    max_iter = _as_int(inputs.get("max_iter", 100), "max_iter", 1)
    trace = iterative_sup(pair, u, v, max_iter=max_iter)
    report = {"command": "sup", "pair": pair.descriptor(),
              "u": u.tolist(), "v": v.tolist(),
              "tolerances": tol.to_json_dict(), "trace": trace.to_json_dict()}
    return trace.certified, {"json": lambda: _dump_json(report), "csv": trace.to_csv,
                             "human": lambda: _human_sup(trace)}


def _demo_minkowski(samples, seed, tol, descriptor):
    pair = pair_from_json(descriptor, tol=tol)
    if pair.family != "minkowski":
        raise ValueError(f"demo minkowski needs a minkowski pair, got family {pair.family!r}")
    reports = [properties.check_mutual_polarity(pair, samples, seed),
               properties.check_subadditive(pair, "m", samples, seed)]
    generating = pair.cone_m.is_generating()

    # Empirical shape of the n-range: defect coefficients of the order-unit
    # functional, and convexity probes of {x : phi(x) = 0}.
    rng = rng_for(seed, "demo-minkowski")
    X = gaussian_points(rng, samples, pair.dim)
    Y = gaussian_points(rng, samples, pair.dim)
    defect = pair.phi(X) + pair.phi(Y) - pair.phi(X + Y)
    Z1, Z2 = pair.n(X), pair.n(Y)
    phi_rel = _relative(lambda Z: np.abs(pair.phi(Z)), Z1 + Z2)
    n_convex_breaks = int(np.count_nonzero(phi_rel > 10.0 * tol.eps_membership))
    witness = None
    if n_convex_breaks:
        i = int(np.argmax(phi_rel))
        witness = {"z1": Z1[i].tolist(), "z2": Z2[i].tolist(),
                   "phi_of_sum": float(pair.phi(Z1 + Z2)[i])}
    report = {
        "pair": pair.descriptor(),
        "checks": [r.to_json_dict() for r in reports],
        "m_range_generating": bool(generating),
        "defect_coefficient_min": float(defect.min()),
        "n_range_convex": n_convex_breaks == 0,
        "n_range_convexity_breaks": n_convex_breaks,
        "n_range_convexity_witness": witness,
    }
    ok = (all(r.verdict == PASS for r in reports) and not generating
          and float(defect.min()) >= -10.0 * tol.eps_membership)
    return report, ok


_MOREAU_SUBADD_CONES = (
    ("orthant-3", {"type": "orthant", "dim": 3}, True),
    ("lorentz-3", {"type": "lorentz", "dim": 3}, False),
    ("simplicial-2", {"type": "simplicial", "basis": [[1.0, 0.0], [1.0, 1.0]]}, False),
)


def _demo_moreau_subadd(samples, seed, tol):
    rows, ok = [], True
    for label, cone_json, expect_pass in _MOREAU_SUBADD_CONES:
        pair = moreau_pair(cone_from_json(cone_json), tol=tol)
        rep = properties.check_subadditive(pair, "m", samples, seed)
        rows.append({"cone": label, "verdict": rep.verdict,
                     "witnesses": rep.witnesses[:1]})
        ok = ok and rep.verdict == (PASS if expect_pass else "fail")
    return {"table": rows}, ok


def cmd_demo(inputs, tol):
    name = inputs["name"]
    if name == "lex":
        # lex_demo compares exact sequences exactly: it draws nothing and
        # reads no tolerance.
        body = lex_demo()
        ok = bool(body["certified"])
        report = {}
    else:
        samples, seed = _samples_seed(inputs)
        if name == "minkowski":
            body, ok = _demo_minkowski(samples, seed, tol,
                                       inputs.get("pair", _DEFAULT_PAIRS["minkowski"]))
        else:
            body, ok = _demo_moreau_subadd(samples, seed, tol)
        report = {"samples": samples, "seed": seed, "tolerances": tol.to_json_dict()}
    report.update({"command": "demo", "name": name, "report": body,
                   "verdict": "pass" if ok else "fail"})
    human = f"demo {name}: {'certified' if ok else 'NOT certified'}\n"
    return ok, {"json": lambda: _dump_json(report), "human": lambda: human + _dump_json(body)}


def cmd_batch(inputs, tol):
    pairs = inputs["pairs"]
    if not isinstance(pairs, list) or not pairs:
        raise ValueError("batch config must provide a non-empty 'pairs' list")
    samples, seed = _samples_seed(inputs)
    entries = []
    for descriptor in pairs:
        pair = pair_from_json(descriptor, tol=tol)
        reports = run_catalogue(pair, n_samples=samples, seed=seed)
        verdict = "pass" if all(r.verdict == PASS for r in reports) else "fail"
        entries.append({"pair": pair.descriptor(), "verdict": verdict,
                        "reports": [r.to_json_dict() for r in reports]})
    ok = all(entry["verdict"] == "pass" for entry in entries)
    report = {"command": "batch", "samples": samples, "seed": seed,
              "tolerances": tol.to_json_dict(), "entries": entries,
              "verdict": "pass" if ok else "fail"}
    return ok, {"json": lambda: _dump_json(report)}


_COMMON_KEYS = ("command", "output", "format")

# The config keys each demo reads besides the common ones: lex draws nothing
# and reads no tolerance.
_DEMOS = {
    "lex": ((), ()),
    "minkowski": ((), ("samples", "seed", "tolerances", "pair")),
    "moreau-subadd": ((), ("samples", "seed", "tolerances")),
}


@dataclass(frozen=True)
class _Command:
    """A command's inputs: the config keys it needs and may read besides the
    common ones (or, with a ``tag``, the keys of each of its ``kinds``);
    ``samples`` adds --samples and --seed; ``arguments`` are (flags,
    add_argument keywords) pairs.  ``run(inputs, tol)`` returns the verdict
    and a renderer per format."""

    run: Callable
    help: str
    required: tuple
    optional: tuple
    formats: tuple
    pair: bool = False
    samples: bool = False
    arguments: tuple = ()
    tag: str | None = None
    kinds: dict | None = None


_COMMANDS = {
    "verify": _Command(cmd_verify, "run the applicable property catalogue",
                       ("pair",), ("samples", "seed", "tolerances"), ("json", "human"),
                       pair=True, samples=True),
    "sup": _Command(cmd_sup, "iterate the pairwise supremum construction",
                    ("pair", "u", "v"), ("max_iter", "tolerances"), ("json", "csv", "human"),
                    pair=True,
                    arguments=((("--max-iter",), {"dest": "max_iter", "type": int,
                                                  "help": "iteration cap (default 100)"}),)),
    "demo": _Command(cmd_demo, "run a built-in demonstration", (), (), ("json", "human"),
                     samples=True,
                     arguments=((("name",), {"nargs": "?", "choices": tuple(_DEMOS)}),),
                     tag="name", kinds=_DEMOS),
    "batch": _Command(cmd_batch, "verify a list of pair descriptors",
                      ("pairs",), ("samples", "seed", "tolerances"), ("json",), samples=True),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="conelab",
        description="Retraction pairs on convex cones: property verification, "
                    "supremum iteration, and demonstrations.",
        epilog="Property catalogue: " + ", ".join(k for k, _, _ in properties.CATALOGUE)
               + ". Exit codes: 0 pass, 1 violation/non-convergence, 2 usage error.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, spec in _COMMANDS.items():
        p = sub.add_parser(name, help=spec.help)
        for flags, keywords in spec.arguments:
            p.add_argument(*flags, **keywords)
        p.add_argument("--config", help="JSON config path")
        if spec.pair:
            p.add_argument("--pair", choices=sorted(_DEFAULT_PAIRS),
                           help="built-in pair family (used when --config has no pair)")
        if spec.samples:
            p.add_argument("--samples", type=int, help="sample count (default 1000)")
            p.add_argument("--seed", type=int, help="random seed (default 0)")
        p.add_argument("--tol", type=float, help="sets all tolerances (default 1e-8)")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--format", choices=spec.formats, help="report format (default json)")
    return parser


@functools.cache
def _parser():
    """The parser :func:`main` reuses: built once per process, since
    parsing leaves it unchanged."""
    return build_parser()


def _run(args):
    """Build the run's inputs, check the format, build the tolerances, run
    the command and write its report; returns the exit code."""
    inputs = _inputs(args)
    spec = _COMMANDS[args.command]
    fmt = inputs.get("format", "json")
    if fmt not in spec.formats:
        raise ValueError(f"{args.command} writes {', '.join(spec.formats)} reports, "
                         f"not format {fmt!r}")
    out = inputs.get("output")
    if out is not None and not isinstance(out, str):
        raise ValueError(f"output must be a path string, got {out!r}")
    tol = ToleranceConfig.from_json(inputs.get("tolerances", {}))
    ok, renderers = spec.run(inputs, tol)
    text = renderers[fmt]()
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK if ok else EXIT_VIOLATION


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return _run(args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"conelab: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
