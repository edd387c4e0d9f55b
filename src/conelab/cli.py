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
from .cones import ToleranceConfig, _as_int, _relative, as_vector, cone_from_json
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

_DEMO_NAMES = ("lex", "minkowski", "moreau-subadd")


def _load_config(path, command):
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError("config must be a JSON object")
    spec = _COMMANDS[command]
    allowed = _COMMON_KEYS | spec.keys | ({"samples", "seed"} if spec.samples else set())
    unknown = set(obj) - allowed
    if unknown:
        raise ValueError(f"unknown config keys for {command}: {sorted(unknown)}")
    declared = obj.get("command")
    if declared is not None and declared != command:
        raise ValueError(f"config declares command {declared!r}, invoked as {command!r}")
    return obj


def _tolerances(config, args):
    if args.tol is not None:
        return ToleranceConfig(eps_membership=args.tol, eps_equal=args.tol,
                               eps_converge=args.tol)
    if "tolerances" in config:
        return ToleranceConfig.from_json(config["tolerances"])
    return ToleranceConfig()


def _pair(config, args, tol):
    """The pair of the config, else the built-in pair named by --pair."""
    descriptor = config.get("pair")
    if descriptor is None:
        if args.pair is None:
            raise ValueError(f"{args.command} needs --config with a 'pair' entry "
                             "or --pair FAMILY")
        descriptor = _DEFAULT_PAIRS[args.pair]
    return pair_from_json(descriptor, tol=tol)


def _samples_seed(config, args):
    """Sample count (>= 1) and seed (>= 0); the command line wins over the config."""
    samples = args.samples if args.samples is not None else config.get("samples", 1000)
    seed = args.seed if args.seed is not None else config.get("seed", 0)
    return _as_int(samples, "samples", 1), _as_int(seed, "seed", 0)


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


def cmd_verify(config, args, tol):
    pair = _pair(config, args, tol)
    samples, seed = _samples_seed(config, args)
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


def cmd_sup(config, args, tol):
    pair = _pair(config, args, tol)
    if "u" not in config or "v" not in config:
        raise ValueError("sup config must provide vectors 'u' and 'v'")
    u = as_vector(config["u"], pair.dim)
    v = as_vector(config["v"], pair.dim)
    max_iter = _as_int(args.max_iter if args.max_iter is not None
                       else config.get("max_iter", 100), "max_iter", 1)
    trace = iterative_sup(pair, u, v, max_iter=max_iter)
    report = {"command": "sup", "pair": pair.descriptor(),
              "u": u.tolist(), "v": v.tolist(),
              "tolerances": tol.to_json_dict(), "trace": trace.to_json_dict()}
    return trace.certified, {"json": lambda: _dump_json(report), "csv": trace.to_csv,
                             "human": lambda: _human_sup(trace)}


def _demo_minkowski(samples, seed, tol, descriptor):
    pair = pair_from_json(descriptor, tol=tol)
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


def cmd_demo(config, args, tol):
    name = args.name or config.get("name")
    if name not in _DEMO_NAMES:
        raise ValueError(f"unknown demo: {name!r} (choose from {', '.join(_DEMO_NAMES)})")
    if "pair" in config and name != "minkowski":
        raise ValueError(f"demo {name} reads no 'pair'; only demo minkowski does")
    if name == "lex":
        # lex_demo compares exact sequences exactly: it draws nothing and
        # reads no tolerance.
        given = ([key for key in ("samples", "seed", "tolerances") if key in config]
                 + [f"--{flag}" for flag in ("samples", "seed", "tol")
                    if getattr(args, flag) is not None])
        if given:
            raise ValueError(f"demo lex reads no samples, seed or tolerances, "
                             f"got {', '.join(given)}")
        body = lex_demo()
        ok = bool(body["certified"])
        report = {}
    else:
        samples, seed = _samples_seed(config, args)
        if name == "minkowski":
            body, ok = _demo_minkowski(samples, seed, tol,
                                       config.get("pair") or _DEFAULT_PAIRS["minkowski"])
        else:
            body, ok = _demo_moreau_subadd(samples, seed, tol)
        report = {"samples": samples, "seed": seed, "tolerances": tol.to_json_dict()}
    report.update({"command": "demo", "name": name, "report": body,
                   "verdict": "pass" if ok else "fail"})
    human = f"demo {name}: {'certified' if ok else 'NOT certified'}\n"
    return ok, {"json": lambda: _dump_json(report), "human": lambda: human + _dump_json(body)}


def cmd_batch(config, args, tol):
    pairs = config.get("pairs")
    if not isinstance(pairs, list) or not pairs:
        raise ValueError("batch config must provide a non-empty 'pairs' list")
    samples, seed = _samples_seed(config, args)
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


_COMMON_KEYS = {"command", "tolerances", "output", "format"}


@dataclass(frozen=True)
class _Command:
    """A command's inputs.  ``samples`` adds --samples, --seed and their
    config keys; ``arguments`` are (flags, add_argument keywords) pairs.
    ``run(config, args, tol)`` returns the verdict and a renderer per format."""

    run: Callable
    help: str
    keys: frozenset
    formats: tuple
    pair: bool = False
    samples: bool = False
    arguments: tuple = ()


_COMMANDS = {
    "verify": _Command(cmd_verify, "run the applicable property catalogue",
                       frozenset({"pair"}), ("json", "human"), pair=True, samples=True),
    "sup": _Command(cmd_sup, "iterate the pairwise supremum construction",
                    frozenset({"pair", "u", "v", "max_iter"}), ("json", "csv", "human"),
                    pair=True,
                    arguments=((("--max-iter",), {"dest": "max_iter", "type": int,
                                                  "help": "iteration cap (default 100)"}),)),
    "demo": _Command(cmd_demo, "run a built-in demonstration",
                     frozenset({"name", "pair"}), ("json", "human"), samples=True,
                     arguments=((("name",), {"nargs": "?", "choices": _DEMO_NAMES}),)),
    "batch": _Command(cmd_batch, "verify a list of pair descriptors",
                      frozenset({"pairs"}), ("json",), samples=True),
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
    """Load the config, check the format, build the tolerances, run the
    command and write its report; returns the exit code."""
    spec = _COMMANDS[args.command]
    config = _load_config(args.config, args.command)
    fmt = args.format or config.get("format", "json")
    if fmt not in spec.formats:
        raise ValueError(f"{args.command} writes {', '.join(spec.formats)} reports, "
                         f"not format {fmt!r}")
    out = args.out or config.get("output")
    if out is not None and not isinstance(out, str):
        raise ValueError(f"output must be a path string, got {out!r}")
    tol = _tolerances(config, args)
    ok, renderers = spec.run(config, args, tol)
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


if __name__ == "__main__":
    sys.exit(main())
