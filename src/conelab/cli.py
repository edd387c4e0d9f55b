"""Command-line front end: JSON configs in, deterministic reports out.

Commands
--------
verify  run the property catalogue applicable to a retraction pair
sup     run the supremum iteration for two vectors
demo    lex | minkowski | moreau-subadd
batch   run verify over a list of pair descriptors

Exit codes: 0 all checks pass / converged; 1 a property failed or the
iteration did not certify; 2 usage or configuration error.  Reports are
byte-identical for identical (config, seed): they carry no timestamps and
no machine-dependent data.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import properties
from .cones import ToleranceConfig, _as_int, as_vector, cone_from_json, is_generating
from .properties import PASS, catalogue_for, run_catalogue
from .retractions import moreau_pair, pair_from_json
from .suprema import iterative_sup, lex_demo

EXIT_OK, EXIT_VIOLATION, EXIT_USAGE = 0, 1, 2

_DEFAULT_PAIRS = {
    "lattice": {"family": "lattice", "cone": {"type": "orthant", "dim": 4}},
    "moreau": {"family": "moreau", "cone": {"type": "lorentz", "dim": 3}},
    "minkowski": {"family": "minkowski", "cone": {"type": "orthant", "dim": 3},
                  "interior_point": [1.0, 1.0, 1.0]},
}

_DEMO_NAMES = ("lex", "minkowski", "moreau-subadd")


def _load_config(path, allowed, command):
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError("config must be a JSON object")
    unknown = set(obj) - allowed
    if unknown:
        raise ValueError(f"unknown config keys for {command}: {sorted(unknown)}")
    declared = obj.get("command")
    if declared is not None and declared != command:
        raise ValueError(f"config declares command {declared!r}, invoked as {command!r}")
    return obj


def _tolerances(config, args):
    if getattr(args, "tol", None) is not None:
        eps = float(args.tol)
        return ToleranceConfig(eps_membership=eps, eps_equal=eps, eps_converge=eps)
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


def _write_output(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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


def cmd_verify(args):
    config = _load_config(args.config, {"command", "pair", "samples", "seed",
                                        "tolerances", "output", "format"}, "verify")
    tol = _tolerances(config, args)
    pair = _pair(config, args, tol)
    samples, seed = _samples_seed(config, args)
    fmt = args.format or config.get("format", "json")
    if fmt == "csv":
        raise ValueError("csv output applies to iterate traces only; use json or human")

    reports = run_catalogue(pair, n_samples=samples, seed=seed)
    overall = "pass" if all(r.verdict == PASS for r in reports) else "fail"
    report = {
        "command": "verify",
        "pair": pair.descriptor(),
        "samples": samples,
        "seed": seed,
        "tolerances": tol.to_json_dict(),
        "catalogue": catalogue_for(pair.family),
        "reports": [r.to_json_dict() for r in reports],
        "verdict": overall,
    }
    text = _human_verify(report) if fmt == "human" else _dump_json(report)
    _write_output(text, args.out or config.get("output"))
    return EXIT_OK if overall == "pass" else EXIT_VIOLATION


def cmd_sup(args):
    config = _load_config(args.config, {"command", "pair", "u", "v", "max_iter",
                                        "seed", "tolerances", "output", "format"}, "sup")
    tol = _tolerances(config, args)
    pair = _pair(config, args, tol)
    if "u" not in config or "v" not in config:
        raise ValueError("sup config must provide vectors 'u' and 'v'")
    u = as_vector(config["u"], pair.dim)
    v = as_vector(config["v"], pair.dim)
    max_iter = _as_int(args.max_iter if args.max_iter is not None
                       else config.get("max_iter", 100), "max_iter", 1)

    trace = iterative_sup(pair, u, v, max_iter=max_iter, tol=tol.eps_converge)
    fmt = args.format or config.get("format", "json")
    if fmt == "csv":
        text = trace.to_csv()
    else:
        report = {"command": "sup", "pair": pair.descriptor(),
                  "u": u.tolist(), "v": v.tolist(),
                  "tolerances": tol.to_json_dict(), "trace": trace.to_json_dict()}
        if fmt == "human":
            lines = [f"status: {trace.status}  iterations: {trace.iterations}"]
            if trace.result is not None:
                lines.append(f"result: {trace.result.tolist()}")
            lines.append(f"upper bound: {trace.upper_bound_used.tolist()}")
            lines.append(f"certified: {trace.certified}")
            text = "\n".join(lines) + "\n"
        else:
            text = _dump_json(report)
    _write_output(text, args.out or config.get("output"))
    return EXIT_OK if trace.certified else EXIT_VIOLATION


def _demo_lex(samples, seed, tol):
    report = lex_demo(n_terms=100)
    return report, bool(report["certified"])


def _demo_minkowski(samples, seed, tol, descriptor=None):
    descriptor = descriptor or _DEFAULT_PAIRS["minkowski"]
    pair = pair_from_json(descriptor, tol=tol)
    reports = [properties.check_mutual_polarity(pair, samples, seed),
               properties.check_subadditive(pair, "m", samples, seed)]
    generating = is_generating(pair.cone_m)

    # Empirical shape of the n-range: defect coefficients of the order-unit
    # functional, and convexity probes of {x : phi(x) = 0}.
    rng = np.random.default_rng((seed, 7))
    X = rng.standard_normal((samples, pair.dim)) / np.sqrt(pair.dim)
    Y = rng.standard_normal((samples, pair.dim)) / np.sqrt(pair.dim)
    defect = pair.phi(X) + pair.phi(Y) - pair.phi(X + Y)
    Z1, Z2 = pair.n(X), pair.n(Y)
    phi_sum = pair.phi(Z1 + Z2)
    scale = 1.0 + np.linalg.norm(Z1 + Z2, axis=1)
    off_boundary = np.abs(phi_sum) / scale > 10.0 * tol.eps_membership
    n_convex_breaks = int(np.count_nonzero(off_boundary))
    witness = None
    if n_convex_breaks:
        i = int(np.argmax(np.abs(phi_sum) / scale))
        witness = {"z1": Z1[i].tolist(), "z2": Z2[i].tolist(),
                   "phi_of_sum": float(phi_sum[i])}
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
    rows = []
    ok = True
    for label, cone_json, expect_pass in _MOREAU_SUBADD_CONES:
        pair = moreau_pair(cone_from_json(cone_json), tol=tol)
        rep = properties.check_subadditive(pair, "m", samples, seed)
        rows.append({"cone": label, "verdict": rep.verdict,
                     "witnesses": rep.witnesses[:1]})
        matches = (rep.verdict == PASS) if expect_pass else (rep.verdict == "fail")
        ok = ok and matches
    return {"table": rows}, ok


def cmd_demo(args):
    config = _load_config(args.config, {"command", "name", "samples", "seed",
                                        "tolerances", "output", "format", "pair"}, "demo")
    name = args.name or config.get("name")
    if name not in _DEMO_NAMES:
        raise ValueError(f"unknown demo: {name!r} (choose from {', '.join(_DEMO_NAMES)})")
    tol = _tolerances(config, args)
    samples, seed = _samples_seed(config, args)
    if name == "lex":
        body, ok = _demo_lex(samples, seed, tol)
    elif name == "minkowski":
        body, ok = _demo_minkowski(samples, seed, tol, config.get("pair"))
    else:
        body, ok = _demo_moreau_subadd(samples, seed, tol)
    report = {"command": "demo", "name": name, "samples": samples, "seed": seed,
              "tolerances": tol.to_json_dict(), "report": body,
              "verdict": "pass" if ok else "fail"}
    fmt = args.format or config.get("format", "json")
    if fmt == "csv":
        raise ValueError("csv output applies to iterate traces only; use json or human")
    if fmt == "human":
        text = f"demo {name}: {'certified' if ok else 'NOT certified'}\n" + _dump_json(body)
    else:
        text = _dump_json(report)
    _write_output(text, args.out or config.get("output"))
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_batch(args):
    config = _load_config(args.config, {"command", "pairs", "samples", "seed",
                                        "tolerances", "output", "format"}, "batch")
    if "pairs" not in config or not isinstance(config["pairs"], list) or not config["pairs"]:
        raise ValueError("batch config must provide a non-empty 'pairs' list")
    tol = _tolerances(config, args)
    samples, seed = _samples_seed(config, args)
    entries = []
    all_pass = True
    for descriptor in config["pairs"]:
        pair = pair_from_json(descriptor, tol=tol)
        reports = run_catalogue(pair, n_samples=samples, seed=seed)
        verdict = "pass" if all(r.verdict == PASS for r in reports) else "fail"
        all_pass = all_pass and verdict == "pass"
        entries.append({"pair": pair.descriptor(), "verdict": verdict,
                        "reports": [r.to_json_dict() for r in reports]})
    report = {"command": "batch", "samples": samples, "seed": seed,
              "tolerances": tol.to_json_dict(), "entries": entries,
              "verdict": "pass" if all_pass else "fail"}
    fmt = args.format or config.get("format", "json")
    if fmt != "json":
        raise ValueError("batch reports are json only")
    _write_output(_dump_json(report), args.out or config.get("output"))
    return EXIT_OK if all_pass else EXIT_VIOLATION


def build_parser():
    parser = argparse.ArgumentParser(
        prog="conelab",
        description="Retraction pairs on convex cones: property verification, "
                    "supremum iteration, and demonstrations.",
        epilog="Property catalogue: " + ", ".join(k for k, _, _ in properties.CATALOGUE)
               + ". Exit codes: 0 pass, 1 violation/non-convergence, 2 usage error.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_pair=True):
        p.add_argument("--config", help="JSON config path")
        if with_pair:
            p.add_argument("--pair", choices=sorted(_DEFAULT_PAIRS),
                           help="built-in pair family (used when --config has no pair)")
        p.add_argument("--samples", type=int, default=None, help="sample count (default 1000)")
        p.add_argument("--seed", type=int, default=None, help="random seed (default 0)")
        p.add_argument("--tol", type=float, default=None,
                       help="sets all tolerances (default 1e-8)")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("json", "csv", "human"), default=None,
                       help="report format (default json; csv for traces only)")

    p_verify = sub.add_parser("verify", help="run the applicable property catalogue")
    common(p_verify)

    p_sup = sub.add_parser("sup", help="iterate the pairwise supremum construction")
    common(p_sup)
    p_sup.add_argument("--max-iter", dest="max_iter", type=int, default=None,
                       help="iteration cap (default 100)")

    p_demo = sub.add_parser("demo", help="run a built-in demonstration")
    p_demo.add_argument("name", nargs="?", choices=_DEMO_NAMES, default=None)
    common(p_demo, with_pair=False)

    p_batch = sub.add_parser("batch", help="verify a list of pair descriptors")
    common(p_batch, with_pair=False)
    return parser


_DISPATCH = {"verify": cmd_verify, "sup": cmd_sup, "demo": cmd_demo, "batch": cmd_batch}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return _DISPATCH[args.command](args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"conelab: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
