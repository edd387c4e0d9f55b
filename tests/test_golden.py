"""Byte-exact golden reports: the behaviour contract of the verifier.

Each case runs the CLI in process and compares the report with the file of
the same name under ``tests/golden/``.  The failing Moreau cases cover the
``witnesses`` and ``shrunk`` fields: on the Lorentz cones (``--pair moreau``
is dimension 3) five checks fail, and the non-orthogonal simplicial cone
runs its maps through ``FaceTable``, as do its generator form (with a
redundant generator) and its halfspace form, which cover the polyhedral
cones' rays and polars.  The ``sup`` cases cover the JSON and
CSV traces of a converging lattice pair and of the exploratory Moreau mode;
``batch`` and the remaining demos cover the other commands.

Regenerate the files (only when a change of report bytes is intended and
recorded) with::

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import sys
from pathlib import Path

import pytest

from conelab import cli
from conelab.cli import build_parser, main

GOLDEN = Path(__file__).parent / "golden"
SAMPLES = 300
SEEDS = (1, 2)

# Generators of a non-orthogonal simplicial cone, one per row.
_SKEW = [[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]

_PAIRS = {
    "lorentz-8-moreau": {"family": "moreau", "cone": {"type": "lorentz", "dim": 8}},
    "simplicial-moreau": {"family": "moreau", "cone": {"type": "simplicial", "basis": _SKEW}},
    "simplicial-lattice": {"family": "lattice", "cone": {"type": "simplicial", "basis": _SKEW}},
    "orthant-4-minkowski": {"family": "minkowski", "cone": {"type": "orthant", "dim": 4},
                            "interior_point": [1.0, 2.0, 0.5, 1.0]},
    # The simplicial cone of _SKEW as generators (with their sum, redundant) and as
    # halfspaces (the rows of the basis inverse).
    "generators-moreau": {"family": "moreau",
                          "cone": {"type": "generators", "vectors": _SKEW + [[2.0, 2.0, 1.0]]}},
    "halfspaces-moreau": {"family": "moreau",
                          "cone": {"type": "halfspaces",
                                   "normals": [[1.0, -1.0, 1.0], [0.0, 1.0, -1.0],
                                               [0.0, 0.0, 1.0]]}},
}

_SUP_PAIRS = {
    "simplicial-lattice": _PAIRS["simplicial-lattice"],
    "lorentz-3-moreau": {"family": "moreau", "cone": {"type": "lorentz", "dim": 3}},
}
_SUP_U, _SUP_V = [1.35, -0.73, 0.51], [0.16, 0.28, -0.1]


def _cases():
    """(file name, CLI arguments, verify config or None) for every golden file."""
    cases = []
    for seed in SEEDS:
        common = ["--samples", str(SAMPLES), "--seed", str(seed)]
        for family in ("lattice", "moreau", "minkowski"):
            cases.append((f"verify-{family}-seed{seed}.json",
                          ["verify", "--pair", family] + common, None))
        for name, pair in _PAIRS.items():
            config = {"command": "verify", "pair": pair, "samples": SAMPLES, "seed": seed}
            cases.append((f"verify-{name}-seed{seed}.json", ["verify"], config))
        cases.append((f"demo-moreau-subadd-seed{seed}.json",
                      ["demo", "moreau-subadd"] + common, None))
        cases.append((f"demo-minkowski-seed{seed}.json", ["demo", "minkowski"] + common, None))
        config = {"command": "batch", "samples": SAMPLES, "seed": seed,
                  "pairs": [_PAIRS["simplicial-lattice"], _SUP_PAIRS["lorentz-3-moreau"],
                            _PAIRS["orthant-4-minkowski"]]}
        cases.append((f"batch-seed{seed}.json", ["batch"], config))
    for name, pair in _SUP_PAIRS.items():
        config = {"command": "sup", "pair": pair, "u": _SUP_U, "v": _SUP_V}
        cases.append((f"sup-{name}.json", ["sup"], config))
        cases.append((f"sup-{name}.csv", ["sup", "--format", "csv"], config))
    cases.append(("demo-lex.json", ["demo", "lex"], None))
    return cases


def _run(args, config, workdir):
    workdir = Path(workdir)
    if config is not None:
        path = workdir / "config.json"
        path.write_text(json.dumps(config))
        args = args + ["--config", str(path)]
    out = workdir / "report"
    code = main(args + ["--out", str(out)])
    return code, out.read_bytes()


@pytest.mark.parametrize("name,args,config", _cases(), ids=[c[0] for c in _cases()])
def test_report_bytes_match_golden(tmp_path, name, args, config):
    code, raw = _run(args, config, tmp_path)
    assert code in (0, 1)
    assert raw == (GOLDEN / name).read_bytes()


def test_one_process_reuses_one_parser(tmp_path, monkeypatch):
    # main parses every call with the parser it built on its first call, so
    # no call may leave state in it that changes the next report.
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    cli._parser.cache_clear()
    cases = {name: (args, config) for name, args, config in _cases()}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"command": "verify", "extra": True}))
    for step in ("verify-lattice-seed1.json", "sup-simplicial-lattice.json", "demo-lex.json",
                 ["verify", "--config", str(bad)], ["demo", "lex", "--seed", "1"],
                 "verify-lattice-seed1.json"):
        if isinstance(step, list):
            assert main(step) == 2
            continue
        code, raw = _run(*cases[step], tmp_path)
        assert code in (0, 1)
        assert raw == (GOLDEN / step).read_bytes()
    assert len(built) == 1


def test_golden_directory_holds_exactly_the_cases():
    # A golden file no case writes would never be compared or regenerated.
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(c[0] for c in _cases())


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, args, config in _cases():
            _, raw = _run(args, config, tmp)
            (GOLDEN / name).write_bytes(raw)
            print(name, file=sys.stderr)
