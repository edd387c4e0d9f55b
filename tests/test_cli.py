import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conelab.cli import _COMMANDS, build_parser, main

RUN = [sys.executable, "-m", "conelab"]


def run_cli(args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(RUN + args, capture_output=True, text=True, env=env)


def test_verify_lattice_orthant_exit_zero(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "command": "verify",
        "pair": {"family": "lattice", "cone": {"type": "orthant", "dim": 4}},
        "samples": 300, "seed": 7,
    }))
    out = tmp_path / "report.json"
    code = main(["verify", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["verdict"] == "pass"
    assert report["seed"] == 7 and report["samples"] == 300
    assert set(report["tolerances"]) == {"membership", "equal", "converge"}
    assert [r["property"] for r in report["reports"]] == report["catalogue"]


def test_verify_moreau_lorentz_exit_one(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "--pair", "moreau", "--samples", "400", "--out", str(out)])
    assert code == 1
    report = json.loads(out.read_text())
    failed = {r["property"] for r in report["reports"] if r["verdict"] == "fail"}
    assert "subadditive-m" in failed
    witness = next(r for r in report["reports"] if r["property"] == "subadditive-m")["witnesses"][0]
    assert witness["residual"] > 1e-6


def test_verify_missing_cone_key_exit_two(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"pair": {"family": "moreau"}}))
    assert main(["verify", "--config", str(cfg)]) == 2


def test_malformed_json_exit_two(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{nope")
    assert main(["verify", "--config", str(cfg)]) == 2


def test_unknown_config_key_exit_two(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "pair": {"family": "lattice", "cone": {"type": "orthant", "dim": 2}},
        "extra": True,
    }))
    assert main(["verify", "--config", str(cfg)]) == 2


def test_wrong_command_in_config_exit_two(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "sup",
                               "pair": {"family": "lattice",
                                        "cone": {"type": "orthant", "dim": 2}}}))
    assert main(["verify", "--config", str(cfg)]) == 2


def test_verify_csv_rejected():
    assert main(["verify", "--pair", "lattice", "--format", "csv"]) == 2


def test_unknown_demo_exit_two():
    assert main(["demo", "whatever"]) == 2
    result = run_cli(["demo", "whatever"])
    assert result.returncode == 2


def test_sup_orthant(tmp_path):
    cfg = tmp_path / "sup.json"
    cfg.write_text(json.dumps({
        "pair": {"family": "lattice", "cone": {"type": "orthant", "dim": 2}},
        "u": [1.0, 0.0], "v": [0.0, 1.0],
    }))
    out = tmp_path / "trace.json"
    assert main(["sup", "--config", str(cfg), "--out", str(out)]) == 0
    trace = json.loads(out.read_text())["trace"]
    assert trace["status"] == "converged"
    assert trace["result"] == [1.0, 1.0]
    csv_out = tmp_path / "trace.csv"
    assert main(["sup", "--config", str(cfg), "--format", "csv",
                 "--out", str(csv_out)]) == 0
    lines = csv_out.read_text().strip().splitlines()
    assert lines[0].startswith("step,")
    assert len(lines) >= 2


def test_sup_zero_vectors(tmp_path):
    cfg = tmp_path / "sup.json"
    cfg.write_text(json.dumps({
        "pair": {"family": "lattice", "cone": {"type": "orthant", "dim": 2}},
        "u": [0.0, 0.0], "v": [0.0, 0.0],
    }))
    out = tmp_path / "trace.json"
    assert main(["sup", "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["trace"]["result"] == [0.0, 0.0]


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def test_sup_at_scale_1e200_is_finite(tmp_path):
    # The golden Moreau Lorentz(3) sup config times 1e200: squared entries
    # overflow, so the norms of the trace are taken at a power-of-two scale.
    cfg = tmp_path / "sup.json"
    cfg.write_text(json.dumps({
        "pair": {"family": "moreau", "cone": {"type": "lorentz", "dim": 3}},
        "u": [c * 1e200 for c in (1.35, -0.73, 0.51)],
        "v": [c * 1e200 for c in (0.16, 0.28, -0.1)],
    }))
    out = tmp_path / "trace.json"
    assert main(["sup", "--config", str(cfg), "--out", str(out)]) == 0
    trace = json.loads(out.read_text(), parse_constant=_reject_constant)["trace"]
    assert trace["status"] == "converged"
    assert trace["contracts"]["result_is_upper_bound"]
    assert trace["contracts"]["result_below_scaffold"]
    assert 0.0 <= trace["contracts"]["fixed_point_residual"] < 1e-8


def test_sup_dimension_mismatch_exit_two(tmp_path):
    cfg = tmp_path / "sup.json"
    cfg.write_text(json.dumps({
        "pair": {"family": "lattice", "cone": {"type": "orthant", "dim": 2}},
        "u": [1.0, 0.0, 0.0], "v": [0.0, 1.0],
    }))
    assert main(["sup", "--config", str(cfg)]) == 2


def test_demo_lex(tmp_path):
    out = tmp_path / "lex.json"
    assert main(["demo", "lex", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["verdict"] == "pass"
    assert rep["report"]["terms"] == 100
    assert len(rep["report"]["candidates"]) == 10
    assert not {"samples", "seed", "tolerances"} & set(rep)


def test_demo_minkowski(tmp_path):
    out = tmp_path / "mink.json"
    assert main(["demo", "minkowski", "--samples", "300", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())["report"]
    assert rep["m_range_generating"] is False
    assert rep["defect_coefficient_min"] >= -1e-7
    assert rep["n_range_convex"] is False
    assert rep["n_range_convexity_witness"] is not None


def test_demo_moreau_subadd(tmp_path):
    out = tmp_path / "ms.json"
    assert main(["demo", "moreau-subadd", "--samples", "500", "--out", str(out)]) == 0
    table = json.loads(out.read_text())["report"]["table"]
    verdicts = {row["cone"]: row["verdict"] for row in table}
    assert verdicts == {"orthant-3": "pass", "lorentz-3": "fail", "simplicial-2": "fail"}


def test_batch(tmp_path):
    cfg = tmp_path / "batch.json"
    cfg.write_text(json.dumps({
        "pairs": [
            {"family": "lattice", "cone": {"type": "orthant", "dim": 3}},
            {"family": "moreau", "cone": {"type": "orthant", "dim": 3}},
        ],
        "samples": 200,
    }))
    out = tmp_path / "batch_report.json"
    assert main(["batch", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["verdict"] == "pass" and len(report["entries"]) == 2
    cfg2 = tmp_path / "batch2.json"
    cfg2.write_text(json.dumps({
        "pairs": [{"family": "moreau", "cone": {"type": "lorentz", "dim": 3}}],
        "samples": 200,
    }))
    assert main(["batch", "--config", str(cfg2)]) == 1


def test_human_format(capsys):
    assert main(["verify", "--pair", "lattice", "--samples", "100",
                 "--format", "human"]) == 0
    captured = capsys.readouterr().out
    assert "✓ polarity" in captured
    assert "overall: pass" in captured


def test_human_format_prints_the_first_witness(capsys):
    assert main(["verify", "--pair", "moreau", "--samples", "200", "--format", "human"]) == 1
    line = next(row for row in capsys.readouterr().out.splitlines()
                if row.startswith(" ✗ subadditive-m "))
    assert "   witness: x=[" in line and "], y=[" in line
    assert line.endswith("] residual=2.661e-02")


def test_reports_byte_identical_across_thread_caps(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "pair": {"family": "moreau", "cone": {"type": "lorentz", "dim": 3}},
        "samples": 200, "seed": 3,
    }))
    blobs = []
    for cap in ("1", "4"):
        out = tmp_path / f"rep{cap}.json"
        result = run_cli(["verify", "--config", str(cfg), "--out", str(out)],
                         env_extra={"CONELAB_THREADS": cap})
        assert result.returncode == 1
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize("command", ["verify", "demo", "batch"])
@pytest.mark.parametrize("key,value", [
    ("samples", 0), ("samples", -5), ("samples", 2.5), ("samples", None), ("samples", "10"),
    ("samples", True), ("seed", -1), ("seed", 1.5), ("seed", None),
])
def test_bad_samples_or_seed_exit_two(tmp_path, capsys, command, key, value):
    config = {"samples": 20, key: value}
    if command == "verify":
        config["pair"] = {"family": "lattice", "cone": {"type": "orthant", "dim": 2}}
    elif command == "demo":
        config["name"] = "moreau-subadd"
    else:
        config["pairs"] = [{"family": "lattice", "cone": {"type": "orthant", "dim": 2}}]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"conelab: error: {key} must be") and err.count("\n") == 1


@pytest.mark.parametrize("flag,value", [("--samples", "0"), ("--samples", "-3"),
                                        ("--seed", "-1")])
def test_bad_samples_or_seed_flag_exit_two(capsys, flag, value):
    assert main(["verify", "--pair", "lattice", flag, value]) == 2
    assert capsys.readouterr().err.startswith("conelab: error: ")


def test_too_many_samples_to_allocate_exit_two(monkeypatch, capsys):
    # A config too big for memory is a bad config.  The draw raises as numpy
    # would, without allocating: a runner that overcommits could be killed.
    def no_memory(rng, n, dim):
        raise MemoryError(f"no memory for a ({n}, {dim}) draw")

    monkeypatch.setattr("conelab.properties.gaussian_points", no_memory)
    assert main(["verify", "--pair", "lattice", "--samples", "1000000000000"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("conelab: error: no memory for a (1000000000000, ")
    assert err.count("\n") == 1


def test_non_integer_cone_dim_exit_two(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"pair": {"family": "lattice",
                                        "cone": {"type": "orthant", "dim": None}}}))
    assert main(["verify", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "conelab: error: cone dim must be an integer, got None\n"


@pytest.mark.parametrize("kind, key", [("generators", "vectors"), ("halfspaces", "normals"),
                                       ("simplicial", "basis"), ("orthant", "dim"),
                                       ("lorentz", "dim")])
def test_cone_without_its_data_key_exit_two(tmp_path, capsys, kind, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"pair": {"family": "moreau", "cone": {"type": kind}}}))
    assert main(["verify", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"conelab: error: cone type {kind} is missing the '{key}' key\n"


def test_console_script_usage_error():
    result = run_cli(["verify", "--format", "yaml"])
    assert result.returncode == 2


_LATTICE_2 = {"family": "lattice", "cone": {"type": "orthant", "dim": 2}}
_SUP_CONFIG = {"pair": _LATTICE_2, "u": [1.0, 0.0], "v": [0.0, 1.0]}


@pytest.mark.parametrize("args,config", [
    (["sup", "--seed", "1"], _SUP_CONFIG),
    (["sup", "--samples", "5"], _SUP_CONFIG),
    (["sup"], dict(_SUP_CONFIG, seed=9)),
    (["verify"], {"pair": _LATTICE_2, "samples": 20, "format": "xml"}),
    (["demo"], {"name": "lex", "format": "xml"}),
    (["batch"], {"pairs": [_LATTICE_2], "samples": 20, "format": "human"}),
    (["demo"], {"name": "moreau-subadd", "samples": 20, "pair": _LATTICE_2}),
    (["demo"], {"name": "lex", "pair": _LATTICE_2}),
    (["demo", "--samples", "5"], {"name": "lex"}),
    (["demo", "--seed", "1"], {"name": "lex"}),
    (["demo", "--tol", "1e-6"], {"name": "lex"}),
    (["demo"], {"name": "lex", "samples": 5}),
    (["demo"], {"name": "lex", "seed": 1}),
    (["demo"], {"name": "lex", "tolerances": {"membership": 1e-6}}),
    # demo minkowski reads the order-unit functional of a minkowski pair only.
    (["demo"], {"name": "minkowski", "samples": 20,
                "pair": {"family": "moreau", "cone": {"type": "orthant", "dim": 2}}}),
    # --pair fills only a missing pair; a null pair is no pair.
    (["verify", "--pair", "lattice"], {"pair": None, "samples": 20}),
], ids=["sup-seed-flag", "sup-samples-flag", "sup-seed-key", "verify-format-xml",
        "demo-format-xml", "batch-format-human", "demo-moreau-subadd-pair", "demo-lex-pair",
        "demo-lex-samples-flag", "demo-lex-seed-flag", "demo-lex-tol-flag",
        "demo-lex-samples-key", "demo-lex-seed-key", "demo-lex-tolerances-key",
        "demo-minkowski-moreau-pair", "verify-null-pair-with-flag"])
def test_inputs_a_command_does_not_read_exit_two(tmp_path, capsys, args, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(args + ["--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith("conelab: error: ")


def _subparser(name):
    parser = build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices[name]


@pytest.mark.parametrize("name", sorted(_COMMANDS))
def test_parser_follows_command_table(name):
    spec = _COMMANDS[name]
    options = _subparser(name)._option_string_actions
    assert tuple(options["--format"].choices) == spec.formats
    assert ("--samples" in options) == spec.samples
    assert ("--seed" in options) == spec.samples
    assert ("--pair" in options) == spec.pair


@pytest.mark.parametrize("name,fmt", [(name, fmt) for name in sorted(_COMMANDS)
                                      for fmt in _COMMANDS[name].formats])
def test_every_declared_format_renders(tmp_path, name, fmt):
    config = {"verify": {"pair": _LATTICE_2, "samples": 20},
              "sup": _SUP_CONFIG,
              "demo": {"name": "moreau-subadd", "samples": 20},
              "batch": {"pairs": [_LATTICE_2], "samples": 20}}[name]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(config, format=fmt)))
    out = tmp_path / "report"
    assert main([name, "--config", str(cfg), "--out", str(out)]) == 0
    assert out.read_text()


@pytest.mark.parametrize("value", [None, "1e-8", True, [1]],
                         ids=["null", "string", "true", "list"])
def test_non_number_tolerance_exit_two(tmp_path, capsys, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"pair": _LATTICE_2, "samples": 20,
                               "tolerances": {"membership": value}}))
    assert main(["verify", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("conelab: error: eps_membership must be") and err.count("\n") == 1


_SIMPLICIAL_BAD_BASIS = {"family": "lattice", "cone": {"type": "simplicial", "basis": {}}}


@pytest.mark.parametrize("command,config", [
    ("sup", dict(_SUP_CONFIG, u={})),
    ("verify", {"pair": _SIMPLICIAL_BAD_BASIS, "samples": 20}),
    ("verify", {"pair": {"family": "moreau", "cone": {"type": "generators", "vectors": {}}},
                "samples": 20}),
    ("verify", {"pair": {"family": "moreau", "cone": {"type": "halfspaces", "normals": {}}},
                "samples": 20}),
    ("verify", {"pair": _LATTICE_2, "samples": 20, "output": [1]}),
    ("verify", {"pair": _LATTICE_2, "samples": 20, "output": 1}),
], ids=["sup-u-object", "simplicial-basis-object", "generators-object", "halfspaces-object",
        "output-list", "output-number"])
def test_wrong_typed_json_exit_two(tmp_path, capsys, command, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main([command, "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("conelab: error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("cone,message", [
    ({"type": "generators", "vectors": [1.0, 2.0]}, "generator vectors must be a list of vectors"),
    ({"type": "halfspaces", "normals": [1.0, 2.0]}, "halfspace normals must be a list of vectors"),
], ids=["flat-vectors", "flat-normals"])
def test_flat_vector_list_exit_two(tmp_path, capsys, cone, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"pair": {"family": "moreau", "cone": cone}, "samples": 20}))
    assert main(["verify", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"conelab: error: {message}") and err.count("\n") == 1


def test_projector_cap_exit_two(tmp_path, capsys):
    # The polar of 12 generic generators in R^6 has 38 extreme rays.
    vectors = np.random.default_rng(0).standard_normal((12, 6)).tolist()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"pair": {"family": "moreau",
                                        "cone": {"type": "generators", "vectors": vectors}},
                               "samples": 20}))
    assert main(["verify", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err == ("conelab: error: cone has 38 extreme rays, but the face-table "
                   "projector takes at most 12\n")


def test_generator_cone_whose_polar_exceeds_the_face_table_cap(tmp_path, capsys):
    # Ray enumeration has no dimension cap: 5 generators in R^11 find their
    # polar's 17 extreme rays, which the face-table projector refuses.
    vectors = (np.eye(11)[:5] + 0.1).tolist()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"pair": {"family": "moreau",
                                        "cone": {"type": "generators", "vectors": vectors}},
                               "samples": 20}))
    assert main(["verify", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        "conelab: error: cone has 17 extreme rays, but the face-table "
        "projector takes at most 12\n")


@pytest.mark.parametrize("cone,point", [
    # The range line of dimension 12 is a generator cone that holds a line.
    ({"type": "orthant", "dim": 12}, [1.0] * 12),
    # A halfspace cone is its own halfspace form.
    ({"type": "halfspaces", "normals": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0]]},
     [1.0, 1.0, 1.0]),
    # The range line and ray of R^16 find their polars' rays by double description.
    ({"type": "orthant", "dim": 16}, [1.0] * 16),
    # 20 normals, over the double description's cap of 12: the range of n is
    # the halfspace cone of their negations, whose membership reads no rays.
    ({"type": "halfspaces", "normals": [[np.cos(t), np.sin(t), 1.0]
                                        for t in np.linspace(0.0, 2.0 * np.pi, 20,
                                                             endpoint=False)]},
     [0.0, 0.0, 1.0]),
    # A generator cone's halfspace form is its facet matrix.
    ({"type": "generators", "vectors": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0]]},
     [1.0, 1.0, 1.0]),
], ids=["orthant-12", "halfspaces", "orthant-16", "halfspaces-20", "generators"])
def test_minkowski_verify_passes(tmp_path, cone, point):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"pair": {"family": "minkowski", "cone": cone,
                                        "interior_point": point},
                               "samples": 100, "seed": 1}))
    assert main(["verify", "--config", str(cfg)]) == 0


# Three generators that positively span the plane: the polar is {0}, and no
# facet bounds the cone.
_WHOLE_PLANE = {"type": "generators", "vectors": [[1, 0], [0, 1], [-1, -1]]}


@pytest.mark.parametrize("pair,message", [
    ({"family": "moreau", "cone": _WHOLE_PLANE}, "polar cone is {0}"),
    ({"family": "minkowski", "cone": _WHOLE_PLANE, "interior_point": [1, 1]},
     "cone has no facet"),
    ({"family": "moreau", "cone": {"type": "halfspaces",
                                   "normals": [[1, 0], [-1, 0], [0, 1], [0, -1]]}},
     "cone is {0}"),
], ids=["whole-plane-generators", "whole-plane-minkowski", "origin-halfspaces"])
def test_zero_cone_exit_two(tmp_path, capsys, pair, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"pair": pair, "samples": 20}))
    assert main(["verify", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"conelab: error: {message}:") and err.count("\n") == 1


# Generated bad configs: each breaks one rule of the config schema.
_NUMBER = st.floats(-10.0, 10.0, allow_nan=False)
_NON_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])
_NOT_AN_INT = st.sampled_from([None, 2.5, "3", True, [2], {}])


def _with_entry(vectors, i, value):
    rows = [list(row) for row in vectors]
    rows[i % len(rows)][0] = value
    return rows


def _rows():
    return st.integers(1, 4).flatmap(
        lambda m: st.lists(st.lists(_NUMBER, min_size=m, max_size=m), min_size=1, max_size=4))


_BAD_CONES = st.one_of(
    st.lists(_NUMBER, min_size=1, max_size=4).map(
        lambda v: {"type": "generators", "vectors": v}),
    st.lists(_NUMBER, min_size=1, max_size=4).map(
        lambda v: {"type": "halfspaces", "normals": v}),
    st.tuples(_rows(), st.integers(0, 3), _NON_FINITE).map(
        lambda t: {"type": "generators", "vectors": _with_entry(*t)}),
    st.tuples(_rows(), st.integers(0, 3), _NON_FINITE).map(
        lambda t: {"type": "halfspaces", "normals": _with_entry(*t)}),
    _rows().map(lambda rows: {"type": "generators", "vectors": rows + [[0.0] * len(rows[0])]}),
    st.tuples(_rows(), st.integers(1, 3)).map(  # ragged
        lambda t: {"type": "halfspaces", "normals": t[0] + [[1.0] * (len(t[0][0]) + t[1])]}),
    st.sampled_from([("generators", "vectors"), ("halfspaces", "normals"),
                     ("simplicial", "basis")]).map(lambda t: {"type": t[0], t[1]: "1, 2"}),
    st.sampled_from(["cube", "Orthant", None, 3, []]).map(lambda kind: {"type": kind, "dim": 2}),
    _NOT_AN_INT.map(lambda d: {"type": "orthant", "dim": d}),
    st.text(max_size=6).map(lambda key: {"type": "orthant", "dim": 2, "x-" + key: 1}),
)

_BAD_CONFIGS = st.one_of(
    _BAD_CONES.map(lambda cone: ("verify", {"pair": {"family": "moreau", "cone": cone},
                                            "samples": 20})),
    st.sampled_from([0, -3, 2.5, "10", True, None]).map(
        lambda n: ("verify", {"pair": _LATTICE_2, "samples": n})),
    st.sampled_from([-1, 1.5, None, "0", False]).map(
        lambda n: ("batch", {"pairs": [_LATTICE_2], "samples": 20, "seed": n})),
    st.sampled_from([0.0, -1e-8, None, "1e-8", True, [1e-8], float("nan"), float("inf")]).map(
        lambda t: ("verify", {"pair": _LATTICE_2, "samples": 20,
                              "tolerances": {"membership": t}})),
    st.text(max_size=6).map(lambda key: ("verify", {"pair": _LATTICE_2, "x-" + key: 1})),
    st.sampled_from(["csv", "xml", 3, None]).map(
        lambda fmt: ("verify", {"pair": _LATTICE_2, "samples": 20, "format": fmt})),
    st.sampled_from(["moreau", "minkowski", "Lattice", None, [], {}]).map(
        lambda family: ("verify", {"pair": {"family": family}, "samples": 20})),
    st.tuples(st.sampled_from(["u", "v"]), _NON_FINITE).map(
        lambda t: ("sup", dict(_SUP_CONFIG, **{t[0]: [t[1], 0.0]}))),
    st.lists(_NUMBER, min_size=3, max_size=5).map(lambda u: ("sup", dict(_SUP_CONFIG, u=u))),
    st.sampled_from([[], [1.0], 1.0, None, "1"]).map(
        lambda pairs: ("batch", {"pairs": pairs, "samples": 20})),
    st.sampled_from([[1], 1.0, "[]", None]).map(
        lambda cfg: ("verify", cfg)),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=_BAD_CONFIGS)
@example(case=("verify", {"pair": {"family": "moreau",
                                   "cone": {"type": "generators", "vectors": [1.0, 2.0]}}}))
@example(case=("verify", {"pair": {"family": "moreau",
                                   "cone": {"type": "halfspaces", "normals": [1.0, 2.0]}}}))
@example(case=("verify", {"pair": {"family": "moreau", "cone": {
    "type": "halfspaces", "normals": [[float("nan"), 0.0], [0.0, 1.0]]}}}))
@example(case=("sup", dict(_SUP_CONFIG, u=[float("inf"), 0.0])))
@example(case=("verify", {"pair": {"family": "moreau", "cone": {"type": [], "dim": 2}}}))
# One raise site each that no other tier-1 test reaches.
@example(case=("verify", {"samples": 20}))  # neither a pair nor --pair
@example(case=("sup", {"pair": _LATTICE_2, "v": [0.0, 1.0]}))  # no u
@example(case=("demo", {"name": "nope"}))
@example(case=("verify", {"pair": _LATTICE_2, "samples": 20, "tolerances": 1e-8}))
@example(case=("verify", {"pair": _LATTICE_2, "samples": 20, "tolerances": {"x": 1}}))
@example(case=("sup", dict(_SUP_CONFIG, u=[[1.0, 0.0]])))  # u is not a vector
@example(case=("verify", {"pair": {"family": "moreau", "cone": {
    "type": "simplicial", "basis": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]}}}))  # 2 columns in R^3
@example(case=("verify", {"pair": {"family": "moreau", "cone": {
    "type": "simplicial", "basis": [[float("nan"), 0.0], [0.0, 1.0]]}}}))
@example(case=("verify", {"pair": {"family": "moreau", "cone": {"type": "lorentz", "dim": 1}}}))
@example(case=("verify", {"pair": {"family": "moreau",
                                   "cone": {"type": "simplicial", "basis": [1.0, 2.0]}}}))
def test_generated_bad_configs_exit_two(case):
    command, config = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "cfg.json")
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--config", cfg])
    assert code == 2, err.getvalue()
    assert out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("conelab: error: "), lines
