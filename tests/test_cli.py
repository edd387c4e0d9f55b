import argparse
import json
import os
import subprocess
import sys

import pytest

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


def test_non_integer_cone_dim_exit_two(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"pair": {"family": "lattice",
                                        "cone": {"type": "orthant", "dim": None}}}))
    assert main(["verify", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "conelab: error: cone dim must be an integer, got None\n"


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
], ids=["sup-seed-flag", "sup-samples-flag", "sup-seed-key", "verify-format-xml",
        "demo-format-xml", "batch-format-human", "demo-moreau-subadd-pair", "demo-lex-pair",
        "demo-lex-samples-flag", "demo-lex-seed-flag", "demo-lex-tol-flag",
        "demo-lex-samples-key", "demo-lex-seed-key", "demo-lex-tolerances-key"])
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
