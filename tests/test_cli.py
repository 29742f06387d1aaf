import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import causalprobe
from causalprobe import CausalGraph, builtin, cli
from causalprobe.cli import main

TI_CFG = {
    "seed": 7,
    "oracle": {"kind": "scm", "model": "TI"},
    "classifier": {"weights": [0.0, 1.0], "bias": -1.0},
    "discovery": {"n_samples": 256},
    "evaluation": {"p_subsets": 2, "q_repetitions": 2, "mi_bins": 4},
    "attribution": {"n_perturbations": 120},
    "pool_size": 512,
    "sample": {"n": 3},
    "evaluate": {"n_explanations": 150},
}

ZERO_CFG = {
    "seed": 3,
    "oracle": {"kind": "linear", "dim": 3, "edges": [], "noise_std": 1.0},
    "evaluation": {"p_subsets": 2, "q_repetitions": 2},
    "discovery": {"n_samples": 128},
    "pool_size": 256,
}


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_tree(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


def test_sample_writes_csv(tmp_path):
    cfg = write_cfg(tmp_path, TI_CFG)
    out = tmp_path / "out"
    assert main(["sample", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "samples.csv").read_text().strip().splitlines()
    assert lines[0] == "t,i"
    assert len(lines) == 4  # header + 3 rows
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["command"] == "sample"
    assert manifest["seed"] == 7


def test_sample_rejects_zero_rows(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TI_CFG)
    rc = main(["sample", "--config", cfg, "--out", str(tmp_path / "o"), "--n", "0"])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"


def test_seed_is_mandatory(tmp_path, capsys):
    cfg = dict(TI_CFG)
    cfg.pop("seed")
    path = write_cfg(tmp_path, cfg)
    rc = main(["sample", "--config", path, "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "seed" in json.loads(capsys.readouterr().err)["message"]


def test_discover_ti_consensus(tmp_path):
    cfg = write_cfg(tmp_path, TI_CFG)
    out = tmp_path / "disc"
    assert main(["discover", "--config", cfg, "--out", str(out)]) == 0
    graph = json.loads((out / "graph.json").read_text())
    edges = {(e["from"], e["to"]) for e in graph["edges"]}
    assert edges == {(0, 1)}
    report = json.loads((out / "report.json").read_text())
    assert report["correctness_index"] == 1.0
    assert report["graph_consistency"] == 1.0
    assert (out / "graph.dot").read_text().startswith("digraph")
    assert len(list((out / "graphs").glob("*.json"))) == 4  # P*Q runs


def test_discover_zero_oracle_flags_correctness(tmp_path):
    cfg = write_cfg(tmp_path, ZERO_CFG)
    out = tmp_path / "disc0"
    assert main(["discover", "--config", cfg, "--out", str(out)]) == 0
    graph = json.loads((out / "graph.json").read_text())
    assert graph["edges"] == []
    report = json.loads((out / "report.json").read_text())
    assert report["correctness_index"] is None
    assert report["correctness_flag"].startswith("undefined")


def test_explain_outputs(tmp_path):
    cfg = write_cfg(tmp_path, TI_CFG)
    out = tmp_path / "exp"
    rc = main(
        ["explain", "--config", cfg, "--out", str(out), "--index", "1", "--do", "t+=1"]
    )
    assert rc == 0
    doc = json.loads((out / "explanation.json").read_text())
    by_label = {w["label"]: w["weight"] for w in doc["weights"]}
    assert abs(by_label["t"]) > 0.01  # interventional policy credits the cause
    bar = (out / "explanation.csv").read_text().strip().splitlines()
    assert bar[0] == "feature,label,weight"
    assert bar[1].startswith("0,t,")
    conf = (out / "confidence_delta.csv").read_text().strip().splitlines()
    assert conf[0] == "row,intervention,class_0,class_1"
    assert conf[1].startswith("baseline")
    assert conf[2].startswith("delta,t+=1")
    diff = (out / "counterfactual_diff.csv").read_text().strip().splitlines()
    assert diff[0] == "row,intervention,t,i"
    assert len(diff) == 3  # intervened + diff rows for one intervention


def test_explain_empty_do_only_baseline(tmp_path):
    cfg = write_cfg(tmp_path, TI_CFG)
    out = tmp_path / "exp0"
    assert main(["explain", "--config", cfg, "--out", str(out)]) == 0
    conf = (out / "confidence_delta.csv").read_text().strip().splitlines()
    assert len(conf) == 2  # header + baseline only


def test_explain_unknown_feature_lists_known(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TI_CFG)
    rc = main(
        ["explain", "--config", cfg, "--out", str(tmp_path / "e"), "--do", "zz+=1"]
    )
    assert rc == 1
    message = json.loads(capsys.readouterr().err)["message"]
    assert "known features" in message and "'t'" in message


def test_explain_independent_policy_flag(tmp_path):
    cfg = write_cfg(tmp_path, TI_CFG)
    out = tmp_path / "expi"
    rc = main(
        ["explain", "--config", cfg, "--out", str(out), "--policy", "independent"]
    )
    assert rc == 0
    doc = json.loads((out / "explanation.json").read_text())
    by_label = {w["label"]: w["weight"] for w in doc["weights"]}
    assert abs(by_label["t"]) < 0.01  # no propagation, no credit to the cause


def test_evaluate_outputs(tmp_path):
    cfg = write_cfg(tmp_path, TI_CFG)
    out = tmp_path / "ev"
    assert main(["evaluate", "--config", cfg, "--out", str(out)]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    f = metrics["details"]["faithfulness"]
    assert 0.0 <= f["shuffled_baseline"] <= f["engine"] <= 1.0
    assert metrics["faithfulness_index"] == f["engine"]
    assert metrics["stability"] <= 0.0
    assert metrics["correctness_index"] is None
    # shuffled pairings define no stability baseline: null, not a copied value
    assert metrics["details"]["stability"]["shuffled_baseline"] is None
    # flags are JSON booleans, not integers
    assert metrics["details"]["deterministic_seed"] is True
    assert isinstance(metrics["details"]["joint_histogram"], bool)
    rows = (out / "metrics.csv").read_text().strip().splitlines()
    assert rows[0] == "method,faithfulness,stability"
    assert rows[1].startswith("engine,")
    assert rows[2].startswith("shuffled-baseline,") and rows[2].endswith(",")


def test_evaluate_rejects_out_of_range_stability_index(tmp_path, capsys):
    evaluate = {"n_explanations": 150, "stability_index": 150}
    cfg = write_cfg(tmp_path, {**TI_CFG, "evaluate": evaluate})
    assert main(["evaluate", "--config", cfg, "--out", str(tmp_path / "ev")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert "evaluate.stability_index" in err["message"] and "[0, 150)" in err["message"]


def test_explain_rejects_non_finite_latent(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TI_CFG)
    rc = main(["explain", "--config", cfg, "--out", str(tmp_path / "e"), "--latent", "nan,1.0"])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError" and "finite" in err["message"]


def test_explain_rejects_non_finite_intervention(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TI_CFG)
    out = tmp_path / "e"
    assert main(["explain", "--config", cfg, "--out", str(out), "--do", "t=inf"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError" and "finite" in err["message"]
    assert not (out / "confidence_delta.csv").exists()


@pytest.mark.parametrize(
    "base,section,key,command",
    [
        (TI_CFG, None, "discovry", "discover"),
        (TI_CFG, "oracle", "modle", "sample"),
        (TI_CFG, "sample", "nn", "sample"),
        (TI_CFG, "sample", "nn", "discover"),  # checked whatever the command reads
        (TI_CFG, "classifier", "wieghts", "explain"),
        (TI_CFG, "explain", "indx", "explain"),
        (TI_CFG, "evaluate", "n_explanation", "evaluate"),
        (TI_CFG, "attribution", "n_perturbation", "sample"),
        (ZERO_CFG, "oracle", "model", "discover"),  # an scm key in a linear spec
        (ZERO_CFG, "oracle", "noise", "sample"),
        # the run derives every stage seed from its own seed
        (TI_CFG, "discovery", "seed", "discover"),
        (TI_CFG, "attribution", "seed", "explain"),
        (TI_CFG, "evaluation", "seed", "evaluate"),
    ],
)
def test_unknown_config_keys_rejected(tmp_path, capsys, base, section, key, command):
    cfg = json.loads(json.dumps(base))
    (cfg if section is None else cfg.setdefault(section, {}))[key] = 1
    out = tmp_path / "o"
    assert main([command, "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    name = key if section is None else f"{section}.{key}"
    assert err["error"] == "ValueError" and f"unknown config key '{name}'" in err["message"]
    assert not out.exists()


LINEAR_SPEC = {"dim": 2, "edges": [{"from": 0, "to": 1, "weight": 0.5}], "noise_std": 1.0}


def config_with(tmp_path, section, key, value):
    """TI_CFG with value at section.key, where section is a dotted path whose
    digits index lists. A path into the oracle section, other than to an scm
    spec key, gets a linear oracle; a path through 'oracle.file' sets the
    key in a linear spec file that the oracle section names."""
    cfg = json.loads(json.dumps(TI_CFG))
    path = [] if section is None else section.split(".")
    if path[:1] == ["oracle"] and key not in ("kind", "model", "model_file"):
        cfg["oracle"] = {"kind": "linear", **json.loads(json.dumps(LINEAR_SPEC))}
    root = cfg
    if path[:2] == ["oracle", "file"]:
        root, path = json.loads(json.dumps(LINEAR_SPEC)), path[2:]
        cfg["oracle"] = {"kind": "linear", "file": str(tmp_path / "sem.json")}
    node = root
    for part in path:
        node = node[int(part)] if part.isdigit() else node.setdefault(part, {})
    node[key] = value
    if root is not cfg:
        (tmp_path / "sem.json").write_text(json.dumps(root))
    return cfg


NAN, INF = float("nan"), float("inf")
# the wrong JSON values tried against each scalar kind
_WRONG = {int: [True, 2.5, "2"], float: [True, "0.5", NAN, INF], bool: ["true", 1], str: [1]}
# the config keys the dedicated cases below do not cover, with their kind
# and a command that reads them
_KEY_KINDS = [
    ("oracle_config", "roundtrip_noise_std", float, "discover"),
    ("oracle_config", "noise_policy", str, "discover"),
    ("oracle_config", "standardize", bool, "discover"),
    ("oracle_config", "seed", int, "discover"),
    ("discovery", "threshold", float, "discover"),
    ("discovery", "prune_eps", float, "discover"),
    ("discovery", "intervention_magnitude", float, "discover"),
    ("discovery", "n_samples", int, "discover"),
    ("discovery", "denom_guard_delta", float, "discover"),
    ("attribution", "n_perturbations", int, "explain"),
    ("attribution", "kernel_width", float, "explain"),  # null is valid too
    ("attribution", "ridge_lambda", float, "explain"),
    ("attribution", "perturbation_policy", str, "explain"),
    ("attribution", "perturbation_std", float, "explain"),
    ("evaluation", "p_subsets", int, "discover"),
    ("evaluation", "q_repetitions", int, "discover"),
    ("evaluation", "noise_std", float, "evaluate"),
    ("evaluation", "mi_bins", int, "evaluate"),
    ("classifier", "n_classes", int, "explain"),  # null is valid too
    ("oracle", "kind", str, "sample"),
    ("oracle", "model", str, "sample"),
    ("oracle", "model_file", str, "sample"),
    ("oracle", "file", str, "sample"),
    ("oracle", "dim", int, "sample"),
    ("oracle", "noise_std", float, "sample"),
    ("oracle.edges.0", "from", int, "sample"),
    ("oracle.edges.0", "to", int, "sample"),
    ("oracle.edges.0", "weight", float, "sample"),
    ("oracle.file", "dim", int, "sample"),
    ("oracle.file", "noise_std", float, "sample"),
    ("oracle.file.edges.0", "from", int, "sample"),
    ("oracle.file.edges.0", "to", int, "sample"),
    ("oracle.file.edges.0", "weight", float, "discover"),
]


@pytest.mark.parametrize(
    "section,key,value,command",
    [
        ("evaluate", "deterministic_seed", "false", "evaluate"),
        ("evaluate", "deterministic_seed", 0, "evaluate"),
        ("evaluate", "n_explanations", 40.9, "evaluate"),
        ("evaluate", "n_explanations", "150", "evaluate"),
        ("evaluate", "stability_index", True, "evaluate"),
        (None, "pool_size", 1024.7, "discover"),
        (None, "pool_size", "512", "explain"),
        ("explain", "index", 3.9, "explain"),
        ("sample", "n", "100", "sample"),
        ("sample", "n", 100.0, "sample"),
        ("sample", "n", True, "sample"),
        (None, "seed", "7", "sample"),
        (None, "seed", 7.0, "discover"),
        (None, "seed", False, "evaluate"),
        # lists and their items; a union names the whole key
        ("classifier", "weights", 1.0, "explain"),
        ("classifier", "weights", ["0", "1"], "explain"),
        ("classifier", "weights", [[0.0, NAN], [1.0, 0.0]], "explain"),
        ("classifier", "bias", "-1", "explain"),
        ("classifier", "bias", True, "explain"),
        ("classifier", "bias", NAN, "explain"),
        ("classifier", "bias", [INF, 0.0], "explain"),
        ("explain", "interventions", "t+=1", "explain"),
        ("oracle", "edges", {"from": 0, "to": 1, "weight": 0.5}, "sample"),
        ("oracle.file", "edges", {"from": 0, "to": 1, "weight": 0.5}, "sample"),
        *[
            (section, key, value, command)
            for section, key, kind, command in _KEY_KINDS
            for value in _WRONG[kind]
        ],
    ],
)
def test_config_values_must_have_json_types(tmp_path, capsys, section, key, value, command):
    cfg = config_with(tmp_path, section, key, value)
    out = tmp_path / "o"
    assert main([command, "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    name = key if section is None else f"{section}.{key}"
    name = re.sub(r"\.(\d+)", r"[\1]", name)  # list indices as in the message
    assert err["error"] == "ValueError" and f"config key '{name}' must be" in err["message"]
    assert not out.exists()


_EDGE = {"from": 0, "to": 1, "weight": 0.5}


@pytest.mark.parametrize(
    "section,key,value,message",
    [
        ("oracle.edges.0", "from", -1, "config key 'oracle.edges[0].from' must lie in [0, 2)"),
        ("oracle.edges.0", "to", 2, "config key 'oracle.edges[0].to' must lie in [0, 2)"),
        ("oracle.file.edges.0", "to", 5, "config key 'oracle.file.edges[0].to' must lie in [0, 2)"),
        ("oracle", "edges", [_EDGE, dict(_EDGE, weight=-0.5)],
         "config key 'oracle.edges[1]' repeats edge (0, 1)"),
        ("oracle.file", "edges", [_EDGE, _EDGE], "config key 'oracle.file.edges[1]' repeats edge"),
        ("oracle", "model_file", "model.json", "'oracle.model' and 'oracle.model_file'"),
        (None, None, 3, "the config must be an object, got 3"),
        (None, None, [TI_CFG], "the config must be an object"),
    ],
)
def test_malformed_configs_rejected(tmp_path, capsys, section, key, value, message):
    if key == "model_file":  # a TI model file beside the TSWI model
        value = str(tmp_path / value)
        Path(value).write_text(builtin("TI").to_json())
        cfg = dict(TI_CFG, oracle={"kind": "scm", "model": "TSWI", "model_file": value})
    else:
        cfg = value if key is None else config_with(tmp_path, section, key, value)
    out = tmp_path / "o"
    assert main(["sample", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError" and message in err["message"]
    assert not out.exists()


DROP = object()  # a set_at value that deletes the key


def set_at(doc, path, value):
    """Set (or with DROP delete) the key at a dotted path whose digits index lists."""
    *parents, last = path.split(".")
    for part in parents:
        doc = doc[int(part)] if part.isdigit() else doc[part]
    if value is DROP:
        del doc[int(last) if last.isdigit() else last]
    else:
        doc[int(last) if last.isdigit() else last] = value


def config_for(tmp_path, base, path, value):
    """TI_CFG edited at path: in the config itself ("ti"), in a config with an
    inline linear oracle ("linear"), or in the file its oracle names: a linear
    spec file ("file") or a TI model file ("model_file")."""
    cfg = json.loads(json.dumps(TI_CFG))
    if base == "linear":
        cfg["oracle"] = {"kind": "linear", **json.loads(json.dumps(LINEAR_SPEC))}
    if base in ("ti", "linear"):
        set_at(cfg, path, value)
        return cfg
    doc = json.loads(json.dumps(LINEAR_SPEC if base == "file" else builtin("TI").to_json_dict()))
    set_at(doc, path, value)
    (tmp_path / "spec.json").write_text(json.dumps(doc))
    cfg["oracle"] = (
        {"kind": "linear", "file": str(tmp_path / "spec.json")}
        if base == "file"
        else {"kind": "scm", "model_file": str(tmp_path / "spec.json")}
    )
    return cfg


_LOOP = {"from": 1, "to": 1, "weight": 0.0}
_MF = "oracle.model_file"
# the TI intensity equation with its parent repeated and a linear term
_REPEATED_PARENT = dict(
    builtin("TI").to_json_dict()["equations"][1],
    parents=[0, 0],
    coeffs={"const": 64, "linear": [1.0], "sig_scale": 191, "sig_bias": -5.0, "sig_linear": [2.0]},
)


@pytest.mark.parametrize(
    "base,path,value,command,message",
    [
        # required keys
        ("linear", "oracle.dim", DROP, "sample", "config key 'oracle.dim' is required"),
        ("file", "dim", DROP, "discover", "config key 'oracle.file.dim' is required"),
        ("linear", "oracle.edges.0.weight", DROP, "sample",
         "config key 'oracle.edges[0].weight' is required"),
        ("file", "edges.0.from", DROP, "sample", "config key 'oracle.file.edges[0].from' is required"),
        ("ti", "classifier.weights", DROP, "explain", "config key 'classifier.weights' is required"),
        ("ti", "classifier.weights", DROP, "evaluate", "config key 'classifier.weights' is required"),
        # ranges
        ("linear", "oracle.dim", 0, "sample", "config key 'oracle.dim' must be at least 1, got 0"),
        ("linear", "oracle.dim", -1, "discover", "config key 'oracle.dim' must be at least 1"),
        ("file", "dim", 0, "sample", "config key 'oracle.file.dim' must be at least 1"),
        ("linear", "oracle.edges.0", _LOOP, "sample",
         "config key 'oracle.edges[0]' is a self-loop on node 1"),
        ("linear", "oracle.edges.0", dict(_LOOP, weight=0.5), "discover",
         "config key 'oracle.edges[0]' is a self-loop on node 1"),
        ("file", "edges.0", _LOOP, "sample", "config key 'oracle.file.edges[0]' is a self-loop"),
        # a list bias needs a weight matrix
        ("ti", "classifier.bias", [-1.0], "explain",
         "config key 'classifier.bias' must be a number for vector weights"),
        ("ti", "classifier.bias", [-1.0, 0.0], "evaluate",
         "config key 'classifier.bias' must be a number for vector weights"),
        # model files
        ("model_file", "equations.1.coeffs.const", "64", "sample",
         f"config key '{_MF}.equations[1].coeffs.const' must be a finite number"),
        ("model_file", "equations.0.noise.params", ["10", 5], "sample",
         f"config key '{_MF}.equations[0].noise.params[0]' must be a finite number"),
        ("model_file", "equations.1.coeffs.sig_scal", 191, "sample",
         f"unknown config key '{_MF}.equations[1].coeffs.sig_scal'"),
        ("model_file", "equations.1.coeffs.sig_bias", DROP, "discover",
         f"config key '{_MF}.equations[1].coeffs.sig_bias' is required"),
        ("model_file", "equations.1.parents", [0.0], "sample",
         f"config key '{_MF}.equations[1].parents[0]' must be an integer"),
        ("model_file", "nodes.1.label", 1, "sample", f"config key '{_MF}.nodes[1].label' must be"),
        ("model_file", "name", DROP, "sample", f"config key '{_MF}.name' is required"),
        ("model_file", "equations", {}, "sample", f"config key '{_MF}.equations' must be a list"),
        # model-file node ids are 0..n-1, once each
        ("model_file", "nodes.1.id", 0, "sample",
         f"config key '{_MF}.nodes' must hold ids 0..1 once each, got [0, 0]"),
        ("model_file", "nodes.1.id", 7, "discover", f"config key '{_MF}.nodes' must hold"),
        ("model_file", "equations.0.node", 1, "sample",
         f"config key '{_MF}.equations' must hold ids 0..1 once each, got [1, 1]"),
        # classifier shapes, checked before discovery
        ("ti", "classifier", {"weights": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], "bias": [1.0, 2.0]},
         "explain", "config key 'classifier.bias' must be a number for vector weights, else one "
         "number per weight row (3); got [1.0, 2.0]"),
        ("ti", "classifier", {"weights": [[1.0, 0.0], [0.0]]}, "explain",
         "config key 'classifier.weights' needs rows of length 2"),
        ("ti", "classifier", {"weights": [[1.0, 0.0], [0.0, 1.0]], "n_classes": 3}, "evaluate",
         "config key 'classifier.n_classes' must be 2 for these weights, got 3"),
        ("ti", "classifier", {"weights": [0.0, 1.0, 0.5]}, "evaluate",
         "config key 'classifier.weights' needs rows of length 2, the oracle dimension"),
        ("ti", "classifier", {"weights": [[0.0, 1.0]]}, "explain",
         "config key 'classifier.weights' needs at least 2 rows, one per class; got 1"),
        # model-file parents lie in 0..n-1, once each, with one coefficient each
        ("model_file", "equations.1.parents", [7], "sample",
         f"config key '{_MF}.equations[1].parents' must lie in [0, 2), got [7]"),
        ("model_file", "equations.1", _REPEATED_PARENT, "sample",
         f"config key '{_MF}' holds an invalid model: equation for node 1: parents must be "
         "distinct integers, got [0, 0]"),
        ("model_file", "equations.1.coeffs.sig_linear", [2.0, 1.0], "discover",
         f"config key '{_MF}' holds an invalid model: equation for node 1: sig_linear must "
         "hold no coefficient or one per parent (1), got 2"),
    ],
)
def test_missing_keys_and_ranges_rejected(tmp_path, capsys, base, path, value, command, message):
    cfg = config_for(tmp_path, base, path, value)
    out = tmp_path / "o"
    assert main([command, "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError" and message in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("key,value", [("dim", 5), ("edges", []), ("noise_std", 0.5)])
def test_linear_file_excludes_inline_keys(tmp_path, capsys, key, value):
    cfg = config_for(tmp_path, "file", "dim", 2)
    cfg["oracle"][key] = value
    out = tmp_path / "o"
    assert main(["sample", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert f"config keys 'oracle.{key}' and 'oracle.file'" in err["message"]
    assert not out.exists()


def test_model_file_with_legacy_key_samples_like_the_builtin(tmp_path):
    # context_count and the mechanism kind tags are no longer written, but
    # files that still carry them load
    for path, value in (("context_count", 2), ("equations.1.mechanism", "affine-of-sigmoid")):
        cfg = config_for(tmp_path, "model_file", path, value)
        for name, config in (("file", cfg), ("builtin", TI_CFG)):
            out = str(tmp_path / path / name)
            assert main(["sample", "--config", write_cfg(tmp_path, config), "--out", out]) == 0
        assert (tmp_path / path / "file/samples.csv").read_bytes() == (
            tmp_path / path / "builtin/samples.csv"
        ).read_bytes()


def test_config_types_checked_for_in_process_callers(tmp_path):
    with pytest.raises(ValueError, match="config key 'pool_size' must be an integer"):
        cli.run_discover({**TI_CFG, "pool_size": 512.0}, str(tmp_path / "d"), 7)
    evaluate = {"n_explanations": 150, "deterministic_seed": "false"}
    with pytest.raises(ValueError, match="'evaluate.deterministic_seed' must be a boolean"):
        cli.evaluate_explainer({**TI_CFG, "evaluate": evaluate}, 7)


def test_manifest_embeds_the_loaded_config(tmp_path):
    cfg = json.loads(json.dumps(TI_CFG))
    cfg["oracle_config"] = {"standardize": True}
    cfg["evaluate"]["deterministic_seed"] = True
    path = write_cfg(tmp_path, cfg)
    out = tmp_path / "s"
    assert main(["sample", "--config", path, "--out", str(out)]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    # compared as JSON text: 1 == True in Python, not in the file
    loaded = cli.load_config(path)
    assert json.dumps(manifest["config"], sort_keys=True) == json.dumps(loaded, sort_keys=True)


def reference_csv(path, header, rows):
    """The per-cell writer: csv.writer over repr(float(v)) of every cell."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) for v in row])


_CRAFTED = [-0.0, 0.0, 5e-324, -5e-324, 0.1, 1e16, 1e-5, -2.5, 1 / 3, -1e-300,
            1.7976931348623157e308, 2.2250738585072014e-308, 123456789.0, -7.0]


def crafted_block(n, d=4):
    rng = np.random.default_rng(n)
    block = rng.choice(np.array(_CRAFTED), (n, d))
    block[:, 0] = -np.arange(n) * 0.1  # every row distinct
    return block


def check_csv_matches_reference(tmp_path, block):
    header = [f"x{j}" for j in range(block.shape[1])]
    cli._write_csv(tmp_path / "bulk.csv", header, block)
    reference_csv(tmp_path / "ref.csv", header, block)
    data = (tmp_path / "bulk.csv").read_bytes()
    assert data == (tmp_path / "ref.csv").read_bytes()
    assert data.count(b"\r\n") == len(block) + 1 and data.count(b"\n") == len(block) + 1
    with open(tmp_path / "bulk.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == header
    parsed = np.array([[float(v) for v in row] for row in rows[1:]]).reshape(block.shape)
    assert np.array_equal(parsed.view(np.uint64), block.view(np.uint64))


@pytest.mark.parametrize("n", [1, 2, 4, 5, 6, 10, 11, 16])
def test_float_csv_matches_reference_writer_across_chunks(tmp_path, monkeypatch, n):
    monkeypatch.setattr(cli, "_CSV_CHUNK_ROWS", 5)
    check_csv_matches_reference(tmp_path, crafted_block(n))


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_float_csv_matches_reference_writer_at_chunk_size(tmp_path, offset):
    check_csv_matches_reference(tmp_path, crafted_block(cli._CSV_CHUNK_ROWS + offset, d=3))


def test_samples_csv_matches_reference_writer(tmp_path):
    n = cli._CSV_CHUNK_ROWS + 1
    cli.run_sample(TI_CFG, str(tmp_path / "s"), 7, n_override=n)
    model = builtin("TI")
    reference_csv(tmp_path / "ref.csv", model.labels, model.sample(n, [7, 1]).values)
    assert (tmp_path / "s" / "samples.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


_edges = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda e: e[0] != e[1]),
    st.floats(-2.0, 2.0),
)


@settings(max_examples=50, deadline=None)
@given(runs=st.lists(_edges, min_size=1, max_size=6))
def test_consensus_edges_are_within_the_union_of_runs(runs):
    graphs = [CausalGraph(list("abcd"), edges) for edges in runs]
    consensus = cli._consensus(graphs, "abcd")
    assert consensus.edge_set() <= set().union(*(g.edge_set() for g in graphs))


def test_sample_linear_config(tmp_path):
    out = tmp_path / "lin"
    assert main(["sample", "--config", write_cfg(tmp_path, ZERO_CFG), "--out", str(out)]) == 0
    lines = (out / "samples.csv").read_text().strip().splitlines()
    assert lines[0] == "x0,x1,x2"
    assert len(lines) == 101  # header + the default 100 rows


@pytest.mark.parametrize(
    "command,extra",
    [
        ("sample", []),
        ("discover", []),
        ("explain", ["--do", "t+=1"]),
        ("evaluate", []),
    ],
)
def test_byte_identical_reruns(tmp_path, command, extra):
    cfg = write_cfg(tmp_path, TI_CFG)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main([command, "--config", cfg, "--out", str(out_a)] + extra) == 0
    assert main([command, "--config", cfg, "--out", str(out_b)] + extra) == 0
    assert read_tree(out_a) == read_tree(out_b)


def test_seed_changes_outputs(tmp_path):
    cfg = write_cfg(tmp_path, TI_CFG)
    out_a = tmp_path / "sa"
    out_b = tmp_path / "sb"
    assert main(["sample", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["sample", "--config", cfg, "--out", str(out_b), "--seed", "8"]) == 0
    assert (out_a / "samples.csv").read_bytes() != (out_b / "samples.csv").read_bytes()


# runs every subcommand with scipy unimportable: numpy is the only runtime
# dependency
_WITHOUT_SCIPY = """
import sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"blocked import of {name}")

sys.meta_path.insert(0, BlockScipy())
try:
    import scipy
except ImportError:
    pass
else:
    sys.exit("scipy imported despite the block")
from causalprobe.cli import main

config, out = sys.argv[1:]
for command in ("sample", "discover", "explain", "evaluate"):
    code = main([command, "--config", config, "--out", f"{out}/{command}"])
    if code:
        sys.exit(f"{command} exited {code}")
"""


def _numbers(doc):
    if isinstance(doc, dict):
        return [v for item in doc.values() for v in _numbers(item)]
    if isinstance(doc, list):
        return [v for item in doc for v in _numbers(item)]
    return [doc] if isinstance(doc, (int, float)) and not isinstance(doc, bool) else []


def _csv_numbers(path):
    cells = [cell for row in csv.reader(path.open()) for cell in row]
    numbers = []
    for cell in cells:
        try:
            numbers.append(float(cell))
        except ValueError:
            pass  # a label, a header or an empty cell
    return numbers


def test_cli_runs_without_scipy(tmp_path):
    src = str(Path(causalprobe.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    cfg = write_cfg(tmp_path, dict(TI_CFG, explain={"interventions": ["t+=1"]}))
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY, cfg, str(tmp_path / "runs")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    outputs = {
        "sample": ["samples.csv"],
        "discover": ["graph.json", "report.json", "report.csv"],
        "explain": ["explanation.json", "explanation.csv", "confidence_delta.csv",
                    "counterfactual_diff.csv"],
        "evaluate": ["metrics.json", "metrics.csv"],
    }
    for command, names in outputs.items():
        for name in names:
            path = tmp_path / "runs" / command / name
            numbers = (
                _numbers(json.loads(path.read_text())) if name.endswith(".json")
                else _csv_numbers(path)
            )
            assert numbers and all(math.isfinite(v) for v in numbers), (command, name)
