import csv
import functools
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import causalprobe
from causalprobe import BUILTIN_NAMES, CausalGraph, builtin, cli, discover
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
    assert manifest["config"]["seed"] == 7


def test_sample_rejects_zero_rows(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TI_CFG)
    rc = main(["sample", "--config", cfg, "--out", str(tmp_path / "o"), "--n", "0"])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    # --n writes sample.n, so the config key is named
    message = "config key 'sample.n' must be at least 1, got 0"
    assert err == {"error": "ValueError", "message": message}


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


@pytest.mark.parametrize("policy", ["fixed", "resample"])
def test_run_discover_computes_one_graph_per_subset_under_fixed(tmp_path, monkeypatch, policy):
    # discover on a given base ignores its seed under "fixed", so each subset's
    # graph is computed once there and written for all its Q seeds
    n_sets, n_reps = 2, 3
    cfg = {**TI_CFG, "oracle_config": {"noise_policy": policy},
           "evaluation": {"p_subsets": n_sets, "q_repetitions": n_reps}}
    seed = cfg["seed"]
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return discover(*args, **kwargs)

    monkeypatch.setattr(cli, "discover", counted)
    cli.run_discover(cfg, str(tmp_path), seed)
    assert len(calls) == (n_sets if policy == "fixed" else n_sets * n_reps)

    oracle = cli.build_oracle(cfg, seed)
    dcfg = cli._build_section(cfg, "discovery", seed=seed)
    pool = oracle.sample_latents(cfg["pool_size"], [seed, 10])
    for p in range(n_sets):
        subset = pool[np.random.default_rng([seed, 11, p]).integers(0, len(pool), dcfg.n_samples)]
        for q in range(n_reps):
            run_cfg = replace(dcfg, seed=cli._derive_seed(seed, 12, p, q))
            doc = discover(oracle, run_cfg, base=subset).to_json_dict()
            assert doc["edges"]  # a graph with weights to compare
            text = (tmp_path / f"graphs/graph_p{p}_q{q}.json").read_text()
            assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n", (p, q)


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


def test_softmax_weights_alone_set_the_class_count(tmp_path):
    # a 3-row weight matrix is a 3-class head: no config key names the count
    weights = [[0.0, 1.0], [1.0, 0.0], [-1.0, -1.0]]
    cfg = write_cfg(tmp_path, {**TI_CFG, "classifier": {"weights": weights}})
    out = tmp_path / "exp"
    assert main(["explain", "--config", cfg, "--out", str(out), "--do", "t+=1"]) == 0
    conf = (out / "confidence_delta.csv").read_text().strip().splitlines()
    assert conf[0] == "row,intervention,class_0,class_1,class_2"
    assert [len(line.split(",")) for line in conf] == [5, 5, 5]
    assert 0 <= json.loads((out / "explanation.json").read_text())["target_class"] < 3


def test_explain_empty_do_only_baseline(tmp_path):
    cfg = write_cfg(tmp_path, TI_CFG)
    out = tmp_path / "exp0"
    assert main(["explain", "--config", cfg, "--out", str(out)]) == 0
    conf = (out / "confidence_delta.csv").read_text().strip().splitlines()
    assert len(conf) == 2  # header + baseline only


def test_explain_diff_is_zero_on_what_the_intervention_cannot_reach(tmp_path):
    # i is a sink of the README's TSWI world: clamping it moves nothing else
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    cfg = write_cfg(tmp_path, json.loads(re.findall(r"```json\n(.*?)```", readme, flags=re.S)[0]))
    out = tmp_path / "exp"
    assert main(["explain", "--config", cfg, "--out", str(out), "--do", "i+=1"]) == 0
    with open(out / "counterfactual_diff.csv", newline="") as fh:
        rows = {(row["row"], row["intervention"]): row for row in csv.DictReader(fh)}
    diff = rows[("diff", "i+=1")]
    assert [diff[label] for label in ("t", "s", "w")] == ["0.0", "0.0", "0.0"]
    assert float(diff["i"]) != 0.0


def test_readme_config_under_resample(tmp_path):
    # "resample" redraws noise only on what an intervention reaches
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    cfg = json.loads(re.findall(r"```json\n(.*?)```", readme, flags=re.S)[0])
    cfg["oracle_config"]["noise_policy"] = "resample"
    path = write_cfg(tmp_path, cfg)
    runs = [tmp_path / "a", tmp_path / "b"]
    for run in runs:
        for command, extra in (("discover", []), ("explain", ["--do", "i+=1"]), ("evaluate", [])):
            assert main([command, "--config", path, "--out", str(run / command)] + extra) == 0
    assert read_tree(runs[0]) == read_tree(runs[1])
    outputs = [(p, _numbers(json.loads(p.read_text()))) for p in runs[0].rglob("*.json")]
    outputs += [(p, _csv_numbers(p)) for p in runs[0].rglob("*.csv")]
    for out, numbers in outputs:
        assert all(math.isfinite(v) for v in numbers), out
    with open(runs[0] / "explain" / "counterfactual_diff.csv", newline="") as fh:
        rows = {(row["row"], row["intervention"]): row for row in csv.DictReader(fh)}
    diff = {key: {label: float(row[label]) for label in "tswi"} for key, row in rows.items()}
    i_diff, t_diff = diff[("diff", "i+=1")], diff[("diff", "t+=1")]
    assert [i_diff[label] for label in "tsw"] == [0.0, 0.0, 0.0]
    assert abs(i_diff["i"] - 1.0) <= 1e-12 and abs(t_diff["t"] - 1.0) <= 1e-12


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


@pytest.mark.parametrize("deterministic_seed", [True, False])
def test_evaluate_scores_the_stacked_lime_batch_weights(deterministic_seed):
    """The weights evaluate_explainer scores for faithfulness and stability
    are, bit for bit, lime_latent's weights of each latent it fits under
    that latent's seed, stacked: one _lime_fits call, the faithfulness
    latents first."""
    cfg = json.loads(json.dumps(TI_CFG))
    cfg["evaluate"]["deterministic_seed"] = deterministic_seed
    with (
        mock.patch.object(cli, "_lime_fits", wraps=cli._lime_fits) as fits,
        mock.patch.object(cli, "faithfulness_index", wraps=cli.faithfulness_index) as faith,
        mock.patch.object(cli, "stability", wraps=cli.stability) as stab,
    ):
        cli.evaluate_explainer(cfg, 0)
    (call,) = fits.call_args_list
    oracle, head, graph, latents, acfg, seeds = call.args
    solo = np.array([
        causalprobe.lime_latent(oracle, head, graph, latent, replace(acfg, seed=s)).weights
        for latent, s in zip(latents, seeds)
    ])
    n_expl = cfg["evaluate"]["n_explanations"]
    engine, noisy = solo[:n_expl], solo[n_expl:]
    assert faith.call_args_list[0].args[1].tobytes() == engine.tobytes()
    sets = stab.call_args.args[0]
    n_sets, n_reps, d = sets.shape
    assert len(noisy) == n_sets * (1 if deterministic_seed else n_reps)
    per_set = noisy.reshape(n_sets, -1, d)
    assert sets.tobytes() == per_set.repeat(n_reps // per_set.shape[1], axis=1).tobytes()


def test_warnings_reach_stderr_as_json_lines(tmp_path):
    # Q = 1 makes stability warn; a fresh process shows what a user sees
    src = str(Path(causalprobe.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    evaluation = {"p_subsets": 1, "q_repetitions": 1, "mi_bins": 4}
    cfg = write_cfg(tmp_path, {**TI_CFG, "evaluation": evaluation})
    out = tmp_path / "ev"
    proc = subprocess.run(
        [sys.executable, "-m", "causalprobe", "evaluate", "--config", cfg, "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stderr.splitlines()]
    warning = {"warning": "RuntimeWarning", "message": "stability with Q = 1 is 0 by convention"}
    assert warning in lines
    assert json.loads((out / "metrics.json").read_text())["stability"] == 0.0


def test_explain_rejects_non_finite_latent(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TI_CFG)
    rc = main(["explain", "--config", cfg, "--out", str(tmp_path / "e"), "--latent", "nan,1.0"])
    assert rc == 1
    # --latent writes explain.latent, whose schema kind is a list of finite numbers
    message = "config key 'explain.latent[0]' must be a finite number, got nan"
    assert json.loads(capsys.readouterr().err) == {"error": "ValueError", "message": message}


def test_explain_rejects_non_finite_intervention(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TI_CFG)
    out = tmp_path / "e"
    assert main(["explain", "--config", cfg, "--out", str(out), "--do", "t=inf"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError" and "finite" in err["message"]
    assert not (out / "confidence_delta.csv").exists()


def test_latent_flag_overrides_the_config_index(tmp_path):
    cfg = write_cfg(tmp_path, dict(TI_CFG, explain={"index": 1}))
    out = tmp_path / "e"
    assert main(["explain", "--config", cfg, "--out", str(out), "--latent", "0.1,0.2"]) == 0
    assert json.loads((out / "explanation.json").read_text())["latent"] == [0.1, 0.2]


def test_config_latent_wins_over_the_config_index(tmp_path):
    cfg = write_cfg(tmp_path, dict(TI_CFG, explain={"index": 1, "latent": [0.1, 2]}))
    out = tmp_path / "e"
    assert main(["explain", "--config", cfg, "--out", str(out)]) == 0
    assert json.loads((out / "explanation.json").read_text())["latent"] == [0.1, 2.0]


def test_index_flag_overrides_a_config_latent(tmp_path):
    latent = write_cfg(tmp_path, dict(TI_CFG, explain={"latent": [0.1, 0.2]}), "latent.json")
    index = write_cfg(tmp_path, dict(TI_CFG, explain={"index": 1}), "index.json")
    assert main(["explain", "--config", latent, "--out", str(tmp_path / "a"), "--index", "1"]) == 0
    assert main(["explain", "--config", index, "--out", str(tmp_path / "b")]) == 0
    assert read_tree(tmp_path / "a") == read_tree(tmp_path / "b")


@pytest.mark.parametrize(
    "command, flags",
    [
        ("sample", ["--n", "7", "--seed", "9"]),
        ("explain", ["--index", "5", "--do", "i=2", "--policy", "independent"]),
        ("explain", ["--latent", "0.25,-1.5", "--do", "t+=1", "--do", "i-=0.5"]),
        ("discover", ["--seed", "4"]),
        ("evaluate", []),
    ],
    ids=["sample-n-seed", "explain-index-do-policy", "explain-latent-do", "discover-seed",
         "evaluate"],
)
def test_manifest_config_replays_a_flagged_run(tmp_path, command, flags):
    """Each flag writes its config key, so the manifest's config, run with no
    flags, reproduces every output, the manifest included."""
    cfg = write_cfg(tmp_path, dict(TI_CFG, explain={"interventions": ["t-=1"]}))
    first, replay = tmp_path / "first", tmp_path / "replay"
    assert main([command, "--config", cfg, "--out", str(first), *flags]) == 0
    manifest = json.loads((first / "run_manifest.json").read_text())
    replayed = write_cfg(tmp_path, manifest["config"], "replayed.json")
    assert main([command, "--config", replayed, "--out", str(replay)]) == 0
    assert read_tree(first) == read_tree(replay)


@pytest.mark.parametrize("command", ["sample", "discover", "explain", "evaluate"])
def test_manifest_config_replays_an_in_process_run(tmp_path, command):
    """An in-process run records the seed argument it ran under as config key
    'seed', over the config's own seed or none, and nowhere else: the
    manifest's config, run through main with no flags, reproduces every
    output. A numpy integer seed runs as its int."""
    run = getattr(cli, f"run_{command}")
    unseeded = {k: v for k, v in TI_CFG.items() if k != "seed"}
    runs = [(dict(TI_CFG, seed=3), 5), (unseeded, 5), (unseeded, np.int64(5))]
    trees = []
    for k, (cfg, seed) in enumerate(runs):
        first, replay = tmp_path / f"first{k}", tmp_path / f"replay{k}"
        run(cfg, str(first), seed)
        manifest = json.loads((first / "run_manifest.json").read_text())
        assert list(manifest) == ["command", "config", "outputs"]
        replayed = write_cfg(tmp_path, manifest["config"], f"replayed{k}.json")
        assert main([command, "--config", replayed, "--out", str(replay)]) == 0
        assert read_tree(replay) == read_tree(first)
        trees.append(read_tree(first))
    assert trees[0] == trees[1] == trees[2]


def no_model(*args, **kwargs):
    raise AssertionError("the model was built before the seed was checked")


@pytest.mark.parametrize("seed", [True, -1, 2.5], ids=["bool", "negative", "float"])
@pytest.mark.parametrize(
    "entry", ["run_sample", "run_discover", "run_explain", "run_evaluate", "evaluate_explainer"]
)
def test_every_entry_point_checks_its_seed(tmp_path, monkeypatch, entry, seed):
    """The five entry points share the stage configs' seed rule, keyed by
    'seed', and fail on a bad seed before building anything or writing."""
    monkeypatch.setattr(cli, "build_scm_model", no_model)
    out = tmp_path / "o"
    args = (TI_CFG, seed) if entry == "evaluate_explainer" else (TI_CFG, str(out), seed)
    with pytest.raises(ValueError) as exc:
        getattr(cli, entry)(*args)
    assert str(exc.value) == (
        f"config key 'seed': seed must be a non-negative integer, got {seed!r}"
    )
    assert not out.exists()


def no_discovery(*args, **kwargs):
    raise AssertionError("discovery ran before the config was checked")


@pytest.mark.parametrize(
    "command, cfg, flags, message",
    [
        ("explain", dict(TI_CFG, pool_size=0), [],
         "sample index 0 out of range for pool_size 0"),
        ("explain", dict(TI_CFG, pool_size=-5), [],
         "sample index 0 out of range for pool_size -5"),
        ("explain", TI_CFG, ["--index", "512"], "sample index 512 out of range for pool_size 512"),
        ("explain", TI_CFG, ["--latent", "1,,2"],
         "--latent takes comma-separated numbers, got '1,,2'"),
        ("explain", TI_CFG, ["--index", "1", "--latent", "0.1,0.2"],
         "--index and --latent are alternatives: give one of them"),
        ("explain", TI_CFG, ["--latent", "0.1"], "latent vector has 1 entries"),
        ("explain", dict(TI_CFG, explain={"latent": [0.1, 0.2, 0.3]}), [],
         "latent vector has 3 entries, oracle dimension is 2"),
        ("explain", TI_CFG, ["--do", "t+=abc"], "bad intervention value in 't+=abc'"),
        ("explain", TI_CFG, ["--do", "t"], "bad intervention spec 't'"),
        ("evaluate", dict(TI_CFG, evaluate={"n_explanations": 3}),
         [], "evaluate.n_explanations (3) must be at least evaluation.mi_bins (4)"),
        ("evaluate", dict(TI_CFG, evaluate={"n_explanations": 0}),
         [], "evaluate.n_explanations (0) must be at least evaluation.mi_bins (4)"),
        ("explain", dict(TI_CFG, attribution={"n_perturbations": 1}), [],
         "n_perturbations must be >= 2"),
        ("evaluate", dict(TI_CFG, attribution={"n_perturbations": 1}), [],
         "n_perturbations must be >= 2"),
        ("explain", TI_CFG, ["--seed", "-1"], "seed must be a non-negative integer"),
        # TI has d = 2: a fit has 3 unknowns
        ("explain", dict(TI_CFG, attribution={"n_perturbations": 2}), [],
         "config key 'attribution.n_perturbations' must be at least 3 (oracle dimension + 1) "
         "for a solvable fit, got 2"),
        ("evaluate", dict(TI_CFG, attribution={"n_perturbations": 2}), [],
         "config key 'attribution.n_perturbations' must be at least 3"),
    ],
    ids=["pool-size-0", "pool-size-negative", "index-past-pool", "latent-not-a-number",
         "index-and-latent", "latent-wrong-length", "config-latent-wrong-length",
         "do-not-a-number", "do-without-operator", "fewer-explanations-than-bins",
         "no-explanations", "explain-attribution", "evaluate-attribution", "negative-seed",
         "explain-too-few-perturbations", "evaluate-too-few-perturbations"],
)
def test_explain_and_evaluate_fail_before_discovery(
    tmp_path, capsys, monkeypatch, command, cfg, flags, message
):
    monkeypatch.setattr(cli, "discover", no_discovery)
    out = tmp_path / "o"
    rc = main([command, "--config", write_cfg(tmp_path, cfg), "--out", str(out), *flags])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError" and message in err["message"]
    assert not out.exists()


def test_readme_configs_pass_the_schema():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 2
    for block in blocks:
        cli.check_config(json.loads(block))


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    printed = capsys.readouterr().out
    assert printed.startswith("digraph causal {") and "'t': " in printed


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
        (TI_CFG, "oracle_config", "seed", "discover"),
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
    ("discovery", "threshold", float, "discover"),
    ("discovery", "prune_eps", float, "discover"),
    ("discovery", "intervention_magnitude", float, "discover"),
    ("discovery", "n_samples", int, "discover"),
    ("attribution", "n_perturbations", int, "explain"),
    ("attribution", "ridge_lambda", float, "explain"),
    ("attribution", "perturbation_policy", str, "explain"),
    ("evaluation", "p_subsets", int, "discover"),
    ("evaluation", "q_repetitions", int, "discover"),
    ("evaluation", "noise_std", float, "evaluate"),
    ("evaluation", "mi_bins", int, "evaluate"),
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
# settings that only tests varied, now gone: the weights set the class count,
# stability perturbs the first latent, lime draws unit-scale deltas and
# weighs them with a kernel of width 0.75 * sqrt(dim); a config that still
# sets one fails as an unknown key whatever its value
_REMOVED_KEYS = [
    ("attribution", "kernel_width", float, "explain"),
    ("attribution", "perturbation_std", float, "explain"),
    ("classifier", "n_classes", int, "explain"),
    ("evaluate", "stability_index", int, "evaluate"),
]


@pytest.mark.parametrize(
    "section,key,value,command",
    [
        ("evaluate", "deterministic_seed", "false", "evaluate"),
        ("evaluate", "deterministic_seed", 0, "evaluate"),
        ("evaluate", "n_explanations", 40.9, "evaluate"),
        ("evaluate", "n_explanations", "150", "evaluate"),
        ("evaluate", "n_explanations", True, "evaluate"),
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
            for section, key, kind, command in _KEY_KINDS + _REMOVED_KEYS
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
    removed = (section, key) in [(s, k) for s, k, _, _ in _REMOVED_KEYS]
    expected = f"unknown config key '{name}'" if removed else f"config key '{name}' must be"
    assert err["error"] == "ValueError" and expected in err["message"]
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
_CYCLE = [_EDGE, {"from": 1, "to": 0, "weight": 0.5}]
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
         "config key 'classifier': bias shape (1,) is not one of [()]: a number for vector "
         "weights"),
        ("ti", "classifier.bias", [-1.0, 0.0], "evaluate",
         "config key 'classifier': bias shape (2,) is not one of [()]: a number for vector "
         "weights"),
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
         f"config key '{_MF}': nodes must hold ids 0..1 once each, got [0, 0]"),
        ("model_file", "nodes.1.id", 7, "discover", f"config key '{_MF}': nodes must hold"),
        ("model_file", "equations.0.node", 1, "sample",
         f"config key '{_MF}': equations must hold ids 0..1 once each, got [1, 1]"),
        # classifier shapes, checked before discovery
        ("ti", "classifier", {"weights": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], "bias": [1.0, 2.0]},
         "explain", "config key 'classifier': bias shape (2,) is not one of [(), (3,)]: a number "
         "or one per weight row (3)"),
        ("ti", "classifier", {"weights": [[1.0, 0.0], [0.0]]}, "explain",
         "config key 'classifier.weights' needs rows of length 2"),
        # n_classes is no longer a key: the weights alone set the class count
        ("ti", "classifier", {"weights": [[1.0, 0.0], [0.0, 1.0]], "n_classes": 3}, "evaluate",
         "config key 'classifier.n_classes'; known keys"),
        ("ti", "classifier", {"weights": [0.0, 1.0, 0.5]}, "evaluate",
         "config key 'classifier.weights' needs rows of length 2, the oracle dimension"),
        ("ti", "classifier", {"weights": [[0.0, 1.0]]}, "explain",
         "config key 'classifier': softmax head needs at least 2 classes, one weight row each; "
         "got 1"),
        # model-file parents lie in 0..n-1, once each, with one coefficient each
        ("model_file", "equations.1.parents", [7], "sample",
         f"config key '{_MF}': edge (7, 1) out of range for 2 nodes"),
        ("model_file", "equations.1", _REPEATED_PARENT, "sample",
         f"config key '{_MF}': equation for node 1: parents must be distinct integers, got [0, 0]"),
        ("model_file", "equations.1.coeffs.sig_linear", [2.0, 1.0], "discover",
         f"config key '{_MF}': equation for node 1: sig_linear must hold no coefficient or one "
         "per parent (1), got 2"),
        # a stage dataclass names the failing field, and the CLI its section;
        # ids from when the CLI named the key itself
        pytest.param("ti", "discovery.n_samples", 0, "discover",
                     "config key 'discovery': n_samples must be >= 1, got 0",
                     id="ti-discovery.n_samples-0-discover-discovery.n_samples: n_samples must be "
                        ">= 1"),
        pytest.param("ti", "evaluation.p_subsets", 0, "evaluate",
                     "config key 'evaluation': p_subsets must be >= 1, got 0",
                     id="ti-evaluation.p_subsets-0-evaluate-evaluation.p_subsets: P and Q must be "
                        ">= 1"),
        pytest.param("ti", "attribution.n_perturbations", 1, "explain",
                     "config key 'attribution': n_perturbations must be >= 2, got 1",
                     id="ti-attribution.n_perturbations-1-explain-attribution.n_perturbations: "
                        "n_perturbations must be >= 2"),
        pytest.param("ti", "oracle_config", {"roundtrip_noise_std": -1}, "discover",
                     "config key 'oracle_config': roundtrip_noise_std must be >= 0 and finite, "
                     "got -1",
                     id="ti-oracle_config-value36-discover-oracle_config.roundtrip_noise_std: "
                        "roundtrip_noise_std must be >= 0"),
        # with two bad keys, the first check in __post_init__ order fails
        pytest.param("ti", "evaluation", {"mi_bins": 1, "p_subsets": 0}, "evaluate",
                     "config key 'evaluation': p_subsets must be >= 1, got 0",
                     id="ti-evaluation-value37-evaluate-evaluation.mi_bins: mi_bins must be >= 2"),
        # required sections, the builtin model name and the pool size
        ("ti", "oracle", DROP, "sample", "config key 'oracle' is required"),
        ("ti", "oracle.model", DROP, "sample",
         f"config key 'oracle.model': unknown builtin model None; choose one of {BUILTIN_NAMES}"),
        ("ti", "classifier", DROP, "explain", "config key 'classifier' is required"),
        ("ti", "pool_size", 100, "discover",
         "config key 'pool_size' (100) must be at least discovery.n_samples (256)"),
        ("ti", "sample.n", 0, "sample", "config key 'sample.n' must be at least 1, got 0"),
        # a linear spec's noise scale, inline and in its file
        ("linear", "oracle.noise_std", -1.0, "sample",
         "config key 'oracle': normal noise requires std >= 0, got (-1.0,)"),
        ("file", "noise_std", -0.5, "discover",
         "config key 'oracle.file': normal noise requires std >= 0, got (-0.5,)"),
        # a cyclic linear SEM, inline and in its file
        ("linear", "oracle.edges", _CYCLE, "sample", "config key 'oracle': graph contains a cycle"),
        ("file", "edges", _CYCLE, "discover", "config key 'oracle.file': graph contains a cycle"),
        # one check per field: each message names only its own
        ("ti", "discovery.prune_eps", 0, "discover",
         "config key 'discovery': prune_eps must be > 0 and finite, got 0"),
        ("ti", "evaluation.q_repetitions", 0, "evaluate",
         "config key 'evaluation': q_repetitions must be >= 1, got 0"),
        # a uniform noise range that numpy cannot draw from
        ("model_file", "equations.0.noise", {"family": "uniform", "params": [-1e308, 1e308]},
         "sample",
         f"config key '{_MF}': uniform noise requires low < high and a finite high - low"),
    ],
)
def test_missing_keys_and_ranges_rejected(tmp_path, capsys, base, path, value, command, message):
    cfg = config_for(tmp_path, base, path, value)
    out = tmp_path / "o"
    assert main([command, "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError" and message in err["message"]
    assert not out.exists()


def test_rescaled_model_file_samples_like_its_model(tmp_path):
    # a rescaled model writes each noise's scale into its file
    model = builtin("TI").rescaled([1, 2], [2, 4])
    (tmp_path / "model.json").write_text(model.to_json())
    cfg = dict(TI_CFG, oracle={"kind": "scm", "model_file": str(tmp_path / "model.json")})
    out = tmp_path / "o"
    assert main(["sample", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
    with open(out / "samples.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    expected = model.sample(TI_CFG["sample"]["n"], [TI_CFG["seed"], 1]).values
    assert np.array_equal(np.array(rows, dtype=float), expected)


def test_overflowing_chart_names_the_oracle(tmp_path, capsys):
    # the chart's spread overflows to inf; rescaling by it would zero the noise
    cfg = write_cfg(tmp_path, dict(
        TI_CFG, oracle={"kind": "linear", "dim": 2, "noise_std": 1e300},
        oracle_config={"standardize": True},
    ))
    assert main(["sample", "--config", cfg, "--out", str(tmp_path / "s")]) == 0  # no chart
    out = tmp_path / "o"
    assert main(["discover", "--config", cfg, "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err.splitlines()[-1])  # after numpy's overflow warning
    assert err["error"] == "ValueError"
    assert err["message"].startswith(
        "config key 'oracle': chart of column 'x0' must have a finite mean and spread"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "key,text",
    [
        ("config", "{not json"),
        ("oracle.model_file", None),  # no such file
        ("oracle.model_file", '{"name": "TI",'),
        ("oracle.file", "[1, 2"),
    ],
)
def test_unreadable_json_names_key_and_path(tmp_path, capsys, key, text):
    path = tmp_path / "doc.json"
    if text is not None:
        path.write_text(text)
    if key == "config":
        cfg_path, what = str(path), "cannot read config"
    else:
        kind, name = ("linear", "file") if key == "oracle.file" else ("scm", "model_file")
        spec = {"kind": kind, name: str(path)}
        cfg_path, what = write_cfg(tmp_path, dict(TI_CFG, oracle=spec)), f"config key '{key}'"
    out = tmp_path / "o"
    assert main(["sample", "--config", cfg_path, "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert what in err["message"] and str(path) in err["message"]
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


@pytest.mark.parametrize(
    "path, value, key",
    [("context_count", 2, "context_count"),
     ("equations.1.mechanism", "affine-of-sigmoid", "equations[1].mechanism")],
    ids=["context_count", "mechanism"],
)
def test_model_file_rejects_the_dropped_legacy_keys(tmp_path, capsys, path, value, key):
    # ScmModel.to_json no longer writes context_count or the mechanism kind
    # tags, and a file that still carries one is rejected, not ignored
    cfg = write_cfg(tmp_path, config_for(tmp_path, "model_file", path, value))
    out = tmp_path / "o"
    assert main(["sample", "--config", cfg, "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["message"].startswith(f"unknown config key 'oracle.model_file.{key}'")
    assert not out.exists()


def test_config_types_checked_for_in_process_callers(tmp_path):
    with pytest.raises(ValueError, match="config key 'pool_size' must be an integer"):
        cli.run_discover({**TI_CFG, "pool_size": 512.0}, str(tmp_path / "d"), 7)
    evaluate = {"n_explanations": 150, "deterministic_seed": "false"}
    with pytest.raises(ValueError, match="'evaluate.deterministic_seed' must be a boolean"):
        cli.evaluate_explainer({**TI_CFG, "evaluate": evaluate}, 7)


@pytest.mark.parametrize("value", [NAN, INF])
@pytest.mark.parametrize(
    "stage, key",
    [
        (causalprobe.OracleConfig, "roundtrip_noise_std"),
        (causalprobe.DiscoveryConfig, "threshold"),
        (causalprobe.DiscoveryConfig, "prune_eps"),
        (causalprobe.DiscoveryConfig, "intervention_magnitude"),
        (causalprobe.EvaluationConfig, "noise_std"),
        (causalprobe.AttributionConfig, "ridge_lambda"),
        # a partial has no name for its id, and an index-based id would shift
        # with the rows above
        pytest.param(
            functools.partial(causalprobe.AlignmentState, total_iterations=1), "lambda_max",
            id="stage9-lambda_max",
        ),
    ],
)
def test_stage_bounds_reject_non_finite_values(stage, key, value):
    # the CLI schema rejects these first; library callers reach the bounds
    with pytest.raises(ValueError, match=f"{key}.* and finite"):
        stage(**{key: value})


@pytest.mark.parametrize(
    "model, weights, mi_bins, n_explanations, expected",
    [
        ("TI", [0.0, 1.0], 8, 4200, (0.8691647348020393, 0.021577689604604277)),
        ("TSWI", [0.0, 0.0, 0.0, 1.0], 2, 1500, (0.6144589453615675, 0.011535877536870836)),
    ],
)
def test_criterion_7_scores_are_pinned(model, weights, mi_bins, n_explanations, expected):
    """The acceptance criterion-7 settings, scored to the last bit."""
    cfg = {
        "oracle": {"kind": "scm", "model": model},
        "classifier": {"weights": weights, "bias": -3.0},
        "discovery": {"n_samples": 256},
        "attribution": {"n_perturbations": 300},
        "evaluation": {"p_subsets": 5, "q_repetitions": 5, "mi_bins": mi_bins},
        "evaluate": {"n_explanations": n_explanations},
    }
    report = cli.evaluate_explainer(cfg, 0)
    faithfulness = report["faithfulness"]
    assert (faithfulness["engine"], faithfulness["shuffled_baseline"]) == expected
    assert report["stability"]["engine"] == 0.0


@pytest.mark.parametrize(
    "policy, expected",
    [
        ("fixed", ("0b81804272369244aecfb8c1940c727df9f139c3d614aaa07d93f6753c89e5ff",
                   "1d714b847c7ff3dab505480577f468c213a5a962c7b91296eabe0e1470cab7ba")),
        ("resample", ("6a9258aa3cc44d5444a8df89daac5a86384b20aeac6d1b9c5f26b80f30c7a1ef",
                      "0265afca326ee505b4602f67276c423e7e58c4ab0b3fc635c2d45920195ca3e5")),
    ],
)
def test_intervention_effect_outputs_are_pinned(tmp_path, policy, expected):
    """The README config's explain effect files, to the last byte."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    cfg = json.loads(re.findall(r"```json\n(.*?)```", readme, flags=re.S)[0])
    cfg["oracle_config"]["noise_policy"] = policy
    cfg["explain"]["interventions"].append("i=2.0")  # what --do i=2.0 writes
    cli.run_explain(cfg, str(tmp_path), 0)
    names = ("confidence_delta.csv", "counterfactual_diff.csv")
    assert tuple(hashlib.sha256((tmp_path / n).read_bytes()).hexdigest() for n in names) == expected


@pytest.mark.parametrize(
    "policy, expected",
    [
        ("fixed", "4d63789d2af93c28080569351e94ce209c1feb5a1b5e0662dfa152713690adbc"),
        ("resample", "498874eaed9e0cb18f97c32e313ac4f27e04f93d9fc71de33d27bc24dc107897"),
    ],
)
def test_discover_outputs_are_pinned(tmp_path, policy, expected):
    """run_discover's graphs and report on a seeded d = 12 mixed-sign linear
    SEM over permuted ids, to the last byte: one sha256 over names and bytes."""
    rng = np.random.default_rng(12)
    ids = rng.permutation(12)
    edges = [{"from": int(ids[a]), "to": int(ids[b]),
              "weight": float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5))}
             for a in range(12) for b in range(a + 1, 12) if rng.random() < 0.25]
    cfg = {
        "seed": 5,
        "oracle": {"kind": "linear", "dim": 12, "edges": edges},
        "oracle_config": {"noise_policy": policy},
        "discovery": {"n_samples": 64},
        "evaluation": {"p_subsets": 3, "q_repetitions": 2},
        "pool_size": 256,
    }
    cli.run_discover(cfg, str(tmp_path), cfg["seed"])
    names = ["graph.json", "report.json", *sorted(
        str(p.relative_to(tmp_path)) for p in (tmp_path / "graphs").glob("*.json"))]
    assert len(names) == 8
    digest = hashlib.sha256()
    for name in names:
        digest.update(name.encode() + b"\0" + (tmp_path / name).read_bytes())
    assert digest.hexdigest() == expected


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
    cli.run_sample({**TI_CFG, "sample": {"n": n}}, str(tmp_path / "s"), 7)
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


@pytest.mark.parametrize(
    "command,extra",
    [
        ("sample", []),
        ("discover", []),
        ("explain", ["--do", "i+=1"]),
        ("evaluate", []),
    ],
)
def test_manifest_lists_every_output(tmp_path, command, extra):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    cfg = write_cfg(tmp_path, json.loads(re.findall(r"```json\n(.*?)```", readme, flags=re.S)[0]))
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)] + extra) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["command"] == command
    assert manifest["outputs"] == sorted(set(read_tree(out)) - {"run_manifest.json"})


def test_rerun_removes_outputs_the_new_manifest_does_not_list(tmp_path):
    out = tmp_path / "out"
    assert main(["discover", "--config", write_cfg(tmp_path, TI_CFG), "--out", str(out)]) == 0
    assert len(list((out / "graphs").iterdir())) == 4
    (out / "notes.txt").write_text("not an output")
    smaller = {**TI_CFG, "evaluation": {**TI_CFG["evaluation"], "q_repetitions": 1}}
    cfg = write_cfg(tmp_path, smaller, "smaller.json")
    assert main(["discover", "--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert len([name for name in manifest["outputs"] if name.startswith("graphs/")]) == 2
    assert set(read_tree(out)) == {*manifest["outputs"], "run_manifest.json", "notes.txt"}

    # another command takes the directory over
    assert main(["sample", "--config", cfg, "--out", str(out)]) == 0
    assert set(read_tree(out)) == {"samples.csv", "run_manifest.json", "notes.txt"}

    # a manifest entry that resolves outside --out is never removed
    outside = tmp_path / "outside.txt"
    outside.write_text("keep")
    (out / "link.csv").symlink_to(outside)
    manifest = json.loads((out / "run_manifest.json").read_text())
    manifest["outputs"] += ["../outside.txt", str(outside), "link.csv"]
    (out / "run_manifest.json").write_text(json.dumps(manifest))
    assert main(["sample", "--config", cfg, "--out", str(out)]) == 0
    assert outside.read_text() == "keep"
    assert (out / "link.csv").is_symlink()


# a linear SEM whose weights overflow float64 at x2
OVERFLOW_CFG = {
    "seed": 0,
    "oracle": {"kind": "linear", "dim": 3, "edges": [
        {"from": 0, "to": 1, "weight": 1e200}, {"from": 1, "to": 2, "weight": 1e200},
    ]},
    "classifier": {"weights": [0, 0, 1]},
}


@pytest.mark.parametrize(
    "command, extra",
    [
        ("sample", {}),
        ("discover", {}),  # the pool draw
        ("explain", {}),  # the pool draw, before discovery
        ("explain", {"explain": {"latent": [0.0, 0.0, 0.0]}}),  # no pool: discovery's draw
        ("evaluate", {}),  # discovery's own base draw comes first
    ],
    ids=["sample", "discover", "explain", "explain-latent", "evaluate"],
)
def test_non_finite_model_fails_and_writes_nothing(tmp_path, capsys, command, extra):
    out = tmp_path / "o"
    cfg = write_cfg(tmp_path, {**OVERFLOW_CFG, **extra})
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err == {
        "error": "ValueError",
        "message": "config key 'oracle': model 'linear' propagates its noise to non-finite values",
    }
    assert not out.exists()


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
    with path.open(newline="") as fh:
        cells = [cell for row in csv.reader(fh) for cell in row]
    numbers = []
    for cell in cells:
        try:
            numbers.append(float(cell))
        except ValueError:
            pass  # a label, a header or an empty cell
    return numbers


def test_every_exported_name_resolves():
    missing = [name for name in causalprobe.__all__ if not hasattr(causalprobe, name)]
    assert not missing


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
