"""Command-line front end for reproducible experiment runs.

Subcommands: sample, discover, explain, evaluate. Every command reads a
JSON config, takes a mandatory seed (config key or --seed), computes all
of its outputs, and only then writes them to its output directory with a
run manifest embedding the resolved config, so a failed run writes nothing
and re-runs with the same inputs produce byte-identical outputs.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import warnings
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .attribution import POLICIES, AttributionConfig, _lime_fits, intervention_effect, lime_latent
from .discovery import DiscoveryConfig, discover
from .graph import CausalGraph
from .metrics import (
    EvaluationConfig,
    correctness_index,
    faithfulness_index,
    joint_feasible,
    stability,
)
from .oracle import ClassifierHead, Oracle, OracleConfig
from .scm import BUILTIN_NAMES, ScmModel, builtin


def _derive_seed(*parts) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


# rows per bulk write of a float block: bounds the text held in memory
_CSV_CHUNK_ROWS = 4096


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        if isinstance(rows, np.ndarray) and rows.dtype == np.float64:
            # the bytes writerow would give: it writes an np.float64 as its
            # str, which is %r of the Python float (tolist first: numpy 2
            # reprs np.float64 as "np.float64(..)"), no float repr needs
            # quoting, and rows end in csv's "\r\n"
            line = ",".join(["%r"] * rows.shape[1]) + "\r\n"
            for lo in range(0, len(rows), _CSV_CHUNK_ROWS):
                block = rows[lo : lo + _CSV_CHUNK_ROWS].tolist()
                fh.write("".join([line % tuple(row) for row in block]))
            return
        writer.writerows(rows)


def _json_text(doc) -> str:
    # np.float64 is a float and dumps as one; other numpy scalars and arrays
    # go through tolist
    return json.dumps(doc, sort_keys=True, indent=2, default=lambda obj: obj.tolist()) + "\n"


# sections that configure a dataclass; the run seeds the oracle and derives
# the discovery and attribution seeds, and evaluation takes none
_SECTIONS = {
    "oracle_config": OracleConfig,
    "discovery": DiscoveryConfig,
    "attribution": AttributionConfig,
    "evaluation": EvaluationConfig,
}


@dataclass(frozen=True)
class _Required:
    """Schema marker: the object must hold this key."""

    kind: object


# Every config key and its JSON kind: a dict is an object with those keys,
# optional unless marked _Required, list[kind] a list of that kind, float a
# finite JSON number, and int, bool, str and None exactly those JSON values.
# Each _SECTIONS section's keys and kinds are its dataclass fields; an oracle
# spec's keys depend on its kind.
_LINEAR_SPEC = {
    "dim": int,  # required by _linear_model: a linear spec may name a file instead
    "edges": list[{"from": _Required(int), "to": _Required(int), "weight": _Required(float)}],
    "noise_std": float,
}
_ORACLE_SPECS = {
    "scm": {"kind": str, "model": str, "model_file": str},
    "linear": {"kind": str, "file": str, **_LINEAR_SPEC},
}
# an scm model file, as ScmModel.to_json writes it
_MODEL_FILE = {
    "name": _Required(str),
    "nodes": _Required(list[{"id": _Required(int), "label": _Required(str)}]),
    "equations": _Required(list[{
        "node": _Required(int), "parents": _Required(list[int]),
        "mechanism": str,  # legacy kind tag, ignored
        "coeffs": _Required({
            **dict.fromkeys(["const", "sig_scale", "sig_bias"], _Required(float)),
            **dict.fromkeys(["linear", "sig_linear"], _Required(list[float])),
        }),
        "noise": _Required({"family": _Required(str), "params": _Required(list[float])}),
    }]),
    "context_count": int,  # legacy, ignored
}
_SCHEMA = {
    "seed": int,
    "pool_size": int,
    "oracle": _Required(_ORACLE_SPECS),
    "classifier": {
        "weights": _Required(list[float] | list[list[float]]),
        "bias": float | list[float],
        "n_classes": int | None,
    },
    **{
        name: {k: v for k, v in get_type_hints(cls).items() if k != "seed"}
        for name, cls in _SECTIONS.items()
    },
    "sample": {"n": int},
    "explain": {"index": int, "interventions": list[str]},
    "evaluate": {"n_explanations": int, "stability_index": int, "deterministic_seed": bool},
}
_KIND_NAMES = {int: "an integer", float: "a finite number", bool: "a boolean", str: "a string",
               type(None): "null"}


def _describe(kind) -> str:
    if get_origin(kind) is UnionType:
        return " or ".join(map(_describe, get_args(kind)))
    if get_origin(kind) is list:
        return f"a list of ({_describe(get_args(kind)[0])})"
    return "an object" if isinstance(kind, dict) else _KIND_NAMES[kind]


def check_config(value, kind=_SCHEMA, key: str = "") -> None:
    """Raise ValueError naming the key unless value (by default a whole
    config) is of kind: no unknown or missing key at any level, nothing
    coerced."""
    if isinstance(kind, _Required):
        kind = kind.kind
    if kind is _ORACLE_SPECS and type(value) is dict:  # the spec's kind picks its keys
        kind = _ORACLE_SPECS.get(str(value.get("kind", "scm")))
        if kind is None:
            raise ValueError(f"config key '{key}.kind' must be one of {list(_ORACLE_SPECS)}")
    if isinstance(kind, dict) and type(value) is dict:
        missing = [k for k in kind if isinstance(kind[k], _Required) and k not in value]
        for name in [*value, *missing]:
            path = f"{key}.{name}" if key else name
            if name not in kind:
                raise ValueError(f"unknown config key '{path}'; known keys: {sorted(kind)}")
            if name not in value:
                raise ValueError(f"config key '{path}' is required")
            check_config(value[name], kind[name], path)
    elif get_origin(kind) is list and type(value) is list:
        for k, item in enumerate(value):
            check_config(item, get_args(kind)[0], f"{key}[{k}]")
    elif (
        type(value) is not kind if kind is not float
        else type(value) is not int and not (type(value) is float and math.isfinite(value))
    ):
        options = get_args(kind) if get_origin(kind) is UnionType else ()
        for option in options:
            try:
                return check_config(value, option, key)
            except ValueError:
                pass
        what = f"config key '{key}'" if key else "the config"
        raise ValueError(f"{what} must be {_describe(kind)}, got {value!r}")


def _read_json(path: str, what: str = "config"):
    """The JSON document at path; a ValueError naming what and path if unreadable."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise ValueError(f"cannot read {what} {path}: {exc}") from exc


def load_config(path: str) -> dict:
    """Read and check a JSON config."""
    cfg = _read_json(path)
    check_config(cfg)
    return cfg


def resolve_seed(cfg: dict, flag_seed) -> int:
    seed = cfg.get("seed") if flag_seed is None else int(flag_seed)
    if seed is None:
        raise ValueError("a seed is mandatory: set config key 'seed' or pass --seed")
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    return seed


def _linear_model(doc: dict, where: str) -> ScmModel:
    if "dim" not in doc:
        raise ValueError(f"config key '{where}.dim' is required")
    d = doc["dim"]
    if d < 1:
        raise ValueError(f"config key '{where}.dim' must be at least 1, got {d}")
    weights, seen = np.zeros((d, d)), set()
    for k, edge in enumerate(doc.get("edges", [])):
        for end in ("from", "to"):
            if not 0 <= edge[end] < d:
                raise ValueError(f"config key '{where}.edges[{k}].{end}' must lie in [0, {d})")
        pair = (edge["from"], edge["to"])
        if pair[0] == pair[1]:
            raise ValueError(f"config key '{where}.edges[{k}]' is a self-loop on node {pair[0]}")
        if pair in seen:
            raise ValueError(f"config key '{where}.edges[{k}]' repeats edge {pair}")
        seen.add(pair)
        weights[pair] = edge["weight"]
    noise_std = doc.get("noise_std", 1.0)
    if noise_std < 0:
        raise ValueError(f"config key '{where}.noise_std' must be at least 0, got {noise_std}")
    return ScmModel.linear(weights, noise_std)


def build_scm_model(cfg: dict) -> ScmModel:
    """The model of a checked config's oracle section."""
    spec = cfg["oracle"]
    linear = spec.get("kind", "scm") == "linear"
    file_key = "file" if linear else "model_file"
    if file_key not in spec:
        if linear:
            return _linear_model(spec, "oracle")
        name = spec.get("model")
        if name not in BUILTIN_NAMES:
            raise ValueError(
                f"config key 'oracle.model' must be one of {BUILTIN_NAMES}, got {name!r}"
            )
        return builtin(name)
    where = f"oracle.{file_key}"
    inline = [f"'oracle.{k}'" for k in (_LINEAR_SPEC if linear else ["model"]) if k in spec]
    if inline:
        raise ValueError(f"set only one of config keys {'/'.join(inline)} and '{where}'")
    doc = _read_json(spec[file_key], f"config key '{where}'")
    check_config(doc, _LINEAR_SPEC if linear else _MODEL_FILE, where)
    if linear:
        return _linear_model(doc, where)
    n = len(doc["nodes"])
    for section, id_key in (("nodes", "id"), ("equations", "node")):
        ids = sorted(item[id_key] for item in doc[section])
        if ids != list(range(n)):
            raise ValueError(
                f"config key '{where}.{section}' must hold ids 0..{n - 1} once each, got {ids}"
            )
    for k, eq in enumerate(doc["equations"]):
        if not all(0 <= p < n for p in eq["parents"]):
            raise ValueError(
                f"config key '{where}.equations[{k}].parents' must lie in [0, {n}), "
                f"got {eq['parents']}"
            )
    try:
        return ScmModel.from_json_dict(doc)
    except ValueError as exc:
        raise ValueError(f"config key '{where}' holds an invalid model: {exc}") from exc


def build_oracle(cfg: dict, seed: int) -> Oracle:
    """The config's model behind an Oracle; standardize defaults to on for
    an scm model and off for a linear SEM."""
    model = build_scm_model(cfg)
    standardize = cfg["oracle"].get("kind", "scm") == "scm"
    return Oracle(model, _build_section(cfg, "oracle_config", seed=seed, standardize=standardize))


def build_head(cfg: dict, dim: int) -> ClassifierHead:
    """The config's classifier over a dim-dimensional latent space."""
    spec = cfg.get("classifier")
    if not spec:
        raise ValueError("config key 'classifier' is required")
    weights, bias = spec["weights"], spec.get("bias", 0.0)
    matrix = bool(weights) and isinstance(weights[0], list)
    rows, n_classes = (weights, len(weights)) if matrix else ([weights], 2)
    if n_classes < 2:
        raise ValueError(
            "config key 'classifier.weights' needs at least 2 rows, one per class; "
            f"got {n_classes}"
        )
    if isinstance(bias, list) and not (matrix and len(bias) == n_classes):
        raise ValueError(
            "config key 'classifier.bias' must be a number for vector weights, "
            f"else one number per weight row ({n_classes}); got {bias}"
        )
    if any(len(row) != dim for row in rows):
        raise ValueError(
            f"config key 'classifier.weights' needs rows of length {dim}, the "
            f"oracle dimension; got {[len(row) for row in rows]}"
        )
    if spec.get("n_classes") not in (None, n_classes):
        raise ValueError(
            f"config key 'classifier.n_classes' must be {n_classes} for these "
            f"weights, got {spec['n_classes']}"
        )
    return ClassifierHead(weights, bias)


def _explainer_setup(cfg: dict, seed: int, policy: str | None = None):
    """What explain and evaluate share, checked before anything runs: the
    oracle, the head, and the discovery and attribution configs under their
    derived seeds, with policy (--policy) over the configured
    perturbation_policy. lime's ridge fit needs a perturbation per unknown:
    oracle dimension + 1 of them."""
    oracle = build_oracle(cfg, seed)
    head = build_head(cfg, oracle.dim)
    dcfg = _build_section(cfg, "discovery", seed=_derive_seed(seed, 13))
    acfg = _build_section(cfg, "attribution", seed=_derive_seed(seed, 14))
    if policy is not None:
        acfg = replace(acfg, perturbation_policy=policy)
    if acfg.n_perturbations < oracle.dim + 1:
        raise ValueError(
            f"config key 'attribution.n_perturbations' must be at least {oracle.dim + 1} "
            f"(oracle dimension + 1) for a solvable fit, got {acfg.n_perturbations}"
        )
    return oracle, head, dcfg, acfg


def _build_section(cfg: dict, section: str, **defaults):
    """The dataclass of a config section over defaults and the section's
    keys. A range error the dataclass raises names the first key that fails
    with every other field at its default, with that key's own message (or
    the section alone when no single key fails)."""
    cls, given = _SECTIONS[section], cfg.get(section, {})
    try:
        return cls(**{**defaults, **given})
    except ValueError as exc:
        for key, value in given.items():
            try:
                cls(**{**defaults, key: value})
            except ValueError as one:
                raise ValueError(f"{section}.{key}: {one}") from exc
        raise ValueError(f"{section}: {exc}") from exc


def _remove_stale_outputs(root: Path, files: dict) -> None:
    """Remove the regular files that an earlier run_manifest.json in root
    lists and files does not, if they resolve inside root. Files no
    manifest lists, and directories, stay."""
    try:
        old = json.loads((root / "run_manifest.json").read_text())["outputs"]
    except (OSError, ValueError, KeyError, TypeError):
        return  # no readable manifest: nothing is known to be an output
    inside = root.resolve()
    for name in map(str, old if isinstance(old, list) else []):
        path = root / name
        if name in files or not path.is_file() or not path.resolve().is_relative_to(inside):
            continue
        path.unlink()


def _write_outputs(out_dir: str, command: str, cfg: dict, seed: int, files: dict) -> None:
    """Write a command's outputs under out_dir, then run_manifest.json
    listing them. files maps each relative name to its content, whose
    writer the extension picks: a .json document, a .csv (header, rows)
    pair, or text. An earlier run's outputs that this run does not write
    are removed first, so out_dir holds what the manifest lists."""
    _remove_stale_outputs(Path(out_dir), files)
    manifest = {"command": command, "config": cfg, "seed": seed, "outputs": sorted(files)}
    texts = {}  # id of a .json document -> its text, encoded once for all names holding it
    for name, content in {**files, "run_manifest.json": manifest}.items():
        path = Path(out_dir) / name
        path.parent.mkdir(parents=True, exist_ok=True)
        if name.endswith(".json"):
            texts[id(content)] = texts.get(id(content)) or _json_text(content)
            path.write_text(texts[id(content)])
        elif name.endswith(".csv"):
            _write_csv(path, *content)
        else:
            path.write_text(content)


def _parse_intervention(spec: str, oracle, latent: np.ndarray) -> tuple[str, int, float]:
    """Parse 'f+=v' / 'f-=v' (relative) or 'f=v' (absolute) against a latent."""
    for op in ("+=", "-=", "="):
        if op in spec:
            name, _, raw = spec.partition(op)
            name = name.strip()
            try:
                value = float(raw)
            except ValueError as exc:
                raise ValueError(f"bad intervention value in {spec!r}") from exc
            idx = oracle.model.node_index(name)
            if op == "+=":
                value = float(latent[idx] + value)
            elif op == "-=":
                value = float(latent[idx] - value)
            if not np.isfinite(value):
                raise ValueError(
                    f"intervention {spec!r} must resolve to a finite value, got {value}"
                )
            return spec, idx, value
    raise ValueError(f"bad intervention spec {spec!r}; use feature+=v, feature-=v or feature=v")


def run_sample(cfg: dict, out_dir: str, seed: int, n_override: int | None = None) -> dict:
    check_config(cfg)
    model = build_scm_model(cfg)
    n = cfg.get("sample", {}).get("n", 100) if n_override is None else n_override
    if n < 1:
        key = "config key 'sample.n'" if n_override is None else "--n"
        raise ValueError(f"{key} must be at least 1, got {n}")
    samples = model.sample(n, [seed, 1])
    _write_outputs(out_dir, "sample", cfg, seed, {"samples.csv": (model.labels, samples.values)})
    return {"rows": int(n), "columns": list(model.labels)}


def _jaccard(a: set, b: set) -> float:
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def _mean_jaccard(sets: list[set]) -> float:
    """Mean Jaccard index over all pairs of edge sets; 1.0 with fewer than two."""
    pairs = [_jaccard(a, b) for k, a in enumerate(sets) for b in sets[k + 1 :]]
    return float(np.mean(pairs)) if pairs else 1.0


def _majority(runs: list[CausalGraph]) -> list[tuple[int, int]]:
    """The edges found in more than half of the runs, sorted."""
    counts = Counter(e for g in runs for e in g.edges)
    return [e for e, c in sorted(counts.items()) if c > len(runs) / 2]


def _consensus(runs: list[CausalGraph], labels) -> CausalGraph:
    """The majority edges, each weighted by its mean over the runs that hold it."""
    edges = {e: float(np.mean([g.edges[e] for g in runs if e in g.edges]))
             for e in _majority(runs)}
    return CausalGraph(list(labels), edges)


def _latent_pool(cfg: dict, oracle: Oracle, seed: int, unusable) -> np.ndarray:
    """The pool that discover subsets and explain indexes: pool_size
    (default 1024) latents drawn under [seed, 10]. unusable(pool_size) gives
    the caller's error message for a size it cannot use, else None; the
    check runs before the draw."""
    size = cfg.get("pool_size", 1024)
    message = unusable(size)
    if message is not None:
        raise ValueError(message)
    return oracle.sample_latents(size, [seed, 10])


def run_discover(cfg: dict, out_dir: str, seed: int) -> dict:
    """Discover Q graphs, one per seed, on each of P pool subsets; write them,
    their consensus and report. Q varies only under "resample"; under "fixed" a
    subset's Q graphs are one graph, so graph_consistency is 1.0 by construction."""
    check_config(cfg)
    oracle = build_oracle(cfg, seed)
    dcfg = _build_section(cfg, "discovery", seed=seed)
    ecfg = _build_section(cfg, "evaluation")
    pool = _latent_pool(cfg, oracle, seed, lambda size: (
        f"config key 'pool_size' ({size}) must be at least discovery.n_samples "
        f"({dcfg.n_samples})"
    ) if size < dcfg.n_samples else None)

    runs: list[CausalGraph] = []
    per_subset: list[list[CausalGraph]] = []
    files = {}
    for p in range(ecfg.p_subsets):
        # subsets are drawn with replacement from the pool
        idx = np.random.default_rng([seed, 11, p]).integers(0, len(pool), dcfg.n_samples)
        subset = pool[idx]
        group = []
        for q in range(ecfg.q_repetitions):
            # on a given base discover reads its seed only under "resample", where it
            # draws fresh noise (test_fixed_policy_discovery_builds_no_generator)
            if q == 0 or oracle.config.noise_policy == "resample":
                g = discover(oracle, replace(dcfg, seed=_derive_seed(seed, 12, p, q)), base=subset)
                doc = g.to_json_dict()
            files[f"graphs/graph_p{p}_q{q}.json"] = doc
            runs.append(g)
            group.append(g)
        per_subset.append(group)

    consensus = _consensus(runs, oracle.labels)

    correctness = None
    correctness_flag = "ok"
    try:
        truth = oracle.model.ground_truth_graph()
        correctness = correctness_index(runs, truth)
    except ValueError as exc:
        correctness_flag = f"undefined: {exc}"

    consensus_edges = consensus.edge_set()
    agreement = [_jaccard(g.edge_set(), consensus_edges) for g in runs]
    graph_consistency = float(
        np.mean([_mean_jaccard([g.edge_set() for g in group]) for group in per_subset])
    )
    graph_stability = _mean_jaccard([set(_majority(group)) for group in per_subset])

    report = {
        "correctness_index": correctness,
        "correctness_flag": correctness_flag,
        "graph_consistency": graph_consistency,
        "graph_stability": graph_stability,
        "per_run": [
            {
                "p": p,
                "q": q,
                "edge_count": len(per_subset[p][q].edges),
                "consensus_agreement": agreement[p * ecfg.q_repetitions + q],
            }
            for p in range(ecfg.p_subsets)
            for q in range(ecfg.q_repetitions)
        ],
    }
    table = [
        ["correctness_index", "" if correctness is None else correctness],
        ["graph_consistency", graph_consistency],
        ["graph_stability", graph_stability],
    ]
    _write_outputs(out_dir, "discover", cfg, seed, {
        **files,
        "graph.json": consensus.to_json_dict(),
        "graph.dot": consensus.to_dot(),
        "report.json": report,
        "report.csv": (["metric", "value"], table),
    })
    return report


def _resolve_latent(cfg: dict, oracle, seed: int, index: int | None, latent_csv: str | None):
    if latent_csv is not None and index is not None:
        raise ValueError("--index and --latent are alternatives: give one of them")
    if latent_csv is not None:
        try:
            values = np.asarray([float(v) for v in latent_csv.split(",")], dtype=float)
        except ValueError as exc:
            raise ValueError(
                f"--latent takes comma-separated numbers, got {latent_csv!r}"
            ) from exc
        if values.size != oracle.dim:
            raise ValueError(
                f"latent vector has {values.size} entries, oracle dimension is {oracle.dim}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError(f"latent vector must be finite, got {latent_csv!r}")
        return values
    k = cfg.get("explain", {}).get("index", 0) if index is None else index
    return _latent_pool(cfg, oracle, seed, lambda size: (
        f"sample index {k} out of range for pool_size {size}"
    ) if not 0 <= k < size else None)[k]


def run_explain(
    cfg: dict,
    out_dir: str,
    seed: int,
    index: int | None = None,
    latent_csv: str | None = None,
    do_specs=(),
    policy: str | None = None,
) -> dict:
    check_config(cfg)
    oracle, head, dcfg, acfg = _explainer_setup(cfg, seed, policy)
    latent = _resolve_latent(cfg, oracle, seed, index, latent_csv)
    specs = list(cfg.get("explain", {}).get("interventions", [])) + list(do_specs)
    parsed = [_parse_intervention(s, oracle, latent) for s in specs]
    graph = discover(oracle, dcfg)
    explanation = lime_latent(oracle, head, graph, latent, acfg)
    doc = explanation.to_json_dict(oracle.labels)
    doc["latent"] = latent.tolist()
    rows = [[k, label, w] for k, (label, w) in enumerate(zip(oracle.labels, explanation.weights))]

    class_cols = [f"class_{c}" for c in range(head.n_classes)]
    base_probs = head.probabilities(latent)
    conf_rows = [["baseline", ""] + list(base_probs)]
    diff_rows = []
    for k, (label, idx, value) in enumerate(parsed):
        delta, intervened, diff = intervention_effect(
            oracle, head, latent, {idx: value}, seed=[_derive_seed(seed, 15, k)]
        )
        conf_rows.append(["delta", label] + list(delta))
        diff_rows.append(["intervened", label] + list(intervened))
        diff_rows.append(["diff", label] + list(diff))
    _write_outputs(out_dir, "explain", cfg, seed, {
        "explanation.json": doc,
        "explanation.csv": (["feature", "label", "weight"], rows),
        "confidence_delta.csv": (["row", "intervention"] + class_cols, conf_rows),
        "counterfactual_diff.csv": (["row", "intervention"] + list(oracle.labels), diff_rows),
    })
    return doc


def evaluate_explainer(cfg: dict, seed: int) -> dict:
    """Faithfulness (engine vs shuffled baseline) and stability protocol.

    Under the default deterministic-seed protocol every explanation run
    reuses one attribution seed, so explanations are a pure function of
    their input and a deterministic explainer scores stability 0 exactly.
    Setting evaluate.deterministic_seed to false derives an independent
    seed per run instead, exposing the explainer's Monte-Carlo variance.
    Shuffled pairings define no stability baseline, so that entry is None.
    """
    check_config(cfg)
    evaluate = cfg.get("evaluate", {})
    n_expl = evaluate.get("n_explanations", 400)
    ecfg = _build_section(cfg, "evaluation")
    if n_expl < ecfg.mi_bins:
        raise ValueError(
            f"evaluate.n_explanations ({n_expl}) must be at least evaluation.mi_bins "
            f"({ecfg.mi_bins}), one row per histogram bin"
        )
    stability_index = evaluate.get("stability_index", 0)
    if not 0 <= stability_index < n_expl:
        raise ValueError(
            f"evaluate.stability_index must lie in [0, {n_expl}), got {stability_index}"
        )
    det = evaluate.get("deterministic_seed", True)
    oracle, head, dcfg, acfg = _explainer_setup(cfg, seed)
    graph = discover(oracle, dcfg)

    latents = oracle.sample_latents(n_expl, [seed, 16])
    seeds = [acfg.seed if det else _derive_seed(seed, 15, k) for k in range(n_expl)]
    n_sets, n_reps = ecfg.p_subsets, ecfg.q_repetitions
    base = latents[stability_index]
    noisy = [
        base + np.random.default_rng([seed, 18, p]).normal(0.0, ecfg.noise_std, oracle.dim)
        for p in range(n_sets)
    ]
    fits = 1 if det else n_reps  # one seed: a fit is a pure function of its input
    stab_seeds = [
        acfg.seed if det else _derive_seed(seed, 19, p, q)
        for p in range(n_sets)
        for q in range(fits)
    ]
    # one call fits both sets: batch invariance makes each row its solo fit
    stack = np.concatenate([latents, np.repeat(noisy, fits, axis=0)])
    weights = _lime_fits(oracle, head, graph, stack, acfg, seeds + stab_seeds, with_r2=False)[0]
    weights, sets = weights[:n_expl, 1:], weights[n_expl:, 1:].reshape(n_sets, fits, oracle.dim)
    f_engine = faithfulness_index(latents, weights, ecfg)
    perm = np.random.default_rng([seed, 17]).permutation(n_expl)
    f_shuffled = faithfulness_index(latents, weights[perm], ecfg)
    s_engine = stability(sets.repeat(n_reps // fits, axis=1))

    return {
        "faithfulness": {"engine": f_engine, "shuffled_baseline": f_shuffled},
        "stability": {"engine": s_engine, "shuffled_baseline": None},
        "deterministic_seed": det,
        "joint_histogram": joint_feasible(n_expl, 2 * oracle.dim, ecfg.mi_bins),
        "n_explanations": n_expl,
    }


def run_evaluate(cfg: dict, out_dir: str, seed: int) -> dict:
    report = evaluate_explainer(cfg, seed)
    headline = {
        "correctness_index": None,
        "stability": report["stability"]["engine"],
        "faithfulness_index": report["faithfulness"]["engine"],
        "details": report,
    }
    table = [
        ["engine", report["faithfulness"]["engine"], report["stability"]["engine"]],
        # shuffled pairings define no stability baseline: empty cell
        ["shuffled-baseline", report["faithfulness"]["shuffled_baseline"], ""],
    ]
    _write_outputs(out_dir, "evaluate", cfg, seed, {
        "metrics.json": headline,
        "metrics.csv": (["method", "faithfulness", "stability"], table),
    })
    return report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causalprobe",
        description="Causal-explanation experiments against latent-space oracles",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("sample", "discover", "explain", "evaluate"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON run config")
        p.add_argument("--seed", type=int, default=None, help="overrides config seed")
        p.add_argument("--out", required=True, help="output directory")
        if name == "sample":
            p.add_argument("--n", type=int, default=None, help="sample count override")
        if name == "explain":
            p.add_argument("--index", type=int, default=None, help="pool sample index")
            p.add_argument("--latent", default=None, help="comma-separated latent vector")
            p.add_argument(
                "--do",
                action="append",
                default=[],
                help="intervention, e.g. t+=1 or i=2.0 (repeatable)",
            )
            p.add_argument("--policy", choices=POLICIES, default=None)
    return parser


def main(argv=None) -> int:
    """Run one subcommand. Warnings, then any error, go to stderr as one
    JSON object per line; an error exits 1."""
    args = build_parser().parse_args(argv)
    error = None
    with warnings.catch_warnings(record=True) as caught:
        try:
            cfg = load_config(args.config)
            seed = resolve_seed(cfg, args.seed)
            if args.command == "sample":
                run_sample(cfg, args.out, seed, n_override=args.n)
            elif args.command == "discover":
                run_discover(cfg, args.out, seed)
            elif args.command == "explain":
                run_explain(
                    cfg,
                    args.out,
                    seed,
                    index=args.index,
                    latent_csv=args.latent,
                    do_specs=args.do,
                    policy=args.policy,
                )
            elif args.command == "evaluate":
                run_evaluate(cfg, args.out, seed)
        except Exception as exc:  # surfaced as machine-readable JSON
            error = {"error": type(exc).__name__, "message": str(exc)}
    for w in caught:
        record = {"warning": w.category.__name__, "message": str(w.message)}
        print(json.dumps(record), file=sys.stderr)
    if error is not None:
        print(json.dumps(error), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
