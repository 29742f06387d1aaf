"""Benchmark workloads: seeded input generators, one timed op each, output checks.

Every input is generated from the workload seed; the package only sees the
generated configs and arrays. Every workload is a closed loop driven from
one process with no threads of its own: the next op starts when the previous
one has ended. An op is one pass over the workload's inputs; `attempted`
counts its timed calls (or CLI commands) and `failed` those that raised,
exited nonzero or failed an output check.

Each workload class records why it was chosen (`why`) and which end-to-end
metric each layer's per-layer metrics should move on it (`moves`).
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import causalprobe
import causalprobe.cli
import spans
import speed
from causalprobe import AlignmentBatch, AlignmentState

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
COMMAND_TIMEOUT_S = 60


@dataclass
class OpResult:
    wall: float                 # timed seconds of the op
    attempted: int              # timed calls or CLI commands in the op
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    fingerprint: str = ""       # digest of deterministic outputs; repeats across ops
    values: dict[str, float] = field(default_factory=dict)
    bytes_written: int = 0
    import_s: list[float] = field(default_factory=list)   # traced CLI children only
    norm_wall: float = 0.0      # timed seconds at the reference host speed (speed.py)
    samples: list[float] = field(default_factory=list)    # host speed samples of the op


def _digest_tree(root: Path) -> tuple[str, int]:
    """sha256 over every file's relative path and bytes, plus total bytes."""
    h = hashlib.sha256()
    total = 0
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        total += len(data)
        h.update(str(path.relative_to(root)).encode() + b"\0" + data)
    return h.hexdigest(), total


def _non_finite(doc) -> bool:
    if isinstance(doc, dict):
        return any(_non_finite(v) for v in doc.values())
    if isinstance(doc, list):
        return any(_non_finite(v) for v in doc)
    return isinstance(doc, float) and not math.isfinite(doc)


def _graph_problems(doc: dict) -> list[str]:
    """A discovered graph must be a self-loop-free DAG with finite weights."""
    n = len(doc["nodes"])
    edges = [(e["from"], e["to"]) for e in doc["edges"]]
    if any(i == j for i, j in edges):
        return ["self-loop"]
    if any(not (0 <= i < n and 0 <= j < n) for i, j in edges):
        return ["edge out of range"]
    indeg = [0] * n
    for _, j in edges:
        indeg[j] += 1
    ready = [v for v in range(n) if indeg[v] == 0]
    seen = 0
    while ready:
        v = ready.pop()
        seen += 1
        for i, j in edges:
            if i == v:
                indeg[j] -= 1
                if indeg[j] == 0:
                    ready.append(j)
    return [] if seen == n else ["cycle"]


def _file_problems(path: Path) -> list[str]:
    """The file exists, parses and holds only finite numbers."""
    if not path.is_file():
        return [f"{path.name}: missing"]
    text = path.read_text()
    if path.suffix == ".json":
        try:
            doc = json.loads(text)
        except ValueError as exc:
            return [f"{path.name}: {exc}"]
        if _non_finite(doc):
            return [f"{path.name}: non-finite number"]
        if isinstance(doc, dict) and "nodes" in doc and "edges" in doc:
            return [f"{path.name}: {p}" for p in _graph_problems(doc)]
        return []
    if path.suffix == ".csv":
        for row in csv.reader(text.splitlines()):
            for cell in row:
                try:
                    value = float(cell)
                except ValueError:
                    continue
                if not math.isfinite(value):
                    return [f"{path.name}: non-finite cell {cell!r}"]
        return []
    if path.suffix == ".dot":
        return [] if text.startswith("digraph") else [f"{path.name}: not a DOT graph"]
    return [f"{path.name}: unexpected file type"]


def _run_graphs(cfg: dict) -> list[str]:
    """The per-run graph files run_discover writes for a config."""
    ev = cfg["evaluation"]
    return [
        f"graphs/graph_p{p}_q{q}.json"
        for p in range(ev["p_subsets"])
        for q in range(ev["q_repetitions"])
    ]


def _add_time(result: OpResult, wall: float, samples: list[float]) -> float:
    """Add one timed call's wall time, raw and at reference host speed, to `result`."""
    result.wall += wall
    result.samples += samples
    norm_wall = speed.normalised(wall, samples)
    result.norm_wall += norm_wall
    return norm_wall


class Workload:
    """A workload runs `op()` over inputs built from the seed in `__init__`.

    `sampler` times the op's calls and samples the host speed meanwhile.
    """

    in_process = True
    attempts_per_op = 1

    def __init__(self, sampler: speed.Sampler):
        self.sampler = sampler

    def _timed(self, result: OpResult, fn, *args):
        """One timed in-process call of an op; its time is added to `result`."""
        value, wall, samples = self.sampler.timed(fn, *args)
        _add_time(result, wall, samples)
        return value

    def trace(self, tracer: spans.Tracer):
        """Make later ops record spans into `tracer`; returns the undo function."""
        return spans.install(tracer)


class EvaluateTI(Workload):
    """One in-process evaluate_explainer at the acceptance criterion-7 TI setting."""

    name = "evaluate-ti"
    why = (
        "attribution, oracle and scm do almost all the work as ~4.2k small "
        "300-row queries; faithfulness_index runs once at n=4200 in its "
        "joint-histogram regime"
    )
    moves = {
        "attribution": "evaluate.explanations_per_s",
        "oracle": "evaluate.explanations_per_s",
        "scm": "evaluate.explanations_per_s",
        "graph": "evaluate.explanations_per_s (reach matrix rebuilt per explanation)",
        "metrics": "evaluate.explanations_per_s",
        "cli": "setup_s (import)",
        "discovery": "negligible (one d=2 discover)",
    }
    rate_metric = "evaluate.explanations_per_s"
    units = {"evaluate.explanations_per_s": "1/s", "evaluate.faithfulness": "NMI"}

    CONFIG = {
        "oracle": {"kind": "scm", "model": "TI"},
        "classifier": {"weights": [0.0, 1.0], "bias": -3.0},
        "discovery": {"n_samples": 256},
        "attribution": {"n_perturbations": 300},
        "evaluation": {"p_subsets": 5, "q_repetitions": 5, "mi_bins": 8},
        "evaluate": {"n_explanations": 4200},
    }

    def __init__(self, seed: int, workdir: Path, sampler: speed.Sampler):
        super().__init__(sampler)
        self.cfg = json.loads(json.dumps(self.CONFIG))
        self.seed = seed
        ev = self.cfg["evaluation"]
        self.items_per_op = (
            self.cfg["evaluate"]["n_explanations"] + ev["p_subsets"] * ev["q_repetitions"]
        )
        self.seeds = {"evaluate_explainer": seed}

    def op(self) -> OpResult:
        result = OpResult(0.0, attempted=1)
        report = self._timed(result, causalprobe.cli.evaluate_explainer, self.cfg, self.seed)
        f, stab = report["faithfulness"], report["stability"]["engine"]
        # the criterion-7 bounds
        if not f["engine"] >= f["shuffled_baseline"] + 0.5:
            result.problems.append(
                f"faithfulness {f['engine']} < shuffled {f['shuffled_baseline']} + 0.5")
        if not stab >= -0.05:
            result.problems.append(f"stability {stab} < -0.05")
        result.failed = int(bool(result.problems))
        result.fingerprint = repr((f["engine"], f["shuffled_baseline"], stab))
        result.values["evaluate.faithfulness"] = f["engine"]
        return result


def linear_sem(seed: int, shape: int, dim: int = 30, degree: float = 3.0) -> dict:
    """Linear-SEM oracle spec with `dim` nodes and dim * degree / 2 edges.

    The DAG shape (which pairs of topological ranks are joined) comes from
    `shape` alone, so every workload seed probes the same amount of graph
    structure; the seed draws the edge weights ±U(0.5, 1.0) and a random
    permutation from rank to node id, so topological order != index order.
    Exogenous noise std is 1.0.
    """
    pairs = [(a, b) for a in range(dim) for b in range(a + 1, dim)]
    n_edges = round(dim * degree / 2)
    chosen = np.sort(np.random.default_rng([shape, 31]).choice(len(pairs), n_edges, replace=False))
    rng = np.random.default_rng([seed, 30, shape])
    node_of_rank = rng.permutation(dim)
    weights = rng.uniform(0.5, 1.0, n_edges) * rng.choice([-1.0, 1.0], n_edges)
    edges = [
        {
            "from": int(node_of_rank[pairs[k][0]]),
            "to": int(node_of_rank[pairs[k][1]]),
            "weight": float(w),
        }
        for k, w in zip(chosen, weights)
    ]
    return {"kind": "linear", "dim": dim, "edges": edges, "noise_std": 1.0}


class DiscoverSem30(Workload):
    """In-process run_discover (P=Q=5) on seeded d=30 linear SEMs, one per DAG shape."""

    name = "discover-sem30"
    why = (
        "discovery, graph.find_cycle and the linear-SEM oracle path do the "
        "work; scm, attribution and metrics stay idle; recovery is imperfect "
        "so quality regressions show"
    )
    moves = {
        "discovery": "discover.runs_per_s",
        "oracle": "discover.runs_per_s (linear-SEM query path)",
        "graph": "discover.runs_per_s (find_cycle)",
        "cli": "discover.runs_per_s (consensus, graph and report writes)",
        "metrics": "negligible (one correctness_index per run_discover)",
        "scm": "none until linear SEMs route through scm",
        "attribution": "none",
    }
    rate_metric = "discover.runs_per_s"
    units = {"discover.runs_per_s": "1/s", "discover.correctness_index": "index"}
    SHAPES = (0, 1)

    def __init__(self, seed: int, workdir: Path, sampler: speed.Sampler):
        super().__init__(sampler)
        self.runs = []
        for shape in self.SHAPES:
            run_seed = int(np.random.SeedSequence([seed, 32, shape]).generate_state(1)[0])
            cfg = {
                "seed": run_seed,
                "oracle": linear_sem(seed, shape),
                "discovery": {"n_samples": 256},
                "evaluation": {"p_subsets": 5, "q_repetitions": 5},
                "pool_size": 1024,
            }
            self.runs.append((cfg, run_seed, workdir / f"discover-{shape}"))
        self.attempts_per_op = len(self.runs)
        ev = self.runs[0][0]["evaluation"]
        self.items_per_op = len(self.runs) * ev["p_subsets"] * ev["q_repetitions"]
        self.seeds = {f"run_discover[shape {s}]": r[1] for s, r in zip(self.SHAPES, self.runs)}

    def op(self) -> OpResult:
        result = OpResult(0.0, attempted=len(self.runs))
        scores = []
        digests = []
        for cfg, seed, out in self.runs:
            shutil.rmtree(out, ignore_errors=True)
            report = self._timed(result, causalprobe.cli.run_discover, cfg, str(out), seed)
            problems = []
            for name in ["graph.json", *_run_graphs(cfg)]:
                problems += _file_problems(out / name)
            score = report["correctness_index"]
            if not (isinstance(score, float) and math.isfinite(score)):
                problems.append(f"correctness_index {score!r} is not finite")
            else:
                scores.append(score)
            digest, size = _digest_tree(out)
            digests.append(digest)
            result.bytes_written += size
            result.failed += int(bool(problems))
            result.problems += problems
        result.fingerprint = ",".join(digests)
        if scores:
            result.values["discover.correctness_index"] = float(np.mean(scores))
        return result


class CliReadme(Workload):
    """The four CLI subcommands, each in a fresh process that runs the CLI as
    `python -m causalprobe` does (under cli_child.py when timed or traced)."""

    name = "cli-readme"
    why = (
        "import, cli set-up and file I/O dominate, as users pay them on every "
        "command; sample propagates 1e5 rows through scm in one bulk call"
    )
    moves = {
        "cli": "setup_s and cli.*_s (import); cli.sample_s (CSV write at n=1e5)",
        "scm": "cli.sample_s (one bulk propagate)",
        "oracle": "cli.*_s (standardization draw at oracle init)",
        "attribution": "cli.explain_s, cli.evaluate_s",
        "metrics": "cli.evaluate_s",
        "discovery": "cli.discover_s, cli.explain_s, cli.evaluate_s",
        "graph": "cli.discover_s",
    }
    rate_metric = "cli.commands_per_s"
    units = {
        "cli.commands_per_s": "1/s",
        "cli.sample_s": "s",
        "cli.discover_s": "s",
        "cli.explain_s": "s",
        "cli.evaluate_s": "s",
    }
    in_process = False

    # the README's example config
    CONFIG = {
        "seed": 0,
        "oracle": {"kind": "scm", "model": "TSWI"},
        "oracle_config": {"roundtrip_noise_std": 0.1, "noise_policy": "fixed", "standardize": True},
        "classifier": {"weights": [0.0, 0.0, 0.0, 1.0], "bias": -3.0},
        "discovery": {"threshold": 0.05, "prune_eps": 0.05, "intervention_magnitude": 1.0,
                      "n_samples": 256},
        "attribution": {"n_perturbations": 500, "perturbation_policy": "interventional"},
        "evaluation": {"p_subsets": 5, "q_repetitions": 5, "noise_std": 0.1, "mi_bins": 16},
        "pool_size": 1024,
        "sample": {"n": 100},
        "explain": {"index": 0, "interventions": ["t+=1"]},
        "evaluate": {"n_explanations": 400, "deterministic_seed": True},
    }
    COMMANDS = (
        ("sample", ["--n", "100000"], ["samples.csv"]),
        ("discover", [],
         ["graph.json", "graph.dot", "report.json", "report.csv", *_run_graphs(CONFIG)]),
        ("explain", [],
         ["explanation.json", "explanation.csv", "confidence_delta.csv",
          "counterfactual_diff.csv"]),
        ("evaluate", [], ["metrics.json", "metrics.csv"]),
    )
    SAMPLE_ROWS = 100_000

    def __init__(self, seed: int, workdir: Path, sampler: speed.Sampler):
        super().__init__(sampler)
        self.workdir = workdir
        self.config_path = workdir / "cfg.json"
        self.config_path.write_text(json.dumps(dict(self.CONFIG, seed=seed)))
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.items_per_op = self.attempts_per_op = len(self.COMMANDS)
        self.seeds = {"config seed": seed}
        self.tracer = None

    def trace(self, tracer: spans.Tracer):
        """Later commands run under cli_child.py and send their spans here."""
        self.tracer = tracer
        return lambda: setattr(self, "tracer", None)

    def _argv(self, command, extra, out, report_file):
        """A traced or speed-sampled command runs under cli_child.py, which
        reports back through `report_file`; a plain one runs as users run it."""
        args = [command, "--config", str(self.config_path), "--out", str(out), *extra]
        if self.tracer is not None:
            mode = "trace"
        elif self.sampler.enabled:
            mode = "time"
        else:
            return [sys.executable, "-m", "causalprobe", *args]
        return [sys.executable, str(BENCH / "cli_child.py"), str(report_file), mode, *args]

    def op(self) -> OpResult:
        result = OpResult(0.0, attempted=len(self.COMMANDS))
        digests = []
        for command, extra, expected in self.COMMANDS:
            out = self.workdir / command
            report_file = self.workdir / f"{command}.child.json"
            shutil.rmtree(out, ignore_errors=True)
            argv = self._argv(command, extra, out, report_file)
            start = perf_counter()
            try:
                proc = subprocess.run(argv, cwd=self.workdir, env=self.env, capture_output=True,
                                      text=True, timeout=COMMAND_TIMEOUT_S)
                problems = [] if proc.returncode == 0 else [
                    f"{command} exited {proc.returncode}: {proc.stderr.strip()[-300:]}"]
            except subprocess.TimeoutExpired:
                problems = [f"{command} timed out after {COMMAND_TIMEOUT_S} s"]
            wall = perf_counter() - start
            child = json.loads(report_file.read_text()) if report_file.is_file() else {}
            report_file.unlink(missing_ok=True)
            samples = child.get("samples", [])
            result.values[f"cli.{command}_s"] = _add_time(result, wall - sum(samples), samples)
            if not problems:
                for name in [*expected, "run_manifest.json"]:
                    problems += _file_problems(out / name)
                if command == "sample":
                    lines = (out / "samples.csv").read_text().count("\n")
                    if lines != self.SAMPLE_ROWS + 1:
                        problems.append(f"samples.csv has {lines} lines")
                digest, size = _digest_tree(out)
                digests.append(digest)
                result.bytes_written += size
            if self.tracer is not None and "spans" in child:
                self.tracer.extend(child["spans"])
                result.import_s.append(child["import_s"])
            result.failed += int(bool(problems))
            result.problems += problems
        result.fingerprint = ",".join(digests)
        return result


class AlignSteps(Workload):
    """A seeded stream of alignment_loss training steps over the full staircase schedule."""

    name = "align-steps"
    why = (
        "alignment is used by no other workload; one pass runs the staircase "
        "schedule from alpha 0 to 1 with an SVD per step"
    )
    moves = {"alignment": "align.steps_per_s", "cli": "setup_s (import)"}
    rate_metric = "align.steps_per_s"
    units = {"align.steps_per_s": "1/s"}

    BATCH_ROWS, OBSERVED, UNOBSERVED, POOL = 64, 4, 12, 64
    STEPS = 10_000          # ~2 s per pass on one core
    LAMBDA_MAX = 2.0

    def __init__(self, seed: int, workdir: Path, sampler: speed.Sampler):
        super().__init__(sampler)
        rng = np.random.default_rng([seed, 40])
        shape = (self.POOL, self.BATCH_ROWS)
        context = rng.normal(size=(*shape, self.OBSERVED))
        observed = context + rng.normal(0.0, 0.1, size=context.shape)
        unobserved = rng.normal(size=(*shape, self.UNOBSERVED))
        self.batches = [
            AlignmentBatch(observed[k], unobserved[k], context[k]) for k in range(self.POOL)
        ]
        self.items_per_op = self.STEPS
        self.seeds = {"batch stream": seed}

    def op(self) -> OpResult:
        # looked up per op, so a traced op calls the traced entry point
        batches, pool, alignment_loss = self.batches, self.POOL, causalprobe.alignment_loss
        losses = np.empty(self.STEPS)

        def steps():
            state = AlignmentState(lambda_max=self.LAMBDA_MAX, total_iterations=self.STEPS)
            for k in range(self.STEPS):
                losses[k], state = alignment_loss(batches[k % pool], state)
            return state

        result = OpResult(0.0, attempted=1)
        state = self._timed(result, steps)
        bad = int((~np.isfinite(losses)).sum())
        if bad:
            result.problems.append(f"{bad} non-finite losses")
        if state.alpha != 1.0:
            result.problems.append(f"alpha ended at {state.alpha}, not 1")
        result.failed = int(bool(result.problems))
        result.fingerprint = hashlib.sha256(losses.tobytes()).hexdigest()
        return result


WORKLOADS = {w.name: w for w in (EvaluateTI, DiscoverSem30, CliReadme, AlignSteps)}
