#!/usr/bin/env python3
"""causalprobe benchmark: one workload per run, or every workload in a table.

    python3 bench/run.py --workload evaluate-ti --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 0 [--trace 1]

Run from anywhere; the package is imported from `src/` next to this
directory, never from an installed copy. A run builds the workload's inputs
from --seed, repeats the workload's op for about --seconds (at least three
times), checks every output and prints a `bench-report {...}` line with the
named metrics and the machine stamp. The last line of standard output is
the result: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end_to_end set of BENCHMARK.json, measured untraced, with
times and rates at the reference host speed of speed.py; with
--trace 1 they are its per_layer set, from span-traced ops that alternate
with untraced ones; the spans are written to
.bench_out/trace-<workload>-s<seed>.json.

BLAS and OpenMP pools are pinned to one thread, here and in every child.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_RUNS = 5          # set-ups per run: this process plus four fresh ones
SETUP_TIMEOUT_S = 60
COUNT_UNITS = ("count", "rows", "B")   # per-layer metrics that must repeat exactly

for _var in BLAS_ENV:
    os.environ[_var] = "1"


def median(values):
    return statistics.median(values) if values else 0.0


def _version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _commit():
    """HEAD of the checkout's git repository, or None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def stamp(wl, seed):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "blas_threads": {var: os.environ[var] for var in BLAS_ENV},
        "commit": _commit(),
        "seed": seed,
        "workload_seeds": wl.seeds,
    }


def setup_probe(args) -> dict:
    """Set-up time of a fresh process: import causalprobe and build the inputs."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def run_op(wl):
    from workloads import OpResult

    try:
        return wl.op()
    except Exception as exc:  # a failed op is counted, and the run goes on
        n = wl.attempts_per_op
        return OpResult(0.0, attempted=n, failed=n, problems=[f"op raised {exc!r}"])


def measure(wl, seconds, min_ops):
    """Closed loop: run ops back to back, at least `min_ops`, while the next
    one is expected to end within `seconds` of the start."""
    results = []
    start = perf_counter()
    while True:
        results.append(run_op(wl))
        elapsed = perf_counter() - start
        if len(results) >= min_ops and elapsed * (len(results) + 1) / len(results) > seconds:
            return results


def check_repeat(results):
    """Deterministic outputs must be the same in every op that passed its checks."""
    fingerprints = {r.fingerprint for r in results if r.fingerprint and not r.failed}
    if len(fingerprints) > 1:
        results[-1].failed += 1
        results[-1].problems.append("deterministic outputs differ between ops")


def walls(results):
    return [r.wall for r in results if r.wall > 0]


def norm_walls(results):
    return [r.norm_wall for r in results if r.norm_wall > 0]


def untraced_metrics(wl, ops, setups):
    """Named metrics of the workload plus the end-to-end set.

    Rates are at the reference host speed of speed.py: each op's wall time
    is scaled by the host speed sampled while it ran. The first op is timed
    too: it measured no slower than the later ones.
    """
    import speed

    op_s = median(norm_walls(ops))
    rate = wl.items_per_op / op_s if op_s else 0.0
    raw_op_s = median(walls(ops))
    usage = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024
    named = {wl.rate_metric: (rate, wl.units[wl.rate_metric])}
    for key, unit in wl.units.items():
        values = [r.values[key] for r in ops if key in r.values]
        if key != wl.rate_metric and values:
            named[key] = (median(values), unit)
    named["raw_items_per_s"] = (wl.items_per_op / raw_op_s if raw_op_s else 0.0, "1/s")
    samples = [s for r in ops for s in r.samples]
    named["host_speed"] = (speed.REF_S / median(samples) if samples else 0.0, "x")
    setup_s = median([s["norm"] for s in setups])
    named["setup_s"] = (setup_s, "s")
    named["raw_setup_s"] = (median([s["raw"] for s in setups]), "s")
    named["peak_rss_mb"] = (peak_rss_mb, "MB")
    end_to_end = {"setup_s": setup_s, "items_per_s": rate, "peak_rss_mb": peak_rss_mb}
    return named, end_to_end


def traced_metrics(wl, args, spec, import_s):
    """Per-layer metrics of span-traced ops, and the tracing overhead."""
    import spans

    # untraced and traced ops alternate, so drift in machine speed hits both alike
    tracer = spans.Tracer()
    untraced, traced = [], []
    deadline = perf_counter() + args.seconds
    while len(traced) < 2 or perf_counter() < deadline:
        untraced.append(run_op(wl))
        tracer.op = len(traced)
        uninstall = wl.trace(tracer)
        traced.append(run_op(wl))
        uninstall()
    check_repeat(untraced + traced)
    per_op = []
    for k, result in enumerate(traced):
        agg = spans.Aggregate(tracer.spans, k)
        values = {m["name"]: agg.metric(m["name"]) for m in spec["per_layer"]}
        values["cli.import_s"] = median(result.import_s) if result.import_s else import_s
        values["cli.bytes_written"] = result.bytes_written
        per_op.append(values)
    problems = []
    for m in spec["per_layer"]:
        if m["unit"] in COUNT_UNITS and len({v[m["name"]] for v in per_op}) > 1:
            problems.append(f"{m['name']} differs between traced ops")
    layer = {name: median([v[name] for v in per_op]) for name in per_op[0]}
    untraced_s = median(walls(untraced))
    layer["trace.overhead_pct"] = (
        100.0 * (median(walls(traced)) / untraced_s - 1.0) if untraced_s else 0.0
    )
    trace_file = OUT / f"trace-{args.workload}-s{args.seed}.json"
    trace_file.write_text(json.dumps({
        "workload": args.workload,
        "stamp": stamp(wl, args.seed),
        "per_op": per_op,
        "unpatched": tracer.unpatched,
        "span_fields": ["name", "op", "parent", "start", "end", "counts"],
        "spans": tracer.spans,
    }))
    return untraced + traced, layer, problems, trace_file


def run_one(args, spec, workdir) -> int:
    start = perf_counter()
    import speed
    import workloads  # imports causalprobe, numpy and scipy

    import_s = perf_counter() - start
    sampler = speed.Sampler()
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir, sampler)
    setup_s = perf_counter() - start
    samples = speed.passes(speed.SETUP_PASSES)
    setup = {"raw": setup_s, "norm": speed.normalised(setup_s, samples)}
    import causalprobe

    if not Path(causalprobe.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported causalprobe from {causalprobe.__file__}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    report = {"workload": args.workload, "trace": args.trace, "stamp": stamp(wl, args.seed),
              "why": wl.why, "moves": wl.moves}
    extra_problems = []
    if args.trace:
        ops, values, extra_problems, trace_file = traced_metrics(wl, args, spec, import_s)
        section = spec["per_layer"]
        report["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        setups = [setup] + [setup_probe(args) for _ in range(SETUP_RUNS - 1)]
        sampler.enabled = True
        ops = measure(wl, args.seconds, min_ops=3)
        sampler.enabled = False
        check_repeat(ops)
        named, values = untraced_metrics(wl, ops, setups)
        section = spec["end_to_end"]
        report["named"] = {k: {"value": v, "unit": u} for k, (v, u) in named.items()}
        report["op_walls_s"] = [r.wall for r in ops]
        report["op_norm_walls_s"] = [r.norm_wall for r in ops]
        report["op_host_speed"] = [
            speed.REF_S / median(r.samples) if r.samples else 0.0 for r in ops]
    attempted = sum(r.attempted for r in ops)
    failed = sum(r.failed for r in ops)
    problems = [p for r in ops for p in r.problems] + extra_problems
    report["named_counts"] = {"ops_attempted": attempted, "ops_failed": failed}
    report["problems"] = problems[:20]
    for problem in problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print("bench-report " + json.dumps(report))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section},
    }))
    return 0


def run_all(args, spec) -> int:
    """Every workload in a fresh process, printed as one table."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in spec["workloads"]:
        name = workload["name"]
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            summary["correct"] = False
            continue
        result = json.loads(lines[-1])
        report = json.loads(next(ln for ln in lines if ln.startswith("bench-report "))[13:])
        table = dict(report.get("named", {}))
        table.update(result["metrics"])
        table.update({k: {"value": v, "unit": "count"} for k, v in report["named_counts"].items()})
        for metric, entry in table.items():
            print(f"{name:15s} {metric:36s} {entry['value']:>14.6g} {entry['unit']}")
            summary["metrics"][f"{name}/{metric}"] = entry
        for key in ("attempted", "failed"):
            summary[key] += result[key]
        summary["correct"] = summary["correct"] and result["correct"]
        if report.get("trace_file"):
            print(f"{name:15s} spans written to {report['trace_file']}")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*names, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "causalprobe" / "__init__.py").is_file():
        print(f"error: no causalprobe package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, spec)
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        return run_one(args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
