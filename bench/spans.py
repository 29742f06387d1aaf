"""Span tracing for the benchmark's traced runs.

The tracer wraps public entry points of each causalprobe module from the
outside: nothing in the package changes. A span records its name, the
workload op it belongs to, its parent span, start and end times, and a few
counts read from the call's arguments or result. Spans stay in memory; the
caller writes them out when the run ends.

Layer self time is a span's duration minus the durations of its direct
child spans (calls are strictly nested: the workloads are single-threaded).
"""
from __future__ import annotations

import functools
import sys
import warnings
from time import perf_counter

# one span: [name, op, parent index or None, start, end, counts or None]
NAME, OP, PARENT, START, END, COUNTS = range(6)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _rows(array) -> int:
    shape = getattr(array, "shape", ())
    return int(shape[0]) if len(shape) > 1 else 1


def _faithfulness_counts(args, kwargs, _result):
    latents = _arg(args, kwargs, 0, "latents")
    explanations = _arg(args, kwargs, 1, "explanations")
    bins = _arg(args, kwargs, 2, "config").mi_bins
    n, cols = latents.shape[0], latents.shape[1] + explanations.shape[1]
    # the package's joint-histogram rule: n rows must cover bins**cols cells
    return {"rows": n, "reduced_regime": int(n < bins**cols)}


# (span name, module, attribute, counts(args, kwargs, result) or None).
# A dotted attribute is a method: it is patched on its class and on every
# subclass that overrides it. A plain attribute is a function: it is patched
# in every causalprobe namespace that bound it (the package root re-exports
# most names, cli imports lime_latent and discover by name, and discover
# calls propose_edges through its module globals).
TARGETS = (
    ("cli.run", "causalprobe.cli", "main", None),
    ("cli.run", "causalprobe.cli", "run_sample", None),
    ("cli.run", "causalprobe.cli", "run_discover", None),
    ("cli.run", "causalprobe.cli", "run_explain", None),
    ("cli.run", "causalprobe.cli", "run_evaluate", None),
    ("cli.run", "causalprobe.cli", "evaluate_explainer", None),
    ("scm.sample", "causalprobe.scm", "ScmModel.sample",
     lambda a, k, r: {"rows": _arg(a, k, 1, "n")}),
    ("scm.propagate", "causalprobe.scm", "ScmModel.propagate",
     lambda a, k, r: {"rows": _rows(r)}),
    ("scm.abduce", "causalprobe.scm", "ScmModel.abduce",
     lambda a, k, r: {"rows": _rows(r.values)}),
    ("scm.mechanism", "causalprobe.scm", "Mechanism.evaluate", None),
    ("oracle.init", "causalprobe.oracle", "ScmOracle.__init__", None),
    ("oracle.init", "causalprobe.oracle", "LinearOracle.__init__", None),
    ("oracle.query", "causalprobe.oracle", "Oracle.query",
     lambda a, k, r: {"rows": _rows(r)}),
    ("discovery.discover", "causalprobe.discovery", "discover", None),
    ("discovery.propose", "causalprobe.discovery", "propose_edges",
     lambda a, k, r: {"candidates": len(r[0].edges)}),
    ("discovery.prune", "causalprobe.discovery", "prune_indirect",
     lambda a, k, r: {"pruned": len(_arg(a, k, 1, "candidates").edges) - len(r.edges)}),
    ("discovery.cycles", "causalprobe.discovery", "resolve_cycles",
     lambda a, k, r: {"cycle_broken": len(_arg(a, k, 0, "graph").edges) - len(r.edges)}),
    ("attribution.lime", "causalprobe.attribution", "lime_latent",
     lambda a, k, r: {"degenerate_fits": int(r.degenerate_fit)}),
    ("attribution.confidence", "causalprobe.attribution", "confidence_delta", None),
    ("attribution.counterfactual", "causalprobe.attribution", "counterfactual_diff", None),
    ("graph.descendants", "causalprobe.graph", "CausalGraph.descendants", None),
    ("graph.find_cycle", "causalprobe.graph", "CausalGraph.find_cycle", None),
    ("graph.topological_order", "causalprobe.graph", "CausalGraph.topological_order", None),
    ("metrics.faithfulness", "causalprobe.metrics", "faithfulness_index", _faithfulness_counts),
    ("metrics.stability", "causalprobe.metrics", "stability", None),
    ("metrics.correctness", "causalprobe.metrics", "correctness_index", None),
    ("alignment.loss", "causalprobe.alignment", "alignment_loss", None),
    ("alignment.svd", "causalprobe.alignment", "thin_svd", None),
)


class Tracer:
    """In-memory span recorder; `op` tags every span opened while it is set."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = 0
        self.unpatched: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, counts=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self.op, stack[-1] if stack else None, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if counts is not None:
                span[COUNTS] = counts(args, kwargs, result)
            return result

        return traced

    def event(self, name, counts):
        """Zero-length span for something that happened, such as a warning."""
        now = perf_counter()
        self.spans.append(
            [name, self.op, self._stack[-1] if self._stack else None, now, now, counts]
        )

    def extend(self, spans):
        """Append spans recorded by another process, re-based onto this list."""
        base = len(self.spans)
        for name, _op, parent, start, end, counts in spans:
            parent = None if parent is None else parent + base
            self.spans.append([name, self.op, parent, start, end, counts])


class _CountingWarnings:
    """Stands in for the `warnings` module inside causalprobe.discovery."""

    def __init__(self, tracer):
        self._tracer = tracer

    def warn(self, message, category=None, stacklevel=1, **kwargs):
        self._tracer.event("discovery.warning", {"degenerate_warnings": 1})
        warnings.warn(message, category, stacklevel + 1, **kwargs)

    def __getattr__(self, name):
        return getattr(warnings, name)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def install(tracer: Tracer):
    """Patch every target in every causalprobe namespace that bound it.

    Returns a function that puts the original attributes back.
    """
    modules = [
        m for n, m in list(sys.modules.items())
        if m is not None and (n == "causalprobe" or n.startswith("causalprobe."))
    ]
    patches = []  # (owner, attribute, original)
    for name, module, attr, counts in TARGETS:
        owner_name, _, fname = attr.rpartition(".")
        owner = sys.modules.get(module)
        if owner_name:
            cls = getattr(owner, owner_name, None)
            classes = [] if cls is None else [cls, *_subclasses(cls)]
            found = [(c, fname, vars(c)[fname]) for c in classes if fname in vars(c)]
        else:
            fn = getattr(owner, fname, None)
            found = [
                (m, k, fn) for m in modules for k, v in list(vars(m).items()) if v is fn
            ] if callable(fn) else []
        for target, key, original in found:
            setattr(target, key, tracer.wrap(name, original, counts))
        patches += found
        if not found and f"{module}:{attr}" not in tracer.unpatched:
            tracer.unpatched.append(f"{module}:{attr}")
    discovery = sys.modules.get("causalprobe.discovery")
    if discovery is not None and getattr(discovery, "warnings", None) is warnings:
        discovery.warnings = _CountingWarnings(tracer)
        patches.append((discovery, "warnings", warnings))

    def uninstall():
        for target, key, original in reversed(patches):
            setattr(target, key, original)

    return uninstall


class Aggregate:
    """Calls, rows, self time and counts per span name over one op's spans."""

    def __init__(self, spans, op):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.prune_queries = 0
        for span in spans:
            if span[OP] != op:
                continue
            name, dur = span[NAME], span[END] - span[START]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + dur
            self.total_s[name] = self.total_s.get(name, 0.0) + dur
            for key, value in (span[COUNTS] or {}).items():
                key = f"{name}.rows" if key == "rows" else key
                self.counts[key] = self.counts.get(key, 0) + value
            if span[PARENT] is not None:
                parent = spans[span[PARENT]][NAME]
                self.self_s[parent] -= dur
                if parent == "discovery.prune" and name == "oracle.query":
                    self.prune_queries += 1

    def metric(self, name: str) -> float:
        """Value of a per-layer metric named `<span>.<field>` or `<layer>.<count>`."""
        span, _, field = name.rpartition(".")
        if field == "calls":
            return self.calls.get(span, 0)
        if field == "rows":
            return self.counts.get(name, 0)
        if field == "self_s":
            return self.self_s.get(span, 0.0)
        if field == "rows_per_s":
            busy = self.total_s.get(span, 0.0)
            return self.counts.get(f"{span}.rows", 0) / busy if busy else 0.0
        if name == "discovery.prune.useful_ratio":
            queries = self.prune_queries
            return self.counts.get("pruned", 0) / queries if queries else 0.0
        return self.counts.get(field, 0)
