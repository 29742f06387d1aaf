"""Intervention-driven causal graph extraction against a latent oracle.

Pipeline: propose candidate edges from ±magnitude intervention sweeps
(edge weight = Monte-Carlo mean of induced-change ratios), prune edges
explained by a mediator via controlled follow-up interventions, then break
any remaining cycles by dropping the weakest edge. The output is always a
DAG without self-loops.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .graph import CausalGraph, _has_cycle
from .oracle import Oracle


@dataclass(frozen=True)
class DiscoveryConfig:
    threshold: float = 0.05            # edge-weight acceptance threshold
    prune_eps: float = 0.05            # mediated-reproduction tolerance
    intervention_magnitude: float = 1.0
    n_samples: int = 256               # Monte-Carlo samples per expectation
    denom_guard_delta: float = 1e-6    # skip ratios with tiny denominators
    seed: int = 0

    def __post_init__(self):
        if not (0 < self.threshold < np.inf and 0 < self.prune_eps < np.inf):
            raise ValueError("threshold and prune_eps must be > 0 and finite")
        if not 0 < self.intervention_magnitude < np.inf:
            raise ValueError("intervention_magnitude must be > 0 and finite")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if not 0 < self.denom_guard_delta < np.inf:
            raise ValueError("denom_guard_delta must be > 0 and finite")


def _sweep_seed(config: DiscoveryConfig, src: int, magnitude: float) -> list[int]:
    """The query seed of feature src's sweep in the direction of magnitude."""
    return [config.seed, 1, src, 0 if magnitude >= 0 else 1]


def _sweep(
    oracle: Oracle, base: np.ndarray, src: int, magnitude: float, config: DiscoveryConfig
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Re-encode base (n, d) under do(l_src = l_src + magnitude), seeded by
    src and the sign of magnitude. Returns the intervened rows, the per-column
    mean of (dst change) / (src change) over rows whose src change clears the
    denominator guard, and whether the guard skipped every row (means 0)."""
    base = np.asarray(base, dtype=float)
    if base.ndim != 2 or base.shape[1] != oracle.dim or not len(base):
        raise ValueError(f"base rows must have shape (n, {oracle.dim}), got {base.shape}")
    seed = _sweep_seed(config, src, magnitude)
    rows = oracle.query(base, {src: base[:, src] + magnitude}, seed=seed)
    denom = rows[:, src] - base[:, src]
    valid = np.abs(denom) >= config.denom_guard_delta
    if not valid.any():
        return rows, np.zeros(oracle.dim), True
    return rows, ((rows[valid] - base[valid]) / denom[valid, None]).mean(axis=0), False


def edge_weight(
    oracle: Oracle,
    i: int,
    j: int,
    base: np.ndarray,
    config: DiscoveryConfig,
    magnitude: float | None = None,
) -> float:
    """Monte-Carlo edge weight for i -> j under do(l_i = l_i + magnitude):
    _sweep's mean ratio for j, or 0 with a warning when the denominator
    guard skips every sample."""
    i, j = oracle.model.node_index(i), oracle.model.node_index(j)
    if i == j:
        raise ValueError("edge weight needs distinct features")
    mag = config.intervention_magnitude if magnitude is None else magnitude
    _, means, degenerate = _sweep(oracle, base, i, mag, config)
    if degenerate:
        warnings.warn(
            f"edge weight ({i} -> {j}): all samples fell below the denominator "
            "guard; returning 0",
            RuntimeWarning,
        )
        return 0.0
    return float(means[j])


def propose_edges(
    oracle: Oracle, base: np.ndarray, config: DiscoveryConfig
) -> tuple[CausalGraph, tuple[np.ndarray, np.ndarray]]:
    """Run ±magnitude sweeps on every feature and emit candidate edges.

    An ordered pair (i, j) becomes a candidate when the mean of |EW| over
    both sweep directions exceeds the threshold. The stored edge weight is
    the signed mean of the two directions. Returns the candidates and the
    sweeps the pruning stage reuses, (base, plus): plus[i] (n, d) is
    feature i's +magnitude sweep.
    """
    base = np.asarray(base, dtype=float)
    d = oracle.dim
    graph = CausalGraph(list(oracle.labels))
    plus = np.empty((d,) + base.shape)
    mag = config.intervention_magnitude
    for i in range(d):
        plus[i], ew_plus, deg_p = _sweep(oracle, base, i, mag, config)
        _, ew_minus, deg_m = _sweep(oracle, base, i, -mag, config)
        if deg_p and deg_m:
            warnings.warn(
                f"feature {i}: both sweeps degenerate under the denominator guard",
                RuntimeWarning,
            )
            continue
        strength = (np.abs(ew_plus) + np.abs(ew_minus)) / 2.0
        signed = (ew_plus + ew_minus) / 2.0
        for j in range(d):
            if j != i and strength[j] > config.threshold:
                graph.add_edge(i, j, signed[j])
    return graph, (base, plus)


def prune_indirect(
    oracle: Oracle,
    candidates: CausalGraph,
    sweeps: tuple[np.ndarray, np.ndarray],
    config: DiscoveryConfig,
) -> CausalGraph:
    """Remove candidate direct edges that their mediators fully explain.

    sweeps is propose_edges' (base, plus). For a candidate edge i -> j its
    mediators are every node k other than i and j on a directed path
    i ~> k ~> j in the current graph. They are jointly clamped to the
    per-sample values they took under the +magnitude i-sweep, plus[i], in a
    query under that sweep's seed, so j meets the noise draws it met there;
    if the mean resulting value of j reproduces plus[i]'s value of j within
    prune_eps, the direct edge i -> j is deleted. (Joint clamping is what
    the single-mediator check becomes on chains; it is required when the
    indirect effect splits across parallel mediators.) Direct edges are
    processed in ascending |EW| order and removals update the mediator
    sets of later edges. In a DAG a removed edge has a path around it, so
    the reachability closure only needs recomputing while a cycle remains.
    """
    base, plus = sweeps
    graph = candidates.copy()
    ordered = sorted(graph.sorted_edges(), key=lambda e: (abs(e[2]), e[0], e[1]))
    reach = graph.reach()
    for i, j, _w in ordered:
        on_path = reach[i] & reach[:, j]
        on_path[[i, j]] = False
        if not on_path.any():
            continue
        seed = _sweep_seed(config, i, config.intervention_magnitude)
        out = oracle.query(base, (on_path, plus[i]), seed=seed)
        diff = float(np.mean(out[:, j] - plus[i][:, j]))
        if abs(diff) < config.prune_eps:
            graph.remove_edge(i, j)
            if _has_cycle(reach):  # a cycle: paths may change
                reach = graph.reach()
    return graph


def resolve_cycles(graph: CausalGraph) -> CausalGraph:
    """Break directed cycles by repeatedly dropping the weakest edge on any
    cycle: the smallest-|EW| edge (i, j) with a path j ~> i, ties broken by
    (i, j). With distinct |EW| the result does not depend on node numbering,
    and two-cycles keep the direction with the larger |EW|. The input is
    returned untouched (as a copy) when already acyclic."""
    out = graph.copy()
    while True:
        reach = out.reach()
        on_cycle = [e for e in out.edges if reach[e[1], e[0]]]
        if not on_cycle:
            return out
        out.remove_edge(*min(on_cycle, key=lambda e: (abs(out.edges[e]), e)))


def discover(
    oracle: Oracle, config: DiscoveryConfig, base: np.ndarray | None = None
) -> CausalGraph:
    """Full extraction: sample, propose, prune, break cycles.

    The result is acyclic and self-loop free, and deterministic given the
    oracle and config seeds.
    """
    if base is None:
        base = oracle.sample_latents(config.n_samples, [config.seed, 0])
    candidates, sweeps = propose_edges(oracle, base, config)
    pruned = prune_indirect(oracle, candidates, sweeps, config)
    return resolve_cycles(pruned)
