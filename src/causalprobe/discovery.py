"""Intervention-driven causal graph extraction against a latent oracle.

Pipeline: propose candidate edges from ±magnitude intervention sweeps,
prune edges explained by a mediator via controlled follow-up interventions,
then break any remaining cycles by dropping the weakest edge. The output is
always a DAG without self-loops. Each stage abduces its base once; a query
reads its paired change (Oracle._paired_change), the clamped rows minus their
same-seed, no-intervention reference. The oracle's round-trip draw depends
only on the seed, so it cancels there and is not drawn: the output does not
depend on its size (an encoder error that depends on the re-encoded row would not).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import CausalGraph, _has_cycle
from .oracle import Oracle


@dataclass(frozen=True)
class DiscoveryConfig:
    """EW of a sweep: mean paired change / intervention_magnitude."""

    threshold: float = 0.05            # edge-weight acceptance threshold
    prune_eps: float = 0.05            # mediated-reproduction tolerance
    intervention_magnitude: float = 1.0
    n_samples: int = 256               # Monte-Carlo samples per expectation
    seed: int = 0

    def __post_init__(self):
        if not (0 < self.threshold < np.inf and 0 < self.prune_eps < np.inf):
            raise ValueError("threshold and prune_eps must be > 0 and finite")
        if not 0 < self.intervention_magnitude < np.inf:
            raise ValueError("intervention_magnitude must be > 0 and finite")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")


def _sweep_seed(config: DiscoveryConfig, src: int, magnitude: float) -> list[int]:
    """The query seed of feature src's sweep in the direction of magnitude."""
    return [config.seed, 1, src, 0 if magnitude >= 0 else 1]


def _sweep(oracle: Oracle, factual, src: int, magnitude: float, config: DiscoveryConfig,
           read=None) -> np.ndarray:
    """The per-row paired change of Oracle._factual's rows under do(l_src = l_src
    + magnitude), seeded by src and the sign of magnitude; column read's if given."""
    return oracle._paired_change(factual, np.arange(oracle.dim) == src, factual.values + magnitude,
                                 _sweep_seed(config, src, magnitude), read)


def edge_weight(
    oracle: Oracle, i: int, j: int, base: np.ndarray, config: DiscoveryConfig,
    magnitude: float | None = None,
) -> float:
    """Monte-Carlo edge weight for i -> j under do(l_i = l_i + magnitude): the
    mean of _sweep's paired change of j (summed in row order, as propose_edges'
    axis-0 mean sums it) over the magnitude, which must not be 0."""
    i, j = oracle.model.node_index(i), oracle.model.node_index(j)
    if i == j:
        raise ValueError("edge weight needs distinct features")
    mag = config.intervention_magnitude if magnitude is None else magnitude
    if mag == 0:
        raise ValueError("edge weight needs a nonzero magnitude")
    change = _sweep(oracle, oracle._factual(base), i, mag, config, read=j)
    return float(np.cumsum(change)[-1] / len(change) / mag)


def propose_edges(
    oracle: Oracle, base: np.ndarray, config: DiscoveryConfig
) -> tuple[CausalGraph, tuple[np.ndarray, np.ndarray]]:
    """Run ±magnitude sweeps on every feature and emit candidate edges.

    An ordered pair (i, j) becomes a candidate when the mean of |EW| over
    both sweep directions exceeds the threshold. The stored edge weight is
    the signed mean of the two directions. Returns the candidates and the
    sweeps the pruning stage reuses, (base, change): change[i] (n, d) is
    the paired change of feature i's +magnitude sweep.
    """
    factual = oracle._factual(base)
    d = oracle.dim
    graph = CausalGraph(list(oracle.labels))
    change = np.empty((d,) + factual.values.shape)
    mag = config.intervention_magnitude
    for i in range(d):
        change[i] = _sweep(oracle, factual, i, mag, config)
        ew_plus = change[i].mean(axis=0) / mag
        ew_minus = _sweep(oracle, factual, i, -mag, config).mean(axis=0) / -mag
        strength = (np.abs(ew_plus) + np.abs(ew_minus)) / 2.0
        signed = (ew_plus + ew_minus) / 2.0
        for j in range(d):
            if j != i and strength[j] > config.threshold:
                graph.add_edge(i, j, signed[j])
    return graph, (factual.values, change)


def prune_indirect(
    oracle: Oracle, candidates: CausalGraph, sweeps: tuple[np.ndarray, np.ndarray],
    config: DiscoveryConfig,
) -> CausalGraph:
    """Remove candidate direct edges that their mediators fully explain.

    sweeps is propose_edges' (base, change). For a candidate edge i -> j
    its mediators are every node k other than i and j on a directed path
    i ~> k ~> j in the current graph. They are jointly clamped to their
    de-noised values under the +magnitude i-sweep, base + change[i], in a
    query under that sweep's seed, so j meets the exogenous noise it met
    there; if j's mean paired change (no round-trip draw taken) reproduces
    change[i]'s change of j within prune_eps, the edge i -> j is deleted; the
    query propagates only the mediators' descendants that are ancestors of j.
    (Joint clamping is what the single-mediator check becomes on chains; it
    is required when the indirect effect splits across parallel mediators.)
    Direct edges are processed in ascending |EW| order and removals update
    the mediator sets of later edges. In a DAG a removed edge has a path
    around it, so the reachability closure only needs recomputing while a
    cycle remains.
    """
    base, change = sweeps
    factual = oracle._factual(base)
    graph = candidates.copy()
    ordered = sorted(graph.sorted_edges(), key=lambda e: (abs(e[2]), e[0], e[1]))
    reach = graph.reach()
    for i, j, _w in ordered:
        on_path = reach[i] & reach[:, j]
        on_path[[i, j]] = False
        if not on_path.any():
            continue
        seed = _sweep_seed(config, i, config.intervention_magnitude)
        change_j = oracle._paired_change(factual, on_path, base + change[i], seed, read=j)
        diff = float(np.mean(change_j - change[i][:, j]))
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
    oracle and config seeds; given a base, under "fixed" it ignores config.seed.
    """
    if base is None:
        base = oracle.sample_latents(config.n_samples, [config.seed, 0])
    candidates, sweeps = propose_edges(oracle, base, config)
    pruned = prune_indirect(oracle, candidates, sweeps, config)
    return resolve_cycles(pruned)
