import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from causalprobe import (
    CausalGraph,
    DiscoveryConfig,
    Oracle,
    OracleConfig,
    SampleSet,
    ScmModel,
    builtin,
    correctness_index,
    discover,
    edge_weight,
    propose_edges,
    prune_indirect,
    resolve_cycles,
)
from causalprobe import discovery
from causalprobe.graph import _has_cycle

NOISELESS = OracleConfig(roundtrip_noise_std=0.0, standardize=False)


def linear(weight_entries, d, exo=1.0, config=NOISELESS):
    w = np.zeros((d, d))
    for (i, j), v in weight_entries.items():
        w[i, j] = v
    return Oracle(ScmModel.linear(w, exo), config)


def path_product_total(weights, i, j):
    """Independent oracle: sum over all directed paths of weight products."""
    d = weights.shape[0]
    total = 0.0
    stack = [(i, 1.0)]
    while stack:
        node, acc = stack.pop()
        for nxt in range(d):
            w = weights[node, nxt]
            if w != 0.0:
                if nxt == j:
                    total += acc * w
                stack.append((nxt, acc * w))
    return total


def test_edge_weight_single_edge_exact():
    oracle = linear({(0, 1): 2.0}, 2)
    cfg = DiscoveryConfig(n_samples=32, seed=0)
    base = oracle.sample_latents(cfg.n_samples, 1)
    assert edge_weight(oracle, 0, 1, base, cfg) == pytest.approx(2.0, abs=1e-12)


def test_edge_weight_disentangled_zero():
    oracle = linear({}, 3)
    cfg = DiscoveryConfig(n_samples=32, seed=0)
    base = oracle.sample_latents(cfg.n_samples, 1)
    for i in range(3):
        for j in range(3):
            if i != j:
                assert edge_weight(oracle, i, j, base, cfg) == 0.0


def test_edge_weight_chain_path_product():
    oracle = linear({(0, 1): 0.5, (1, 2): 0.8}, 3)
    cfg = DiscoveryConfig(n_samples=256, seed=0)
    base = oracle.sample_latents(cfg.n_samples, 1)
    assert edge_weight(oracle, 0, 2, base, cfg) == pytest.approx(0.4, abs=1e-9)


def test_edge_weight_matches_path_products_on_random_dag():
    rng = np.random.default_rng(5)
    d = 5
    w = np.triu(rng.uniform(0.3, 1.0, (d, d)), k=1)
    w[w < 0.5] = 0.0
    oracle = Oracle(ScmModel.linear(w), NOISELESS)
    cfg = DiscoveryConfig(n_samples=64, seed=3)
    base = oracle.sample_latents(cfg.n_samples, 2)
    for i in range(d):
        for j in range(d):
            if i != j:
                expected = path_product_total(w, i, j)
                assert edge_weight(oracle, i, j, base, cfg) == pytest.approx(
                    expected, abs=1e-9
                )


def test_edge_weight_same_feature_rejected():
    # nodes are compared after label and integer resolution
    ti = Oracle(builtin("TI"), NOISELESS)
    cases = [(linear({}, 2), 1, 1), (ti, "t", 0), (ti, 1, np.int64(1))]
    for oracle, i, j in cases:
        with pytest.raises(ValueError, match="distinct"):
            edge_weight(oracle, i, j, np.zeros((4, 2)), DiscoveryConfig())


def test_malformed_base_rows_rejected():
    oracle = Oracle(builtin("TI"), NOISELESS)
    cfg = DiscoveryConfig(n_samples=4)
    for base, got in [
        (np.zeros(2), r"\(2,\)"),
        (np.zeros((4, 3)), r"\(4, 3\)"),
        (np.zeros((0, 2)), r"\(0, 2\)"),
    ]:
        message = rf"shape \(n, 2\), got {got}"
        with pytest.raises(ValueError, match=message):
            discover(oracle, cfg, base=base)
        with pytest.raises(ValueError, match=message):
            edge_weight(oracle, 0, 1, base, cfg)


@pytest.mark.parametrize(
    "seed, message",
    [
        pytest.param(True, "got True", id="bool-seed"),
        pytest.param(2.5, "got 2.5", id="float-seed"),
        pytest.param(-1, "got -1", id="negative-seed"),
    ],
)
def test_discovery_config_rejects_bad_seeds(seed, message):
    # at construction and naming the field, not later inside numpy's SeedSequence
    with pytest.raises(ValueError, match=f"seed must be a non-negative integer, {message}"):
        DiscoveryConfig(seed=seed)


def test_propose_edges_chain_candidates():
    oracle = linear({(0, 1): 0.5, (1, 2): 0.8}, 3)
    cfg = DiscoveryConfig(n_samples=128, seed=0)
    base = oracle.sample_latents(cfg.n_samples, 1)
    candidates, (factual, change) = propose_edges(oracle, base, cfg)
    assert candidates.edge_set() == {(0, 1), (0, 2), (1, 2)}
    assert np.array_equal(factual.values, base)
    assert change.shape == (3,) + base.shape
    for i in range(3):  # change[i] is feature i's +magnitude paired change
        assert change[i][:, i] == pytest.approx(np.full(len(base), cfg.intervention_magnitude))


def test_propose_edges_empty_mechanism():
    oracle = linear({}, 3)
    cfg = DiscoveryConfig(n_samples=64, seed=0)
    base = oracle.sample_latents(cfg.n_samples, 1)
    candidates, _ = propose_edges(oracle, base, cfg)
    assert candidates.edge_set() == set()


def test_propose_edges_ti_direction():
    oracle = Oracle(builtin("TI"), OracleConfig(roundtrip_noise_std=0.0))
    cfg = DiscoveryConfig(n_samples=128, seed=0)
    base = oracle.sample_latents(cfg.n_samples, 1)
    candidates, _ = propose_edges(oracle, base, cfg)
    assert candidates.has_edge(0, 1)  # t -> i
    assert not candidates.has_edge(1, 0)  # intervening on i never moves t


def test_propose_edges_weight_is_mean_of_both_edge_weight_sweeps():
    # one sweep measurement and one seed convention: a candidate's stored EW
    # is the mean of edge_weight's +magnitude sweep and the -magnitude sweep,
    # reduced as edge_weight reduces it, bit for bit
    tswi = Oracle(builtin("TSWI"), OracleConfig(roundtrip_noise_std=0.1))
    chain = linear({(0, 1): 0.5, (1, 2): 0.8}, 3,
                   config=OracleConfig(roundtrip_noise_std=0.3, standardize=False))
    for oracle, n_candidates in [(tswi, 6), (chain, 3)]:
        cfg = DiscoveryConfig(n_samples=128, seed=7)
        base = oracle.sample_latents(cfg.n_samples, 1)
        candidates, _ = propose_edges(oracle, base, cfg)
        assert len(candidates.edges) == n_candidates
        mag = cfg.intervention_magnitude
        for (i, j), ew in candidates.edges.items():
            plus = edge_weight(oracle, i, j, base, cfg)
            change = discovery._sweep(oracle, oracle._factual(base), i, -mag, cfg)
            minus = float(change.mean(axis=0)[j] / -mag)
            assert ew == (plus + minus) / 2.0


def test_prune_removes_transitive_chain_edge():
    oracle = linear({(0, 1): 0.5, (1, 2): 0.8}, 3)
    cfg = DiscoveryConfig(n_samples=128, seed=0)
    base = oracle.sample_latents(cfg.n_samples, 1)
    candidates, sweeps = propose_edges(oracle, base, cfg)
    assert candidates.has_edge(0, 2)
    pruned = prune_indirect(oracle, candidates, sweeps, cfg)
    assert pruned.edge_set() == {(0, 1), (1, 2)}


def test_prune_keeps_fork():
    oracle = linear({(0, 1): 0.7, (0, 2): 0.9}, 3)
    cfg = DiscoveryConfig(n_samples=128, seed=0)
    base = oracle.sample_latents(cfg.n_samples, 1)
    candidates, sweeps = propose_edges(oracle, base, cfg)
    assert candidates.edge_set() == {(0, 1), (0, 2)}
    pruned = prune_indirect(oracle, candidates, sweeps, cfg)
    assert pruned.edge_set() == {(0, 1), (0, 2)}


def test_prune_no_triples_is_identity():
    oracle = linear({(0, 1): 0.7}, 2)
    cfg = DiscoveryConfig(n_samples=64, seed=0)
    base = oracle.sample_latents(cfg.n_samples, 1)
    candidates, sweeps = propose_edges(oracle, base, cfg)
    pruned = prune_indirect(oracle, candidates, sweeps, cfg)
    assert pruned.edge_set() == candidates.edge_set()


class EchoOracle:
    """Its paired change of every column is the mean shift of the clamped
    columns from the base, so under sweeps that move every column alike the
    prune query reproduces the sweep's change and any mediator set explains
    its edge."""

    def _paired_change(self, factual, mask, clamped, seed, read=None):
        shift = (clamped - factual.values[:, mask]).mean(axis=1)
        return np.repeat(shift[:, None], len(mask), axis=1) if read is None else shift


def test_prune_recomputes_reach_once_a_cycle_breaks():
    # b mediates a -> c and c -> a inside the 3-cycle a -> b -> c -> a; once
    # both are pruned, the chain a -> b -> c leaves a -> b and b -> c without
    # a mediator, which a closure kept from the cyclic graph would still find
    candidates = CausalGraph(list("abc"), {(0, 2): 0.1, (2, 0): 0.2, (0, 1): 0.3, (1, 2): 0.4})
    sweeps = (SampleSet(np.zeros((4, 3)), np.zeros((4, 3))), np.ones((3, 4, 3)))
    pruned = prune_indirect(EchoOracle(), candidates, sweeps, DiscoveryConfig())
    assert pruned.edge_set() == {(0, 1), (1, 2)}


def test_resolve_cycles_two_cycle():
    g = CausalGraph(["a", "b"], {(0, 1): 2.0, (1, 0): 0.3})
    out = resolve_cycles(g)
    assert out.edge_set() == {(0, 1)}


def test_resolve_cycles_acyclic_identity():
    g = CausalGraph(["a", "b", "c"], {(0, 1): 1.0, (1, 2): -2.0})
    out = resolve_cycles(g)
    assert out.edges == g.edges


def test_resolve_cycles_three_cycle():
    g = CausalGraph(["a", "b", "c"], {(0, 1): 1.0, (1, 2): 0.9, (2, 0): 0.1})
    out = resolve_cycles(g)
    assert out.edge_set() == {(0, 1), (1, 2)}
    assert not _has_cycle(out.reach())


def relabel(g, perm):
    """g with node k renamed perm[k]."""
    labels = [""] * g.n_nodes
    for k, label in enumerate(g.labels):
        labels[perm[k]] = label
    return CausalGraph(labels, {(perm[i], perm[j]): w for (i, j), w in g.edges.items()})


@st.composite
def weighted_digraphs(draw):
    """A digraph, cycles allowed, with distinct |EW|, and a relabelling."""
    d = draw(st.integers(2, 7))
    pairs = [(i, j) for i in range(d) for j in range(d) if i != j]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=16))
    weights = draw(st.lists(
        st.floats(-2.0, 2.0, allow_nan=False), min_size=len(edges), max_size=len(edges),
        unique_by=abs,
    ))
    graph = CausalGraph([f"x{k}" for k in range(d)], dict(zip(edges, weights)))
    return graph, draw(st.permutations(range(d)))


_OVERLAPPING = CausalGraph(list("abcd"), {(0, 1): .1, (1, 2): .2, (2, 0): .9, (2, 3): .8, (3, 1): .7})


@settings(max_examples=100, deadline=None)
@given(case=weighted_digraphs())
# two cycles share 1 -> 2; a walk that meets 1 -> 2 -> 3 -> 1 first drops
# only 1 -> 2, one that meets 0 -> 1 -> 2 -> 0 first also drops 0 -> 1
@example(case=(_OVERLAPPING, [2, 0, 3, 1]))
def test_resolve_cycles_keeps_a_dag_subgraph_independent_of_numbering(case):
    g, perm = case
    out = resolve_cycles(g)
    assert not _has_cycle(out.reach())
    assert out.edges.items() <= g.edges.items()
    reach = g.reach()
    assert all(out.has_edge(i, j) for i, j in g.edges if not reach[j, i])  # off every cycle
    assert resolve_cycles(relabel(g, perm)).edges == relabel(out, perm).edges


def test_resolve_cycles_overlapping_cycles_lose_each_weakest_edge():
    # 0 -> 1 is the weakest edge of 0 -> 1 -> 2 -> 0 and 1 -> 2 of 1 -> 2 -> 3 -> 1
    kept = CausalGraph(list("abcd"), {(2, 0): .9, (2, 3): .8, (3, 1): .7})
    for perm in itertools.permutations(range(4)):
        assert resolve_cycles(relabel(_OVERLAPPING, perm)).edges == relabel(kept, perm).edges


def test_resolve_cycles_long_ring_loses_its_weakest_edge():
    n = 1500  # deeper than Python's default recursion limit
    ring = {(k, (k + 1) % n): 1.0 + ((k - 700) % n) / n for k in range(n)}
    out = resolve_cycles(CausalGraph([f"x{k}" for k in range(n)], ring))
    assert out.edge_set() == set(ring) - {(700, 701)}


def test_discover_ti_exact():
    oracle = Oracle(builtin("TI"), OracleConfig())
    graph = discover(oracle, DiscoveryConfig(seed=0))
    assert graph.edge_set() == {(0, 1)}
    assert graph.labels == ["t", "i"]


def test_discover_zero_matrix_empty():
    oracle = linear({}, 4)
    graph = discover(oracle, DiscoveryConfig(n_samples=64, seed=0))
    assert graph.edge_set() == set()


def test_discover_tswi_correctness_over_runs():
    oracle = Oracle(builtin("TSWI"), OracleConfig())
    truth = oracle.model.ground_truth_graph()
    graphs = [discover(oracle, DiscoveryConfig(seed=s)) for s in range(5)]
    assert correctness_index(graphs, truth) >= 0.94


def test_discover_deterministic():
    oracle = Oracle(builtin("TSWI"), OracleConfig(seed=4))
    a = discover(oracle, DiscoveryConfig(seed=11))
    b = discover(oracle, DiscoveryConfig(seed=11))
    assert a.edges == b.edges
    c = discover(oracle, DiscoveryConfig(seed=12))
    assert a.edge_set() == c.edge_set()  # same structure, different MC draws


def test_discover_output_is_dag():
    for seed in range(3):
        oracle = Oracle(builtin("TSWI"), OracleConfig(seed=seed))
        g = discover(oracle, DiscoveryConfig(seed=seed))
        assert not _has_cycle(g.reach())
        assert all(i != j for (i, j) in g.edges)


@settings(max_examples=10, deadline=None)
@given(d=st.integers(2, 6), noise=st.sampled_from([0.0, 0.3]), seed=st.integers(0, 2**16))
def test_discover_output_is_dag_on_random_linear_sems(d, noise, seed):
    rng = np.random.default_rng(seed)
    w = np.triu(rng.uniform(-1.0, 1.0, (d, d)), k=1) * (rng.random((d, d)) < 0.6)
    perm = rng.permutation(d)  # node ids away from topological order
    config = OracleConfig(roundtrip_noise_std=noise, standardize=False)
    oracle = Oracle(ScmModel.linear(w[np.ix_(perm, perm)]), config)
    g = discover(oracle, DiscoveryConfig(n_samples=32, threshold=0.02, seed=seed))
    assert not _has_cycle(g.reach())
    assert all(i != j for (i, j) in g.edges)


@settings(max_examples=20, deadline=None)
@given(
    d=st.integers(2, 12), noise=st.sampled_from([0.1, 0.5, 1.0]), seed=st.integers(0, 2**16)
)
@example(d=9, noise=0.1, seed=30790)  # two-hop mediators alone leave the shortcut 7 -> 6
def test_discover_recovers_positive_weight_linear_sems(d, noise, seed):
    # every path adds, so no effect cancels; a shortcut over a long mediator
    # chain must still be pruned once the chain's own shortcuts are gone.
    # Discovery never draws the round-trip noise, so its size does not enter
    rng = np.random.default_rng(seed)
    w = np.triu(rng.uniform(0.5, 1.0, (d, d)), k=1) * (rng.random((d, d)) < 0.25)
    perm = rng.permutation(d)
    w = w[np.ix_(perm, perm)]
    # under "resample" the prune query meets the fresh noise of its sweep
    for policy in ("fixed", "resample"):
        config = OracleConfig(roundtrip_noise_std=noise, noise_policy=policy, standardize=False)
        graph = discover(Oracle(ScmModel.linear(w), config), DiscoveryConfig(seed=3))
        assert graph.edge_set() == {(i, j) for i, j in np.argwhere(w != 0).tolist()}, policy


@pytest.mark.parametrize("policy", ["fixed", "resample"])
@pytest.mark.parametrize("world", ["TI", "IT", "TS", "TSWI"])
def test_discover_recovers_builtins_at_unit_roundtrip_noise(world, policy):
    config = OracleConfig(roundtrip_noise_std=1.0, noise_policy=policy)
    oracle = Oracle(builtin(world), config)
    truth = oracle.model.ground_truth_graph().edge_set()
    for seed in range(5):
        assert discover(oracle, DiscoveryConfig(seed=seed)).edge_set() == truth, seed


def sigma_invariance_cases():
    rng = np.random.default_rng(12)
    w = np.triu(rng.uniform(-1.0, 1.0, (12, 12)), k=1) * (rng.random((12, 12)) < 0.3)
    perm = rng.permutation(12)
    yield ScmModel.linear(w[np.ix_(perm, perm)]), False
    for world in ("TI", "IT", "TS", "TSWI"):
        yield builtin(world), True


@pytest.mark.parametrize("policy", ["fixed", "resample"])
def test_discover_is_bit_identical_across_roundtrip_noise(policy):
    # the paired change never takes the round-trip draw, so every edge
    # weight, not only the edge set, is the same at any roundtrip_noise_std
    for model, standardize in sigma_invariance_cases():
        graphs = [
            discover(
                Oracle(model, OracleConfig(roundtrip_noise_std=std, noise_policy=policy,
                                           standardize=standardize)),
                DiscoveryConfig(seed=3),
            )
            for std in (0.0, 0.1, 1.0)
        ]
        assert graphs[0].edges, model.labels  # a graph with something to compare
        for graph in graphs[1:]:
            assert graph.edges == graphs[0].edges, model.labels


def test_fixed_policy_discovery_builds_no_generator(monkeypatch):
    # under "fixed" a discovery query draws nothing, so it must not pay for
    # building a Generator, a visible share of a d = 30 discover
    oracle = Oracle(builtin("TSWI"), OracleConfig(roundtrip_noise_std=0.3))
    cfg = DiscoveryConfig(n_samples=64, seed=3)
    base = oracle.sample_latents(cfg.n_samples, [cfg.seed, 0])
    expected = discover(oracle, cfg, base=base).edges

    def refuse(*args, **kwargs):
        raise AssertionError("discovery built a Generator under the fixed policy")

    monkeypatch.setattr("causalprobe.oracle.np.random.default_rng", refuse)
    assert discover(oracle, cfg, base=base).edges == expected


@pytest.mark.parametrize("policy", ["fixed", "resample"])
def test_discover_abduces_its_base_once(monkeypatch, policy):
    # propose_edges abduces the base once and prune_indirect reuses it: one
    # abduction serves every query (2d sweeps and one per mediated candidate)
    rows = []
    abduce = ScmModel.abduce

    def counted(self, values):
        rows.append(np.shape(values))
        return abduce(self, values)

    model, _ = next(sigma_invariance_cases())
    for oracle in (Oracle(model, OracleConfig(noise_policy=policy, standardize=False)),
                   Oracle(builtin("TSWI"), OracleConfig(noise_policy=policy))):
        cfg = DiscoveryConfig(n_samples=64, seed=3)
        base = oracle.sample_latents(cfg.n_samples, [cfg.seed, 0])
        candidates, _ = propose_edges(oracle, base, cfg)
        expected = discover(oracle, cfg, base=base).edges
        assert len(candidates.edges) > len(expected)  # the pruning ran a query
        rows.clear()
        with monkeypatch.context() as patch:
            patch.setattr(ScmModel, "abduce", counted)
            assert discover(oracle, cfg, base=base).edges == expected
        assert rows == [base.shape]


@pytest.mark.parametrize("std", [0.0, 0.1])
def test_discover_on_a_given_base_ignores_its_seed_only_under_fixed(std):
    # run_discover writes one graph per subset for all its seeds under
    # "fixed"; under "resample" the seeds draw the fresh exogenous noise, so
    # some graph must move with them
    moved = False
    for model, standardize in sigma_invariance_cases():
        for policy in ("fixed", "resample"):
            oracle = Oracle(model, OracleConfig(roundtrip_noise_std=std, noise_policy=policy,
                                                standardize=standardize))
            base = oracle.sample_latents(64, [5, 0])
            graphs = [discover(oracle, DiscoveryConfig(seed=s), base=base).edges
                      for s in (0, 1, 7)]
            if policy == "fixed":
                assert graphs[0], model.labels  # a graph with something to compare
                assert graphs[1] == graphs[0] and graphs[2] == graphs[0], model.labels
            else:
                moved |= graphs[1] != graphs[0] or graphs[2] != graphs[0]
    assert moved


def test_discover_recovers_exact_diamond():
    # noiseless SEM with comfortably above-threshold weights
    oracle = linear({(0, 1): 0.6, (0, 2): 0.8, (1, 3): 0.5, (2, 3): 0.4}, 4)
    graph = discover(oracle, DiscoveryConfig(n_samples=64, seed=0))
    assert graph.edge_set() == {(0, 1), (0, 2), (1, 3), (2, 3)}


def test_config_validation():
    with pytest.raises(ValueError):
        DiscoveryConfig(threshold=0.0)
    with pytest.raises(ValueError):
        DiscoveryConfig(n_samples=0)
    with pytest.raises(ValueError):
        DiscoveryConfig(intervention_magnitude=-1.0)
    # edge_weight divides by the magnitude: a zero one never reaches it
    with pytest.raises(ValueError, match="intervention_magnitude must be > 0"):
        DiscoveryConfig(intervention_magnitude=0.0)
