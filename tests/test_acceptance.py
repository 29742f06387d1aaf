"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""
import json
import time
from pathlib import Path

import numpy as np
import pytest

from causalprobe import (
    AlignmentBatch,
    AlignmentState,
    AttributionConfig,
    CausalGraph,
    ClassifierHead,
    DiscoveryConfig,
    EvaluationConfig,
    Oracle,
    OracleConfig,
    ScmModel,
    alignment_loss,
    builtin,
    correctness_index,
    discover,
    edge_weight,
    faithfulness_index,
    lime_latent,
    loss_gradient_fd,
    mutual_information,
    propose_edges,
    prune_indirect,
    stability,
    thin_svd,
)
from causalprobe.cli import evaluate_explainer, main, run_discover

NOISELESS = OracleConfig(roundtrip_noise_std=0.0, standardize=False)


def report(criterion: int, text: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS - {text}")


def weights(entries, d):
    w = np.zeros((d, d))
    for (i, j), v in entries.items():
        w[i, j] = v
    return w


def linear(entries, d, exo=1.0, config=NOISELESS):
    return Oracle(ScmModel.linear(weights(entries, d), exo), config)


def path_product_total(weights, i, j):
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


def test_criterion_1_graph_recovery():
    requirements = {"TI": 1.0, "IT": 1.0, "TS": 0.95, "TSWI": 0.90}
    exact = {"TI", "IT"}
    results = {}
    for name, floor in requirements.items():
        cfg = {
            "oracle": {"kind": "scm", "model": name},
            "discovery": {"n_samples": 256},
            "evaluation": {"p_subsets": 5, "q_repetitions": 5},
            "pool_size": 1024,
        }
        start = time.time()
        rep = run_discover(cfg, f"/tmp/causalprobe_acc1_{name}", 0)
        elapsed = time.time() - start
        assert elapsed < 60.0, f"{name} took {elapsed:.1f}s"
        value = rep["correctness_index"]
        results[name] = value
        if name in exact:
            assert value == 1.0, f"{name}: correctness {value} != 1.0"
        else:
            assert value >= floor, f"{name}: correctness {value} < {floor}"
    report(1, f"graph recovery at defaults, P=Q=5, n=256: {results}")


def test_criterion_2_spurious_edge_pruning():
    oracle = linear({(0, 1): 0.8, (1, 2): 0.7}, 3)
    cfg = DiscoveryConfig(n_samples=256, seed=0)
    base = oracle.sample_latents(cfg.n_samples, 1)
    candidates, record = propose_edges(oracle, base, cfg)
    assert candidates.has_edge(0, 2), "transitive candidate missing after propose"
    pruned = prune_indirect(oracle, candidates, record, cfg)
    assert pruned.edge_set() == {(0, 1), (1, 2)}
    final = discover(oracle, cfg)
    assert final.edge_set() == {(0, 1), (1, 2)}
    report(2, "3-node chain: 1->3 proposed, pruned away, output exactly {1->2, 2->3}")


def test_criterion_3_edge_weight_correctness():
    sems = [
        {(0, 1): 0.8, (1, 2): 0.7},
        {(0, 1): 0.7, (0, 2): 0.9},
        {(0, 2): 0.5, (1, 2): 0.6},
        {(0, 1): 0.6, (0, 2): 0.8, (1, 3): 0.5, (2, 3): 0.4},
        {(0, 1): 0.9, (1, 2): 0.8, (2, 3): 0.7, (3, 4): 0.6, (0, 4): 0.5},
    ]
    checked = 0
    for entries in sems:
        d = max(max(i, j) for i, j in entries) + 1
        oracle = linear(entries, d)
        cfg = DiscoveryConfig(n_samples=256, seed=0)
        base = oracle.sample_latents(cfg.n_samples, 2)
        for i in range(d):
            for j in range(d):
                if i != j:
                    expected = path_product_total(weights(entries, d), i, j)
                    got = edge_weight(oracle, i, j, base, cfg)
                    assert abs(got - expected) < 1e-9, (entries, i, j, got, expected)
                    checked += 1
    # with observation noise 0.1 and n=1024: within 5% relative
    entries = {(0, 1): 0.8, (1, 2): 0.7}
    noisy = linear(entries, 3, config=OracleConfig(roundtrip_noise_std=0.1, standardize=False))
    cfg = DiscoveryConfig(n_samples=1024, seed=0)
    base = noisy.sample_latents(cfg.n_samples, 3)
    for (i, j), _ in entries.items():
        expected = path_product_total(weights(entries, 3), i, j)
        got = edge_weight(noisy, i, j, base, cfg)
        assert abs(got - expected) / abs(expected) < 0.05
    got = edge_weight(noisy, 0, 2, base, cfg)
    assert abs(got - 0.56) / 0.56 < 0.05
    report(3, f"edge weights match path products: {checked} noiseless pairs at 1e-9, noisy chain within 5%")


def test_criterion_4_disentanglement_null_case():
    thresholds = [0.01, 0.02, 0.05, 0.1, 0.5, 1.0]
    for seed in range(20):
        oracle = linear({}, 4, exo=1.0)
        for t in thresholds:
            g = discover(oracle, DiscoveryConfig(threshold=t, n_samples=64, seed=seed))
            assert g.edge_set() == set(), (seed, t)
    report(4, f"zero-mechanism oracle yields the empty graph for T in {thresholds} across 20 seeds")


def test_criterion_5_alignment_loss_verification():
    rng = np.random.default_rng(0)
    # trivial fixed point: both residuals vanish
    b, k = 6, 3
    u0, _, _ = thin_svd(rng.normal(size=(b, k)))
    lam = 2.0
    sing = np.array([1.4, 1.2, 0.6])
    sing = sing / np.linalg.norm(sing) * lam
    m_u = u0 @ np.diag(sing)
    ctx = rng.normal(size=(b, 2))
    us = thin_svd(m_u)[0] * thin_svd(m_u)[1]
    state = AlignmentState(
        lambda_max=lam, total_iterations=100, alpha=1.0, iteration=50, running_eig=us
    )
    loss, _ = alignment_loss(AlignmentBatch(ctx.copy(), m_u, ctx), state)
    assert loss == pytest.approx(0.0, abs=1e-18)

    # FD gradient vs analytic frozen-mean gradient on random 8x(3+5) batches
    for trial in range(3):
        obs = rng.normal(size=(8, 3))
        ctx = rng.normal(size=(8, 3))
        unobs = rng.normal(size=(8, 5))
        mean = rng.normal(size=(8, 5))
        st = AlignmentState(
            lambda_max=1.5, total_iterations=100, alpha=1.0, iteration=100, running_eig=mean
        )
        batch = AlignmentBatch(obs, unobs, ctx)
        g_obs, g_unobs = loss_gradient_fd(batch, st, h=1e-6)
        a_obs = 2 * (obs - ctx)
        f = np.linalg.norm(unobs)
        t = unobs - st.lambda_max * mean / f
        a_unobs = 2 * t + 2 * st.lambda_max * (t * mean).sum() * unobs / f**3
        assert np.linalg.norm(g_obs - a_obs) / np.linalg.norm(a_obs) < 1e-4
        assert np.linalg.norm(g_unobs - a_unobs) / np.linalg.norm(a_unobs) < 1e-4

    # SVD reconstruction
    for shape in [(8, 5), (8, 3), (4, 3)]:
        m = rng.normal(size=shape)
        u, s, vt = thin_svd(m)
        err = np.linalg.norm(u @ np.diag(s) @ vt - m) / np.linalg.norm(m)
        assert err < 1e-10
    report(5, "fixed-point loss 0, FD gradient within 1e-4 of analytic, SVD reconstruction < 1e-10")


def test_criterion_6_metric_identities():
    cfg = EvaluationConfig()
    truth = CausalGraph(["a", "b", "c"], {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 1.0})
    assert correctness_index([truth.copy()], truth) == 1.0
    partial = CausalGraph(["a", "b", "c"], {(0, 1): 1.0, (1, 2): 1.0, (2, 1): 1.0})
    assert correctness_index([partial], truth) == pytest.approx(1 / 3)
    single = CausalGraph(["a", "b"], {(0, 1): 1.0})
    reversed_ = CausalGraph(["a", "b"], {(1, 0): 1.0})
    assert correctness_index([reversed_], single) == -1.0

    assert stability([[np.array([1.0, 2.0])] * 3 for _ in range(4)]) == 0.0

    x = np.repeat(np.arange(4.0), 2500)
    nmi = mutual_information(x, x, cfg) / 2.0  # H(X) = 2 bits
    assert nmi == pytest.approx(1.0)
    assert faithfulness_index(x, x.copy(), cfg) == pytest.approx(1.0)

    rng = np.random.default_rng(1)
    a = rng.normal(size=10_000)
    shuffled = rng.permutation(a)
    assert faithfulness_index(a, shuffled, cfg) < 0.05

    n = 100_000
    rho = 0.9
    g1 = rng.normal(size=n)
    g2 = rho * g1 + np.sqrt(1 - rho**2) * rng.normal(size=n)
    est_nats = mutual_information(g1, g2, cfg) * np.log(2)
    analytic = -0.5 * np.log(1 - rho**2)
    assert abs(est_nats - analytic) / analytic < 0.10
    report(6, "correctness 1.0 / 1/3 / -1.0 exact, stability 0 exact, NMI identities, Gaussian MI within 10%")


def test_criterion_7_faithfulness_ordering():
    settings = {
        "TI": {"weights": [0.0, 1.0], "mi_bins": 8, "n_explanations": 4200},
        "TSWI": {"weights": [0.0, 0.0, 0.0, 1.0], "mi_bins": 2, "n_explanations": 1500},
    }
    results = {}
    for name, s in settings.items():
        cfg = {
            "oracle": {"kind": "scm", "model": name},
            "classifier": {"weights": s["weights"], "bias": -3.0},
            "discovery": {"n_samples": 256},
            "attribution": {"n_perturbations": 300},
            "evaluation": {"p_subsets": 5, "q_repetitions": 5, "mi_bins": s["mi_bins"]},
            "evaluate": {"n_explanations": s["n_explanations"]},
        }
        rep = evaluate_explainer(cfg, 0)
        engine = rep["faithfulness"]["engine"]
        shuffled = rep["faithfulness"]["shuffled_baseline"]
        stab = rep["stability"]["engine"]
        assert engine >= shuffled + 0.5, (name, engine, shuffled)
        assert stab >= -0.05, (name, stab)
        results[name] = (round(engine, 3), round(shuffled, 3), round(stab, 6))
    report(7, f"(engine, shuffled, stability) per variant: {results}")


def test_criterion_8_interventional_vs_independent():
    oracle = Oracle(builtin("TI"), OracleConfig())
    head = ClassifierHead(np.array([0.0, 1.0]), bias=-1.0)
    graph = discover(oracle, DiscoveryConfig(seed=0))
    latent = oracle.sample_latents(4, 3)[0]
    w_int = lime_latent(
        oracle, head, graph, latent,
        AttributionConfig(n_perturbations=600, perturbation_policy="interventional", seed=5),
    ).weights
    w_ind = lime_latent(
        oracle, head, graph, latent,
        AttributionConfig(n_perturbations=600, perturbation_policy="independent", seed=5),
    ).weights
    t = 0
    ratio = abs(w_int[t]) / max(abs(w_ind[t]), 1e-12)
    assert abs(w_int[t]) > 10 * abs(w_ind[t]), (w_int, w_ind)
    report(8, f"|weight(t)| interventional/independent ratio = {ratio:.1f} (> 10 required)")


def test_criterion_9_cli_determinism(tmp_path):
    cfg = {
        "seed": 5,
        "oracle": {"kind": "scm", "model": "TI"},
        "classifier": {"weights": [0.0, 1.0], "bias": -1.0},
        "discovery": {"n_samples": 256},
        "evaluation": {"p_subsets": 2, "q_repetitions": 2, "mi_bins": 4},
        "attribution": {"n_perturbations": 120},
        "pool_size": 512,
        "sample": {"n": 10},
        "evaluate": {"n_explanations": 150},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))

    def tree(root: Path):
        return {
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file()
        }

    for command, extra in [
        ("sample", []),
        ("discover", []),
        ("explain", ["--do", "t+=1", "--do", "t-=1"]),
        ("evaluate", []),
    ]:
        out_a = tmp_path / f"{command}_a"
        out_b = tmp_path / f"{command}_b"
        assert main([command, "--config", str(cfg_path), "--out", str(out_a)] + extra) == 0
        assert main([command, "--config", str(cfg_path), "--out", str(out_b)] + extra) == 0
        assert tree(out_a) == tree(out_b), f"{command} outputs differ between reruns"
    report(9, "sample/discover/explain/evaluate re-runs are byte-identical")
