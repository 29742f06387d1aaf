from dataclasses import replace
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalprobe import (
    AttributionConfig,
    ClassifierHead,
    DiscoveryConfig,
    Oracle,
    OracleConfig,
    ScmModel,
    builtin,
    confidence_delta,
    counterfactual_diff,
    discover,
    lime_batch,
    lime_latent,
)
from causalprobe import attribution

NOISELESS = OracleConfig(roundtrip_noise_std=0.0, standardize=False)


def zero_oracle(d=3):
    return Oracle(ScmModel.linear(np.zeros((d, d))), NOISELESS)


def ti_setup(noise=0.1):
    oracle = Oracle(builtin("TI"), OracleConfig(roundtrip_noise_std=noise))
    head = ClassifierHead(np.array([0.0, 1.0]), bias=-1.0)
    graph = discover(oracle, DiscoveryConfig(seed=0))
    return oracle, head, graph


def test_single_feature_classifier_independent_policy():
    oracle = zero_oracle(3)
    graph = discover(oracle, DiscoveryConfig(n_samples=64, seed=0))
    for k in range(3):
        w = np.zeros(3)
        w[k] = 1.0
        head = ClassifierHead(w)
        exp = lime_latent(
            oracle,
            head,
            graph,
            np.zeros(3),
            AttributionConfig(n_perturbations=400, perturbation_policy="independent", seed=1),
        )
        assert int(np.argmax(np.abs(exp.weights))) == k


def test_zero_weight_classifier_gives_zero_attribution():
    oracle = zero_oracle(3)
    graph = discover(oracle, DiscoveryConfig(n_samples=64, seed=0))
    head = ClassifierHead(np.zeros(3))
    exp = lime_latent(
        oracle,
        head,
        graph,
        np.zeros(3),
        AttributionConfig(n_perturbations=300, seed=2),
    )
    assert np.all(np.abs(exp.weights) < 1e-8)


def test_interventional_policy_credits_upstream_cause():
    oracle, head, graph = ti_setup()
    latent = oracle.sample_latents(1, 3)[0]
    cfg = AttributionConfig(n_perturbations=600, seed=5)
    w_int = lime_latent(oracle, head, graph, latent, cfg)
    w_ind = lime_latent(
        oracle, head, graph, latent,
        AttributionConfig(n_perturbations=600, perturbation_policy="independent", seed=5),
    )
    t = 0  # thickness index in the TI world
    assert abs(w_int.weights[t]) > 10 * abs(w_ind.weights[t])
    assert abs(w_int.weights[t]) > 0.01


def test_explanations_deterministic_given_seed():
    oracle, head, graph = ti_setup()
    latent = oracle.sample_latents(1, 9)[0]
    cfg = AttributionConfig(n_perturbations=300, seed=123)
    a = lime_latent(oracle, head, graph, latent, cfg)
    b = lime_latent(oracle, head, graph, latent, cfg)
    assert np.array_equal(a.weights, b.weights)
    assert a.intercept == b.intercept


def test_argmax_invariant_under_logit_rescale():
    oracle = zero_oracle(3)
    graph = discover(oracle, DiscoveryConfig(n_samples=64, seed=0))
    base = np.zeros(3)
    cfg = AttributionConfig(
        n_perturbations=500, perturbation_policy="independent", perturbation_std=0.3, seed=4
    )
    w = np.array([0.9, 0.1, -0.3])
    exp1 = lime_latent(oracle, ClassifierHead(w), graph, base, cfg, target_class=1)
    exp3 = lime_latent(oracle, ClassifierHead(3.0 * w), graph, base, cfg, target_class=1)
    assert int(np.argmax(np.abs(exp1.weights))) == int(np.argmax(np.abs(exp3.weights)))


def test_weights_align_with_classifier_gradient():
    oracle = zero_oracle(3)
    graph = discover(oracle, DiscoveryConfig(n_samples=64, seed=0))
    w = np.array([0.8, -0.5, 0.3])
    head = ClassifierHead(w)
    exp = lime_latent(
        oracle,
        head,
        graph,
        np.zeros(3),
        AttributionConfig(
            n_perturbations=5000,
            perturbation_policy="independent",
            perturbation_std=0.5,
            seed=6,
        ),
        target_class=1,
    )
    cos = float(
        exp.weights @ w / (np.linalg.norm(exp.weights) * np.linalg.norm(w))
    )
    assert cos > 0.99


def test_fit_needs_enough_perturbations():
    oracle = zero_oracle(4)
    graph = discover(oracle, DiscoveryConfig(n_samples=64, seed=0))
    with pytest.raises(ValueError, match="n_perturbations"):
        lime_latent(
            oracle,
            ClassifierHead(np.zeros(4)),
            graph,
            np.zeros(4),
            AttributionConfig(n_perturbations=4, seed=0),
        )


def test_local_fit_r2_range():
    oracle, head, graph = ti_setup()
    latent = oracle.sample_latents(1, 10)[0]
    exp = lime_latent(oracle, head, graph, latent, AttributionConfig(seed=0))
    assert 0.0 <= exp.local_fit_r2 <= 1.0


def test_confidence_delta_empty_do_is_zero():
    oracle, head, _ = ti_setup()
    latent = oracle.sample_latents(1, 0)[0]
    assert np.array_equal(confidence_delta(oracle, head, latent, {}), np.zeros(2))


def test_confidence_delta_sign_tracks_classifier_weight():
    oracle, head, _ = ti_setup(noise=0.0)
    # monotone mechanism: pushing thickness up raises intensity, and the
    # classifier reads intensity positively
    latent = oracle.sample_latents(8, 2)[1]
    delta = confidence_delta(oracle, head, latent, {"t": latent[0] + 1.0}, seed=3)
    assert delta[1] > 0
    assert delta[0] == pytest.approx(-delta[1])


def test_confidence_delta_not_antisymmetric_on_saturating_mechanism():
    oracle = Oracle(builtin("TI"), NOISELESS)
    head = ClassifierHead(np.array([0.0, 0.05]), bias=-10.0)
    latent = np.array([4.0, 64 + 191 * 0.95])  # deep in the sigmoid's flat top
    up = confidence_delta(oracle, head, latent, {"t": 5.0}, seed=1)
    down = confidence_delta(oracle, head, latent, {"t": 3.0}, seed=1)
    assert abs(up[1] + down[1]) > 1e-3  # opposite nudges, non-mirrored response


def test_counterfactual_diff_empty_do():
    oracle, _, _ = ti_setup()
    latent = oracle.sample_latents(1, 4)[0]
    intervened, diff = counterfactual_diff(oracle, latent, {}, seed=0)
    assert np.array_equal(diff, np.zeros(2))
    assert intervened.shape == (2,)


def test_counterfactual_diff_support_is_descendant_closed():
    oracle = Oracle(builtin("TSWI"), OracleConfig(roundtrip_noise_std=0.0))
    latent = oracle.sample_latents(1, 5)[0]
    lab = {name: k for k, name in enumerate(oracle.labels)}
    _, diff = counterfactual_diff(oracle, latent, {"t": latent[lab["t"]] + 1.0}, seed=0)
    assert np.all(diff != 0)  # t moves every downstream feature in this world
    _, diff_sink = counterfactual_diff(oracle, latent, {"i": 0.0}, seed=0)
    support = set(np.flatnonzero(diff_sink != 0))
    assert support == {lab["i"]}


def test_attribution_config_validation():
    with pytest.raises(ValueError):
        AttributionConfig(perturbation_policy="both")
    with pytest.raises(ValueError):
        AttributionConfig(n_perturbations=1)
    with pytest.raises(ValueError):
        AttributionConfig(kernel_width=0.0)


@lru_cache(maxsize=None)
def batch_setup(kind, policy):
    config = OracleConfig(noise_policy=policy)
    if kind == "TSWI":
        oracle = Oracle(builtin(kind), config)
    else:
        # d = 9 reaches the BLAS kernels that round a row by its position
        rng = np.random.default_rng(11)
        w = np.triu(rng.uniform(-1.0, 1.0, (9, 9)), k=1) * (rng.random((9, 9)) < 0.4)
        oracle = Oracle(ScmModel.linear(w), replace(config, standardize=False))
    return oracle, discover(oracle, DiscoveryConfig(n_samples=64, seed=0))


@settings(max_examples=12, deadline=None)
@given(
    kind=st.sampled_from(["TSWI", "linear"]),
    noise_policy=st.sampled_from(["fixed", "resample"]),
    perturbation_policy=st.sampled_from(["interventional", "independent"]),
    softmax=st.booleans(),
    target_class=st.sampled_from([None, 0, 1]),
    per_item_seeds=st.booleans(),
    m=st.integers(1, 7),
    seed=st.integers(0, 2**16),
)
def test_lime_batch_rows_equal_lime_latent(
    kind, noise_policy, perturbation_policy, softmax, target_class, per_item_seeds, m, seed
):
    oracle, graph = batch_setup(kind, noise_policy)
    d = oracle.dim
    rng = np.random.default_rng(seed)
    weights = rng.normal(size=(3, d) if softmax else d)
    head = ClassifierHead(weights, bias=rng.normal(size=3) if softmax else -1.0)
    latents = oracle.sample_latents(m, seed)
    cfg = AttributionConfig(
        n_perturbations=2 * d + 1, perturbation_policy=perturbation_policy, seed=3
    )
    seeds = [int(s) for s in rng.integers(0, 4, m)] if per_item_seeds else None
    # two items per chunk, so an odd m leaves a short last chunk
    with mock.patch.object(attribution, "_CHUNK_ROWS", 2 * cfg.n_perturbations + 1):
        batch = lime_batch(oracle, head, graph, latents, cfg, seeds, target_class)
    for k in range(m):
        solo_cfg = cfg if seeds is None else replace(cfg, seed=seeds[k])
        solo = lime_latent(oracle, head, graph, latents[k], solo_cfg, target_class)
        assert np.array_equal(batch[k].weights, solo.weights)
        assert (batch[k].intercept, batch[k].local_fit_r2) == (solo.intercept, solo.local_fit_r2)
        assert (batch[k].target_class, batch[k].degenerate_fit) == (
            solo.target_class,
            solo.degenerate_fit,
        )


def reference_lime(oracle, head, graph, latent, cfg):
    """The per-explanation loop lime_batch replaced, kept as the reference."""
    d, n = oracle.dim, cfg.n_perturbations
    rng = np.random.default_rng([cfg.seed, 7])
    masks = rng.random((n, d)) < 0.5
    empty = ~masks.any(axis=1)
    if empty.any():
        masks[np.flatnonzero(empty), rng.integers(0, d, size=int(empty.sum()))] = True
    deltas = np.where(masks, rng.normal(0.0, cfg.perturbation_std, (n, d)), 0.0)
    base = np.broadcast_to(latent, (n, d))
    if cfg.perturbation_policy == "interventional":
        realized = oracle.query(base, (masks, base + deltas), seed=[cfg.seed, 8])
        reach = np.eye(d, dtype=bool)
        for c in range(d):
            reach[c, list(graph.descendants(c))] = True
        realized = np.where(masks @ reach > 0, realized, base)
    else:
        realized = np.where(masks, base + deltas, base)
    scores = head.probabilities(realized)[:, int(np.argmax(head.probabilities(latent)))]
    sample_w = np.exp(-((realized - latent) ** 2).sum(axis=1) / (0.75 * np.sqrt(d)) ** 2)
    design = np.column_stack([np.ones(n), deltas])
    penalty = np.diag([0.0] + [1.0] * d)
    wx = design * sample_w[:, None]
    return np.linalg.solve(design.T @ wx + cfg.ridge_lambda * penalty, wx.T @ scores)


@pytest.mark.parametrize("policy", ["interventional", "independent"])
@pytest.mark.parametrize("softmax", [False, True])
def test_lime_batch_matches_reference_loop(policy, softmax):
    oracle, graph = batch_setup("TSWI", "fixed")
    rng = np.random.default_rng(4)
    head = ClassifierHead(rng.normal(size=(3, 4) if softmax else 4), bias=0.5)
    latents = oracle.sample_latents(5, 2)
    seeds = [3, 3, 9, 1, 9]
    cfg = AttributionConfig(n_perturbations=40, perturbation_policy=policy)
    batch = lime_batch(oracle, head, graph, latents, cfg, seeds)
    for k, seed in enumerate(seeds):
        beta = reference_lime(oracle, head, graph, latents[k], replace(cfg, seed=seed))
        # the same arithmetic, apart from BLAS summation order
        np.testing.assert_allclose(batch[k].weights, beta[1:], rtol=1e-9, atol=1e-12)
        assert batch[k].intercept == pytest.approx(beta[0], rel=1e-9, abs=1e-12)


def test_lime_batch_unsolvable_item_raises_like_lime_latent():
    oracle, graph = batch_setup("TSWI", "fixed")
    head = ClassifierHead(np.array([0.0, 0.0, 0.0, 1.0]), bias=-3.0)
    latents = oracle.sample_latents(3, 0)
    latents[1, 2] = np.nan
    # the independent policy makes no oracle query, so the NaN reaches the ridge solve
    cfg = AttributionConfig(n_perturbations=20, seed=1, perturbation_policy="independent")
    with pytest.raises(np.linalg.LinAlgError, match="unsolvable even after lambda floor"):
        lime_batch(oracle, head, graph, latents, cfg)
    with pytest.raises(np.linalg.LinAlgError, match="unsolvable even after lambda floor"):
        lime_latent(oracle, head, graph, latents[1], cfg)


def test_interventional_non_finite_latent_rejected_at_the_oracle():
    oracle, graph = batch_setup("TSWI", "fixed")
    head = ClassifierHead(np.array([0.0, 0.0, 0.0, 1.0]), bias=-3.0)
    latents = oracle.sample_latents(3, 0)
    latents[1, 2] = np.nan
    cfg = AttributionConfig(n_perturbations=20, seed=1)
    with pytest.raises(ValueError, match="base rows must be finite"):
        lime_batch(oracle, head, graph, latents, cfg)
    with pytest.raises(ValueError, match="base rows must be finite"):
        lime_latent(oracle, head, graph, latents[1], cfg)


def test_ridge_bumps_lambda_only_for_failing_items():
    penalty = np.diag([0.0, 1.0, 1.0])
    good = np.diag([2.0, 1.0, 1.0])
    bad = np.diag([1.0, -1e-3, 1.0])  # singular at lambda 1e-3, solvable at 1e-2
    beta, degenerate = attribution._ridge(np.stack([good, bad]), np.ones((2, 3, 1)), 1e-3)
    assert np.array_equal(beta[0], np.linalg.solve(good + 1e-3 * penalty, np.ones(3)))
    assert np.array_equal(beta[1], np.linalg.solve(bad + 1e-2 * penalty, np.ones(3)))
    assert degenerate.tolist() == [False, True]
