import hashlib
from dataclasses import replace
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalprobe import (
    BUILTIN_NAMES,
    AttributionConfig,
    CausalGraph,
    ClassifierHead,
    DiscoveryConfig,
    Oracle,
    OracleConfig,
    ScmModel,
    builtin,
    discover,
    intervention_effect,
    lime_latent,
)
from causalprobe import attribution, cli

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
    exp1 = lime_latent(oracle, ClassifierHead(w), graph, base, cfg)
    exp3 = lime_latent(oracle, ClassifierHead(3.0 * w), graph, base, cfg)
    # p is 1/2 at latent 0, so both explain class 0, whose 1 - p falls along w
    assert exp1.target_class == exp3.target_class == 0
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
    )
    # p is 1/2 at latent 0, so lime explains class 0, whose 1 - p falls along -w
    assert exp.target_class == 0
    cos = float(
        exp.weights @ -w / (np.linalg.norm(exp.weights) * np.linalg.norm(w))
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
    shift, _, _ = intervention_effect(oracle, head, latent, {})
    assert np.array_equal(shift, np.zeros(2))


def test_confidence_delta_sign_tracks_classifier_weight():
    oracle, head, _ = ti_setup(noise=0.0)
    # monotone mechanism: pushing thickness up raises intensity, and the
    # classifier reads intensity positively
    latent = oracle.sample_latents(8, 2)[1]
    delta, _, _ = intervention_effect(oracle, head, latent, {"t": latent[0] + 1.0}, seed=3)
    assert delta[1] > 0
    assert delta[0] == pytest.approx(-delta[1])


def test_confidence_delta_not_antisymmetric_on_saturating_mechanism():
    oracle = Oracle(builtin("TI"), NOISELESS)
    head = ClassifierHead(np.array([0.0, 0.05]), bias=-10.0)
    latent = np.array([4.0, 64 + 191 * 0.95])  # deep in the sigmoid's flat top
    up, _, _ = intervention_effect(oracle, head, latent, {"t": 5.0}, seed=1)
    down, _, _ = intervention_effect(oracle, head, latent, {"t": 3.0}, seed=1)
    assert abs(up[1] + down[1]) > 1e-3  # opposite nudges, non-mirrored response


def test_counterfactual_diff_empty_do():
    oracle, head, _ = ti_setup()
    latent = oracle.sample_latents(1, 4)[0]
    _, intervened, diff = intervention_effect(oracle, head, latent, {}, seed=0)
    assert np.array_equal(diff, np.zeros(2))
    assert intervened.shape == (2,)


def test_counterfactual_diff_support_is_descendant_closed():
    oracle = Oracle(builtin("TSWI"), OracleConfig(roundtrip_noise_std=0.0))
    head = ClassifierHead(np.array([0.0, 0.0, 0.0, 1.0]), bias=-3.0)
    latent = oracle.sample_latents(1, 5)[0]
    lab = {name: k for k, name in enumerate(oracle.labels)}
    _, _, diff = intervention_effect(oracle, head, latent, {"t": latent[lab["t"]] + 1.0}, seed=0)
    assert np.all(diff != 0)  # t moves every downstream feature in this world
    _, _, diff_sink = intervention_effect(oracle, head, latent, {"i": 0.0}, seed=0)
    support = set(np.flatnonzero(diff_sink != 0))
    assert support == {lab["i"]}


@lru_cache(maxsize=None)
def effect_model(kind, d, seed):
    """A builtin world, or a linear SEM on d nodes whose ids are permuted
    away from topological order."""
    if kind != "linear":
        return builtin(kind)
    rng = np.random.default_rng([seed, 14])
    w = np.triu(rng.uniform(-1.0, 1.0, (d, d)), k=1) * (rng.random((d, d)) < 0.5)
    perm = rng.permutation(d)
    return ScmModel.linear(w[np.ix_(perm, perm)])


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from([*BUILTIN_NAMES, "linear"]),
    d=st.integers(2, 9),
    noise_policy=st.sampled_from(["fixed", "resample"]),
    roundtrip=st.sampled_from([0.0, 0.1]),
    node=st.integers(0, 8),
    shift=st.floats(-3.0, 3.0),
    seed=st.integers(0, 2**16),
)
def test_intervention_effect_is_zero_off_the_closure(
    kind, d, noise_policy, roundtrip, node, shift, seed
):
    model = effect_model(kind, d, seed % 8)
    d = model.n_nodes
    node = node % d
    oracle = Oracle(
        model,
        OracleConfig(roundtrip_noise_std=roundtrip, noise_policy=noise_policy,
                     standardize=kind != "linear"),
    )
    head = ClassifierHead(np.random.default_rng(seed).normal(size=(3, d)))
    latent = oracle.sample_latents(1, seed)[0]
    clamped = np.zeros(d, dtype=bool)
    clamped[node] = True
    reached = model.closure(clamped)
    _, _, diff = intervention_effect(oracle, head, latent, {node: latent[node] + shift}, seed)
    assert np.all(diff[~reached] == 0.0)
    assert diff[node] == pytest.approx(shift, abs=1e-12 * max(1.0, abs(latent[node])))
    delta, _, diff = intervention_effect(oracle, head, latent, {}, seed)
    assert np.all(delta == 0.0) and np.all(diff == 0.0)


def test_intervention_effect_pairs_one_entropy_draw_for_seed_none():
    # TSWI: t reaches every feature; i reaches only itself
    oracle = Oracle(builtin("TSWI"), OracleConfig(noise_policy="resample"))
    head = ClassifierHead(np.ones(4))
    latent = oracle.sample_latents(1, 3)[0]
    for do in ({"i": latent[3] + 1.0}, {"s": latent[1] - 0.5}, {}):
        clamped = np.isin(oracle.labels, list(do))
        _, _, diff = intervention_effect(oracle, head, latent, do, seed=None)
        assert np.all(diff[~oracle.model.closure(clamped)] == 0.0)


def test_intervention_effect_seed_must_be_replayable():
    oracle, head, _ = ti_setup()
    latent = oracle.sample_latents(1, 0)[0]
    do = {"t": latent[0] + 1.0}
    with pytest.raises(TypeError):
        intervention_effect(oracle, head, latent, do, seed=np.random.default_rng(0))
    # a SeedSequence is replayable, and gives the bits of the seed it wraps
    for seed in (7, [7, 1]):
        wrapped = intervention_effect(oracle, head, latent, do, np.random.SeedSequence(seed))
        plain = intervention_effect(oracle, head, latent, do, seed)
        assert all(np.array_equal(a, b) for a, b in zip(wrapped, plain))


def test_attribution_config_validation():
    with pytest.raises(ValueError):
        AttributionConfig(perturbation_policy="both")
    with pytest.raises(ValueError):
        AttributionConfig(n_perturbations=1)
    with pytest.raises(ValueError):
        AttributionConfig(kernel_width=0.0)
    assert AttributionConfig(seed=np.int64(3)).seed == 3  # a numpy integer is a seed


@pytest.mark.parametrize(
    "seed, message",
    [
        pytest.param(True, "got True", id="bool-seed"),
        pytest.param(1.5, "got 1.5", id="float-seed"),
        pytest.param(-2, "got -2", id="negative-seed"),
    ],
)
def test_attribution_config_rejects_bad_seeds(seed, message):
    with pytest.raises(ValueError, match=f"seed must be a non-negative integer, {message}"):
        AttributionConfig(seed=seed)


@pytest.mark.parametrize("perturbation_policy", attribution.POLICIES)
def test_lime_fits_numpy_integer_seeds_equal_python_ints(perturbation_policy):
    # _lime_fits takes its seeds as given: numpy integers draw the same bits
    oracle, graph = batch_setup("TSWI", "resample")
    head = ClassifierHead(np.array([0.0, 0.0, 0.0, 1.0]), bias=-3.0)
    latents = oracle.sample_latents(3, 0)
    cfg = AttributionConfig(n_perturbations=20, perturbation_policy=perturbation_policy)
    seeds = [5, 2**40, 5]
    plain = attribution._lime_fits(oracle, head, graph, latents, cfg, seeds)
    wrapped = attribution._lime_fits(oracle, head, graph, latents, cfg, np.array(seeds))
    assert [a.tobytes() for a in wrapped] == [a.tobytes() for a in plain]


def test_lime_explains_the_predicted_class():
    oracle, graph = batch_setup("TSWI", "fixed")
    head = ClassifierHead(np.random.default_rng(3).normal(size=(3, 4)))
    latents = oracle.sample_latents(6, 3)
    predicted = head.probabilities(latents).argmax(axis=1)
    assert predicted[0] == 2 and len(set(predicted)) > 1
    cfg = AttributionConfig(n_perturbations=20, seed=1)
    assert lime_latent(oracle, head, graph, latents[0], cfg).target_class == 2
    classes = attribution._lime_fits(oracle, head, graph, latents, cfg)[2]
    assert np.array_equal(classes, predicted)


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
    per_item_seeds=st.booleans(),
    m=st.integers(1, 7),
    seed=st.integers(0, 2**16),
)
def test_lime_batch_rows_equal_lime_latent(
    kind, noise_policy, perturbation_policy, softmax, per_item_seeds, m, seed
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
        beta, r2, classes = attribution._lime_fits(oracle, head, graph, latents, cfg, seeds)
    for k in range(m):
        solo_cfg = cfg if seeds is None else replace(cfg, seed=seeds[k])
        solo = lime_latent(oracle, head, graph, latents[k], solo_cfg)
        assert np.array_equal(beta[k, 1:], solo.weights)
        assert (beta[k, 0], r2[k]) == (solo.intercept, solo.local_fit_r2)
        assert (classes[k], solo.degenerate_fit) == (solo.target_class, False)


@pytest.mark.parametrize("perturbation_policy", attribution.POLICIES)
@pytest.mark.parametrize("kind", ["TSWI", "linear"])
def test_lime_batch_does_not_depend_on_the_latents_layout(kind, perturbation_policy):
    oracle, graph = batch_setup(kind, "fixed")
    d = oracle.dim
    head = ClassifierHead(np.random.default_rng(5).normal(size=(3, d)))
    latents = oracle.sample_latents(12, 1)
    # n long enough that a reduction over it by another order changes bits
    cfg = AttributionConfig(n_perturbations=100, perturbation_policy=perturbation_policy)
    seeds = [4, 4, 1, 2, 4, 1] * 2

    def explain(rows):
        # six items per chunk: the second chunk reuses the first's draws
        with mock.patch.object(attribution, "_CHUNK_ROWS", 6 * cfg.n_perturbations):
            fits = attribution._lime_fits(oracle, head, graph, rows, cfg, seeds)
        return [a.tobytes() for a in fits]

    plain = explain(latents)
    assert explain(np.asfortranarray(latents)) == plain
    assert explain(np.stack([latents, -latents], axis=-1)[..., 0]) == plain  # strided both ways
    assert explain(np.repeat(latents, 2, axis=0)[::2]) == plain


def reference_lime(oracle, head, graph, latent, cfg):
    """The per-explanation loop _lime_fits replaced, kept as the reference."""
    d, n = oracle.dim, cfg.n_perturbations
    rng = np.random.default_rng([cfg.seed, 7])
    masks = rng.random((n, d)) < 0.5
    empty = ~masks.any(axis=1)
    if empty.any():
        masks[np.flatnonzero(empty), rng.integers(0, d, size=int(empty.sum()))] = True
    deltas = np.where(masks, rng.normal(0.0, cfg.perturbation_std, (n, d)), 0.0)
    base = np.broadcast_to(latent, (n, d))
    if cfg.perturbation_policy == "interventional":
        # the fixed-policy counterfactual without the round-trip draw, which
        # lime never takes: the charted model's own abduction, every equation
        # propagated under each row's clamps
        charted = oracle._charted
        realized = charted.propagate(charted.abduce(base).noise, masks, base + deltas)
        # its own closure, not graph.reach(): follow edges until nothing grows
        reach = np.eye(d, dtype=bool)
        grown = True
        while grown:
            wider = reach.copy()
            for i, j in graph.edges:
                wider[:, j] |= wider[:, i]
            grown, reach = (wider != reach).any(), wider
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
    batch = attribution._lime_fits(oracle, head, graph, latents, cfg, seeds)[0]
    for k, seed in enumerate(seeds):
        beta = reference_lime(oracle, head, graph, latents[k], replace(cfg, seed=seed))
        # the same arithmetic, apart from BLAS summation order
        np.testing.assert_allclose(batch[k, 1:], beta[1:], rtol=1e-9, atol=1e-12)
        assert batch[k, 0] == pytest.approx(beta[0], rel=1e-9, abs=1e-12)


@settings(max_examples=12, deadline=None)
@given(
    kind=st.sampled_from(["TSWI", "linear"]),
    noise_policy=st.sampled_from(["fixed", "resample"]),
    perturbation_policy=st.sampled_from(["interventional", "independent"]),
    m=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
def test_lime_is_bit_identical_across_roundtrip_noise(
    kind, noise_policy, perturbation_policy, m, seed
):
    oracle, graph = batch_setup(kind, noise_policy)
    head = ClassifierHead(np.random.default_rng(seed).normal(size=oracle.dim), bias=-1.0)
    latents = oracle.sample_latents(m, seed)
    cfg = AttributionConfig(
        n_perturbations=2 * oracle.dim + 1, perturbation_policy=perturbation_policy, seed=seed
    )
    fits = [
        [a.tobytes() for a in attribution._lime_fits(
            Oracle(oracle.model, replace(oracle.config, roundtrip_noise_std=std)),
            head, graph, latents, cfg,
        )]
        for std in (0.0, 0.1, 1.0)
    ]
    assert fits[0] == fits[1] == fits[2]


@pytest.mark.parametrize(
    "case, message",
    [
        pytest.param("flat-latents", r"latents shape \(4,\) != \(m, 4\)", id="flat-latents"),
        pytest.param("small-graph", "graph node count disagrees with oracle dimension",
                     id="small-graph"),
        pytest.param("seed-count", "3 seeds for 2 latents", id="seed-count"),
        pytest.param("head-dimension", r"head dimension 3 != oracle dimension 4",
                     id="head-dimension"),
    ],
)
def test_lime_fits_rejects_bad_shapes_before_any_query(case, message):
    oracle, graph = batch_setup("TSWI", "fixed")
    head = ClassifierHead(np.array([0.0, 0.0, 0.0, 1.0]), bias=-3.0)
    latents, seeds = oracle.sample_latents(2, 0), None
    if case == "flat-latents":
        latents = latents[0]
    elif case == "small-graph":
        graph = CausalGraph(list(oracle.labels)[:3])
    elif case == "head-dimension":
        head = ClassifierHead(np.array([0.0, 0.0, 1.0]))
    else:
        seeds = [1, 2, 3]
    cfg = AttributionConfig(n_perturbations=20)
    with mock.patch.object(Oracle, "_realise", side_effect=AssertionError("queried")):
        with pytest.raises(ValueError, match=message):
            attribution._lime_fits(oracle, head, graph, latents, cfg, seeds)


def test_lime_batch_unsolvable_item_raises_like_lime_latent():
    oracle, graph = batch_setup("TSWI", "fixed")
    head = ClassifierHead(np.array([0.0, 0.0, 0.0, 1.0]), bias=-3.0)
    latents = oracle.sample_latents(3, 0)
    latents[1, 2] = np.nan
    # the independent policy makes no oracle query, so the NaN reaches the ridge solve
    cfg = AttributionConfig(n_perturbations=20, seed=1, perturbation_policy="independent")
    with pytest.raises(np.linalg.LinAlgError, match="unsolvable even after lambda floor"):
        attribution._lime_fits(oracle, head, graph, latents, cfg)
    with pytest.raises(np.linalg.LinAlgError, match="unsolvable even after lambda floor"):
        lime_latent(oracle, head, graph, latents[1], cfg)


def test_interventional_non_finite_latent_rejected_at_the_oracle():
    oracle, graph = batch_setup("TSWI", "fixed")
    head = ClassifierHead(np.array([0.0, 0.0, 0.0, 1.0]), bias=-3.0)
    latents = oracle.sample_latents(3, 0)
    latents[1, 2] = np.nan
    cfg = AttributionConfig(n_perturbations=20, seed=1)
    # checked once per call, with the abduction, before any chunk realises
    with mock.patch.object(Oracle, "_realise", side_effect=AssertionError("queried")):
        with pytest.raises(ValueError, match="base rows must be finite"):
            attribution._lime_fits(oracle, head, graph, latents, cfg)
        with pytest.raises(ValueError, match="base rows must be finite"):
            lime_latent(oracle, head, graph, latents[1], cfg)


def test_lime_fits_abduce_once_per_call(monkeypatch):
    # the latents are abduced once per call, each as its own 1-row block,
    # not once per chunk
    oracle, graph = batch_setup("TSWI", "resample")
    head = ClassifierHead(np.array([0.0, 0.0, 0.0, 1.0]), bias=-3.0)
    latents = oracle.sample_latents(7, 0)
    cfg = AttributionConfig(n_perturbations=20, seed=1)
    monkeypatch.setattr(attribution, "_CHUNK_ROWS", 2 * cfg.n_perturbations)  # 4 chunks
    seeds = [1, 2, 1, 3, 3, 0, 2]
    fits = attribution._lime_fits(oracle, head, graph, latents, cfg, seeds)
    shapes = []
    abduce = ScmModel.abduce

    def counted(self, values):
        shapes.append(np.shape(values))
        return abduce(self, values)

    monkeypatch.setattr(ScmModel, "abduce", counted)
    again = attribution._lime_fits(oracle, head, graph, latents, cfg, seeds)
    assert [a.tobytes() for a in again] == [a.tobytes() for a in fits]
    assert shapes == [(7, 1, 4)]


@pytest.mark.parametrize("softmax", [False, True])
@pytest.mark.parametrize("perturbation_policy", attribution.POLICIES)
def test_lime_fits_without_r2_keep_every_solution_bit(perturbation_policy, softmax):
    oracle, graph = batch_setup("TSWI", "resample")
    rng = np.random.default_rng(6)
    head = ClassifierHead(rng.normal(size=(3, 4) if softmax else 4), bias=0.5)
    latents = oracle.sample_latents(9, 3)
    cfg = AttributionConfig(n_perturbations=30, perturbation_policy=perturbation_policy)
    seeds = [int(s) for s in rng.integers(0, 5, 9)]
    with mock.patch.object(attribution, "_CHUNK_ROWS", 4 * cfg.n_perturbations):
        beta, r2, classes = attribution._lime_fits(oracle, head, graph, latents, cfg, seeds)
        bare = attribution._lime_fits(oracle, head, graph, latents, cfg, seeds, with_r2=False)
    assert r2.shape == (9,) and bare[1] is None
    assert bare[0].tobytes() == beta.tobytes()
    assert bare[2].tobytes() == classes.tobytes()


@pytest.mark.parametrize("perturbation_policy", attribution.POLICIES)
@pytest.mark.parametrize("kind", ["TSWI", "linear"])
def test_lime_fits_of_a_negative_zero_equal_its_positive_twin(kind, perturbation_policy):
    # the perturbed rows hold latent + 0.0 off the mask, which turns a -0.0
    # into +0.0: neither the head's score nor the kernel weights see the sign
    oracle, graph = batch_setup(kind, "fixed")
    d = oracle.dim
    head = ClassifierHead(np.linspace(-1.0, 1.0, d), bias=0.0)
    latents = oracle.sample_latents(d, 5)
    latents[np.arange(d), np.arange(d)] = 0.0  # latent k is zero at feature k
    cfg = AttributionConfig(n_perturbations=30, perturbation_policy=perturbation_policy)
    fits = attribution._lime_fits(oracle, head, graph, latents, cfg)
    latents[np.arange(d), np.arange(d)] = -0.0
    twins = attribution._lime_fits(oracle, head, graph, latents, cfg)
    assert [a.tobytes() for a in twins] == [a.tobytes() for a in fits]


def test_lime_rows_keep_the_latent_outside_each_rows_own_closure():
    # 0 -> 1 with weight 1 and a latent whose x1 is tiny against x0: x1's
    # abduced noise rounds to -x0, so x1 propagated again reads 0.0. A row
    # whose clamped columns do not reach x1 must still score the latent's x1
    w = np.zeros((3, 3))
    w[0, 1] = 1.0
    oracle = Oracle(ScmModel.linear(w), NOISELESS)
    graph = oracle.model.ground_truth_graph()
    head = ClassifierHead(np.array([0.0, 1.0, 1.0]))
    latent = np.array([1.0, 1e-17, 0.5])
    cfg = AttributionConfig(n_perturbations=30, seed=4)
    scored = []
    score = head._class_probabilities

    def record(rows, classes):
        scored.append(rows.copy())
        return score(rows, classes)

    with mock.patch.object(head, "_class_probabilities", side_effect=record):
        attribution._lime_fits(oracle, head, graph, latent[None], cfg)
    masks, _ = attribution._perturbations(cfg.seed, cfg.n_perturbations, 3, 1.0)
    still = masks @ graph.reach() == 0
    assert still[:, 1].any() and masks[:, 0].any()  # the case above occurs
    assert np.array_equal(scored[0][0][still], np.broadcast_to(latent, still.shape)[still])


def test_zero_ridge_lambda_fits_at_the_floor():
    oracle, graph = batch_setup("TSWI", "fixed")
    head = ClassifierHead(np.array([0.0, 0.0, 0.0, 1.0]), bias=-3.0)
    latents = oracle.sample_latents(4, 0)
    cfg = AttributionConfig(n_perturbations=40, seed=1)
    zero_cfg = replace(cfg, ridge_lambda=0.0)
    floor = attribution._lime_fits(oracle, head, graph, latents, cfg)
    zero = attribution._lime_fits(oracle, head, graph, latents, zero_cfg)
    for a, b in zip(zero, floor):
        assert a.tobytes() == b.tobytes()
    # the flag lives on lime_latent's record only
    a, b = (lime_latent(oracle, head, graph, latents[0], c) for c in (zero_cfg, cfg))
    assert a.degenerate_fit and not b.degenerate_fit
    assert np.array_equal(a.weights, b.weights)
    assert (a.intercept, a.local_fit_r2) == (b.intercept, b.local_fit_r2)


@pytest.mark.parametrize("policy", attribution.POLICIES)
def test_underflowed_kernel_weights_raise_unsolvable(policy):
    # every kernel weight is 0, so the unpenalized intercept is unconstrained
    oracle, graph = batch_setup("TSWI", "fixed")
    head = ClassifierHead(np.array([0.0, 0.0, 0.0, 1.0]), bias=-3.0)
    latents = oracle.sample_latents(3, 0)
    cfg = AttributionConfig(
        n_perturbations=20, kernel_width=1e-100, perturbation_policy=policy, seed=1
    )
    with pytest.raises(np.linalg.LinAlgError, match="unsolvable even after lambda floor"):
        attribution._lime_fits(oracle, head, graph, latents, cfg)
    with pytest.raises(np.linalg.LinAlgError, match="unsolvable even after lambda floor"):
        lime_latent(oracle, head, graph, latents[1], cfg)


def criterion_7_fit_inputs(model, policy, noise_policy="fixed"):
    """The oracle, head, graph, latents and attribution config that the
    criterion-7 evaluate_explainer fits its faithfulness explanations with
    (criterion 7 runs the fixed noise policy)."""
    weights, n_explanations = {
        "TI": ([0.0, 1.0], 4200),
        "TSWI": ([0.0, 0.0, 0.0, 1.0], 1500),
    }[model]
    cfg = {
        "oracle": {"kind": "scm", "model": model},
        "oracle_config": {"noise_policy": noise_policy},
        "classifier": {"weights": weights, "bias": -3.0},
        "discovery": {"n_samples": 256},
        "attribution": {"n_perturbations": 300, "perturbation_policy": policy},
    }
    oracle = cli.build_oracle(cfg, 0)
    head = cli.build_head(cfg, oracle.dim)
    graph = discover(oracle, cli._build_section(cfg, "discovery", seed=cli._derive_seed(0, 13)))
    acfg = cli._build_section(cfg, "attribution", seed=cli._derive_seed(0, 14))
    return oracle, head, graph, oracle.sample_latents(n_explanations, [0, 16]), acfg


@pytest.mark.parametrize(
    "model, policy, expected",
    [
        pytest.param("TI", "interventional",
                     "7934030b62b74e9e2ec6706b93489525f27f68c49cecc330e2bd3a3506103a52",
                     id="TI-interventional"),
        pytest.param("TI", "independent",
                     "5c3f4c3c40253af31b52aa3e90b39ea07a3228f2fd32308d5078d6061946e4fe",
                     id="TI-independent"),
        pytest.param("TSWI", "interventional",
                     "01062eff6b095f68783142865f5047583e0c37f0384437e5276ae65650ea3d80",
                     id="TSWI-interventional"),
        pytest.param("TSWI", "independent",
                     "668495451cb59eeb32e8298943502a6d861b3ea948390d694c7fbcabde8012d8",
                     id="TSWI-independent"),
    ],
)
def test_lime_batch_records_are_pinned(model, policy, expected):
    """_lime_fits' stacked fits at the criterion-7 settings, to the last bit:
    one sha256 over every row's weights, intercept, local_fit_r2 and target
    class, in the order the per-fit records were hashed in."""
    oracle, head, graph, latents, cfg = criterion_7_fit_inputs(model, policy)
    beta, r2, classes = attribution._lime_fits(oracle, head, graph, latents, cfg)
    assert fits_digest(beta, r2, classes) == expected
    empty = attribution._lime_fits(oracle, head, graph, latents[:0], cfg)
    assert [a.shape for a in empty] == [(0, oracle.dim + 1), (0,), (0,)]


def fits_digest(beta, r2, classes):
    digest = hashlib.sha256()
    for k in range(len(beta)):
        digest.update(beta[k, 1:].tobytes())
        digest.update(np.array([beta[k, 0], r2[k]]).tobytes())
        digest.update(np.int64(classes[k]).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "model, expected",
    [
        pytest.param("TI", "75de75649bcc555d5616fd266ecc38ef71c6a96086a7c837e140c75f5b927629",
                     id="TI-interventional-resample"),
        pytest.param("TSWI", "d994d6a4bbf6f823a746be1ce78e203ceecc1d7d85b6e0541a599229d0d44872",
                     id="TSWI-interventional-resample"),
    ],
)
def test_lime_fits_under_resample_are_pinned(model, expected):
    """The fits under "resample", which draws each chunk's fresh exogenous
    noise from its items' seeds, to the last bit: the first 100 criterion-7
    latents under evaluate's per-item seeds, over four chunks."""
    oracle, head, graph, latents, cfg = criterion_7_fit_inputs(model, "interventional", "resample")
    latents = latents[:100]
    seeds = [cli._derive_seed(0, 15, k) for k in range(len(latents))]
    assert len(latents) > 3 * (attribution._CHUNK_ROWS // cfg.n_perturbations)
    beta, r2, classes = attribution._lime_fits(oracle, head, graph, latents, cfg, seeds)
    assert fits_digest(beta, r2, classes) == expected
