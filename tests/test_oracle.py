import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalprobe import ClassifierHead, NoiseSpec, Oracle, OracleConfig, ScmModel, builtin
from causalprobe.cli import build_oracle

NOISELESS = OracleConfig(roundtrip_noise_std=0.0, standardize=False)


def chain_weights(a=0.5, b=0.8, d=3):
    w = np.zeros((d, d))
    w[0, 1] = a
    w[1, 2] = b
    return w


def test_noiseless_identity_round_trip():
    oracle = Oracle(builtin("TSWI"), NOISELESS)
    base = oracle.sample_latents(8, 3)
    assert np.array_equal(oracle.query(base, None, seed=0), base)
    # the standardized chart is also self-consistent
    std_oracle = Oracle(builtin("TSWI"), OracleConfig(roundtrip_noise_std=0.0))
    zbase = std_oracle.sample_latents(8, 3)
    assert np.allclose(std_oracle.query(zbase, None, seed=0), zbase)


def test_scm_oracle_matches_model_counterfactual():
    model = builtin("TSWI")
    oracle = Oracle(model, NOISELESS)
    base = model.sample(16, 5)
    out = oracle.query(base.values, {"t": base.values[:, 0] + 1.0}, seed=0)
    expected = model.counterfactual(base, {"t": base.values[:, 0] + 1.0})
    assert np.allclose(out, expected, atol=1e-12)


def test_standardized_chart_is_affine_conjugation():
    model = builtin("TSWI")
    oracle = Oracle(model, OracleConfig(roundtrip_noise_std=0.0, standardize=True))
    base_raw = model.sample(16, 5)
    chart = oracle.to_chart(base_raw.values)
    do_chart = {"t": chart[:, 0] + 1.0}
    out_chart = oracle.query(chart, do_chart, seed=0)
    do_raw = {"t": oracle.to_raw(chart + 1.0)[:, 0]}
    expected = model.counterfactual(base_raw, do_raw)
    assert np.allclose(oracle.to_raw(out_chart), expected, atol=1e-9)


def test_ti_intervention_moves_only_intensity():
    oracle = Oracle(builtin("TI"), NOISELESS)
    base = oracle.sample_latents(8, 1)
    out = oracle.query(base, {"t": base[:, 0] + 1.0}, seed=0)
    from scipy.special import expit

    t = base[:, 0]
    assert np.allclose(out[:, 1] - base[:, 1], 191 * (expit(2 * t - 3) - expit(2 * t - 5)))
    assert np.allclose(out[:, 0], t + 1.0)


def test_roundtrip_noise_variance():
    oracle = Oracle(builtin("TI"), OracleConfig(roundtrip_noise_std=0.1, standardize=False))
    base = np.tile(oracle.sample_latents(1, 2), (10_000, 1))
    out = oracle.query(base, None, seed=42)
    var = (out - base).var(axis=0)
    assert np.all(np.abs(var - 0.01) < 0.001)  # within 10% of 0.01


def test_query_purity():
    oracle = Oracle(builtin("TI"), OracleConfig(roundtrip_noise_std=0.1))
    base = oracle.sample_latents(4, 9)
    a = oracle.query(base, {"t": 1.0}, seed=77)
    b = oracle.query(base, {"t": 1.0}, seed=77)
    assert np.array_equal(a, b)
    c = oracle.query(base, {"t": 1.0}, seed=78)
    assert not np.array_equal(a, c)


def test_do_out_of_range_rejected():
    oracle = Oracle(builtin("TI"), NOISELESS)
    base = oracle.sample_latents(2, 0)
    with pytest.raises(ValueError, match="out of range"):
        oracle.query(base, {5: 1.0}, seed=0)
    with pytest.raises(ValueError, match="known features"):
        oracle.query(base, {"nope": 1.0}, seed=0)


def test_resample_policy_redraws_noise():
    cfg = OracleConfig(roundtrip_noise_std=0.0, noise_policy="resample", standardize=False)
    oracle = Oracle(builtin("TI"), cfg)
    base = oracle.sample_latents(32, 4)
    out = oracle.query(base, None, seed=5)
    # fresh exogenous noise: re-encoded rows differ from the base draw
    assert not np.allclose(out, base)
    again = oracle.query(base, None, seed=5)
    assert np.array_equal(out, again)


def test_linear_oracle_single_edge():
    w = np.zeros((2, 2))
    w[0, 1] = 2.0
    oracle = Oracle(ScmModel.linear(w, noise_std=0.0), NOISELESS)
    base = oracle.sample_latents(4, 0)
    out = oracle.query(base, {0: base[:, 0] + 1.0}, seed=0)
    assert np.allclose(out[:, 1] - base[:, 1], 2.0)


def test_linear_oracle_zero_matrix_disentangled():
    oracle = Oracle(ScmModel.linear(np.zeros((3, 3))), NOISELESS)
    base = oracle.sample_latents(16, 8)
    out = oracle.query(base, {1: base[:, 1] + 1.0}, seed=0)
    assert np.allclose(out[:, [0, 2]], base[:, [0, 2]])


def test_linear_oracle_chain_path_product():
    oracle = Oracle(ScmModel.linear(chain_weights(0.5, 0.8)), NOISELESS)
    base = oracle.sample_latents(16, 2)
    out = oracle.query(base, {0: base[:, 0] + 1.0}, seed=0)
    assert np.allclose(out[:, 2] - base[:, 2], 0.5 * 0.8)


def test_linear_oracle_cyclic_rejected():
    w = np.zeros((2, 2))
    w[0, 1] = 1.0
    w[1, 0] = 1.0
    with pytest.raises(ValueError, match="cycle"):
        ScmModel.linear(w)
    with pytest.raises(ValueError, match="self-weights"):
        ScmModel.linear(np.eye(2))
    with pytest.raises(ValueError, match="square"):
        ScmModel.linear(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="labels"):
        ScmModel.linear(np.zeros((2, 2)), labels=("a",))


def test_linear_oracle_json_round_trip(tmp_path):
    doc = {
        "dim": 3,
        "edges": [{"from": 0, "to": 1, "weight": 0.5}, {"from": 1, "to": 2, "weight": 0.8}],
        "noise_std": 0.7,
    }
    path = tmp_path / "sem.json"
    path.write_text(json.dumps(doc))
    for spec in (dict(doc, kind="linear"), {"kind": "linear", "file": str(path)}):
        oracle = build_oracle({"oracle": spec}, seed=0)
        eq = oracle.model.equations[1]
        assert eq.noise == NoiseSpec("normal", (0.7,))
        assert (eq.parents, eq.linear) == ((0,), (0.5,))
        assert oracle.ground_truth_graph().edge_set() == {(0, 1), (1, 2)}
        assert not oracle.config.standardize  # the linear default: the raw chart
    cfg = {"oracle": dict(doc, kind="linear"), "oracle_config": {"standardize": True}}
    assert build_oracle(cfg, seed=0).config.standardize  # an explicit value holds


def test_classifier_zero_weights_symmetric():
    head = ClassifierHead(np.zeros(3))
    probs = head.probabilities(np.array([1.0, -2.0, 3.0]))
    assert np.allclose(probs, [0.5, 0.5])


def test_classifier_logistic_value():
    head = ClassifierHead(np.array([1.0, 0.0]))
    probs = head.probabilities(np.array([np.log(3.0), 5.0]))
    assert probs[1] == pytest.approx(0.75)


def test_classifier_saturation():
    head = ClassifierHead(np.array([1.0, 0.0, 0.0]))
    probs = head.probabilities(np.array([1e6, 0.0, 0.0]))
    assert probs[1] == pytest.approx(1.0)


def test_classifier_softmax_head():
    w = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    head = ClassifierHead(w, bias=[0.0, 0.0, 0.0])
    probs = head.probabilities(np.array([0.2, -0.4]))
    assert head.n_classes == 3
    assert abs(probs.sum() - 1.0) < 1e-9
    batch = head.probabilities(np.random.default_rng(0).normal(size=(10, 2)))
    assert np.all(np.abs(batch.sum(axis=1) - 1.0) < 1e-9)


def test_classifier_dimension_mismatch():
    head = ClassifierHead(np.zeros(3))
    with pytest.raises(ValueError, match="dimension"):
        head.probabilities(np.zeros(4))


def random_dag_weights(d, rng):
    w = np.triu(rng.uniform(-1.0, 1.0, (d, d)), k=1) * (rng.random((d, d)) < 0.5)
    perm = rng.permutation(d)  # node ids away from topological order
    return w[np.ix_(perm, perm)]


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["TI", "TSWI", "linear3", "linear9"]),
    policy=st.sampled_from(["fixed", "resample"]),
    noise=st.sampled_from([0.0, 0.1]),
    m=st.integers(1, 4),
    n=st.integers(1, 20),
    shared_seed=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_query_stacked_blocks_equal_solo_queries(kind, policy, noise, m, n, shared_seed, seed):
    rng = np.random.default_rng(seed)
    linear = kind.startswith("linear")
    config = OracleConfig(roundtrip_noise_std=noise, noise_policy=policy, standardize=not linear)
    if linear:
        # d = 9 reaches the BLAS kernels that round a row by its position
        oracle = Oracle(ScmModel.linear(random_dag_weights(int(kind[6:]), rng)), config)
    else:
        oracle = Oracle(builtin(kind), config)
    base = oracle.sample_latents(m * n, seed).reshape(m, n, oracle.dim)
    mask = rng.random(base.shape) < 0.4
    mask[rng.random(m) < 0.3] = False  # blocks without an intervention
    values = base + rng.normal(size=base.shape)
    # repeated seeds share draws
    seeds = [[int(s), 8] for s in rng.integers(0, 1 if shared_seed else 3, m)]
    stacked = oracle.query_stacked(base, (mask, values), seeds)
    plain = oracle.query_stacked(base, None, seeds)
    for k in range(m):
        assert np.array_equal(stacked[k], oracle.query(base[k], (mask[k], values[k]), seeds[k]))
        assert np.array_equal(plain[k], oracle.query(base[k], None, seeds[k]))


def test_query_stacked_rejects_bad_shapes():
    oracle = Oracle(builtin("TI"), NOISELESS)
    with pytest.raises(ValueError, match="shape"):
        oracle.query_stacked(np.zeros((4, 2)), None, [0] * 4)
    with pytest.raises(ValueError, match="seeds"):
        oracle.query_stacked(np.zeros((3, 4, 2)), None, [0, 1])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_query_rejects_non_finite_inputs(bad):
    oracle = Oracle(builtin("TSWI"), OracleConfig())
    base = oracle.sample_latents(4, 0)
    nan_latent = base.copy()
    nan_latent[1, 3] = bad  # feature i of one row; the other rows stay finite
    with pytest.raises(ValueError, match="base rows must be finite"):
        oracle.query(nan_latent, {"t": 1.0}, seed=0)
    with pytest.raises(ValueError, match="base rows must be finite"):
        oracle.query(nan_latent, None, seed=0)
    with pytest.raises(ValueError, match="do values must be finite"):
        oracle.query(base, {"t": bad}, seed=0)
    # a non-finite value under a cleared mask entry is never used
    mask = np.zeros(base.shape, dtype=bool)
    mask[:, 0] = True
    values = base.copy()
    values[:, 1] = bad
    assert np.array_equal(
        oracle.query(base, (mask, values), seed=0), oracle.query(base, {"t": base[:, 0]}, seed=0)
    )


@settings(max_examples=15, deadline=None)
@given(
    kind=st.sampled_from(["TSWI", "linear5"]),
    policy=st.sampled_from(["fixed", "resample"]),
    n=st.integers(1, 12),
    intervene=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_query_purity_across_fresh_oracles(kind, policy, n, intervene, seed):
    rng = np.random.default_rng(seed)
    linear = kind.startswith("linear")
    model = ScmModel.linear(random_dag_weights(5, rng)) if linear else builtin(kind)
    config = OracleConfig(noise_policy=policy, standardize=not linear, seed=seed)
    first, second = Oracle(model, config), Oracle(model, config)
    base = first.sample_latents(n, [seed, 1])
    do = (rng.random(base.shape) < 0.3, rng.normal(size=base.shape)) if intervene else None
    query_seed = [seed, 2]
    out = first.query(base, do, seed=query_seed)
    again = second.query(base, do, seed=query_seed)
    assert np.array_equal(out.view(np.uint64), again.view(np.uint64))
