import json
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from causalprobe import (
    BUILTIN_NAMES,
    ClassifierHead,
    NoiseSpec,
    Oracle,
    OracleConfig,
    ScmModel,
    builtin,
)
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


def clamp_t(values, t):
    """(mask, values) arrays that clamp column 0 (t) of rows like values to t."""
    mask, clamped = np.zeros(values.shape, dtype=bool), np.zeros(values.shape)
    mask[:, 0], clamped[:, 0] = True, t
    return mask, clamped


def test_scm_oracle_matches_model_counterfactual():
    # the oracle abducts the base rows' noise; the model propagates the
    # noise stored with the draw
    model = builtin("TSWI")
    oracle = Oracle(model, NOISELESS)
    base = model.sample(16, 5)
    out = oracle.query(base.values, {"t": base.values[:, 0] + 1.0}, seed=0)
    expected = model.propagate(base.noise, *clamp_t(base.values, base.values[:, 0] + 1.0))
    assert np.allclose(out, expected, atol=1e-12)


def to_raw(oracle, chart):
    """Chart rows back in raw units."""
    return chart * oracle.chart_scale + oracle.chart_mean if oracle.config.standardize else chart


def test_standardized_chart_is_affine_conjugation():
    model = builtin("TSWI")
    oracle = Oracle(model, OracleConfig(roundtrip_noise_std=0.0, standardize=True))
    base_raw = model.sample(16, 5)
    chart = oracle.to_chart(base_raw.values)
    do_chart = {"t": chart[:, 0] + 1.0}
    out_chart = oracle.query(chart, do_chart, seed=0)
    do_raw = clamp_t(base_raw.values, to_raw(oracle, chart + 1.0)[:, 0])
    expected = model.propagate(base_raw.noise, *do_raw)
    assert np.allclose(to_raw(oracle, out_chart), expected, atol=1e-9)


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
    model = builtin("TSWI")
    cfg = OracleConfig(roundtrip_noise_std=0.0, noise_policy="resample", standardize=False)
    oracle, fixed = Oracle(model, cfg), Oracle(model, NOISELESS)
    base = oracle.sample_latents(32, 4)
    # an empty intervention has an empty closure: the base comes back
    for do in (None, {}):
        assert np.array_equal(oracle.query(base, do, seed=5), base)
    empty = np.zeros((1,) + base.shape, dtype=bool)  # an all-False per-row mask
    assert np.array_equal(realise(oracle, base[None], empty, base[None] + 1.0, [(5, 8)])[0], base)
    # round-trip noise is drawn after the (unused) exogenous draw
    noisy = Oracle(model, replace(cfg, roundtrip_noise_std=0.1))
    rng = np.random.default_rng(5)
    model.draw_noise(32, rng)
    assert np.array_equal(noisy.query(base, None, seed=5), base + rng.normal(0.0, 0.1, base.shape))
    # clamping s redraws its descendants w and i; t keeps its base value
    do = {"s": base[:, 1] + 1.0}
    out, ref = oracle.query(base, do, seed=5), fixed.query(base, do, seed=5)
    assert np.array_equal(out, oracle.query(base, do, seed=5))
    assert np.array_equal(out[:, 0], base[:, 0])
    assert np.array_equal(out[:, 1], ref[:, 1]) and np.array_equal(out[:, 1], base[:, 1] + 1.0)
    assert np.all(out[:, 2:] != ref[:, 2:])


@pytest.mark.parametrize("policy", ["fixed", "resample"])
def test_empty_interventions_query_like_none(policy):
    # an all-False mask, in any form, has an empty closure: the query's
    # draws and bits are those of do=None, and a per-row block's bits are
    # those of do=None less the round-trip draw
    oracle = Oracle(builtin("TSWI"), OracleConfig(noise_policy=policy))
    quiet = Oracle(oracle.model, replace(oracle.config, roundtrip_noise_std=0.0))
    base = oracle.sample_latents(16, 2)
    plain = oracle.query(base, None, seed=4).tobytes()
    assert oracle.query(base, {}, seed=4).tobytes() == plain
    empty = np.zeros((1,) + base.shape, dtype=bool)
    block = realise(oracle, base[None], empty, base[None] + 1.0, [(4, 8)])[0]
    assert block.tobytes() == quiet.query(base, None, seed=4).tobytes()


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
        assert oracle.model.ground_truth_graph().edge_set() == {(0, 1), (1, 2)}
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


@pytest.mark.parametrize(
    "weights, bias, message",
    [
        pytest.param(np.zeros((1, 2)), 0.0, "softmax head needs at least 2 classes",
                     id="one-row-matrix"),
        pytest.param(np.zeros((2, 2, 2)), 0.0, "weights must be a vector or a matrix",
                     id="three-axes"),
        pytest.param(np.zeros(2), [1.0, 2.0], r"bias shape \(2,\) is not one of \[\(\)\]",
                     id="list-bias-on-vector"),
        pytest.param(np.zeros(2), [1.0], r"bias shape \(1,\) is not one of \[\(\)\]",
                     id="one-entry-bias-on-vector"),
        pytest.param(np.zeros((3, 2)), [1.0, 2.0],
                     r"bias shape \(2,\) is not one of \[\(\), \(3,\)\]",
                     id="short-bias-on-matrix"),
        pytest.param(np.zeros((3, 2)), np.zeros((3, 1)),
                     r"bias shape \(3, 1\) is not one of \[\(\), \(3,\)\]",
                     id="column-bias-on-matrix"),
    ],
)
def test_classifier_rejects_malformed_heads(weights, bias, message):
    with pytest.raises(ValueError, match=message):
        ClassifierHead(weights, bias)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_classifier_rejects_non_finite_weights_and_bias(bad):
    # a NaN weight would reach lime's ridge solve as an unsolvable system,
    # and an infinite bias would saturate every probability silently
    for weights, bias in [(np.zeros(2), 0.0), (np.zeros((3, 2)), np.zeros(3))]:
        w = weights.copy()
        w.flat[1] = bad
        with pytest.raises(ValueError, match="weights must be finite"):
            ClassifierHead(w, bias)
        b = np.array(bias, dtype=float)
        b.flat[0] = bad
        with pytest.raises(ValueError, match="bias must be finite"):
            ClassifierHead(weights, b if b.ndim else float(b))


@pytest.mark.parametrize("softmax", [False, True])
def test_class_probabilities_gather_the_probabilities_bit_for_bit(softmax):
    rng = np.random.default_rng(3)
    weights = rng.normal(size=(3, 2) if softmax else 2)
    head = ClassifierHead(weights, bias=rng.normal(size=3) if softmax else -1.0)
    # wide enough that the head saturates on some rows
    blocks = rng.normal(scale=40.0, size=(6, 50, 2))
    classes = np.array([0, 1, 2, 1, 0, 2] if softmax else [0, 1, 1, 0, 0, 1])
    probs = head.probabilities(blocks)
    expected = np.stack([probs[k, :, classes[k]] for k in range(len(blocks))])
    assert same_bits(head._class_probabilities(blocks, classes), expected)


def realise(oracle, base, mask, values, seeds):
    """_realise of an (m, 1 or n, d) base stack with values clamped under
    the (m, n, d) mask."""
    return oracle._realise(oracle._factual(base).noise, mask, np.where(mask, values, base), seeds)


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
    whole_columns=st.booleans(),
    seed=st.integers(0, 2**16),
)
# a block's closure column whose parent another block evaluates
@example(
    kind="linear9", policy="fixed", noise=0.0, m=3, n=4, shared_seed=False, whole_columns=True,
    seed=228,
)
def test_realise_blocks_equal_solo_queries(
    kind, policy, noise, m, n, shared_seed, whole_columns, seed
):
    rng = np.random.default_rng(seed)
    linear = kind.startswith("linear")
    config = OracleConfig(roundtrip_noise_std=noise, noise_policy=policy, standardize=not linear)
    # d = 9 reaches the BLAS kernels that round a row by its position
    model = ScmModel.linear(random_dag_weights(int(kind[6:]), rng)) if linear else builtin(kind)
    oracle = Oracle(model, config)
    quiet = Oracle(model, replace(config, roundtrip_noise_std=0.0))
    base = oracle.sample_latents(m * n, seed).reshape(m, n, oracle.dim)
    if whole_columns:  # each block clamps its own columns on every row: closures differ
        mask = np.repeat(rng.random((m, 1, oracle.dim)) < 0.4, n, axis=1)
    else:
        mask = rng.random(base.shape) < 0.4
    mask[rng.random(m) < 0.3] = False  # blocks without an intervention
    values = base + rng.normal(size=base.shape)
    # repeated seeds share draws
    seeds = [(int(s), 8) for s in rng.integers(0, 1 if shared_seed else 3, m)]
    factual = oracle._factual(base)
    factual.noise.flags.writeable = False  # read, never written
    rows, plain_rows = np.where(mask, values, base), base.copy()
    stacked = oracle._realise(factual.noise, mask, rows, seeds)
    plain = oracle._realise(factual.noise, np.zeros_like(mask), plain_rows, seeds)
    # propagated in place, with or without a closure
    assert stacked is rows and plain is plain_rows
    assert same_bits(factual.values, base)
    # a block is the block realised alone; without a clamp, the query at std 0
    for k in range(m):
        solo = realise(oracle, base[k : k + 1], mask[k : k + 1], values[k : k + 1], seeds[k : k + 1])
        assert np.array_equal(stacked[k], solo[0])
        assert np.array_equal(plain[k], quiet.query(base[k], None, seeds[k]))


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(BUILTIN_NAMES + ("linear9", "linear30")),
    policy=st.sampled_from(["fixed", "resample"]),
    n=st.integers(1, 20),
    scalars=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_query_equals_its_block_realised(kind, policy, n, scalars, seed):
    # a mask that clamps the same columns on every row: query's propagation
    # and lime's stacked one give the same bits at roundtrip_noise_std 0
    rng = np.random.default_rng(seed)
    linear = kind.startswith("linear")
    model = ScmModel.linear(random_dag_weights(int(kind[6:]), rng)) if linear else builtin(kind)
    config = OracleConfig(roundtrip_noise_std=0.0, noise_policy=policy, standardize=not linear)
    oracle = Oracle(model, config)
    base = oracle.sample_latents(n, [seed, 1])
    base[rng.random(base.shape) < 0.2] = -0.0
    columns = rng.random(oracle.dim) < 0.4
    if scalars:
        values = np.broadcast_to(rng.normal(size=oracle.dim), base.shape)
        do = {int(k): float(values[0, k]) for k in np.flatnonzero(columns)}
    else:
        values = base + rng.normal(size=base.shape)
        do = {int(k): values[:, k] for k in np.flatnonzero(columns)}
    mask = np.broadcast_to(columns, (1,) + base.shape)
    block = realise(oracle, base[None], mask, values[None], [(seed, 8)])[0]
    assert same_bits(oracle.query(base, do, (seed, 8)), block)


@pytest.mark.parametrize("policy", ["fixed", "resample"])
def test_query_never_evaluates_a_clamped_column(monkeypatch, policy):
    # a query writes its clamped columns and propagates only the rest of
    # their closure, in one plain propagation: lime's engine is not entered
    model = builtin("TSWI")
    oracle = Oracle(model, OracleConfig(noise_policy=policy))
    base = oracle.sample_latents(16, 0)
    cases = [(None, []), ({"s": 1.0}, [1]), ({"t": base[:, 0], "w": 0.5}, [0, 2])]
    expected = [oracle.query(base, do, seed=3) for do, _ in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("a query entered Oracle._realise")

    runs, propagate = [], ScmModel.propagate

    def spy(self, noise, do_mask=None, do_values=None, *, out=None, nodes=None):
        runs.append((do_mask, nodes.copy()))
        return propagate(self, noise, do_mask, do_values, out=out, nodes=nodes)

    monkeypatch.setattr(Oracle, "_realise", refuse)
    monkeypatch.setattr(ScmModel, "propagate", spy)
    for (do, clamped), want in zip(cases, expected):
        runs.clear()
        assert same_bits(oracle.query(base, do, seed=3), want)
        columns = np.isin(np.arange(oracle.dim), clamped)
        (do_mask, nodes), = runs
        assert do_mask is None
        assert np.array_equal(nodes, model.closure(columns) & ~columns)


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["TSWI", "linear9", "linear12"]),
    policy=st.sampled_from(["fixed", "resample"]),
    noise=st.sampled_from([0.0, 0.1]),
    m=st.integers(1, 4),
    n=st.integers(1, 20),
    whole_columns=st.booleans(),
    seed=st.integers(0, 2**16),
)
# rows clamp different columns: a row keeps its abduced noise outside its
# own closure, though the block runs the closure of every row's columns
@example(kind="TSWI", policy="resample", noise=0.0, m=1, n=20, whole_columns=False, seed=0)
def test_queries_evaluate_only_the_closure(kind, policy, noise, m, n, whole_columns, seed):
    rng = np.random.default_rng(seed)
    linear = kind.startswith("linear")
    model = ScmModel.linear(random_dag_weights(int(kind[6:]), rng)) if linear else builtin(kind)
    config = OracleConfig(roundtrip_noise_std=noise, noise_policy=policy, standardize=not linear)
    oracle = Oracle(model, config)
    clean = Oracle(model, replace(config, roundtrip_noise_std=0.0))
    d = oracle.dim
    base = oracle.sample_latents(m * n, seed).reshape(m, n, d)
    if whole_columns:
        mask = np.repeat(rng.random((m, 1, d)) < 0.3, n, axis=1)
    else:
        mask = rng.random(base.shape) < 0.1
    values = base + rng.normal(size=base.shape)
    seeds = [(int(s), 9) for s in rng.integers(0, 3, m)]
    # the closure of each block's clamped columns, from the model's graph
    reach = model.ground_truth_graph().reach()
    closure = (mask.any(axis=1)[:, :, None] & reach).any(axis=1)
    stacked = realise(clean, base, mask, values, seeds)
    # realised rows never carry the round-trip draw
    assert same_bits(realise(oracle, base, mask, values, seeds), stacked)
    for k in range(m):
        # the reference propagates every node from the abduced noise, under
        # "resample" with fresh noise on the closure of each row's columns
        draws = np.random.default_rng(seeds[k])
        exogenous = model.abduce(to_raw(clean, base[k])).noise
        own = model.closure(mask[k])
        if policy == "resample":
            exogenous = np.where(own, model.draw_noise(n, draws), exogenous)
        ref = clean.to_chart(model.propagate(exogenous, mask[k], to_raw(clean, values[k])))
        kept, run = ~closure[k], closure[k]
        tol = 1e-12 * np.abs(ref).max()
        solo = realise(clean, base[k : k + 1], mask[k : k + 1], values[k : k + 1], [seeds[k]])[0]
        for out in (stacked[k], solo):
            assert np.array_equal(out[:, kept], base[k][:, kept])
            np.testing.assert_allclose(out[:, run], ref[:, run], rtol=1e-12, atol=tol)
            np.testing.assert_allclose(out[~own], base[k][~own], rtol=1e-12, atol=tol)
        # a query adds the round-trip noise on top of its realised rows: a
        # block's own when it clamps whole columns, else the base rows of do=None
        draw = draws.normal(0.0, noise, (n, d)) if noise else 0.0
        do = {int(j): values[k][:, j] for j in np.flatnonzero(mask[k][0])}
        do, realised = (do, stacked[k]) if whole_columns else (None, base[k])
        assert np.array_equal(oracle.query(base[k], do, seeds[k]), realised + draw)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(BUILTIN_NAMES + ("linear9", "linear12")),
    policy=st.sampled_from(["fixed", "resample"]),
    noise=st.sampled_from([0.0, 0.1]),
    m=st.integers(1, 4),
    n=st.integers(1, 20),
    row_masks=st.booleans(),
    shared_seed=st.booleans(),
    seed=st.integers(0, 2**16),
)
# each row clamps its own columns, as lime's perturbations do
@example(
    kind="TSWI", policy="resample", noise=0.1, m=3, n=12, row_masks=True, shared_seed=False,
    seed=1,
)
def test_realise_shared_row_equals_repeated_rows(
    kind, policy, noise, m, n, row_masks, shared_seed, seed
):
    """A (m, 1, d) base gives the rows of that base repeated to (m, n, d).

    Bit for bit on the builtins. On a d >= 9 linear SEM only within 1e-12:
    the shared row is abduced alone, and BLAS rounds its contraction with
    the equation weights up to an ulp away from the same row among n.
    """
    rng = np.random.default_rng(seed)
    linear = kind.startswith("linear")
    config = OracleConfig(roundtrip_noise_std=noise, noise_policy=policy, standardize=not linear)
    model = ScmModel.linear(random_dag_weights(int(kind[6:]), rng)) if linear else builtin(kind)
    oracle = Oracle(model, config)
    row = oracle.sample_latents(m, seed)[:, None, :]
    base = np.repeat(row, n, axis=1)
    if row_masks:
        mask = rng.random(base.shape) < 0.4
    else:
        mask = np.repeat(rng.random((m, 1, oracle.dim)) < 0.4, n, axis=1)
    values = base + rng.normal(size=base.shape)
    seeds = [(int(s), 8) for s in rng.integers(0, 1 if shared_seed else 3, m)]
    shared = realise(oracle, row, mask, values, seeds)
    repeated = realise(oracle, base, mask, values, seeds)
    if linear:
        np.testing.assert_allclose(shared, repeated, rtol=1e-12, atol=1e-12)
    else:
        assert np.array_equal(shared, repeated)


def test_realise_rejects_bad_shapes():
    oracle = Oracle(builtin("TI"), NOISELESS)
    # _factual checks the base stack that _realise's factual rows come from
    with pytest.raises(ValueError, match=r"stacked base must have shape \(m, n, 2\)"):
        oracle._factual(np.zeros((3, 4, 3)))
    for rows in (np.zeros((4, 3)), np.zeros((1, 4, 2)), np.zeros(3)):
        # a query names the shapes it takes, not _realise's stacked one
        message = r"\(n, 2\) or \(2,\), got " + re.escape(str(rows.shape))
        with pytest.raises(ValueError, match=message):
            oracle.query(rows, None, 0)
    rows = np.zeros((3, 4, 2))
    with pytest.raises(ValueError, match="seeds"):
        oracle._realise(oracle._factual(rows).noise, rows > 0, rows, [0, 1])
    mask, values = np.ones((2, 5, 2), dtype=bool), np.ones((2, 5, 2))
    # a noise must hold 1 or n rows per block; the message names both shapes
    with pytest.raises(ValueError, match=r"\(2, 5, 2\).*\(2, 3, 2\)"):
        oracle._realise(oracle._factual(np.ones((2, 3, 2))).noise, mask, values, [0, 1])
    with pytest.raises(ValueError, match=r"\(2, 5, 2\).*\(2, 4, 2\).*\(2, 1, 2\)"):
        oracle._realise(oracle._factual(np.ones((2, 1, 2))).noise, mask, values[:, :4], [0, 1])
    with pytest.raises(ValueError, match=r"\(2, 5, 2\).*\(3, 1, 2\)"):
        oracle._realise(oracle._factual(np.ones((3, 1, 2))).noise, mask, values, [0, 1, 2])


def test_realise_shared_row_without_do_is_a_one_row_query():
    oracle = Oracle(builtin("TSWI"), OracleConfig())
    quiet = Oracle(builtin("TSWI"), OracleConfig(roundtrip_noise_std=0.0))
    base = oracle.sample_latents(3, 0)[:, None, :]
    out = oracle._realise(oracle._factual(base).noise, base > np.inf, base.copy(), [0, 1, 2])
    assert out.shape == (3, 1, 4)
    for k in range(3):
        assert same_bits(out[k], base[k])
        assert same_bits(out[k], quiet.query(base[k], None, k))
    # blocks of zero rows stay empty, from per-row or shared factual rows
    empty = np.zeros((2, 0, 4))
    for noise in (oracle._factual(empty).noise, oracle._factual(np.zeros((2, 1, 4))).noise):
        assert oracle._realise(noise, empty > 0, empty.copy(), [0, 1]).shape == (2, 0, 4)


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
    # a non-finite value in a column do does not clamp is never used
    values = base.copy()
    values[:, 1] = bad
    assert np.array_equal(
        oracle.query(base, {"t": values[:, 0]}, seed=0), oracle.query(base, {"t": base[:, 0]}, seed=0)
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
    columns = np.flatnonzero(rng.random(first.dim) < 0.3)
    do = {int(k): rng.normal(size=n) for k in columns} if intervene else None
    query_seed = [seed, 2]
    out = first.query(base, do, seed=query_seed)
    again = second.query(base, do, seed=query_seed)
    assert np.array_equal(out.view(np.uint64), again.view(np.uint64))


def same_bits(a, b):
    return a.shape == b.shape and (
        np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()
    )


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["TSWI", "linear5"]),
    policy=st.sampled_from(["fixed", "resample"]),
    noise=st.sampled_from([0.0, 0.1]),
    n=st.integers(1, 12),
    scalars=st.booleans(),
    broadcast=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_same_seed_queries_pair_bit_for_bit_off_the_closure(
    kind, policy, noise, n, scalars, broadcast, seed
):
    # the two queries intervention_effect makes: do and its no-do baseline
    rng = np.random.default_rng(seed)
    linear = kind.startswith("linear")
    model = ScmModel.linear(random_dag_weights(5, rng)) if linear else builtin(kind)
    config = OracleConfig(roundtrip_noise_std=noise, noise_policy=policy, standardize=not linear)
    oracle = Oracle(model, config)
    base = oracle.sample_latents(n, [seed, 1])
    base[rng.random(base.shape) < 0.3] = -0.0  # off the closure at std 0 it comes back as -0.0
    if broadcast:  # copies of one latent, as intervention_effect passes them
        base = np.broadcast_to(base[0], base.shape)
    clamped = rng.random(oracle.dim) < 0.4
    draw = (lambda: float(rng.normal())) if scalars else (lambda: rng.normal(size=n))
    do = {int(k): draw() for k in np.flatnonzero(clamped)}
    sequence = np.random.SeedSequence([seed, 2])
    out, ref = oracle.query(base, do, sequence), oracle.query(base, None, sequence)
    # a SeedSequence replays the stream of the seed it wraps
    assert same_bits(out, oracle.query(base, do, seed=[seed, 2]))
    assert same_bits(ref, oracle.query(base, None, seed=[seed, 2]))
    assert out.flags.c_contiguous and ref.flags.c_contiguous  # reductions round by layout
    off = ~model.closure(clamped)
    assert same_bits(out[:, off], ref[:, off])
    if noise == 0:
        assert same_bits(ref, base)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from([*BUILTIN_NAMES, "linear"]),
    policy=st.sampled_from(["fixed", "resample"]),
    d=st.integers(2, 12),
    n=st.integers(1, 12),
    scalars=st.booleans(),
    broadcast=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_paired_change_is_the_pair_difference_without_the_draw(
    kind, policy, d, n, scalars, broadcast, seed
):
    # a column clamp: the (d,) mask holds on every row, as in discovery
    rng = np.random.default_rng(seed)
    linear = kind == "linear"
    model = ScmModel.linear(random_dag_weights(d, rng)) if linear else builtin(kind)
    config = OracleConfig(roundtrip_noise_std=0.1, noise_policy=policy, standardize=not linear)
    oracle, quiet = Oracle(model, config), Oracle(model, replace(config, roundtrip_noise_std=0.0))
    base = oracle.sample_latents(n, [seed, 1])
    base[rng.random(base.shape) < 0.3] = -0.0
    if broadcast:
        base = np.broadcast_to(base[0], base.shape)
    mask = rng.random(oracle.dim) < 0.4
    if scalars:  # one value per clamped column, by label
        values = np.broadcast_to(rng.normal(size=oracle.dim), base.shape)
        do = {model.labels[k]: float(values[0, k]) for k in np.flatnonzero(mask)}
    else:
        values = rng.normal(size=base.shape)
        do = {int(k): values[:, k] for k in np.flatnonzero(mask)}
    factual = oracle._factual(base)
    change = oracle._paired_change(factual, mask, values[:, mask], [seed, 2])
    out, ref = (quiet.query(base, d, [seed, 2]) for d in (do, None))
    assert same_bits(change, out - ref)  # the draw-free pair, bit for bit
    assert change.flags.c_contiguous
    noisy_out, noisy_ref = (oracle.query(base, d, [seed, 2]) for d in (do, None))
    np.testing.assert_allclose(change, noisy_out - noisy_ref, rtol=0, atol=1e-12)
    # a read column propagates only its ancestors in the closure, to the same bits
    for j in range(oracle.dim):
        assert same_bits(oracle._paired_change(factual, mask, values[:, mask], [seed, 2], read=j),
                         np.ascontiguousarray(change[:, j]))


@pytest.mark.parametrize("policy", ["fixed", "resample"])
def test_paired_change_rejects_what_a_query_rejects(policy):
    oracle = Oracle(builtin("TSWI"), OracleConfig(noise_policy=policy))
    base = oracle.sample_latents(4, 0)
    nonfinite = base.copy()
    nonfinite[2, 1] = np.nan
    for bad, message in [
        (base[0], r"base rows must have shape \(n, 4\), got \(4,\)"),
        (base[:, :3], r"base rows must have shape \(n, 4\), got \(4, 3\)"),
        (base[:0], r"base rows must have shape \(n, 4\), got \(0, 4\)"),
        (nonfinite, "oracle query base rows must be finite"),
    ]:
        with pytest.raises(ValueError, match=message):
            oracle._factual(bad)
    with pytest.raises(ValueError, match="oracle query base rows must be finite"):
        oracle.query(nonfinite, None, seed=0)  # the message a query gives
    # a query's rows are _factual's: no rows is the error a discovery base of none gives
    for do in (None, {"s": 1.0}):
        with pytest.raises(ValueError, match=r"base rows must have shape \(n, 4\), got \(0, 4\)"):
            oracle.query(base[:0], do, seed=0)
    factual, mask = oracle._factual(base), np.array([False, True, False, False])
    clamped = base[:, mask] + 1.0
    for value in (np.inf, np.nan):
        clamped[1, 0] = value
        for read in (None, 3):
            with pytest.raises(ValueError, match="do values must be finite where the mask is set"):
                oracle._paired_change(factual, mask, clamped, 0, read=read)


def test_malformed_do_names_the_expected_shape():
    oracle = Oracle(builtin("TI"), OracleConfig())
    base = oracle.sample_latents(4, 0)
    # any form but the dict, the old (mask, values) pair included, names the dict
    cases = [
        ((np.zeros(5, bool), 0.0), r"do must be a dict \{node: scalar or \(4,\) array\}, got tuple"),
        ([("t", 1.0)], r"do must be a dict \{node: scalar or \(4,\) array\}, got list"),
        ({"t": np.ones(3)}, r"node 't' must be a scalar or have shape \(4,\), got \(3,\)"),
    ]
    for do, message in cases:
        with pytest.raises(ValueError, match=message):
            oracle.query(base, do, seed=0)
    # the paired change clamps whole columns, a (d,) mask's k columns to
    # (n, k) values: the tuple and the short column above as a column mask
    # and its columns
    factual = oracle._factual(base)
    for mask, clamped, got in [
        (np.zeros(5, bool), np.zeros(()), r"mask \(5,\) and clamped columns \(\)"),
        (np.ones(2, bool), np.ones((3, 2)), r"mask \(2,\) and clamped columns \(3, 2\)"),
        (np.array([True, False]), np.ones((4, 2)), r"mask \(2,\) and clamped columns \(4, 2\)"),
    ]:
        with pytest.raises(ValueError, match=rf"do {got} must be \(2,\) and \(4, the mask's"):
            oracle._paired_change(factual, mask, clamped, 0)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(BUILTIN_NAMES),
    standardize=st.booleans(),
    lead=st.sampled_from([(), (1,), (7,), (1, 5), (3, 5), (2, 3, 4)]),
    layout=st.sampled_from(["C", "F", "sliced", "broadcast"]),
    seed=st.integers(0, 2**16),
)
def test_chart_conversions_equal_the_plain_formulas(kind, standardize, lead, layout, seed):
    oracle = Oracle(builtin(kind), OracleConfig(standardize=standardize, seed=seed % 5))
    d = oracle.dim
    rng = np.random.default_rng(seed)
    rows = rng.normal(0.0, 50.0, lead + (d,))
    if layout == "F":
        rows = np.asfortranarray(rows)
    elif layout == "sliced":  # strided on every axis
        rows = np.stack([rows, -rows], axis=-1)[..., 0]
    elif layout == "broadcast":  # zero strides: one row or one value repeated
        rows = np.broadcast_to(rows[..., :1, :] if rows.ndim > 1 else rows[:1], rows.shape)
    if standardize:
        chart = (rows - oracle.chart_mean) / oracle.chart_scale
    else:
        chart = rows
    assert same_bits(oracle.to_chart(rows), chart)
