import json
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from causalprobe import (
    BUILTIN_NAMES,
    NoiseSpec,
    Oracle,
    OracleConfig,
    SampleSet,
    ScmModel,
    StructuralEquation,
    builtin,
)
from causalprobe.scm import logistic

ZERO_NOISE = NoiseSpec("degenerate-zero")
NOISELESS = OracleConfig(roundtrip_noise_std=0.0, standardize=False)


def variant(name, saturated=False):
    """A builtin with zero noise on every node; saturated moves the TI
    intensity sigmoid's bias from -5 to +5, pinning it near its ceiling at
    observational thickness."""
    model = builtin(name)
    equations = [replace(eq, noise=ZERO_NOISE) for eq in model.equations]
    if saturated:
        equations[1] = replace(equations[1], sig_bias=5.0)
    return ScmModel(model.name, model.labels, equations)


def clamped(model, base, do):
    """The counterfactual of base under do ({node: value}) from its stored
    noise: propagation with the intervened nodes clamped, no abduction."""
    mask, values = np.zeros(base.values.shape, dtype=bool), np.zeros(base.values.shape)
    for node, value in do.items():
        k = model.node_index(node)
        mask[:, k], values[:, k] = True, value
    return model.propagate(base.noise, mask, out=values)


def test_builtin_dags():
    assert builtin("TI").ground_truth_graph().edge_set() == {(0, 1)}
    assert builtin("IT").ground_truth_graph().edge_set() == {(0, 1)}  # i -> t
    assert builtin("TS").ground_truth_graph().edge_set() == {(0, 1)}
    tswi = builtin("TSWI")
    lab = {name: k for k, name in enumerate(tswi.labels)}
    expected = {
        (lab["t"], lab["s"]),
        (lab["t"], lab["w"]),
        (lab["s"], lab["w"]),
        (lab["w"], lab["i"]),
    }
    assert tswi.ground_truth_graph().edge_set() == expected


def test_builtin_unknown_name_rejected():
    with pytest.raises(ValueError, match="unknown builtin"):
        builtin("XYZ")


def test_ti_saturated_variant_value():
    # zero noise puts t exactly at its 0.5 offset; the saturated sigmoid
    # argument is then 2*0.5 + 5 = 6
    model = variant("TI", saturated=True)
    s = model.sample(1, 0)
    t, i = s.values[0]
    assert t == 0.5
    assert np.isclose(i, 64 + 191 * expit(6.0))
    assert abs(i - 254.53) < 0.01


def test_tswi_zero_noise_propagation():
    model = variant("TSWI")
    s = model.sample(1, 0)
    t, sl, w, i = s.values[0]
    assert t == 0.0
    assert sl == 10.0
    assert w == pytest.approx(10 + 15 * expit(0.0) - 0.25 * 10)  # 15
    assert i == pytest.approx(64 + 191 * expit(15 / 25))
    assert abs(i - 187.32) < 0.01


def test_sigmoid_mechanism_at_zero():
    eq = StructuralEquation(0, (), ZERO_NOISE, sig_scale=1.0)
    model = ScmModel(name="sig", labels=("a",), equations=(eq,))
    assert model.sample(1, 0).values[0, 0] == 0.5


def test_sampling_deterministic():
    model = builtin("TSWI")
    a = model.sample(64, 1234)
    b = model.sample(64, 1234)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.noise, b.noise)
    c = model.sample(64, 1235)
    assert not np.array_equal(a.values, c.values)


def test_counterfactual_empty_do_is_identity():
    model = builtin("TSWI")
    base = model.sample(16, 7)
    out = Oracle(model, NOISELESS).query(base.values, {}, seed=0)
    assert np.array_equal(out, base.values)


def test_counterfactual_sink_node_only_changes_itself():
    model = builtin("TSWI")
    base = model.sample(8, 3)
    sink = model.labels.index("i")
    out = clamped(model, base, {"i": 999.0})
    changed = np.any(out != base.values, axis=0)
    assert changed[sink]
    assert not changed[: sink].any()


def test_counterfactual_ti_closed_form():
    model = variant("TI")
    base = model.sample(5, 11)
    t = base.values[:, 0]
    out = Oracle(model, NOISELESS).query(base.values, {"t": t + 1}, seed=0)
    delta_i = out[:, 1] - base.values[:, 1]
    assert np.allclose(delta_i, 191 * (expit(2 * t - 3) - expit(2 * t - 5)))


def test_counterfactual_ti_saturated_closed_form():
    model = variant("TI", saturated=True)
    base = model.sample(5, 11)
    t = base.values[:, 0]
    out = Oracle(model, NOISELESS).query(base.values, {"t": t + 1}, seed=0)
    delta_i = out[:, 1] - base.values[:, 1]
    assert np.allclose(delta_i, 191 * (expit(2 * t + 7) - expit(2 * t + 5)))


def test_counterfactual_unknown_node_rejected():
    model = builtin("TI")
    base = model.sample(2, 0)
    with pytest.raises(ValueError, match="unknown node"):
        Oracle(model, NOISELESS).query(base.values, {"zz": 1.0}, seed=0)


@pytest.mark.parametrize("name", ["TI", "IT", "TS", "TSWI"])
def test_interventions_touch_only_descendants(name):
    model = variant(name)
    reach = model.ground_truth_graph().reach()
    base = model.sample(4, 5)
    for node in range(model.n_nodes):
        out = clamped(model, base, {node: base.values[:, node] + 1.0})
        changed = np.any(out != base.values, axis=0)
        assert changed.tolist() == reach[node].tolist()


def test_it_sample_mean_matches_uniform():
    model = builtin("IT")
    s = model.sample(100_000, 21)
    # mean of U(60, 255)
    assert abs(s.values[:, 0].mean() - 157.5) < 1.0


def test_ground_truth_graph_empty_model():
    model = ScmModel(
        name="lonely",
        labels=("a", "b"),
        equations=(
            StructuralEquation(0, (), NoiseSpec("normal", (1.0,))),
            StructuralEquation(1, (), NoiseSpec("normal", (1.0,))),
        ),
    )
    assert model.ground_truth_graph().edge_set() == set()


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec("gamma", (0.0, 5.0))
    with pytest.raises(ValueError):
        NoiseSpec("normal", (-1.0,))
    with pytest.raises(ValueError):
        NoiseSpec("uniform", (2.0, 1.0))
    with pytest.raises(ValueError):
        NoiseSpec("cauchy", (1.0,))


@pytest.mark.parametrize(
    "family, params, message",
    [
        ("normal", (np.nan,), "normal noise requires finite params"),
        ("normal", (np.inf,), "normal noise requires finite params"),
        ("gamma", (np.nan, 5.0), "gamma noise requires finite params"),
        ("gamma", (10.0, np.inf), "gamma noise requires finite params"),
        # finite and > 0, but the draw's scale 1 / rate overflows
        ("gamma", (1.0, 1e-320), "gamma noise requires shape > 0 and rate > 0 with a finite 1 / rate"),
        # numpy cannot draw a range that overflows
        ("uniform", (-1e308, 1e308), "uniform noise requires low < high and a finite high - low"),
        ("uniform", (0.0, np.inf), "uniform noise requires finite params"),
    ],
)
def test_noise_spec_rejects_non_finite_params(family, params, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        NoiseSpec(family, params)


def test_equation_ordering_validation():
    def model(*equations):
        return ScmModel(name="m", labels=("a", "b", "c")[: len(equations)], equations=equations)

    with pytest.raises(ValueError, match="cycle"):
        model(
            StructuralEquation(0, (1,), ZERO_NOISE, linear=(1.0,)),
            StructuralEquation(1, (0,), ZERO_NOISE, linear=(1.0,)),
        )
    with pytest.raises(ValueError, match="self-loop"):
        model(StructuralEquation(0, (0,), ZERO_NOISE, linear=(1.0,)))
    # ids out of topological order: c -> a -> b
    chain = model(
        StructuralEquation(0, (2,), ZERO_NOISE, const=1.0, linear=(2.0,)),
        StructuralEquation(1, (0,), ZERO_NOISE, linear=(3.0,)),
        StructuralEquation(2, (), ZERO_NOISE, const=5.0),
    )
    assert chain.sample(2, 0).values.tolist() == [[11.0, 33.0, 5.0]] * 2
    with pytest.raises(ValueError, match="ordered"):
        ScmModel(
            name="bad",
            labels=("a", "b"),
            equations=(
                StructuralEquation(1, (), ZERO_NOISE),
                StructuralEquation(1, (), ZERO_NOISE),
            ),
        )


def test_sample_size_validation():
    with pytest.raises(ValueError):
        builtin("TI").sample(0, 1)


def test_sample_rejects_non_finite_values():
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 2] = 1e200  # x2 overflows float64
    with np.errstate(over="ignore"), pytest.raises(
        ValueError, match="model 'linear' propagates its noise to non-finite values"
    ):
        ScmModel.linear(w).sample(5, 0)


def test_json_round_trip():
    # a rescaled model also writes each noise's scale
    rescaled = builtin("TI").rescaled([1, 2], [2, 4])
    for model in [*map(builtin, ("TI", "IT", "TS", "TSWI")), rescaled]:
        doc = json.loads(model.to_json())
        back = ScmModel.from_json_dict(doc)
        assert back == model
        # model files that still carry the retired context_count key or
        # mechanism kind tags load alike
        assert ScmModel.from_json_dict(dict(doc, context_count=2)) == back
        tagged = [dict(eq, mechanism="affine") for eq in doc["equations"]]
        assert ScmModel.from_json_dict(dict(doc, equations=tagged)) == back
        a = model.sample(32, 99).values
        b = back.sample(32, 99).values
        assert np.array_equal(a, b)


@pytest.mark.parametrize("section, key", [("nodes", "id"), ("equations", "node")])
@pytest.mark.parametrize("ids", [[0, 0], [0, 7], [5, 3]])
def test_from_json_dict_rejects_ids_other_than_0_to_n(section, key, ids):
    # [5, 3] sorts like [0, 1] but names no node 0 or 1
    doc = builtin("TI").to_json_dict()
    for item, k in zip(doc[section], ids):
        item[key] = k
    expected = re.escape(f"{section} must hold ids 0..1 once each, got {sorted(ids)}")
    with pytest.raises(ValueError, match=expected):
        ScmModel.from_json_dict(doc)


def test_model_needs_a_node():
    with pytest.raises(ValueError, match="a model needs at least one node"):
        ScmModel.linear(np.zeros((0, 0)))
    with pytest.raises(ValueError, match="a model needs at least one node"):
        ScmModel.from_json_dict({"name": "empty", "nodes": [], "equations": []})


def test_equation_record_rejects_non_integer_parents():
    with pytest.raises(ValueError, match=r"0: parents must be distinct integers, got \[1.0\]"):
        StructuralEquation(0, (1.0,), ZERO_NOISE)


@settings(max_examples=80, deadline=None)
@given(
    parents=st.lists(st.integers(0, 5), max_size=4),
    n_linear=st.integers(0, 5),
    n_sig_linear=st.integers(0, 5),
)
def test_equation_record_checks_parents_and_coefficients(parents, n_linear, n_sig_linear):
    def make():
        return StructuralEquation(
            9, parents, ZERO_NOISE, linear=[1.0] * n_linear, sig_linear=[2.0] * n_sig_linear
        )

    valid = len(set(parents)) == len(parents) and all(
        n in (0, len(parents)) for n in (n_linear, n_sig_linear)
    )
    if valid:
        eq = make()
        assert eq.parents == tuple(parents)
        assert (len(eq.linear), len(eq.sig_linear)) == (n_linear, n_sig_linear)
    else:
        with pytest.raises(ValueError, match="equation for node 9: (parents|linear|sig_linear) "):
            make()


def test_abduce_recovers_noise():
    model = builtin("TSWI")
    base = model.sample(64, 13)
    recovered = model.abduce(base.values)
    assert np.allclose(recovered.noise, base.noise, atol=1e-10)


def test_single_row_counterfactual():
    model = builtin("TSWI")
    draws = model.sample(8, 17)
    row = SampleSet(draws.values[2:3], draws.noise[2:3])
    assert row.values.shape == (1, 4)
    out = clamped(model, row, {"t": row.values[0, 0] + 1.0})
    assert out.shape == (1, 4)
    assert out[0, 0] == row.values[0, 0] + 1.0


def random_dag_weights(d, rng):
    w = np.triu(rng.uniform(-1.5, 1.5, (d, d)), k=1) * (rng.random((d, d)) < 0.5)
    perm = rng.permutation(d)  # node ids away from topological order
    return w[np.ix_(perm, perm)]


@settings(max_examples=25, deadline=None)
@given(d=st.integers(1, 8), n=st.integers(1, 12), seed=st.integers(0, 2**16))
def test_linear_engine_properties(d, n, seed):
    rng = np.random.default_rng(seed)
    w = random_dag_weights(d, rng)
    model = ScmModel.linear(w, noise_std=rng.uniform(0.0, 2.0))
    # abduction round trip on arbitrary rows
    x = rng.normal(size=(n, d))
    np.testing.assert_allclose(model.propagate(model.abduce(x).noise), x, rtol=1e-9, atol=1e-9)
    # noiseless propagation against the closed form x = e (I - W)^-1
    e = rng.normal(size=(n, d))
    reference = e @ np.linalg.inv(np.eye(d) - w)
    np.testing.assert_allclose(model.propagate(e), reference, rtol=1e-9, atol=1e-9)
    # an empty intervention changes nothing
    base = model.sample(n, seed)
    no_do = (np.zeros((n, d), dtype=bool), rng.normal(size=(n, d)))
    assert np.array_equal(model.propagate(base.noise, no_do[0], out=no_do[1].copy()), base.values)
    oracle = Oracle(model, NOISELESS)
    assert np.array_equal(oracle.query(base.values, {}, seed=seed), base.values)
    rows = base.values[None].copy()
    realised = oracle._realise(oracle._factual(rows).noise, no_do[0][None], rows, [(seed, 8)])
    assert np.array_equal(realised[0], base.values)
    # closure: the nodes and their descendants, as the graph's closure reads
    nodes = rng.random((3, d)) < 0.3
    reach = model.ground_truth_graph().reach()
    assert np.array_equal(model.closure(nodes), (nodes[:, :, None] & reach).any(axis=1))
    # propagation into given rows runs only the given nodes' equations
    start = rng.normal(size=(n, d))
    keep = ~nodes[0]
    partial = model.propagate(base.noise, out=start.copy(), nodes=nodes[0])
    assert np.array_equal(partial[:, keep], start[:, keep])
    assert np.array_equal(model.propagate(base.noise, out=start.copy()), base.values)
    # entries under a do_mask keep the value the given rows hold, bit for bit,
    # whichever nodes run; a do_mask has nothing to clamp without given rows
    mask = rng.random((n, d)) < 0.5
    clamped = model.propagate(base.noise, mask, out=start.copy(), nodes=nodes[1])
    assert clamped[mask].tobytes() == start[mask].tobytes()
    with pytest.raises(ValueError, match="a do_mask clamps entries of out, so out must be given"):
        model.propagate(base.noise, mask)


def chart_scales(rng, d, pow2):
    """Positive (d,) scales: powers of two 2^-8 .. 2^8, or spread over 1e-2 .. 1e2."""
    return 2.0 ** rng.integers(-8, 9, d) if pow2 else 10.0 ** rng.uniform(-2.0, 2.0, d)


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(BUILTIN_NAMES + ("linear",)),
    d=st.integers(1, 12),
    n=st.integers(1, 12),
    pow2=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_rescaled_model_is_the_model_in_chart_coordinates(kind, d, n, pow2, seed):
    rng = np.random.default_rng(seed)
    if kind == "linear":
        model = ScmModel.linear(random_dag_weights(d, rng), noise_std=rng.uniform(0.0, 2.0))
    else:
        model = builtin(kind)
    d = model.n_nodes
    shift, scale = rng.normal(0.0, 50.0, d), chart_scales(rng, d, pow2)
    charted = model.rescaled(shift, scale)

    def to_chart(x):
        return (x - shift) / scale

    def assert_close(out, ref, *rows):
        # within 1e-12 of the scale of each row involved, in the chart
        size = np.abs(np.concatenate(rows, axis=-1)).max(axis=-1, keepdims=True)
        assert np.all(np.abs(out - ref) <= 1e-12 * size), np.abs(out - ref).max()

    raw = model.sample(n, seed)
    z = to_chart(raw.values)
    assert_close(charted.abduce(z).noise, raw.noise / scale, z)
    mask, values = rng.random((n, d)) < 0.3, raw.values + rng.normal(0.0, 5.0, (n, d))
    ref = to_chart(model.propagate(raw.noise, mask, out=np.where(mask, values, 0.0)))
    out = charted.propagate(raw.noise / scale, mask, out=np.where(mask, to_chart(values), 0.0))
    assert_close(out, ref, z, ref)
    # fresh noise is the raw model's draw in chart units
    draws = [m.draw_noise(n, np.random.default_rng(seed)) for m in (charted, model)]
    np.testing.assert_allclose(draws[0], draws[1] / scale, rtol=1e-15, atol=0)
    # the identity chart gives the model back, bit for bit
    same = model.rescaled(np.zeros(d), np.ones(d))
    assert same == model
    assert same.propagate(raw.noise).tobytes() == raw.values.tobytes()
    assert same.abduce(raw.values).noise.tobytes() == model.abduce(raw.values).noise.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    spec=st.sampled_from([
        NoiseSpec("gamma", (10, 5)),
        NoiseSpec("normal", (0.5,)),
        NoiseSpec("uniform", (-3.0, 2.0)),
        NoiseSpec("uniform", (60, 255)),
        ZERO_NOISE,
    ]),
    pow2=st.booleans(),
    n=st.integers(0, 50),
    seed=st.integers(0, 2**16),
)
def test_scaled_noise_multiplies_the_same_draw(spec, pow2, n, seed):
    k = float(chart_scales(np.random.default_rng(seed), 1, pow2)[0])
    scaled, plain = np.random.default_rng(seed), np.random.default_rng(seed)
    draw = spec.scaled(k).draw(scaled, n)
    np.testing.assert_array_max_ulp(draw, k * spec.draw(plain, n), maxulp=1)
    assert scaled.bit_generator.state == plain.bit_generator.state
    assert spec.scaled(1.0) == spec
    with pytest.raises(ValueError, match="noise scale"):
        spec.scaled(0.0)


@settings(max_examples=60, deadline=None)
@given(z=st.lists(st.floats(-700, 700), min_size=1, max_size=20))
def test_logistic_matches_expit(z):
    z = np.asarray(z)
    np.testing.assert_allclose(logistic(z), expit(z), rtol=1e-14, atol=0)


def test_logistic_clips_to_np_clip_bits():
    z = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 800.0, -800.0, 699.9, -699.9])
    expected = 1.0 / (1.0 + np.exp(-np.clip(z, -700, 700)))
    assert logistic(z).tobytes() == expected.tobytes()


def test_logistic_saturates_finite_without_overflow():
    with np.errstate(all="raise"):
        out = logistic(np.array([-800.0, -745.0, 0.0, 745.0, 800.0]))
    assert np.all(np.isfinite(out)) and np.all((out >= 0) & (out <= 1))
    assert out[2] == 0.5 and out[-1] == 1.0 and out[0] < 1e-300
