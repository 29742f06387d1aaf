import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from causalprobe import (
    CausalGraph,
    EvaluationConfig,
    MetricsReport,
    correctness_index,
    entropy,
    faithfulness_index,
    mutual_information,
    stability,
)
from causalprobe.metrics import _average_ranks, joint_feasible

CFG = EvaluationConfig()


def g(labels, edges):
    return CausalGraph(list(labels), {e: 1.0 for e in edges})


def test_correctness_exact_match():
    truth = g("abc", [(0, 1), (1, 2), (0, 2)])
    predicted = [truth.copy() for _ in range(6)]
    assert correctness_index(predicted, truth) == 1.0


def test_correctness_partial():
    truth = g("abc", [(0, 1), (1, 2), (0, 2)])
    pred = g("abc", [(0, 1), (1, 2), (2, 1)])  # 2 correct + 1 extra of 3
    assert correctness_index([pred], truth) == pytest.approx(1 / 3)


def test_correctness_reversed_edge():
    truth = g("ab", [(0, 1)])
    pred = g("ab", [(1, 0)])
    assert correctness_index([pred], truth) == -1.0


def test_correctness_zero_edge_truth_rejected():
    truth = g("ab", [])
    with pytest.raises(ValueError, match="zero edges"):
        correctness_index([g("ab", [])], truth)


def test_correctness_averages_over_runs():
    truth = g("ab", [(0, 1)])
    runs = [g("ab", [(0, 1)]), g("ab", [])]
    assert correctness_index(runs, truth) == pytest.approx(0.5)


edge_sets = st.sets(
    st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda e: e[0] != e[1])
)


@settings(max_examples=50, deadline=None)
@given(truth=edge_sets.filter(bool), runs=st.lists(edge_sets, min_size=1, max_size=5))
def test_correctness_at_most_one_with_equality_iff_edge_sets_match(truth, runs):
    score = correctness_index([g("abcd", r) for r in runs], g("abcd", truth))
    assert score <= 1.0
    assert (score == 1.0) == all(r == truth for r in runs)


def test_stability_identical_explanations():
    sets = [[np.array([1.0, 2.0])] * 4 for _ in range(3)]
    assert stability(sets) == 0.0


def test_stability_repeated_vector_is_exact_positive_zero():
    # np.var of identical rows rounds its mean and leaves ~1e-35 behind
    v = np.array([0.1, 0.7, 1e-3, 0.123456789, -0.3])
    score = stability([[v.copy() for _ in range(5)] for _ in range(3)])
    assert score == 0.0 and np.copysign(1.0, score) == 1.0


def test_stability_alternating_coordinate():
    # one of four coordinates alternates +-1 across Q=2 -> variance 1 on it
    sets = [[np.array([1.0, 0, 0, 0]), np.array([-1.0, 0, 0, 0])]]
    assert stability(sets) == pytest.approx(-0.25)


def test_stability_single_repetition_flagged():
    with pytest.warns(RuntimeWarning, match="Q = 1"):
        assert stability([[np.array([3.0, 4.0])]]) == 0.0


def test_stability_always_nonpositive():
    rng = np.random.default_rng(0)
    sets = [[rng.normal(size=5) for _ in range(4)] for _ in range(3)]
    assert stability(sets) <= 0.0


def test_entropy_constant_column_is_zero():
    assert entropy(np.full(100, 3.7), CFG) == 0.0


def test_entropy_uniform_symbols():
    # 2^4 equiprobable symbols, ties share bins -> exactly 4 bits
    x = np.repeat(np.arange(16.0), 64)
    assert entropy(x, CFG) == pytest.approx(4.0)


def test_entropy_equal_frequency_binning_of_continuous():
    # rank binning gives near-uniform bin counts for continuous data
    rng = np.random.default_rng(1)
    h = entropy(rng.normal(size=100_000), CFG)
    assert abs(h - np.log2(CFG.mi_bins)) < 0.01


def test_mi_identical_discrete_variables():
    x = np.repeat(np.arange(4.0), 2500)
    assert mutual_information(x, x, CFG) == pytest.approx(2.0)


def test_mi_independent_small():
    rng = np.random.default_rng(2)
    x = rng.normal(size=10_000)
    y = rng.normal(size=10_000)
    assert mutual_information(x, y, CFG) < 0.05


def test_mi_gaussian_analytic():
    rng = np.random.default_rng(3)
    n = 100_000
    rho = 0.9
    x = rng.normal(size=n)
    y = rho * x + np.sqrt(1 - rho**2) * rng.normal(size=n)
    est_nats = mutual_information(x, y, CFG) * np.log(2)
    analytic = -0.5 * np.log(1 - rho**2)
    assert abs(est_nats - analytic) / analytic < 0.10


def test_mi_symmetry_exact():
    rng = np.random.default_rng(4)
    x = rng.normal(size=2000)
    y = 0.5 * x + rng.normal(size=2000)
    assert abs(mutual_information(x, y, CFG) - mutual_information(y, x, CFG)) < 1e-12


def test_mi_monotone_transform_invariance_exact():
    rng = np.random.default_rng(5)
    x = rng.normal(size=3000)
    y = x + rng.normal(size=3000)
    base = mutual_information(x, y, CFG)
    transformed = mutual_information(np.exp(x), y**3, CFG)
    assert transformed == base
    assert faithfulness_index(np.exp(x), y**3, CFG) == faithfulness_index(x, y, CFG)


def test_mi_requires_matched_rows_and_enough_samples():
    with pytest.raises(ValueError, match="rows"):
        mutual_information(np.zeros(10), np.zeros(11), CFG)
    with pytest.raises(ValueError, match="bins"):
        mutual_information(np.zeros(4), np.zeros(4), CFG)


def test_faithfulness_deterministic_bijection():
    rng = np.random.default_rng(6)
    x = rng.normal(size=5000)
    y = np.exp(x)  # strictly monotone map of the latents
    assert faithfulness_index(x, y, CFG) == pytest.approx(1.0)


def test_faithfulness_independent_near_zero():
    rng = np.random.default_rng(7)
    x = rng.normal(size=10_000)
    y = rng.permutation(x)
    assert faithfulness_index(x, y, CFG) < 0.05


def test_faithfulness_bounded():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(4000, 2))
    y = x @ np.array([[1.0, 0.2], [0.3, 0.9]]) + 0.1 * rng.normal(size=(4000, 2))
    val = faithfulness_index(x, y, CFG)
    assert 0.0 <= val <= 1.0


def test_faithfulness_zero_entropy_rejected():
    with pytest.raises(ValueError, match="zero entropy"):
        faithfulness_index(np.ones(1000), np.arange(1000.0), CFG)


def test_high_dimensional_reduction_path():
    # 3+3 columns at 16 bins needs 16^6 rows for a joint histogram, so the
    # pairwise-average reduction kicks in and stays bounded
    rng = np.random.default_rng(9)
    x = rng.normal(size=(500, 3))
    y = x + 0.1 * rng.normal(size=(500, 3))
    mi = mutual_information(x, y, CFG)
    assert np.isfinite(mi) and mi >= 0.0
    val = faithfulness_index(x, y, CFG)
    assert 0.0 <= val <= 1.0


def test_evaluation_config_validation():
    with pytest.raises(ValueError):
        EvaluationConfig(p_subsets=0)
    with pytest.raises(ValueError):
        EvaluationConfig(mi_bins=1)
    with pytest.raises(ValueError):
        EvaluationConfig(noise_std=-0.1)


def test_metrics_report_field_invariants():
    ok = MetricsReport(
        correctness_index=0.9, stability=-0.02, faithfulness_index=0.97, details={}
    )
    doc = ok.to_json_dict()
    assert doc["faithfulness_index"] == 0.97
    with pytest.raises(ValueError):
        MetricsReport(correctness_index=1.2, stability=0.0, faithfulness_index=0.5, details={})
    with pytest.raises(ValueError):
        MetricsReport(correctness_index=None, stability=0.1, faithfulness_index=0.5, details={})
    with pytest.raises(ValueError):
        MetricsReport(correctness_index=None, stability=0.0, faithfulness_index=1.5, details={})


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_metrics_reject_non_finite_samples(bad):
    rng = np.random.default_rng(10)
    x = rng.normal(size=(400, 2))
    y = x + rng.normal(size=(400, 2))
    x[17, 1] = bad
    calls = [
        lambda: entropy(x, CFG),
        lambda: mutual_information(x, y, CFG),
        lambda: mutual_information(y, x, CFG),
        lambda: faithfulness_index(x, y, CFG),
        lambda: faithfulness_index(y, x, CFG),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="finite"):
            call()


# small integers give ties, other floats (signed zeros included) mostly none
_COLUMN = st.lists(
    st.one_of(
        st.integers(-3, 3).map(float),
        st.floats(allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=60, deadline=None)
@given(values=_COLUMN)
def test_average_ranks_match_rankdata(values):
    col = np.asarray(values, dtype=float)
    ranks = _average_ranks(col)
    assert ranks.tobytes() == rankdata(col, method="average").tobytes()


_INCREASING = {
    "exp": np.exp,
    "cube": lambda v: v**3,
    "affine": lambda v: 2.0 * v - 7.0,
    "tanh": np.tanh,
}


def _coupled_pair(seed, n, dx, dy, tie_grid):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, dx))
    y = x.mean(axis=1, keepdims=True) + rng.normal(size=(n, dy))
    if tie_grid:  # rounding to a grid ties many values
        x, y = np.round(x / tie_grid) * tie_grid, np.round(y / tie_grid) * tie_grid
    return x, y


# (rows, x columns, y columns, bins): the joint histogram is sampled in the
# first and undersampled in the second, which takes the pairwise reduction
MI_REGIMES = {"joint": (300, 1, 2, 4), "reduced": (300, 2, 3, 4)}


def _per_column(maps, a):
    return np.column_stack([_INCREASING[m](col) for m, col in zip(maps, a.T)])


@pytest.mark.parametrize("regime", list(MI_REGIMES))
@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    tie_grid=st.sampled_from([0.0, 0.5]),
    maps=st.lists(st.sampled_from(list(_INCREASING)), min_size=5, max_size=5),
)
def test_mi_symmetric_and_monotone_invariant(regime, seed, tie_grid, maps):
    n, dx, dy, bins = MI_REGIMES[regime]
    assert joint_feasible(n, dx + dy, bins) == (regime == "joint")
    cfg = EvaluationConfig(mi_bins=bins)
    x, y = _coupled_pair(seed, n, dx, dy, tie_grid)
    mi = mutual_information(x, y, cfg)
    assert mutual_information(y, x, cfg) == pytest.approx(mi, abs=1e-12)
    mapped = mutual_information(_per_column(maps[:dx], x), _per_column(maps[dx:], y), cfg)
    assert mapped == mi
