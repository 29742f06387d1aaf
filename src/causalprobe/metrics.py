"""Evaluation metrics: graph correctness, explanation stability, and
faithfulness as normalized mutual information.

Entropy and MI use plug-in estimates on rank-based equal-frequency
histograms (ties share a bin, so discrete inputs keep their symbol
structure and every strictly monotone per-coordinate transform leaves the
estimates unchanged). All information quantities are in bits.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graph import CausalGraph


@dataclass(frozen=True)
class EvaluationConfig:
    p_subsets: int = 5        # P data subsets
    q_repetitions: int = 5    # Q repetitions per subset
    noise_std: float = 0.1    # stability perturbation scale
    mi_bins: int = 16
    seed: int = 0

    def __post_init__(self):
        if self.p_subsets < 1 or self.q_repetitions < 1:
            raise ValueError("P and Q must be >= 1")
        if self.mi_bins < 2:
            raise ValueError("mi_bins must be >= 2")
        if self.noise_std < 0:
            raise ValueError("noise_std must be >= 0")


@dataclass
class MetricsReport:
    """Headline metric values plus per-run breakdowns in details."""

    correctness_index: float | None
    stability: float | None
    faithfulness_index: float | None
    details: dict

    def __post_init__(self):
        if self.correctness_index is not None and self.correctness_index > 1.0:
            raise ValueError("correctness_index cannot exceed 1")
        if self.stability is not None and self.stability > 0.0:
            raise ValueError("stability cannot be positive")
        if self.faithfulness_index is not None and not 0.0 <= self.faithfulness_index <= 1.0:
            raise ValueError("faithfulness_index must lie in [0, 1]")

    def to_json_dict(self) -> dict:
        return {
            "correctness_index": self.correctness_index,
            "stability": self.stability,
            "faithfulness_index": self.faithfulness_index,
            "details": self.details,
        }


def correctness_index(predicted: Sequence[CausalGraph], truth: CausalGraph) -> float:
    """Mean over runs of (correct - additional) / total ground-truth edges.

    A predicted edge matches only with the right direction; a reversed edge
    counts as an additional edge.
    """
    true_edges = truth.edge_set()
    if not true_edges:
        raise ValueError("correctness is undefined for a ground truth with zero edges")
    if not predicted:
        raise ValueError("at least one predicted graph is required")
    total = len(true_edges)
    scores = []
    for g in predicted:
        pred = g.edge_set()
        correct = len(pred & true_edges)
        additional = len(pred - true_edges)
        scores.append((correct - additional) / total)
    return float(np.mean(scores))


def stability(explanation_sets: Sequence[Sequence[np.ndarray]]) -> float:
    """Negative mean variance of explanation weights across repetitions.

    explanation_sets holds P sets of Q weight vectors; for each set the
    empirical (population) variance across the Q vectors is averaged over
    coordinates, and the result is the negative mean over sets. 0 is best,
    and identical vectors score exactly +0.0: the variance is taken of the
    offsets from each set's first vector, whose mean then rounds to 0.
    """
    if len(explanation_sets) == 0:
        raise ValueError("at least one explanation set is required")
    per_set = []
    for group in explanation_sets:
        arr = np.asarray([np.asarray(w, dtype=float) for w in group])
        if arr.ndim != 2:
            raise ValueError("each set must hold same-length weight vectors")
        if arr.shape[0] == 1:
            warnings.warn("stability with Q = 1 is 0 by convention", RuntimeWarning)
        per_set.append((arr - arr[0]).var(axis=0, ddof=0).mean())
    return float(-np.mean(per_set)) + 0.0  # + 0.0 turns -0.0 into +0.0


def _as_columns(x: np.ndarray) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError("samples must be a vector or a matrix")
    if not np.isfinite(arr).all():
        raise ValueError("samples must be finite")
    return arr


def _average_ranks(col: np.ndarray) -> np.ndarray:
    """1-based ranks of a vector; tied values share the mean of their ranks."""
    _, inverse, counts = np.unique(col, return_inverse=True, return_counts=True)
    last = np.cumsum(counts)  # the rank of each group's last member
    return (last - 0.5 * (counts - 1))[inverse]


def _bin_codes(x: np.ndarray, bins: int) -> np.ndarray:
    """Equal-frequency bin index per column; tied values share a bin."""
    arr = _as_columns(x)
    n = arr.shape[0]
    if n < bins:
        raise ValueError(f"need at least {bins} rows for {bins} bins, got {n}")
    codes = np.empty(arr.shape, dtype=np.int64)
    for c in range(arr.shape[1]):
        u = _average_ranks(arr[:, c]) / n
        codes[:, c] = np.minimum((u * bins).astype(np.int64), bins - 1)
    return codes


def _joint_code(codes: np.ndarray, bins: int) -> np.ndarray:
    out = np.zeros(codes.shape[0], dtype=np.int64)
    for c in range(codes.shape[1]):
        out = out * bins + codes[:, c]
    return out


def _entropy_from_codes(code: np.ndarray) -> float:
    _, counts = np.unique(code, return_counts=True)
    p = counts / counts.sum()
    return float(-(p * np.log2(p)).sum())


def joint_feasible(n_rows: int, dims: int, bins: int) -> bool:
    """Whether a joint histogram over `dims` binned columns is adequately sampled."""
    return n_rows >= bins**dims


def _regime_columns(codes: np.ndarray, dims: int, bins: int) -> list[np.ndarray]:
    """The code columns an estimate averages over: the joint code of all
    columns when a histogram over dims binned columns is adequately sampled,
    else each column on its own (the reduced regime)."""
    if joint_feasible(codes.shape[0], dims, bins):
        return [_joint_code(codes, bins)]
    return list(codes.T)


def entropy(x: np.ndarray, config: EvaluationConfig) -> float:
    """Plug-in entropy (bits) on the equal-frequency binning.

    Multi-column inputs use the joint histogram when adequately sampled and
    fall back to the mean of per-column entropies otherwise.
    """
    codes = _bin_codes(x, config.mi_bins)
    columns = _regime_columns(codes, codes.shape[1], config.mi_bins)
    return float(np.mean([_entropy_from_codes(c) for c in columns]))


def _mi_regime(x: np.ndarray, y: np.ndarray, bins: int) -> tuple[float, float, float]:
    """(MI, H(x), H(y)) in bits on the equal-frequency binning of two matrices.

    The regime is chosen on the combined columns: when the joint histogram
    over all columns of (x, y) is adequately sampled it is used throughout;
    otherwise MI is the mean pairwise MI over all column pairs and each
    entropy the mean of its per-column entropies.
    """
    cx, cy = _bin_codes(x, bins), _bin_codes(y, bins)
    dims = cx.shape[1] + cy.shape[1]
    xs, ys = _regime_columns(cx, dims, bins), _regime_columns(cy, dims, bins)
    hx = [_entropy_from_codes(a) for a in xs]
    hy = [_entropy_from_codes(b) for b in ys]
    mi = [
        hx[i] + hy[j] - _entropy_from_codes(a * (b.max() + 1) + b)
        for i, a in enumerate(xs)
        for j, b in enumerate(ys)
    ]
    return float(np.mean(mi)), float(np.mean(hx)), float(np.mean(hy))


def mutual_information(x: np.ndarray, y: np.ndarray, config: EvaluationConfig) -> float:
    """Plug-in MI (bits) between two sample matrices, symmetric in arguments.

    When the joint histogram over all columns of (x, y) would be
    undersampled, the estimate reduces to the mean of the pairwise MI over
    all column pairs.
    """
    ax, ay = _as_columns(x), _as_columns(y)
    if ax.shape[0] != ay.shape[0]:
        raise ValueError("x and y must have the same number of rows")
    return _mi_regime(ax, ay, config.mi_bins)[0]


def faithfulness_index(
    latents: np.ndarray, explanations: np.ndarray, config: EvaluationConfig
) -> float:
    """Normalized mutual information MI / sqrt(H(exps) * H(latents)) in [0, 1].

    Entropies use the same binning (and the same joint-vs-reduced regime)
    as the MI estimate.
    """
    lat, exp_w = _as_columns(latents), _as_columns(explanations)
    if lat.shape[0] != exp_w.shape[0]:
        raise ValueError("latents and explanations must have matched rows")
    mi, h_lat, h_exp = _mi_regime(lat, exp_w, config.mi_bins)
    if h_lat <= 0 or h_exp <= 0:
        raise ValueError("faithfulness is undefined when either marginal has zero entropy")
    return float(np.clip(mi / np.sqrt(h_lat * h_exp), 0.0, 1.0))
