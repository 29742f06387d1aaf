"""Globally-inspired local explanations over aligned latent features.

lime_batch fits proximity-weighted ridge surrogates of the classifier's
target-class probability on intervention deltas around many latents at
once (lime_latent is its one-item case). Under the interventional
policy perturbations run through the oracle so descendants (per the
discovered graph) co-move; the independent policy writes coordinates
directly and serves as the ablation baseline. Interventional confidence
deltas and latent counterfactual diffs round out the local views.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import CausalGraph
from .oracle import ClassifierHead, Oracle

POLICIES = ("interventional", "independent")


@dataclass(frozen=True)
class AttributionConfig:
    n_perturbations: int = 500
    kernel_width: float | None = None  # None -> 0.75 * sqrt(dim)
    ridge_lambda: float = 1e-3
    perturbation_policy: str = "interventional"
    perturbation_std: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n_perturbations < 2:
            raise ValueError("n_perturbations must be >= 2")
        if self.kernel_width is not None and self.kernel_width <= 0:
            raise ValueError("kernel_width must be > 0")
        if self.ridge_lambda < 0:
            raise ValueError("ridge_lambda must be >= 0")
        if self.perturbation_policy not in POLICIES:
            raise ValueError(f"perturbation_policy must be one of {POLICIES}")
        if self.perturbation_std <= 0:
            raise ValueError("perturbation_std must be > 0")


@dataclass(frozen=True)
class Explanation:
    """Per-feature importance weights plus local-fit diagnostics."""

    weights: np.ndarray
    intercept: float
    local_fit_r2: float
    target_class: int
    degenerate_fit: bool = False

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if not np.all(np.isfinite(w)):
            raise ValueError("explanation weights must be finite")
        object.__setattr__(self, "weights", w)

    def to_json_dict(self, labels) -> dict:
        return {
            "target_class": self.target_class,
            "intercept": self.intercept,
            "local_fit_r2": self.local_fit_r2,
            "degenerate_fit": self.degenerate_fit,
            "weights": [
                {"feature": k, "label": str(labels[k]), "weight": float(w)}
                for k, w in enumerate(self.weights)
            ],
        }


def _reach_matrix(graph: CausalGraph) -> np.ndarray:
    """reach[c] = boolean row over {c} union descendants(c)."""
    d = graph.n_nodes
    reach = np.eye(d, dtype=bool)
    for c in range(d):
        for dsc in graph.descendants(c):
            reach[c, dsc] = True
    return reach


def _perturbations(seed: int, n: int, d: int, std: float) -> tuple[np.ndarray, np.ndarray]:
    """Random feature subsets (at least one feature each) and Gaussian deltas."""
    rng = np.random.default_rng([seed, 7])
    masks = rng.random((n, d)) < 0.5
    empty = ~masks.any(axis=1)
    if empty.any():
        picks = rng.integers(0, d, size=int(empty.sum()))
        masks[np.flatnonzero(empty), picks] = True
    deltas = np.where(masks, rng.normal(0.0, std, (n, d)), 0.0)
    return masks, deltas


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched solve; the items whose system is singular come back as NaN."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        if len(a) == 1:
            return np.full(b.shape, np.nan)
        half = len(a) // 2
        return np.concatenate([_solve(a[:half], b[:half]), _solve(a[half:], b[half:])])


def _ridge(gram: np.ndarray, rhs: np.ndarray, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Stacked ridge solves with an unpenalized intercept.

    Items whose solve fails or is non-finite retry with lambda raised
    tenfold (from a 1e-3 floor when lambda is 0), up to eight tries in
    all. Returns the (m, k) solutions and the per-item degenerate flag: the
    lambda in use differs from the requested one.
    """
    penalty = np.eye(gram.shape[-1])
    penalty[0, 0] = 0.0
    lam_eff = np.full(len(gram), 1e-3 if lam == 0 else lam)
    beta = np.empty(rhs.shape)
    todo = np.arange(len(gram))
    for _ in range(8):
        beta[todo] = _solve(gram[todo] + lam_eff[todo, None, None] * penalty, rhs[todo])
        todo = todo[~np.isfinite(beta[todo]).all(axis=(1, 2))]
        if not todo.size:
            return beta[..., 0], lam_eff != lam
        lam_eff[todo] *= 10.0
    raise np.linalg.LinAlgError("ridge system unsolvable even after lambda floor")


# perturbation rows per stacked oracle query and batched ridge solve
_CHUNK_ROWS = 8192


def lime_batch(
    oracle: Oracle,
    head: ClassifierHead,
    graph: CausalGraph,
    latents: np.ndarray,
    config: AttributionConfig,
    seeds=None,
    target_class: int | None = None,
) -> list[Explanation]:
    """Local surrogate fits around each row of latents (m, d).

    Each perturbation picks a random feature subset and draws Gaussian
    intervention deltas for it. The regressors are those applied deltas;
    the response is the classifier's target-class probability on the
    realized vector. Item k uses seeds[k] in place of config.seed (all use
    config.seed when seeds is None) and the predicted class of its latent
    unless target_class is given.

    Batch invariance: item k equals lime_latent(latents[k]) under its seed
    bit for bit, however many items share the call. Items with equal seeds
    share one draw of masks and deltas; each chunk of items sends one
    stacked oracle query and solves all its ridge systems at once.
    """
    values = np.asarray(latents, dtype=float)
    d = oracle.dim
    if values.ndim != 2 or values.shape[1] != d:
        raise ValueError(f"latents shape {values.shape} != (m, {d})")
    if graph.n_nodes != d:
        raise ValueError("graph node count disagrees with oracle dimension")
    if config.n_perturbations < d + 1:
        raise ValueError("n_perturbations must be at least dim + 1 for a solvable fit")
    m, n = values.shape[0], config.n_perturbations
    seeds = [config.seed] * m if seeds is None else [int(s) for s in seeds]
    if len(seeds) != m:
        raise ValueError(f"{len(seeds)} seeds for {m} latents")
    if target_class is None:
        classes = head.probabilities(values[:, None, :])[:, 0].argmax(axis=1)
    else:
        classes = np.full(m, target_class)
    reach = _reach_matrix(graph) if config.perturbation_policy == "interventional" else None
    width = config.kernel_width if config.kernel_width is not None else 0.75 * np.sqrt(d)

    explanations: list[Explanation] = []
    drawn: dict = {}
    step = max(1, _CHUNK_ROWS // n)
    for lo in range(0, m, step):
        chunk = seeds[lo : lo + step]
        # a seed already drawn for the previous chunk is reused; older draws
        # are dropped, so memory stays bounded by the chunk
        drawn = {
            s: drawn[s] if s in drawn else _perturbations(s, n, d, config.perturbation_std)
            for s in dict.fromkeys(chunk)
        }
        masks = np.stack([drawn[s][0] for s in chunk])
        deltas = np.stack([drawn[s][1] for s in chunk])
        x = values[lo : lo + step, None, :]
        base = np.broadcast_to(x, masks.shape)
        if reach is not None:
            realized = oracle.query_stacked(base, (masks, base + deltas), [[s, 8] for s in chunk])
            realized = np.where(masks @ reach > 0, realized, base)
        else:
            realized = np.where(masks, base + deltas, base)
        tc = classes[lo : lo + step]
        probs = head.probabilities(realized)
        scores = np.take_along_axis(probs, tc[:, None, None], axis=2)[..., 0]

        sample_w = np.exp(-((realized - x) ** 2).sum(axis=2) / width**2)
        design = np.concatenate([np.ones((len(chunk), n, 1)), deltas], axis=2)
        wx = design * sample_w[..., None]
        gram = design.transpose(0, 2, 1) @ wx
        rhs = wx.transpose(0, 2, 1) @ scores[..., None]
        beta, degenerate = _ridge(gram, rhs, config.ridge_lambda)

        pred = (design @ beta[..., None])[..., 0]
        ybar = np.average(scores, axis=1, weights=sample_w)
        ss_res = np.sum(sample_w * (scores - pred) ** 2, axis=1)
        ss_tot = np.sum(sample_w * (scores - ybar[:, None]) ** 2, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            r2 = np.where(ss_tot <= 1e-300, 0.0, np.clip(1.0 - ss_res / ss_tot, 0.0, 1.0))
        explanations += [
            Explanation(
                weights=b[1:],
                intercept=float(b[0]),
                local_fit_r2=float(r),
                target_class=int(c),
                degenerate_fit=bool(g),
            )
            for b, r, c, g in zip(beta, r2, tc, degenerate)
        ]
    return explanations


def lime_latent(
    oracle: Oracle,
    head: ClassifierHead,
    graph: CausalGraph,
    latent: np.ndarray,
    config: AttributionConfig,
    target_class: int | None = None,
) -> Explanation:
    """Local surrogate fit around one latent vector: lime_batch with one item.

    Deterministic given the config seed.
    """
    values = np.asarray(latent, dtype=float)
    if values.shape != (oracle.dim,):
        raise ValueError(f"latent shape {values.shape} != oracle dimension ({oracle.dim},)")
    return lime_batch(oracle, head, graph, values[None], config, target_class=target_class)[0]


def confidence_delta(
    oracle: Oracle,
    head: ClassifierHead,
    latent: np.ndarray,
    do,
    n_samples: int = 256,
    seed=0,
) -> np.ndarray:
    """Expected per-class probability shift of an intervention.

    probabilities(query(l, do)) - probabilities(query(l, {})), each side averaged
    over n_samples oracle draws. An empty do-set returns exact zeros.
    """
    values = np.asarray(latent, dtype=float)
    if not do:
        return np.zeros(head.n_classes)
    base = np.broadcast_to(values, (n_samples, values.size))
    q_base = oracle.query(base, None, seed=[seed, 0])
    q_do = oracle.query(base, do, seed=[seed, 1])
    return head.probabilities(q_do).mean(axis=0) - head.probabilities(q_base).mean(axis=0)


def counterfactual_diff(
    oracle: Oracle,
    latent: np.ndarray,
    do,
    n_samples: int = 256,
    seed=0,
) -> tuple[np.ndarray, np.ndarray]:
    """Expected intervened vector and its per-feature diff from baseline."""
    values = np.asarray(latent, dtype=float)
    base = np.broadcast_to(values, (n_samples, values.size))
    baseline = oracle.query(base, None, seed=[seed, 0]).mean(axis=0)
    if not do:
        return baseline, np.zeros_like(baseline)
    intervened = oracle.query(base, do, seed=[seed, 1]).mean(axis=0)
    return intervened, intervened - baseline
