"""Globally-inspired local explanations over aligned latent features.

lime_batch fits proximity-weighted ridge surrogates of the classifier's
target-class probability on intervention deltas around many latents at
once (lime_latent is its one-item case). One private core, _lime_fits,
runs every fit and returns them as stacked arrays (the ridge solutions,
local_fit_r2 and target classes); lime_batch builds its records from those
arrays, and cli's evaluate reads its weights from them directly. Under the
interventional policy perturbations run through the oracle so descendants
(per the discovered graph) co-move; the independent policy writes
coordinates directly and serves as the ablation baseline. lime realises
its perturbations without the oracle's round-trip draw: that draw depends
only on the seed, so a same-seed pair would cancel it exactly, and lime is
bit-identical at any roundtrip_noise_std. intervention_effect rounds out
the local views: an intervention's class-probability shift and its latent
counterfactual diff, from two queries under one seed, so the intervened
rows and their baseline share their draws. The draw reaches its shift and
intervened vector; the diff cancels it up to rounding.
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
        if self.kernel_width is not None and not 0 < self.kernel_width < np.inf:
            raise ValueError("kernel_width must be > 0 and finite")
        if not 0 <= self.ridge_lambda < np.inf:
            raise ValueError("ridge_lambda must be >= 0 and finite")
        if self.perturbation_policy not in POLICIES:
            raise ValueError(f"perturbation_policy must be one of {POLICIES}")
        if not 0 < self.perturbation_std < np.inf:
            raise ValueError("perturbation_std must be > 0 and finite")


@dataclass(frozen=True)
class Explanation:
    """Per-feature importance weights plus local-fit diagnostics."""

    weights: np.ndarray
    intercept: float
    local_fit_r2: float
    target_class: int
    degenerate_fit: bool = False  # ridge_lambda was 0, so the fit used 1e-3

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


def _ridge(gram: np.ndarray, rhs: np.ndarray, lam: float) -> np.ndarray:
    """Stacked ridge solves with an unpenalized intercept, lambda 0 floored
    to 1e-3; returns the (m, k) solutions.

    lime's system D^T W D + lam P is positive definite once lam > 0 and
    some kernel weight is positive, so the one solve fails only when every
    weight underflowed or an input is non-finite, and no larger lambda
    mends either: the intercept is not penalized.
    """
    penalty = np.eye(gram.shape[-1])
    penalty[0, 0] = 0.0
    try:
        beta = np.linalg.solve(gram + (1e-3 if lam == 0 else lam) * penalty, rhs)
        if np.isfinite(beta).all():
            return beta[..., 0]
    except np.linalg.LinAlgError:
        pass
    raise np.linalg.LinAlgError("ridge system unsolvable even after lambda floor")


# perturbation rows per oracle realisation and batched ridge solve
_CHUNK_ROWS = 8192


def _lime_fits(
    oracle: Oracle,
    head: ClassifierHead,
    graph: CausalGraph,
    latents: np.ndarray,
    config: AttributionConfig,
    seeds=None,
    target_class: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """lime_batch's fits as stacked arrays: the (m, d + 1) ridge solutions,
    intercept first, the (m,) local_fit_r2 and the (m,) target classes."""
    values = np.asarray(latents, dtype=float)
    d = oracle.dim
    if values.ndim != 2 or values.shape[1] != d:
        raise ValueError(f"latents shape {values.shape} != (m, {d})")
    if graph.n_nodes != d:
        raise ValueError("graph node count disagrees with oracle dimension")
    if config.n_perturbations < d + 1:
        raise ValueError("n_perturbations must be at least dim + 1 for a solvable fit")
    m, n = values.shape[0], config.n_perturbations
    seeds = [config.seed] * m if seeds is None else list(seeds)
    if len(seeds) != m:
        raise ValueError(f"{len(seeds)} seeds for {m} latents")
    for s in seeds:
        if isinstance(s, bool) or not isinstance(s, (int, np.integer)) or s < 0:
            raise ValueError(f"seeds must be non-negative integers, got {s!r}")
    seeds = [int(s) for s in seeds]
    if target_class is None:
        classes = head.probabilities(values[:, None, :])[:, 0].argmax(axis=1)
    elif (
        not isinstance(target_class, bool)
        and isinstance(target_class, (int, np.integer))
        and 0 <= target_class < head.n_classes
    ):
        classes = np.full(m, target_class)
    else:
        raise ValueError(f"target_class must be an integer in [0, {head.n_classes}), "
                         f"got {target_class!r}")
    # float, so the 0/1 contraction below is exact and runs on BLAS
    reach = graph.reach().astype(float) if config.perturbation_policy == "interventional" else None
    width = config.kernel_width if config.kernel_width is not None else 0.75 * np.sqrt(d)

    beta = np.empty((m, d + 1))
    r2 = np.empty(m)
    drawn: dict = {}
    chunk = None
    step = max(1, _CHUNK_ROWS // n)
    for lo in range(0, m, step):
        if seeds[lo : lo + step] != chunk:
            # stacked again only when the seeds change; a seed drawn for the
            # previous chunk is reused and older draws are dropped, so memory
            # stays bounded by the chunk
            chunk = seeds[lo : lo + step]
            drawn = {
                s: drawn[s] if s in drawn else _perturbations(s, n, d, config.perturbation_std)
                for s in dict.fromkeys(chunk)
            }
            masks = np.stack([drawn[s][0] for s in chunk])
            deltas = np.stack([drawn[s][1] for s in chunk])
            design = np.concatenate([np.ones((len(chunk), n, 1)), deltas], axis=2)
            moved = None if reach is None else masks @ reach > 0
        # whole (c, n, d) rows, not broadcast views: numpy's elementwise ops
        # and reductions would otherwise loop over the short feature axis.
        # The oracle takes each latent as one shared row and abduces it once.
        latent = values[lo : lo + step, None, :]
        base = np.repeat(latent, n, axis=1)
        if reach is not None:
            realized = oracle._realise(latent, (masks, base + deltas), [(s, 8) for s in chunk])
            realized = np.where(moved, realized, base)
        else:
            realized = np.where(masks, base + deltas, base)
        scores = head.probabilities(realized)[np.arange(len(chunk)), :, classes[lo : lo + step]]

        # squared gaps summed feature-major, (d, c, n), into a C-ordered (c, n):
        # an F-ordered sample_w would change the pairwise sums below. From d = 8
        # on, numpy's last-axis sum would pair terms and round differently
        sq = np.ascontiguousarray(np.moveaxis(realized - base, 2, 0)) ** 2
        sample_w = np.exp(-sq.sum(axis=0) / width**2)
        del base, sq  # held into the next chunk, they would raise peak memory
        wx = design * np.repeat(sample_w, d + 1, axis=1).reshape(design.shape)
        gram = design.transpose(0, 2, 1) @ wx
        rhs = wx.transpose(0, 2, 1) @ scores[..., None]
        fit = _ridge(gram, rhs, config.ridge_lambda)
        beta[lo : lo + step] = fit

        # plain ufuncs: at these sizes np.average's and np.clip's Python
        # wrappers cost more than their arithmetic
        pred = (design @ fit[..., None])[..., 0]
        ybar = (scores * sample_w).sum(axis=1) / sample_w.sum(axis=1)
        ss_res = (sample_w * (scores - pred) ** 2).sum(axis=1)
        ss_tot = (sample_w * (scores - ybar[:, None]) ** 2).sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            r2[lo : lo + step] = np.where(
                ss_tot <= 1e-300, 0.0, np.minimum(np.maximum(1.0 - ss_res / ss_tot, 0.0), 1.0)
            )
    return beta, r2, classes


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

    Seeds are non-negative integers and target_class lies in
    [0, head.n_classes); either is checked before any query, and a bool
    is neither.

    Batch invariance: item k equals lime_latent(latents[k]) under its seed
    bit for bit, however many items share the call. Items with equal seeds
    share one draw of masks and deltas; each chunk of items realises its
    perturbations in one oracle propagation, without the round-trip draw,
    and solves all its ridge systems at once. The fits come back stacked
    from _lime_fits, and the records are built from those arrays once, at
    the end; item k's weights are a view of row k of the stacked solutions.
    """
    beta, r2, classes = _lime_fits(oracle, head, graph, latents, config, seeds, target_class)
    degenerate = config.ridge_lambda == 0
    return [
        Explanation(
            weights=b[1:],
            intercept=b0,
            local_fit_r2=r,
            target_class=c,
            degenerate_fit=degenerate,
        )
        for b, b0, r, c in zip(beta, beta[:, 0].tolist(), r2.tolist(), classes.tolist())
    ]


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


# copies of the latent each side of an intervention effect averages over
_EFFECT_ROWS = 256


def intervention_effect(
    oracle: Oracle,
    head: ClassifierHead,
    latent: np.ndarray,
    do,
    seed=0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expected effect of an intervention on one latent: the per-class
    probability shift, the mean intervened vector and its per-feature diff
    from the mean baseline vector.

    The intervened query(l, do) of _EFFECT_ROWS copies of the latent and
    its baseline query(l, None) are two queries under one SeedSequence, so
    each intervened row shares its noise with its baseline row: a feature
    do does not reach differs by exactly 0.0, and an empty do gives exact
    zeros. A seed of None is drawn once for both; a Generator, which
    cannot be replayed, raises TypeError.
    """
    values = np.asarray(latent, dtype=float)
    base = np.broadcast_to(values, (_EFFECT_ROWS, values.size))
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    intervened, baseline = oracle.query(base, do, seed), oracle.query(base, None, seed)
    shift = head.probabilities(intervened).mean(axis=0) - head.probabilities(baseline).mean(axis=0)
    mean = intervened.mean(axis=0)
    return shift, mean, mean - baseline.mean(axis=0)
