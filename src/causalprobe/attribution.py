"""Globally-inspired local explanations over aligned latent features.

lime_latent fits a proximity-weighted ridge surrogate of the classifier's
predicted-class probability on intervention deltas around one latent. One
private core, _lime_fits, runs every fit, for one latent or many at once,
and returns them as stacked arrays (the ridge solutions, local_fit_r2 and
target classes); lime_latent builds its one record from row 0, and cli's
evaluate reads only the weights, so its fits skip local_fit_r2. A fit
scores only its latent's predicted class. Under the interventional
policy perturbations run through the oracle so descendants (per the
discovered graph) co-move, and a call abduces its latents once; the
independent policy writes coordinates directly and serves as the
ablation baseline. lime realises its perturbations without the oracle's
round-trip draw: that draw depends only on the seed, so a same-seed pair
would cancel it exactly, and lime is bit-identical at any
roundtrip_noise_std. intervention_effect rounds out the local views: an
intervention's class-probability shift and its latent counterfactual
diff, from two queries under one seed, so the intervened rows and their
baseline share their draws. The draw reaches its shift and intervened
vector; the diff cancels it up to rounding.
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
        seed = self.seed  # a bool is an int to isinstance, but not a seed
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


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
    *,
    with_r2: bool = True,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """Local surrogate fits around each row of latents (m, d), stacked: the
    (m, d + 1) ridge solutions, intercept first, the (m,) local_fit_r2 (None
    when with_r2 is false; evaluate reads only the solutions) and the (m,)
    target classes, each the predicted class of its latent. Row k uses
    seeds[k], or config.seed when seeds is None; a seed is a non-negative
    integer, which AttributionConfig checks for config.seed and callers
    that pass seeds keep to. Under the interventional policy the latents
    are checked and abduced once per call, each as its own 1-row block, and
    _realise propagates each chunk's perturbed rows in place. Batch
    invariance: row k equals lime_latent(latents[k]) under its seed bit for
    bit, whatever else shares the call."""
    values = np.asarray(latents, dtype=float)
    d = oracle.dim
    if values.ndim != 2 or values.shape[1] != d:
        raise ValueError(f"latents shape {values.shape} != (m, {d})")
    if graph.n_nodes != d:
        raise ValueError("graph node count disagrees with oracle dimension")
    if head.dim != d:
        raise ValueError(f"head dimension {head.dim} != oracle dimension {d}")
    if config.n_perturbations < d + 1:
        raise ValueError("n_perturbations must be at least dim + 1 for a solvable fit")
    m, n = values.shape[0], config.n_perturbations
    seeds = [config.seed] * m if seeds is None else list(seeds)
    if len(seeds) != m:
        raise ValueError(f"{len(seeds)} seeds for {m} latents")
    classes = head.probabilities(values[:, None, :])[:, 0].argmax(axis=1)
    reach = noise = None
    if config.perturbation_policy == "interventional":
        # float, so the 0/1 contraction below is exact and runs on BLAS
        reach = graph.reach().astype(float)
        noise = oracle._factual(values[:, None, :]).noise
    width = config.kernel_width if config.kernel_width is not None else 0.75 * np.sqrt(d)

    beta = np.empty((m, d + 1))
    r2 = np.empty(m) if with_r2 else None
    step = max(1, _CHUNK_ROWS // n)
    # the chunks' working arrays, made once per call and written in place:
    # arrays made and freed chunk by chunk let malloc hand the top of its heap
    # back to the system and fault it in again, as often as earlier
    # allocations left them there, so a call's time would hang on history
    rows = min(step, m)
    masks = np.empty((rows, n, d), dtype=bool)
    # coordinates left at the latent; only the interventional policy resets them
    still = np.empty((rows, n, d), dtype=bool) if reach is not None else None
    deltas, shifted = np.empty((rows, n, d)), np.empty((rows, n, d))
    design, wx = np.empty((rows, n, d + 1)), np.empty((rows, n, d + 1))
    design[..., 0] = 1.0
    gaps = np.empty(d * rows * n)  # (d, c, n) for c rows, contiguous
    sample_w, work, pred = np.empty((rows, n)), np.empty((rows, n)), np.empty((rows, n, 1))
    drawn: dict = {}
    chunk = None
    for lo in range(0, m, step):
        c = min(step, m - lo)
        if seeds[lo : lo + c] != chunk:
            # stacked again only when the seeds change; a seed drawn for the
            # previous chunk is reused and older draws are dropped, so memory
            # stays bounded by the chunk
            chunk = seeds[lo : lo + c]
            drawn = {
                s: drawn[s] if s in drawn else _perturbations(s, n, d, config.perturbation_std)
                for s in dict.fromkeys(chunk)
            }
            np.stack([drawn[s][0] for s in chunk], out=masks[:c])
            np.stack([drawn[s][1] for s in chunk], out=deltas[:c])
            design[:c, :, 1:] = deltas[:c]
            if reach is not None:
                np.equal(masks[:c] @ reach, 0.0, out=still[:c])
        # whole (c, n, d) rows, not broadcast views: numpy's elementwise ops
        # and reductions would otherwise loop over the short feature axis.
        # The shifted rows hold base + 0.0 off the mask. Reset to the latent
        # bit for bit outside a row's own closure; unreset, the independent
        # policy only turns a -0.0 into +0.0, which moves no score or gap
        base = np.repeat(values[lo : lo + c, None, :], n, axis=1)
        realized = np.add(base, deltas[:c], out=shifted[:c])
        if reach is not None:
            oracle._realise(noise[lo : lo + c], masks[:c], realized, [(s, 8) for s in chunk])
            np.copyto(realized, base, where=still[:c])
        scores = head._class_probabilities(realized, classes[lo : lo + c])

        # squared gaps summed feature-major, (d, c, n), into a C-ordered (c, n):
        # an F-ordered sample_w would change the pairwise sums below. From d = 8
        # on, numpy's last-axis sum would pair terms and round differently
        sq = gaps[: d * c * n].reshape(d, c, n)
        for j in range(d):
            np.square(np.subtract(realized[..., j], base[..., j], out=sq[j]), out=sq[j])
        del base  # held into the next chunk, it would raise peak memory
        w = sq.sum(axis=0, out=sample_w[:c])
        np.exp(np.divide(np.negative(w, out=w), width**2, out=w), out=w)
        np.multiply(design[:c], w[..., None], out=wx[:c])
        gram = design[:c].transpose(0, 2, 1) @ wx[:c]
        rhs = wx[:c].transpose(0, 2, 1) @ scores[..., None]
        fit = _ridge(gram, rhs, config.ridge_lambda)
        beta[lo : lo + c] = fit
        if not with_r2:
            continue

        # plain ufuncs: at these sizes np.average's and np.clip's Python
        # wrappers cost more than their arithmetic
        fitted = np.matmul(design[:c], fit[..., None], out=pred[:c])[..., 0]
        t = np.multiply(scores, w, out=work[:c])
        ybar = t.sum(axis=1) / w.sum(axis=1)
        np.square(np.subtract(scores, fitted, out=t), out=t)
        ss_res = np.multiply(w, t, out=t).sum(axis=1)
        np.square(np.subtract(scores, ybar[:, None], out=t), out=t)
        ss_tot = np.multiply(w, t, out=t).sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            r2[lo : lo + c] = np.where(
                ss_tot <= 1e-300, 0.0, np.minimum(np.maximum(1.0 - ss_res / ss_tot, 0.0), 1.0)
            )
    return beta, r2, classes


def lime_latent(
    oracle: Oracle,
    head: ClassifierHead,
    graph: CausalGraph,
    latent: np.ndarray,
    config: AttributionConfig,
) -> Explanation:
    """Local surrogate fit around one latent vector: row 0 of _lime_fits.
    It explains the head's predicted class at the latent, and is
    deterministic given the config seed.
    """
    values = np.asarray(latent, dtype=float)
    if values.shape != (oracle.dim,):
        raise ValueError(f"latent shape {values.shape} != oracle dimension ({oracle.dim},)")
    beta, r2, classes = _lime_fits(oracle, head, graph, values[None], config)
    return Explanation(
        weights=beta[0, 1:],
        intercept=float(beta[0, 0]),
        local_fit_r2=float(r2[0]),
        target_class=int(classes[0]),
        degenerate_fit=config.ridge_lambda == 0,
    )


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
