"""Intervene-and-re-encode oracle over an aligned latent feature space.

An oracle accepts a latent vector plus an optional do-intervention and
returns the re-encoded latent vector: interventions are propagated to
descendants by the backing structural causal model and i.i.d. Gaussian
observation noise models the encode round trip. A linear SEM is an
ScmModel too (ScmModel.linear), so one Oracle class serves both. A
linear-logistic classifier head reads the latent space.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scm import ScmModel, logistic

_STANDARDIZE_DRAWS = 4096


@dataclass(frozen=True)
class OracleConfig:
    """Observable semantics of the re-encode round trip.

    roundtrip_noise_std: per-coordinate Gaussian observation noise.
    noise_policy: "fixed" reuses the exogenous noise abducted from the base
        row (counterfactual propagation); "resample" draws fresh noise.
    standardize: present latents in a z-scored chart; chart constants are
        estimated once at construction. The CLI defaults it per oracle kind
        (on for "scm", off for "linear").
    """

    roundtrip_noise_std: float = 0.1
    noise_policy: str = "fixed"
    standardize: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.roundtrip_noise_std < 0:
            raise ValueError("roundtrip_noise_std must be >= 0")
        if self.noise_policy not in ("fixed", "resample"):
            raise ValueError(f"unknown noise_policy {self.noise_policy!r}")


def _seed_key(seed, k: int):
    """Blocks whose seeds share a key share their draws.

    Integer seeds and lists or tuples of them are keyed by value; any other
    seed (None, an array, a SeedSequence or a Generator) gets the block's
    own index, so its block draws alone.
    """
    return repr(seed) if isinstance(seed, (int, np.integer, list, tuple)) else k


def _rows(a):
    """A one-block (1, n, d) stack as plain (n, d) rows, which propagate with
    cheaper indexing; any other stack, or None, as it is."""
    return a[0] if a is not None and len(a) == 1 else a


def _normalize_do(model: ScmModel, do, n: int) -> tuple[np.ndarray, np.ndarray] | None:
    """(mask, values) arrays of shape (n, d) for an intervention, or None
    when it clamps nothing.

    do is None, {node: scalar | (n,) array} with nodes given as in
    ScmModel.node_index, or a (mask, values) pair broadcastable to (n, d).
    """
    if do is None:
        return None
    shape = (n, model.n_nodes)
    if isinstance(do, tuple):
        mask = np.broadcast_to(np.asarray(do[0], dtype=bool), shape).copy()
        values = np.broadcast_to(np.asarray(do[1], dtype=float), shape).copy()
        return (mask, values) if mask.any() else None
    if not do:
        return None
    mask, values = np.zeros(shape, dtype=bool), np.zeros(shape)
    for key, val in do.items():
        idx = model.node_index(key)
        mask[:, idx] = True
        values[:, idx] = val  # a scalar or an (n,) array
    return mask, values


class Oracle:
    """Oracle backed by a structural causal model.

    With standardize=True (default) the latent chart is the z-scored feature
    space: chart constants come from a fixed-size observational draw, the
    ±1 intervention convention then moves each feature by one observational
    standard deviation. With standardize=False the chart is the raw feature
    space. Under the "fixed" noise policy a query is the counterfactual:
    the base rows' abduced noise propagated with the intervened nodes
    clamped, evaluated only on the descendants of the clamped nodes (every
    other feature keeps its base value). Queries are pure: identical
    (base, do, seed) give identical output.
    """

    def __init__(self, model: ScmModel, config: OracleConfig | None = None):
        self.model = model
        self.config = config or OracleConfig()
        self.labels = tuple(model.labels)
        if self.config.standardize:
            ref = model.sample(_STANDARDIZE_DRAWS, [self.config.seed, 0x5CA1E])
            self.chart_mean = ref.values.mean(axis=0)
            self.chart_scale = ref.values.std(axis=0)
            self.chart_scale[self.chart_scale < 1e-9] = 1.0  # degenerate columns keep raw units

    @property
    def dim(self) -> int:
        return len(self.labels)

    def to_chart(self, raw: np.ndarray) -> np.ndarray:
        raw = np.asarray(raw, dtype=float)
        if not self.config.standardize:
            return raw
        return (raw - self.chart_mean) / self.chart_scale

    def _counterfactual(self, base: np.ndarray, mask, values) -> np.ndarray:
        """Fixed-noise rows of an (m, n, d) stack: abduction, action, prediction.

        Block k evaluates only the closure of the columns it clamps anywhere;
        every other column keeps its base value bit for bit. The blocks
        propagate together over the union of their closures: a column that
        another block runs is clamped to this block's raw base row, as its
        own query leaves it.
        """
        n = base.shape[1]
        if mask is None:
            return base.copy()
        closure = self.model.closure((np.ones((1, n), dtype=bool) @ mask)[:, 0])
        if not closure.any():
            return base.copy()
        factual = self.model.abduce(self.to_raw(_rows(base)))
        raw_values = self.to_raw(_rows(values))
        run = closure.any(axis=0)
        kept = (run & ~closure)[:, None]  # (m, 1, d); empty when m is 1
        partial = kept.any()
        if partial:
            mask = mask | kept
            raw_values = np.where(kept, factual.values, raw_values)
        prop = self.model.propagate(
            factual.noise, _rows(mask), raw_values, out=factual.values, nodes=run
        )
        out = base.copy()
        _rows(out)[..., run] = self._chart_columns(prop, run)
        return np.where(kept, base, out) if partial else out

    def _chart_columns(self, raw: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """to_chart of the columns cols (a (d,) boolean) of raw rows. The gather is
        also the fast layout: to_chart on (m, n, small d) rows loops once per row."""
        if not self.config.standardize:
            return raw[..., cols]
        return (raw[..., cols] - self.chart_mean[cols]) / self.chart_scale[cols]

    def to_raw(self, chart: np.ndarray) -> np.ndarray:
        chart = np.asarray(chart, dtype=float)
        if not self.config.standardize:
            return chart
        return chart * self.chart_scale + self.chart_mean

    def sample_latents(self, n: int, seed) -> np.ndarray:
        return self.to_chart(self.model.sample(n, seed).values)

    def query(self, base: np.ndarray, do=None, seed=0) -> np.ndarray:
        """Re-encode base rows under an optional intervention.

        base: (d,) or (n, d) latent rows in the oracle's chart; do: any
        intervention _normalize_do accepts, its values in the chart.
        Returns the intervened, noise-perturbed rows with matching shape.
        This is query_stacked with a single block.
        """
        arr = np.asarray(base, dtype=float)
        single = arr.ndim == 1
        rows = np.atleast_2d(arr)
        norm = _normalize_do(self.model, do, rows.shape[0])
        stacked_do = None if norm is None else (norm[0][None], norm[1][None])
        out = self.query_stacked(rows[None], stacked_do, [seed])[0]
        return out[0] if single else out

    def query_stacked(self, base: np.ndarray, do, seeds) -> np.ndarray:
        """Re-encode m independent blocks of rows in one propagation.

        base: (m, n, d) rows; do: None or a (mask, values) pair of (m, n, d)
        arrays; seeds: one seed per block. Block k equals
        query(base[k], (mask[k], values[k]), seeds[k]) bit for bit:
        - its draws come from default_rng(seeds[k]) in query's order, first
          the exogenous noise ("resample" policy), then the round-trip noise;
          blocks with equal integer seeds share one draw;
        - every row contraction runs per block with the block's own shape
          (BLAS rounds a row differently with the number of rows it gets);
        - under "fixed", a column outside the closure of the block's clamped
          columns (clamped on any row, descendants included) comes back as
          the block's base value, bit for bit, before round-trip noise; a
          block whose mask is empty has an empty closure.
        Base rows and the do values under the mask must be finite.
        """
        base = np.ascontiguousarray(base, dtype=float)
        if base.ndim != 3 or base.shape[2] != self.dim:
            raise ValueError(f"stacked base must have shape (m, n, {self.dim}), got {base.shape}")
        if not np.isfinite(base).all():
            raise ValueError("oracle query base rows must be finite")
        m, n, d = base.shape
        seeds = list(seeds)
        if len(seeds) != m:
            raise ValueError(f"{len(seeds)} seeds for {m} blocks")
        mask = values = None
        if do is not None:
            mask = np.asarray(do[0], dtype=bool)
            values = np.asarray(do[1], dtype=float)
            if mask.shape != base.shape or values.shape != base.shape:
                raise ValueError(f"do mask and values must have the base shape {base.shape}")
            # one pass over values unless some value, masked or not, is non-finite
            if not (np.isfinite(values).all() or np.isfinite(values[mask]).all()):
                raise ValueError("oracle query do values must be finite where the mask is set")

        resample = self.config.noise_policy == "resample"
        std = self.config.roundtrip_noise_std
        rngs, inverse = [], []
        if resample or std > 0:
            unique: dict = {}  # seed key -> (index of its draw, seed)
            for k, s in enumerate(seeds):
                inverse.append(unique.setdefault(_seed_key(s, k), (len(unique), s))[0])
            rngs = [np.random.default_rng(s) for _, s in unique.values()]

        def per_block(draw):
            # copied out to every block, not broadcast: propagation allocates
            # its output like the noise, and a broadcast layout changes BLAS
            draws = [draw(rng) for rng in rngs]
            return draws[0][None] if m == 1 else np.stack(draws)[inverse]

        if resample:
            noise = _rows(per_block(lambda rng: self.model.draw_noise(n, rng)))
            raw_values = None if mask is None else self.to_raw(_rows(values))
            out = self.to_chart(self.model.propagate(noise, _rows(mask), raw_values))
            out = out.reshape(base.shape)
        else:
            out = self._counterfactual(base, mask, values)
        if std > 0:
            out = out + per_block(lambda rng: rng.normal(0.0, std, (n, d)))
        return out


class ClassifierHead:
    """Linear-logistic head over the latent space.

    A 1-d weight vector gives the binary head [1 - p, p] with
    p = sigmoid(w . l + b); a (n_classes, d) matrix gives a softmax head.
    """

    def __init__(self, weights, bias=0.0, n_classes: int | None = None):
        w = np.asarray(weights, dtype=float)
        if w.ndim == 1:
            if n_classes not in (None, 2):
                raise ValueError("vector weights define a binary head")
            self.n_classes = 2
            self.bias = np.asarray([float(bias)])
        elif w.ndim == 2:
            if n_classes is not None and n_classes != w.shape[0]:
                raise ValueError("n_classes disagrees with weight matrix")
            if w.shape[0] < 2:
                raise ValueError("softmax head needs at least 2 classes")
            self.n_classes = w.shape[0]
            b = np.asarray(bias, dtype=float)
            self.bias = np.broadcast_to(b, (self.n_classes,)).copy()
        else:
            raise ValueError("weights must be a vector or a matrix")
        self.weights = w

    @property
    def dim(self) -> int:
        return self.weights.shape[-1]

    def probabilities(self, latents: np.ndarray) -> np.ndarray:
        """Probability vector(s) summing to 1; accepts (d,), (n, d) or a
        (..., n, d) stack of blocks, each contracted on its own."""
        arr = np.asarray(latents, dtype=float)
        single = arr.ndim == 1
        rows = np.atleast_2d(arr)
        if rows.shape[-1] != self.dim:
            raise ValueError(f"latent dimension {rows.shape[-1]} != head dimension {self.dim}")
        if self.weights.ndim == 1:
            p = logistic(rows @ self.weights + self.bias[0])
            probs = np.stack([1.0 - p, p], axis=-1)
        else:
            z = rows @ self.weights.T + self.bias
            z = z - z.max(axis=-1, keepdims=True)
            e = np.exp(z)
            probs = e / e.sum(axis=-1, keepdims=True)
        return probs[0] if single else probs

