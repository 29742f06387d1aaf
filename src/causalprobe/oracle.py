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
    noise_policy: "fixed" propagates the exogenous noise abducted from the
        base row; "resample" draws fresh noise on the closure of the row's
        clamped columns and keeps the abducted noise elsewhere.
    standardize: present latents in a z-scored chart; chart constants are
        estimated once at construction. The CLI defaults it per oracle kind
        (on for "scm", off for "linear").
    """

    roundtrip_noise_std: float = 0.1
    noise_policy: str = "fixed"
    standardize: bool = True
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.roundtrip_noise_std < np.inf:
            raise ValueError("roundtrip_noise_std must be >= 0 and finite")
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
    """(mask, values) of shape (n, d) for an intervention, or None when it
    clamps nothing: a form smaller than (n, d) becomes a read-only broadcast
    view, an (n, d) array is passed on as it is.

    do is None, {node: scalar | (n,) array} with nodes given as in
    ScmModel.node_index, or a (mask, values) pair broadcastable to (n, d).
    A dict clamps its columns on every row: a (d,) mask with (n, d) values.
    """
    if do is None:
        return None
    if isinstance(do, tuple):
        mask, values = do
    else:
        mask, values = np.zeros(model.n_nodes, dtype=bool), np.zeros((n, model.n_nodes))
        for key, val in do.items():
            idx = model.node_index(key)
            mask[idx] = True
            values[:, idx] = val  # a scalar or an (n,) array
    shape = (n, model.n_nodes)
    mask, values = np.asarray(mask, dtype=bool), np.asarray(values, dtype=float)
    views = tuple(a if a.shape == shape else np.broadcast_to(a, shape) for a in (mask, values))
    return views if mask.any() else None


class Oracle:
    """Oracle backed by a structural causal model.

    With standardize=True (default) the latent chart is the z-scored feature
    space: chart constants come from a fixed-size observational draw, the
    ±1 intervention convention then moves each feature by one observational
    standard deviation. With standardize=False the chart is the raw feature
    space. A query is the counterfactual: the base rows' abduced noise
    ("resample": fresh noise on each row's closure) propagated with the
    intervened nodes clamped, evaluated only on the descendants of the
    clamped nodes (every other feature keeps its base value). Queries are
    pure: identical (base, do, seed) give identical output.
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
        return self._chart(raw, True)

    def _counterfactual(self, base: np.ndarray, mask, values, fresh=None) -> np.ndarray:
        """Counterfactual rows of an (m, n, d) stack: abduction, action, prediction.

        base is (m, n, d), or (m, 1, d) when all n rows of a block share
        one factual row: abduction then runs once per block, and the
        abduced noise broadcasts along the rows. A row propagates its
        abduced noise, or fresh noise (shaped like the rows) on the closure
        of its own clamped columns when fresh is given. Block k evaluates
        only the closure of the columns it clamps anywhere; every other
        column keeps its base value bit for bit. The blocks propagate
        together over the union of their closures: a column that another
        block runs is clamped to this block's raw base row, as its own
        query leaves it.
        """
        n = base.shape[1] if mask is None else mask.shape[1]
        widen = n if base.shape[1] == 1 else 1  # a shared row repeats n times
        out = np.repeat(base, widen, axis=1)
        if mask is None:
            return out
        closure = self.model.closure((np.ones((1, n), dtype=bool) @ mask)[:, 0])
        if not closure.any():
            return out
        factual = self.model.abduce(self.to_raw(_rows(base)))
        noise = factual.noise
        if fresh is not None:
            noise = np.where(self.model.closure(_rows(mask)), _rows(fresh), noise)
        raw_values = self.to_raw(_rows(values))
        run = closure.any(axis=0)
        kept = (run & ~closure)[:, None]  # (m, 1, d); empty when m is 1
        partial = kept.any()
        if partial:
            mask = mask | kept
            raw_values = np.where(kept, factual.values, raw_values)
        # propagate writes into whole (m, n, d) rows, on a full base into
        # abduce's own copy of them; the noise may broadcast
        raw = factual.values if widen == 1 else np.repeat(factual.values, widen, axis=-2)
        prop = self.model.propagate(noise, _rows(mask), raw_values, out=raw, nodes=run)
        _rows(out)[..., run] = self._chart_columns(prop, run)
        return np.where(kept, base, out) if partial else out

    def _chart_columns(self, raw: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """to_chart of the columns cols (a (d,) boolean) of raw rows. A boolean
        gather lays its (..., n, k) result out feature-major, so the (k,)
        constants broadcast along n, as to_chart's tiled constants run along
        whole rows: neither loops once per row over the short k axis."""
        if not self.config.standardize:
            return raw[..., cols]
        return (raw[..., cols] - self.chart_mean[cols]) / self.chart_scale[cols]

    def to_raw(self, chart: np.ndarray) -> np.ndarray:
        return self._chart(chart, False)

    def _chart(self, a, forward: bool) -> np.ndarray:
        """to_chart (forward) or to_raw of (..., d) rows. The (d,) constants
        are tiled to (n, d), so numpy runs each block's rows as one line:
        broadcast along the short last axis, it would loop once per row.
        Elementwise, so the bits are the plain formulas' for any layout."""
        a = np.asarray(a, dtype=float)
        if not self.config.standardize:
            return a
        rows = a.shape[-2:-1] + (1,)  # (n, 1), or (1,) for a single row
        mean, scale = np.tile(self.chart_mean, rows), np.tile(self.chart_scale, rows)
        return (a - mean) / scale if forward else a * scale + mean

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

        base: (m, n, d) rows, or (m, 1, d) when every row of a block shares
        one factual row; do: None or a (mask, values) pair of (m, n, d)
        arrays; seeds: one seed per block. Returns (m, n, d) rows, n taken
        from do when it is given. Block k equals
        query(base[k] repeated to n rows, (mask[k], values[k]), seeds[k])
        bit for bit on the builtin models; a shared row is abduced once, and
        BLAS may round that one row's contraction an ulp away from the same
        row among n (seen from d = 9 on). Further:
        - its draws come from default_rng(seeds[k]) in query's order, first
          the exogenous noise ("resample" policy), then the round-trip noise;
          blocks with equal integer seeds share one draw;
        - every row contraction runs per block with the block's own shape
          (BLAS rounds a row differently with the number of rows it gets);
        - a column outside the closure of the block's clamped columns
          (clamped on any row, descendants included) comes back as the
          block's base value, bit for bit, before round-trip noise; a block
          whose mask is empty has an empty closure.
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
            if mask.ndim == 3:
                n = mask.shape[1]
            if mask.shape != (m, n, d) or values.shape != mask.shape or base.shape[1] not in (1, n):
                raise ValueError(
                    f"do mask {mask.shape} and values {values.shape} must both have shape "
                    f"(m, n, d) for a base of shape {base.shape}, with 1 or n base rows per block"
                )
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

        fresh = per_block(lambda rng: self.model.draw_noise(n, rng)) if resample else None
        out = self._counterfactual(base, mask, values, fresh)
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

