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

from .scm import SampleSet, ScmModel, logistic

_STANDARDIZE_DRAWS = 4096


@dataclass(frozen=True)
class OracleConfig:
    """Observable semantics of the re-encode round trip.

    roundtrip_noise_std: per-coordinate Gaussian observation noise, drawn
        only by Oracle.query (so it reaches intervention_effect's shift and
        intervened vector). It depends only on the query's seed, so a
        same-seed pair cancels it exactly: discovery and lime never draw it.
    noise_policy: "fixed" propagates the exogenous noise abducted from the
        base row; "resample" draws fresh noise on the closure of the row's
        clamped columns and keeps the abducted noise elsewhere.
    standardize: present latents in a z-scored chart, the model rewritten in
        its coordinates at construction (ScmModel.rescaled). The CLI defaults
        it per oracle kind (on for "scm", off for "linear").
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


def _normalize_do(model: ScmModel, do, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(mask, values) of one (1, n, d) block for an intervention, as
    read-only broadcast views.

    do is {node: scalar | (n,) array} with nodes given as in
    ScmModel.node_index ({} intervenes on nothing), or a (mask, values)
    pair broadcastable to (n, d). A dict clamps its columns on every row:
    a (d,) mask with (n, d) values.
    """
    d = model.n_nodes
    if isinstance(do, tuple):
        mask, values = do
    else:
        mask, values = np.zeros(d, dtype=bool), np.zeros((n, d))
        for key, val in do.items():
            idx = model.node_index(key)
            if np.shape(val) not in ((), (n,)):
                raise ValueError(f"do value of node {key!r} must be a scalar or have shape "
                                 f"({n},), got {np.shape(val)}")
            mask[idx] = True
            values[:, idx] = val
    try:
        return np.broadcast_to(mask, (1, n, d)), np.broadcast_to(values, (1, n, d))
    except ValueError:
        shapes = f"mask {np.shape(mask)} and values {np.shape(values)}"
        raise ValueError(f"do {shapes} must broadcast to ({n}, {d})") from None


class Oracle:
    """Oracle backed by a structural causal model.

    With standardize=True (default) the latent chart is the z-scored feature
    space, so ±1 interventions move a feature by one observational standard
    deviation; the model is rewritten once in chart coordinates, with the
    constants of a fixed-size observational draw, and queries run on it.
    With standardize=False the chart is the raw feature space. A query is
    the counterfactual: the base rows' abduced noise ("resample": fresh
    noise on each row's closure) propagated with the intervened nodes
    clamped, evaluated only on the descendants of the clamped nodes (every
    other feature keeps its base value). Queries are pure: identical
    (base, do, seed) give identical output.
    """

    def __init__(self, model: ScmModel, config: OracleConfig | None = None):
        self.model = model
        self.config = config or OracleConfig()
        self.labels = tuple(model.labels)
        self._charted = model  # the model in chart coordinates, which queries run
        if self.config.standardize:
            ref = model.sample(_STANDARDIZE_DRAWS, [self.config.seed, 0x5CA1E])
            self.chart_mean = ref.values.mean(axis=0)
            self.chart_scale = ref.values.std(axis=0)
            self.chart_scale[self.chart_scale < 1e-9] = 1.0  # degenerate columns keep raw units
            self._charted = model.rescaled(self.chart_mean, self.chart_scale)

    @property
    def dim(self) -> int:
        return len(self.labels)

    def to_chart(self, raw: np.ndarray) -> np.ndarray:
        """Raw feature rows (..., d) in the oracle's chart."""
        raw = np.asarray(raw, dtype=float)
        return (raw - self.chart_mean) / self.chart_scale if self.config.standardize else raw

    def sample_latents(self, n: int, seed) -> np.ndarray:
        return self.to_chart(self.model.sample(n, seed).values)

    def query(self, base: np.ndarray, do=None, seed=0) -> np.ndarray:
        """Re-encode base rows under an optional intervention.

        base: (d,) or (n, d) latent rows in the oracle's chart; do: None
        (no intervention) or any intervention _normalize_do accepts, its
        values in the chart. Returns _realise of the base rows with the do
        values written under do's mask, plus the round-trip noise, with
        matching shape. One default_rng(seed) draws first the exogenous
        noise ("resample" policy), then the round-trip noise. Two queries
        under one int, int sequence or SeedSequence s share their draws:
        query(base, do, s) and query(base, None, s) differ by exactly 0.0
        off do's closure. At roundtrip_noise_std 0 nothing is added, so a
        -0.0 off the closure stays -0.0.
        """
        arr = np.asarray(base, dtype=float)
        single = arr.ndim == 1
        rows = np.atleast_2d(arr)
        if rows.ndim != 2 or rows.shape[1] != self.dim:
            d = self.dim
            raise ValueError(f"base rows must have shape (n, {d}) or ({d},), got {arr.shape}")
        std = self.config.roundtrip_noise_std
        rng = None
        if std > 0 or self.config.noise_policy == "resample":
            rng = np.random.default_rng(seed)
        factual = self._factual(rows[None])
        mask, values = _normalize_do(self.model, {} if do is None else do, len(rows))
        out = self._realise(factual.noise, mask, np.where(mask, values, factual.values), [rng])[0]
        if std > 0:
            out += rng.normal(0.0, std, out.shape)
        return out[0] if single else out

    def _realise(self, noise, mask, rows, seeds) -> np.ndarray:
        """Counterfactual chart rows of m independent blocks in one
        propagation, without the round-trip noise, written into rows.

        noise: _factual(base).noise of an (m, n, d) base stack, or of an
        (m, 1, d) one when every row of a block shares one factual row,
        read and never written. mask: the (m, n, d) clamped entries. rows:
        (m, n, d) floats, the do values under the mask and the base rows
        elsewhere, propagated in place and returned. seeds: one hashable
        seed per block (an int, a tuple of ints or a Generator). Block k
        equals query(base[k] repeated to n rows, (mask[k], rows[k]), seeds[k])
        less its round-trip draw, bit for bit on the builtin models; a
        shared row is abduced once, and BLAS may round that one row's
        contraction an ulp away from the same row among n (seen from d = 9
        on). Further:
        - under "resample", block k's fresh exogenous noise is the first
          draw of default_rng(seeds[k]); blocks with equal seeds share it;
        - every row contraction runs per block with the block's own shape
          (BLAS rounds a row differently with the number of rows it gets);
        - a row propagates its factual noise or, under "resample", the
          fresh noise on the closure of its own clamped columns. The blocks
          propagate together over the union of the closures of their
          clamped columns (clamped on any row, descendants included); a
          column outside its block's closure joins the mask, so it comes
          back as its entry in rows bit for bit. A block whose mask is
          empty has an empty closure.
        The rows must be finite.
        """
        m, n, d = rows.shape
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != rows.shape or noise.shape not in (rows.shape, (m, 1, d)):
            raise ValueError(f"do mask {mask.shape} and rows {rows.shape} must both have shape "
                             f"(m, n, d) for a noise of (m, 1 or n, d), got {noise.shape}")
        seeds = list(seeds)
        if len(seeds) != m:
            raise ValueError(f"{len(seeds)} seeds for {m} blocks")
        if not np.isfinite(rows).all():
            raise ValueError("oracle query do values must be finite where the mask is set")

        fresh = None  # drawn even for an empty closure: query draws after it
        if self.config.noise_policy == "resample":
            drawn = {s: self._charted.draw_noise(n, np.random.default_rng(s))
                     for s in dict.fromkeys(seeds)}
            fresh = np.stack([drawn[s] for s in seeds])
        closure = self._charted.closure((np.ones((1, n), dtype=bool) @ mask)[:, 0])
        if not closure.any():
            return rows
        if fresh is not None:
            noise = np.where(self._charted.closure(mask), fresh, noise)
        run = closure.any(axis=0)
        kept = (run & ~closure)[:, None]  # (m, 1, d); empty when m is 1
        if kept.any():
            mask = mask | kept
        # propagate writes into whole rows; the noise may broadcast
        return self._charted.propagate(noise, mask, rows, out=rows, nodes=run)

    def _factual(self, base) -> SampleSet:
        """Base rows checked and abduced once: (n, d) rows, n > 0, for
        _paired_change, or an (m, n, d) stack of blocks for _realise, each
        block contracted on its own (so an (m, 1, d) stack abduces every row
        as its own 1-row block). The rows must be finite."""
        base = np.ascontiguousarray(base, dtype=float)
        d = self.dim
        if base.ndim == 3:
            if base.shape[2] != d:
                raise ValueError(f"stacked base must have shape (m, n, {d}), got {base.shape}")
        elif base.ndim != 2 or base.shape[1] != d or not len(base):
            raise ValueError(f"base rows must have shape (n, {d}), got {base.shape}")
        if not np.isfinite(base).all():
            raise ValueError("oracle query base rows must be finite")
        return self._charted.abduce(base)

    def _paired_change(self, factual: SampleSet, mask, clamped, seed, read=None) -> np.ndarray:
        """query(base, do, seed) - query(base, None, seed) for factual =
        _factual(base), do clamping the (d,) mask's k columns to the (n, k)
        clamped values, in column order; the round-trip draw cancels and is
        not drawn. The clamped columns are written into a copy of the factual
        rows, never evaluated; the rest of their closure propagates. Given a
        column read, only its ancestors among those propagate (no other
        column enters their equations) and only its (n,) change returns."""
        n = len(factual.values)
        if mask.shape != (self.dim,) or clamped.shape != (n, np.count_nonzero(mask)):
            raise ValueError(f"do mask {mask.shape} and clamped columns {clamped.shape} must be "
                             f"({self.dim},) and ({n}, the mask's set count)")
        if not np.isfinite(clamped).all():
            raise ValueError("oracle query do values must be finite where the mask is set")
        closure = self._charted.closure(mask)
        noise = factual.noise
        if self.config.noise_policy == "resample":
            fresh = self._charted.draw_noise(n, np.random.default_rng(seed))
            noise = np.where(closure, fresh, noise)
        nodes = closure & ~mask
        if read is not None:
            nodes &= self._charted._reach[:, read] > 0
        out = factual.values.copy()
        out[:, mask] = clamped
        out = self._charted.propagate(noise, out=out, nodes=nodes)
        return out - factual.values if read is None else out[:, read] - factual.values[:, read]


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
        if not np.isfinite(w).all():
            raise ValueError("weights must be finite")
        if not np.isfinite(self.bias).all():
            raise ValueError("bias must be finite")
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

    def _class_probabilities(self, blocks: np.ndarray, classes: np.ndarray) -> np.ndarray:
        """probabilities(blocks)[k, :, classes[k]] for (c, n, d) blocks and
        (c,) classes, bit for bit. A binary head computes p once and takes
        1 - p, the ufunc probabilities applies, only where the class is 0."""
        if self.weights.ndim == 2:
            return self.probabilities(blocks)[np.arange(len(blocks)), :, classes]
        p = logistic(blocks @ self.weights + self.bias[0])
        return np.subtract(1.0, p, out=p, where=(classes == 0)[:, None])
