"""Intervene-and-re-encode oracle over an aligned latent feature space.

An oracle accepts a latent vector plus an optional do-intervention and
returns the re-encoded latent vector: interventions are propagated to
descendants by the backing structural causal model and i.i.d. Gaussian
observation noise models the encode round trip. Queries and discovery
share one propagation; lime's per-row masks run stacked in another. A
linear SEM is an ScmModel too (ScmModel.linear), so one Oracle class
serves both. A linear-logistic classifier head reads the latent space.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scm import SampleSet, ScmModel, logistic

_STANDARDIZE_DRAWS = 4096


def _check_seed(seed) -> None:
    """A stage config's seed rule; a bool is an int to isinstance, but not a seed."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


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
            raise ValueError(f"roundtrip_noise_std must be >= 0 and finite, "
                             f"got {self.roundtrip_noise_std}")
        if self.noise_policy not in ("fixed", "resample"):
            raise ValueError(f"noise_policy must be one of ('fixed', 'resample'), "
                             f"got {self.noise_policy!r}")
        _check_seed(self.seed)


def _normalize_do(model: ScmModel, do, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (d,) mask and (n, k) clamped columns, in column order, of do:
    {node: scalar | (n,) array} with nodes given as in ScmModel.node_index
    ({} intervenes on nothing) and no node named twice, each clamped on
    every row."""
    if not isinstance(do, dict):
        raise ValueError(f"do must be a dict {{node: scalar or ({n},) array}}, "
                         f"got {type(do).__name__}")
    mask, values = np.zeros(model.n_nodes, dtype=bool), np.empty((n, model.n_nodes))
    for key, val in do.items():
        idx = model.node_index(key)
        if mask[idx]:
            raise ValueError(f"do names node {idx} ({model.labels[idx]!r}) twice")
        if np.shape(val) not in ((), (n,)):
            raise ValueError(f"do value of node {key!r} must be a scalar or have shape "
                             f"({n},), got {np.shape(val)}")
        mask[idx] = True
        values[:, idx] = val
    return mask, values[:, mask]


class Oracle:
    """Oracle backed by a structural causal model.

    With standardize=True (default) the latent chart is the z-scored feature
    space, so ±1 interventions move a feature by one observational standard
    deviation; the model is rewritten once in chart coordinates, with the
    constants of a fixed-size observational draw, and queries run on it.
    With standardize=False the chart is the raw feature space. A query is
    the counterfactual: the base rows' abduced noise ("resample": fresh
    noise on the closure) propagated with the intervened columns clamped
    on every row, evaluated only on the descendants of the clamped columns
    (every other feature keeps its base value bit for bit). Queries are
    pure: identical (base, do, seed) give identical output.
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
            bad = ~(np.isfinite(self.chart_mean) & np.isfinite(self.chart_scale))
            if bad.any():
                k = int(np.argmax(bad))
                raise ValueError(f"chart of column {self.labels[k]!r} must have a finite mean and "
                                 f"spread, got {self.chart_mean[k]} and {self.chart_scale[k]}")
            self._charted = model.rescaled(self.chart_mean, self.chart_scale)

    @property
    def dim(self) -> int:
        return len(self.labels)

    def sample_latents(self, n: int, seed) -> np.ndarray:
        raw = self.model.sample(n, seed).values
        return (raw - self.chart_mean) / self.chart_scale if self.config.standardize else raw

    def query(self, base: np.ndarray, do=None, seed=0) -> np.ndarray:
        """Re-encode base rows under an optional intervention.

        base: (d,) or (n, d) latent rows in the oracle's chart, n > 0; do:
        None (no intervention) or the dict _normalize_do takes, its values
        in the chart. Returns _counterfactual of the base rows plus the
        round-trip noise, with matching shape. One default_rng(seed) draws
        first the exogenous noise ("resample" policy), then the round-trip
        noise. Two queries under one int, int sequence or SeedSequence s
        share their draws: query(base, do, s) and query(base, None, s)
        differ by exactly 0.0 off do's closure. At roundtrip_noise_std 0
        nothing is added, so a -0.0 off the closure stays -0.0.
        """
        arr = np.asarray(base, dtype=float)
        single = arr.ndim == 1
        rows = np.atleast_2d(arr)
        if rows.ndim != 2 or rows.shape[1] != self.dim:
            d = self.dim
            raise ValueError(f"base rows must have shape (n, {d}) or ({d},), got {arr.shape}")
        factual = self._factual(rows)
        mask, clamped = _normalize_do(self.model, {} if do is None else do, len(rows))
        std = self.config.roundtrip_noise_std
        rng = np.random.default_rng(seed) if std > 0 else seed
        out = self._counterfactual(factual, mask, clamped, rng)
        if std > 0:
            out += rng.normal(0.0, std, out.shape)
        return out[0] if single else out

    def _realise(self, noise, mask, rows, seeds) -> np.ndarray:
        """Counterfactual chart rows of m independent blocks of per-row
        masks (lime's perturbations) in one propagation, written into rows.

        noise: _factual(base).noise of an (m, n, d) base stack, or of an
        (m, 1, d) one when every row of a block shares one factual row,
        read and never written. mask: the (m, n, d) clamped entries. rows:
        (m, n, d) floats, the do values under the mask and the base rows
        elsewhere, propagated in place and returned. seeds: one int or
        tuple of ints per block. Block k equals block k realised alone
        (m = 1) bit for bit. A block alone propagates, on the closure of
        its clamped columns (clamped on any row, descendants included),
        each row's factual noise or, under "resample", the first draw of
        default_rng(seeds[k]) on the closure of the row's own clamped
        columns (equal seeds share it; nothing is drawn when no block
        clamps anything), every row contraction with the block's own shape
        (BLAS rounds a row by the number of rows it gets). A clamped entry
        and a column off that closure come back as their entry in rows,
        bit for bit. A shared factual row is abduced once, and BLAS may
        round its contraction an ulp away from the same row among n (seen
        from d = 9 on). The rows must be finite.
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

        closure = self._charted.closure((np.ones((1, n), dtype=bool) @ mask)[:, 0])
        if not closure.any():
            return rows
        if self.config.noise_policy == "resample":
            drawn = {s: self._charted.draw_noise(n, np.random.default_rng(s))
                     for s in dict.fromkeys(seeds)}
            fresh = np.stack([drawn[s] for s in seeds])
            noise = np.where(self._charted.closure(mask), fresh, noise)
        run = closure.any(axis=0)
        kept = (run & ~closure)[:, None]  # (m, 1, d); empty when m is 1
        if kept.any():
            mask = mask | kept
        # propagate writes into whole rows; the noise may broadcast
        return self._charted.propagate(noise, mask, out=rows, nodes=run)

    def _factual(self, base) -> SampleSet:
        """Base rows checked and abduced once: (n, d) rows, n > 0, for
        _counterfactual, or an (m, n, d) stack of blocks for _realise, each
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

    def _counterfactual(self, factual: SampleSet, mask, clamped, seed, read=None) -> np.ndarray:
        """The counterfactual rows of factual = _factual(base), clamping the
        (d,) mask's k columns to the (n, k) clamped values in column order,
        without the round-trip draw: the one propagation of queries and of
        discovery. The clamped columns are written into a copy of the
        factual rows, never evaluated; the rest of their closure propagates
        the factual noise or, under "resample", the first draw of
        default_rng(seed) there, drawn even for an empty mask. Given a
        column read, only its ancestors among those propagate (no other
        column enters their equations) and only its (n,) column returns."""
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
        return out if read is None else out[:, read]

    def _paired_change(self, factual: SampleSet, mask, clamped, seed, read=None) -> np.ndarray:
        """query(base, do, seed) - query(base, None, seed): _counterfactual's
        rows, or column read, less the factual ones. The round-trip draw
        cancels and is not drawn."""
        out = self._counterfactual(factual, mask, clamped, seed, read)
        return out - (factual.values if read is None else factual.values[:, read])


class ClassifierHead:
    """Linear-logistic head over the latent space.

    A 1-d weight vector and a scalar bias give the binary head [1 - p, p]
    with p = sigmoid(w . l + b); an (n_classes, d) matrix, n_classes >= 2,
    gives a softmax head with one bias, or one per class. The weights set
    n_classes.
    """

    def __init__(self, weights, bias=0.0):
        w = np.asarray(weights, dtype=float)
        if w.ndim not in (1, 2):
            raise ValueError("weights must be a vector or a matrix")
        if w.ndim == 2 and w.shape[0] < 2:
            raise ValueError(
                f"softmax head needs at least 2 classes, one weight row each; got {w.shape[0]}"
            )
        self.n_classes = w.shape[0] if w.ndim == 2 else 2
        b = np.asarray(bias, dtype=float)
        shapes = [(), (self.n_classes,)][: w.ndim]  # a binary head takes one bias
        if b.shape not in shapes:
            need = f"or one per weight row ({w.shape[0]})" if w.ndim == 2 else "for vector weights"
            raise ValueError(f"bias shape {b.shape} is not one of {shapes}: a number {need}")
        self.bias = np.broadcast_to(b, self.n_classes if w.ndim == 2 else 1).copy()
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
