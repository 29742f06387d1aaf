"""Intervene-and-re-encode oracles over an aligned latent feature space.

An oracle accepts a latent vector plus an optional do-intervention and
returns the re-encoded latent vector: interventions are propagated to
descendants by the backing mechanism and i.i.d. Gaussian observation noise
models the encode round trip. Two concrete oracles are provided (simulator
backed and linear SEM) plus a linear-logistic classifier head.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .graph import CausalGraph
from .scm import ScmModel

_STANDARDIZE_DRAWS = 4096


@dataclass(frozen=True)
class OracleConfig:
    """Observable semantics of the re-encode round trip.

    roundtrip_noise_std: per-coordinate Gaussian observation noise.
    noise_policy: "fixed" reuses the exogenous noise abducted from the base
        row (counterfactual propagation); "resample" draws fresh noise.
    standardize: present latents in a z-scored chart (simulator oracle only);
        chart constants are estimated once at construction.
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


@dataclass(frozen=True)
class LatentVector:
    """Aligned feature vector; first observed_count positions are context-aligned."""

    values: np.ndarray
    observed_count: int

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1:
            raise ValueError("latent vector must be one-dimensional")
        object.__setattr__(self, "values", values)
        if not 0 <= self.observed_count <= values.size:
            raise ValueError("observed_count out of range")

    @property
    def dim(self) -> int:
        return self.values.size

    @property
    def observed(self) -> np.ndarray:
        return self.values[: self.observed_count]

    @property
    def unobserved(self) -> np.ndarray:
        return self.values[self.observed_count :]


def _seed_key(seed, k: int):
    """Blocks whose seeds share a key share their draws.

    Integer seeds and lists or tuples of them are keyed by value; any other
    seed (None, an array, a SeedSequence or a Generator) gets the block's
    own index, so its block draws alone.
    """
    return repr(seed) if isinstance(seed, (int, np.integer, list, tuple)) else k


class Oracle:
    """Base query plumbing shared by the concrete oracles.

    Subclasses implement ``_draw_noise(n, rng)`` returning (n, d) exogenous
    noise and ``_propagate(base, do_mask, do_values, noise)`` returning the
    noiseless intervened rows in the oracle's latent chart. noise is None
    under the "fixed" policy (the rows' own noise is abducted) and do_mask
    is None without an intervention. Both take (..., n, d) stacks of blocks.
    Queries are pure: identical (base, do, seed) give identical output.
    """

    labels: tuple[str, ...]
    observed_count: int
    config: OracleConfig

    @property
    def dim(self) -> int:
        return len(self.labels)

    def index_of(self, feature) -> int:
        if isinstance(feature, str):
            if feature not in self.labels:
                raise ValueError(
                    f"unknown feature {feature!r}; known features: {list(self.labels)}"
                )
            return self.labels.index(feature)
        idx = int(feature)
        if not 0 <= idx < self.dim:
            raise ValueError(f"feature index {idx} out of range for dimension {self.dim}")
        return idx

    def normalize_do(
        self, do, n: int
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Accepts None, {feature: scalar | (n,) array}, or a (mask, values) pair."""
        if do is None:
            return None
        if isinstance(do, tuple):
            mask, values = do
            mask = np.broadcast_to(np.asarray(mask, dtype=bool), (n, self.dim)).copy()
            values = np.broadcast_to(np.asarray(values, dtype=float), (n, self.dim)).copy()
            if not mask.any():
                return None
            return mask, values
        if not do:
            return None
        mask = np.zeros((n, self.dim), dtype=bool)
        values = np.zeros((n, self.dim), dtype=float)
        for key, val in do.items():
            idx = self.index_of(key)
            mask[:, idx] = True
            values[:, idx] = val  # a scalar or an (n,) array
        return mask, values

    def sample_latents(self, n: int, seed) -> np.ndarray:
        raise NotImplementedError

    def _draw_noise(self, n: int, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def _propagate(self, base, do_mask, do_values, noise) -> np.ndarray:
        raise NotImplementedError

    def query(self, base: np.ndarray, do=None, seed=0) -> np.ndarray:
        """Re-encode base rows under an optional intervention.

        base: (d,) or (n, d) latent rows in the oracle's chart. Returns the
        intervened, noise-perturbed rows with matching shape. This is
        query_stacked with a single block.
        """
        arr = np.asarray(base, dtype=float)
        single = arr.ndim == 1
        rows = np.atleast_2d(arr)
        norm = self.normalize_do(do, rows.shape[0])
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
        - a block whose mask is empty takes the no-intervention path.
        """
        base = np.ascontiguousarray(base, dtype=float)
        if base.ndim != 3 or base.shape[2] != self.dim:
            raise ValueError(f"stacked base must have shape (m, n, {self.dim}), got {base.shape}")
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
            active = mask.any(axis=(1, 2))
            n_active = np.count_nonzero(active)
            if not n_active:
                mask = values = None

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

        def rows(a):  # one block propagates as plain (n, d) rows: cheaper indexing
            return a[0] if m == 1 and a is not None else a

        noise = per_block(lambda rng: self._draw_noise(n, rng)) if resample else None
        out = self._propagate(rows(base), rows(mask), rows(values), rows(noise))
        out = out.reshape(base.shape)
        if mask is not None and noise is None and n_active < m:
            out[~active] = base[~active]  # fixed noise, no intervention: identity
        if std > 0:
            out = out + per_block(lambda rng: rng.normal(0.0, std, (n, d)))
        return out

    def query_latent(self, latent: LatentVector, do=None, seed=0) -> LatentVector:
        if latent.dim != self.dim:
            raise ValueError(f"latent dimension {latent.dim} != oracle dimension {self.dim}")
        return LatentVector(self.query(latent.values, do, seed), self.observed_count)

    def ground_truth_graph(self) -> CausalGraph:
        raise NotImplementedError("this oracle has no known ground truth")


class ScmOracle(Oracle):
    """Oracle backed by a structural causal model.

    With standardize=True (default) the latent chart is the z-scored feature
    space: chart constants come from a fixed-size observational draw, the
    ±1 intervention convention then moves each feature by one observational
    standard deviation. With standardize=False the chart is the raw feature
    space and queries agree exactly with the model counterfactual at zero
    observation noise.
    """

    def __init__(self, model: ScmModel, config: OracleConfig | None = None):
        self.model = model
        self.config = config or OracleConfig()
        self.labels = tuple(model.labels)
        self.observed_count = model.context_count
        if self.config.standardize:
            ref = model.sample(_STANDARDIZE_DRAWS, [self.config.seed, 0x5CA1E])
            mu = ref.values.mean(axis=0)
            sigma = ref.values.std(axis=0)
            sigma[sigma < 1e-9] = 1.0  # degenerate columns keep raw units
        else:
            mu = np.zeros(model.n_nodes)
            sigma = np.ones(model.n_nodes)
        self.chart_mean = mu
        self.chart_scale = sigma

    def to_chart(self, raw: np.ndarray) -> np.ndarray:
        return (np.asarray(raw, dtype=float) - self.chart_mean) / self.chart_scale

    def to_raw(self, chart: np.ndarray) -> np.ndarray:
        return np.asarray(chart, dtype=float) * self.chart_scale + self.chart_mean

    def sample_latents(self, n: int, seed) -> np.ndarray:
        return self.to_chart(self.model.sample(n, seed).values)

    def _draw_noise(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.model.draw_noise(n, rng)

    def _propagate(self, base, do_mask, do_values, noise) -> np.ndarray:
        if noise is None:
            if do_mask is None:
                return np.asarray(base, dtype=float).copy()
            noise = self.model.abduce(self.to_raw(base)).noise
        if do_mask is None:
            return self.to_chart(self.model.propagate(noise))
        return self.to_chart(self.model.propagate(noise, do_mask, self.to_raw(do_values)))

    def ground_truth_graph(self) -> CausalGraph:
        return self.model.ground_truth_graph()


class LinearOracle(Oracle):
    """Linear-SEM oracle: x_j = sum_k w[k, j] x_k + noise, weights a DAG."""

    def __init__(
        self,
        weights: np.ndarray,
        config: OracleConfig | None = None,
        exo_noise_std: float = 1.0,
        labels=None,
    ):
        weights = np.asarray(weights, dtype=float)
        if weights.ndim != 2 or weights.shape[0] != weights.shape[1]:
            raise ValueError("weights must be a square matrix")
        d = weights.shape[0]
        if np.any(np.diag(weights) != 0):
            raise ValueError("self-weights must be zero")
        adjacency = CausalGraph(
            [f"x{k}" for k in range(d)],
            {(i, j): weights[i, j] for i in range(d) for j in range(d) if weights[i, j] != 0},
        )
        self._topo = adjacency.topological_order()  # raises on cyclic weights
        self.weights = weights
        self.config = config or OracleConfig()
        self.labels = tuple(labels) if labels is not None else tuple(f"x{k}" for k in range(d))
        if len(self.labels) != d:
            raise ValueError("labels length must match dimension")
        self.observed_count = d
        if exo_noise_std < 0:
            raise ValueError("exo_noise_std must be >= 0")
        self.exo_noise_std = float(exo_noise_std)

    def _forward(self, noise, do_mask=None, do_values=None) -> np.ndarray:
        out = np.zeros_like(noise)
        for v in self._topo:
            mech = out @ self.weights[:, v] + noise[..., v]
            if do_mask is not None:
                out[..., v] = np.where(do_mask[..., v], do_values[..., v], mech)
            else:
                out[..., v] = mech
        return out

    def sample_latents(self, n: int, seed) -> np.ndarray:
        rng = np.random.default_rng(seed)
        noise = rng.normal(0.0, self.exo_noise_std, (n, self.dim))
        return self._forward(noise)

    def _draw_noise(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.normal(0.0, self.exo_noise_std, (n, self.dim))

    def _propagate(self, base, do_mask, do_values, noise) -> np.ndarray:
        base = np.asarray(base, dtype=float)
        if noise is None:
            if do_mask is None:
                return base.copy()
            noise = base - base @ self.weights  # exact abduction
        return self._forward(noise, do_mask, do_values)

    def ground_truth_graph(self) -> CausalGraph:
        edges = {
            (i, j): self.weights[i, j]
            for i in range(self.dim)
            for j in range(self.dim)
            if self.weights[i, j] != 0
        }
        return CausalGraph(list(self.labels), edges)

    @classmethod
    def from_json_dict(cls, doc: dict, config: OracleConfig | None = None) -> "LinearOracle":
        d = int(doc["dim"])
        weights = np.zeros((d, d))
        for e in doc.get("edges", []):
            weights[int(e["from"]), int(e["to"])] = float(e["weight"])
        return cls(weights, config, exo_noise_std=float(doc.get("noise_std", 1.0)))

    @classmethod
    def from_json(cls, text: str, config: OracleConfig | None = None) -> "LinearOracle":
        return cls.from_json_dict(json.loads(text), config)


def scm_oracle(model: ScmModel, config: OracleConfig | None = None) -> ScmOracle:
    return ScmOracle(model, config)


def linear_oracle(weights: np.ndarray, config: OracleConfig | None = None, **kwargs) -> LinearOracle:
    return LinearOracle(weights, config, **kwargs)


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
            z = rows @ self.weights + self.bias[0]
            # numerically stable logistic pair
            znorm = np.clip(z, -700, 700)
            p = 1.0 / (1.0 + np.exp(-znorm))
            probs = np.stack([1.0 - p, p], axis=-1)
        else:
            z = rows @ self.weights.T + self.bias
            z = z - z.max(axis=-1, keepdims=True)
            e = np.exp(z)
            probs = e / e.sum(axis=-1, keepdims=True)
        return probs[0] if single else probs


def classify(head: ClassifierHead, latent: LatentVector | np.ndarray) -> np.ndarray:
    values = latent.values if isinstance(latent, LatentVector) else latent
    return head.probabilities(values)
