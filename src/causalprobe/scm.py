"""Synthetic structural causal models over morphological digit features.

Each model is an ordered list of structural equations x_v = f_v(parents) + eps_v
with explicitly parameterized noise, supporting ancestral sampling,
fixed-noise counterfactuals (abduction over the additive noise), and
ground-truth DAG export. Four builtin models cover the thickness /
intensity / slant / width worlds used throughout the test suite.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np
from scipy.special import expit

from .graph import CausalGraph

BUILTIN_NAMES = ("TI", "IT", "TS", "TSWI")


@dataclass(frozen=True)
class NoiseSpec:
    """Exogenous noise description: family tag plus family-specific params.

    Families: gamma(shape, rate), normal(std), uniform(low, high),
    degenerate-zero().
    """

    family: str
    params: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        fam, p = self.family, self.params
        if fam == "gamma":
            if len(p) != 2 or p[0] <= 0 or p[1] <= 0:
                raise ValueError(f"gamma noise requires shape > 0 and rate > 0, got {p}")
        elif fam == "normal":
            if len(p) != 1 or p[0] < 0:
                raise ValueError(f"normal noise requires std >= 0, got {p}")
        elif fam == "uniform":
            if len(p) != 2 or not p[0] < p[1]:
                raise ValueError(f"uniform noise requires low < high, got {p}")
        elif fam == "degenerate-zero":
            if p:
                raise ValueError("degenerate-zero noise takes no params")
        else:
            raise ValueError(f"unknown noise family {fam!r}")

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.family == "gamma":
            shape, rate = self.params
            return rng.gamma(shape, 1.0 / rate, n)
        if self.family == "normal":
            return rng.normal(0.0, self.params[0], n)
        if self.family == "uniform":
            return rng.uniform(self.params[0], self.params[1], n)
        return np.zeros(n)

    def to_json_dict(self) -> dict:
        return {"family": self.family, "params": list(self.params)}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "NoiseSpec":
        return cls(doc["family"], tuple(doc["params"]))


ZERO_NOISE = NoiseSpec("degenerate-zero")


@dataclass(frozen=True)
class Mechanism:
    """Closed-form mechanism: const + linear.parents + sig_scale*sigmoid(affine).

    Covers the three expression tags used by the builtin models:
    "affine" (no sigmoid term), "affine-of-sigmoid" (sigmoid term only),
    and "composite" (both).
    """

    const: float = 0.0
    linear: tuple[float, ...] = ()
    sig_scale: float = 0.0
    sig_bias: float = 0.0
    sig_linear: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "linear", tuple(float(c) for c in self.linear))
        object.__setattr__(self, "sig_linear", tuple(float(c) for c in self.sig_linear))

    @property
    def kind(self) -> str:
        has_lin = any(c != 0.0 for c in self.linear)
        has_sig = self.sig_scale != 0.0
        if has_sig and has_lin:
            return "composite"
        if has_sig:
            return "affine-of-sigmoid"
        return "affine"

    def arity(self) -> int:
        return max(len(self.linear), len(self.sig_linear))

    def evaluate(self, parent_values: np.ndarray) -> np.ndarray:
        """parent_values: (..., n, k) columns in parent order; returns (..., n).

        Leading axes stack independent (n, k) blocks; each block's
        contraction is its own matmul, so a block's result does not depend
        on what it is stacked with.
        """
        parent_values = np.asarray(parent_values, dtype=float)
        shape = parent_values.shape[:-1]
        out = np.full(shape, self.const, dtype=float)
        if self.linear:
            out += parent_values[..., : len(self.linear)] @ np.asarray(self.linear)
        if self.sig_scale != 0.0:
            arg = np.full(shape, self.sig_bias, dtype=float)
            if self.sig_linear:
                arg += parent_values[..., : len(self.sig_linear)] @ np.asarray(self.sig_linear)
            out += self.sig_scale * expit(arg)
        return out

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "coeffs": {
                "const": self.const,
                "linear": list(self.linear),
                "sig_scale": self.sig_scale,
                "sig_bias": self.sig_bias,
                "sig_linear": list(self.sig_linear),
            },
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Mechanism":
        c = doc["coeffs"]
        return cls(
            const=c["const"],
            linear=tuple(c["linear"]),
            sig_scale=c["sig_scale"],
            sig_bias=c["sig_bias"],
            sig_linear=tuple(c["sig_linear"]),
        )


@dataclass(frozen=True)
class StructuralEquation:
    node: int
    parents: tuple[int, ...]
    mechanism: Mechanism
    noise: NoiseSpec

    def __post_init__(self):
        object.__setattr__(self, "parents", tuple(int(p) for p in self.parents))
        if any(p >= self.node for p in self.parents):
            raise ValueError(
                f"equation for node {self.node}: parents {self.parents} must "
                "precede the node in topological order"
            )
        if self.mechanism.arity() > len(self.parents):
            raise ValueError(
                f"equation for node {self.node}: mechanism expects "
                f"{self.mechanism.arity()} parents, got {len(self.parents)}"
            )


@dataclass(frozen=True)
class SampleSet:
    """Ancestral samples with their exogenous noise realizations retained."""

    values: np.ndarray  # (n, d)
    noise: np.ndarray   # (n, d)

    def __post_init__(self):
        if self.values.shape != self.noise.shape:
            raise ValueError("values and noise shapes differ")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def row(self, k: int) -> "SampleSet":
        return SampleSet(self.values[k : k + 1].copy(), self.noise[k : k + 1].copy())


@dataclass(frozen=True)
class ScmModel:
    """Immutable structural causal model with one equation per node."""

    name: str
    labels: tuple[str, ...]
    equations: tuple[StructuralEquation, ...]
    context_count: int = -1  # -1 means all features observed

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "equations", tuple(self.equations))
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("node labels must be unique")
        if len(self.equations) != len(self.labels):
            raise ValueError("exactly one equation per node is required")
        for k, eq in enumerate(self.equations):
            if eq.node != k:
                raise ValueError(
                    f"equations must be ordered by node id; position {k} holds node {eq.node}"
                )
        if self.context_count == -1:
            object.__setattr__(self, "context_count", len(self.labels))
        if not 0 <= self.context_count <= len(self.labels):
            raise ValueError("context_count out of range")

    @property
    def n_nodes(self) -> int:
        return len(self.labels)

    def node_index(self, node) -> int:
        if isinstance(node, str):
            if node not in self.labels:
                raise ValueError(f"unknown node {node!r}; known nodes: {list(self.labels)}")
            return self.labels.index(node)
        node = int(node)
        if not 0 <= node < self.n_nodes:
            raise ValueError(f"node index {node} out of range for {self.n_nodes} nodes")
        return node

    def _normalize_do(self, do, n: int) -> tuple[np.ndarray, np.ndarray] | None:
        """Turn {node: scalar | (n,) array} into a (mask, values) pair."""
        if not do:
            return None
        mask = np.zeros((n, self.n_nodes), dtype=bool)
        values = np.zeros((n, self.n_nodes), dtype=float)
        for key, val in do.items():
            idx = self.node_index(key)
            mask[:, idx] = True
            values[:, idx] = np.broadcast_to(np.asarray(val, dtype=float), (n,))
        return mask, values

    def propagate(
        self,
        noise: np.ndarray,
        do_mask: np.ndarray | None = None,
        do_values: np.ndarray | None = None,
    ) -> np.ndarray:
        """Evaluate all equations in topological order against given noise.

        noise is (..., n, d): leading axes stack independent blocks of rows.
        Intervened entries (do_mask True) are clamped to do_values and their
        descendants see the clamped value.
        """
        noise = np.asarray(noise, dtype=float)
        out = np.empty_like(noise)
        for eq in self.equations:
            mech = eq.mechanism.evaluate(out[..., list(eq.parents)]) + noise[..., eq.node]
            if do_mask is not None:
                out[..., eq.node] = np.where(do_mask[..., eq.node], do_values[..., eq.node], mech)
            else:
                out[..., eq.node] = mech
        return out

    def draw_noise(self, n: int, rng: np.random.Generator) -> np.ndarray:
        cols = [eq.noise.draw(rng, n) for eq in self.equations]
        return np.column_stack(cols)

    def sample(self, n: int, seed) -> SampleSet:
        """Ancestral samples; deterministic (bit-identical) given the seed."""
        if n < 1:
            raise ValueError("n must be >= 1")
        rng = np.random.default_rng(seed)
        noise = self.draw_noise(n, rng)
        return SampleSet(self.propagate(noise), noise)

    def abduce(self, values: np.ndarray) -> SampleSet:
        """Recover exogenous noise exactly from observed rows (additive noise).

        values is (n, d) or a (..., n, d) stack of blocks, as in propagate.
        """
        values = np.atleast_2d(np.asarray(values, dtype=float))
        noise = np.empty_like(values)
        for eq in self.equations:
            noise[..., eq.node] = values[..., eq.node] - eq.mechanism.evaluate(
                values[..., list(eq.parents)]
            )
        return SampleSet(values.copy(), noise)

    def counterfactual(self, base: SampleSet, do: Mapping | None = None) -> np.ndarray:
        """Clamp intervened nodes, recompute descendants reusing stored noise.

        With an empty intervention set this is the identity on base.values.
        """
        if not do:
            return base.values.copy()
        norm = self._normalize_do(do, base.n)
        mask, values = norm
        return self.propagate(base.noise, mask, values)

    def ground_truth_graph(self) -> CausalGraph:
        edges = {}
        for eq in self.equations:
            for p in eq.parents:
                edges[(p, eq.node)] = 1.0
        return CausalGraph(list(self.labels), edges)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "nodes": [{"id": k, "label": lab} for k, lab in enumerate(self.labels)],
            "context_count": self.context_count,
            "equations": [
                {
                    "node": eq.node,
                    "parents": list(eq.parents),
                    "mechanism": eq.mechanism.to_json_dict()["kind"],
                    "coeffs": eq.mechanism.to_json_dict()["coeffs"],
                    "noise": eq.noise.to_json_dict(),
                }
                for eq in self.equations
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ScmModel":
        nodes = sorted(doc["nodes"], key=lambda d: d["id"])
        labels = tuple(str(d["label"]) for d in nodes)
        equations = tuple(
            StructuralEquation(
                node=e["node"],
                parents=tuple(e["parents"]),
                mechanism=Mechanism.from_json_dict({"coeffs": e["coeffs"]}),
                noise=NoiseSpec.from_json_dict(e["noise"]),
            )
            for e in sorted(doc["equations"], key=lambda d: d["node"])
        )
        return cls(
            name=doc["name"],
            labels=labels,
            equations=equations,
            context_count=doc.get("context_count", -1),
        )

    @classmethod
    def from_json(cls, text: str) -> "ScmModel":
        return cls.from_json_dict(json.loads(text))


def _builtin_table() -> dict[str, tuple[tuple[str, ...], tuple[StructuralEquation, ...]]]:
    # thickness/intensity/slant/width worlds; root thickness noise is
    # gamma(10, 5) in every variant that draws it
    ti = (
        ("t", "i"),
        (
            StructuralEquation(0, (), Mechanism(const=0.5), NoiseSpec("gamma", (10, 5))),
            StructuralEquation(
                1,
                (0,),
                Mechanism(const=64, sig_scale=191, sig_bias=-5.0, sig_linear=(2.0,)),
                NoiseSpec("normal", (1.0,)),
            ),
        ),
    )
    it = (
        ("i", "t"),
        (
            StructuralEquation(0, (), Mechanism(), NoiseSpec("uniform", (60, 255))),
            StructuralEquation(
                1,
                (0,),
                Mechanism(const=3, sig_scale=1, sig_bias=0.0, sig_linear=(1 / 255,)),
                NoiseSpec("normal", (0.5,)),
            ),
        ),
    )
    ts = (
        ("t", "s"),
        (
            StructuralEquation(0, (), Mechanism(), NoiseSpec("gamma", (10, 5))),
            StructuralEquation(
                1,
                (0,),
                Mechanism(const=10, sig_scale=5, sig_bias=-5.0, sig_linear=(2.0,)),
                NoiseSpec("normal", (0.5,)),
            ),
        ),
    )
    tswi = (
        ("t", "s", "w", "i"),
        (
            StructuralEquation(0, (), Mechanism(), NoiseSpec("gamma", (10, 5))),
            StructuralEquation(
                1, (0,), Mechanism(const=10, linear=(20.0,)), NoiseSpec("normal", (5.0,))
            ),
            StructuralEquation(
                2,
                (0, 1),
                Mechanism(
                    const=10,
                    linear=(0.0, -0.25),
                    sig_scale=15,
                    sig_bias=0.0,
                    sig_linear=(0.5, 0.0),
                ),
                NoiseSpec("normal", (1.0,)),
            ),
            StructuralEquation(
                3,
                (2,),
                Mechanism(const=64, sig_scale=191, sig_bias=0.0, sig_linear=(1 / 25,)),
                NoiseSpec("normal", (1.0,)),
            ),
        ),
    )
    return {"TI": ti, "IT": it, "TS": ts, "TSWI": tswi}


def builtin(
    name: str,
    noise_overrides: Mapping[str, NoiseSpec] | None = None,
    mechanism_overrides: Mapping[str, Mechanism] | None = None,
) -> ScmModel:
    """Construct one of the four builtin models (TI, IT, TS, TSWI).

    Distribution and mechanism parameters are overridable per node label so
    alternate parameterizations can be exercised without code changes.
    """
    table = _builtin_table()
    if name not in table:
        raise ValueError(f"unknown builtin model {name!r}; choose one of {BUILTIN_NAMES}")
    labels, equations = table[name]
    eqs = list(equations)
    for key, spec in (noise_overrides or {}).items():
        idx = labels.index(key) if key in labels else -1
        if idx < 0:
            raise ValueError(f"noise override for unknown node {key!r}")
        eqs[idx] = replace(eqs[idx], noise=spec)
    for key, mech in (mechanism_overrides or {}).items():
        idx = labels.index(key) if key in labels else -1
        if idx < 0:
            raise ValueError(f"mechanism override for unknown node {key!r}")
        eqs[idx] = replace(eqs[idx], mechanism=mech)
    return ScmModel(name=name, labels=labels, equations=tuple(eqs))
