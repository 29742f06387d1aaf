"""Synthetic structural causal models over morphological digit features.

Each model holds one structural equation x_v = f_v(parents) + eps_v per
node, with explicitly parameterized noise, supporting ancestral sampling,
abduction of the additive noise, propagation under clamped nodes (from
zeros, or from given rows over a subset of the nodes), the descendant
closure of a node set, and ground-truth DAG export. The oracle builds its
counterfactuals from these: propagation starts from the
factual rows and evaluates only the closure of the clamped nodes. Four
builtin models cover the thickness / intensity / slant / width worlds used
throughout the test suite, and ScmModel.linear builds a linear SEM from a
weight matrix.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .graph import CausalGraph, _topological_order

BUILTIN_NAMES = ("TI", "IT", "TS", "TSWI")


def logistic(z):
    """The logistic sigmoid 1 / (1 + exp(-z)), elementwise.

    z is clipped to [-700, 700] first, so exp never overflows and the result
    is finite and within [0, 1] for every finite z. The clip is np.maximum
    then np.minimum: np.clip's bits, NaN included, at less call overhead.
    """
    return 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(z, -700.0), 700.0)))


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


@dataclass(frozen=True)
class StructuralEquation:
    """x_node = const + linear.parents + sig_scale*logistic(sig_bias + sig_linear.parents) + noise.

    linear and sig_linear each hold no coefficient (the term is absent) or
    one per parent, in the order of parents. Pure data: ScmModel compiles
    its equations into dense coefficient arrays and evaluates those.
    """

    node: int
    parents: tuple[int, ...]
    noise: NoiseSpec
    const: float = 0.0
    linear: tuple[float, ...] = ()
    sig_scale: float = 0.0
    sig_bias: float = 0.0
    sig_linear: tuple[float, ...] = ()

    def __post_init__(self):
        parents = tuple(int(p) for p in self.parents if isinstance(p, (int, np.integer)))
        if len(parents) != len(self.parents) or len(set(parents)) != len(parents):
            raise ValueError(
                f"equation for node {self.node}: parents must be distinct integers, "
                f"got {list(self.parents)}"
            )
        object.__setattr__(self, "parents", parents)
        for field in ("linear", "sig_linear"):
            coeffs = tuple(float(c) for c in getattr(self, field))
            if coeffs and len(coeffs) != len(parents):
                raise ValueError(
                    f"equation for node {self.node}: {field} must hold no coefficient or one "
                    f"per parent ({len(parents)}), got {len(coeffs)}"
                )
            object.__setattr__(self, field, coeffs)


@dataclass(frozen=True)
class SampleSet:
    """Ancestral samples with their exogenous noise realizations retained."""

    values: np.ndarray  # (n, d)
    noise: np.ndarray   # (n, d)

    def __post_init__(self):
        if self.values.shape != self.noise.shape:
            raise ValueError("values and noise shapes differ")


@dataclass(frozen=True)
class ScmModel:
    """Immutable structural causal model with one equation per node.

    Parents may carry any node id, as long as the equations form a DAG. At
    construction the equations are compiled once into dense coefficient
    arrays (const, linear matrix, sigmoid scale/bias and sigmoid matrix),
    which propagate and abduce evaluate, and the graph's closure is taken
    once: it gives the topological order propagate follows and the
    descendant sets closure reads.
    """

    name: str
    labels: tuple[str, ...]
    equations: tuple[StructuralEquation, ...]

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
        reach = self.ground_truth_graph().reach()
        order = _topological_order(reach)  # raises on a cycle
        d = len(self.labels)
        const, lin = np.zeros(d), np.zeros((d, d))
        sig_scale, sig_bias, sig_lin = np.zeros(d), np.zeros(d), np.zeros((d, d))
        for eq in self.equations:
            v = eq.node
            const[v], sig_scale[v], sig_bias[v] = eq.const, eq.sig_scale, eq.sig_bias
            for p, c in zip(eq.parents, eq.linear):
                lin[p, v] += c
            for p, c in zip(eq.parents, eq.sig_linear):
                sig_lin[p, v] += c
        # per node in topological order: (node, const, linear column,
        # sigmoid (scale, bias, column)); zero terms are None and skipped
        steps = tuple(
            (
                v,
                float(const[v]),
                lin[:, v] if lin[:, v].any() else None,
                (sig_scale[v], sig_bias[v], sig_lin[:, v]) if sig_scale[v] != 0 else None,
            )
            for v in order
        )
        sig = np.flatnonzero(sig_scale)
        sig_terms = (sig, sig_scale[sig], sig_bias[sig], sig_lin[:, sig]) if sig.size else None
        object.__setattr__(self, "_reach", reach.astype(float))
        object.__setattr__(self, "_steps", steps)
        object.__setattr__(self, "_const", const if const.any() else None)
        object.__setattr__(self, "_lin", lin if lin.any() else None)
        object.__setattr__(self, "_sig", sig_terms)

    @property
    def n_nodes(self) -> int:
        return len(self.labels)

    def node_index(self, node) -> int:
        """Column of a node given by label or by integer id."""
        if isinstance(node, str):
            if node not in self.labels:
                raise ValueError(f"unknown node {node!r}; known features: {list(self.labels)}")
            return self.labels.index(node)
        node = int(node)
        if not 0 <= node < self.n_nodes:
            raise ValueError(f"node index {node} out of range for {self.n_nodes} nodes")
        return node

    def closure(self, nodes: np.ndarray) -> np.ndarray:
        """The given nodes and all their descendants: nodes is a (..., d)
        boolean, one node set per leading index. A float matmul runs on
        BLAS; on 0/1 entries its sums are exact counts of reaching nodes."""
        return np.asarray(nodes, dtype=bool) @ self._reach > 0

    def propagate(
        self,
        noise: np.ndarray,
        do_mask: np.ndarray | None = None,
        do_values: np.ndarray | None = None,
        *,
        out: np.ndarray | None = None,
        nodes: np.ndarray | None = None,
    ) -> np.ndarray:
        """Evaluate the equations in topological order against given noise.

        noise is (..., n, d): leading axes stack independent blocks of rows,
        each contracted on its own. Intervened entries (do_mask True) are
        clamped to do_values and their descendants see the clamped value.
        The result is written into out (a finite float array like noise,
        returned) when given, else into zeros. When nodes (a (d,) boolean)
        is given, only those nodes' equations run: every other column keeps
        the value out held.
        """
        noise = np.asarray(noise, dtype=float)
        if out is None:
            # zeros, not empty: columns not yet evaluated meet zero
            # coefficients, and NaN * 0 would still be NaN
            out = np.zeros_like(noise)
        steps = self._steps if nodes is None else [s for s in self._steps if nodes[s[0]]]
        for v, const, lin, sig in steps:
            mech = None if lin is None else out @ lin
            if const:
                mech = const if mech is None else const + mech
            if sig is not None:
                scale, bias, coef = sig
                term = scale * logistic(bias + out @ coef)
                mech = term if mech is None else mech + term
            mech = noise[..., v] if mech is None else mech + noise[..., v]
            if do_mask is not None:
                mech = np.where(do_mask[..., v], do_values[..., v], mech)
            out[..., v] = mech
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
        values = self.propagate(noise)
        if not np.isfinite(values).all():
            raise ValueError(f"model {self.name!r} propagates its noise to non-finite values")
        return SampleSet(values, noise)

    def abduce(self, values: np.ndarray) -> SampleSet:
        """Recover exogenous noise exactly from observed rows (additive noise).

        values is (n, d) or a (..., n, d) stack of blocks, as in propagate;
        the result holds a copy of it. Every equation is evaluated at once
        on the observed parents.
        """
        values = np.atleast_2d(np.asarray(values, dtype=float))
        mech = np.zeros_like(values) if self._lin is None else values @ self._lin
        if self._const is not None:
            mech = self._const + mech
        if self._sig is not None:
            cols, scale, bias, coef = self._sig
            mech[..., cols] += scale * logistic(bias + values @ coef)
        return SampleSet(values.copy(), values - mech)

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
            "equations": [
                {
                    "node": eq.node,
                    "parents": list(eq.parents),
                    "coeffs": {
                        "const": eq.const,
                        "linear": list(eq.linear),
                        "sig_scale": eq.sig_scale,
                        "sig_bias": eq.sig_bias,
                        "sig_linear": list(eq.sig_linear),
                    },
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
        labels = tuple(d["label"] for d in nodes)
        equations = tuple(
            StructuralEquation(e["node"], e["parents"], NoiseSpec(**e["noise"]), **e["coeffs"])
            for e in sorted(doc["equations"], key=lambda d: d["node"])
        )
        return cls(name=doc["name"], labels=labels, equations=equations)

    @classmethod
    def linear(cls, weights, noise_std: float = 1.0, labels=None) -> "ScmModel":
        """Linear SEM x_j = sum_k weights[k, j] x_k + normal(noise_std) noise.

        weights must be a square DAG matrix with a zero diagonal; node ids
        need not follow the topological order. Labels default to x0, x1, ...
        """
        w = np.asarray(weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError("weights must be a square matrix")
        d = w.shape[0]
        if np.any(np.diag(w) != 0):
            raise ValueError("self-weights must be zero")
        labels = tuple(labels) if labels is not None else tuple(f"x{k}" for k in range(d))
        if len(labels) != d:
            raise ValueError("labels length must match dimension")
        noise = NoiseSpec("normal", (noise_std,))
        equations = []
        for j in range(d):
            parents = np.flatnonzero(w[:, j])
            equations.append(
                StructuralEquation(j, tuple(parents), noise, linear=tuple(w[parents, j]))
            )
        return cls(name="linear", labels=labels, equations=tuple(equations))


def _builtin_table() -> dict[str, tuple[tuple[str, ...], tuple[StructuralEquation, ...]]]:
    # thickness/intensity/slant/width worlds; root thickness noise is
    # gamma(10, 5) in every variant that draws it
    Eq, gamma = StructuralEquation, NoiseSpec("gamma", (10, 5))
    ti = (
        ("t", "i"),
        (
            Eq(0, (), gamma, const=0.5),
            Eq(1, (0,), NoiseSpec("normal", (1.0,)),
               const=64, sig_scale=191, sig_bias=-5.0, sig_linear=(2.0,)),
        ),
    )
    it = (
        ("i", "t"),
        (
            Eq(0, (), NoiseSpec("uniform", (60, 255))),
            Eq(1, (0,), NoiseSpec("normal", (0.5,)),
               const=3, sig_scale=1, sig_bias=0.0, sig_linear=(1 / 255,)),
        ),
    )
    ts = (
        ("t", "s"),
        (
            Eq(0, (), gamma),
            Eq(1, (0,), NoiseSpec("normal", (0.5,)),
               const=10, sig_scale=5, sig_bias=-5.0, sig_linear=(2.0,)),
        ),
    )
    tswi = (
        ("t", "s", "w", "i"),
        (
            Eq(0, (), gamma),
            Eq(1, (0,), NoiseSpec("normal", (5.0,)), const=10, linear=(20.0,)),
            Eq(2, (0, 1), NoiseSpec("normal", (1.0,)),
               const=10, linear=(0.0, -0.25), sig_scale=15, sig_bias=0.0, sig_linear=(0.5, 0.0)),
            Eq(3, (2,), NoiseSpec("normal", (1.0,)),
               const=64, sig_scale=191, sig_bias=0.0, sig_linear=(1 / 25,)),
        ),
    )
    return {"TI": ti, "IT": it, "TS": ts, "TSWI": tswi}


def builtin(name: str) -> ScmModel:
    """Construct one of the four builtin models (TI, IT, TS, TSWI)."""
    table = _builtin_table()
    if name not in table:
        raise ValueError(f"unknown builtin model {name!r}; choose one of {BUILTIN_NAMES}")
    labels, equations = table[name]
    return ScmModel(name=name, labels=labels, equations=equations)
