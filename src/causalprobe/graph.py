"""Directed weighted graphs over latent-feature nodes, with DOT/JSON export."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def _has_cycle(reach: np.ndarray) -> bool:
    """The cycle test on a closure: two distinct nodes reach each other."""
    return bool((reach & reach.T).sum() > len(reach))


def _topological_order(reach: np.ndarray) -> list[int]:
    """Nodes sorted by (ancestor count, id), read off a closure; raises
    ValueError if the graph has a cycle."""
    if _has_cycle(reach):
        raise ValueError("graph contains a cycle")
    ancestors = reach.sum(axis=0)
    return sorted(range(len(reach)), key=lambda v: (ancestors[v], v))


@dataclass
class CausalGraph:
    """Directed graph whose nodes are feature positions with display labels.

    Edges map (src, dst) index pairs to a real weight (the estimated
    per-unit effect of src on dst). Self-loops are rejected at insertion;
    acyclicity is a property of the construction pipeline, read off the
    closure :meth:`reach` returns.
    """

    labels: list[str]
    edges: dict[tuple[int, int], float] = field(default_factory=dict)

    def __post_init__(self):
        self.labels = list(self.labels)
        for i, j in self.edges:
            self._check_pair(i, j)
        self.edges = {(i, j): float(w) for (i, j), w in self.edges.items()}

    @property
    def n_nodes(self) -> int:
        return len(self.labels)

    def _check_pair(self, i: int, j: int) -> None:
        n = len(self.labels)
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i}, {j}) out of range for {n} nodes")
        if i == j:
            raise ValueError(f"self-loop on node {i} is not allowed")

    def add_edge(self, i: int, j: int, weight: float) -> None:
        self._check_pair(i, j)
        self.edges[(i, j)] = float(weight)

    def remove_edge(self, i: int, j: int) -> None:
        del self.edges[(i, j)]

    def has_edge(self, i: int, j: int) -> bool:
        return (i, j) in self.edges

    def edge_set(self) -> set[tuple[int, int]]:
        return set(self.edges)

    def reach(self) -> np.ndarray:
        """Boolean transitive closure, (d, d): reach[i, j] is True when j is
        i or a descendant of i. Well defined on cyclic graphs too."""
        reach = np.eye(self.n_nodes, dtype=bool)
        for i, j in self.edges:
            reach[i, j] = True
        while True:  # squaring doubles the path length covered; 0/1 sums <= d are exact
            wider = reach.astype(float) @ reach > 0
            if np.count_nonzero(wider) == np.count_nonzero(reach):  # wider holds reach
                return reach
            reach = wider

    def copy(self) -> "CausalGraph":
        return CausalGraph(list(self.labels), dict(self.edges))

    def sorted_edges(self) -> list[tuple[int, int, float]]:
        return [(i, j, self.edges[(i, j)]) for (i, j) in sorted(self.edges)]

    def to_json_dict(self) -> dict:
        return {
            "nodes": [{"id": k, "label": lab} for k, lab in enumerate(self.labels)],
            "edges": [
                {"from": i, "to": j, "ew": w} for i, j, w in self.sorted_edges()
            ],
        }

    def to_dot(self) -> str:
        lines = ["digraph causal {"]
        for k, lab in enumerate(self.labels):
            lab = lab.replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'  n{k} [label="{lab}"];')
        for i, j, w in self.sorted_edges():
            lines.append(f'  n{i} -> n{j} [label="{w:.3f}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"
