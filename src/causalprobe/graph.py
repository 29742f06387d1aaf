"""Directed weighted graphs over latent-feature nodes, with DOT/JSON export."""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CausalGraph:
    """Directed graph whose nodes are feature positions with display labels.

    Edges map (src, dst) index pairs to a real weight (the estimated
    per-unit effect of src on dst). Self-loops are rejected at insertion;
    acyclicity is a property of the construction pipeline, checked via
    :meth:`is_dag`.
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

    def children(self, i: int) -> list[int]:
        return sorted(j for (k, j) in self.edges if k == i)

    def descendants(self, i: int) -> set[int]:
        seen: set[int] = set()
        stack = [i]
        while stack:
            node = stack.pop()
            for child in self.children(node):
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
        return seen

    def is_dag(self) -> bool:
        return self.find_cycle() is None

    def topological_order(self) -> list[int]:
        """Kahn's algorithm; raises ValueError if the graph has a cycle."""
        indeg = [0] * self.n_nodes
        for _, j in self.edges:
            indeg[j] += 1
        ready = sorted(v for v in range(self.n_nodes) if indeg[v] == 0)
        order: list[int] = []
        while ready:
            v = ready.pop(0)
            order.append(v)
            for child in self.children(v):
                indeg[child] -= 1
                if indeg[child] == 0:
                    # keep the frontier sorted so the order is deterministic
                    ready.append(child)
                    ready.sort()
        if len(order) != self.n_nodes:
            raise ValueError("graph contains a cycle")
        return order

    def find_cycle(self) -> list[tuple[int, int]] | None:
        """Return one directed cycle as a list of edges, or None."""
        color = [0] * self.n_nodes  # 0 unseen, 1 on stack, 2 done
        parent: dict[int, int] = {}

        def dfs(u: int) -> list[tuple[int, int]] | None:
            color[u] = 1
            for v in self.children(u):
                if color[v] == 0:
                    parent[v] = u
                    found = dfs(v)
                    if found:
                        return found
                elif color[v] == 1:
                    # back edge u -> v closes the cycle
                    path = [(u, v)]
                    cur = u
                    while cur != v:
                        path.append((parent[cur], cur))
                        cur = parent[cur]
                    path.reverse()
                    return path
            color[u] = 2
            return None

        for start in range(self.n_nodes):
            if color[start] == 0:
                found = dfs(start)
                if found:
                    return found
        return None

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

    @classmethod
    def from_json_dict(cls, doc: dict) -> "CausalGraph":
        nodes = sorted(doc["nodes"], key=lambda n: n["id"])
        if [n["id"] for n in nodes] != list(range(len(nodes))):
            raise ValueError("node ids must be 0..n-1")
        labels = [str(n["label"]) for n in nodes]
        edges = {(e["from"], e["to"]): float(e["ew"]) for e in doc["edges"]}
        return cls(labels, edges)

    def to_dot(self) -> str:
        lines = ["digraph causal {"]
        for k, lab in enumerate(self.labels):
            lines.append(f'  n{k} [label="{lab}"];')
        for i, j, w in self.sorted_edges():
            lines.append(f'  n{i} -> n{j} [label="{w:.3f}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"
