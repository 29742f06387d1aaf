import json
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalprobe import CausalGraph
from causalprobe.graph import _has_cycle, _topological_order


def test_add_and_query_edges():
    g = CausalGraph(["a", "b", "c"])
    g.add_edge(0, 1, 1.5)
    g.add_edge(1, 2, -0.25)
    assert g.has_edge(0, 1)
    assert not g.has_edge(1, 0)
    assert g.edges == {(0, 1): 1.5, (1, 2): -0.25}
    assert g.reach().tolist() == [[True, True, True], [False, True, True], [False, False, True]]


def test_self_loop_rejected():
    g = CausalGraph(["a", "b"])
    with pytest.raises(ValueError):
        g.add_edge(0, 0, 1.0)


def test_out_of_range_rejected():
    g = CausalGraph(["a", "b"])
    with pytest.raises(ValueError):
        g.add_edge(0, 5, 1.0)


def test_is_dag_and_cycle_detection():
    g = CausalGraph(["a", "b", "c"], {(0, 1): 1.0, (1, 2): 1.0})
    assert not _has_cycle(g.reach())
    assert not any(g.reach()[j, i] for i, j in g.edges)
    g.add_edge(2, 0, 1.0)
    assert _has_cycle(g.reach())
    # the cycle closes: each edge's head reaches its tail, so all nodes meet
    reach = g.reach()
    assert all(reach[j, i] for i, j in g.edges)
    assert reach.all()


def test_long_chain_is_a_dag():
    n = 1500  # deeper than Python's default recursion limit
    g = CausalGraph([f"x{k}" for k in range(n)], {(k, k + 1): 1.0 for k in range(n - 1)})
    assert not _has_cycle(g.reach())
    assert _topological_order(g.reach()) == list(range(n))


def test_topological_order():
    g = CausalGraph(["a", "b", "c", "d"], {(0, 2): 1.0, (1, 2): 1.0, (2, 3): 1.0})
    order = _topological_order(g.reach())
    pos = {v: k for k, v in enumerate(order)}
    for i, j in g.edges:
        assert pos[i] < pos[j]
    g.add_edge(3, 0, 1.0)
    with pytest.raises(ValueError):
        _topological_order(g.reach())


def bfs_reach(graph, start):
    """Independent reference: the nodes a breadth-first walk from start visits."""
    seen, queue = {start}, deque([start])
    while queue:
        node = queue.popleft()
        for i, j in graph.edges:
            if i == node and j not in seen:
                seen.add(j)
                queue.append(j)
    return seen


@st.composite
def digraphs(draw):
    d = draw(st.integers(1, 9))
    pairs = [(i, j) for i in range(d) for j in range(d) if i != j]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return CausalGraph([f"x{k}" for k in range(d)], {e: 1.0 for e in edges})


@settings(max_examples=100, deadline=None)
@given(g=digraphs())
def test_reach_matches_bfs_and_orders_topologically(g):
    reach = g.reach()
    assert reach.dtype == bool and reach.shape == (g.n_nodes, g.n_nodes)
    for i in range(g.n_nodes):
        assert set(np.flatnonzero(reach[i]).tolist()) == bfs_reach(g, i)
    if not _has_cycle(reach):
        pos = {v: k for k, v in enumerate(_topological_order(reach))}
        assert sorted(pos) == list(range(g.n_nodes))
        assert all(pos[i] < pos[j] for i, j in g.edges)
    else:
        with pytest.raises(ValueError, match="cycle"):
            _topological_order(reach)


def test_to_json_dict():
    g = CausalGraph(["t", "i", "s"], {(2, 0): -0.5, (0, 1): 0.123456})
    doc = g.to_json_dict()
    assert doc == {
        "nodes": [{"id": 0, "label": "t"}, {"id": 1, "label": "i"}, {"id": 2, "label": "s"}],
        "edges": [{"from": 0, "to": 1, "ew": 0.123456}, {"from": 2, "to": 0, "ew": -0.5}],
    }
    assert json.loads(json.dumps(doc)) == doc


def test_dot_export():
    g = CausalGraph(["t", "i"], {(0, 1): 0.98765})
    dot = g.to_dot()
    assert 'label="t"' in dot
    assert 'label="i"' in dot
    assert 'n0 -> n1 [label="0.988"]' in dot
    assert dot.startswith("digraph")


def test_dot_export_escapes_labels():
    # a backslash is escaped before the quote, so the quote's escape stays one
    dot = CausalGraph(['a"b', "c\\", 'd\\"'], {(0, 1): 1.0}).to_dot()
    assert '  n0 [label="a\\"b"];' in dot
    assert '  n1 [label="c\\\\"];' in dot
    assert '  n2 [label="d\\\\\\""];' in dot
