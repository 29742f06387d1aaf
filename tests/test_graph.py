import json

import pytest

from causalprobe import CausalGraph


def test_add_and_query_edges():
    g = CausalGraph(["a", "b", "c"])
    g.add_edge(0, 1, 1.5)
    g.add_edge(1, 2, -0.25)
    assert g.has_edge(0, 1)
    assert not g.has_edge(1, 0)
    assert g.edges == {(0, 1): 1.5, (1, 2): -0.25}
    assert g.children(0) == [1]
    assert g.descendants(0) == {1, 2}


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
    assert g.is_dag()
    assert g.find_cycle() is None
    g.add_edge(2, 0, 1.0)
    assert not g.is_dag()
    cycle = g.find_cycle()
    assert cycle is not None
    # the cycle closes: each edge's head is the next edge's tail
    heads = [e[1] for e in cycle]
    tails = [e[0] for e in cycle]
    assert heads[-1] == tails[0]


def test_topological_order():
    g = CausalGraph(["a", "b", "c", "d"], {(0, 2): 1.0, (1, 2): 1.0, (2, 3): 1.0})
    order = g.topological_order()
    pos = {v: k for k, v in enumerate(order)}
    for i, j in g.edges:
        assert pos[i] < pos[j]
    g.add_edge(3, 0, 1.0)
    with pytest.raises(ValueError):
        g.topological_order()


def test_json_round_trip():
    g = CausalGraph(["t", "i"], {(0, 1): 0.123456})
    doc = json.loads(json.dumps(g.to_json_dict()))
    back = CausalGraph.from_json_dict(doc)
    assert back.labels == g.labels
    assert back.edges == g.edges


def test_dot_export():
    g = CausalGraph(["t", "i"], {(0, 1): 0.98765})
    dot = g.to_dot()
    assert 'label="t"' in dot
    assert 'label="i"' in dot
    assert 'n0 -> n1 [label="0.988"]' in dot
    assert dot.startswith("digraph")
