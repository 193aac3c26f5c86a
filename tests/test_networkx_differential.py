"""Differential checks against networkx, an independent implementation.

networkx is a test-only reference; the package itself depends on nothing.
"""

import random
from itertools import combinations

import pytest

from stardecomp.flow import MaxFlow
from stardecomp.graphs import graph_from_edges
from stardecomp.independence import independence_number

nx = pytest.importorskip("networkx")


def test_max_flow_matches_networkx():
    rng = random.Random(21)
    for trial in range(60):
        n = rng.randint(2, 12)
        net = MaxFlow(n)
        ref = nx.DiGraph()
        ref.add_nodes_from(range(n))
        for _ in range(rng.randint(0, 4 * n)):
            u, v = rng.sample(range(n), 2)
            cap = rng.randint(0, 9)
            net.add_edge(u, v, cap)
            # networkx keeps one arc per ordered pair, so parallel arcs merge
            if ref.has_edge(u, v):
                ref[u][v]["capacity"] += cap
            else:
                ref.add_edge(u, v, capacity=cap)
        source, sink = rng.sample(range(n), 2)
        assert net.max_flow(source, sink) == nx.maximum_flow_value(ref, source, sink)


def test_independence_number_matches_networkx():
    rng = random.Random(22)
    for trial in range(80):
        n = rng.randint(1, 14)
        p = rng.choice([0.1, 0.3, 0.5, 0.8])
        g = graph_from_edges(n, [e for e in combinations(range(n), 2) if rng.random() < p])
        ref = nx.Graph()
        ref.add_nodes_from(range(n))
        ref.add_edges_from(g.edges)
        _, size = nx.max_weight_clique(nx.complement(ref), weight=None)
        assert independence_number(g) == size
