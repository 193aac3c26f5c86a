"""Differential checks against networkx, an independent implementation.

networkx is a test-only reference; the package itself depends on nothing.
"""

import random
from itertools import combinations

import pytest

from stardecomp.flow import reaching
from stardecomp.graphs import graph_from_edges, join, join_edge_count, mask_of
from stardecomp.independence import independence_number
from stardecomp.solver import (
    DeficiencyWitness,
    decide_star_decomposition,
    deficiency,
    validate_decomposition,
)

from reference import arc_network, successors

nx = pytest.importorskip("networkx")


def test_max_flow_matches_networkx():
    rng = random.Random(21)
    for trial in range(120):
        n = rng.randint(2, 12)
        if trial % 2:
            # parallel and opposite arcs: the flow value alone
            arcs = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 4 * n))]
        else:
            # an orientation of a simple graph, as the solver builds
            pairs = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
            arcs = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in pairs]
        excess = [rng.randint(-4, 4) for _ in range(n)]
        ref = nx.DiGraph()
        ref.add_nodes_from(["s", "t", *range(n)])
        for u, v in arcs:
            # networkx keeps one arc per ordered pair, so parallel arcs merge
            if ref.has_edge(u, v):
                ref[u][v]["capacity"] += 1
            else:
                ref.add_edge(u, v, capacity=1)
        for x, e in enumerate(excess):
            if e > 0:
                ref.add_edge("s", x, capacity=e)
            elif e < 0:
                ref.add_edge(x, "t", capacity=-e)
        net = arc_network(arcs, excess)
        value = net.max_flow()
        assert value == nx.maximum_flow_value(ref, "s", "t")
        if trial % 2:
            continue
        # the vertices that still reach unmet deficit are the sink side of a
        # min cut: surplus fed into them, arcs into them, deficit outside.
        # The solver reads them off in-neighbour masks: the graph's row less
        # the vertex's successors
        rows = graph_from_edges(n, pairs).rows
        heads = successors(net)
        sink_side = reaching(lambda y: rows[y] & ~mask_of(heads[y]), net.excess)
        inside = [bool(sink_side >> x & 1) for x in range(n)]
        cut = sum(e for x, e in enumerate(excess) if e > 0 and inside[x])
        cut += sum(1 for u, v in arcs if not inside[u] and inside[v])
        cut += sum(-e for x, e in enumerate(excess) if e < 0 and not inside[x])
        assert cut == value


def _edge_node_network_feasible(g, k, gamma):
    """The textbook network: source -> vertex x (capacity k*gamma(x)) ->
    each incident edge node (1) -> sink (1); feasible iff it carries |E|."""
    ref = nx.DiGraph()
    ref.add_nodes_from(["s", "t"])
    for x in range(g.n):
        ref.add_edge("s", ("v", x), capacity=k * gamma[x])
    for e in g.edges:
        for x in e:
            ref.add_edge(("v", x), ("e", e), capacity=1)
        ref.add_edge(("e", e), "t", capacity=1)
    return nx.maximum_flow_value(ref, "s", "t") == g.num_edges


def test_decide_matches_edge_node_network():
    rng = random.Random(23)
    verdicts = {True: 0, False: 0}
    for trial in range(80):
        k = rng.randint(2, 5)
        n = rng.randint(2, 30)
        s = rng.randint(1, 40 - n)
        p = rng.choice([0.1, 0.3, 0.6])
        base = graph_from_edges(n, [e for e in combinations(range(n), 2) if rng.random() < p])
        drop = join_edge_count(base, s) % k
        if drop > base.num_edges:
            continue
        g = join(graph_from_edges(n, base.edges[drop:]), s)
        gamma = [0] * g.n
        if trial % 2:
            # about half of each vertex's degree, then one center moved:
            # mostly feasible, sometimes just not
            for _ in range(g.num_edges // k):
                x = max(range(g.n), key=lambda x: g.degree(x) - 2 * k * gamma[x])
                gamma[x] += 1
            if trial % 4 == 1:
                donor = rng.choice([x for x in range(g.n) if gamma[x]])
                gamma[donor] -= 1
                gamma[rng.randrange(g.n)] += 1
        else:
            # piled on a few vertices: mostly infeasible
            pool = rng.sample(range(g.n), rng.randint(1, g.n))
            for _ in range(g.num_edges // k):
                gamma[rng.choice(pool)] += 1
        result = decide_star_decomposition(g, k, gamma)
        feasible = _edge_node_network_feasible(g, k, gamma)
        assert isinstance(result, DeficiencyWitness) != feasible
        verdicts[feasible] += 1
        if feasible:
            assert validate_decomposition(g, result) is None
        else:
            assert result.delta < 0
            assert all(gamma[x] > 0 for x in result.vertices)
            assert deficiency(g, k, gamma, result.vertices) == result
    assert min(verdicts.values()) >= 10, verdicts


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
