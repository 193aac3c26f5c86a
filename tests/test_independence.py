"""Exact alpha solver against a subset-enumeration oracle."""

import random
from itertools import combinations

import pytest

from stardecomp.graphs import (
    Graph,
    complete_graph,
    disjoint_cliques,
    graph_from_edges,
)
from stardecomp.independence import (
    BudgetExceeded,
    independence_number,
    maximum_independent_set,
)


def brute_force_alpha(g):
    """Independent reference: try all vertex subsets, largest first."""
    for size in range(g.n, -1, -1):
        for subset in combinations(range(g.n), size):
            chosen = set(subset)
            if all(not (u in chosen and v in chosen) for u, v in g.edges):
                return size
    return 0


def random_graph(n, p, rng):
    return graph_from_edges(
        n, [e for e in combinations(range(n), 2) if rng.random() < p]
    )


def caterpillar():
    """A 3000-vertex path with a pendant leaf at every third vertex from 1."""
    path = [(i, i + 1) for i in range(2999)]
    return graph_from_edges(4000, path + [(3 * i + 1, 3000 + i) for i in range(1000)])


def test_clique_union_shortcut():
    assert independence_number(disjoint_cliques([4] * 7)) == 7
    assert independence_number(disjoint_cliques([4, 1])) == 2


def test_empty_graph():
    assert independence_number(Graph(9, ())) == 9


def test_paths_and_cycles_closed_form():
    path = graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert independence_number(path) == 3
    cycle = graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert independence_number(cycle) == 2


def test_matches_brute_force_on_random_graphs():
    rng = random.Random(42)
    for trial in range(40):
        g = random_graph(2 + trial % 8, rng.choice([0.2, 0.5, 0.8]), rng)
        assert independence_number(g) == brute_force_alpha(g)


def test_budget_exceeded_raises():
    g = complete_graph(12).complement().complement()
    # a dense-ish random graph with a tiny budget
    rng = random.Random(1)
    g = random_graph(18, 0.4, rng)
    with pytest.raises(BudgetExceeded):
        independence_number(g, budget=3)


def test_maximum_independent_set_is_lex_smallest():
    # two maximum sets {0, 3} and {1, 2}? build: square 0-1-2-3-0
    square = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert maximum_independent_set(square) == (0, 2)
    g = disjoint_cliques([3, 3])
    assert maximum_independent_set(g) == (0, 3)


def test_maximum_independent_set_is_independent_and_maximum():
    rng = random.Random(9)
    for trial in range(20):
        g = random_graph(3 + trial % 7, 0.5, rng)
        best = maximum_independent_set(g)
        assert len(best) == independence_number(g)
        assert all(e not in g.edges for e in combinations(best, 2))


def test_maximum_independent_set_matches_brute_force():
    rng = random.Random(5)
    disconnected = 0
    for trial in range(40):
        g = random_graph(1 + trial % 12, rng.choice([0.15, 0.3, 0.5, 0.8]), rng)
        disconnected += len(g.components()) > 1
        alpha = brute_force_alpha(g)
        first = next(
            t for t in combinations(range(g.n), alpha)
            if all(e not in g.edges for e in combinations(t, 2))
        )
        assert maximum_independent_set(g) == first
    assert disconnected >= 10


def test_caterpillar_has_no_recursion_limit():
    # 4000 vertices: the degree-1 reductions run in a loop, not a call chain
    g = caterpillar()
    assert g.max_degree() == 3
    assert independence_number(g) == 2001
