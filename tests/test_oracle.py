import random
import time
from itertools import combinations, product

import pytest

from stardecomp import oracle
from stardecomp.graphs import complete_graph, disjoint_cliques, graph_from_edges, join
from stardecomp.oracle import (
    BUDGET_EXCEEDED,
    EXHAUSTED,
    FOUND,
    count_gamma_candidates,
    exhaustive_decomposition,
    exhaustive_gamma_search,
    iter_class_totals,
    sample_maximal_partial,
    spread_gamma,
    twin_classes,
)
from stardecomp.solver import (
    StarDecomposition,
    decide_star_decomposition,
    validate_decomposition,
)

from reference import (
    enumerate_min_deficiency,
    sample_maximal_partial_by_sets,
    short_on_zeros_plus_one_class,
)


def test_exhaustive_finds_k6():
    tr = exhaustive_decomposition(complete_graph(6), 3)
    assert tr.outcome == FOUND
    assert validate_decomposition(complete_graph(6), tr.decomposition) is None


def test_exhaustive_rules_out_k5():
    assert exhaustive_decomposition(complete_graph(5), 3).outcome == EXHAUSTED


def test_exhaustive_rules_out_single_edge_join():
    g = join(graph_from_edges(8, [(0, 1)]), 2)
    assert g.num_edges == 18
    tr = exhaustive_decomposition(g, 3)
    assert tr.outcome == EXHAUSTED


def test_exhaustive_budget_trips():
    tr = exhaustive_decomposition(complete_graph(8), 2, budget=5)
    assert tr.outcome == BUDGET_EXCEEDED
    assert tr.nodes_explored == 6


def test_exhaustive_decomposition_of_many_disjoint_claws():
    # 2100 edges: the backtracking keeps one cursor per edge, not a call frame
    g = graph_from_edges(2800, [(4 * i, 4 * i + j) for i in range(700) for j in (1, 2, 3)])
    tr = exhaustive_decomposition(g, 3)
    assert tr.outcome == FOUND
    assert tr.nodes_explored == 2100
    assert validate_decomposition(g, tr.decomposition) is None


def test_exhaustive_respects_gamma():
    g = complete_graph(6)
    gamma = (1, 1, 1, 1, 1, 0)
    tr = exhaustive_decomposition(g, 3, gamma=gamma)
    assert tr.outcome == FOUND
    assert tr.decomposition.central_function(6) == gamma
    # gamma demanding too much at one vertex is impossible
    assert exhaustive_decomposition(g, 3, gamma=(5, 0, 0, 0, 0, 0)).outcome == EXHAUSTED


def test_exhaustive_checks_gamma_before_refusing():
    # K_4's 6 edges are not a multiple of 4, but a malformed gamma is
    # refused first
    with pytest.raises(ValueError):
        exhaustive_decomposition(complete_graph(4), 4, gamma=[0.5, "x"])
    # 3 divides K_6's 15 edges, but six stars of 3 would need 18
    tr = exhaustive_decomposition(complete_graph(6), 3, gamma=[1] * 6)
    assert (tr.outcome, tr.nodes_explored) == (EXHAUSTED, 0)


def test_gamma_search_two_triangles():
    assert exhaustive_gamma_search(disjoint_cliques([3, 3]), 2).outcome == EXHAUSTED


def test_gamma_search_near_complete():
    g = graph_from_edges(8, [e for e in combinations(range(8), 2) if e != (0, 1)])
    tr = exhaustive_gamma_search(g, 3)
    assert tr.outcome == FOUND
    assert validate_decomposition(g, tr.decomposition) is None


def test_gamma_search_agrees_with_edge_search():
    g = join(graph_from_edges(8, [(0, 1)]), 2)
    assert exhaustive_gamma_search(g, 3).outcome == EXHAUSTED
    # twin classes {1, 5} and {2, 4}: the first candidate's witness cut, taken
    # over the worst image of T under twin swaps, must not rule out the second
    g = graph_from_edges(7, [(0, 2), (0, 3), (0, 4), (1, 3), (2, 4), (3, 5)])
    assert exhaustive_decomposition(g, 2).outcome == FOUND
    tr = exhaustive_gamma_search(g, 2)
    assert (tr.outcome, tr.nodes_explored) == (FOUND, 2)


def _two_single_edge_joins():
    # two disjoint copies of (single edge on 8 vertices) v K_2: no 3-star
    # decomposition, and no twins across the copies
    j = join(graph_from_edges(8, [(0, 1)]), 2)
    return graph_from_edges(20, list(j.edges) + [(u + 10, v + 10) for u, v in j.edges])


def test_gamma_search_budget():
    g = _two_single_edge_joins()
    assert len(list(iter_class_totals(g, 3, twin_classes(g)))) == 16
    tr = exhaustive_gamma_search(g, 3, budget=3)
    assert tr.outcome == BUDGET_EXCEEDED
    assert tr.nodes_explored == 4
    tr = exhaustive_gamma_search(g, 3, budget=16)
    assert tr.outcome == EXHAUSTED
    assert tr.nodes_explored == 16


def test_held_out_search_spends_its_budget_without_flows(monkeypatch):
    # k = 21, n = 60, seed 0, s = 18: each of the 2001 candidates breaks
    # Hakimi's condition on the zeros plus some of the join vertices (870 of
    # them at one join vertex, whose zero neighbours outnumber k times its
    # centers), so none needs a flow; without the test the search ran 2000
    _, leave = sample_maximal_partial(60, 21, 0)
    flows = []
    decide = oracle.decide_star_decomposition
    monkeypatch.setattr(
        oracle, "decide_star_decomposition", lambda *args: flows.append(args) or decide(*args)
    )
    tr = exhaustive_gamma_search(join(leave, 18), 21, budget=2000)
    assert tr.outcome == BUDGET_EXCEEDED
    assert tr.nodes_explored == 2001
    assert flows == []


def _full_gamma_enumeration(g, k):
    """Every gamma meeting the sum, cap and edge conditions, in lex order."""
    if g.num_edges % k:
        return []
    ranges = [range(g.degree(x) // k + 1) for x in range(g.n)]
    return [
        gamma
        for gamma in product(*ranges)
        if k * sum(gamma) == g.num_edges
        and all(gamma[u] + gamma[v] >= 1 for u, v in g.edges)
    ]


def _twin_classes(g):
    nbrs = [set() for _ in range(g.n)]  # from the edges, not the rows under test
    for u, v in g.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    classes = {}
    for x in range(g.n):
        open_nbrs = frozenset(nbrs[x])
        classes.setdefault(("open", open_nbrs), []).append(x)
        classes.setdefault(("closed", open_nbrs | {x}), []).append(x)
    return [c for c in classes.values() if len(c) > 1]


@pytest.mark.parametrize("prime", [3, 5])
def test_twin_classes_rest_on_full_row_comparisons(monkeypatch, prime):
    # with a tiny prime nearly every residue is shared, so only the full
    # comparisons keep the classes apart
    rng = random.Random(5)
    graphs = [
        join(disjoint_cliques([3, 2, 1, 3]), 2),
        graph_from_edges(9, [(i, i + 1) for i in range(8)]),
        join(graph_from_edges(12, [(0, 1), (2, 3), (4, 5), (6, 8), (7, 8)]), 3),
    ]
    for _ in range(20):
        n = rng.randint(2, 9)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
        graphs.append(join(graph_from_edges(n, edges), rng.randint(0, 2)))
    expected = [twin_classes(g) for g in graphs]
    monkeypatch.setattr(oracle, "_ROW_PRIME", prime)
    for g, want in zip(graphs, expected):
        got = twin_classes(g)
        assert got == want
        assert sorted(c for c in got if len(c) > 1) == sorted(map(tuple, _twin_classes(g)))
        assert sorted(x for c in got for x in c) == list(range(g.n))


def test_twin_classes_of_a_long_path_join_take_one_pass():
    # Python hashes ints mod 2^61 - 1, so the rows of a path joined with K_3,
    # keyed as ints, would share a few dozen slots and each lookup would
    # scan one: about 7 s on a 2-core host, against 0.2 s
    g = join(graph_from_edges(20000, [(i, i + 1) for i in range(19999)]), 3)
    start = time.perf_counter()
    classes = twin_classes(g)
    assert time.perf_counter() - start < 2.0
    assert len(classes) == 20001


def _class_totals_by_brute_force(g, k):
    """The distinct class-total vectors of every gamma meeting the sum, cap
    and edge conditions whose even spread meets the cap and edge conditions
    too, in ascending order."""
    classes = twin_classes(g)
    assert sorted(c for c in classes if len(c) > 1) == sorted(map(tuple, _twin_classes(g)))
    full = _full_gamma_enumeration(g, k)
    totals = {tuple(sum(gamma[x] for x in c) for c in classes) for gamma in full}
    spreads = {t: spread_gamma(g.n, classes, t) for t in totals}
    return full, sorted(
        t
        for t, gamma in spreads.items()
        if all(k * gamma[x] <= g.degree(x) for x in range(g.n))
        and all(gamma[u] + gamma[v] >= 1 for u, v in g.edges)
    )


def test_gamma_enumeration_matches_count_and_conditions():
    rng = random.Random(8)
    graphs = [(join(graph_from_edges(8, [(0, 1)]), 2), 3)]
    for _ in range(12):
        base_n = rng.randint(3, 6)
        edges = [e for e in combinations(range(base_n), 2) if rng.random() < 0.4]
        graphs.append((join(graph_from_edges(base_n, edges), rng.randint(0, 3)), rng.choice([2, 3])))
    sizes = []
    for g, k in graphs:
        full, reduced = _class_totals_by_brute_force(g, k)
        candidates = [totals for totals, _ in iter_class_totals(g, k, twin_classes(g))]
        assert candidates == reduced
        # the upper-bound count ignores the edge condition and the twins
        upper = count_gamma_candidates(g, k)
        assert upper >= len(full) >= len(candidates)
        sizes.append((upper, len(full), len(candidates)))
    assert sizes[0] == (8, 7, 2)
    # most graphs of the corpus have twins that remove candidates
    assert sum(full > reduced for _, full, reduced in sizes) >= 8, sizes


def test_gamma_enumeration_with_cap_zero_vertices():
    # a base vertex of degree d < k - s has cap 0 in L v K_s and forces every
    # neighbour class, earlier labels included, to a total with no zero
    rng = random.Random(13)
    checked = 0
    while checked < 25:
        k = rng.choice([3, 4])
        base_n = rng.randint(4, 8)
        edges = [e for e in combinations(range(base_n), 2) if rng.random() < 0.3]
        g = join(graph_from_edges(base_n, edges), rng.randint(0, 2))
        caps = [g.degree(x) // k for x in range(g.n)]
        if not any(caps[v] == 0 and u < v for u, v in g.edges):
            continue
        checked += 1
        _, reduced = _class_totals_by_brute_force(g, k)
        assert [totals for totals, _ in iter_class_totals(g, k, twin_classes(g))] == reduced


def test_cap_zero_neighbours_are_forced_before_the_walk_reaches_them():
    # 24 vertices on a circulant C_24(1, 2), each with a pendant labelled
    # after all of them; k = 2 gives every pendant cap 0, so every circulant
    # vertex needs gamma >= 1. Learning that only at the pendants costs a
    # walk over exponentially many prefixes before the first candidate.
    f = 24
    edges = [(x, (x + d) % f) for x in range(f) for d in (1, 2)]
    edges += [(x, f + x) for x in range(f)]
    g = graph_from_edges(2 * f, edges)
    start = time.perf_counter()
    # every class is one vertex, so each class total is that vertex's gamma
    first, _ = next(iter_class_totals(g, 2, twin_classes(g)))
    assert time.perf_counter() - start < 1.0
    assert first == (1,) * (f // 2) + (2,) * (f // 2) + (0,) * f


def test_short_verdict_is_hakimi_on_zeros_plus_one_class():
    # the walk tests two sizes per class and keeps its zero counts up to date
    # as it moves; compare with every size of every class, on joins whose
    # large clique class makes the clique term matter
    rng = random.Random(8)
    shorts = 0
    for _ in range(15):
        base_n = rng.randint(3, 7)
        p = [0.2, 0.5, 0.8]
        edges = [e for e in combinations(range(base_n), 2) if rng.random() < rng.choice(p)]
        g = join(graph_from_edges(base_n, edges), rng.randint(0, 7))
        k = rng.choice([2, 3, 4, 5])
        classes = twin_classes(g)
        for totals, short in iter_class_totals(g, k, classes):
            gamma = spread_gamma(g.n, classes, totals)
            assert short == short_on_zeros_plus_one_class(g, k, classes, gamma), (g, k, totals)
            shorts += short
    assert shorts == 59


def test_min_deficiency_never_positive_and_supported():
    rng = random.Random(2024)
    for trial in range(60):
        n = 4 + trial % 6
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
        g = graph_from_edges(n, edges)
        k = rng.choice([2, 3])
        gamma = [rng.randint(0, 2) for _ in range(n)]
        delta, tsets = enumerate_min_deficiency(g, k, gamma)
        assert delta <= 0
        for t in tsets:
            assert all(gamma[x] >= 1 for x in t)


def test_min_deficiency_matches_flow_feasibility():
    rng = random.Random(77)
    checked = 0
    while checked < 60:
        n = rng.randint(4, 9)
        k = rng.choice([2, 3])
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
        g = graph_from_edges(n, edges)
        if g.num_edges % k:
            continue
        b = g.num_edges // k
        gamma = [0] * n
        for _ in range(b):
            gamma[rng.randrange(n)] += 1
        checked += 1
        delta, _ = enumerate_min_deficiency(g, k, gamma)
        result = decide_star_decomposition(g, k, gamma)
        assert isinstance(result, StarDecomposition) == (delta == 0)
        if delta < 0:
            assert result.delta >= delta
            assert result.delta < 0


def test_twin_property_on_join_minimizers():
    rng = random.Random(31)
    for trial in range(25):
        base_n = rng.randint(3, 6)
        s = rng.randint(2, 3)
        edges = [e for e in combinations(range(base_n), 2) if rng.random() < 0.5]
        g = join(graph_from_edges(base_n, edges), s)
        k = rng.choice([2, 3])
        const = rng.randint(0, 2)
        gamma = [rng.randint(0, 2) for _ in range(base_n)] + [const] * s
        join_set = set(range(base_n, base_n + s))
        _, tsets = enumerate_min_deficiency(g, k, gamma)
        for t in tsets:
            overlap = join_set & set(t)
            assert overlap == set() or overlap == join_set


def test_min_deficiency_size_limit():
    with pytest.raises(ValueError):
        enumerate_min_deficiency(complete_graph(21), 2, [1] * 21)


def test_sample_maximal_partial_tiny_n():
    dec, leave = sample_maximal_partial(3, 4, seed=0)
    assert dec.stars == ()
    assert leave == complete_graph(3)


def test_sample_maximal_partial_invariants():
    dec, leave = sample_maximal_partial(10, 3, seed=1)
    assert leave.max_degree() <= 2
    assert leave.num_edges % 3 == 45 % 3
    g = complete_graph(10)
    covered = [e for star in dec.stars for e in star.edges()]
    assert len(covered) == len(set(covered))
    assert set(covered) | set(leave.edges) == set(g.edges)
    assert set(covered) & set(leave.edges) == set()
    assert validate_decomposition(leave.complement(), dec) is None


def test_sample_maximal_partial_deterministic():
    a = sample_maximal_partial(12, 4, seed=9)
    b = sample_maximal_partial(12, 4, seed=9)
    assert a == b
    c = sample_maximal_partial(12, 4, seed=10)
    assert a != c


def test_sample_maximal_partial_matches_the_set_based_sampler():
    # Same random draws, so the same stars and leave for every seed; the
    # benchmark's and the CLI's seeded leaves rest on this. For k > 5
    # random.sample draws by swap-with-last only from rows of at most
    # 21 + 4**ceil(log(3k, 4)) labels (85 for k = 6..21, 277 for k = 22..85)
    # and redraws into a set from longer ones, so rows of up to 99 (and 279)
    # labels meet both
    cells = [*product(range(2, 9), range(1, 41), range(3))]
    cells += [(k, n, 0) for k in range(6, 9) for n in range(87, 101)]
    cells += [(21, 100, 0), (22, 280, 0)]
    for k, n, seed in cells:
        assert sample_maximal_partial(n, k, seed) == sample_maximal_partial_by_sets(n, k, seed)

