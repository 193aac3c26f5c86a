import json
import random
import sys
import tracemalloc
from itertools import chain, combinations, product

import pytest

from stardecomp import solver
from stardecomp.embedding import embed_large_case
from stardecomp.families import generate
from stardecomp.flow import MaxFlow
from stardecomp.graphs import (
    Graph,
    complete_graph,
    disjoint_cliques,
    graph_from_edges,
    join,
    join_edge_count,
    labels_of,
    mask_of,
)
from stardecomp.oracle import exhaustive_decomposition
from stardecomp.solver import (
    DeficiencyWitness,
    _on_rows,
    _stars_of,
    Star,
    StarDecomposition,
    balanced_gamma,
    decide_star_decomposition,
    decompose_complete,
    decompose_with_repair,
    decomposition_to_dot,
    deficiency,
    shrink_witness,
    two_star_decompose,
    validate_decomposition,
)

from reference import (
    ArcIdFlow,
    arc_network,
    enumerate_min_deficiency,
    orient_edge_by_edge,
    successors,
)


def test_deficiency_empty_set_is_zero():
    g = complete_graph(4)
    w = deficiency(g, 2, (1, 1, 1, 0), ())
    assert (w.delta_plus, w.delta_minus, w.delta) == (0, 0, 0)


def test_deficiency_hand_counts_on_claw():
    g = graph_from_edges(3, [(0, 1), (0, 2)])  # star with center 0
    center = deficiency(g, 2, (1, 0, 0), [0])
    assert (center.delta_plus, center.delta_minus, center.delta) == (2, 2, 0)
    leaf = deficiency(g, 2, (1, 0, 0), [1])
    assert (leaf.delta_plus, leaf.delta_minus, leaf.delta) == (1, 0, 1)


def test_decide_on_k6_keeps_requested_centers():
    g = complete_graph(6)
    gamma = (1, 1, 1, 1, 1, 0)
    result = decide_star_decomposition(g, 3, gamma)
    assert isinstance(result, StarDecomposition)
    assert validate_decomposition(g, result) is None
    assert result.central_function(6) == gamma


def test_orientation_matches_the_per_edge_walk():
    # random graphs of every density, plain and joined, under random needs
    rng = random.Random(32)
    for _ in range(300):
        n = rng.randint(0, 16)
        density = rng.random()
        g = Graph(n, tuple(p for p in combinations(range(n), 2) if rng.random() < density))
        if rng.random() < 0.5:
            g = join(g, rng.randint(0, 5))
        excess = [-rng.randint(0, 3) * rng.randint(2, 4) for _ in range(g.n)]
        walked = list(excess)
        heads = solver._orient_by_need(g, excess)
        assert heads == orient_edge_by_edge(g, walked)
        assert excess == walked


def test_decide_on_empty_graph():
    result = decide_star_decomposition(Graph(4, ()), 3, (0, 0, 0, 0))
    assert isinstance(result, StarDecomposition)
    assert result.stars == ()


def test_decide_rejects_non_precentral():
    with pytest.raises(ValueError):
        decide_star_decomposition(complete_graph(4), 2, (1, 1, 1, 1))


def test_fractional_gamma_is_refused_not_truncated():
    g = complete_graph(6)
    with pytest.raises(ValueError, match="integers"):
        decide_star_decomposition(g, 3, [1.9, 1, 1, 1, 1, 0.2])
    with pytest.raises(ValueError, match="integers"):
        deficiency(g, 3, [1.5] * 6, [0, 1])
    with pytest.raises(ValueError, match="integers"):
        exhaustive_decomposition(g, 3, gamma=[1.7, 1, 1, 1, 1, 0])


def test_no_gamma_succeeds_on_two_odd_triangles():
    # each component has 3 edges, so no 2-star decomposition at all; every
    # one of the C(8,5) = 56 raw 2-precentral functions must get a witness
    g = disjoint_cliques([3, 3])
    seen = 0
    for gamma in product(range(4), repeat=6):
        if sum(gamma) != 3:
            continue
        seen += 1
        result = decide_star_decomposition(g, 2, gamma)
        assert isinstance(result, DeficiencyWitness)
        assert result.delta < 0
        recheck = deficiency(g, 2, gamma, result.vertices)
        assert recheck.delta == result.delta
    assert seen == 56


def test_witness_is_within_gamma_support_and_matches_oracle():
    g = disjoint_cliques([3, 3])
    gamma = (1, 1, 0, 1, 0, 0)
    result = decide_star_decomposition(g, 2, gamma)
    assert isinstance(result, DeficiencyWitness)
    assert all(gamma[x] >= 1 for x in result.vertices)
    best_delta, _ = enumerate_min_deficiency(g, 2, gamma)
    assert best_delta < 0
    assert result.delta >= best_delta


def test_witness_is_the_smallest_minimum_deficiency_set(monkeypatch):
    # record, for each refused gamma, the vertices the surplus cannot reach
    # in the orientation the shared refusal reader is handed; its out-rows
    # are the test's graph rows less the in-neighbour masks the reader reads
    unreached = []
    reaching = solver.reaching
    g = None

    def spy(into, excess):
        out = [row & ~into(x) for x, row in enumerate(g.rows)]
        seen = [e > 0 for e in excess]
        stack = [x for x, e in enumerate(excess) if e > 0]
        while stack:
            for y in labels_of(out[stack.pop()]):
                if not seen[y]:
                    seen[y] = True
                    stack.append(y)
        unreached.append({x for x, reached in enumerate(seen) if not reached})
        return reaching(into, excess)

    monkeypatch.setattr(solver, "reaching", spy)
    rng = random.Random(41)
    checked = 0
    for trial in range(400):
        n = rng.randint(2, 12)
        k = rng.choice([2, 3])
        g = graph_from_edges(n, [e for e in combinations(range(n), 2) if rng.random() < 0.5])
        if g.num_edges % k:
            continue
        gamma = [0] * n
        for _ in range(g.num_edges // k):
            gamma[rng.randrange(n)] += 1
        result = decide_star_decomposition(g, k, gamma)
        if not isinstance(result, DeficiencyWitness):
            continue
        checked += 1
        delta, smallest = enumerate_min_deficiency(g, k, gamma)
        assert result.delta == delta < 0
        assert [result.vertices] == smallest
        assert all(gamma[x] >= 1 for x in result.vertices)
        assert set(result.vertices) <= unreached[-1]
    assert checked >= 100 and len(unreached) == checked


def test_arc_refusal_reads_only_the_vertices_it_reaches(monkeypatch):
    # a refused decide on a long cycle: the reader makes a mask for each
    # vertex that reaches unmet deficit, not an out-row for every vertex
    n = 4000
    g = graph_from_edges(n, [(x, (x + 1) % n) for x in range(n)])
    calls = 0
    mask_of = solver.mask_of

    def counting(labels):
        nonlocal calls
        calls += 1
        return mask_of(labels)

    monkeypatch.setattr(solver, "mask_of", counting)
    result = decide_star_decomposition(g, 2, [1] * (n // 2) + [0] * (n // 2))
    assert isinstance(result, DeficiencyWitness)
    assert result.vertices == tuple(range(n // 2))
    assert calls < n


def test_both_routes_refuse_with_the_same_witness_past_enumeration():
    # 30-60 vertices, beyond subset enumeration: the routes orient from
    # different starts, yet read the same smallest minimum-deficiency set
    rng = random.Random(28)
    refused = 0
    for trial in range(60):
        n = rng.randint(30, 60)
        k = rng.choice([2, 3, 4])
        p = rng.choice([0.1, 0.3, 0.6])
        edges = [e for e in combinations(range(n), 2) if rng.random() < p]
        g = graph_from_edges(n, edges[: len(edges) - len(edges) % k])
        # a share q of the stars on half the vertices, so witnesses run large
        half = rng.sample(range(n), n // 2)
        q = rng.choice([0.0, 0.5, 0.9])
        gamma = [0] * n
        for _ in range(g.num_edges // k):
            gamma[rng.choice(half) if rng.random() < q else rng.randrange(n)] += 1
        on_arcs = solver._decide_on_arcs(g, k, tuple(gamma))
        on_rows = solver._decide_on_rows(g, k, tuple(gamma))
        assert type(on_arcs) is type(on_rows)
        if isinstance(on_arcs, DeficiencyWitness):
            assert on_arcs == on_rows
            refused += 1
    assert refused >= 40


def _with_universal_block(rng) -> tuple[Graph, int]:
    """A random L v K_s, or the complement of a random leave whose last
    vertices are isolated: either way the graph ends in universal vertices.
    Also returns n = |L|, the first label of the block."""
    n = rng.randint(3, 30)
    p = rng.choice([0.1, 0.3, 0.6])
    leave = Graph(n, tuple(e for e in combinations(range(n), 2) if rng.random() < p))
    if rng.random() < 0.5:
        return join(leave, rng.randint(1, 30)), n
    return Graph(n + rng.randint(1, 30), leave.edges).complement(), n


def test_routes_agree_on_graphs_ending_in_a_universal_block():
    # The rows start spreads each lower vertex's choices over the universal
    # block; the arc route knows nothing of the block. Both must give the
    # same verdict and witness, and valid stars with the asked-for centers.
    rng = random.Random(37)
    branches = {"decomposed": 0, "refused": 0}
    for trial in range(400):
        g, n = _with_universal_block(rng)
        divisors = [k for k in (2, 3, 4, 5) if g.num_edges % k == 0]
        if not divisors:
            continue
        k = rng.choice(divisors)
        stars = g.num_edges // k
        shape = rng.choice(["balanced", "large-case", "random"])
        if shape == "balanced":
            gamma = balanced_gamma(g, k)
        elif shape == "large-case" and stars >= n:
            # one star on each leave vertex, the rest spread over the block
            gamma = (1,) * n + tuple(solver._even_spread(stars - n, g.n - n))
        else:
            # centers leaning on a random part of the graph
            part = rng.sample(range(g.n), rng.randint(1, g.n))
            gamma = [0] * g.n
            for _ in range(stars):
                gamma[rng.choice(part) if rng.random() < 0.5 else rng.randrange(g.n)] += 1
            gamma = tuple(gamma)
        on_arcs = solver._decide_on_arcs(g, k, gamma)
        on_rows = solver._decide_on_rows(g, k, gamma)
        assert type(on_arcs) is type(on_rows)
        if isinstance(on_rows, DeficiencyWitness):
            assert on_arcs == on_rows
            branches["refused"] += 1
            continue
        for dec in (on_arcs, on_rows):
            assert validate_decomposition(g, dec) is None
            assert dec.central_function(g.n) == gamma
            centers = [star.center for star in dec.stars]
            assert solver._covers_on_rows(g, k, centers, [star.leaves for star in dec.stars])
        branches["decomposed"] += 1
    assert min(branches.values()) >= 60, branches


@pytest.mark.parametrize("t, most", [(5, 30), (7, 1000)])
def test_rows_start_leaves_few_units_on_family_joins(monkeypatch, t, most):
    # even-bound's success-at-s join, L v K_s. Every base vertex takes its
    # share of the K_s block as a rotating window, so the flow has little
    # to repair; taking the block's highest labels left 855 units at t = 5
    # (192 vertices) and 14,862 at t = 7 (768 vertices). t = 7 leaves 784.
    routed = []
    flow = solver.max_flow_on_rows
    monkeypatch.setattr(solver, "max_flow_on_rows", lambda *a: routed.append(flow(*a)) or routed[-1])
    inst = generate("even-bound", t=t)
    (s,) = [c.params["s"] for c in inst.claims if c.kind == "success-at-s"]
    dec = embed_large_case(inst.leave, inst.k, s)
    assert validate_decomposition(join(inst.leave, s), dec) is None
    assert len(routed) == 1 and routed[0] <= most, routed


def test_validate_reports_duplicate_and_missing_edges():
    g = complete_graph(4)
    dup = StarDecomposition(
        2, (Star(0, (1, 2)), Star(0, (1, 3)), Star(2, (1, 3)))
    )
    assert "covered twice" in validate_decomposition(g, dup)
    partial = StarDecomposition(2, (Star(0, (1, 2)), Star(3, (1, 2))))
    assert "uncovered" in validate_decomposition(g, partial)
    # the part of g the stars cover: a star using a non-edge is still reported
    used = {e for star in partial.stars for e in star.edges()}
    covered = Graph(4, tuple(e for e in g.edges if e in used))
    assert validate_decomposition(covered, partial) is None


def test_validate_reports_structural_problems():
    g = complete_graph(4)
    assert "leaves" in validate_decomposition(g, StarDecomposition(2, (Star(0, (1,)),)))
    assert "repeats" in validate_decomposition(g, StarDecomposition(2, (Star(0, (1, 1)),)))
    assert "center" in validate_decomposition(g, StarDecomposition(2, (Star(0, (0, 1)),)))
    assert "not in the graph" in validate_decomposition(
        graph_from_edges(4, [(0, 1)]), StarDecomposition(2, (Star(0, (1, 2)),))
    )


@pytest.mark.parametrize(
    "star",
    [
        Star("a", ("b", "c")),  # strings order among themselves, not against 0
        Star(0, ("b", 2)),
        Star("a", (1, 2)),
        Star(None, (None, None)),
        Star(0, (1, None)),
    ],
    ids=repr,
)
def test_validate_names_a_label_that_is_not_a_number(star):
    problem = validate_decomposition(complete_graph(3), StarDecomposition(2, (star,)))
    assert problem == "star 0 has a label that is not a number"


@pytest.mark.parametrize(
    "n,k,stars", [(6, 3, 5), (9, 4, 9), (1, 5, 0), (0, 3, 0), (2, 2, None), (5, 3, None)]
)
def test_decompose_complete_cases(n, k, stars):
    result = decompose_complete(n, k)
    if stars is None:
        assert result is None
    else:
        assert len(result.stars) == stars
        assert validate_decomposition(complete_graph(n), result) is None


def test_balanced_gamma_spread():
    g = complete_graph(9)
    assert balanced_gamma(g, 4) == (1, 1, 1, 1, 1, 1, 1, 1, 1)
    g6 = complete_graph(6)
    assert balanced_gamma(g6, 3) == (1, 1, 1, 1, 1, 0)


def test_decompose_with_repair_on_near_complete_graph():
    g = graph_from_edges(8, [e for e in combinations(range(8), 2) if e != (0, 1)])
    dec = decompose_with_repair(g, 3)
    assert len(dec.stars) == 9
    assert validate_decomposition(g, dec) is None


def test_decompose_with_repair_gives_up_cleanly():
    # two triangles admit no 2-star decomposition at all
    with pytest.raises(RuntimeError, match="balanced centers refused"):
        decompose_with_repair(disjoint_cliques([3, 3]), 2)


def test_two_star_path():
    path = graph_from_edges(3, [(0, 1), (1, 2)])
    dec = two_star_decompose(path)
    assert len(dec.stars) == 1
    assert validate_decomposition(path, dec) is None


def test_two_star_triangle_fails():
    assert two_star_decompose(complete_graph(3)) is None


def test_two_star_k5():
    g = complete_graph(5)
    dec = two_star_decompose(g)
    assert len(dec.stars) == 5
    assert validate_decomposition(g, dec) is None


def test_rows_route_only_for_large_dense_graphs():
    # Validation on rows costs O(|E| n/64) word operations, so it would go
    # quadratic on long sparse graphs; below 128 vertices the arcs are faster.
    def complement_size(leave):
        return leave.n, leave.n * (leave.n - 1) // 2 - leave.num_edges

    def join_size(leave, s):
        return leave.n + s, join_edge_count(leave, s)

    # every join of the sweep and constructions grids (k <= 7, n <= 30,
    # s <= 4k), even as a complete graph
    arcs = [(n, n * (n - 1) // 2) for n in range(1, 59)]
    # the bench's tiny families: complements and success joins
    tiny = (("single-edge", {"k": 3, "n": 8}, 2), ("even-bound", {"t": 3}, 20))
    for family_id, params, s in tiny:
        leave = generate(family_id, **params).leave
        arcs += [complement_size(leave), join_size(leave, s)]
    # long sparse joins: paths of 500 and 2,000 vertices with K_4, and a
    # 12,000-vertex caterpillar (a 9,000-vertex path with 3,000 legs) with K_3
    for n in (500, 2000):
        arcs.append(join_size(graph_from_edges(n, [(i, i + 1) for i in range(n - 1)]), 4))
    legs = [(3 * i + 1, 9000 + i) for i in range(3000)]
    caterpillar = graph_from_edges(12000, [(i, i + 1) for i in range(8999)] + legs)
    arcs.append(join_size(caterpillar, 3))
    assert arcs[-1] == (12003, 48002)
    assert not any(_on_rows(n, edges) for n, edges in arcs)

    t2 = generate("tightness-T2", t=8).leave
    even_bound = generate("even-bound", t=7).leave
    assert complement_size(t2) == (770, 295936)
    assert join_size(even_bound, 384) == (768, 223872)
    assert _on_rows(*complement_size(t2))
    assert _on_rows(*join_size(even_bound, 384))


def test_two_star_disconnected_components():
    g = graph_from_edges(7, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 3), (3, 6)])
    dec = two_star_decompose(g)
    assert validate_decomposition(g, dec) is None


def test_two_star_many_components():
    # 8000 disjoint 2-edge paths: one forest, one orientation pass
    g = graph_from_edges(24000, [(3 * i + j, 3 * i + j + 1) for i in range(8000) for j in (0, 1)])
    dec = two_star_decompose(g)
    assert len(dec.stars) == 8000
    assert validate_decomposition(g, dec) is None


def test_shrink_drops_zero_gamma_vertices():
    g = graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])  # claw, center 0
    gamma = (0, 1, 0, 0)
    start = deficiency(g, 3, gamma, [1, 2])
    assert start.delta < 0
    shrunk = shrink_witness(g, 3, gamma, [1, 2])
    assert shrunk == (1,)
    assert deficiency(g, 3, gamma, shrunk).delta <= start.delta


def test_shrink_keeps_clean_witness():
    g = graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])
    gamma = (0, 1, 0, 0)
    assert shrink_witness(g, 3, gamma, [1]) == (1,)


def test_shrink_requires_negative_deficiency():
    g = complete_graph(3)
    # T = {1} has deficiency 2 - 0 = 2, not a witness
    with pytest.raises(ValueError):
        shrink_witness(g, 3, (1, 0, 0), [1])


def _naive_shrink(g, k, gamma, vertices):
    """Reference greedy: one full deficiency count per trial drop."""
    current = set(vertices)
    delta = deficiency(g, k, gamma, current).delta
    for x in sorted(current, reverse=True):
        trial = current - {x}
        d = deficiency(g, k, gamma, trial).delta
        if d <= delta:
            current, delta = trial, d
    return tuple(sorted(current))


def test_shrink_matches_naive_greedy_on_corpus():
    rng = random.Random(17)
    checked = 0
    for trial in range(300):
        if trial % 2:
            g = disjoint_cliques([rng.randint(1, 6) for _ in range(rng.randint(1, 4))])
        else:
            n = rng.randint(2, 14)
            p = rng.choice([0.2, 0.5, 0.8])
            g = graph_from_edges(n, [e for e in combinations(range(n), 2) if rng.random() < p])
        k = rng.randint(2, 4)
        gamma = tuple(rng.randint(0, 3) for _ in range(g.n))
        t = [x for x in range(g.n) if rng.random() < 0.6]
        if deficiency(g, k, gamma, t).delta >= 0:
            continue
        checked += 1
        assert shrink_witness(g, k, gamma, t) == _naive_shrink(g, k, gamma, t)
    assert checked >= 100


def test_max_flow_chain_longer_than_recursion_limit():
    # two parallel unit arcs per hop, two units from one end to the other
    n = sys.getrecursionlimit() + 500
    excess = [0] * n
    excess[0], excess[n - 1] = 2, -2
    net = arc_network([(x, x + 1) for x in range(n - 1) for _ in range(2)], excess)
    assert net.max_flow() == 2


def test_max_flow_reverses_each_path_and_keeps_every_arc_once():
    # An arc reversed, reversed back and reversed again must still appear
    # once in the out-lists; a few of these networks do that.
    rng = random.Random(5)
    flows = {"full": 0, "partial": 0}
    for trial in range(2000):
        n = rng.randint(2, 12)
        arcs = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 4 * n))]
        excess = [rng.randint(-4, 4) for _ in range(n)]
        net = arc_network(arcs, excess)
        value = net.max_flow()
        after = successors(net)
        # the source side of a min cut, after full and partial flows alike,
        # against a set-based search over every vertex's live arcs
        seen = {x for x, e in enumerate(net.excess) if e > 0}
        stack = list(seen)
        while stack:
            for y in after[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        assert net.residual_reachable() == mask_of(seen)
        flows["full" if value == net.surplus else "partial"] += 1
        assert sorted(sorted(a) for a in arcs) == sorted(
            sorted((x, y)) for x, heads in enumerate(after) for y in heads
        )
        # each unit left one surplus vertex and reached one deficit vertex,
        # and reversing its path moved only those two out-degrees
        assert value == sum(excess[x] - net.excess[x] for x in range(n) if excess[x] > 0)
        for x in range(n):
            before = sum(1 for u, _ in arcs if u == x)
            assert len(after[x]) == before - (excess[x] - net.excess[x])
    assert min(flows.values()) >= 300, flows


def test_max_flow_matches_the_arc_id_reference():
    # The in-place repair scans each list in the order the arc-id flow it
    # replaced scans its ids, so on the networks above, parallel and
    # opposite arcs included, it routes the same paths: the same value and
    # excess, and the same live heads, list for list and in order. With
    # every list given ascending, ``ascending_heads`` agrees too. Before a
    # flow, ``to`` holds the arc-id table, whose length the bench counts.
    rng = random.Random(5)
    for trial in range(2000):
        n = rng.randint(2, 12)
        arcs = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 4 * n))]
        excess = [rng.randint(-4, 4) for _ in range(n)]
        for given in (arcs, sorted(arcs)):
            net, ref = arc_network(given, excess), arc_network(given, excess, ArcIdFlow)
            assert net.to == ref.to
            assert net.max_flow() == ref.max_flow()
            assert net.excess == ref.excess
            assert successors(net) == ref.successors()
        # the last pair was given sorted(arcs), whose lists ascend
        assert net.ascending_heads() == ref.ascending_heads()


def test_max_flow_repair_takes_less_memory_than_arc_ids():
    # Two parallel arcs a hop along a chain, both units routed end to end:
    # every arc is reversed, so every vertex gets repair state.
    def peak(flow):
        n = 50_000
        heads = [[x + 1, x + 1] for x in range(n - 1)] + [[]]
        excess = [0] * n
        excess[0], excess[n - 1] = 2, -2
        tracemalloc.start()
        try:
            net = flow(heads, excess)
            assert net.max_flow() == 2
            assert net.ascending_heads()[1] == [0, 0]
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(MaxFlow) <= peak(ArcIdFlow)


def test_decide_repairs_along_path_longer_than_recursion_limit():
    # Caterpillar: spine 0..N, a pendant N+i on each spine vertex i >= 1 and
    # four pendants on 0. gamma = 2 at 0 and 1 on the spine forces every
    # spine edge to point towards 0, but the greedy orientation points them
    # all away from 0, leaving the surplus at 0 and the deficit at N.
    spine = sys.getrecursionlimit() + 200
    edges = [(i - 1, i) for i in range(1, spine + 1)]
    edges += [(i, spine + i) for i in range(1, spine + 1)]
    edges += [(0, 2 * spine + j) for j in range(1, 5)]
    g = graph_from_edges(2 * spine + 5, edges)
    gamma = [0] * g.n
    gamma[0] = 2
    for i in range(1, spine + 1):
        gamma[i] = 1
    dec = decide_star_decomposition(g, 2, gamma)
    assert isinstance(dec, StarDecomposition)
    assert validate_decomposition(g, dec) is None
    assert dec.central_function(g.n) == tuple(gamma)


def test_decomposition_json_round_trip():
    dec = decompose_complete(6, 3)
    data = json.loads(json.dumps(dec.to_json_dict()))
    assert StarDecomposition.from_json_dict(data) == dec


@pytest.mark.parametrize(
    "data",
    [
        {"k": 2, "stars": [{"center": 1.5, "leaves": [0, 2]}]},
        {"k": 2, "stars": [{"center": True, "leaves": [0, 2]}]},
        {"k": 2, "stars": [{"center": 1, "leaves": [0, 2.5]}]},
        {"k": 2, "stars": [{"center": 1, "leaves": [False, 2]}]},
        {"k": 2, "stars": [{"center": 1, "leaves": ["0", 2]}]},
        {"k": 2.0, "stars": [{"center": 1, "leaves": [0, 2]}]},
    ],
)
def test_decomposition_json_refuses_non_integers(data):
    # int() would read 1.5 and true as 1, and 2.5 as 2
    with pytest.raises(ValueError, match="integer"):
        StarDecomposition.from_json_dict(data)


@pytest.mark.parametrize(
    "gamma,heads",
    [
        ((1, 1, 0), [[1, 2], [2], []]),  # vertex 1 is a leaf short
        ((1, 0, 0), [[1, 2], [], [0]]),  # vertex 2, past the last center, has a leaf
    ],
)
def test_stars_of_refuses_out_degrees_off_k_gamma(gamma, heads):
    with pytest.raises(RuntimeError, match="orientation out-degree mismatch"):
        _stars_of(2, gamma, map(len, heads), chain.from_iterable(heads))


def test_star_record_behaves_as_before():
    star = Star(3, (0, 5))
    assert repr(star) == "Star(center=3, leaves=(0, 5))"
    assert star == Star(3, (0, 5)) and hash(star) == hash(Star(3, (0, 5)))
    assert star != Star(3, (5, 0))
    assert star.center == 3 and star.leaves == (0, 5)
    assert star.edges() == [(0, 3), (3, 5)]
    with pytest.raises(AttributeError):
        star.center = 4
    dec = StarDecomposition(2, (star, Star(1, (2, 4))))
    data = json.loads(json.dumps(dec.to_json_dict()))
    assert data["stars"][0] == {"center": 3, "leaves": [0, 5]}
    assert StarDecomposition.from_json_dict(data) == dec


def test_witness_json_keys():
    # the witness record README's "File formats" documents
    w = DeficiencyWitness((1, 4), 3, 6)
    data = json.loads(json.dumps(w.to_json_dict()))
    assert data == {"T": [1, 4], "delta_plus": 3, "delta_minus": 6, "delta": -3}


def test_dot_export_mentions_every_edge():
    g = complete_graph(4)
    dec = two_star_decompose(g)
    dot = decomposition_to_dot(g, dec)
    assert dot.startswith("graph stars {")
    for u, v in g.edges:
        assert f"{u} -- {v}" in dot
