"""Property-based checks tying the flow solver, the oracles, and the graph
machinery together on small random instances."""

import math
import random
from fractions import Fraction
from itertools import chain, combinations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stardecomp import solver
from stardecomp.embedding import (
    REASON_UNKNOWN,
    bound_report,
    embed,
    greedy_star_removal,
    n_threshold,
)
from stardecomp.exactnum import RootBound, Surd
from stardecomp.families import generate
from stardecomp.flow import MaxFlow
from stardecomp.graphs import (
    Graph,
    complete_graph,
    disjoint_cliques,
    graph_from_edges,
    graph_from_rows,
    join,
    join_edge_count,
)
from stardecomp.independence import caro_wei_floor, independence_number
from stardecomp.oracle import (
    EXHAUSTED,
    FOUND,
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
    decompose_with_repair,
    deficiency,
    two_star_decompose,
    validate_decomposition,
)

from reference import (
    ArcIdFlow,
    enumerate_min_deficiency,
    short_on_zeros_plus_one_class,
    successors,
)

SETTINGS = settings(max_examples=80, deadline=None)


@st.composite
def small_graphs(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = list(combinations(range(n), 2))
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return graph_from_edges(n, [e for e, keep in zip(pairs, mask) if keep])


@st.composite
def precentral_instances(draw):
    g = draw(small_graphs())
    k = draw(st.sampled_from([2, 3]))
    m = g.num_edges
    if m % k:
        g = graph_from_edges(g.n, sorted(g.edges)[m % k :])
    b = g.num_edges // k
    gamma = [0] * g.n
    for _ in range(b):
        gamma[draw(st.integers(min_value=0, max_value=g.n - 1))] += 1
    return g, k, tuple(gamma)


@SETTINGS
@given(small_graphs())
def test_complement_is_an_involution(g):
    assert g.complement().complement() == g


def _same_as_built_from_edges(h):
    # The builders skip Graph's per-edge check and fill the rows and degrees
    # themselves, so rebuild h from its edges with the check on, and count
    # its rows and degrees from the edge list.
    plain = Graph(h.n, h.edges)
    assert h == plain and hash(h) == hash(plain)
    rows = [0] * h.n
    degrees = [0] * h.n
    for u, v in h.edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        degrees[u] += 1
        degrees[v] += 1
    assert h.rows == tuple(rows)
    assert h.degrees == tuple(degrees)


@SETTINGS
@given(small_graphs(), st.integers(min_value=0, max_value=5), st.sampled_from([2, 3, 4]))
def test_constructed_graphs_come_in_label_order(g, s, k):
    _same_as_built_from_edges(join(g, s))
    _same_as_built_from_edges(g.complement())
    _same_as_built_from_edges(complete_graph(g.n + s))
    _same_as_built_from_edges(join(g.complement(), s))
    _same_as_built_from_edges(graph_from_rows(join(g, s).rows))
    _same_as_built_from_edges(greedy_star_removal(join(g, s), k)[1])


@SETTINGS
@given(st.lists(st.integers(min_value=0, max_value=5), max_size=5))
def test_disjoint_cliques_come_in_label_order(sizes):
    _same_as_built_from_edges(disjoint_cliques(sizes))


@SETTINGS
@given(small_graphs(), st.sampled_from([2, 3]), st.data())
def test_deficiency_counts_incident_edges_from_the_rows(g, k, data):
    gamma = data.draw(st.lists(st.integers(0, 3), min_size=g.n, max_size=g.n))
    tset = data.draw(st.sets(st.integers(0, g.n - 1)))
    # g holds its edges; its complement reads them only below
    for h in (g, g.complement()):
        witness = deficiency(h, k, gamma, tset)
        assert witness.delta_plus == sum(u in tset or v in tset for u, v in h.edges)
        assert witness.delta_minus == k * sum(gamma[x] for x in tset)
        assert witness.vertices == tuple(sorted(tset))


@SETTINGS
@given(small_graphs(), st.integers(min_value=0, max_value=4))
def test_join_degrees(g, s):
    joined = join(g, s)
    assert joined.num_edges == g.num_edges + g.n * s + s * (s - 1) // 2
    for y in range(g.n):
        assert joined.degree(y) == g.degree(y) + s
    for z in range(g.n, g.n + s):
        assert joined.degree(z) == g.n + s - 1


@SETTINGS
@given(precentral_instances())
def test_flow_agrees_with_subset_enumeration(inst):
    g, k, gamma = inst
    delta, tsets = enumerate_min_deficiency(g, k, gamma)
    result = decide_star_decomposition(g, k, gamma)
    if delta == 0:
        assert isinstance(result, StarDecomposition)
        assert validate_decomposition(g, result) is None
        assert result.central_function(g.n) == gamma
    else:
        assert result.delta < 0
        assert result.delta >= delta
        assert all(gamma[x] >= 1 for x in result.vertices)
    for t in tsets:
        assert all(gamma[x] >= 1 for x in t)


def _star_union(rng):
    """A random union of edge-disjoint k-stars and its center counts, with
    one center moved half the time, which often leaves no decomposition."""
    n = rng.randint(3, 10)
    k = rng.choice([2, 3])
    used = set()
    gamma = [0] * n
    for _ in range(rng.randint(1, 2 * n)):
        x = rng.randrange(n)
        free = [y for y in range(n) if y != x and (min(x, y), max(x, y)) not in used]
        if len(free) < k:
            continue
        used.update((min(x, y), max(x, y)) for y in rng.sample(free, k))
        gamma[x] += 1
    if any(gamma) and rng.random() < 0.5:
        gamma[rng.choice([x for x in range(n) if gamma[x]])] -= 1
        gamma[rng.randrange(n)] += 1
    return graph_from_edges(n, used), k, tuple(gamma)


@pytest.mark.parametrize("route", ["arcs", "rows"])
def test_decide_matches_subset_enumeration_on_every_branch(monkeypatch, route):
    # Record the units each decide routes: 0 means the stars are read from
    # the starting orientation, more means the flow repaired it. These
    # graphs are below the rows threshold, so the rows route is called
    # directly.
    routed = []

    def spy(max_flow):
        def counted(*args):
            routed.append(max_flow(*args))
            return routed[-1]

        return counted

    if route == "arcs":
        decide = decide_star_decomposition
        monkeypatch.setattr(MaxFlow, "max_flow", spy(MaxFlow.max_flow))
    else:
        decide = solver._decide_on_rows
        monkeypatch.setattr(solver, "max_flow_on_rows", spy(solver.max_flow_on_rows))
    rng = random.Random(15)
    branches = {"started": 0, "repaired": 0, "refused": 0}
    for trial in range(600):
        g, k, gamma = _star_union(rng)
        delta, smallest = enumerate_min_deficiency(g, k, gamma)
        result = decide(g, k, gamma)
        if delta == 0:
            assert isinstance(result, StarDecomposition)
            assert validate_decomposition(g, result) is None
            centers = [star.center for star in result.stars]
            leaves = [star.leaves for star in result.stars]
            assert solver._covers_on_rows(g, k, centers, leaves)
            assert result.central_function(g.n) == gamma
            assert all(list(star.leaves) == sorted(star.leaves) for star in result.stars)
            branches["repaired" if routed[-1] else "started"] += 1
        else:
            # the smallest minimum-deficiency set, whatever the route
            assert [result.vertices] == smallest
            assert result == deficiency(g, k, gamma, smallest[0])
            assert result.delta == delta
            branches["refused"] += 1
    assert min(branches.values()) >= 20, branches


def test_repaired_stars_match_a_fresh_read_of_every_vertex(monkeypatch):
    # After any flow the arc route re-reads only the vertices some reversed
    # arc touched and takes every other vertex's starting list as it is.
    # Reading every vertex's heads afresh must give the same stars, and on
    # a refusal the same lists, whose masks the witness is read through.
    nets = []
    max_flow = MaxFlow.max_flow

    def kept(net):
        routed = max_flow(net)
        # a vertex has state iff it is an end of an arc some path reversed
        reversed_ends = {x for x, flags in enumerate(net.live) if flags is not None}
        nets.append((net, routed, reversed_ends, list(map(sorted, successors(net)))))
        return routed

    monkeypatch.setattr(MaxFlow, "max_flow", kept)
    rng = random.Random(20)
    repaired = partial = refused_after_flow = 0
    for trial in range(6000):
        g, k, gamma = _star_union(rng)
        nets.clear()
        result = decide_star_decomposition(g, k, gamma)
        ((net, routed, reversed_ends, heads),) = nets
        if not isinstance(result, StarDecomposition):
            assert net.heads == heads
            refused_after_flow += routed > 0
            continue
        if not reversed_ends:
            continue
        repaired += 1
        partial += len(reversed_ends) < g.n
        assert result == solver._stars_of(k, gamma, map(len, heads), chain.from_iterable(heads))
    assert repaired >= 300 and partial >= 50, (repaired, partial)
    assert refused_after_flow >= 20, refused_after_flow


def test_decide_matches_the_arc_id_reference_flow(monkeypatch):
    # The in-place repair walks the same paths as the arc-id flow it
    # replaced, so every decide gives the same stars or the same witness.
    routed = []
    max_flow = MaxFlow.max_flow

    def counted(net):
        routed.append(max_flow(net))
        return routed[-1]

    monkeypatch.setattr(MaxFlow, "max_flow", counted)
    rng = random.Random(21)
    after_flow = {"repaired": 0, "refused": 0}
    for trial in range(6000):
        g, k, gamma = _star_union(rng)
        result = decide_star_decomposition(g, k, gamma)
        with monkeypatch.context() as patched:
            patched.setattr(solver, "MaxFlow", ArcIdFlow)
            assert decide_star_decomposition(g, k, gamma) == result
        if routed[-1]:
            after_flow["repaired" if isinstance(result, StarDecomposition) else "refused"] += 1
    assert after_flow["repaired"] >= 300 and after_flow["refused"] >= 40, after_flow


@SETTINGS
@given(precentral_instances())
def test_produced_central_functions_satisfy_necessary_conditions(inst):
    g, k, gamma = inst
    result = decide_star_decomposition(g, k, gamma)
    if isinstance(result, StarDecomposition):
        recovered = result.central_function(g.n)
        assert all(k * recovered[x] <= g.degree(x) for x in range(g.n))
        assert all(recovered[u] + recovered[v] >= 1 for u, v in g.edges)


@st.composite
def dense_graphs(draw):
    """Graphs with every degree >= n/2 + k - 1 and k dividing |E|."""
    k = draw(st.integers(min_value=2, max_value=4))
    n = draw(st.integers(min_value=2 * k, max_value=16))
    degree = [n - 1] * n

    def drop(u, v):
        # only while both ends keep 2*deg >= n + 2k - 2
        if 2 * (min(degree[u], degree[v]) - 1) < n + 2 * k - 2:
            return False
        degree[u] -= 1
        degree[v] -= 1
        return True

    edges = [e for e in combinations(range(n), 2) if not (draw(st.booleans()) and drop(*e))]
    extra = len(edges) % k
    for e in list(edges):
        if extra and drop(*e):
            edges.remove(e)
            extra -= 1
    assume(not extra)
    return graph_from_edges(n, edges), k


@SETTINGS
@given(dense_graphs())
def test_balanced_centers_decompose_dense_graphs(inst):
    g, k = inst
    assert validate_decomposition(g, decompose_with_repair(g, k)) is None


@SETTINGS
@given(small_graphs())
def test_two_star_matches_component_parity(g):
    result = two_star_decompose(g)
    parity_ok = all(
        sum(u in comp and v in comp for u, v in g.edges) % 2 == 0
        for comp in g.components()
    )
    assert (result is not None) == parity_ok
    if result is not None:
        assert validate_decomposition(g, result) is None


@SETTINGS
@given(small_graphs())
def test_two_star_lists_stars_by_center(g):
    # the shape the decision and the reference give: ascending centers,
    # each star's leaves ascending
    result = two_star_decompose(g)
    assume(result is not None)
    centers = [star.center for star in result.stars]
    assert centers == sorted(centers)
    assert all(list(star.leaves) == sorted(star.leaves) for star in result.stars)


# joins L v K_s of small random graphs: the s join vertices are twins, and
# so are many base vertices
SMALL_JOINS = (
    small_graphs(max_n=6),
    st.integers(min_value=0, max_value=2),
    st.sampled_from([2, 3]),
)


@settings(max_examples=25, deadline=None)
@given(*SMALL_JOINS)
def test_two_oracles_agree(base, s, k):
    # joins with s >= 1 give the gamma search twin classes to reduce
    g = join(base, s)
    by_edges = exhaustive_decomposition(g, k)
    by_gamma = exhaustive_gamma_search(g, k)
    assert by_edges.outcome in (FOUND, EXHAUSTED)
    assert by_edges.outcome == by_gamma.outcome
    if by_edges.outcome == FOUND:
        assert validate_decomposition(g, by_edges.decomposition) is None
        assert validate_decomposition(g, by_gamma.decomposition) is None


@settings(max_examples=25, deadline=None)
@given(*SMALL_JOINS)
def test_even_spread_is_feasible_iff_its_class_totals_are(base, s, k):
    # the theorem behind the gamma search: if any gamma with given twin-class
    # totals has a decomposition, so does the one spreading them evenly
    g = join(base, s)
    assume(g.num_edges % k == 0)
    classes = twin_classes(g)
    caps = [range(g.degree(x) // k + 1) for x in range(g.n)]
    feasible = {}
    for gamma in product(*caps):
        if k * sum(gamma) != g.num_edges:
            continue
        totals = tuple(sum(gamma[x] for x in c) for c in classes)
        if not feasible.get(totals):
            found = decide_star_decomposition(g, k, gamma)
            feasible[totals] = isinstance(found, StarDecomposition)
    for totals, any_feasible in feasible.items():
        spread = decide_star_decomposition(g, k, spread_gamma(g.n, classes, totals))
        assert isinstance(spread, StarDecomposition) == any_feasible, totals


@SETTINGS
@given(*SMALL_JOINS)
def test_candidates_the_walk_calls_short_are_infeasible(base, s, k):
    # the walk's verdict is Hakimi's condition on every set "zeros plus part
    # of one twin class" (two sizes per class stand for all of them); the
    # condition is necessary, so no flow accepts a candidate it refuses
    g = join(base, s)
    classes = twin_classes(g)
    for totals, short in iter_class_totals(g, k, classes):
        gamma = spread_gamma(g.n, classes, totals)
        assert short == short_on_zeros_plus_one_class(g, k, classes, gamma), totals
        if short:
            assert not isinstance(decide_star_decomposition(g, k, gamma), StarDecomposition)


@SETTINGS
@given(
    st.integers(min_value=1, max_value=12),
    st.sampled_from([2, 3, 4]),
    st.integers(min_value=0, max_value=10_000),
)
def test_sampled_leaves_are_maximal(n, k, seed):
    decomposition, leave = sample_maximal_partial(n, k, seed)
    assert leave.max_degree() <= k - 1
    assert leave.num_edges % k == (n * (n - 1) // 2) % k
    covered = [e for star in decomposition.stars for e in star.edges()]
    assert len(covered) + leave.num_edges == n * (n - 1) // 2


@st.composite
def thick_partial_leaves(draw):
    """The leave of a random partial k-star decomposition of K_n that stops
    early, so that some vertex still has degree k or more."""
    k = draw(st.sampled_from([3, 4]))
    n = draw(st.integers(min_value=2 * k, max_value=9))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    uncovered = [set(range(n)) - {v} for v in range(n)]
    for _ in range(draw(st.integers(min_value=0, max_value=n * (n - 1) // (2 * k)))):
        eligible = [v for v in range(n) if len(uncovered[v]) >= k]
        if not eligible:
            break
        center = rng.choice(eligible)
        for leaf in rng.sample(sorted(uncovered[center]), k):
            uncovered[center].discard(leaf)
            uncovered[leaf].discard(center)
    edges = tuple((u, v) for u in range(n) for v in sorted(uncovered[u]) if u < v)
    leave = Graph(n, edges)
    assume(leave.max_degree() >= k)
    return leave, k


@SETTINGS
@given(thick_partial_leaves())
def test_embed_rejections_hold_for_the_given_leave(inst):
    # every definite rejection says L v K_s has no decomposition; checked by
    # the flow-free backtracking search wherever the join is small enough
    leave, k = inst
    cert = embed(leave, k)
    assert [r.s for r in cert.rejections] == list(range(cert.s))
    for r in cert.rejections:
        if r.reason == REASON_UNKNOWN:
            # the only unknown left is a gamma search cut off by its budget
            assert r.detail == {"gamma_search": "budget"}, r
            continue
        if join_edge_count(leave, r.s) > 45:
            continue
        assert exhaustive_decomposition(join(leave, r.s), k).outcome == EXHAUSTED, r


# disjoint cliques plus a few edges, where the floor is alpha or near it
FAMILY_LEAVES = [
    generate(family, **params).leave
    for family, params in (
        ("single-edge", {"k": 3, "n": 8}),
        ("tightness-T2", {"t": 4}),
        ("even-bound", {"t": 3}),
        ("odd-bound", {"k": 27}),
    )
]


@SETTINGS
@given(st.one_of(small_graphs(max_n=14), st.sampled_from(FAMILY_LEAVES)))
def test_caro_wei_floor_is_exact_and_at_most_alpha(g):
    floor = caro_wei_floor(g)
    assert floor == math.ceil(sum(Fraction(1, d + 1) for d in g.degrees))
    assert floor <= independence_number(g)


@SETTINGS
@given(small_graphs(), st.sampled_from([2, 3, 4]))
def test_greedy_removal_reaches_low_degree(g, k):
    stars, reduced = greedy_star_removal(g, k)
    # the same stars as removing them one at a time from neighbour sets
    adj = [set() for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    expected = []
    for v in range(g.n):
        while len(adj[v]) >= k:
            leaves = sorted(adj[v])[:k]
            expected.append((v, tuple(leaves)))
            for w in leaves:
                adj[v].discard(w)
                adj[w].discard(v)
    assert [(star.center, star.leaves) for star in stars] == expected
    assert reduced.max_degree() <= k - 1
    assert reduced.num_edges + k * len(stars) == g.num_edges
    seen = set(reduced.edges)
    for star in stars:
        for e in star.edges():
            assert e not in seen
            seen.add(e)
    assert seen == set(g.edges)


@SETTINGS
@given(
    st.fractions(min_value=-20, max_value=20),
    st.fractions(min_value=-20, max_value=20),
    st.integers(min_value=0, max_value=60),
)
def test_surd_comparisons_match_floats_away_from_ties(a, b, c):
    s = Surd.of(a, b, c)
    approx = float(a) + float(b) * (c**0.5)
    if abs(approx) > 1e-6:
        assert (s.sign() > 0) == (approx > 0)


@SETTINGS
@given(
    st.fractions(min_value=-10, max_value=10),
    st.fractions(min_value=0, max_value=30),
    st.integers(min_value=-15, max_value=15),
)
def test_root_bound_cmp_matches_floats_away_from_ties(q, x, t):
    bound = RootBound(Fraction(q), Surd.of(x))
    approx = float(q) + float(x) ** 0.5
    if abs(approx - t) > 1e-6:
        assert (bound.cmp(t) > 0) == (approx > t)


SQUARE_FREE = [c for c in range(1, 80) if all(c % (p * p) for p in range(2, 9))]


@SETTINGS
@given(
    st.fractions(min_value=-20, max_value=20),
    st.fractions(min_value=-20, max_value=20),
    st.sampled_from(SQUARE_FREE),
    st.integers(min_value=1, max_value=6),
)
def test_square_factors_leave_one_normal_form(a, b, c, r):
    moved, kept = Surd.of(a, b, c * r * r), Surd.of(a, b * r, c)
    assert (moved.a, moved.b, moved.c) == (kept.a, kept.b, kept.c)
    assert moved == kept
    assert hash(moved) == hash(kept)
    assert moved.c in (0, c) and (moved.c == 0) == (moved.b == 0)


@SETTINGS
@given(
    st.fractions(min_value=-20, max_value=20),
    st.fractions(min_value=-20, max_value=20).filter(bool),
    st.fractions(min_value=-20, max_value=20),
    st.fractions(min_value=-20, max_value=20).filter(bool),
    st.lists(st.sampled_from(SQUARE_FREE), min_size=2, max_size=2, unique=True),
)
def test_surds_over_different_radicands_are_unequal(a1, b1, a2, b2, radicands):
    # square-free radicands are independent over the rationals
    c1, c2 = radicands
    assert not (Surd.of(a1, b1, c1) == Surd.of(a2, b2, c2))
    assert Surd.of(a1, b1, c1) != Surd.of(a2, b2, c2)


def _fraction_sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


@SETTINGS
@given(
    st.fractions(min_value=-20, max_value=20),
    st.fractions(min_value=-20, max_value=20),
    st.integers(min_value=0, max_value=60),
    st.integers(min_value=0, max_value=7),
    st.booleans(),
)
def test_surd_sign_matches_squared_magnitudes(a, b, c, r, tie):
    if tie:  # a + b*sqrt(r^2) with a = -b*r is exactly 0
        a, c = -b * r, r * r
    # a + b*sqrt(c): the larger of |a| and |b|*sqrt(c) decides, squared
    square = b * b * c
    if a * a != square:
        expected = _fraction_sign(a) if a * a > square else _fraction_sign(b)
    else:
        expected = _fraction_sign(a) if _fraction_sign(a) == _fraction_sign(b) else 0
    assert Surd.of(a, b, c).sign() == expected


def test_n_threshold_is_the_reports_threshold():
    for k in range(3, 61):
        threshold = n_threshold(k)
        assert float(threshold) == pytest.approx(k * (k - 1) / (math.sqrt(8 * k) - 1))
        for n in (1, k, 2 * k, k * k):
            assert bound_report(n, k).n_threshold == threshold
            assert bound_report(n, k).n_above_threshold() == (threshold < n)
