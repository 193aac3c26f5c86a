import json
import pickle
import random
from functools import partial
from itertools import combinations

import pytest

from stardecomp.graphs import (
    Graph,
    closure,
    complete_graph,
    disjoint_cliques,
    format_edge_list,
    graph_from_edges,
    graph_from_rows,
    graph_from_json_dict,
    graph_to_json_dict,
    join,
    join_edge_count,
    labels_of,
    mask_of,
    parse_edge_list,
    read_graph,
    write_graph,
)


@pytest.mark.parametrize("n,expected", [(0, 0), (6, 15), (12, 66)])
def test_complete_graph_edge_counts(n, expected):
    assert complete_graph(n).num_edges == expected


def test_complete_graph_is_one_clique():
    for n in range(7):
        g, one = complete_graph(n), disjoint_cliques([n])
        assert (g.rows, g.degrees, g.edges) == (one.rows, one.degrees, one.edges)
    with pytest.raises(ValueError, match="vertex count must be nonnegative"):
        complete_graph(-1)


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, ((0, 3),))
    with pytest.raises(ValueError):
        graph_from_edges(3, [(1, 1)])


@pytest.mark.parametrize(
    "edges",
    [
        ((0, 2), (0, 1)),  # out of label order
        ((0, 1), (0, 1)),  # repeated
        ((1, 0),),  # not (low, high)
        ((0, 1), (2, 4)),  # past n - 1
        ((-1, 1),),  # negative
    ],
)
def test_graph_takes_only_label_ordered_edges(edges):
    with pytest.raises(ValueError):
        Graph(4, edges)


def test_graph_edges_must_be_a_tuple():
    with pytest.raises(TypeError):
        Graph(3, frozenset({(0, 1)}))


def test_graph_from_edges_takes_any_pairs():
    g = graph_from_edges(4, [(2, 0), (1, 0), (0, 2), (3, 1)])
    assert g.edges == ((0, 1), (0, 2), (1, 3))
    assert g == Graph(4, ((0, 1), (0, 2), (1, 3)))


def test_join_edge_count_single_edge():
    base = graph_from_edges(8, [(0, 1)])
    assert join_edge_count(base, 2) == 18
    assert join(base, 2).num_edges == 18


def test_join_with_zero_is_identity():
    base = graph_from_edges(5, [(0, 1), (2, 3)])
    assert join(base, 0) == base


def test_join_single_vertex_gives_k2():
    assert join(Graph(1, ()), 1) == complete_graph(2)


def test_join_degrees_and_twins():
    base = graph_from_edges(4, [(0, 1), (1, 2)])
    g = join(base, 3)
    for z in range(4, 7):
        assert g.degree(z) == 4 + 3 - 1
    for y in range(4):
        assert g.degree(y) == base.degree(y) + 3
    # join vertices are pairwise twin
    for z1 in range(4, 7):
        for z2 in range(z1 + 1, 7):
            assert g.rows[z1] | 1 << z1 == g.rows[z2] | 1 << z2


def test_complement_involution():
    g = graph_from_edges(5, [(0, 1), (1, 2), (3, 4)])
    assert g.complement().complement() == g
    assert complete_graph(4).complement() == Graph(4, ())


def test_complement_matches_filtering_every_pair():
    rng = random.Random(14)
    for n in range(0, 25):
        for density in (0.0, 0.2, 0.5, 0.9, 1.0):
            pairs = list(combinations(range(n), 2))
            g = Graph(n, tuple(p for p in pairs if rng.random() < density))
            present = set(g.edges)
            expected = tuple(p for p in pairs if p not in present)
            assert g.complement().edges == expected


def test_disjoint_cliques_layout():
    g = disjoint_cliques([4, 1])
    assert g.n == 5
    assert g.num_edges == 6
    assert g.components() == [[0, 1, 2, 3], [4]]


def test_components_and_induced_edges():
    g = graph_from_edges(6, [(0, 1), (1, 2), (4, 5)])
    comps = g.components()
    assert comps == [[0, 1, 2], [3], [4, 5]]
    assert sum(u in {0, 1, 2} and v in {0, 1, 2} for u, v in g.edges) == 2
    assert sum(u in {4, 5} and v in {4, 5} for u, v in g.edges) == 1


def test_labels_of_inverts_mask_of():
    rng = random.Random(3)
    for size in (1, 7, 64, 300, 5000):
        for share in (0.001, 0.05, 0.2, 0.9):  # both ways of reading a mask
            labels = sorted(x for x in range(size) if rng.random() < share)
            assert labels_of(mask_of(labels)) == labels
    assert labels_of(0) == [] and mask_of([]) == 0


def test_components_match_union_find():
    # interleaved labels and long paths: the masks are taken relative to
    # each component's lowest label and grown a layer at a time
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(1, 60)
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, n))]
        edges = [e for e in edges if e[0] != e[1]]
        order = list(range(n))
        rng.shuffle(order)
        edges += [(order[i], order[i + 1]) for i in range(rng.randint(0, n - 1))]
        g = graph_from_edges(n, edges)
        root = list(range(n))

        def find(x):
            while root[x] != x:
                x = root[x]
            return x

        for u, v in g.edges:
            root[find(u)] = find(v)
        groups = {}
        for x in range(n):
            groups.setdefault(find(x), []).append(x)
        assert g.components() == sorted(groups.values())


def test_edge_list_round_trip(tmp_path):
    g = graph_from_edges(5, [(3, 1), (0, 4), (2, 3)])
    text = format_edge_list(g)
    assert parse_edge_list(text) == g
    path = tmp_path / "g.txt"
    write_graph(g, path)
    assert read_graph(path) == g
    # canonical writer output is stable
    write_graph(g, tmp_path / "g2.txt")
    assert (tmp_path / "g.txt").read_bytes() == (tmp_path / "g2.txt").read_bytes()


def test_json_round_trip(tmp_path):
    g = graph_from_edges(4, [(0, 1), (2, 3)])
    assert graph_from_json_dict(graph_to_json_dict(g)) == g
    path = tmp_path / "g.json"
    write_graph(g, path)
    assert read_graph(path) == g
    data = json.loads(path.read_text())
    assert data["edges"] == [[0, 1], [2, 3]]


def test_parse_edge_list_skips_indented_comments():
    text = "# a path\n3\n  # note\n0 1\n\t# another\n1 2\n"
    assert parse_edge_list(text) == graph_from_edges(3, [(0, 1), (1, 2)])


def test_parse_edge_list_rejects_garbage():
    with pytest.raises(ValueError):
        parse_edge_list("")
    with pytest.raises(ValueError):
        parse_edge_list("3\n0 1 2\n")


@pytest.mark.parametrize(
    "data",
    [
        [[0, 1]],
        {"edges": [[0, 1]]},
        {"n": 3},
        {"n": 3.0, "edges": []},
        {"n": True, "edges": []},
        {"n": 3, "edges": [[0, 1.5]]},
        {"n": 3, "edges": [[0, True]]},
        {"n": 3, "edges": [[0, 1, 2]]},
        {"n": 3, "edges": [0, 1]},
        {"n": 3, "edges": [["0", 1]]},
    ],
)
def test_json_graph_rejects_non_integer_data(data):
    with pytest.raises(ValueError):
        graph_from_json_dict(data)


def _builder_cases(builder):
    """Twenty random graphs of one builder: a call that builds each afresh,
    and its edges found by filtering every pair."""
    rng = random.Random(19)
    for _ in range(20):
        n = rng.randint(0, 14)
        pairs = list(combinations(range(n), 2))
        density = rng.random()
        base_edges = tuple(p for p in pairs if rng.random() < density)
        base = Graph(n, base_edges)
        present = set(base_edges)
        if builder == "join":
            s = rng.randint(0, 4)
            every = combinations(range(n + s), 2)
            yield partial(join, base, s), tuple(p for p in every if p[1] >= n or p in present)
        elif builder == "complement":
            yield base.complement, tuple(p for p in pairs if p not in present)
        elif builder == "complete_graph":
            yield partial(complete_graph, n), tuple(pairs)
        elif builder == "disjoint_cliques":
            sizes = [rng.randint(0, 5) for _ in range(rng.randint(0, 4))]
            block = [i for i, size in enumerate(sizes) for _ in range(size)]
            every = combinations(range(len(block)), 2)
            yield partial(disjoint_cliques, sizes), tuple(
                (u, v) for u, v in every if block[u] == block[v]
            )
        else:
            yield partial(graph_from_rows, list(base.rows)), base_edges


BUILDERS = ["join", "complement", "complete_graph", "disjoint_cliques", "graph_from_rows"]


@pytest.mark.parametrize("builder", BUILDERS)
def test_builders_defer_their_edges(builder):
    for build, expected in _builder_cases(builder):
        g = build()
        assert g.num_edges == len(expected)
        assert "edges" not in vars(g)  # counted from the degrees
        assert g.edges == expected
        assert g.num_edges == len(g.edges)
        # the edges are read off ``upper``, whose code, and what it holds,
        # is dropped on the first read
        assert "_upper_of" not in vars(g) and vars(g)["upper"] is g.upper
        assert vars(g)["edges"] is g.edges


def _upper_off(n, edges):
    upper = [[] for _ in range(n)]
    for u, v in edges:
        upper[u].append(v)
    return tuple(map(tuple, upper))


@pytest.mark.parametrize("builder", [*BUILDERS, "Graph"])
def test_upper_lists_the_edges_above_each_vertex(builder):
    cases = _builder_cases("join" if builder == "Graph" else builder)
    for build, expected in cases:
        g = Graph(build().n, expected) if builder == "Graph" else build()
        assert g.upper == _upper_off(g.n, expected)
        assert "edges" not in vars(g) or builder == "Graph"
        assert all(type(up) is tuple for up in g.upper)


@pytest.mark.parametrize("s", range(5))
@pytest.mark.parametrize("n", [0, 1, 6])
def test_join_upper_on_edgeless_bases(n, s):
    g = join(Graph(n, ()), s)
    expected = tuple((u, v) for u, v in combinations(range(n + s), 2) if v >= n)
    assert g.upper == _upper_off(n + s, expected)
    # the new labels' tuples are suffixes of one another
    assert all(g.upper[z] == g.upper[z - 1][1:] for z in range(n + 1, n + s))
    assert g.edges == expected


@pytest.mark.parametrize("builder", BUILDERS)
def test_deferred_edges_keep_equality_and_hashing(builder):
    for build, expected in _builder_cases(builder):
        g = build()
        plain = Graph(g.n, expected)
        assert g == plain and plain == build()
        assert hash(build()) == hash(plain)
        assert repr(build()) == repr(plain)
        assert build() != Graph(g.n + 1, expected)


@pytest.mark.parametrize("builder", BUILDERS)
def test_deferred_edges_survive_pickling(builder):
    for build, expected in _builder_cases(builder):
        g = build()
        copy = pickle.loads(pickle.dumps(g))
        assert copy.num_edges == len(expected)
        assert copy.rows == g.rows and copy.degrees == g.degrees
        assert copy.edges == expected
        assert g.edges == expected
        assert pickle.loads(pickle.dumps(g)) == copy


def test_closure_matches_a_set_based_search():
    # random graphs on 1..30 labels plus isolated ones above them, closed
    # from random start sets that may hold isolated labels; into(y) is asked
    # once for each label of the closure and for no other
    rnd = random.Random(11)
    for _ in range(200):
        n = rnd.randrange(1, 31)
        g = graph_from_edges(
            n + rnd.randrange(0, 6),
            [(u, v) for u, v in ((rnd.randrange(n), rnd.randrange(n)) for _ in range(n)) if u != v],
        )
        start = set(rnd.sample(range(g.n), rnd.randrange(0, min(g.n, 3) + 1)))
        reached, frontier = set(start), list(start)
        while frontier:
            y = frontier.pop()
            for x in labels_of(g.rows[y]):
                if x not in reached:
                    reached.add(x)
                    frontier.append(x)
        asked = []

        def into(y):
            asked.append(y)
            return g.rows[y]

        assert labels_of(closure(into, mask_of(start))) == sorted(reached)
        assert sorted(asked) == sorted(reached)
