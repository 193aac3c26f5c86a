"""``validate_decomposition`` against the edge-by-edge validator it replaced.

The reference below checks one edge at a time and stops at the first
violation. The sorted-code check must return the same string (or None)
on valid decompositions and on ones corrupted in each way a decomposition
can go wrong, both against the whole graph and against the graph of just
the edges the stars use (which drops the coverage check for partial
decompositions). The tests on a tightness-T2 complement run the rows route,
which dense graphs of 128 vertices or more take.
"""

import random

import pytest

from stardecomp.embedding import embed
from stardecomp.families import generate
from stardecomp.graphs import Graph, complete_graph, graph_from_edges, join
from stardecomp.oracle import sample_maximal_partial
from stardecomp.solver import (
    Star,
    _on_rows,
    StarDecomposition,
    decompose_complete,
    decompose_with_repair,
    validate_decomposition,
)


def sequential_validate(g, d):
    if d.k < 2:
        return f"star size {d.k} is below 2"
    edges = set(g.edges)
    seen = set()
    for idx, star in enumerate(d.stars):
        if len(star.leaves) != d.k:
            return f"star {idx} at {star.center} has {len(star.leaves)} leaves, wanted {d.k}"
        if len(set(star.leaves)) != d.k:
            return f"star {idx} at {star.center} repeats a leaf"
        if star.center in star.leaves:
            return f"star {idx} has its center {star.center} as a leaf"
        for edge in star.edges():
            u, v = edge
            if not (0 <= u < v < g.n):
                return f"star {idx} uses out-of-range edge {edge}"
            if edge not in edges:
                return f"star {idx} uses edge {edge} that is not in the graph"
            if edge in seen:
                return f"edge {edge} covered twice"
            seen.add(edge)
    if len(seen) != g.num_edges:
        missing = sorted(edges - seen)[0]
        return f"edge {missing} uncovered"
    return None


def _swap_leaf(rng, g, stars):
    i = rng.randrange(len(stars))
    star = stars[i]
    row = g.rows[star.center]
    far = [x for x in range(g.n) if x != star.center and not row >> x & 1]
    if not far:
        return
    leaves = list(star.leaves)
    leaves[rng.randrange(len(leaves))] = rng.choice(far)
    stars[i] = Star(star.center, tuple(leaves))


def _out_of_range_leaf(rng, g, stars):
    i = rng.randrange(len(stars))
    leaves = list(stars[i].leaves)
    leaves[rng.randrange(len(leaves))] = rng.choice([-1, g.n, g.n + 3])
    stars[i] = Star(stars[i].center, tuple(leaves))


def _duplicate_star(rng, g, stars):
    stars.insert(rng.randrange(len(stars) + 1), rng.choice(stars))


def _repeat_leaf(rng, g, stars):
    i = rng.randrange(len(stars))
    leaves = list(stars[i].leaves)
    a, b = rng.sample(range(len(leaves)), 2)
    leaves[a] = leaves[b]
    stars[i] = Star(stars[i].center, tuple(leaves))


def _center_as_leaf(rng, g, stars):
    i = rng.randrange(len(stars))
    leaves = list(stars[i].leaves)
    leaves[rng.randrange(len(leaves))] = stars[i].center
    stars[i] = Star(stars[i].center, tuple(leaves))


def _wrong_size(rng, g, stars):
    i = rng.randrange(len(stars))
    leaves = list(stars[i].leaves)
    if rng.random() < 0.5:
        leaves.pop(rng.randrange(len(leaves)))
    else:
        leaves.append(rng.randrange(g.n))
    stars[i] = Star(stars[i].center, tuple(leaves))


def _drop_star(rng, g, stars):
    stars.pop(rng.randrange(len(stars)))


CORRUPTIONS = (
    _swap_leaf,
    _out_of_range_leaf,
    _duplicate_star,
    _repeat_leaf,
    _center_as_leaf,
    _wrong_size,
    _drop_star,
)


def _cases():
    """(graph, decomposition) pairs: embedding certificates on sampled leaves,
    each kept whole and corrupted by one to three random changes."""
    rng = random.Random(8)
    cases = []
    for k in (3, 4):
        for n in range(k + 1, 11):
            _, leave = sample_maximal_partial(n, k, n)
            cert = embed(leave, k)
            g = join(leave, cert.s)
            d = cert.decomposition
            cases.append((g, d))
            for _ in range(24):
                stars = list(d.stars)
                for corrupt in rng.sample(CORRUPTIONS, rng.randint(1, 3)):
                    if stars:
                        corrupt(rng, g, stars)
                cases.append((g, StarDecomposition(k, tuple(stars))))
    return cases


CASES = _cases()


def test_corpus_is_large_and_mostly_invalid():
    assert len(CASES) >= 300
    invalid = sum(sequential_validate(g, d) is not None for g, d in CASES)
    assert invalid >= 0.9 * len(CASES)


def _used_edges_graph(g, d):
    """The graph of the edges of g that some star of d uses."""
    edges = set(g.edges)
    return graph_from_edges(
        g.n, [e for star in d.stars for e in star.edges() if e in edges]
    )


@pytest.mark.parametrize("whole_graph", [True, False])
def test_validate_matches_sequential_reference(whole_graph):
    for g, d in CASES:
        h = g if whole_graph else _used_edges_graph(g, d)
        assert validate_decomposition(h, d) == sequential_validate(h, d), d


# Stars whose sorted pair codes low*n + high equal the graph's edge codes,
# so only the leaf-count and label-range guards tell them from a valid
# decomposition. A negative label aliases an edge only beside a label of n
# or more; otherwise its code is negative.
GUARDED = [
    # leaf n + 2 = 7 of center 0 has the code of edge (1, 2)
    (Graph(5, ((0, 3), (1, 2))), StarDecomposition(2, (Star(0, (7, 3)),))),
    # k - 1 and k + 1 leaves whose pairs are exactly the edges of K_{1,6}
    (
        Graph(7, tuple((0, x) for x in range(1, 7))),
        StarDecomposition(3, (Star(0, (1, 2)), Star(0, (3, 4, 5, 6)))),
    ),
    # leaf -1 of center 7 has the code of edge (0, 3)
    (Graph(4, ((0, 3), (2, 3))), StarDecomposition(2, (Star(7, (-1, 1)),))),
    # a negative leaf beside in-range labels: its negative code matches no edge
    (Graph(4, ((0, 2), (1, 2))), StarDecomposition(2, (Star(2, (-1, 1)),))),
]


@pytest.mark.parametrize("g,d", GUARDED)
def test_guards_catch_stars_whose_codes_match(g, d):
    expected = sequential_validate(g, d)
    assert expected is not None
    assert validate_decomposition(g, d) == expected


@pytest.fixture(scope="module")
def dense():
    """A graph above the rows threshold, so validation takes the rows
    route, and one of its decompositions."""
    inst = generate("tightness-T2", t=6)
    g = inst.leave.complement()
    assert g.num_edges == 18688
    assert _on_rows(g.n, g.num_edges)
    d = decompose_with_repair(g, inst.k)
    assert validate_decomposition(g, d) is None
    return g, d


def test_corrupted_large_complement_matches_reference(dense):
    g, d = dense
    rng = random.Random(6)
    for corrupt in CORRUPTIONS:
        stars = list(d.stars)
        while tuple(stars) == d.stars:  # _swap_leaf skips a center with no non-neighbour
            corrupt(rng, g, stars)
        bad = StarDecomposition(d.k, tuple(stars))
        expected = sequential_validate(g, bad)
        assert expected is not None, corrupt.__name__
        assert validate_decomposition(g, bad) == expected, corrupt.__name__


def _leaves(stars, i, leaves):
    """``stars`` with the leaves of star i replaced."""
    stars = list(stars)
    stars[i] = Star(stars[i].center, tuple(leaves))
    return stars


def _non_neighbour(g, star):
    row = g.rows[star.center]
    return next(x for x in range(g.n) if x != star.center and not row >> x & 1)


def _covered_from_both_ends(g, s):
    """Star 0's first leaf moved to a vertex y whose own star covers
    {c, y}, c being star 0's center: every count stays as it was, and only
    the stars claiming c (its column) show {c, y} claimed from both ends."""
    c = s[0].center
    y = next(star.center for star in s if c in star.leaves)
    return _leaves(s, 0, (y, *s[0].leaves[1:]))


def _shared_leaf(g, s):
    """Two stars of one center given the same first leaf."""
    first = {}
    for j, star in enumerate(s):
        i = first.setdefault(star.center, j)
        if i != j:
            return _leaves(s, j, (s[i].leaves[0], *star.leaves[1:]))
    raise AssertionError("no center has two stars")


def _star_claimed_back(g, s):
    """One more star, at the vertex y that the most stars have as a leaf,
    whose leaves are k of those stars' centers: no claim repeats and every
    edge stays covered, so only the edges claimed from both ends show it."""
    y = max(range(g.n), key=lambda x: sum(x in star.leaves for star in s))
    claimers = [star.center for star in s if y in star.leaves]
    k = len(s[0].leaves)
    assert len(claimers) >= k
    return [*s, Star(y, tuple(sorted(claimers[:k])))]


# Each defect rewrites the star list of the valid decomposition of ``dense``.
DEFECTS = {
    "short star": lambda g, s: _leaves(s, 0, s[0].leaves[1:]),
    "repeated leaf": lambda g, s: _leaves(s, 3, s[3].leaves[:1] * 2 + s[3].leaves[2:]),
    "center as leaf": lambda g, s: _leaves(s, 5, (s[5].center, *s[5].leaves[1:])),
    "non-edge": lambda g, s: _leaves(s, 0, (_non_neighbour(g, s[0]), *s[0].leaves[1:])),
    "double cover": lambda g, s: [*s, s[len(s) // 2]],
    "missing edge": lambda g, s: s[:-1],
    "negative leaf": lambda g, s: _leaves(s, -1, (-1, *s[-1].leaves[1:])),
    "leaf n": lambda g, s: _leaves(s, 0, (*s[0].leaves[:-1], g.n)),
    "huge leaf": lambda g, s: _leaves(s, 0, (*s[0].leaves[:-1], 10**18)),
    # y - n writes the very byte y writes in the center's row, so only the
    # leaves' nonnegativity check tells this from the valid decomposition
    "negative leaf aliasing a real edge": lambda g, s: _leaves(
        s, len(s) // 2, (s[len(s) // 2].leaves[0] - g.n, *s[len(s) // 2].leaves[1:])
    ),
    # too large for a row view's index, not just past its end
    "leaf 10**30": lambda g, s: _leaves(s, 0, (*s[0].leaves[:-1], 10**30)),
    "center n": lambda g, s: [*s[:2], Star(g.n, s[2].leaves), *s[3:]],
    "negative center": lambda g, s: [*s[:-1], Star(-1, s[-1].leaves)],
    "covered from both ends": _covered_from_both_ends,
    "leaf shared by two stars of one center": _shared_leaf,
    "star on edges claimed from the other end": _star_claimed_back,
}


@pytest.mark.parametrize("defect", DEFECTS)
def test_each_defect_on_rows_matches_reference(dense, defect):
    g, d = dense
    bad = StarDecomposition(d.k, tuple(DEFECTS[defect](g, d.stars)))
    expected = sequential_validate(g, bad)
    assert expected is not None
    # the same message as the reference, and no label outside 0..n-1 reaches a shift
    assert validate_decomposition(g, bad) == expected


@pytest.mark.parametrize("n,k", [(8, 2), (256, 8)], ids=["arcs", "rows"])
@pytest.mark.parametrize("label", ["3", None, 2.5, 10**30], ids=repr)
def test_labels_that_name_no_vertex_give_a_violation(n, k, label):
    g = complete_graph(n)
    d = decompose_complete(n, k)
    assert _on_rows(n, g.num_edges) == (n == 256)
    i = len(d.stars) // 2
    center, leaves = d.stars[i]
    for star in (Star(center, (label, *leaves[1:])), Star(label, leaves)):
        bad = StarDecomposition(k, (*d.stars[:i], star, *d.stars[i + 1 :]))
        problem = validate_decomposition(g, bad)
        assert isinstance(problem, str) and problem.startswith(f"star {i} "), problem
    assert isinstance(validate_decomposition(g, StarDecomposition(label, d.stars)), str)


@pytest.mark.parametrize("n,k", [(8, 2), (256, 8)], ids=["arcs", "rows"])
def test_labels_are_read_by_value_on_both_routes(n, k):
    g = complete_graph(n)
    d = decompose_complete(n, k)
    center, leaves = d.stars[1]
    floats = Star(float(center), tuple(map(float, leaves)))
    assert validate_decomposition(g, StarDecomposition(k, (d.stars[0], floats, *d.stars[2:]))) is None
