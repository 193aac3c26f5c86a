"""Reference computations that only the tests use.

``enumerate_min_deficiency`` iterates every vertex subset. It uses no flow,
so it checks the solver's witness sets independently.

``short_on_zeros_plus_one_class`` tests Hakimi's condition on every set
"zeros plus the j lowest positive members of one class", for every j, so it
checks the two sizes per class the gamma walk tests and the counts it keeps.

``stepped_even_guaranteed_s`` finds the even-k, large-n case of
``embedding.guaranteed_s`` by stepping s up one at a time with exact surd
comparisons, so it checks the closed form the library uses.

``arc_network`` builds a flow network from a list of ``(tail, head)`` arcs,
as the flow tests give their networks.

``successors`` is the full re-read of a ``MaxFlow``'s orientation: it reads
every vertex's live arcs, so it checks ``MaxFlow.ascending_heads``, which
re-reads only the vertices some reversed arc touched.

``ArcIdFlow`` is the flow that ``MaxFlow`` replaced: it numbers every arc
and its reverse up front and keeps a live flag and a listed flag per id, so
it pins the paths, the orientation and the memory of the in-place repair.

``sample_maximal_partial_by_sets`` is the set-based sampler that
``oracle.sample_maximal_partial`` replaced: it rescans every vertex and sorts
the center's uncovered set for each star, and makes the same random draws,
so it pins the library's seeded stars and leaves.

``orient_edge_by_edge`` is the per-edge walk over ``Graph.edges`` that
``solver._orient_by_need`` replaced, so it pins the vertex-by-vertex
orientation edge for edge.

``degree_pair_by_walk`` is ``embedding.degree_pair_check`` as a plain walk
over every edge at every s, so it checks the shortcut that skips the walk
when no edge can qualify.
"""

import random
from functools import cache
from itertools import compress, zip_longest

from stardecomp.exactnum import Surd
from stardecomp.flow import MaxFlow
from stardecomp.graphs import Graph
from stardecomp.solver import Star, StarDecomposition


def arc_network(arcs, excess, flow=MaxFlow):
    """Unit arcs ``(tail, head)`` on ``len(excess)`` vertices, each tail's
    arcs in the order given, as a ``flow`` network (``MaxFlow`` or
    ``ArcIdFlow``); the network gets a copy of ``excess``."""
    heads: list[list[int]] = [[] for _ in excess]
    for u, v in arcs:
        heads[u].append(v)
    return flow(heads, list(excess))


def successors(net: MaxFlow) -> list[list[int]]:
    """The heads of the arcs leaving each vertex in the current orientation,
    each list in its scan order."""
    return [
        list(xs) if flags is None else list(compress(xs, flags))
        for xs, flags in zip_longest(net.heads, net.live)
    ]


class ArcIdFlow:
    """``MaxFlow`` on arc ids: arc i has id 2i, head ``to[2i]`` and tail
    ``to[2i + 1]``, ``a ^ 1`` is the reverse of a, and ``out[x]`` lists the
    ids leaving x, reversed ids joining their new tail's list the first
    time."""

    def __init__(self, heads: list[list[int]], excess: list[int]) -> None:
        to = [0] * (2 * sum(map(len, heads)))
        out: list[list[int]] = []
        a = 0
        for x, xs in enumerate(heads):
            b = a + 2 * len(xs)
            to[a:b:2] = xs
            to[a + 1 : b : 2] = [x] * len(xs)
            out.append(list(range(a, b, 2)))
            a = b
        self.heads = heads
        self.out = out
        self.to = to
        self.excess = excess
        self.sources = [x for x, e in enumerate(excess) if e > 0]
        self.surplus = sum(excess[x] for x in self.sources)
        # live[a]: arc a is the current direction; listed[a]: a is in an out-list
        self.live = bytearray(b"\x01\x00") * (len(to) // 2)
        self.listed = bytearray(self.live)

    def max_flow(self) -> int:
        to, out, live, listed, excess = self.to, self.out, self.live, self.listed, self.excess
        n = len(out)
        total = 0
        while True:
            sources = [x for x in range(n) if excess[x] > 0]
            level = [-1] * n
            for x in sources:
                level[x] = 0
            frontier = sources
            depth = 0
            reached = False
            while frontier and not reached:
                depth += 1
                later = []
                for x in frontier:
                    for a in out[x]:
                        if live[a]:
                            y = to[a]
                            if level[y] < 0:
                                level[y] = depth
                                later.append(y)
                                if excess[y] < 0:
                                    reached = True
                frontier = later
            if not reached:
                return total
            for y in frontier:
                if excess[y] >= 0:
                    level[y] = -1
            it = [0] * n
            for s in sources:
                path: list[int] = []  # arc ids of the current s -> x path
                x = s
                while True:
                    if level[x] == depth:
                        for a in path:
                            live[a] = 0
                            b = a ^ 1
                            live[b] = 1
                            if not listed[b]:
                                listed[b] = 1
                                out[to[a]].append(b)
                        total += 1
                        excess[s] -= 1
                        excess[x] += 1
                        if not excess[x]:
                            level[x] = -1
                        if not excess[s]:
                            break
                        path.clear()
                        x = s
                        continue
                    arcs = out[x]
                    i = it[x]
                    end = len(arcs)
                    want = level[x] + 1
                    while i < end:
                        a = arcs[i]
                        if live[a] and level[to[a]] == want:
                            break
                        i += 1
                    it[x] = i
                    if i < end:
                        path.append(a)
                        x = to[a]
                    else:
                        level[x] = -1
                        if not path:
                            break
                        x = to[path.pop() ^ 1]

    def successors(self) -> list[list[int]]:
        """Every vertex's live heads, each list in its scan order."""
        return [[self.to[a] for a in arcs if self.live[a]] for arcs in self.out]

    def ascending_heads(self) -> list[list[int]]:
        heads, out, to, live = self.heads, self.out, self.to, self.live
        grown = [x for x, arcs in enumerate(out) if len(arcs) != len(heads[x])]
        for x in {*self.sources, *grown}:
            heads[x] = sorted([to[a] for a in out[x] if live[a]])
        return heads


@cache
def _first_integer_above_start(k: int) -> int:
    start = Surd.of(4 * k, -2 * k, 2)  # (4 - 2*sqrt(2)) k
    s = 0
    while not (start < s):
        s += 1
    return s


def stepped_even_guaranteed_s(n: int, k: int) -> int:
    """The smallest s > (4 - 2*sqrt(2))k with n + s divisible by 2k."""
    s = _first_integer_above_start(k)
    while (n + s) % (2 * k) != 0:
        s += 1
    return s


def enumerate_min_deficiency(g: Graph, k: int, gamma) -> tuple[int, list[tuple[int, ...]]]:
    """Exact minimum deficiency and all minimum-cardinality minimizing sets,
    by iterating every vertex subset. Limited to 20 vertices."""
    if g.n > 20:
        raise ValueError("subset enumeration limited to 20 vertices")
    gamma = tuple(int(x) for x in gamma)
    if len(gamma) != g.n:
        raise ValueError("bad gamma")
    edges = g.edges
    vmask = [0] * g.n
    for i, (u, v) in enumerate(edges):
        vmask[u] |= 1 << i
        vmask[v] |= 1 << i
    best_delta = 0
    best_size = 0
    best_sets: list[tuple[int, ...]] = [()]

    def walk(v: int, chosen: list[int], emask: int, gsum: int) -> None:
        nonlocal best_delta, best_size, best_sets
        if v == g.n:
            delta = emask.bit_count() - k * gsum
            size = len(chosen)
            if delta < best_delta or (delta == best_delta and size < best_size):
                best_delta = delta
                best_size = size
                best_sets = [tuple(chosen)]
            elif delta == best_delta and size == best_size and chosen:
                best_sets.append(tuple(chosen))
            return
        walk(v + 1, chosen, emask, gsum)
        chosen.append(v)
        walk(v + 1, chosen, emask | vmask[v], gsum + gamma[v])
        chosen.pop()

    walk(0, [], 0, 0)
    # the empty set seeds the initial best; drop the duplicate if it survived
    if best_delta == 0 and best_size == 0:
        best_sets = [()]
    return best_delta, best_sets


def short_on_zeros_plus_one_class(g: Graph, k: int, classes, gamma) -> bool:
    """Whether k*gamma(U) < |E[U]| for U = the zeros of gamma plus the j
    lowest positive members of one class, for some class and some j."""
    zeros = {x for x in range(g.n) if gamma[x] == 0}
    for members in classes:
        positive = sorted((x for x in members if gamma[x]), key=gamma.__getitem__)
        for j in range(1, len(positive) + 1):
            u = zeros | set(positive[:j])
            inside = sum(a in u and b in u for a, b in g.edges)
            if k * sum(gamma[x] for x in u) < inside:
                return True
    return False


def sample_maximal_partial_by_sets(n: int, k: int, seed: int) -> tuple[StarDecomposition, Graph]:
    """Random greedy maximal partial k-star decomposition of K_n.

    Stars are placed while some vertex still has k uncovered incident edges,
    so the leave always has maximum degree at most k-1. Deterministic for a
    fixed seed.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    if k < 2:
        raise ValueError("star size k must be at least 2")
    rng = random.Random(seed)
    uncovered = [set(range(n)) - {v} for v in range(n)]
    stars: list[Star] = []
    while True:
        eligible = [v for v in range(n) if len(uncovered[v]) >= k]
        if not eligible:
            break
        center = rng.choice(eligible)
        leaves = rng.sample(sorted(uncovered[center]), k)
        stars.append(Star(center, tuple(sorted(leaves))))
        for leaf in leaves:
            uncovered[center].discard(leaf)
            uncovered[leaf].discard(center)
    leave = Graph(
        n, tuple((u, v) for u in range(n) for v in sorted(uncovered[u]) if u < v)
    )
    if leave.max_degree() > k - 1:
        raise RuntimeError("sampled leave has a vertex of degree k or more")
    if n * (n - 1) // 2 != leave.num_edges + k * len(stars):
        raise RuntimeError("sampled stars and leave do not partition K_n")
    return StarDecomposition(k, tuple(stars)), leave


def degree_pair_by_walk(base: Graph, k: int, s: int) -> tuple[int, int] | None:
    """First edge of L v K_s whose endpoints both have degree below k, if any."""
    n = base.n
    for u, v in base.edges:
        if base.degree(u) + s < k and base.degree(v) + s < k:
            return (u, v)
    if s >= 1 and n + s - 1 < k:
        if n:
            return (0, n)
        if s >= 2:
            return (n, n + 1)
    return None


def orient_edge_by_edge(g: Graph, excess: list[int]) -> list[list[int]]:
    """Orient each edge of ``g.edges`` in turn, appending its head to its
    tail's list: (u, v) leaves v iff need[v]*rem[u] > need[u]*rem[v], with
    need = -excess and rem the edges not yet oriented. ``excess`` gains one
    per edge leaving a vertex."""
    rem = list(g.degrees)
    heads: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        ru = rem[u]
        rv = rem[v]
        rem[u] = ru - 1
        rem[v] = rv - 1
        if excess[u] * rv > excess[v] * ru:
            u, v = v, u
        excess[u] += 1
        heads[u].append(v)
    return heads
