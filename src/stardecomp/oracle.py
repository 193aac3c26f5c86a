"""Exhaustive searches: ground truth for the flow solver, and the decision
procedure of the embedder for every s its constructions do not cover.

``exhaustive_decomposition`` backtracks over edge assignments. It uses no
flow and prunes only by counting arguments that follow directly from what a
star is, so it remains an independent check on the flow formulation.

``exhaustive_gamma_search`` enumerates candidate center-count functions and
tests each with the flow solver. It prunes by automorphisms (twin vertices
are interchangeable, so one gamma per orbit under swapping twins is
enumerated) and by deficiency (a witness set refused for one candidate rules
out every later candidate that puts as many centers in it). Both prunings
are exact, which the flow-free searches check in the tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .graphs import Graph, complete_graph
from .solver import Star, StarDecomposition, decide_star_decomposition

DEFAULT_SEARCH_BUDGET = 100_000_000
DEFAULT_GAMMA_BUDGET = 1_000_000

FOUND = "found"
EXHAUSTED = "exhausted-nonexistence"
BUDGET_EXCEEDED = "budget-exceeded"


@dataclass(frozen=True)
class SearchTranscript:
    nodes_explored: int
    outcome: str
    decomposition: StarDecomposition | None = None

    def to_json_dict(self) -> dict:
        return {
            "nodes_explored": self.nodes_explored,
            "outcome": self.outcome,
            "decomposition": None
            if self.decomposition is None
            else self.decomposition.to_json_dict(),
        }


def exhaustive_decomposition(
    g: Graph, k: int, budget: int = DEFAULT_SEARCH_BUDGET, gamma=None
) -> SearchTranscript:
    """Backtracking search for a k-star decomposition, optionally with the
    number of stars per center fixed to gamma.

    Edges are processed in lexicographic order; each is assigned to an open
    star at one of its endpoints or to a new star there. Stars at a vertex
    are therefore created in increasing order of first leaf, which breaks the
    symmetry between them. Exhaustion is definitive: either every branch was
    explored or the budget tripped.
    """
    if k < 2:
        raise ValueError("star size k must be at least 2")
    m = g.num_edges
    if m % k:
        return SearchTranscript(0, EXHAUSTED)
    if gamma is not None:
        gamma = tuple(int(x) for x in gamma)
        if len(gamma) != g.n or any(x < 0 for x in gamma):
            raise ValueError("bad gamma")
        if k * sum(gamma) != m:
            return SearchTranscript(0, EXHAUSTED)
        if any(k * gamma[x] > g.degree(x) for x in range(g.n)):
            # a center needs k distinct incident edges per star
            return SearchTranscript(0, EXHAUSTED)
        if any(gamma[u] == 0 and gamma[v] == 0 for u, v in g.edges):
            # every edge must get a star centered at one of its endpoints
            return SearchTranscript(0, EXHAUSTED)
    if m == 0:
        return SearchTranscript(0, FOUND, StarDecomposition(k, ()))

    edges = g.edges
    rem = list(g.degrees)  # undecided edges incident to each vertex
    open_stars: list[list[list[int]]] = [[] for _ in range(g.n)]
    opened = [0] * g.n
    need = [0] * g.n  # missing leaves over open stars at each vertex
    nodes = 0

    def feasible(x: int) -> bool:
        if need[x] > rem[x]:
            return False
        if gamma is not None and need[x] + k * (gamma[x] - opened[x]) > rem[x]:
            return False
        return True

    def undo(center: int, j: int, new: bool) -> None:
        if new:
            open_stars[center].pop()
            opened[center] -= 1
            need[center] -= k - 1
        else:
            open_stars[center][j - 1].pop()
            need[center] += 1

    # cursor[i] = (side, j, new): edge i's leaf went to the star j - 1 at its
    # side-th endpoint (a new star there when new); retries resume after it
    cursor: list[tuple[int, int, bool]] = []
    i = 0
    fresh = True
    while i < m:
        u, v = edges[i]
        if fresh:
            nodes += 1
            if nodes > budget:
                return SearchTranscript(nodes, BUDGET_EXCEEDED)
            rem[u] -= 1
            rem[v] -= 1
            side, j = 0, 0
        else:
            side, j, new = cursor.pop()
            undo(v if side else u, j, new)
        while side < 2:
            center, leaf = (v, u) if side else (u, v)
            stars = open_stars[center]
            new = j == len(stars)
            if j > len(stars) or (new and gamma is not None and opened[center] >= gamma[center]):
                side, j = side + 1, 0
                continue
            j += 1
            if new:
                stars.append([leaf])
                opened[center] += 1
                need[center] += k - 1
            elif len(stars[j - 1]) < k:
                stars[j - 1].append(leaf)
                need[center] -= 1
            else:
                continue
            if feasible(u) and feasible(v):
                break
            undo(center, j, new)
        fresh = side < 2
        if fresh:
            cursor.append((side, j, new))
            i += 1
        else:
            # no choice left for edge i: give it back and retry edge i - 1
            rem[u] += 1
            rem[v] += 1
            if i == 0:
                return SearchTranscript(nodes, EXHAUSTED)
            i -= 1
    stars = [
        Star(x, tuple(sorted(star)))
        for x in range(g.n)
        for star in open_stars[x]
    ]
    return SearchTranscript(nodes, FOUND, StarDecomposition(k, tuple(stars)))


def gamma_caps(g: Graph, k: int) -> list[int]:
    return [g.degree(x) // k for x in range(g.n)]


def count_gamma_candidates(g: Graph, k: int) -> int:
    """Upper bound on the number of k-precentral gamma with k*gamma(x) <= deg(x)
    (ignores the edge-coverage and twin pruning the enumerator applies)."""
    if g.num_edges % k:
        return 0
    b = g.num_edges // k
    counts = [1] + [0] * b
    for cap in gamma_caps(g, k):
        nxt = [0] * (b + 1)
        for total, ways in enumerate(counts):
            if not ways:
                continue
            for val in range(min(cap, b - total) + 1):
                nxt[total + val] += ways
        counts = nxt
    return counts[b]


def _twin_predecessors(g: Graph) -> list[int]:
    """For each vertex, the previous vertex of its twin class, or -1.

    Twins have equal open neighbourhoods (non-adjacent) or equal closed ones
    (adjacent), so swapping two of them is an automorphism of g. An open
    neighbourhood never equals a closed one, so one table serves both.
    """
    last: dict[frozenset[int], int] = {}
    prev = [-1] * g.n
    for x in range(g.n):
        for key in (g.adjacency[x], g.adjacency[x] | {x}):
            if key in last:
                prev[x] = last[key]
            last[key] = x
    return prev


def iter_gamma_candidates(g: Graph, k: int):
    """All k-precentral gamma with k*gamma(x) <= deg(x), pruned by the edge
    condition gamma(u) + gamma(v) >= 1 and reduced by twin symmetry (gamma is
    non-increasing in label order within each twin class), in lexicographic
    order. A vertex next to one whose cap is 0 starts at 1, so the edge
    condition is applied before the walk reaches that neighbour. The walk
    keeps its position in arrays rather than on the call stack, so any
    number of vertices is fine."""
    if g.num_edges % k:
        return
    n = g.n
    b = g.num_edges // k
    caps = gamma_caps(g, k)
    suffix = [0] * (n + 1)
    for x in range(n - 1, -1, -1):
        suffix[x] = suffix[x + 1] + caps[x]
    earlier = [sorted(w for w in g.neighbors(x) if w < x) for x in range(n)]
    # a neighbour with cap 0 keeps gamma 0, so the edge condition forces x to
    # 1 or more whatever that neighbour's label
    forced = [any(caps[w] == 0 for w in g.neighbors(x)) for x in range(n)]
    twin = _twin_predecessors(g)
    gamma = [0] * n
    top = [0] * n  # the largest value vertex x may take under the current prefix
    x = 0
    total = 0  # sum of gamma over the vertices below x
    while True:
        if x == n:
            # lo and hi below force total == b once every vertex has a value
            yield tuple(gamma)
        else:
            # below b - total - suffix[x + 1] the later caps cannot reach b
            lo = b - total - suffix[x + 1]
            if lo < 1 and (forced[x] or any(gamma[w] == 0 for w in earlier[x])):
                lo = 1
            hi = min(caps[x], b - total)
            if twin[x] >= 0 and gamma[twin[x]] < hi:
                hi = gamma[twin[x]]
            if lo <= hi:
                gamma[x] = max(lo, 0)
                top[x] = hi
                total += gamma[x]
                x += 1
                continue
        # move to the next value at the deepest vertex that has one
        while True:
            x -= 1
            if x < 0:
                return
            if gamma[x] < top[x]:
                gamma[x] += 1
                total += 1
                x += 1
                break
            total -= gamma[x]
            gamma[x] = 0


def exhaustive_gamma_search(
    g: Graph, k: int, budget: int = DEFAULT_GAMMA_BUDGET
) -> SearchTranscript:
    """Decide whether any k-star decomposition exists by enumerating candidate
    center-count functions and testing each with the flow solver.

    Every refused candidate leaves a deficient set T, whose |E(T)| incident
    edges cannot carry |E(T)|//k + 1 stars centered in T; a later candidate
    putting at least that many centers in T is skipped without a flow. Skipped
    candidates count toward ``nodes_explored`` and the budget like tested
    ones, so the outcome, the count and the first feasible candidate are
    those of testing every candidate.
    """
    if k < 2:
        raise ValueError("star size k must be at least 2")
    tried = 0
    cuts: list[tuple[tuple[int, ...], int]] = []
    for gamma in iter_gamma_candidates(g, k):
        tried += 1
        if tried > budget:
            return SearchTranscript(tried, BUDGET_EXCEEDED)
        if any(sum(map(gamma.__getitem__, t)) >= most for t, most in cuts):
            continue
        result = decide_star_decomposition(g, k, gamma)
        if isinstance(result, StarDecomposition):
            return SearchTranscript(tried, FOUND, result)
        cuts.append((result.vertices, result.delta_plus // k + 1))
    return SearchTranscript(tried, EXHAUSTED)


def sample_maximal_partial(n: int, k: int, seed: int) -> tuple[StarDecomposition, Graph]:
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
    if complete_graph(n).num_edges != leave.num_edges + k * len(stars):
        raise RuntimeError("sampled stars and leave do not partition K_n")
    return StarDecomposition(k, tuple(stars)), leave
