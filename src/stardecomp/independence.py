"""Exact independence numbers and lexicographically smallest maximum
independent sets.

The solver is a budgeted branch-and-bound. Components are solved
independently; clique components and components of maximum degree at most 2
(paths and cycles) are answered in closed form, which covers the disjoint
clique unions the tightness families use even at hundreds of vertices.
"""

from __future__ import annotations

from .graphs import Graph

DEFAULT_ALPHA_BUDGET = 10_000_000


class BudgetExceeded(Exception):
    """A branch-and-bound search hit its node budget before finishing."""


def _component_alpha(g: Graph, comp: list[int], budget: list[int]) -> int:
    size = len(comp)
    degs = [g.degree(v) for v in comp]
    if all(d == size - 1 for d in degs):
        # every neighbour lies in the component, so each vertex sees all the others
        return 1
    if max(degs) <= 2:
        # path or cycle: every vertex has degree <= 2 and the component is
        # connected, so it is a cycle iff all degrees are 2
        if all(d == 2 for d in degs):
            return size // 2
        return (size + 1) // 2
    index = {v: i for i, v in enumerate(comp)}
    adj = [0] * size
    for v in comp:
        for w in g.neighbors(v):
            adj[index[v]] |= 1 << index[w]
    memo: dict[int, int] = {}

    def solve(mask: int) -> int:
        if mask == 0:
            return 0
        cached = memo.get(mask)
        if cached is not None:
            return cached
        budget[0] -= 1
        if budget[0] < 0:
            raise BudgetExceeded("independence search budget exhausted")
        # reductions: vertices of degree 0 or 1 inside the mask are always
        # safe to take
        m = mask
        best_v = -1
        best_d = -1
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            d = (adj[v] & mask).bit_count()
            if d <= 1:
                result = 1 + solve(mask & ~(adj[v] | (1 << v)))
                memo[mask] = result
                return result
            if d > best_d:
                best_d = d
                best_v = v
        v = best_v
        take = 1 + solve(mask & ~(adj[v] | (1 << v)))
        skip = solve(mask & ~(1 << v))
        result = max(take, skip)
        memo[mask] = result
        return result

    return solve((1 << size) - 1)


def independence_number(g: Graph, budget: int = DEFAULT_ALPHA_BUDGET) -> int:
    """Exact independence number; raises BudgetExceeded if the search is cut off."""
    counter = [budget]
    return sum(_component_alpha(g, comp, counter) for comp in g.components())


def maximum_independent_set(g: Graph, budget: int = DEFAULT_ALPHA_BUDGET) -> tuple[int, ...]:
    """The lexicographically smallest maximum independent set.

    Greedy over vertex labels: vertex v joins the set whenever some maximum
    independent set of the remaining graph contains it, which is checked with
    one exact solve per vertex.
    """
    target = independence_number(g, budget)
    chosen: list[int] = []
    blocked: set[int] = set()
    alive = set(range(g.n))
    remaining = target
    for v in range(g.n):
        if remaining == 0:
            break
        if v in blocked or v not in alive:
            continue
        rest = alive - {v} - g.neighbors(v)
        sub = _induced(g, rest)
        if independence_number(sub, budget) == remaining - 1:
            chosen.append(v)
            blocked |= g.neighbors(v)
            alive = rest
            remaining -= 1
        else:
            alive.discard(v)
    return tuple(chosen)


def _induced(g: Graph, vertices: set[int]) -> Graph:
    order = sorted(vertices)
    index = {v: i for i, v in enumerate(order)}
    edges = frozenset(
        (index[u], index[v]) for u, v in g.edges if u in vertices and v in vertices
    )
    return Graph(len(order), edges)
