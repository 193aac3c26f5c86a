"""Exact independence numbers and lexicographically smallest maximum
independent sets.

Components are solved independently. A clique component is answered at once,
which covers the disjoint clique unions of the tightness families at any
size. Any other component gets one search over masks of vertex labels, read
against the graph's own bitset rows: vertices of degree 0 or 1 are taken in
a loop (settling forests, paths and cycles with at most one branch), and the
rest is branched on a vertex of maximum degree, with pending masks on an
explicit stack. The budget counts branch nodes and the memo holds one entry
per branch node, so the memo never outgrows the budget. Masks of different
components never meet, so one memo serves them all, and it also answers
``maximum_independent_set``.

``caro_wei_floor`` is the Caro–Wei lower bound on alpha, read off the
degrees alone, for callers that need alpha only when it could fall below
some number.
"""

from __future__ import annotations

from collections import Counter
from math import lcm

from .graphs import Graph, mask_of

DEFAULT_ALPHA_BUDGET = 10_000_000


class BudgetExceeded(Exception):
    """A branch-and-bound search hit its node budget before finishing."""


class _Search:
    """Independence numbers of vertex masks, memoized, on one node budget."""

    def __init__(self, g: Graph, budget: int) -> None:
        self.adj = g.rows
        self.budget = budget
        self.memo = {0: 0}

    def reduce(self, mask: int) -> tuple[int, int]:
        """Take vertices of degree 0 or 1 inside the mask while there are any;
        returns how many were taken and the mask left."""
        taken = 0
        todo = mask
        while todo:
            v = (todo & -todo).bit_length() - 1
            todo &= todo - 1
            nbr = self.adj[v] & mask
            if mask >> v & 1 and not nbr & (nbr - 1):
                taken += 1
                mask &= ~(nbr | 1 << v)
                if nbr:  # the neighbour's other neighbours lose a degree
                    todo |= self.adj[nbr.bit_length() - 1] & mask
        return taken, mask

    def alpha(self, mask: int) -> int:
        adj, memo = self.adj, self.memo
        taken, core = self.reduce(mask)
        pending: list = [core]
        while pending:
            top = pending.pop()
            if isinstance(top, tuple):
                node, (a, take), (b, skip) = top
                memo[node] = max(1 + a + memo[take], b + memo[skip])
                continue
            if top in memo:
                continue
            self.budget -= 1
            if self.budget < 0:
                raise BudgetExceeded("independence search budget exhausted")
            best_v = best_d = -1
            m = top
            while m:
                v = (m & -m).bit_length() - 1
                m &= m - 1
                d = (adj[v] & top).bit_count()
                if d > best_d:
                    best_v, best_d = v, d
            take = self.reduce(top & ~(adj[best_v] | 1 << best_v))
            skip = self.reduce(top & ~(1 << best_v))
            pending += [(top, take, skip), skip[1], take[1]]
        return taken + memo[core]


def _component_alphas(g: Graph, search: _Search):
    """Each component with its mask (None for a clique) and its alpha."""
    for comp in g.components():
        size = len(comp)
        if all(g.degree(v) == size - 1 for v in comp):
            # every neighbour lies in the component, so each vertex sees all the others
            yield comp, None, 1
        else:
            mask = mask_of(comp)
            yield comp, mask, search.alpha(mask)


def caro_wei_floor(g: Graph) -> int:
    """The least integer at or above the sum over vertices v of
    1/(deg v + 1), which is at most the independence number (Caro 1979,
    Wei 1981). Exact in integers: each distinct degree adds its count times
    D/(deg + 1) to a numerator over D, the lcm of the distinct deg + 1."""
    counts = Counter(g.degrees)
    den = lcm(*(d + 1 for d in counts))
    num = sum(c * (den // (d + 1)) for d, c in counts.items())
    return -(-num // den)


def independence_number(g: Graph, budget: int = DEFAULT_ALPHA_BUDGET) -> int:
    """Exact independence number; raises BudgetExceeded once the search has
    branched ``budget`` times."""
    return sum(alpha for _, _, alpha in _component_alphas(g, _Search(g, budget)))


def maximum_independent_set(g: Graph, budget: int = DEFAULT_ALPHA_BUDGET) -> tuple[int, ...]:
    """The lexicographically smallest maximum independent set.

    Greedy over vertex labels, one component at a time: a vertex joins iff
    some maximum independent set of what is left contains it. Components do
    not interact, so the union of their answers is the smallest overall.
    """
    search = _Search(g, budget)
    adj = g.rows
    chosen: list[int] = []
    for comp, mask, remaining in _component_alphas(g, search):
        if mask is None:
            chosen.append(comp[0])
            continue
        # alpha(mask) == remaining throughout
        for v in comp:
            if remaining and mask >> v & 1:
                rest = mask & ~(adj[v] | 1 << v)
                if 1 + search.alpha(rest) == remaining:
                    chosen.append(v)
                    mask, remaining = rest, remaining - 1
                else:
                    mask &= ~(1 << v)
    return tuple(sorted(chosen))
