"""Exhaustive searches: ground truth for the flow solver, and the decision
procedure of the embedder for every s its constructions do not cover.

``exhaustive_decomposition`` backtracks over which endpoint centers each
edge, one side bit per decided edge, and keeps a choice while both endpoints
can still center a multiple of k edges (exactly k*gamma(x) when gamma is
given). It uses no flow and prunes only by counting, so it remains an
independent check on the flow formulation.

``exhaustive_gamma_search`` enumerates one center-count function per vector
of twin-class totals, the one that spreads each total evenly over its class,
and tests each with the flow solver. Two checks refuse a candidate without
a flow. Hakimi's condition k*gamma(U) >= |E[U]| must hold for U = the zeros
plus part of one twin class; the enumerator keeps what that check needs up
to date as class totals change, so a verdict costs what changed, not n. And
a witness set refused for one candidate rules out every later candidate that
puts as many centers in some image of it under permutations inside twin
classes. The docstring of ``exhaustive_gamma_search`` proves the reduction
to even spreads exact and both refusals sound, and the test suite checks
them against flow-free searches.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from functools import cache
from itertools import chain
from math import ceil, log

from .graphs import Graph, labels_of, mask_of
from .solver import (
    Star,
    StarDecomposition,
    _check_gamma,
    _even_spread,
    _stars_of,
    decide_star_decomposition,
)

DEFAULT_SEARCH_BUDGET = 100_000_000
# Candidates one gamma search tries. One value serves embed (once per
# searched s), sweep, decompose --graph and the family claims. At 50,000 the
# held-out grid (k = 8..22, n = 2k..5k, sample seeds 0-1) keeps 2
# conditional certificates of 1,380 against 17 at 2,000, its slowest embed
# taking about 0.9 s on a 2-core host; 20,000 keeps 5, one at s = 23 against
# the exact 15. 300,000 settles no further held-out cell, and it takes 6x as
# long on 96 thick k = 3 leaves (214 s against 35 s). A search that no budget
# settles spends it all: embed --k 4 on a 24,000-vertex caterpillar takes
# 4.6 s against 1.3 s at 2,000.
DEFAULT_GAMMA_BUDGET = 50_000
# 2^30 - 35: a prime of one CPython int digit, so a row's residue takes one
# short pass, with 2 as a primitive root
_ROW_PRIME = 1_073_741_789

FOUND = "found"
EXHAUSTED = "exhausted-nonexistence"
BUDGET_EXCEEDED = "budget-exceeded"


@dataclass(frozen=True)
class SearchTranscript:
    nodes_explored: int
    outcome: str
    decomposition: StarDecomposition | None = None


def exhaustive_decomposition(
    g: Graph, k: int, budget: int = DEFAULT_SEARCH_BUDGET, gamma=None
) -> SearchTranscript:
    """Backtracking search for a k-star decomposition, optionally with the
    number of stars per center fixed to gamma.

    Any k edges at one center form a star, so a decomposition is the same
    as a choice of center, one endpoint per edge, under which every vertex
    centers a multiple of k edges, exactly k*gamma(x) of them when gamma is
    given (Tarsi, Discrete Math. 1981). Edges are decided in label order,
    the lower endpoint tried first, and a choice stands while both endpoints
    can still reach their count with their undecided edges. Each edge
    reached afresh is one node of the budget. The stars are read as the
    solver reads them (``solver._stars_of``): by ascending center, each
    center's edges ascending, k at a time. Exhaustion is definitive:
    either every branch was explored or the budget tripped.
    """
    if k < 2:
        raise ValueError("star size k must be at least 2")
    m = g.num_edges
    if gamma is not None:
        gamma = _check_gamma(g, k, gamma)
        if k * sum(gamma) != m:  # so k divides m whenever gamma is given
            return SearchTranscript(0, EXHAUSTED)
        if any(k * gamma[x] > g.degree(x) for x in range(g.n)):
            # a center needs k distinct incident edges per star
            return SearchTranscript(0, EXHAUSTED)
        if any(gamma[u] == 0 and gamma[v] == 0 for u, v in g.edges):
            # every edge must get a star centered at one of its endpoints
            return SearchTranscript(0, EXHAUSTED)
    elif m % k:
        return SearchTranscript(0, EXHAUSTED)
    if m == 0:
        return SearchTranscript(0, FOUND, StarDecomposition(k, ()))

    edges = g.edges
    rem = list(g.degrees)  # undecided edges at each vertex
    held = [0] * g.n  # decided edges each vertex centers
    want = None if gamma is None else [k * x for x in gamma]

    def fits(x: int) -> bool:
        if want is None:
            return -held[x] % k <= rem[x]
        return held[x] <= want[x] <= held[x] + rem[x]

    sides = [0] * m  # 1 where the higher endpoint centers the edge
    nodes = i = side = 0  # side: the endpoint edge i tries next, 2 when both failed
    while i < m:
        u, v = edges[i]
        if side:
            held[v if side == 2 else u] -= 1  # take back the last try
        else:
            nodes += 1
            if nodes > budget:
                return SearchTranscript(nodes, BUDGET_EXCEEDED)
            rem[u] -= 1
            rem[v] -= 1
        if side == 2:
            # no endpoint left for edge i: give it back and retry edge i - 1
            rem[u] += 1
            rem[v] += 1
            if i == 0:
                return SearchTranscript(nodes, EXHAUSTED)
            i -= 1
            side = sides[i] + 1
            continue
        held[v if side else u] += 1
        if fits(u) and fits(v):
            sides[i] = side
            i += 1
            side = 0
        else:
            side += 1
    # the edges are in label order, so each center's leaves come ascending
    leaves: list[list[int]] = [[] for _ in range(g.n)]
    for (u, v), side in zip(edges, sides):
        center, leaf = (v, u) if side else (u, v)
        leaves[center].append(leaf)
    gamma = [len(row) // k for row in leaves]
    stars = _stars_of(k, gamma, map(len, leaves), chain.from_iterable(leaves))
    return SearchTranscript(nodes, FOUND, stars)


def count_gamma_candidates(g: Graph, k: int) -> int:
    """Upper bound on the number of k-precentral gamma with k*gamma(x) <= deg(x)
    (ignores the edge-coverage and twin pruning the enumerator applies)."""
    if g.num_edges % k:
        return 0
    b = g.num_edges // k
    counts = [1] + [0] * b
    for cap in (d // k for d in g.degrees):
        nxt = [0] * (b + 1)
        for total, ways in enumerate(counts):
            if not ways:
                continue
            for val in range(min(cap, b - total) + 1):
                nxt[total + val] += ways
        counts = nxt
    return counts[b]


def twin_classes(g: Graph) -> list[tuple[int, ...]]:
    """The twin classes of g, each in label order, ordered by first label.

    Twins have equal open neighbourhoods (non-adjacent) or equal closed ones
    (adjacent), so swapping two of them is an automorphism of g. A vertex
    never has twins of both kinds: if N(x) = N(y) and N[x] = N[z], then z is
    in N(y) and y in N[z] = N[x], so y would be in N(x) = N(y). So the
    classes partition the vertices, and an open neighbourhood never equals a
    closed one, so one table serves both kinds.

    The table is keyed by each row's residue mod a prime and every match is
    checked against the class's first member. A dict keyed by the rows
    themselves would hash them mod 2^61 - 1, under which rows that differ by
    a shift of 61 labels collide: a path's rows fill a few dozen slots, and
    each lookup scans one. The prime has 2 as a primitive root, so no shift
    shorter than the prime collides, and the closed row's residue is the
    open one's plus 2^x.
    """
    rows = g.rows
    index: dict[int, list[int]] = {}  # residue of an open or closed row -> classes
    classes: list[list[int]] = []
    power = 1  # 2^x mod the prime
    for x, row in enumerate(rows):
        key = row % _ROW_PRIME
        closed_key = (key + power) % _ROW_PRIME
        power = 2 * power % _ROW_PRIME
        for c in index.get(key, []) + index.get(closed_key, []):
            z = classes[c][0]
            if rows[z] == row or rows[z] | (1 << z) == row | (1 << x):
                classes[c].append(x)
                break
        else:
            index.setdefault(key, []).append(len(classes))
            index.setdefault(closed_key, []).append(len(classes))
            classes.append([x])
    return [tuple(members) for members in classes]


def _class_of(n: int, classes) -> list[int]:
    of = [0] * n
    for c, members in enumerate(classes):
        for x in members:
            of[x] = c
    return of


def spread_gamma(n: int, classes, totals) -> tuple[int, ...]:
    """The gamma that spreads each class total evenly over its class: d or
    d + 1 per vertex, the d + 1 values on the lowest labels."""
    gamma = [0] * n
    for members, total in zip(classes, totals):
        for x, c in zip(members, _even_spread(total, len(members))):
            gamma[x] = c
    return tuple(gamma)


def iter_class_totals(g: Graph, k: int, classes):
    """Every vector of class totals whose even spread (``spread_gamma``) is
    k-precentral, meets the caps k*gamma(x) <= deg(x) and meets the edge
    condition gamma(u) + gamma(v) >= 1, in ascending lexicographic order,
    each paired with ``short``: whether the spread breaks Hakimi's condition
    on the zeros plus the j lowest positive members of one class, for some
    class and j, so that no flow can accept it (``exhaustive_gamma_search``
    proves that testing two j's per class is enough).

    ``classes`` is ``twin_classes(g)``. Twins have equal degrees, so a class
    of m vertices with per-vertex cap c takes a total t <= m*c. The spread
    of t has a zero iff t < m. Two adjacent twins are closed twins, so the
    whole class is a clique and needs t >= m - 1; adjacent classes are
    completely joined, so they may not both hold a zero. A class of cap 0
    stays at 0 and leaves the walk; then each of its neighbour classes must
    have no zero, and an edge between two cap-0 vertices leaves no vector.
    A class's members share their neighbours outside it, so the set-up
    reads each class's cap and the size of its neighbour classes off the
    degree of its first member, and finds zeros next to a vertex in one
    mask of the cap-0 vertices. The walk keeps its position in arrays
    rather than on the call stack, so any number of classes is fine. It
    keeps, for every class, the number of zeros next to each of its
    positive members, and the most that its spread can carry, up to date as
    totals change, so a change costs the degree of its class in the class
    graph, not n. A class the walk backs out of keeps its total until the
    walk sets it again, since only the complete vectors it yields are read.
    """
    if g.num_edges % k:
        return
    b = g.num_edges // k
    of = _class_of(g.n, classes)
    rows, degrees = g.rows, g.degrees
    reps = [members[0] for members in classes]
    cap = [degrees[x] // k for x in reps]
    size = [len(members) for members in classes]
    nbrs = [{of[w] for w in labels_of(rows[x])} for x in reps]
    clique = [c in nbrs[c] for c in range(len(classes))]
    zeros = mask_of(x for x, d in enumerate(degrees) if d < k)  # the vertices of cap 0
    if any(rows[x] & zeros for x in labels_of(zeros)):
        return
    free = [c for c in range(len(classes)) if cap[c]]
    pos = {c: i for i, c in enumerate(free)}
    most = [size[c] * cap[c] for c in free]
    least = [
        size[c] if rows[reps[c]] & zeros else size[c] - 1 if clique[c] else 0 for c in free
    ]
    earlier = [[w for w in nbrs[c] if pos.get(w, i) < i] for i, c in enumerate(free)]
    f = len(free)
    suffix = [0] * (f + 1)
    for i in range(f - 1, -1, -1):
        suffix[i] = suffix[i + 1] + most[i]
    totals = [0] * len(classes)  # the classes of cap 0 stay at 0
    # near[c]: the zeros next to a positive member of c, its own class's
    # included when c is a clique; room[c]: the most zeros next to a positive
    # member that c's spread carries under Hakimi's condition on the zeros
    # plus some of c's members; shorts: the classes with near[c] > room[c]
    # twin classes are modules, so c's neighbour classes hold the deg(rep)
    # neighbours of its first member, and that member too when c is a clique
    near = [degrees[x] + is_clique for x, is_clique in zip(reps, clique)]
    room = [g.n] * len(classes)  # a total of 0 has no positive member
    shorts = 0

    @cache  # the walk sets the same few totals over and over
    def room_of(m: int, is_clique: bool, t: int) -> int:
        d, e = divmod(t, m)
        p = m if d else e  # all positive members, gamma(S) = t
        if not p:
            return g.n
        q = m - e if d else 0  # the positive members holding d, gamma(S) = d*q
        most = (2 * k * t - is_clique * p * (p - 1)) // (2 * p)
        return min(most, (2 * k * d - is_clique * (q - 1)) // 2) if q else most

    def set_total(c: int, t: int) -> None:
        nonlocal shorts
        old = totals[c]
        if old == t:
            return
        totals[c] = t
        m = size[c]
        if t < m or old < m:  # the number of zeros in c moves
            more_zeros = max(m - t, 0) - max(m - old, 0)
            for w in nbrs[c]:
                z = near[w]
                near[w] = z + more_zeros
                shorts += (z + more_zeros > room[w]) - (z > room[w])
        was = near[c] > room[c]
        room[c] = room_of(m, clique[c], t)
        shorts += (near[c] > room[c]) - was

    top = [0] * f  # the largest total free class i may take under the current prefix
    i = 0
    total = 0  # sum of the totals of the free classes below i
    while True:
        if i == f:
            if total == b:  # implied by lo and hi below unless f == 0
                yield tuple(totals), shorts > 0
        else:
            c = free[i]
            # below b - total - suffix[i + 1] the later caps cannot reach b
            lo = max(b - total - suffix[i + 1], least[i])
            if lo < size[c] and any(totals[w] < size[w] for w in earlier[i]):
                lo = size[c]
            hi = min(most[i], b - total)
            if lo <= hi:
                set_total(c, lo)
                top[i] = hi
                total += lo
                i += 1
                continue
        # move to the next total at the deepest free class that has one
        while True:
            i -= 1
            if i < 0:
                return
            c = free[i]
            if totals[c] < top[i]:
                set_total(c, totals[c] + 1)
                total += 1
                i += 1
                break
            total -= totals[c]  # totals[c] stays until the walk sets it again


def exhaustive_gamma_search(
    g: Graph, k: int, budget: int = DEFAULT_GAMMA_BUDGET
) -> SearchTranscript:
    """Decide whether any k-star decomposition exists by enumerating one
    center function per vector of twin-class totals and testing it with the
    flow solver. The search gives up as ``BUDGET_EXCEEDED`` on candidate
    ``budget + 1``; its default, ``DEFAULT_GAMMA_BUDGET``, is the one gamma
    budget that ``embed`` (once per searched s), ``sweep``, ``decompose``
    and the family claims read.

    One candidate per vector is enough. Call gamma feasible when a
    decomposition with exactly those center counts exists. By Hakimi's
    orientation theorem, k*gamma is feasible iff k*gamma(T) <= |E(T)|, the
    number of edges meeting T, for every vertex set T, and these vectors
    are the integer points of a base polyhedron (Frank & Gyarfas). Swapping
    two twins is an automorphism of g, so the polyhedron is symmetric under
    the swap. If twins x, y have gamma(x) >= gamma(y) + 2, moving one center
    from x to y gives a convex combination of gamma and its swap, which is
    integral, so feasible too. Repeating this spreads each class total
    evenly, so if any gamma with given class totals is feasible, so is the
    even spread that ``iter_class_totals`` pairs with those totals.

    A candidate ``iter_class_totals`` calls short is skipped without a flow.
    With U the complement of T, Hakimi's condition reads k*gamma(U) >=
    |E[U]|, the number of edges with both ends in U: each such edge is a
    leaf of a star centered in U. The walk tests U = Z + S, where Z holds
    the zeros of the spread and S the j lowest positive members of one class
    c of m vertices with total t, so d = t // m. No edge joins two zeros
    (the edge condition), and twins in c are adjacent iff c is a clique, so
    |E[U]| = [c is a clique]*j*(j - 1)/2 + j*z_c, where z_c counts the zeros
    next to a positive member x of c. Every positive member has the same
    z_c: open twins share N(x), closed twins share N[x], and x itself is no
    zero. Each S of j members has the same |E[U]|, so the lowest is the
    worst. gamma(S) grows by d per member while S takes the q members that
    hold d (q = m - t % m when d >= 1, none when d = 0) and by d + 1 per
    member after that, up to all p positive members. So the slack
    k*gamma(S) - |E[U]| is a linear function minus a convex one on [0, q]
    and on [q, p]: concave on each, its least value over 0..p is at 0, q or
    p, and at 0 it is 0. Testing j = q and j = p therefore decides every j;
    in particular j = 1, k*gamma(x) >= z_c (an edge from x to a zero is
    centered at x), is implied. Hakimi's condition is necessary, so a short
    candidate has no decomposition.

    Every refused candidate leaves a deficient set T, whose |E(T)| incident
    edges cannot carry |E(T)|//k + 1 stars centered in T. The cut keeps T's
    class profile p_c = |T & class c|. Permuting vertices inside classes is
    an automorphism, so every image of T has |E(T)| incident edges too; a
    later candidate whose spread puts at least |E(T)|//k + 1 centers in its
    worst image, sum over c of p_c*(t_c // m_c) + min(p_c, t_c % m_c) for a
    class of m_c vertices with total t_c, is skipped without a flow. The
    short test runs first. Skipped candidates count toward
    ``nodes_explored`` and the budget like tested ones, so the outcome, the
    count and the first feasible candidate are those of testing every
    candidate.
    """
    if k < 2:
        raise ValueError("star size k must be at least 2")
    classes = twin_classes(g)
    of = _class_of(g.n, classes)
    tried = 0
    # (one-vertex classes of T, (c, p_c, m_c) for larger ones, |E(T)|//k + 1)
    cuts: list[tuple[tuple[int, ...], tuple[tuple[int, int, int], ...], int]] = []
    for totals, short in iter_class_totals(g, k, classes):
        tried += 1
        if tried > budget:
            return SearchTranscript(tried, BUDGET_EXCEEDED)
        if short or any(
            sum(map(totals.__getitem__, single))
            + sum([p * (totals[c] // m) + min(p, totals[c] % m) for c, p, m in multi])
            >= most
            for single, multi, most in cuts
        ):
            continue
        result = decide_star_decomposition(g, k, spread_gamma(g.n, classes, totals))
        if isinstance(result, StarDecomposition):
            return SearchTranscript(tried, FOUND, result)
        profile = Counter(of[x] for x in result.vertices)
        single = tuple(c for c in profile if len(classes[c]) == 1)
        multi = tuple((c, p, len(classes[c])) for c, p in profile.items() if len(classes[c]) > 1)
        cuts.append((single, multi, result.delta_plus // k + 1))
    return SearchTranscript(tried, EXHAUSTED)


def sample_maximal_partial(n: int, k: int, seed: int) -> tuple[StarDecomposition, Graph]:
    """Random greedy maximal partial k-star decomposition of K_n.

    Stars are placed while some vertex still has k uncovered incident edges,
    so the leave always has maximum degree at most k-1. Deterministic for a
    fixed seed, and the same from version to version: every random number is
    a ``getrandbits`` draw of ``random.Random(seed)``, the one stream of
    ``random`` Python keeps stable, and the draws are made exactly as
    ``choice`` and ``sample`` make them. A number below m is
    ``getrandbits(m.bit_length())``, drawn again while it is m or more. The
    center is the number below the count of vertices with k or more
    uncovered edges, read in their ascending list. The leaves are what
    ``sample(row, k)`` picks from the center's ascending uncovered
    neighbours, with the algorithm ``sample``'s own switch chooses:
    swap-with-last on a row of at most ``setsize`` labels, indices redrawn
    into a set on a longer one. The star lists them ascending.

    Each vertex keeps its uncovered neighbours as a sorted list, and the
    vertices with k or more as another; a star removes its 2k edge ends and
    any vertex it leaves below k, so it never rescans the n vertices.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    if k < 2:
        raise ValueError("star size k must be at least 2")
    bits = random.Random(seed).getrandbits
    width = [m.bit_length() for m in range(n + 1)]
    # random.sample's switch: a row this long or shorter is drawn from by
    # swap-with-last, a longer one by redrawing indices into a set
    setsize = 21 + (4 ** ceil(log(3 * k, 4)) if k > 5 else 0)
    uncovered = [[*range(v), *range(v + 1, n)] for v in range(n)]
    eligible = list(range(n)) if n > k else []
    stars: list[Star] = []
    new = tuple.__new__
    while eligible:
        m = len(eligible)
        w = width[m]
        i = bits(w)
        while i >= m:
            i = bits(w)
        center = eligible[i]
        row = uncovered[center]
        m = len(row)
        if m <= setsize:
            # each pick is swapped to the tail, so row[:m - k] stays unpicked
            for last in range(m - 1, m - 1 - k, -1):
                w = width[last + 1]
                j = bits(w)
                while j > last:
                    j = bits(w)
                row[j], row[last] = row[last], row[j]
            leaves = sorted(row[m - k :])
            del row[m - k :]
            row.sort()
        else:
            w = width[m]
            picked: set[int] = set()
            for _ in range(k):
                j = bits(w)
                while j >= m or j in picked:
                    j = bits(w)
                picked.add(j)
            at = sorted(picked)
            leaves = [row[j] for j in at]
            for j in reversed(at):
                del row[j]
        stars.append(new(Star, (center, tuple(leaves))))
        for leaf in leaves:
            other = uncovered[leaf]
            other.remove(center)
            if len(other) == k - 1:  # it just fell below k
                eligible.remove(leaf)
        if len(row) < k:
            eligible.remove(center)
    leave = Graph(n, tuple((u, v) for u in range(n) for v in uncovered[u] if u < v))
    if leave.max_degree() > k - 1:
        raise RuntimeError("sampled leave has a vertex of degree k or more")
    if n * (n - 1) // 2 != leave.num_edges + k * len(stars):
        raise RuntimeError("sampled stars and leave do not partition K_n")
    return StarDecomposition(k, tuple(stars)), leave
