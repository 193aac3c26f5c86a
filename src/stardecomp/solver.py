"""Decide and construct k-star decompositions with prescribed center counts.

A k-precentral function assigns each vertex the number of stars to be
centered there, subject to k * sum(gamma) = |E|. Such a decomposition exists
iff the edges can be oriented so that exactly k*gamma(x) edges leave each x
(Tarsi's criterion). The decision orients the edges greedily and repairs
the orientation with one max-flow on the n vertices alone (Hakimi's
degree-constrained orientation): a vertex with too many out-edges has that
surplus and a vertex with too few has that deficit. Each unit of flow
reverses a directed path from a surplus vertex to a deficit vertex, so
after a full flow the orientation is repaired and the stars are read from
it, each vertex's out-neighbours ascending, k at a time. Anything less
leaves a vertex set T, the vertices with a directed path to unmet deficit,
whose incident-edge count falls short of k * sum(gamma over T), certifying
infeasibility. T is the smallest set of minimum deficiency, so it lies
inside the support of gamma, and it does not depend on the start.

The orientation is held in one of two ways, picked from n and |E| alone:

- **Arcs** (the default). One walk over ``Graph.upper``, vertex by vertex
  in label order, orients each edge, leaving the endpoint with the larger
  share of its not yet oriented edges still to take, and appends its head
  to the tail's list. A ``flow.MaxFlow`` repairs those lists in place,
  naming each arc by its tail and its position in the tail's list, and
  builds nothing when no vertex has surplus. The lists ascend, as the
  edges do; so when the start needs no repair (922 of the 3,600 seed-0
  ``constructions`` decides and 984 of the 2,741 ``sweep`` ones) they are
  the stars as they stand, and after a repair only the ends of reversed
  arcs are re-read and sorted. Validation compares
  the stars' sorted pair codes with codes read off ``Graph.upper``. So a
  join, which splices its ``upper`` from its base, never builds its edge
  tuple here.
- **Rows**, for graphs of at least 128 vertices and n^2/16 edges, such as
  the dense family complements and joins: one out-neighbour bitset per
  vertex. Vertices are oriented in label order, each pointing at the upper
  neighbours it still needs, with O(n) big-int operations in all, and
  ``flow.max_flow_on_rows`` repairs the start. A vertex below the block
  of universal vertices that ends the label order (a join's K_s, a
  complement's isolated leave vertices) takes its share of the block as a
  window of labels that rotates from one such vertex to the next; every
  other choice is the highest-labelled neighbours. So a join's base
  vertices spread over its K_s instead of piling onto its top labels, and
  the flow has little left to repair. Complements like tightness-T2's,
  whose block is nearly every vertex, pay for that: their few lower
  vertices each take most of the block, and the windows overlap.
  Validation of these graphs writes the stars into an n-by-n byte matrix
  and reads each vertex's row and column of it against its row of g.
  Neither reads ``Graph.edges`` or ``Graph.upper``, so a builder's graph
  builds neither here.

A refusal is read the same way on both routes: ``flow.reaching`` walks
the final orientation back from unmet deficit, asking for the in-neighbour
masks of only the vertices it reaches, and its set is the witness. The arc
route reads both outcomes off one ``MaxFlow.ascending_heads()``: the stars
of a full flow, and otherwise each reached vertex's row less the mask of
its list, since a vertex no path touched keeps the list it was given. So
both routes give the same verdict and witness; only the stars of a
decomposition may differ. A bitset step costs O(n/64) word operations
where an arc step costs one, so the rows pay only on large dense graphs.
Times of the rows route relative to the arc route on the same inputs
(one core of a 2-core x86-64 host; the first two rows are the median
ratio over nine paired repetitions, in each of four runs, each route
deciding every join of the pass afresh, so that it pays for the ``upper``
tuples or rows it reads; the others are best of three):

    graphs                                  rows vs arcs
    seed-0 sweep decides (all)              1.00x-1.09x
    seed-0 constructions decides (all)      0.84x-0.96x
    path joins of 504 and 2,004 vertices    5.4x and 12x-13x
    dense K_n, n = 48..256                  0.34x-0.63x

(The path joins are P_500 and P_2,000 joined with K_4 at k = 3 and the
large-case centers; K_n takes k = 8 and balanced centers.) The 128-vertex
floor keeps every sweep and constructions join (at most 58 vertices) on
arcs: the rows gain little or nothing there (the first two rows above),
and would move their pinned stars. The density floor keeps long
sparse graphs off the rows, whose bitsets and validation matrix take about
n^2/8 and n^2 bytes: at most 2 and 16 bytes an edge at the floor.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from typing import NamedTuple

from .flow import MaxFlow, max_flow_on_rows, reaching
from .graphs import (
    Graph,
    complete_graph,
    labels_in,
    labels_of,
    mask_of,
)


class Star(NamedTuple):
    center: int
    leaves: tuple[int, ...]

    def edges(self) -> list[tuple[int, int]]:
        return [(min(self.center, x), max(self.center, x)) for x in self.leaves]


@dataclass(frozen=True)
class StarDecomposition:
    k: int
    stars: tuple[Star, ...]

    def central_function(self, n: int) -> tuple[int, ...]:
        gamma = [0] * n
        for star in self.stars:
            gamma[star.center] += 1
        return tuple(gamma)

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "stars": [
                {"center": s.center, "leaves": list(s.leaves)} for s in self.stars
            ],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "StarDecomposition":
        """Read ``to_json_dict``'s record, refusing labels that are not ints
        and, like them, a missing key or a record, star or leaf list of the
        wrong JSON type."""
        try:
            k = data["k"]
            stars = tuple(Star(s["center"], tuple(s["leaves"])) for s in data["stars"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed JSON decomposition: {exc!r}") from None
        labels = chain((k,), *((star.center, *star.leaves) for star in stars))
        if any(type(x) is not int for x in labels):
            raise ValueError("a JSON decomposition needs integer k, centers and leaves")
        return StarDecomposition(k, stars)


@dataclass(frozen=True)
class DeficiencyWitness:
    """A vertex set T with fewer incident edges than k * sum(gamma over T)."""

    vertices: tuple[int, ...]
    delta_plus: int
    delta_minus: int

    @property
    def delta(self) -> int:
        return self.delta_plus - self.delta_minus

    def to_json_dict(self) -> dict:
        return {
            "T": list(self.vertices),
            "delta_plus": self.delta_plus,
            "delta_minus": self.delta_minus,
            "delta": self.delta,
        }


def _check_gamma(g: Graph, k: int, gamma) -> tuple[int, ...]:
    if k < 2:
        raise ValueError("star size k must be at least 2")
    gamma = tuple(gamma)
    if len(gamma) != g.n:
        raise ValueError(f"gamma has {len(gamma)} entries for {g.n} vertices")
    if any(not isinstance(x, int) or x < 0 for x in gamma):
        raise ValueError("gamma values must be nonnegative integers")
    return gamma


def deficiency(g: Graph, k: int, gamma, vertices) -> DeficiencyWitness:
    """Exact deficiency of a vertex set: incident edges minus k*sum(gamma)."""
    gamma = _check_gamma(g, k, gamma)
    tset = set(vertices)
    if any(not (0 <= x < g.n) for x in tset):
        raise ValueError("witness vertices out of range")
    # the degrees count an edge inside T twice, once from each end
    rows = g.rows
    degrees = g.degrees
    inside = mask_of(tset)
    plus = sum(degrees[x] for x in tset) - sum(
        (rows[x] & inside).bit_count() for x in tset
    ) // 2
    minus = k * sum(gamma[x] for x in tset)
    return DeficiencyWitness(tuple(sorted(tset)), plus, minus)


def shrink_witness(g: Graph, k: int, gamma, vertices) -> tuple[int, ...]:
    """Greedily drop vertices (descending label) that do not increase the deficiency.

    Every vertex with gamma = 0 is always dropped, so the result lives inside
    the support of gamma. The deficiency never increases.
    """
    gamma = _check_gamma(g, k, gamma)
    current = set(vertices)
    if deficiency(g, k, gamma, current).delta >= 0:
        raise ValueError("shrink_witness expects a set with negative deficiency")
    # Dropping x loses its edges to vertices outside the current set and
    # k*gamma(x) of demand, so the deficiency does not grow iff
    # k*gamma(x) <= deg(x) minus its neighbours in the current set.
    rows = g.rows
    kept = mask_of(current)
    for x in sorted(current, reverse=True):
        if k * gamma[x] <= g.degree(x) - (rows[x] & kept).bit_count():
            kept ^= 1 << x
    return tuple(labels_of(kept))


def _on_rows(n: int, edges: int) -> bool:
    """Whether decide and validate take the rows route on a graph of n
    vertices: at least 128 of them, and n^2/16 edges or more (about an
    eighth of K_n)."""
    return n >= 128 and 16 * edges >= n * n


def decide_star_decomposition(
    g: Graph, k: int, gamma
) -> StarDecomposition | DeficiencyWitness:
    """Either a decomposition with center counts exactly gamma, or a witness set.

    The witness is the smallest vertex set of minimum deficiency: its
    deficiency is negative and all of its vertices carry positive gamma.
    Both routes (see the module docstring) return the same verdict and
    witness; only the stars of a decomposition may differ between them.
    """
    gamma = _check_gamma(g, k, gamma)
    if k * sum(gamma) != g.num_edges:
        raise ValueError("gamma is not k-precentral for this graph")
    if _on_rows(g.n, g.num_edges):
        return _decide_on_rows(g, k, gamma)
    return _decide_on_arcs(g, k, gamma)


def _stars_of(k: int, gamma: tuple[int, ...], degrees, leaves) -> StarDecomposition:
    """The stars of an orientation whose out-degrees ``degrees`` must be
    k*gamma: ``leaves`` streams each vertex's ascending out-neighbours in
    label order, and is cut k at a time."""
    if list(degrees) != [k * c for c in gamma]:
        raise RuntimeError("orientation out-degree mismatch")
    # One iterator zipped k times cuts the stream into k-tuples; each vertex
    # holds whole stars, so the cuts line up with the centers, x repeated
    # gamma(x) times.
    centers = chain.from_iterable(map(repeat, range(len(gamma)), gamma))
    pairs = zip(centers, zip(*[iter(leaves)] * k))
    return StarDecomposition(k, tuple(map(tuple.__new__, repeat(Star), pairs)))


def _refusal(g: Graph, k: int, gamma, into, excess: list[int]) -> DeficiencyWitness:
    # Both routes read a flow that left deficit unmet here, off the final
    # orientation's in-neighbour masks ``into(y)`` and the excess left.
    # Every edge between the set T that still reaches unmet deficit and the
    # rest now leaves T and all unmet demand lies inside T, so |E incident
    # to T| = out(T) < k*gamma(T). A cut with sink side T + sink has
    # capacity (total surplus) + deficiency(T), so T has minimum deficiency
    # and, being the smallest such sink side, lies inside every set that
    # does: dropping a vertex always raises the deficiency, which is why no
    # shrinking follows.
    witness = deficiency(g, k, gamma, labels_of(reaching(into, excess)))
    if witness.delta >= 0:
        raise RuntimeError("min cut did not produce a deficient set")
    return witness


def _orient_by_need(g: Graph, excess: list[int]) -> list[list[int]]:
    """Orient every edge of g, appending its head to its tail's list, and
    return the lists. ``excess[x]``, x's out-degree so far less k*gamma(x),
    gains one per edge leaving x. An edge leaves the endpoint whose need (-excess) is the
    larger share of its edges not yet oriented (rem), ties going to the
    lower label: (u, v) leaves v iff need[v]*rem[u] > need[u]*rem[v].
    Edges go in label order, vertex by vertex over ``g.upper``, so every
    list ascends."""
    rem = list(g.degrees)
    heads: list[list[int]] = [[] for _ in range(g.n)]
    for u, up in enumerate(g.upper):
        # u's edges to lower labels are oriented already, so its rem is
        # len(up), and only u's own edges change its excess from here on
        eu = excess[u]
        ru = len(up)
        hu = heads[u]
        for v in up:
            rv = rem[v]
            rem[v] = rv - 1
            if eu * rv > excess[v] * ru:
                excess[v] += 1
                heads[v].append(u)
            else:
                eu += 1
                hu.append(v)
            ru -= 1
        excess[u] = eu
    return heads


def _decide_on_arcs(g: Graph, k: int, gamma: tuple[int, ...]):
    excess = [-k * c for c in gamma]
    heads = _orient_by_need(g, excess)
    # the lists ascend, as ``ascending_heads`` needs
    net = MaxFlow(heads, excess)
    full = net.max_flow() == net.surplus
    heads = net.ascending_heads()
    if full:
        return _stars_of(k, gamma, map(len, heads), chain.from_iterable(heads))
    rows = g.rows
    return _refusal(g, k, gamma, lambda y: rows[y] & ~mask_of(heads[y]), excess)


def _top_bits(mask: int, q: int) -> int:
    """The q highest set bits of ``mask``, which has at least q >= 1 of them."""
    # the highest shift that still keeps q bits is the q-th highest bit
    lo, hi = 0, mask.bit_length() - 1
    while lo < hi:
        mid = (lo + hi + 1) >> 1
        if (mask >> mid).bit_count() >= q:
            lo = mid
        else:
            hi = mid - 1
    return mask >> lo << lo


def _decide_on_rows(g: Graph, k: int, gamma: tuple[int, ...]):
    # Vertices are oriented in label order. When u's turn comes, its edges
    # to lower labels are oriented already; u points at q of its upper
    # neighbours, q being its need clamped to 0..|upper|, and every upper
    # neighbour it declines points at u. So u's out-row is final after its
    # turn. Declines are not written one by one, so each choice is a
    # segment whose chooser a later label can look up:
    # - The block: the universal vertices z..n-1 that end the label order
    #   (a join's K_s, a complement's isolated leave vertices). A vertex
    #   below z that needs fewer than all of them takes a window of q
    #   block labels, rotating: it starts where the previous window ended
    #   and wraps from n back to z, so the choices of the vertices below z
    #   spread evenly over the block instead of piling onto its top labels.
    #   flip[v] toggles, at label v, the bits of the u whose window starts
    #   or stops there, and ``window`` holds the u whose window covers the
    #   current label.
    # - Any other choice is the q highest-labelled upper neighbours. Then u
    #   points at v > u iff v is a neighbour at or above u's lowest choice,
    #   so pointing[v] collects the u whose lowest choice is v, and
    #   ``pointers`` the u whose lowest choice is at most the current label.
    # Without a block (z = n), or when it is every vertex (K_n, z = 0), the
    # windows never run.
    rows = g.rows
    n = g.n
    full = (1 << n) - 1
    z = n
    while z and rows[z - 1] == full ^ (1 << (z - 1)):
        z -= 1
    size = n - z
    at = 0  # where the next window starts, counted from z
    flip = [0] * n
    window = 0
    out: list[int] = []
    excess: list[int] = []
    pointing = [0] * n
    pointers = 0
    below = 0  # the mask of the labels below u
    for u, row in enumerate(rows):
        pointers |= pointing[u]
        window ^= flip[u]
        down = row & below & ~(pointers | window)
        have = down.bit_count()
        upper = row >> (u + 1)
        q = max(0, min(k * gamma[u] - have, upper.bit_count()))
        if 0 < q < size and u < z:
            lo = z + at
            hi = lo + q
            at = (at + q) % size
            flip[lo] ^= 1 << u
            if hi > n:  # wrapped: [lo, n) and [z, hi - size)
                hi -= size
                flip[z] ^= 1 << u
                down |= (full ^ ((1 << lo) - 1)) | ((1 << hi) - (1 << z))
            else:
                down |= (1 << hi) - (1 << lo)
            if hi < n:
                flip[hi] ^= 1 << u
        elif q:
            chosen = _top_bits(upper, q) << (u + 1)
            pointing[(chosen & -chosen).bit_length() - 1] |= 1 << u
            down |= chosen
        out.append(down)
        excess.append(have + q - k * gamma[u])
        below |= 1 << u

    surplus = sum(x for x in excess if x > 0)
    if max_flow_on_rows(out, excess) == surplus:
        labels = tuple(range(n))  # so that leaves with one label share its int
        leaves = chain.from_iterable(map(labels_in, out, repeat(labels)))
        return _stars_of(k, gamma, [row.bit_count() for row in out], leaves)
    return _refusal(g, k, gamma, lambda y: rows[y] & ~out[y], excess)


def validate_decomposition(g: Graph, d: StarDecomposition) -> str | None:
    """None if the decomposition is valid for g, else a description of the
    first violation found. Never raises: a k that is not an int, a label
    that is no number and an int label of any size outside 0..n-1 are
    violations like any other. Labels are read by value, as ``Star.edges``
    reads them, so a float equal to a valid label stands for it.

    Validity is decided in one pass, once every star has k leaves, on the
    route ``decide_star_decomposition`` takes: rows at 128 vertices and
    n^2/16 edges or more, sorted codes otherwise (the module docstring
    times the routes).

    With sorted codes, once no label is n or more, the code low*n + high of
    a pair in 0..n-1 names exactly that pair, and a pair with a negative
    label gets a negative code, which no edge has. So the sorted codes of
    the star pairs equal the codes of g's edges, read in label order off
    ``g.upper``, iff the stars cover every edge exactly once: a repeated
    leaf, a center as its own leaf, a non-edge, a double cover and a
    missing edge each break the equality.

    On rows, once every center is in 0..n-1 and no leaf is negative, each
    star writes byte x of its center's row of an n-by-n matrix of n^2
    bytes, once per leaf x, through one view of that row: the view's own
    bounds check refuses a leaf of n or more, so no pass looks for the
    largest label. A negative leaf would index the row from its end, which
    is why the leaves are checked for one. The count of set bytes must be k
    per star, which a repeated leaf or star breaks. Then at each vertex x,
    its row of the matrix (what it claims) and its column (what claims it)
    must be disjoint and make up g's row of x. That costs O(|E|) one-byte
    writes plus O(n^2) bytes read in C, which is why sparse graphs keep the
    sorted codes.

    Only a failed check walks the stars, checking each of their pairs in
    turn, to name the first violation; only that walk reads ``g.edges``, so
    a valid decomposition of a builder's graph (a join, say) builds no
    edge tuple.
    """
    k = d.k
    if not isinstance(k, int):
        return f"star size {k!r} is not an integer"
    if k < 2:
        return f"star size {k} is below 2"
    n = g.n
    stars = d.stars
    if all(len(star.leaves) == k for star in stars):
        centers = [star.center for star in stars]
        star_leaves = [star.leaves for star in stars]
        try:
            if _on_rows(n, g.num_edges):
                if _covers_on_rows(g, k, centers, star_leaves):
                    return None
            elif _covers_by_codes(g, centers, star_leaves):
                return None
        except (TypeError, IndexError):
            pass  # a label that is not an int, or one out of a row's range
    # invalid: walk the stars in order for the first violation
    edges = frozenset(g.edges)
    seen: set[tuple[int, int]] = set()
    for idx, star in enumerate(d.stars):
        center, leaves = star.center, star.leaves
        if len(leaves) != d.k:
            return f"star {idx} at {center} has {len(leaves)} leaves, wanted {d.k}"
        try:
            pairs = [(center, x) if center < x else (x, center) for x in leaves]
            repeats = len(set(leaves)) != d.k
            in_range = [0 <= u < v < n for u, v in pairs]
        except TypeError:  # unordered against the others or 0, or unhashable
            return f"star {idx} has a label that is not a number"
        if repeats:
            return f"star {idx} at {center} repeats a leaf"
        if center in leaves:
            return f"star {idx} has its center {center} as a leaf"
        for edge, ok in zip(pairs, in_range):
            if not ok:
                return f"star {idx} uses out-of-range edge {edge}"
            if edge not in edges:
                return f"star {idx} uses edge {edge} that is not in the graph"
            if edge in seen:
                return f"edge {edge} covered twice"
            seen.add(edge)
    if len(seen) != g.num_edges:
        return f"edge {min(edges - seen)} uncovered"
    return None


def _covers_by_codes(g: Graph, centers, star_leaves) -> bool:
    """Whether stars with all labels below n cover every edge of g exactly
    once, read off their sorted pair codes (see ``validate_decomposition``)."""
    n = g.n
    if max(max(centers, default=0), max(map(max, star_leaves), default=0)) >= n:
        return False
    codes = [
        c * n + x if c < x else x * n + c
        for c, xs in zip(centers, star_leaves)
        for x in xs
    ]
    codes.sort()
    return codes == [u * n + v for u, up in enumerate(g.upper) for v in up]


def _covers_on_rows(g: Graph, k: int, centers, star_leaves) -> bool:
    """Whether stars of k leaves each cover every edge of g exactly once,
    read off their claims matrix (see ``validate_decomposition``). A leaf
    of n or more, or one that is no int, raises from its row's view."""
    n = g.n
    if not 0 <= min(centers, default=0) <= max(centers, default=0) < n:
        return False
    if min(map(min, star_leaves), default=0) < 0:
        return False
    claims = bytearray(b"0") * (n * n)
    with memoryview(claims) as view:
        for c, xs in zip(centers, star_leaves):
            with view[c * n : c * n + n] as row:
                for x in xs:
                    row[x] = 49  # "1"
    if claims.count(49) != k * len(centers):
        return False
    for x, row in enumerate(g.rows):
        # reversed, so the binary digits come most significant first
        out = int(claims[x * n : x * n + n][::-1], 2)
        into = int(claims[x::n][::-1], 2)
        if out & into or out | into != row:
            return False
    return True


def _even_spread(total: int, m: int) -> list[int]:
    """``total`` spread evenly over m >= 1 places: d or d + 1 each, the
    d + 1 values first. ``balanced_gamma``, the large-case construction and
    the gamma search's candidates all spread centers this one way, with the
    d + 1 values on the lowest labels."""
    d, extras = divmod(total, m)
    return [d + 1] * extras + [d] * (m - extras)


def balanced_gamma(g: Graph, k: int) -> tuple[int, ...]:
    """Spread |E|/k centers as evenly as possible over vertices 0..n-1."""
    if g.num_edges % k:
        raise ValueError("edge count not divisible by k")
    if g.n == 0:
        return ()
    return tuple(_even_spread(g.num_edges // k, g.n))


def _decide_guaranteed(g: Graph, k: int, gamma, centers: str) -> StarDecomposition:
    """The decomposition of g with center counts gamma, which a theorem
    guarantees: a refusal is an internal error, named by ``centers``."""
    result = decide_star_decomposition(g, k, gamma)
    if isinstance(result, StarDecomposition):
        return result
    size = len(result.vertices)
    raise RuntimeError(f"{centers} centers refused: deficient set of {size} vertices")


def decompose_with_repair(g: Graph, k: int) -> StarDecomposition:
    """Decompose g with the balanced gamma, which is exact for dense graphs.

    If the minimum degree delta is at least n/2 + k - 1 and k divides |E|,
    the balanced gamma meets Hakimi's orientation condition
    |E(S)| <= k*gamma(S) for every vertex set S with s = |S| < n, t = n - s:
      balance gives k*gamma(S) >= s|E|/n - k*s*t/n;
      |E(S)| <= s(s-1)/2;
      at least t*delta - t(t-1)/2 edges meet the rest of V;
      together s|E| - n|E(S)| >= s*t*(delta - n/2 + 1) >= k*s*t,
      so |E(S)| <= k*gamma(S).
    Both callers (K_n with n >= 2k, dense family complements) meet the
    bound, so a refusal is an internal error.
    """
    return _decide_guaranteed(g, k, balanced_gamma(g, k), "balanced")


def decompose_complete(n: int, k: int) -> StarDecomposition | None:
    """A k-star decomposition of K_n, or None when none exists.

    For n >= 2 one exists iff n >= 2k and C(n,2) is divisible by k; K_0 and
    K_1 are decomposed by the empty set of stars.
    """
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if k < 2:
        raise ValueError("star size k must be at least 2")
    if n <= 1:
        return StarDecomposition(k, ())
    pairs = n * (n - 1) // 2
    if n < 2 * k or pairs % k != 0:
        return None
    return decompose_with_repair(complete_graph(n), k)


def two_star_decompose(g: Graph) -> StarDecomposition | None:
    """A 2-star decomposition, or None when some component has odd edge count.

    A 2-star decomposition is an orientation in which every out-degree is
    even (Tarsi), read by ``_stars_of``: stars by ascending center, each
    center's out-neighbours ascending, two at a time. The orientation grows
    a breadth-first spanning forest, ascending neighbours first; every edge
    off the forest leaves its lower end. Then, children before parents,
    each tree edge leaves the child iff the child's out-degree so far is
    odd, which makes it even. Only a root can be left odd, with the parity
    of its component's edge count, so an odd root means there is none.
    O(n + |E|) apart from sorting each vertex's out-neighbours.
    """
    nbrs: list[list[int]] = [[] for _ in range(g.n)]  # ascending: lower, then upper
    for u, up in enumerate(g.upper):
        nbrs[u] += up
        for v in up:
            nbrs[v].append(u)
    heads: list[list[int]] = [[] for _ in range(g.n)]
    parent = [-1] * g.n  # a root is its own parent
    order: list[int] = []  # the forest, breadth-first
    i = 0
    for root in range(g.n):
        if parent[root] < 0:
            parent[root] = root
            order.append(root)
        while i < len(order):
            x = order[i]
            i += 1
            for y in nbrs[x]:
                if parent[y] < 0:
                    parent[y] = x
                    order.append(y)
                elif y != parent[x] and x < y:  # off the forest, met from both ends
                    heads[x].append(y)
    for x in reversed(order):
        p = parent[x]
        odd = len(heads[x]) % 2
        if p != x:
            heads[x if odd else p].append(p if odd else x)
        elif odd:
            return None  # x's component has an odd edge count
    leaves = chain.from_iterable(map(sorted, heads))
    return _stars_of(2, [len(h) // 2 for h in heads], map(len, heads), leaves)


_DOT_PALETTE = (
    "red", "blue", "darkgreen", "orange", "purple", "brown",
    "deeppink", "cadetblue", "goldenrod", "black",
)


def decomposition_to_dot(g: Graph, d: StarDecomposition) -> str:
    """Graphviz rendering with one color per star; uncovered edges stay gray."""
    covered: dict[tuple[int, int], int] = {}
    for idx, star in enumerate(d.stars):
        for edge in star.edges():
            covered[edge] = idx
    lines = ["graph stars {"]
    for v in range(g.n):
        lines.append(f"  {v};")
    for u, v in g.edges:
        idx = covered.get((u, v))
        if idx is None:
            lines.append(f'  {u} -- {v} [color="gray"];')
        else:
            color = _DOT_PALETTE[idx % len(_DOT_PALETTE)]
            lines.append(f'  {u} -- {v} [color="{color}", label="{idx}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
