"""Deterministic unit-arc max-flow (Dinic) for the orientation-repair networks.

Two forms hold the same network, the current orientation of a graph's
edges: ``MaxFlow`` keeps one list of heads per vertex, naming each arc by
its tail and its position there, and ``max_flow_on_rows`` keeps one
out-neighbour bitset per vertex. The solver takes the rows for graphs of
at least 128 vertices and n^2/16 edges and the arcs otherwise; the
``solver`` docstring times one against the other.

All arcs have capacity one. ``MaxFlow`` repairs the orientation in place on
the list of heads per vertex it is given: arc (x, i) is entry i of
``heads[x]``, and no arc ids or arc tables are built. A unit pushed along an
arc reverses it, so the residual graph *is* the current orientation.
Instead of source and sink arcs, each vertex has a signed excess: surplus
to send, or deficit. A network without surplus is answered at once.
A vertex gets state only when a path first reverses an arc at it, either
end: a live flag per entry of its list (a ``bytearray``) and, per entry,
where its reverse sits in its head's list, or -1 until that is listed.
Reversing an arc clears its flag and appends its reverse to the head's list
the first time, or sets the reverse's flag again after that; so every list
holds its given arcs and then each reverse in the order it was first made,
the order an arc-id network would number them in. A clean vertex's list is
scanned as it is, a dirty one's through its flags. After any flow, full or
not, only the dirty vertices' lists changed, so ``ascending_heads``, the one
reader of a finished arc flow, re-reads and sorts them alone.

Each phase is a breadth-first search from all surplus vertices, and
augmenting paths end at deficit vertices on the nearest level. Paths are
walked with an explicit stack, so they may be as long as the network has
vertices. Lists are scanned in order, so identical inputs give the same
flow. After a maximum flow, the vertices with a directed path to
unmet deficit are the smallest sink side over all minimum cuts.
``reaching`` reads that set for both forms, asking a function for the
in-neighbour mask of each vertex it reaches: ``rows[y] & ~out[y]`` on rows,
and the same with the mask of y's ``ascending_heads()`` list on arcs.
``residual_reachable`` gives the other side, the ``graphs.closure`` forward
from the surplus left.

On rows, ``out[x]`` is an int whose bit y is set iff the edge xy leaves x.
A breadth-first frontier is the OR of its vertices' out-rows, a path step
takes the lowest bit of ``out[x]`` on the next live level, and reversing an
arc xy flips bit y of ``out[x]`` and bit x of ``out[y]``. Each step costs an
operation on n-bit ints, so the rows pay off only on dense graphs. Every
unit of the five rows decides of a ``family --verify`` run over bound-n
t = 7, even-bound t = 7, tightness-T2 t = 8 and odd-bound k = 125 walks
two arcs, so what a unit costs besides its int operations counts: the
single-bit ints 1 << x are made once per call, in one table that every
mask, level update and arc flip reads, and the walk keeps its last vertex
and length at hand instead of reading them off the path at each step.
"""

from __future__ import annotations

from itertools import chain, compress, repeat, zip_longest

from .graphs import closure, labels_of, mask_of


class MaxFlow:
    def __init__(self, heads: list[list[int]], excess: list[int]) -> None:
        """The network on ``len(heads)`` vertices with a unit arc from x to
        each entry of ``heads[x]``, taking over both lists: the flow
        reverses arcs in them in place. Arc (x, i) is entry i of
        ``heads[x]``, and the flow scans each list in its order."""
        self.heads = heads
        self.excess = excess
        self.surplus = sum(e for e in excess if e > 0)
        # per vertex, None until a path reverses one of its arcs: live[x][i]
        # flags arc (x, i) as the current direction, and rev[x][i] is where
        # its reverse sits in its head's list, or -1 until it is listed
        self.live: list[bytearray | None] = []
        self.rev: list[list[int] | None] = []

    @property
    def to(self) -> list[int]:
        """The heads and tails of the current orientation's arcs,
        interleaved tail by tail in list order: before any flow, ``to[2i]``
        and ``to[2i + 1]`` are the head and tail of the i-th given arc.
        Built on each read; the flow itself never reads it."""
        heads = [
            xs if flags is None else list(compress(xs, flags))
            for xs, flags in zip_longest(self.heads, self.live)
        ]
        to = [0] * (2 * sum(map(len, heads)))
        to[::2] = chain.from_iterable(heads)
        to[1::2] = chain.from_iterable(repeat(x, len(xs)) for x, xs in enumerate(heads))
        return to

    def max_flow(self) -> int:
        """Route surplus to deficit along arc paths, reversing each path; the
        return value is the number of units routed."""
        if not self.surplus:
            return 0
        heads, excess = self.heads, self.excess
        n = len(heads)
        if not self.live:
            self.live, self.rev = [None] * n, [None] * n
        live, rev = self.live, self.rev
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
                    flags = live[x]
                    for y in heads[x] if flags is None else compress(heads[x], flags):
                        if level[y] < 0:
                            level[y] = depth
                            later.append(y)
                            if excess[y] < 0:
                                reached = True
                frontier = later
            if not reached:
                return total
            # paths end on the deepest level, so only its deficit vertices stay
            for y in frontier:
                if excess[y] >= 0:
                    level[y] = -1
            it = [0] * n
            for s in sources:
                # the current s -> x path; it leaves each vertex u on it
                # along arc (u, it[u])
                path = [s]
                x = s
                while True:
                    if level[x] == depth:
                        # every vertex on the path is an end of a reversed arc
                        for u in path:
                            if live[u] is None:
                                live[u] = bytearray(b"\x01") * len(heads[u])
                                rev[u] = [-1] * len(heads[u])
                        u = s
                        for v in path[1:]:
                            i = it[u]
                            live[u][i] = 0
                            j = rev[u][i]
                            if j < 0:
                                rev[u][i] = len(heads[v])
                                heads[v].append(u)
                                live[v].append(1)
                                rev[v].append(i)
                            else:
                                live[v][j] = 1
                            u = v
                        total += 1
                        excess[s] -= 1
                        excess[x] += 1
                        if not excess[x]:
                            level[x] = -1
                        if not excess[s]:
                            break
                        # every arc of the path is reversed now
                        del path[1:]
                        x = s
                        continue
                    xs = heads[x]
                    flags = live[x]
                    i = it[x]
                    end = len(xs)
                    want = level[x] + 1
                    if flags is None:
                        while i < end and level[xs[i]] != want:
                            i += 1
                    else:
                        while i < end and not (flags[i] and level[xs[i]] == want):
                            i += 1
                    it[x] = i
                    if i < end:
                        x = xs[i]
                        path.append(x)
                    else:
                        # dead end for the rest of the phase: retreat
                        level[x] = -1
                        path.pop()
                        if not path:
                            break
                        x = path[-1]

    def ascending_heads(self) -> list[list[int]]:
        """The heads of the arcs leaving each vertex in the current
        orientation after any flow, ascending when every list given
        ascended. Only the vertices some reversed arc touched are re-read,
        and their state dropped; the others keep their lists."""
        heads = self.heads
        for x, flags in enumerate(self.live):
            if flags is not None:
                heads[x] = sorted(compress(heads[x], flags))
        self.live, self.rev = [], []
        return heads

    def residual_reachable(self) -> int:
        """The mask of the vertices reached from surplus left over, the
        source side of a minimum cut; parallel arcs share one bit."""
        heads = self.ascending_heads()
        surplus = mask_of(x for x, e in enumerate(self.excess) if e > 0)
        return closure(lambda x: mask_of({*heads[x]}), surplus)


def max_flow_on_rows(out: list[int], excess: list[int]) -> int:
    """``MaxFlow.max_flow`` on out-rows: route surplus to deficit, reversing
    each path in ``out`` and updating ``excess`` in place; the return value
    is the number of units routed."""
    bit = [1 << x for x in range(len(out))]
    total = 0
    while True:
        sources = sinks = 0
        for x, e in enumerate(excess):
            if e > 0:
                sources |= bit[x]
            elif e < 0:
                sinks |= bit[x]
        if not (sources and sinks):
            return total
        # levels[d]: the vertices first reached after d arcs
        levels = [sources]
        seen = frontier = sources
        while True:
            later = 0
            for x in labels_of(frontier):
                later |= out[x]
            frontier = later & ~seen
            if not frontier:
                return total
            reached = frontier & sinks
            if reached:
                # paths end on the deepest level, so only its deficit vertices stay
                levels.append(reached)
                break
            levels.append(frontier)
            seen |= frontier
        depth = len(levels) - 1
        for s in labels_of(sources):
            path = [s]
            x, d = s, 1  # the path's last vertex and its vertex count
            while True:
                if d > depth:
                    a = s
                    for b in path[1:]:
                        out[a] ^= bit[b]
                        out[b] ^= bit[a]
                        a = b
                    total += 1
                    excess[s] -= 1
                    excess[x] += 1
                    if not excess[x]:
                        levels[depth] ^= bit[x]
                    if not excess[s]:
                        break
                    # every arc of the path is reversed now
                    del path[1:]
                    x, d = s, 1
                    continue
                step = out[x] & levels[d]
                if step:
                    x = (step & -step).bit_length() - 1
                    path.append(x)
                    d += 1
                else:
                    # dead end for the rest of the phase: retreat. A path
                    # vertex keeps its level bit until then, so this clears it
                    levels[d - 1] ^= bit[x]
                    path.pop()
                    if not path:
                        break
                    x = path[-1]
                    d -= 1


def reaching(into, excess: list[int]) -> int:
    """The mask of the vertices that reach unmet deficit in the final
    orientation, the smallest sink side of a minimum cut; ``into(y)`` is the
    mask of y's in-neighbours there, and is called once for each vertex
    reached."""
    return closure(into, mask_of(x for x, e in enumerate(excess) if e < 0))
