"""Deterministic unit-arc max-flow (Dinic) for the orientation-repair networks.

Two forms hold the same network, the current orientation of a graph's
edges: ``MaxFlow`` keeps one arc id per edge, and ``max_flow_on_rows`` keeps
one out-neighbour bitset per vertex. The solver takes the rows for graphs of
at least 128 vertices and n^2/16 edges and the arcs otherwise; the
``solver`` docstring times one against the other.

All arcs have capacity one. ``MaxFlow`` numbers them itself from a list of
heads per vertex, each vertex's arcs in one run of ids. Arc ids come in
pairs: ``to[a]`` is the head of arc a and ``a ^ 1`` is its reverse. Each
vertex has an out-list of the ids leaving it; a unit pushed along an arc
reverses it, so the residual graph *is* the current orientation. A reversed
id joins its new tail's out-list the first time, and ids reversed away are
skipped. Instead of source and sink arcs, each vertex has a signed excess:
surplus to send, or deficit.
A path first enters a vertex other than its source along a starting arc,
whose reverse then joins that vertex's out-list; so the vertices that paths
touched are the surplus ones and those whose out-lists grew. Every other
vertex keeps the arcs it was given, after any flow, full or not, so
``ascending_heads``, the one reader of a finished arc flow, re-reads the
touched ones alone.

Each phase is a breadth-first search from all surplus vertices, and
augmenting paths end at deficit vertices on the nearest level. Paths are
walked with an explicit stack, so they may be as long as the network has
vertices. Out-lists are scanned in insertion order, so identical inputs give
the same flow. After a maximum flow, the vertices with a directed path to
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
operation on n-bit ints, so the rows pay off only on dense graphs. Most
units on the dense family graphs walk two arcs, so what a unit costs
besides its int operations counts: the single-bit ints 1 << x are made
once per call, in one table that every mask, level update and arc flip
reads, and the walk keeps its last vertex and length at hand instead of
reading them off the path at each step.
"""

from __future__ import annotations

from .graphs import closure, labels_of, mask_of


class MaxFlow:
    def __init__(self, heads: list[list[int]], excess: list[int]) -> None:
        """The network on ``len(heads)`` vertices with a unit arc from x to
        each entry of ``heads[x]``, taking over both lists. Arcs are
        numbered tail by tail, each list in its order: arc i has id 2i, head
        ``to[2i]`` and tail ``to[2i + 1]``, and ``out[x]`` lists the ids
        leaving x, so the flow scans them as if added one by one."""
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
        # what the flow starts from: the surplus vertices and their total
        self.sources = [x for x, e in enumerate(excess) if e > 0]
        self.surplus = sum(excess[x] for x in self.sources)
        # live[a]: arc a is the current direction; listed[a]: a is in an out-list
        self.live = bytearray(b"\x01\x00") * (len(to) // 2)
        self.listed = bytearray(self.live)

    def max_flow(self) -> int:
        """Route surplus to deficit along arc paths, reversing each path; the
        return value is the number of units routed."""
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
            # paths end on the deepest level, so only its deficit vertices stay
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
                        # every arc of the path is reversed now
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
                        # dead end for the rest of the phase: retreat
                        level[x] = -1
                        if not path:
                            break
                        x = to[path.pop() ^ 1]

    def ascending_heads(self) -> list[list[int]]:
        """The heads of the arcs leaving each vertex in the current
        orientation after any flow, ascending when every list given
        ascended. Only the vertices some path touched, the starting surplus
        ones and those whose out-lists grew, are re-read; the others keep
        their lists."""
        heads, out, to, live = self.heads, self.out, self.to, self.live
        grown = [x for x, arcs in enumerate(out) if len(arcs) != len(heads[x])]
        for x in {*self.sources, *grown}:
            heads[x] = sorted([to[a] for a in out[x] if live[a]])
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
