"""Deterministic integral max-flow (Dinic) for the orientation-repair networks.

Augmenting paths are found with an explicit stack rather than recursion, so
a path may be as long as the network has nodes. Arcs are explored in
insertion order, so identical inputs always produce the same flow and the
same residual reachability, which keeps certificates reproducible. After a
maximum flow, the nodes that still reach the sink in the residual graph are
the smallest sink side over all minimum cuts.
"""

from __future__ import annotations

from collections import deque


class MaxFlow:
    def __init__(self, num_nodes: int) -> None:
        self.n = num_nodes
        self.to: list[int] = []
        self.cap: list[int] = []
        self.adj: list[list[int]] = [[] for _ in range(num_nodes)]

    def add_edge(self, u: int, v: int, cap: int) -> int:
        """Add arc u->v with the given capacity; returns its arc id."""
        idx = len(self.to)
        self.to.append(v)
        self.cap.append(cap)
        self.to.append(u)
        self.cap.append(0)
        self.adj[u].append(idx)
        self.adj[v].append(idx + 1)
        return idx

    def flow_on(self, idx: int) -> int:
        return self.cap[idx ^ 1]

    def _bfs(self, s: int, t: int) -> list[int] | None:
        to, cap, adj = self.to, self.cap, self.adj
        level = [-1] * self.n
        level[s] = 0
        q = deque([s])
        while q:
            x = q.popleft()
            for idx in adj[x]:
                y = to[idx]
                if cap[idx] > 0 and level[y] < 0:
                    level[y] = level[x] + 1
                    q.append(y)
        return level if level[t] >= 0 else None

    def max_flow(self, s: int, t: int) -> int:
        to, cap, adj = self.to, self.cap, self.adj
        total = 0
        while True:
            level = self._bfs(s, t)
            if level is None:
                return total
            it = [0] * self.n
            path: list[int] = []  # arc ids of the current s -> x path
            x = s
            while True:
                if x == t:
                    pushed = min(cap[a] for a in path)
                    for a in path:
                        cap[a] -= pushed
                        cap[a ^ 1] += pushed
                    total += pushed
                    # resume from the tail of the first saturated arc
                    cut = next(i for i, a in enumerate(path) if cap[a] == 0)
                    del path[cut:]
                    x = to[path[-1]] if path else s
                    continue
                arcs = adj[x]
                i = it[x]
                want = level[x] + 1
                while i < len(arcs) and not (cap[arcs[i]] > 0 and level[to[arcs[i]]] == want):
                    i += 1
                it[x] = i
                if i < len(arcs):
                    path.append(arcs[i])
                    x = to[arcs[i]]
                elif path:
                    # dead end: retreat and skip the arc that led here
                    x = to[path.pop() ^ 1]
                    it[x] += 1
                else:
                    break

    def residual_reachable(self, s: int) -> list[bool]:
        """Nodes reachable from s in the residual graph (source side of a min cut)."""
        return self._residual_closure(s, 0)

    def residual_reaching(self, t: int) -> list[bool]:
        """Nodes that reach t in the residual graph (smallest sink side of a min cut)."""
        return self._residual_closure(t, 1)

    def _residual_closure(self, start: int, backward: int) -> list[bool]:
        # arc idx runs x -> to[idx]; its partner idx ^ 1 runs to[idx] -> x,
        # so backward = 1 follows residual arcs against their direction
        to, cap = self.to, self.cap
        seen = [False] * self.n
        seen[start] = True
        stack = [start]
        while stack:
            x = stack.pop()
            for idx in self.adj[x]:
                y = to[idx]
                if cap[idx ^ backward] > 0 and not seen[y]:
                    seen[y] = True
                    stack.append(y)
        return seen
