"""Simple undirected graphs with the constructors the solver needs.

Vertices are labeled 0..n-1. A join ``L v K_s`` places the s new mutually
adjacent vertices at labels n..n+s-1 so certificates are reproducible.
Graphs are immutable and hashable; all operations return new graphs. A
graph's edges are the pairs (u, v) with u < v in label order: ``Graph(n,
edges)`` takes them only in that form, and ``graph_from_edges`` accepts any
pairs.

A graph holds its edges in up to three forms, each built on its first read
(a ``functools.cached_property``) unless the graph was made with it:

- ``edges``, the tuple of pairs, about 64 bytes an edge;
- ``upper``, per vertex u the tuple of its neighbours above u, ascending:
  the edges (u, v) in label order, one int reference each, which the
  solver walks vertex by vertex on its arc route;
- ``rows``, one bitset per vertex: a Python int whose bit w is set iff w
  is a neighbour, about n/8 bytes a row whatever the edge count.

``Graph(n, edges)`` holds its edges and reads ``upper``, ``rows`` and its
degrees off them. The builders (``complete_graph``, ``disjoint_cliques``,
``join``, ``complement`` and ``graph_from_rows``) hold the rows, degrees
and edge count, filled in O(n) big-int operations. Their ``upper`` is read
off the rows, except that ``join`` splices its own from its base's edges
and the new labels; their edge tuple is read off ``upper``. Both readers
emit ascending tuples by construction, so the per-edge check that
``Graph(n, edges)`` makes is skipped, and ``num_edges`` is half the
degree sum. So a join that is only decided and validated (see ``solver``)
builds ``upper`` and never an edge tuple, and a dense graph decided on its
rows builds neither.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import compress
from pathlib import Path

Edge = tuple[int, int]

_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def labels_in(mask: int, labels) -> Iterator:
    """The items of ``labels`` at the set bits of ``mask``, in order and
    lazily; ``labels`` needs at least ``mask.bit_length()`` items. Reads
    against one tuple of labels share its int objects."""
    digits = bin(mask)[:1:-1].encode().translate(_BIT_BYTES)  # lowest first
    return compress(labels, digits)


def labels_of(mask: int) -> list[int]:
    """The labels of the set bits of ``mask``, ascending."""
    # One pass in C over the binary digits costs about as much as peeling
    # off one set bit per eighth of the digits, plus a fixed eight or so,
    # so denser masks take it.
    if mask.bit_count() * 8 > mask.bit_length() + 64:
        return list(labels_in(mask, range(mask.bit_length())))
    out = []
    base = -1
    while mask:
        shift = (mask & -mask).bit_length()
        base += shift
        out.append(base)
        mask >>= shift
    return out


def mask_of(labels) -> int:
    """The mask with the bits of ``labels`` set; the labels must be distinct."""
    return sum(map((1).__lshift__, labels))


def closure(into, mask: int) -> int:
    """``mask`` with every label reached from it through ``into``, breadth
    first: ``into(y)`` is the mask of the labels y leads to, and is asked
    once for each label in the result."""
    reach = frontier = mask
    while frontier:
        step = 0
        for y in labels_of(frontier):
            step |= into(y)
        frontier = step & ~reach
        reach |= frontier
    return reach


def _norm_edge(u: int, v: int) -> Edge:
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """A graph on labels 0..n-1: its edges in label order, its upper
    neighbour tuples and its bitset rows, one int of about n/8 bytes per
    vertex.

    ``Graph(n, edges)`` checks the edges and reads ``upper`` and the rows
    off them on first use. A builder's graph holds its rows, degrees and
    edge count; it builds ``upper`` on first use (a join splices it, the
    other builders read it off the rows) and its edge tuple off ``upper``
    on the first read of ``edges``. Equality, hashing and ``repr`` read the
    edges, so they mean the same for both kinds."""

    n: int
    edges: tuple[Edge, ...]  # distinct pairs (u, v), u < v, in label order

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        if type(self.edges) is not tuple:
            raise TypeError("edges must be a tuple; graph_from_edges takes any pairs")
        prev = (-1, -1)
        for e in self.edges:
            u, v = e
            if not (0 <= u < v < self.n):
                raise ValueError(f"bad edge ({u}, {v}) for n={self.n}")
            if e <= prev:
                raise ValueError(f"edge {e} repeated or out of label order")
            prev = e

    @cached_property
    def num_edges(self) -> int:
        # a builder's graph has it already: half its degree sum
        return len(self.edges)

    @cached_property
    def upper(self) -> tuple[tuple[int, ...], ...]:
        """``upper[u]`` holds the neighbours of u above u, ascending."""
        upper_of = vars(self).pop("_upper_of", None)  # a builder's splice
        if upper_of is not None:
            return upper_of()
        return tuple(map(tuple, _upper_lists(self.n, self.edges)))

    @cached_property
    def rows(self) -> tuple[int, ...]:
        """Bit w of ``rows[v]`` is set iff vw is an edge; about n/8 bytes a row."""
        rows = [0] * self.n
        for u, v in self.edges:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return tuple(rows)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        # counted from the edges, so asking for degrees builds no rows
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return tuple(deg)

    def degree(self, v: int) -> int:
        return self.degrees[v]

    def max_degree(self) -> int:
        return max(self.degrees, default=0)

    def complement(self) -> "Graph":
        n = self.n
        full = (1 << n) - 1
        rows = [full ^ row ^ (1 << v) for v, row in enumerate(self.rows)]
        degrees = [n - 1 - d for d in self.degrees]
        return _built(rows, degrees)

    def components(self) -> list[list[int]]:
        """Connected components, each sorted, ordered by smallest vertex."""
        rows = self.rows
        seen = bytearray(self.n)
        comps: list[list[int]] = []
        for start in range(self.n):
            if seen[start]:
                continue
            # a lone vertex, as most of a sparse leave's are, asks for no closure
            comp = labels_of(closure(rows.__getitem__, 1 << start)) if rows[start] else [start]
            for x in comp:
                seen[x] = 1
            comps.append(comp)
        return comps


def _upper_lists(n: int, edges) -> list[list[int]]:
    """Per vertex u of 0..n-1, the v of the label-ordered ``edges`` (u, v)."""
    upper: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        upper[u].append(v)
    return upper


def _edges_on_first_read(g: Graph) -> tuple[Edge, ...]:
    # Only a builder's graph gets here, once: a graph built from edges
    # holds them in its instance dict, which Python reads first.
    return tuple((u, v) for u, up in enumerate(g.upper) for v in up)


# set after the dataclass is made, so that it is not taken for a default
Graph.edges = cached_property(_edges_on_first_read)
Graph.edges.__set_name__(Graph, "edges")


def _built(rows, degrees, upper_of=None) -> Graph:
    """A builder's graph on ``len(rows)`` vertices: its rows, degrees and
    edge count now, and ``upper`` on first read, from ``upper_of()`` when
    given and off the rows otherwise. ``upper_of`` must emit ascending
    tuples; unlike ``Graph(n, edges)`` nothing is re-checked. Popping the
    code on that read frees what it held."""
    g = object.__new__(Graph)
    rows = tuple(rows)
    degrees = tuple(degrees)
    vars(g).update(
        n=len(rows),
        rows=rows,
        degrees=degrees,
        num_edges=sum(degrees) // 2,
        _upper_of=upper_of or partial(_upper_of_rows, rows),
    )
    return g


def graph_from_rows(rows) -> Graph:
    """The graph whose adjacency is ``rows``, which must be symmetric and free
    of self-loops (not checked)."""
    rows = tuple(rows)
    return _built(rows, [row.bit_count() for row in rows])


def _upper_of_rows(rows: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The upper neighbour tuples of the graph with adjacency ``rows``."""
    # the labels above u, read with u's own and lower bits cleared
    return tuple(tuple(labels_of((row >> (u + 1)) << (u + 1))) for u, row in enumerate(rows))


def graph_from_edges(n: int, edges) -> Graph:
    """A graph from any pairs: each is normalized to (low, high), repeats are
    dropped and the rest sorted."""
    return Graph(n, tuple(sorted({_norm_edge(u, v) for u, v in edges})))


def complete_graph(n: int) -> Graph:
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    return disjoint_cliques([n])


def disjoint_cliques(sizes: list[int]) -> Graph:
    """Vertex-disjoint union of cliques, laid out in the order given."""
    rows: list[int] = []
    degrees: list[int] = []
    offset = 0
    for size in sizes:
        if size < 0:
            raise ValueError("clique sizes must be nonnegative")
        block = (1 << (offset + size)) - (1 << offset)
        rows += [block ^ (1 << v) for v in range(offset, offset + size)]
        degrees += [size - 1] * size
        offset += size
    return _built(rows, degrees)


def join(base: Graph, s: int) -> Graph:
    """The join of ``base`` with K_s; new vertices get labels n..n+s-1."""
    if s < 0:
        raise ValueError("join size must be nonnegative")
    n = base.n
    full = (1 << (n + s)) - 1
    clique = full ^ ((1 << n) - 1)
    rows = [row | clique for row in base.rows]
    rows += [full ^ (1 << z) for z in range(n, n + s)]
    degrees = [d + s for d in base.degrees]
    degrees += [n + s - 1] * s
    return _built(rows, degrees, partial(_join_upper, base, s))


def _join_upper(base: Graph, s: int) -> tuple[tuple[int, ...], ...]:
    """The upper neighbour tuples of ``join(base, s)``: each base vertex's
    upper neighbours in base, then every new label; each new label's, the
    new labels above it."""
    # read off the base's edges, not its cached ``upper``, so that a leave
    # joined at many s keeps no second copy of its edges
    n = base.n
    new = tuple(range(n, n + s))  # one int object per label, shared by the tuples
    upper = [(*up, *new) for up in _upper_lists(n, base.edges)]
    upper += [new[i:] for i in range(1, s + 1)]
    return tuple(upper)


def join_edge_count(base: Graph, s: int) -> int:
    """|E(L v K_s)| without materializing the join."""
    return base.num_edges + base.n * s + s * (s - 1) // 2


# ---------------------------------------------------------------------------
# file formats: plain edge list and JSON, both written canonically


def graph_to_json_dict(g: Graph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in g.edges]}


def graph_from_json_dict(data: dict) -> Graph:
    """Read ``{"n": int, "edges": [[int, int], ...]}``; bools and floats are
    rejected rather than converted."""
    if not isinstance(data, dict) or type(data.get("n")) is not int:
        raise ValueError('a JSON graph needs an integer "n"')
    edges = data.get("edges")
    if not isinstance(edges, list):
        raise ValueError('a JSON graph needs an "edges" list')
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2 and all(type(x) is int for x in e)):
            raise ValueError(f"bad edge {e!r}: want a pair of integers")
    return graph_from_edges(data["n"], [tuple(e) for e in edges])


def format_edge_list(g: Graph) -> str:
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Graph:
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty graph file")
    n = int(lines[0])
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line: {ln!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return graph_from_edges(n, edges)


def write_graph(g: Graph, path: str | Path) -> None:
    path = Path(path)
    if path.suffix == ".json":
        path.write_text(json.dumps(graph_to_json_dict(g), sort_keys=True) + "\n")
    else:
        path.write_text(format_edge_list(g))


def read_graph(path: str | Path) -> Graph:
    path = Path(path)
    text = path.read_text()
    if path.suffix == ".json" or text.lstrip().startswith("{"):
        return graph_from_json_dict(json.loads(text))
    return parse_edge_list(text)
