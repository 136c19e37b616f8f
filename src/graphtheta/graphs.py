"""Immutable simple undirected graphs and small structural queries.

Vertices are dense integers ``0..n-1``.  Adjacency is stored as sorted
neighbor tuples, which is cache-friendly for the sparse graphs handled
here (trees and small graphs).  A ``Graph`` is an immutable record, a
``NamedTuple`` ``(n, adj, degrees, m)``, and safe to share between
workers.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Iterator, NamedTuple, Sequence


class GraphError(ValueError):
    """Base class for graph construction and query errors."""


class VertexOutOfRange(GraphError):
    pass


class SelfLoopError(GraphError):
    pass


class DuplicateEdgeError(GraphError):
    pass


class DisconnectedGraphError(GraphError):
    pass


class Shape(Enum):
    PATH = "path"
    CYCLE = "cycle"
    OTHER = "other"


class Graph(NamedTuple):
    """Simple undirected graph with cached degrees.

    Construct through :func:`from_edge_list`, which validates the edges
    and then hands sorted neighbor lists to ``_from_adjacency``, the
    trusted tail that builds the tuples, degrees and ``m``.  Code that
    produces valid, sorted lists by construction (``parse_graph6``,
    ``treegen.sequence_to_graph``, :func:`subdivide_at_degree2`) calls
    ``_from_adjacency`` directly; the record itself does not re-validate
    its invariants.
    """

    n: int
    adj: tuple[tuple[int, ...], ...]
    degrees: tuple[int, ...]
    m: int

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges as (u, v) with u < v, in lexicographic order."""
        for u in range(self.n):
            for v in self.adj[u]:
                if v > u:
                    yield (u, v)

    def edge_degree_pairs(self) -> list[tuple[int, int]]:
        """The degree pair (d_u, d_v) of every edge, in ``edges`` order."""
        deg = self.degrees
        return [(deg[u], deg[v]) for u in range(self.n) for v in self.adj[u] if v > u]

    def __repr__(self) -> str:  # keep failure output readable
        return f"Graph(n={self.n}, edges={list(self.edges())})"


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a Graph on vertices 0..n-1 from an edge list.

    Raises :class:`VertexOutOfRange`, :class:`SelfLoopError` or
    :class:`DuplicateEdgeError` on invalid input.
    """
    if n < 1:
        raise GraphError(f"graph order must be >= 1, got {n}")
    neigh: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise VertexOutOfRange(f"edge ({u},{v}) outside [0,{n})")
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        if v in neigh[u]:
            raise DuplicateEdgeError(f"duplicate edge ({u},{v})")
        neigh[u].add(v)
        neigh[v].add(u)
    return _from_adjacency(n, [sorted(s) for s in neigh])


def _from_adjacency(n: int, adj: list[list[int]]) -> Graph:
    """The Graph of ``n`` neighbor lists that are already valid: in range,
    symmetric, free of loops and repeats, and each sorted ascending.
    Nothing is checked."""
    degrees = tuple(map(len, adj))
    return Graph(n, tuple(map(tuple, adj)), degrees, sum(degrees) // 2)


def is_connected(g: Graph) -> bool:
    """True iff every vertex is reachable from vertex 0 (true for n=1)."""
    return _reaches_all(g.adj)


def _reaches_all(adj: Sequence[Sequence[int]]) -> bool:
    """True iff a search from vertex 0 over the neighbor lists ``adj``
    reaches every vertex."""
    n = len(adj)
    seen = bytearray(n)
    seen[0] = 1
    stack = [0]
    count = 1
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = 1
                count += 1
                stack.append(v)
    return count == n


def min_degree(g: Graph) -> int:
    return min(g.degrees)


def subdivide_at_degree2(g: Graph, x: int, e: tuple[int, int]) -> Graph:
    """Insert a new vertex on edge ``e``, which must be incident to the
    degree-2 vertex ``x``.

    The edge x-w becomes x-y, y-w where y = n is the new vertex; y has
    degree 2 and all other degrees are unchanged.
    """
    if g.degrees[x] != 2:
        raise GraphError(f"vertex {x} has degree {g.degrees[x]}, need 2")
    a, b = e
    if x == a:
        w = b
    elif x == b:
        w = a
    else:
        raise GraphError(f"edge {e} not incident to vertex {x}")
    if not g.has_edge(x, w):
        raise GraphError(f"{e} is not an edge of the graph")
    # y is the largest vertex, so appending it keeps each list sorted
    y = g.n
    adj = [list(nbrs) for nbrs in g.adj]
    adj[x].remove(w)
    adj[x].append(y)
    adj[w].remove(x)
    adj[w].append(y)
    adj.append(sorted((x, w)))
    return _from_adjacency(y + 1, adj)


def classify_shape(g: Graph) -> Shape:
    """Classify a connected graph as path, cycle, or other."""
    if not is_connected(g):
        raise DisconnectedGraphError("shape classification needs a connected graph")
    if g.n <= 2:
        return Shape.PATH
    counts: dict[int, int] = {}
    for d in g.degrees:
        counts[d] = counts.get(d, 0) + 1
    if counts == {2: g.n}:
        return Shape.CYCLE
    if counts.get(1) == 2 and counts.get(2, 0) == g.n - 2:
        return Shape.PATH
    return Shape.OTHER
