"""Line-graph construction and recognition."""

from __future__ import annotations

from itertools import combinations

from .graphs import Graph, GraphError, from_edge_list, is_connected

RECOGNITION_MAX_ORDER = 12


def line_graph(k: Graph) -> Graph:
    """The graph on the edges of ``k``, adjacent iff they share an
    endpoint.  Vertex i of the result is the i-th edge of ``k`` in
    sorted order; its degree is d_u + d_v - 2.
    """
    if k.m < 1:
        raise GraphError("line graph of an edgeless graph is undefined here")
    edges = list(k.edges())
    index = {e: i for i, e in enumerate(edges)}
    out = []
    for i, (u, v) in enumerate(edges):
        for w in (u, v):
            for x in k.adj[w]:
                e2 = (w, x) if w < x else (x, w)
                j = index[e2]
                if j > i:
                    out.append((i, j))
    return from_edge_list(len(edges), set(out))


def _triangles(g: Graph) -> list[tuple[int, int, int]]:
    return [
        (a, b, c)
        for a, b, c in combinations(range(g.n), 3)
        if g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c)
    ]


def _is_odd_triangle(g: Graph, tri: tuple[int, int, int]) -> bool:
    # odd: some vertex of g is adjacent to an odd number of the three
    ts = set(tri)
    for v in range(g.n):
        if sum(1 for t in ts if t in g.adj[v]) % 2 == 1:
            return True
    return False


def is_line_graph(g: Graph, max_order: int = RECOGNITION_MAX_ORDER) -> bool:
    """Recognize line graphs by the claw / odd-triangle criterion.

    ``g`` is a line graph iff it has no induced star on 4 vertices and
    whenever two odd triangles share an edge, their vertex union
    induces a complete graph on 4 vertices.  Brute-force scans, bounded
    to small orders.
    """
    if not is_connected(g):
        raise GraphError("line-graph recognition needs a connected graph")
    if g.n > max_order:
        raise GraphError(f"recognition supports order <= {max_order}, got {g.n}")
    # induced claw scan
    for v in range(g.n):
        for a, b, c in combinations(g.adj[v], 3):
            if not (g.has_edge(a, b) or g.has_edge(a, c) or g.has_edge(b, c)):
                return False
    # odd triangle pairs sharing an edge
    tris = _triangles(g)
    odd = [t for t in tris if _is_odd_triangle(g, t)]
    for t1, t2 in combinations(odd, 2):
        union = sorted(set(t1) | set(t2))
        if len(union) != 4:  # shares an edge iff the union has 4 vertices
            continue
        if all(g.has_edge(a, b) for a, b in combinations(union, 2)):
            continue
        return False
    return True
