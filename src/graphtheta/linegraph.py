"""Line-graph construction."""

from __future__ import annotations

from .graphs import Graph, GraphError, from_edge_list


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
