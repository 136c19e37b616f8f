"""Line-graph construction."""

from __future__ import annotations

from .graphs import Graph, GraphError, _from_adjacency


def line_graph(k: Graph) -> Graph:
    """The graph on the edges of ``k``, adjacent iff they share an
    endpoint.  Vertex i of the result is the i-th edge of ``k`` in
    sorted order; its degree is d_u + d_v - 2.
    """
    if k.m < 1:
        raise GraphError("line graph of an edgeless graph is undefined here")
    edges = list(k.edges())
    index = {}
    for i, (u, v) in enumerate(edges):
        index[u, v] = index[v, u] = i
    adj = []
    for u, v in edges:
        # the edges at u other than uv, then those at v: no repeats
        nbrs = [index[u, x] for x in k.adj[u] if x != v]
        nbrs += [index[v, x] for x in k.adj[v] if x != u]
        nbrs.sort()
        adj.append(nbrs)
    return _from_adjacency(len(edges), adj)
