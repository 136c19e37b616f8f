"""Line graphs, read from their roots.

The line graph of ``k`` has a vertex per edge of ``k`` and an edge per
pair of edges that share an endpoint.  Its vertex uv has degree
d_u + d_v - 2, so its degree pairs follow from ``k``'s degrees, and no
line graph needs to be built to score it.
"""

from __future__ import annotations

from itertools import combinations

from .graphs import Graph


def line_graph_pairs(k: Graph) -> list[tuple[int, int]]:
    """The degree pair of every edge of the line graph of ``k``: one per
    pair of edges uw, wx of ``k`` that meet at w, whose ends have degrees
    d_u + d_w - 2 and d_w + d_x - 2.  Empty for an edgeless ``k``."""
    deg = k.degrees
    return [(deg[u] + d - 2, d + deg[x] - 2)
            for w, d in enumerate(deg) for u, x in combinations(k.adj[w], 2)]
