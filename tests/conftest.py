from itertools import combinations

import pytest

from graphtheta import canon
from graphtheta.graphs import Graph, from_edge_list


def path_graph(n: int) -> Graph:
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> Graph:
    return from_edge_list(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_graph(n: int) -> Graph:
    return from_edge_list(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def spider(*leg_lengths: int) -> Graph:
    """Trees made of paths glued at a common center (vertex 0)."""
    edges = []
    nxt = 1
    for L in leg_lengths:
        prev = 0
        for _ in range(L):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return from_edge_list(nxt, edges)


def canonical_key(g: Graph) -> bytes:
    """Canonical byte string of ``g``: equal keys iff isomorphic graphs."""
    return canon.canonical_key([sum(1 << v for v in nbrs) for nbrs in g.adj], g.degrees)


def is_line_graph(g: Graph) -> bool:
    """Line-graph recognition by the claw / odd-triangle criterion.

    A connected ``g`` is a line graph iff it has no induced star on 4
    vertices and whenever two odd triangles share an edge, their vertex
    union induces a complete graph on 4 vertices.  A triangle is odd when
    some vertex of ``g`` is adjacent to an odd number of its vertices.
    Brute-force scans, independent of ``line_graph``.
    """
    for v in range(g.n):
        for a, b, c in combinations(g.adj[v], 3):
            if not (g.has_edge(a, b) or g.has_edge(a, c) or g.has_edge(b, c)):
                return False
    odd = [
        t for t in combinations(range(g.n), 3)
        if all(g.has_edge(a, b) for a, b in combinations(t, 2))
        and any(sum(u in g.adj[v] for u in t) % 2 for v in range(g.n))
    ]
    for t1, t2 in combinations(odd, 2):
        union = set(t1) | set(t2)
        if len(union) == 4 and not all(g.has_edge(a, b) for a, b in combinations(union, 2)):
            return False
    return True


@pytest.fixture(scope="session")
def universes_1_to_6():
    from graphtheta.smallgraphs import internal_universe

    return [internal_universe(n) for n in range(1, 7)]


@pytest.fixture(scope="session")
def universes_5_to_7():
    from graphtheta.smallgraphs import internal_universe

    return [internal_universe(n) for n in range(5, 8)]
