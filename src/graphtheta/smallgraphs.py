"""Exhaustive enumeration of small connected graphs up to isomorphism.

The internal generator covers orders 1..7 by vertex augmentation: each
order-(k+1) candidate is an order-k representative B (the base) with a
new vertex v attached to a nonempty neighbor set S, and the candidates
are deduplicated by canonical key.  Bases go in key order, and each
base's sets go by size, then lexicographically.

A candidate is keyed only when no base vertex u is a non-cut vertex of
higher degree than v, that is, when no u has deg(u) > |S| in B + v and
S meeting every component of B - u.  Every class is still reached.  A
connected graph G has non-cut vertices; let w be one of greatest degree
among them.  G - w is connected, so it is isomorphic to a base B, and
the set S that w's neighbors map to gives a candidate isomorphic to G
by an isomorphism taking v to w.  So in that candidate v is a non-cut
vertex of greatest degree among them, and the candidate passes the
rule; the twin swaps below make it a twin-normal one that passes too.

Each base tries only its twin-normal neighbor sets: those that hold
every lower-numbered twin (:func:`~graphtheta.canon.lower_twins`) of
each vertex they hold.  Swapping two twins is an automorphism of the
base that, extended to B + v, fixes v, so it keeps or skips candidates
alike under the rule above.  Replacing a member of a set that is not
twin-normal by a lower twin outside it gives an isomorphic candidate,
from a set of the same size that comes earlier.  Repeated swaps end at
a twin-normal set, so each class's first kept candidate in generation
order is twin-normal, and it is the class's representative.  Each
candidate is keyed by :func:`~graphtheta.canon.canonical_key` on
adjacency bitmasks, and a ``Graph`` is made only for each
representative.

Larger orders are ingested from external graph6 files.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .canon import canonical_key, lower_twins
from .graphs import Graph, GraphError, _from_adjacency, from_edge_list, is_connected
from .graph6 import graph6_lines, parse_graph6

MAX_INTERNAL_ORDER = 7


class GraphUniverse:
    """A fixed set of connected graphs.  The internal universes hold one
    graph per isomorphism class; a universe loaded from a graph6 file
    holds its lines as given, repeats and isomorphic pairs included."""

    __slots__ = ("order", "source", "graphs")

    def __init__(self, order: int, source: str, graphs: tuple[Graph, ...]) -> None:
        self.order = order
        self.source = source
        self.graphs = graphs

    def __len__(self) -> int:
        return len(self.graphs)

    def __iter__(self):
        return iter(self.graphs)


@lru_cache(maxsize=None)
def _connected_classes(n: int) -> tuple[Graph, ...]:
    """Each class's representative, sorted by canonical key."""
    if n == 1:
        return (from_edge_list(1, []),)
    seen: dict[bytes, Graph] = {}
    new = 1 << (n - 1)
    # the new vertex's neighbor sets in generation order, with their masks
    subsets = [
        (subset, sum(1 << v for v in subset))
        for r in range(1, n)
        for subset in combinations(range(n - 1), r)
    ]
    for base in _connected_classes(n - 1):
        base_masks = [sum(1 << v for v in nbrs) for nbrs in base.adj]
        before = lower_twins(base_masks, base.degrees)
        # each base vertex u: its degree, its bit, the components of B - u
        rivals = [(d, 1 << u, _components(base_masks, u))
                  for u, d in enumerate(base.degrees)]
        top = max(base.degrees)
        for subset, subset_mask in subsets:
            if any(before[v] & ~subset_mask for v in subset):
                continue  # not twin-normal
            k = len(subset)
            if k <= top and any(
                    (d > k or subset_mask & bit) and all(c & subset_mask for c in comps)
                    for d, bit, comps in rivals if d >= k):
                continue  # a non-cut vertex outranks the new one
            masks = base_masks + [subset_mask]
            degrees = list(base.degrees) + [k]
            for v in subset:
                masks[v] |= new
                degrees[v] += 1
            key = canonical_key(masks, degrees)
            if key not in seen:  # sorted lists: n - 1 is above every old vertex
                adj = [[*nbrs, n - 1] if subset_mask >> v & 1 else nbrs
                       for v, nbrs in enumerate(base.adj)]
                seen[key] = _from_adjacency(n, adj + [subset])
    return tuple(g for _, g in sorted(seen.items()))


def _components(masks: list[int], u: int) -> list[int]:
    """The vertex bitmasks of the components of the graph less u."""
    left = (1 << len(masks)) - 1 & ~(1 << u)
    comps = []
    while left:
        comp = frontier = left & -left
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= masks[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & left & ~comp
            comp |= frontier
        comps.append(comp)
        left &= ~comp
    return comps


def internal_universe(n: int) -> GraphUniverse:
    """All connected graphs of order n up to isomorphism, sorted by
    canonical key.  Supported for 1 <= n <= MAX_INTERNAL_ORDER."""
    if not 1 <= n <= MAX_INTERNAL_ORDER:
        raise GraphError(
            f"internal enumeration supports 1 <= n <= {MAX_INTERNAL_ORDER}, got {n}"
        )
    return GraphUniverse(order=n, source="internal", graphs=_connected_classes(n))


def load_universe(path: str, expect_order: int) -> GraphUniverse:
    """Read a graph6 file (one graph per line, '#' comments ignored),
    validating order and connectivity of every graph."""
    graphs = []
    with open(path, "rb") as fh:
        for lineno, line in graph6_lines(fh):
            try:
                g = parse_graph6(line)
            except GraphError as exc:
                raise GraphError(f"{path}:{lineno}: {exc}") from exc
            if g.n != expect_order:
                raise GraphError(
                    f"{path}:{lineno}: graph has order {g.n}, expected {expect_order}"
                )
            if not is_connected(g):
                raise GraphError(f"{path}:{lineno}: graph is not connected")
            graphs.append(g)
    return GraphUniverse(order=expect_order, source=path, graphs=tuple(graphs))
