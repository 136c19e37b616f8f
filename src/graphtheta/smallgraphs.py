"""Exhaustive enumeration of small connected graphs up to isomorphism.

The internal generator covers orders 1..7 by vertex augmentation:
every connected graph of order k+1 arises from a connected graph of
order k by attaching a new vertex to a nonempty neighbor set (every
connected graph has a non-cut vertex), so expanding each order-k
representative with its neighbor sets and deduplicating by canonical
key yields one representative per isomorphism class.

Each base tries only its twin-normal neighbor sets: those that hold
every lower-numbered twin (:func:`~graphtheta.canon.lower_twins`) of
each vertex they hold.  Swapping two twins is an automorphism of the
base, so replacing a member of a set that is not twin-normal by a lower
twin outside it gives an isomorphic graph, from a set of the same size
that comes earlier in the generation order (by size, then
lexicographically).  Repeated swaps end at a twin-normal set, so the
first set to reach each class is twin-normal, and the representative
of each class is the same labelled graph as in a search over every
set.  Each candidate is keyed by
:func:`~graphtheta.canon.canonical_key` on adjacency bitmasks, and a
``Graph`` is made only for each representative.

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
        for subset, subset_mask in subsets:
            if any(before[v] & ~subset_mask for v in subset):
                continue  # not twin-normal
            masks = base_masks + [subset_mask]
            degrees = list(base.degrees) + [len(subset)]
            for v in subset:
                masks[v] |= new
                degrees[v] += 1
            key = canonical_key(masks, degrees)
            if key not in seen:  # sorted lists: n - 1 is above every old vertex
                adj = [[*nbrs, n - 1] if subset_mask >> v & 1 else nbrs
                       for v, nbrs in enumerate(base.adj)]
                seen[key] = _from_adjacency(n, adj + [subset])
    return tuple(g for _, g in sorted(seen.items()))


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
