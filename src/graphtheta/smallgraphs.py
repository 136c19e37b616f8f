"""Exhaustive enumeration of small connected graphs up to isomorphism.

The internal generator covers orders 1..7 by vertex augmentation:
every connected graph of order k+1 arises from a connected graph of
order k by attaching a new vertex to a nonempty neighbor set (every
connected graph has a non-cut vertex), so expanding each order-k
representative with its neighbor sets and deduplicating by canonical
key yields one representative per isomorphism class.

Two neighbor sets in one orbit of Aut(base) give isomorphic graphs,
so each base tries only the set that comes first in its orbit, in the
generation order (by size, then lexicographically).  That first
member is also what a search over every set would reach first, so the
representative of each class is the same labelled graph either way.
Every candidate gets only :func:`~graphtheta.canon.canonical_key`,
whose search skips the symmetric orderings of twin vertices.  The
orbits come from one :func:`~graphtheta.canon.canonical_search` per
class below the top order: the orderings that attain a class's key
form one coset of its automorphism group.  Candidates are searched on
adjacency bitmasks, and a ``Graph`` is made only for each
representative.

Larger orders are ingested from external graph6 files.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .canon import canonical_key, canonical_search
from .graphs import Graph, GraphError, from_edge_list, is_connected
from .graph6 import graph6_lines, parse_graph6

MAX_INTERNAL_ORDER = 7


@dataclass(frozen=True)
class GraphUniverse:
    """A fixed set of pairwise non-isomorphic connected graphs."""

    order: int
    source: str
    graphs: tuple[Graph, ...]

    def __len__(self) -> int:
        return len(self.graphs)

    def __iter__(self):
        return iter(self.graphs)


def _automorphisms(masks: list[int], degrees: list[int]) -> tuple[tuple[int, ...], ...]:
    """Aut(G) as vertex maps, from the orderings that attain G's key
    (:func:`canonical_search`): ``orderings[0][i] -> q[i]`` for each
    ordering ``q``."""
    orderings = canonical_search(masks, degrees)[1]
    first = orderings[0]
    slot = {v: i for i, v in enumerate(first)}
    return tuple(tuple(q[slot[v]] for v in range(len(first))) for q in orderings)


@lru_cache(maxsize=None)
def _connected_classes(n: int) -> tuple[tuple[Graph, tuple[tuple[int, ...], ...]], ...]:
    """Each class's representative, sorted by canonical key, with its
    automorphisms (kept only below MAX_INTERNAL_ORDER: the orders that
    a larger one is grown from)."""
    if n == 1:
        return ((from_edge_list(1, []), _automorphisms([0], [0])),)
    seen: dict[bytes, tuple[Graph, tuple[tuple[int, ...], ...]]] = {}
    new = 1 << (n - 1)
    # the new vertex's neighbor sets in generation order, with their masks
    subsets = [
        (subset, sum(1 << v for v in subset))
        for r in range(1, n)
        for subset in combinations(range(n - 1), r)
    ]
    for base, auts in _connected_classes(n - 1):
        edges = list(base.edges())
        base_masks = [sum(1 << v for v in nbrs) for nbrs in base.adj]
        tried: set[int] = set()  # the orbits met so far, as neighbor bitmasks
        for subset, subset_mask in subsets:
            if subset_mask in tried:
                continue
            if len(auts) > 1:  # else each orbit is one set, met once
                tried.update(sum(1 << a[v] for v in subset) for a in auts)
            masks = base_masks + [subset_mask]
            degrees = list(base.degrees) + [len(subset)]
            for v in subset:
                masks[v] |= new
                degrees[v] += 1
            key = canonical_key(masks, degrees)
            if key not in seen:
                g = from_edge_list(n, edges + [(v, n - 1) for v in subset])
                seen[key] = (g, _automorphisms(masks, degrees) if n < MAX_INTERNAL_ORDER else ())
    return tuple(c for _, c in sorted(seen.items()))


def internal_universe(n: int) -> GraphUniverse:
    """All connected graphs of order n up to isomorphism, sorted by
    canonical key.  Supported for 1 <= n <= MAX_INTERNAL_ORDER."""
    if not 1 <= n <= MAX_INTERNAL_ORDER:
        raise GraphError(
            f"internal enumeration supports 1 <= n <= {MAX_INTERNAL_ORDER}, got {n}"
        )
    graphs = tuple(g for g, _ in _connected_classes(n))
    return GraphUniverse(order=n, source="internal", graphs=graphs)


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
