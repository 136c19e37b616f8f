"""Exhaustive enumeration of small connected graphs up to isomorphism.

The internal generator covers orders 1..7 by vertex augmentation:
every connected graph of order k+1 arises from a connected graph of
order k by attaching a new vertex to a nonempty neighbor set (every
connected graph has a non-cut vertex), so expanding each order-k
representative with all 2^k - 1 neighbor sets and deduplicating by
canonical key yields one representative per isomorphism class.

Larger orders are ingested from external graph6 files.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .canon import canonical_key
from .graphs import Graph, GraphError, from_edge_list, is_connected
from .graph6 import parse_graph6

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


@lru_cache(maxsize=None)
def _connected_reps(n: int) -> tuple[Graph, ...]:
    if n == 1:
        return (from_edge_list(1, []),)
    seen: dict[bytes, Graph] = {}
    for base in _connected_reps(n - 1):
        edges = list(base.edges())
        for r in range(1, n):
            for subset in combinations(range(n - 1), r):
                g = from_edge_list(n, edges + [(v, n - 1) for v in subset])
                key = canonical_key(g)
                if key not in seen:
                    seen[key] = g
    return tuple(g for _, g in sorted(seen.items()))


def internal_universe(n: int) -> GraphUniverse:
    """All connected graphs of order n up to isomorphism, sorted by
    canonical key.  Supported for 1 <= n <= MAX_INTERNAL_ORDER."""
    if not 1 <= n <= MAX_INTERNAL_ORDER:
        raise GraphError(
            f"internal enumeration supports 1 <= n <= {MAX_INTERNAL_ORDER}, got {n}"
        )
    return GraphUniverse(order=n, source="internal", graphs=_connected_reps(n))


def load_universe(path: str, expect_order: int) -> GraphUniverse:
    """Read a graph6 file (one graph per line, '#' comments ignored),
    validating order and connectivity of every graph."""
    graphs = []
    with open(path, encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
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
