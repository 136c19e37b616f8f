"""Brute-force canonical forms for small graphs.

The canonical key of a graph is its order followed by the minimal
upper-triangle adjacency bit string, minimized over all vertex
orderings that list vertices by ascending degree (isomorphisms map
degree classes onto degree classes, so restricting to degree-sorted
orderings keeps the key isomorphism-invariant while pruning most of
the permutation space).

The search extends orderings position by position, keeping every
partial ordering that attains the minimal bit prefix.  Ties (and thus
the number of live partials) only survive along automorphism-like
symmetry, so the search stays small for the orders handled here.

The orderings that survive to the end are exactly those that attain
the key, and they form one coset of the automorphism group: if ``p``
attains it, so does ``q`` iff ``v -> q[i]`` for ``v = p[i]`` is an
automorphism.  So :func:`canonical_search` yields Aut(G) at no extra
cost, one automorphism per surviving ordering.
"""

from __future__ import annotations

from typing import Sequence


def canonical_search(
    masks: Sequence[int], degrees: Sequence[int]
) -> tuple[bytes, list[tuple[int, ...]]]:
    """The canonical key of the graph whose vertex v has neighbor
    bitmask ``masks[v]`` and degree ``degrees[v]``, and every vertex
    ordering that attains it (``len`` of which is ``|Aut(G)|``)."""
    n = len(masks)
    if n == 1:
        return bytes([1]), [(0,)]
    by_degree: dict[int, list[int]] = {}
    for v in range(n):
        by_degree.setdefault(degrees[v], []).append(v)
    # Position i must hold a vertex of the i-th smallest degree.
    slot_degree = sorted(degrees)

    # partials: orderings sharing the identical minimal bit prefix
    partials: list[tuple[int, ...]] = [()]
    key_bits = 0
    for pos in range(n):
        candidates = by_degree[slot_degree[pos]]
        best = None
        extended: list[tuple[int, ...]] = []
        for perm in partials:
            used = set(perm)
            for v in candidates:
                if v in used:
                    continue
                bits = 0
                mv = masks[v]
                for u in perm:
                    bits = (bits << 1) | ((mv >> u) & 1)
                if best is None or bits < best:
                    best = bits
                    extended = [perm + (v,)]
                elif bits == best:
                    extended.append(perm + (v,))
        partials = extended
        key_bits = (key_bits << pos) | best  # row at position pos has pos bits
    total_bits = n * (n - 1) // 2
    key = bytes([n]) + key_bits.to_bytes((total_bits + 7) // 8 or 1, "big")
    return key, partials
