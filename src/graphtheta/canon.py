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

Twins are pruned.  Two vertices are twins when they have the same
neighbors apart from each other (:func:`lower_twins`).  Twinship is an
equivalence, twins have equal degrees, and swapping two twins is an
automorphism.  So every ordering is the image, under such swaps, of one
that lists each twin class in index order and has the same bit string,
and the minimum over those orderings is the minimum over all.  The
search never places a vertex while a lower-numbered twin of it is still
unplaced; every prefix it keeps still extends to a full such ordering,
so position-by-position minimization gives the same key.
"""

from __future__ import annotations

from typing import Sequence


def lower_twins(masks: Sequence[int], degrees: Sequence[int]) -> list[int]:
    """``before[v]``, the bitmask of v's lower-numbered twins: the u < v
    with equal masks (false twins) or, adjacent, equal masks once each
    has its own bit set (true twins)."""
    before = [0] * len(masks)
    by_degree: dict[int, list[int]] = {}  # the vertices met so far, by degree
    for v, mv in enumerate(masks):
        group = by_degree.setdefault(degrees[v], [])
        closed = mv | 1 << v
        for u in group:
            mu = masks[u]
            if mu == mv or mu | 1 << u == closed:
                before[v] |= 1 << u
        group.append(v)
    return before


def canonical_key(masks: Sequence[int], degrees: Sequence[int]) -> bytes:
    """The canonical key of the graph whose vertex v has neighbor
    bitmask ``masks[v]`` and degree ``degrees[v]``."""
    n = len(masks)
    if n == 1:
        return bytes([1])
    by_degree: dict[int, list[int]] = {}
    for v in range(n):
        by_degree.setdefault(degrees[v], []).append(v)
    before = lower_twins(masks, degrees)
    # Position i must hold a vertex of the i-th smallest degree.
    slot_degree = sorted(degrees)

    # partials: orderings sharing the identical minimal bit prefix, each
    # with the bitmask of the vertices it has placed
    partials: list[tuple[tuple[int, ...], int]] = [((), 0)]
    key_bits = 0
    for pos in range(n):
        candidates = by_degree[slot_degree[pos]]
        best = None
        extended: list[tuple[tuple[int, ...], int]] = []
        for perm, placed in partials:
            for v in candidates:
                if placed >> v & 1 or before[v] & ~placed:
                    continue
                bits = 0
                mv = masks[v]
                for u in perm:
                    bits = (bits << 1) | ((mv >> u) & 1)
                if best is None or bits < best:
                    best = bits
                    extended = [(perm + (v,), placed | 1 << v)]
                elif bits == best:
                    extended.append((perm + (v,), placed | 1 << v))
        partials = extended
        key_bits = (key_bits << pos) | best  # row at position pos has pos bits
    total_bits = n * (n - 1) // 2
    return bytes([n]) + key_bits.to_bytes((total_bits + 7) // 8 or 1, "big")
