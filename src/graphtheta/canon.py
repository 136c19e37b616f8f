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
neighbors apart from each other: equal masks (false twins) or equal
masks once each has its own bit set (true twins).  Twinship is an
equivalence, twins have equal degrees, and any permutation within the
twin classes is an automorphism.  So every ordering is the image,
under such an automorphism, of one that lists each twin class in index
order and has the same bit string, and the minimum over those
orderings is the minimum over all.  The search never places a vertex
while a lower-numbered twin of it is still unplaced; every prefix it
keeps still extends to a full such ordering, so position-by-position
minimization gives the same key.

The orderings that attain the key form one coset of the automorphism
group: if ``p`` attains it, so does ``q`` iff ``v -> q[i]`` for
``v = p[i]`` is an automorphism.  The search keeps those with each
twin class in index order; :func:`canonical_search` puts back every
permutation of each class over that class's positions, so it yields
Aut(G), one automorphism per ordering.
"""

from __future__ import annotations

from itertools import permutations, product
from typing import Sequence


def _search(
    masks: Sequence[int], degrees: Sequence[int]
) -> tuple[bytes, list[tuple[int, ...]], list[int]]:
    """The key, the key-attaining orderings that list each twin class in
    index order, and ``before[v]``, the bitmask of v's lower twins."""
    n = len(masks)
    if n == 1:
        return bytes([1]), [(0,)], [0]
    by_degree: dict[int, list[int]] = {}
    for v in range(n):
        by_degree.setdefault(degrees[v], []).append(v)
    before = [0] * n
    for group in by_degree.values():
        for i, v in enumerate(group):
            mv = masks[v]
            closed = mv | 1 << v
            for u in group[:i]:
                mu = masks[u]
                if mu == mv or mu | 1 << u == closed:
                    before[v] |= 1 << u
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
    key = bytes([n]) + key_bits.to_bytes((total_bits + 7) // 8 or 1, "big")
    return key, [perm for perm, _ in partials], before


def canonical_key(masks: Sequence[int], degrees: Sequence[int]) -> bytes:
    """The canonical key of the graph whose vertex v has neighbor
    bitmask ``masks[v]`` and degree ``degrees[v]``."""
    return _search(masks, degrees)[0]


def canonical_search(
    masks: Sequence[int], degrees: Sequence[int]
) -> tuple[bytes, list[tuple[int, ...]]]:
    """The canonical key of the graph (as :func:`canonical_key`) and every
    vertex ordering that attains it (``len`` of which is ``|Aut(G)|``)."""
    key, kept, before = _search(masks, degrees)
    n = len(masks)
    classes = [
        [v] + [w for w in range(v + 1, n) if before[w] >> v & 1]
        for v in range(n)
        if not before[v]
    ]
    classes = [c for c in classes if len(c) > 1]
    if not classes:
        return key, kept
    orderings = []
    for p in kept:
        slots = [[p.index(v) for v in c] for c in classes]
        for arrangement in product(*map(permutations, classes)):
            q = list(p)
            for positions, members in zip(slots, arrangement):
                for i, v in zip(positions, members):
                    q[i] = v
            orderings.append(tuple(q))
    return key, orderings
