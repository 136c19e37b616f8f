"""Isomorphism-free enumeration of free trees.

Free trees of a given order are generated through canonical level
sequences (depth-first depth lists of rooted trees, root depth 0).
The successor step is the classic constant-amortized-time scheme:
rooted-tree successors in the style of Beyer-Hedetniemi, restricted to
sequences rooted at a center (the middle vertex of a longest path; of
two centers, the one that ``_accepts`` picks) so every free tree
appears exactly once (Wright-Richmond-Odlyzko-McKay 1986).  Correctness
is anchored to a brute-force generate-and-dedup oracle in the test
suite rather than to trust in the algorithm.

The module works on level sequences alone and builds no ``Graph``.
``sequence_to_graph6`` and ``stream_form`` read a tree's edges by
tracking the latest vertex at each depth, which is the parent of the
next vertex one level down.  ``sequence_to_graph6`` sets each parent
edge's bit from graph6's per-order encoder table (``graph6._edge_bits``),
whose positions are already shifted for the base64 padding.
``stream_form`` re-roots any level sequence of a tree as the stream
gives it: it makes the neighbour lists, strips leaves down to the one
or two centers, and writes each center's canonical sequence.

``free_tree_sequences(n, skip)`` lets a caller leave out whole blocks
of trees that share the root's first subtree: the census's witness pass
skips those that ``treeclasses.Tables.positive_block`` proves hold no
negative tree.

Every command that enumerates or censuses the trees of an order stops
at MAX_TREE_ORDER (``check_order``).
"""

from __future__ import annotations

from typing import IO, Callable, Iterator

from .graph6 import MAX_ORDER, _body_to_graph6, _edge_bits

# Which kernel runs; perfbench's set-up imports and records it.
BACKEND = "python"
# The largest order that scan, near-ties and enum trees accept: the
# largest with a recorded census (scan 23..25: 93 s, 141 MB).  The class
# tables grow about 4x per 4 orders past it, and the tree stream 3x per
# order.
MAX_TREE_ORDER = 25


def check_order(n: int) -> None:
    """Raise ValueError if order n is above the graph6 bound, which
    every tree of the output is named in, or else above MAX_TREE_ORDER."""
    if n > MAX_ORDER:
        raise ValueError(f"order {n} exceeds short-form graph6 bound {MAX_ORDER}")
    if n > MAX_TREE_ORDER:
        raise ValueError(f"order {n} exceeds tree-order bound {MAX_TREE_ORDER}")


def _rooted_successor(seq: list[int], p: int | None = None) -> list[int] | None:
    """Next canonical rooted-tree level sequence, or None at the end.

    ``p`` may pin the regeneration point (used when jumping over
    sequences that are not rooted at a center).
    """
    if p is None:
        p = len(seq) - 1
        while seq[p] == 1:
            p -= 1
    if p == 0:
        return None
    q = p - 1
    while seq[q] != seq[p] - 1:
        q -= 1
    nxt = list(seq)
    for i in range(p, len(nxt)):
        nxt[i] = nxt[i - p + q]
    return nxt


def _first_end(seq: list[int]) -> int:
    """The end of the root's first subtree: the index of the root's
    second child, or len(seq) if it has one child."""
    try:
        return seq.index(1, 2)
    except ValueError:
        return len(seq)


def _accepts(seq: list[int], m: int) -> bool:
    """The stream's acceptance rule, on a rooted sequence whose root's
    first subtree is seq[1:m]: that subtree (re-rooted at depth 0) is
    lower than the rest of the tree, or as high and smaller, or as large
    and not lexicographically later.  The two parts are compared in
    place; they are built only on a tie of height and size."""
    first_h = max(seq[1:m]) - 1
    rest_h = max(seq[m:], default=0)
    if first_h != rest_h:
        return first_h < rest_h
    first_n, rest_n = m - 1, len(seq) - m + 1
    if first_n != rest_n:
        return first_n < rest_n
    return [v - 1 for v in seq[1:m]] <= [0, *seq[m:]]


def stream_form(seq: tuple[int, ...]) -> tuple[int, ...]:
    """The level sequence that ``free_tree_sequences`` gives the tree of
    ``seq``: the canonical sequence rooted at a center (of two centers,
    the rooting that ``_accepts`` takes)."""
    n = len(seq)
    adj: list[list[int]] = [[] for _ in seq]
    last = [0] * n  # the latest vertex seen at each depth
    for v in range(1, n):
        d = seq[v]
        adj[v].append(last[d - 1])
        adj[last[d - 1]].append(v)
        last[d] = v
    # strip the leaves, layer by layer, down to the one or two centers
    deg = [len(nbrs) for nbrs in adj]
    centers = [v for v in range(n) if deg[v] <= 1]
    left = n
    while left > 2:
        left -= len(centers)
        inner = []
        for v in centers:
            for w in adj[v]:
                deg[w] -= 1
                if deg[w] == 1:
                    inner.append(w)
        centers = inner
    forms = [_canonical(adj, c, -1, 0) for c in centers]
    if len(forms) == 2:
        forms = [f for f in forms if _accepts(f, _first_end(f))]
    return tuple(forms[0])


def _canonical(adj: list[list[int]], v: int, parent: int, depth: int) -> list[int]:
    """The canonical level sequence of the subtree of v away from
    ``parent``, with v at ``depth``: its children's sequences in
    descending order."""
    subs = sorted((_canonical(adj, w, v, depth + 1) for w in adj[v] if w != parent),
                  reverse=True)
    return [depth, *(x for sub in subs for x in sub)]


def _advance_to_free(seq: list[int]) -> list[int]:
    """Advance to the nearest sequence that ``_accepts``: one rooted at
    a center of its free tree (of two centers, the one whose own side of
    the central edge is the larger, by size and then lexicographically),
    which encodes that free tree canonically.

    The skip always has a successor: the first subtree ends at m >= 2,
    so the successor pinned at m - 1 >= 1 exists.
    """
    while True:
        m = _first_end(seq)
        if _accepts(seq, m):
            return seq
        nxt = _rooted_successor(seq, m - 1)
        if seq[m - 1] > 2:
            h = max(nxt[1:_first_end(nxt)]) - 1  # the new first subtree's height
            nxt[len(nxt) - h - 1 :] = range(1, h + 2)
        seq = nxt


def free_tree_sequences(
    n: int, skip: Callable[[tuple[int, ...]], bool] | None = None,
) -> Iterator[tuple[int, ...]]:
    """Yield the canonical level sequence of every free tree of order n.

    Sequences are depth lists (root depth 0), emitted in a fixed order:
    lexicographically decreasing, which is ascending graph6 order.

    The trees whose roots have the same first subtree, seq[:m] with m
    the ``_first_end``, are consecutive: a *block*.  With ``skip``, the
    stream calls ``skip(seq)`` on the first tree of each block, and if
    it returns true leaves the whole block out: it jumps to the rooted
    successor pinned at m - 1, the first sequence past every one that
    starts with seq[:m], as ``_advance_to_free`` does.  The block whose
    first subtree is one vertex is the star alone, the last tree.
    """
    if n < 1:
        raise ValueError(f"tree order must be >= 1, got {n}")
    if n == 1:  # no first subtree for ``_accepts`` to read
        yield (0,)
        return
    # start from the path rooted at its center
    seq: list[int] | None = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    block: list[int] = []  # seq[:m] of the block streamed
    while seq is not None:
        seq = _advance_to_free(seq)
        if skip is not None:
            m = _first_end(seq)
            if seq[:m] != block:
                block = seq[:m]
                if skip(tuple(seq)):
                    seq = _rooted_successor(seq, m - 1) if m > 2 else None
                    continue
        yield tuple(seq)
        seq = _rooted_successor(seq)


def sequence_to_graph6(seq: tuple[int, ...]) -> str:
    """The graph6 string of the tree encoded by a depth sequence, made
    from its parent edges without a Graph.

    A vertex's parent is the latest vertex one level up, and precedes
    it, so each edge (parent, v) sets ``bit[v][parent]`` of the encoder
    table."""
    n = len(seq)
    bit = _edge_bits(n)
    body = 0
    last = [0] * n  # the latest vertex seen at each depth
    for v in range(1, n):
        d = seq[v]
        body |= bit[v][last[d - 1]]
        last[d] = v
    return _body_to_graph6(n, body)


def write_graph6_stream(n: int, out: IO[str]) -> None:
    """Dump the tree stream as graph6 lines."""
    for seq in free_tree_sequences(n):
        out.write(sequence_to_graph6(seq) + "\n")
