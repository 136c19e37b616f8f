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
"""

from __future__ import annotations

from math import fsum
from typing import IO, Iterator

from .graphs import Graph, from_edge_list
from .graph6 import to_graph6
from .indices import term_tables

# Which kernel runs; perfbench's set-up imports and records it.
BACKEND = "python"


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


def _split(seq: list[int]) -> tuple[list[int], list[int]]:
    """Split off the root's first subtree.

    Returns (first subtree re-rooted at depth 0, remainder including
    the root).
    """
    m = len(seq)
    for i in range(2, len(seq)):
        if seq[i] == 1:
            m = i
            break
    return [seq[i] - 1 for i in range(1, m)], [0] + seq[m:]


def _accepts(first: list[int], rest: list[int]) -> bool:
    """The stream's acceptance rule, on a rooted sequence split by
    ``_split``: the first subtree of the root is lower than the rest of
    the tree, or as high and smaller, or as large and not
    lexicographically later."""
    fh = max(first)
    rh = max(rest)
    return fh < rh or (fh == rh and (
        len(first) < len(rest) or (len(first) == len(rest) and first <= rest)))


def stream_form(seq: tuple[int, ...]) -> tuple[int, ...]:
    """The level sequence that ``free_tree_sequences`` gives the tree of
    ``seq``: the canonical sequence rooted at a center (of two centers,
    the rooting that ``_accepts`` takes)."""
    par = parent_array(seq)
    adj: list[list[int]] = [[] for _ in seq]
    for v in range(1, len(seq)):
        adj[v].append(par[v])
        adj[par[v]].append(v)

    def farthest(src: int) -> list[int]:
        """The path from src to a vertex farthest from it."""
        prev = {src: src}
        order = [src]
        for v in order:
            for w in adj[v]:
                if w not in prev:
                    prev[w] = v
                    order.append(w)
        path = [order[-1]]
        while path[-1] != src:
            path.append(prev[path[-1]])
        return path

    path = farthest(farthest(0)[0])
    diam = len(path) - 1
    centers = {path[diam // 2], path[(diam + 1) // 2]}

    def canonical(v: int, parent: int, depth: int) -> list[int]:
        subs = sorted((canonical(w, v, depth + 1) for w in adj[v] if w != parent),
                      reverse=True)
        return [depth, *(x for sub in subs for x in sub)]

    forms = [canonical(c, -1, 0) for c in centers]
    if len(forms) == 2:
        forms = [f for f in forms if _accepts(*_split(f))]
    return tuple(forms[0])


def _advance_to_free(seq: list[int] | None) -> list[int] | None:
    """Advance to the nearest sequence that ``_accepts``: one rooted at
    a center of its free tree (of two centers, the one whose own side of
    the central edge is the larger, by size and then lexicographically),
    which encodes that free tree canonically.
    """
    while seq is not None:
        first, rest = _split(seq)
        if _accepts(first, rest):
            return seq
        p = len(first)
        nxt = _rooted_successor(seq, p)
        if seq[p] > 2 and nxt is not None:
            new_first, _ = _split(nxt)
            h = max(new_first)
            nxt[len(nxt) - h - 1 :] = range(1, h + 2)
        seq = nxt
    return None


def free_tree_sequences(n: int) -> Iterator[tuple[int, ...]]:
    """Yield the canonical level sequence of every free tree of order n.

    Sequences are depth lists (root depth 0), emitted in a fixed order:
    lexicographically decreasing, which is ascending graph6 order.
    """
    if n < 1:
        raise ValueError(f"tree order must be >= 1, got {n}")
    if n == 1:
        yield (0,)
        return
    if n == 2:
        yield (0, 1)
        return
    # start from the path rooted at its center
    seq: list[int] | None = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while True:
        seq = _advance_to_free(seq)
        if seq is None:
            return
        yield tuple(seq)
        seq = _rooted_successor(seq)
        if seq is None:
            return


def parent_array(seq: tuple[int, ...]) -> list[int]:
    """Parent of each vertex in a level sequence (-1 for the root)."""
    par = [-1] * len(seq)
    last = [0] * len(seq)  # the latest vertex seen at each depth
    for v in range(1, len(seq)):
        d = seq[v]
        par[v] = last[d - 1]
        last[d] = v
    return par


def degree_pairs(seq: tuple[int, ...]) -> list[tuple[int, int]]:
    """Degree pairs (d_child, d_parent) of all edges of the encoded tree."""
    par = parent_array(seq)
    deg = [0] * len(seq)
    for i in range(1, len(seq)):
        deg[i] += 1
        deg[par[i]] += 1
    return [(deg[i], deg[par[i]]) for i in range(1, len(seq))]


def abc_abs_sums(seq: tuple[int, ...]) -> tuple[float, float]:
    """Compensated (ABC, ABS) sums of the tree encoded by ``seq``.

    The terms come from ``term_tables``, so the sums have the bits of
    ``sums_from_degree_pairs(degree_pairs(seq))``.
    """
    par = parent_array(seq)
    deg = [1] * len(seq)
    deg[0] = 0
    for p in par[1:]:
        deg[p] += 1
    abc, abs_ = term_tables(len(seq))
    return (fsum([abc[deg[v]][deg[par[v]]] for v in range(1, len(seq))]),
            fsum([abs_[deg[v]][deg[par[v]]] for v in range(1, len(seq))]))


def sequence_to_graph(seq: tuple[int, ...]) -> Graph:
    """Materialize the tree encoded by a 0-based depth sequence."""
    par = parent_array(seq)
    return from_edge_list(len(seq), [(par[i], i) for i in range(1, len(seq))])


def enumerate_trees(n: int) -> Iterator[Graph]:
    """Every free tree of order n exactly once, deterministic order."""
    for seq in free_tree_sequences(n):
        yield sequence_to_graph(seq)


def count_trees(n: int) -> int:
    """Number of free trees of order n, without materializing graphs."""
    return sum(1 for _ in free_tree_sequences(n))


def write_graph6_stream(n: int, out: IO[str]) -> int:
    """Dump the tree stream as graph6 lines; returns the line count."""
    count = 0
    for g in enumerate_trees(n):
        out.write(to_graph6(g) + "\n")
        count += 1
    return count
