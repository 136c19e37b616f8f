"""Isomorphism-free enumeration of free trees.

Free trees of a given order are generated through canonical level
sequences (depth-first depth lists of rooted trees, root depth 0).
The successor step is the classic constant-amortized-time scheme:
rooted-tree successors in the style of Beyer-Hedetniemi, restricted to
centroid-rooted sequences so every free tree appears exactly once
(Wright-Richmond-Odlyzko-McKay).  Correctness is anchored to a
brute-force generate-and-dedup oracle in the test suite rather than to
trust in the algorithm.
"""

from __future__ import annotations

from itertools import islice
from typing import IO, Iterator

from .graphs import Graph, from_edge_list
from .graph6 import to_graph6
from .indices import sums_from_degree_pairs

# Which kernel runs; perfbench's set-up imports and records it.
BACKEND = "python"


def _rooted_successor(seq: list[int], p: int | None = None) -> list[int] | None:
    """Next canonical rooted-tree level sequence, or None at the end.

    ``p`` may pin the regeneration point (used when jumping over
    sequences that are not centroid-rooted).
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


def _advance_to_free(seq: list[int] | None) -> list[int] | None:
    """Advance to the nearest centroid-rooted (free-canonical) sequence.

    A rooted sequence encodes a free tree canonically when the first
    subtree of the root is no higher than the rest of the tree, and on
    equal heights is no larger, and on equal sizes not lexicographically
    later.
    """
    while seq is not None:
        first, rest = _split(seq)
        fh = max(first)
        rh = max(rest)
        if fh < rh:
            return seq
        if fh == rh and (
            len(first) < len(rest) or (len(first) == len(rest) and first <= rest)
        ):
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
    stack = [0]
    for i in range(1, len(seq)):
        d = seq[i]
        while seq[stack[-1]] >= d:
            stack.pop()
        par[i] = stack[-1]
        stack.append(i)
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
    """Compensated (ABC, ABS) sums of the tree encoded by ``seq``."""
    return sums_from_degree_pairs(degree_pairs(seq))


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


def partitioned_sequences(n: int, parts: int, part: int) -> Iterator[tuple[int, ...]]:
    """One slice of the canonical stream (every ``parts``-th sequence).

    The slices for part = 0..parts-1 are disjoint and their union is
    exactly ``free_tree_sequences(n)``.
    """
    if parts < 1:
        raise ValueError(f"parts must be >= 1, got {parts}")
    if not 0 <= part < parts:
        raise ValueError(f"part must be in [0,{parts})")
    return islice(free_tree_sequences(n), part, None, parts)


def write_graph6_stream(n: int, out: IO[str]) -> int:
    """Dump the tree stream as graph6 lines; returns the line count."""
    count = 0
    for g in enumerate_trees(n):
        out.write(to_graph6(g) + "\n")
        count += 1
    return count
