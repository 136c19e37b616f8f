"""Isomorphism-free enumeration of free trees.

The successor kernel lives in a compiled extension when available
(``graphtheta.treegen._speedups``) with a pure-Python fallback; the
selected backend is reported in :data:`BACKEND`.  Both backends emit
identical sequences in identical order, so all consumers are
backend-agnostic.
"""

from __future__ import annotations

from itertools import islice
from typing import IO, Iterator

from ..graphs import Graph, from_edge_list
from ..graph6 import to_graph6

try:
    from . import _speedups as _impl
except ImportError:  # extension not built: pure-Python fallback
    from . import _pure as _impl

from . import _pure

BACKEND: str = _impl.BACKEND

free_tree_sequences = _impl.free_tree_sequences
degree_pairs = _impl.degree_pairs
abc_abs_sums = _impl.abc_abs_sums
parent_array = _pure.parent_array


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
