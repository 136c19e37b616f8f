"""graph6 codec (the de facto interchange format of graph generators).

Only the short form (order <= 62) is supported: header byte n+63, then
the upper triangle of the adjacency matrix in column order, packed
big-endian into 6-bit chunks, each chunk offset by 63 (McKay, "graph6
and sparse6 graph formats").

Both directions hold the body as one int of B = 6*ceil(N/6) bits, where
N = n(n-1)/2.  Edge {i, j} (i < j) is bit top - (j(j-1)/2 + i) of it,
with top = B - 1, so the triangle fills the high N bits in column order
and the low B - N bits are zero padding.  The decoder walks the set bits
from the top (``bit_length``), which is column order: every neighbor
list comes out sorted, with no set and no sort.
"""

from __future__ import annotations

from typing import IO, Iterable, Iterator

from .graphs import Graph, GraphError, _from_adjacency

MAX_ORDER = 62


class Graph6Error(GraphError):
    pass


def graph6_lines(fh: IO[bytes]) -> Iterator[tuple[int, str]]:
    """(line number, text) of each line of a binary graph6 stream, skipped
    if blank or a '#' comment.  Each byte becomes the character of the
    same code (latin-1), so a non-ASCII byte is one more byte outside
    graph6's range that ``parse_graph6`` reports for its own line."""
    for lineno, raw in enumerate(fh, 1):
        line = raw.strip()
        if line and not line.startswith(b"#"):
            yield lineno, line.decode("latin-1")


def edges_to_graph6(n: int, edges: Iterable[tuple[int, int]]) -> str:
    """The graph6 string of the graph of order n with the given edges,
    each given once as (i, j) with 0 <= i < j < n.  The edges are not
    checked."""
    if n > MAX_ORDER:
        raise Graph6Error(f"order {n} exceeds short-form graph6 bound {MAX_ORDER}")
    bits = 6 * ((n * (n - 1) // 2 + 5) // 6)
    top = bits - 1
    body = 0
    for i, j in edges:
        body |= 1 << (top - (j * (j - 1) // 2 + i))
    chunks = [(body >> s & 63) + 63 for s in range(bits - 6, -1, -6)]
    return bytes([n + 63, *chunks]).decode("ascii")


def to_graph6(g: Graph) -> str:
    return edges_to_graph6(g.n, g.edges())


def parse_graph6(text: str) -> Graph:
    text = text.removeprefix(">>graph6<<")
    if not text:
        raise Graph6Error("empty graph6 string")
    header = ord(text[0])
    if header < 63 or header > 126:
        raise Graph6Error(f"invalid header byte {header}")
    n = header - 63
    if n == 63:
        raise Graph6Error("extended-order graph6 forms are not supported")
    if n == 0:
        raise Graph6Error("graph6 order must be >= 1")
    nbits = n * (n - 1) // 2
    nchars = (nbits + 5) // 6
    body = text[1:]
    if len(body) < nchars:
        raise Graph6Error(f"truncated graph6 body: need {nchars} chars, got {len(body)}")
    if len(body) > nchars:
        raise Graph6Error(f"trailing garbage after graph6 body: {body[nchars:]!r}")
    x = 0
    for index, ch in enumerate(body):
        c = ord(ch) - 63
        if not 0 <= c <= 63:
            raise Graph6Error(f"invalid body byte at index {index}")
        x = x << 6 | c
    if x & ((1 << (6 * nchars - nbits)) - 1):
        raise Graph6Error("padding bits set beyond the adjacency triangle")
    top = 6 * nchars - 1
    adj: list[list[int]] = [[] for _ in range(n)]
    j = 1
    col = 0  # j(j-1)/2: column j is triangle bits col..col+j-1, top first
    while x:
        p = x.bit_length() - 1
        x ^= 1 << p
        k = top - p
        while k >= col + j:
            col += j
            j += 1
        i = k - col
        adj[i].append(j)
        adj[j].append(i)
    return _from_adjacency(n, adj)
