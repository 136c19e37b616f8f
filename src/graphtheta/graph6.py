"""graph6 codec (the de facto interchange format of graph generators).

Only the short form (order <= 62) is supported: header byte n+63, then
the upper triangle of the adjacency matrix in column order, packed
big-endian into 6-bit chunks, each chunk offset by 63 (McKay, "graph6
and sparse6 graph formats").

Both directions hold the body as one int of B = 6*ceil(N/6) bits, where
N = n(n-1)/2.  Edge {i, j} (i < j) is bit top - (j(j-1)/2 + i) of it,
with top = B - 1, so the triangle fills the high N bits in column order
and the low B - N bits are zero padding.

The body characters 63..126 stand for the 6-bit values 0..63, and so do
the 64 characters of the base64 alphabet, in the same order.  So both
directions translate the body into base64 and let ``binascii`` convert
it to or from bytes, in groups of 4 characters.  The encoder sets each
edge's bit from a per-order table (``_edge_bits``) whose positions are
already shifted past the characters that round the last group up, and
drops those characters from the text.  The decoder (``_decode``) checks
the string, pads its body with ``A`` (0) and shifts those bits back off,
and ``_edges`` walks the set bits from the top (``bit_length``), which
is column order, through a per-order table from bit to edge.  From those
edges ``parse_graph6`` builds a ``Graph`` whose neighbor lists come out
sorted, with no set and no sort, and ``parse_degree_pairs`` gives the
degree pairs of the edges and a connectivity verdict read from the same
edges, with no ``Graph``.
"""

from __future__ import annotations

from binascii import a2b_base64, b2a_base64
from functools import cache
from typing import IO, Iterable, Iterator

from .graphs import Graph, GraphError, _from_adjacency, _reaches_all

MAX_ORDER = 62
_BODY = bytes(range(63, 127))
_BASE64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_TO_BASE64 = bytes.maketrans(_BODY, _BASE64)
_FROM_BASE64 = bytes.maketrans(_BASE64, _BODY)


class Graph6Error(GraphError):
    pass


def graph6_lines(fh: IO[bytes]) -> Iterator[tuple[int, str]]:
    """(line number, text) of each line of a binary graph6 stream, skipped
    if blank or a '#' comment.  Each byte becomes the character of the
    same code (latin-1), so a non-ASCII byte is one more byte outside
    graph6's range that the decoder reports for its own line."""
    for lineno, raw in enumerate(fh, 1):
        line = raw.strip()
        if line and not line.startswith(b"#"):
            yield lineno, line.decode("latin-1")


def edges_to_graph6(n: int, edges: Iterable[tuple[int, int]]) -> str:
    """The graph6 string of the graph of order n with the given edges,
    each given once as (i, j) with 0 <= i < j < n.  The edges are not
    checked."""
    bit = _edge_bits(n)
    body = 0
    for i, j in edges:
        body |= bit[j][i]
    return _body_to_graph6(n, body)


def to_graph6(g: Graph) -> str:
    return edges_to_graph6(g.n, g.edges())


@cache
def _edge_bits(n: int) -> list[list[int]]:
    """``bit[j][i]``: the bit of edge (i, j), i < j, in the body int of
    order n padded to whole base64 groups."""
    if n > MAX_ORDER:
        raise Graph6Error(f"order {n} exceeds short-form graph6 bound {MAX_ORDER}")
    nchars = (n * (n - 1) // 2 + 5) // 6
    top = 6 * (nchars + -nchars % 4) - 1
    return [[1 << (top - (j * (j - 1) // 2 + i)) for i in range(j)] for j in range(n)]


def _body_to_graph6(n: int, body: int) -> str:
    """The graph6 string of order n whose body int, padded as in
    ``_edge_bits``, is ``body``."""
    nchars = (n * (n - 1) // 2 + 5) // 6
    text = b2a_base64(body.to_bytes((nchars + 3) // 4 * 3, "big"), newline=False)
    return chr(n + 63) + text[:nchars].translate(_FROM_BASE64).decode()


def _decode(text: str) -> tuple[int, int]:
    """The order n of a graph6 string and its body int (padding bits
    zero); raises Graph6Error, naming the first fault, on a malformed
    string."""
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
    raw = body.encode("utf-8", "surrogatepass")  # every non-ASCII byte is invalid
    if raw.translate(None, _BODY):
        index = next(i for i, ch in enumerate(body) if not "?" <= ch <= "~")
        raise Graph6Error(f"invalid body byte at index {index}")
    pad = -nchars % 4
    x = int.from_bytes(a2b_base64(raw.translate(_TO_BASE64) + b"A" * pad), "big") >> 6 * pad
    if x & ((1 << (6 * nchars - nbits)) - 1):
        raise Graph6Error("padding bits set beyond the adjacency triangle")
    return n, x


def parse_graph6(text: str) -> Graph:
    n, x = _decode(text)
    return _from_adjacency(n, _adjacency(n, _edges(n, x)))


def parse_degree_pairs(text: str) -> tuple[int, list[tuple[int, int]], bool]:
    """(n, pairs, connected) of a graph6 string: its order, the degree
    pair (d_i, d_j) of each edge (i, j) in column order, and whether the
    graph is connected.  It checks and rejects what ``parse_graph6``
    does, with the same messages.

    Connected is settled from the decoded edges when every vertex but 0
    has a lower neighbor (the edges (i, j) name n - 1 distinct j): by
    induction on j each vertex then reaches 0.  That holds for every
    tree ``treegen`` writes, whose parents precede their children.
    Otherwise a search from vertex 0 decides, the one ``is_connected``
    runs."""
    n, x = _decode(text)
    edges = _edges(n, x)
    deg = [0] * n
    for i, j in edges:
        deg[i] += 1
        deg[j] += 1
    connected = (len({j for _, j in edges}) == n - 1
                 or _reaches_all(_adjacency(n, edges)))
    return n, [(deg[i], deg[j]) for i, j in edges], connected


def _edges(n: int, x: int) -> list[tuple[int, int]]:
    """The edges (i, j), i < j, of the body int x of order n, in column
    order."""
    edge = _edge_of_bit(n)
    edges = []
    while x:
        p = x.bit_length() - 1
        x ^= 1 << p
        edges.append(edge[p])
    return edges


def _adjacency(n: int, edges: list[tuple[int, int]]) -> list[list[int]]:
    """Neighbor lists of edges in column order, each sorted ascending."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    return adj


@cache
def _edge_of_bit(n: int) -> list[tuple[int, int] | None]:
    """The edge (i, j) of each bit of the body int of order n, low bit
    first: None for each padding bit, then the triangle from its end."""
    nbits = n * (n - 1) // 2
    column_order = [(i, j) for j in range(1, n) for i in range(j)]
    return [None] * (-nbits % 6) + column_order[::-1]
