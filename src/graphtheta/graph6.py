"""graph6 codec (the de facto interchange format of graph generators).

Only the short form (order <= 62) is supported: header byte n+63,
then the upper triangle of the adjacency matrix in column order
(bit k = j*(j-1)/2 + i for edge {i,j}, i < j), packed big-endian into
6-bit chunks, each chunk offset by 63.
"""

from __future__ import annotations

from .graphs import Graph, GraphError, from_edge_list

MAX_ORDER = 62


class Graph6Error(GraphError):
    pass


def to_graph6(g: Graph) -> str:
    if g.n > MAX_ORDER:
        raise Graph6Error(f"order {g.n} exceeds short-form graph6 bound {MAX_ORDER}")
    n = g.n
    bits = bytearray(n * (n - 1) // 2)
    for i, j in g.edges():
        bits[j * (j - 1) // 2 + i] = 1
    out = [chr(n + 63)]
    for k in range(0, len(bits), 6):
        chunk = 0
        for b in bits[k : k + 6]:
            chunk = (chunk << 1) | b
        chunk <<= max(0, 6 - len(bits[k : k + 6]))
        out.append(chr(chunk + 63))
    return "".join(out)


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
    edges = []
    k = 0
    bitpos = 0
    chunk = 0
    for j in range(1, n):
        for i in range(j):
            if bitpos == 0:
                c = ord(body[k]) - 63
                if c < 0 or c > 63:
                    raise Graph6Error(f"invalid body byte at index {k}")
                chunk = c
                bitpos = 6
                k += 1
            bitpos -= 1
            if (chunk >> bitpos) & 1:
                edges.append((i, j))
    # bits past the triangle must be zero padding
    if bitpos and chunk & ((1 << bitpos) - 1):
        raise Graph6Error("padding bits set beyond the adjacency triangle")
    for extra in range(k, nchars):
        c = ord(body[extra]) - 63
        if c:
            raise Graph6Error("padding bits set beyond the adjacency triangle")
    return from_edge_list(n, edges)
