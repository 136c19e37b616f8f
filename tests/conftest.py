import math
import os
import random
from itertools import combinations

import pytest

from graphtheta import canon
from graphtheta.graph6 import Graph6Error
from graphtheta.graphs import Graph, GraphError, _from_adjacency, from_edge_list, is_connected
from graphtheta.indices import edge_terms
from graphtheta.treeclasses import Tables, _fold, _mul
from graphtheta.treegen import free_tree_sequences


def assert_no_child_left() -> None:
    """This process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def parent_array(seq: tuple[int, ...]) -> list[int]:
    """Parent of each vertex in a level sequence (-1 for the root)."""
    par = [-1] * len(seq)
    last = [0] * len(seq)  # the latest vertex seen at each depth
    for v in range(1, len(seq)):
        d = seq[v]
        par[v] = last[d - 1]
        last[d] = v
    return par


def sequence_to_graph(seq: tuple[int, ...]) -> Graph:
    """The tree of a level sequence (root depth 0) as a ``Graph``."""
    par = parent_array(seq)
    adj: list[list[int]] = [[] for _ in seq]
    # a parent's index is below its child's, so every list grows sorted
    for v in range(1, len(seq)):
        adj[v].append(par[v])
        adj[par[v]].append(v)
    return _from_adjacency(len(seq), adj)


def path_graph(n: int) -> Graph:
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> Graph:
    return from_edge_list(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_graph(n: int) -> Graph:
    return from_edge_list(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def spider(*leg_lengths: int) -> Graph:
    """Trees made of paths glued at a common center (vertex 0)."""
    edges = []
    nxt = 1
    for L in leg_lengths:
        prev = 0
        for _ in range(L):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return from_edge_list(nxt, edges)


def random_connected_graphs(n: int, count: int, seed: int) -> list[Graph]:
    """``count`` seeded random connected graphs of order n, each with an
    edge density drawn from 0.25..0.8 (repeats possible)."""
    rng = random.Random(seed)
    graphs: list[Graph] = []
    while len(graphs) < count:
        p = rng.uniform(0.25, 0.8)
        k = from_edge_list(n, [e for e in combinations(range(n), 2) if rng.random() < p])
        if is_connected(k):
            graphs.append(k)
    return graphs


def line_graph(k: Graph) -> Graph:
    """The graph on the edges of ``k``, adjacent iff they share an
    endpoint.  Vertex i of the result is the i-th edge of ``k`` in
    sorted order; its degree is d_u + d_v - 2.
    """
    if k.m < 1:
        raise GraphError("line graph of an edgeless graph is undefined here")
    edges = list(k.edges())
    index = {}
    for i, (u, v) in enumerate(edges):
        index[u, v] = index[v, u] = i
    adj = []
    for u, v in edges:
        # the edges at u other than uv, then those at v: no repeats
        nbrs = [index[u, x] for x in k.adj[u] if x != v]
        nbrs += [index[v, x] for x in k.adj[v] if x != u]
        nbrs.sort()
        adj.append(nbrs)
    return _from_adjacency(len(edges), adj)


def canonical_key(g: Graph) -> bytes:
    """Canonical byte string of ``g``: equal keys iff isomorphic graphs."""
    return canon.canonical_key([sum(1 << v for v in nbrs) for nbrs in g.adj], g.degrees)


def is_line_graph(g: Graph) -> bool:
    """Line-graph recognition by the claw / odd-triangle criterion.

    A connected ``g`` is a line graph iff it has no induced star on 4
    vertices and whenever two odd triangles share an edge, their vertex
    union induces a complete graph on 4 vertices.  A triangle is odd when
    some vertex of ``g`` is adjacent to an odd number of its vertices.
    Brute-force scans, independent of ``line_graph``.
    """
    for v in range(g.n):
        for a, b, c in combinations(g.adj[v], 3):
            if not (g.has_edge(a, b) or g.has_edge(a, c) or g.has_edge(b, c)):
                return False
    odd = [
        t for t in combinations(range(g.n), 3)
        if all(g.has_edge(a, b) for a, b in combinations(t, 2))
        and any(sum(u in g.adj[v] for u in t) % 2 for v in range(g.n))
    ]
    for t1, t2 in combinations(odd, 2):
        union = set(t1) | set(t2)
        if len(union) == 4 and not all(g.has_edge(a, b) for a, b in combinations(union, 2)):
            return False
    return True


def fsum_class_sums(tables, cls: int) -> tuple[float, float]:
    """The ABC and ABS sums of a ``treeclasses`` class: its type fields
    decoded one at a time, and one ``math.fsum`` over the edge terms of
    each index."""
    mask = (1 << tables.width) - 1
    abc: list[float] = []
    abs_: list[float] = []
    for i, (a, b) in enumerate(tables.terms.types):
        c = cls >> tables._types_at + i * tables.width & mask
        _, _, t_abc, t_abs = edge_terms(a, b)
        abc += [t_abc] * c
        abs_ += [t_abs] * c
    return math.fsum(abc), math.fsum(abs_)


def real_gap(mpmath, pairs):
    """The ABC - ABS gap of some degree pairs in mpmath, at its working
    precision: an oracle independent of ``graphtheta.indices``."""
    return mpmath.fsum(
        mpmath.sqrt(mpmath.mpf(a + b - 2) / (a * b)) - mpmath.sqrt(mpmath.mpf(a + b - 2) / (a + b))
        for a, b in pairs)


def otter_classes(n: int) -> dict[int, int]:
    """The classes of the free trees of order n >= 2 (``treeclasses``
    packed ints) with their numbers of trees, counted with no centroid,
    by Otter's dissimilarity theorem (Otter 1948; Harary-Palmer 1973,
    ch. 3): in a tree, the vertex orbits less the orbits of the edges
    whose ends no automorphism swaps number one.  So free trees are
    vertex-rooted trees less half of (the ordered pairs of planted trees
    joined by an edge, sizes summing to n, less the pairs of a tree with
    itself), and every term keeps its class.  The planted tables go up
    to n - 1 vertices, built with ``treeclasses._fold``."""
    edge = Tables(n)._edge  # the packed monomial of an edge by its degrees
    planted: dict[tuple[int, int], dict[int, int]] = {}  # (root degree, size) -> class -> trees

    def layer(p: int, sigma: int) -> dict[int, int]:
        """The planted trees of sigma vertices under a parent of degree p."""
        q: dict[int, int] = {}
        for (d, s), poly in planted.items():
            e = edge[p][d]
            if s == sigma and e:
                for x, c in poly.items():
                    q[x + e] = q.get(x + e, 0) + c
        return q

    # a planted tree of s vertices and root degree d has d - 1 children of s - 1 vertices
    states = {d: {(0, 0): {0: 1}} for d in range(1, n)}
    for sigma in range(1, n):
        for d, st in states.items():
            if (d - 1, sigma - 1) in st:
                planted[(d, sigma)] = st.pop((d - 1, sigma - 1))
        for d in states:
            states[d] = _fold(states[d], layer(d, sigma), sigma, d - 1, 0, n - 2, 0)
    rooted: dict[int, int] = {}  # a root of degree D with D children
    for root in range(1, n):
        st = {(0, 0): {0: 1}}
        for sigma in range(1, n):
            st = _fold(st, layer(root, sigma), sigma, root, n - 1, n - 1, n - 1)
        for x, c in st.get((root, n - 1), {}).items():
            rooted[x] = rooted.get(x, 0) + c
    pairs: dict[int, int] = {}
    for (d1, s1), a in planted.items():
        for (d2, s2), b in planted.items():
            if s1 + s2 == n:
                _mul(a, {y + edge[d1][d2]: c for y, c in b.items()}, pairs)
        if 2 * s1 == n:
            for x, c in a.items():
                pairs[2 * x + edge[d1][d1]] -= c
    assert all(c % 2 == 0 for c in pairs.values())
    free = {x: rooted.get(x, 0) - pairs.get(x, 0) // 2 for x in rooted.keys() | pairs.keys()}
    assert all(c >= 0 for c in free.values())
    return {x: c for x, c in free.items() if c}


def stream_blocks(n: int) -> list[list[tuple[int, ...]]]:
    """The tree stream of order n cut into blocks: runs of trees whose
    roots have the same first subtree."""
    out: list[tuple[tuple[int, ...], list]] = []
    for seq in free_tree_sequences(n):
        first = seq[:seq.index(1, 2)] if 1 in seq[2:] else seq
        if not out or out[-1][0] != first:
            out.append((first, []))
        out[-1][1].append(seq)
    return [trees for _, trees in out]


def edges_to_graph6_oracle(n: int, edges) -> str:
    """graph6 encoder, one 6-bit chunk at a time (no order bound check)."""
    bits = 6 * ((n * (n - 1) // 2 + 5) // 6)
    top = bits - 1
    body = 0
    for i, j in edges:
        body |= 1 << (top - (j * (j - 1) // 2 + i))
    chunks = [(body >> s & 63) + 63 for s in range(bits - 6, -1, -6)]
    return bytes([n + 63, *chunks]).decode("ascii")


def parse_graph6_oracle(text: str) -> Graph:
    """graph6 decoder, one body character at a time, with the checks and
    messages of ``parse_graph6`` in the same order."""
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


@pytest.fixture(scope="session")
def universes_1_to_6():
    from graphtheta.smallgraphs import internal_universe

    return [internal_universe(n) for n in range(1, 7)]


@pytest.fixture(scope="session")
def universes_5_to_7():
    from graphtheta.smallgraphs import internal_universe

    return [internal_universe(n) for n in range(5, 8)]
