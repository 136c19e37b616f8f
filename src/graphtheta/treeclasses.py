"""Free trees of order n counted per degree-pair class, without making
a tree.

A tree's *class* is the multiset of its edges' degree pairs (a, b),
a <= b.  The ABC-ABS gap of a tree depends only on its class, and
classes are far fewer than trees (7,778 against 48,629 at n=17), so the
census scores classes and makes trees only for the classes it reports.

Counting is Polya's multiset construction over *planted* trees (a root
whose degree counts the edge to a future parent), rooted at the
centroid (Polya 1937; Otter 1948; Harary-Palmer 1973, ch. 3-4):

* A class is a packed int with one field of ``width`` bits per edge
  type (a, b), holding how many edges have that type, so adding two
  packed ints multiplies the monomials they stand for.  The top bit of
  each field stays clear, which lets ``expand`` test a field-wise
  subtraction for underflow.
* ``planted[(d, s)]`` maps each class of the s-1 edges inside a planted
  tree of s vertices and root degree d to its number of trees.  For a
  vertex of degree D, the multisets of its children are built one child
  size sigma at a time: the layer Q = sum_d planted[(d, sigma)]*y(D, d)
  is folded in with sum_m h_m(Q), where h_m comes from Newton's
  identity m*h_m = sum_{j=1..m} p_j(Q)*h_{m-j} and p_j multiplies every
  exponent by j.  Every division is exact.
* A tree with one centroid is a root of degree D whose D children have
  at most (n-1)//2 vertices each: one root fold per degree D.  A tree
  with two centroids (n even) is two planted trees of n/2 vertices
  joined by an edge: the unit ``BICENTROID``.

``Tables.classes(unit)`` gives the classes of one unit, so a caller can
score and drop them one fold at a time, or split the units between
processes.  ``Tables.expand(cls)`` lists the trees of one class as the
canonical level sequences that ``treegen.free_tree_sequences`` gives
them, in stream order.
"""

from __future__ import annotations

from itertools import combinations_with_replacement, product
from typing import Iterator

from .treegen import _accepts, _split, parent_array

BICENTROID = -1  # the unit of the trees with two centroids

Poly = dict[int, int]  # packed class -> number of trees


def _mul(a: Poly, b: Poly, out: Poly) -> None:
    """out += a * b."""
    for x, cx in a.items():
        for y, cy in b.items():
            out[x + y] = out.get(x + y, 0) + cx * cy


def _multisets(q: Poly) -> Iterator[Poly]:
    """h_0, h_1, ... of q: the multisets of m items drawn from q."""
    h: list[Poly] = [{0: 1}]
    p: list[Poly] = []
    yield h[0]
    while True:
        m = len(h)
        p.append({x * m: c for x, c in q.items()})
        acc: Poly = {}
        for j in range(1, m + 1):
            _mul(p[j - 1], h[m - j], acc)
        h.append({x: c // m for x, c in acc.items()})
        yield h[-1]


def _fold(
    states: dict[tuple[int, int], Poly], q: Poly, sigma: int,
    k_max: int, t_min: int, t_max: int, s_max: int,
) -> dict[tuple[int, int], Poly]:
    """Add any number of children of size sigma, drawn from layer q, to
    every state (k children, total size t).  A result is kept if
    k_max - k more children, each of size sigma+1..s_max, can bring its
    size into t_min..t_max."""
    out: dict[tuple[int, int], Poly] = {}
    h: list[Poly] = []
    more = _multisets(q)
    for (k, t), poly in states.items():
        for m in range(min(k_max - k, (t_max - t) // sigma) + 1):
            k2, t2 = k + m, t + m * sigma
            rest = k_max - k2
            if t2 + rest * (sigma + 1) > t_max or t2 + rest * s_max < t_min:
                continue
            while len(h) <= m:
                h.append(next(more))
            _mul(poly, h[m], out.setdefault((k2, t2), {}))
    return out


class Tables:
    """The planted tables of order n, from which the classes of every
    fold unit are counted and any class's trees are listed."""

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError(f"tree order must be >= 1, got {n}")
        self.n = n
        self.width = max(5, n.bit_length() + 1)
        # in a tree, the two ends of an edge have degrees summing to <= n
        self.types = [(a, b) for a in range(1, n) for b in range(a, n - a + 1)]
        shift = {ab: i * self.width for i, ab in enumerate(self.types)}
        # the packed monomial of one edge between degrees a and b, or 0
        self._edge = [[1 << shift[min(a, b), max(a, b)] if a + b <= n and a and b else 0
                       for b in range(n + 1)] for a in range(n + 1)]
        self._guard = sum(1 << (s + self.width - 1) for s in shift.values())
        self.half = n // 2  # the largest planted size needed
        self.branch = (n - 1) // 2  # the largest child of a centroid
        self.units = [d for d in range(n) if d * self.branch >= n - 1]
        if n % 2 == 0:
            self.units.append(BICENTROID)
        self.planted: dict[tuple[int, int], Poly] = {}
        self._planted_tables()
        self._trees: dict[tuple[int, int, int], list[tuple[int, ...]]] = {}

    def _layer(self, d_parent: int, sigma: int) -> Poly:
        q: Poly = {}
        for (d, s), poly in self.planted.items():
            e = self._edge[d_parent][d]
            if s == sigma and e:
                for x, c in poly.items():
                    q[x + e] = q.get(x + e, 0) + c
        return q

    def _planted_tables(self) -> None:
        top = self.half
        states = {d: {(0, 0): {0: 1}} for d in range(1, top + 1)}
        for sigma in range(1, top + 1):
            for d, st in states.items():
                poly = st.pop((d - 1, sigma - 1), None)
                if poly:
                    self.planted[(d, sigma)] = poly
            if sigma == top:
                break
            for d in states:
                states[d] = _fold(states[d], self._layer(d, sigma), sigma,
                                  d - 1, 0, top - 1, 0)

    def classes(self, unit: int) -> Poly:
        """The classes of the trees of one unit (a centroid degree, or
        BICENTROID) with their numbers of trees."""
        n = self.n
        if unit == BICENTROID:
            return self._bicentroidal()
        states = {(0, 0): {0: 1}}
        for sigma in range(1, self.branch + 1):
            states = _fold(states, self._layer(unit, sigma), sigma,
                           unit, n - 1, n - 1, self.branch)
        return states.get((unit, n - 1), {})

    def _bicentroidal(self) -> Poly:
        out: Poly = {}
        halves = [(d, self.planted[(d, s)]) for d, s in sorted(self.planted) if s == self.half]
        for i, (d1, a) in enumerate(halves):
            for d2, b in halves[i:]:
                e = self._edge[d1][d2]
                if not e:
                    continue
                if d1 != d2:
                    _mul(a, {y + e: c for y, c in b.items()}, out)
                    continue
                # unordered pairs of halves: (A^2 + p_2(A)) / 2
                sq: Poly = {}
                _mul(a, a, sq)
                for x, c in a.items():
                    sq[2 * x] += c
                for x, c in sq.items():
                    out[x + e] = out.get(x + e, 0) + c // 2
        return out

    def pairs(self, cls: int) -> list[tuple[int, int]]:
        """The degree pairs of a class, with multiplicity, in type order."""
        out: list[tuple[int, int]] = []
        mask = (1 << self.width) - 1
        while cls:
            i = ((cls & -cls).bit_length() - 1) // self.width
            c = (cls >> (i * self.width)) & mask
            out += [self.types[i]] * c
            cls -= c << (i * self.width)
        return out

    # --- listing the trees of a class ---------------------------------

    def _children(
        self, cands: list[tuple[int, int, int]], d_parent: int, k: int, t: int, rest: int,
        start: int = 0,
    ) -> Iterator[list[int]]:
        """Nondecreasing index lists into ``cands`` (planted classes
        (s, d, cls), sorted by s descending) of k children of total size t
        whose classes plus edges to the parent add up to ``rest``."""
        if k == 0:
            if t == 0 and rest == 0:
                yield []
            return
        guard = self._guard
        for i in range(start, len(cands)):
            s, d, cls = cands[i]
            if s * k < t:
                break
            e = self._edge[d_parent][d]
            if s + k - 1 > t or not e:
                continue
            x = cls + e
            if ((rest | guard) - x) & guard != guard:
                continue  # some edge type would go below zero
            for tail in self._children(cands, d_parent, k - 1, t - s, rest - x, i):
                yield [i, *tail]

    def _candidates(self, s_max: int) -> list[tuple[int, int, int]]:
        """The planted classes (s, d, cls) of at most s_max vertices, in
        descending order."""
        return sorted(((s, d, cls) for (d, s), poly in self.planted.items() if s <= s_max
                       for cls in poly), reverse=True)

    def _combine(self, cands, picks: list[int]) -> Iterator[list[tuple[int, ...]]]:
        """Every multiset of trees for a multiset of child classes."""
        groups = []
        for i in sorted(set(picks)):
            s, d, cls = cands[i]
            groups.append(combinations_with_replacement(
                self._planted_trees(d, s, cls), picks.count(i)))
        for choice in product(*groups):
            yield [tree for trees in choice for tree in trees]

    def _planted_trees(self, d: int, s: int, cls: int) -> list[tuple[int, ...]]:
        """Level sequences (root depth 0) of the planted trees of a class."""
        key = (d, s, cls)
        if key not in self._trees:
            cands = self._candidates(s - 1)
            self._trees[key] = [_join(children)
                                for picks in self._children(cands, d, d - 1, s - 1, cls)
                                for children in self._combine(cands, picks)]
        return self._trees[key]

    def expand(self, cls: int) -> list[tuple[int, ...]]:
        """The trees of a class as the stream's canonical level
        sequences, in stream order."""
        trees = []
        cands = self._candidates(self.branch)
        for unit in self.units:
            if unit == BICENTROID:
                trees += self._expand_bicentroidal(cls)
            else:
                for picks in self._children(cands, unit, unit, self.n - 1, cls):
                    trees += [_join(children) for children in self._combine(cands, picks)]
        return sorted((_stream_form(seq) for seq in trees), reverse=True)

    def _expand_bicentroidal(self, cls: int) -> list[tuple[int, ...]]:
        """Trees of the class made of two halves (d1, x1) <= (d2, x2)."""
        s = self.half
        out = []
        for (d1, size), poly in self.planted.items():
            for x1 in poly if size == s else ():
                for d2 in range(d1, s + 1):
                    e = self._edge[d1][d2]
                    x2 = cls - x1 - e  # a class only if no field went below 0
                    if not e or (d2, x2) < (d1, x1) or x2 not in self.planted.get((d2, s), ()):
                        continue
                    a, b = self._planted_trees(d1, s, x1), self._planted_trees(d2, s, x2)
                    pairs = (combinations_with_replacement(a, 2) if (d1, x1) == (d2, x2)
                             else product(a, b))
                    out += [t1 + tuple(v + 1 for v in t2) for t1, t2 in pairs]
        return out


def _join(children: list[tuple[int, ...]]) -> tuple[int, ...]:
    """A root over the given subtrees (each rooted at depth 0)."""
    return (0, *(v + 1 for child in children for v in child))


def _stream_form(seq: tuple[int, ...]) -> tuple[int, ...]:
    """The level sequence that the free-tree stream gives the tree of
    ``seq``: the canonical sequence rooted at a center (of two centers,
    the rooting that the stream's acceptance rule takes)."""
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
