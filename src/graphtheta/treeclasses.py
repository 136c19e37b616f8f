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
* Every ABC and ABS edge term is a double M / 2**S (S = 53-54 up to
  n = 25), so below the type fields a class carries two more fields:
  the sum of M over its edges' ABC terms, then over their ABS terms.
  Each edge monomial holds its type's M values there, and the folds
  only add packed ints or scale them by an integer, so every packed
  int carries the exact sums of the edges it counts.  A sum field has
  S + width - 1 bits and never overflows: a packed int counts fewer
  than 2**(width-1) edges (at most n-1 in a tree, and the type fields'
  top bits stay clear), and every term is below 1, so M < 2**S.  The
  sums are linear in the type counts, so a subtraction that takes no
  type field below zero takes neither sum below zero, and borrows
  nothing from the type fields.  The sums sit at the bottom so that a
  packed int stays as long as its highest edge type makes it, plus
  the two sum fields.
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
processes.  ``Tables.score(cls, tol)`` is the one class scorer: the ABC
and ABS sums of a class, each one correctly rounded division of its
carried sum by 2**S, and their certified sign.  ``Tables.class_of``
gives the class of one streamed tree, so a tree is signed by its
class.  It splits the tree's level bytes at the root's children and
reads each branch's root degree and class from a memo on the instance,
keyed by the level bytes of the branch's descendants (absolute depths,
so a key also fixes the branch's depth) and filled recursively on a
miss.  Consecutive trees of the stream share most of their branches:
the witness pass of order 17 streams 11,947 trees and meets 2,099
branches.  ``Tables.expand(cls)`` lists the trees of one class as the
canonical level sequences that ``treegen.free_tree_sequences`` gives
them, in stream order.  It roots each tree at every centroid, one root
degree at a time with branches of at most n/2 vertices, so a tree with
two centroids is made twice and kept once by its stream form.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import combinations_with_replacement, product
from typing import Iterator

from .indices import Sign, certified_sign, edge_terms
from .treegen import stream_form

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
        # every ABC and ABS term is a double M / 2**S: S from their ratios
        ratios = [[t.as_integer_ratio() for t in edge_terms(a, b)[2:]] for a, b in self.types]
        self._unit = max((den for r in ratios for _, den in r), default=1)  # 2**S
        # below the type fields, the sums of M over the edges: ABC, then ABS,
        # each wide enough for as many edges as a type field can count
        self._abs_at = self._unit.bit_length() - 1 + self.width - 1
        self._sum_mask = (1 << self._abs_at) - 1
        self._types_at = 2 * self._abs_at
        shift = {ab: self._types_at + i * self.width for i, ab in enumerate(self.types)}
        monomial = {ab: 1 << shift[ab] | abc * (self._unit // p)
                    | abs_ * (self._unit // q) << self._abs_at
                    for ab, ((abc, p), (abs_, q)) in zip(self.types, ratios)}
        # the packed monomial of one edge between degrees a and b, or 0
        self._edge = [[monomial[min(a, b), max(a, b)] if a + b <= n and a and b else 0
                       for b in range(n + 1)] for a in range(n + 1)]
        self._guard = sum(1 << (s + self.width - 1) for s in shift.values())
        self._branches: dict[bytes, tuple[int, int]] = {}  # see _below
        self.half = n // 2  # the largest planted size needed
        self.branch = (n - 1) // 2  # the largest child of a centroid
        self.units = [d for d in range(n) if d * self.branch >= n - 1]
        if n % 2 == 0:
            self.units.append(BICENTROID)
        self.planted: dict[tuple[int, int], Poly] = {}
        self._planted_tables()
        self._trees: dict[tuple[int, int, int], list[tuple[int, ...]]] = {}
        self._cands: dict[tuple[int, int], tuple[list[tuple[int, int, int]], list[int]]] = {}

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

    def pairs(self, cls: int) -> Iterator[tuple[int, int]]:
        """The degree pairs of a class, with multiplicity, in type order,
        decoded as they are read."""
        mask = (1 << self.width) - 1
        cls >>= self._types_at  # the type fields
        while cls:
            i = ((cls & -cls).bit_length() - 1) // self.width
            c = (cls >> (i * self.width)) & mask
            yield from [self.types[i]] * c
            cls -= c << (i * self.width)

    def class_of(self, seq: tuple[int, ...]) -> int:
        """The class of the tree of a level sequence of order n."""
        return self._below(bytes(seq)[1:], 0)[1]

    def _below(self, desc: bytes, up: int) -> tuple[int, int]:
        """The degree of a vertex with ``up`` (0 or 1) edges to a parent
        and the level bytes ``desc`` of its descendants, and the class of
        the edges below it.  A branch's result is kept in ``_branches``
        under its ``desc``, which also fixes its depth."""
        if not desc:
            return up, 0
        kids = desc[1:].split(desc[:1])  # the descendants of each child
        deg = len(kids) + up
        edge = self._edge[deg]
        branches = self._branches
        cls = 0
        for kid in kids:
            got = branches.get(kid)
            if got is None:
                got = branches[kid] = self._below(kid, 1)
            d, below = got
            cls += below + edge[d]
        return deg, cls

    def score(self, cls: int, tol: float) -> tuple[float, float, Sign]:
        """The ABC and ABS sums of a class and the certified sign of
        their gap at ``tol``.

        The class carries each sum exactly, as an integer over
        ``_unit``; one correctly rounded division turns it into the
        double that ``math.fsum`` gives over the class's edge terms, in
        any edge order.  The degree pairs are decoded only for the
        in-band recheck of ``certified_sign``."""
        abc = (cls & self._sum_mask) / self._unit
        abs_ = (cls >> self._abs_at & self._sum_mask) / self._unit
        return abc, abs_, certified_sign(abc - abs_, self.pairs(cls), tol)

    # --- listing the trees of a class ---------------------------------

    def _children(
        self, cands: list[tuple[int, int, int]], sizes: list[int], d_parent: int,
        k: int, t: int, rest: int, start: int = 0,
    ) -> Iterator[list[int]]:
        """Nondecreasing index lists into ``cands`` (planted classes
        (s, d, cls) whose root has an edge to a parent of degree d_parent,
        sorted by s descending; ``sizes`` holds each -s) of k children of
        total size t whose classes plus edges to the parent add up to
        ``rest``."""
        if k == 0:
            if t == 0 and rest == 0:
                yield []
            return
        guard = self._guard
        edge = self._edge[d_parent]
        # the first candidate that leaves each of the other k-1 children a vertex
        for i in range(max(start, bisect_left(sizes, k - 1 - t)), len(cands)):
            s, d, cls = cands[i]
            if s * k < t:
                break
            x = cls + edge[d]
            if ((rest | guard) - x) & guard != guard:
                continue  # some edge type would go below zero
            for tail in self._children(cands, sizes, d_parent, k - 1, t - s, rest - x, i):
                yield [i, *tail]

    def _candidates(
        self, s_max: int, d_parent: int
    ) -> tuple[list[tuple[int, int, int]], list[int]]:
        """The planted classes (s, d, cls) of at most s_max vertices whose
        root has an edge to a parent of degree d_parent, in descending
        order, and the list of their -s (ascending, for ``bisect``)."""
        key = (s_max, d_parent)
        if key not in self._cands:
            cands = sorted(((s, d, cls) for (d, s), poly in self.planted.items()
                            if s <= s_max and self._edge[d_parent][d] for cls in poly),
                           reverse=True)
            self._cands[key] = cands, [-s for s, _, _ in cands]
        return self._cands[key]

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
            cands, sizes = self._candidates(s - 1, d)
            self._trees[key] = [_join(children)
                                for picks in self._children(cands, sizes, d, d - 1, s - 1, cls)
                                for children in self._combine(cands, picks)]
        return self._trees[key]

    def expand(self, cls: int) -> list[tuple[int, ...]]:
        """The trees of a class as the stream's canonical level
        sequences, in stream order.

        Each tree is listed from every centroid: a root of any degree
        whose branches have at most n/2 vertices.  Both rootings of a
        tree with two centroids have one stream form."""
        trees = set()
        for d in range(self.n):
            cands, sizes = self._candidates(self.half, d)
            trees.update(stream_form(_join(children))
                         for picks in self._children(cands, sizes, d, d, self.n - 1, cls)
                         for children in self._combine(cands, picks))
        return sorted(trees, reverse=True)


def _join(children: list[tuple[int, ...]]) -> tuple[int, ...]:
    """A root over the given subtrees (each rooted at depth 0)."""
    return (0, *(v + 1 for child in children for v in child))
