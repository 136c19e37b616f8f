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
  n = 25), so an edge type's ABC - ABS term is an exact integer g over
  2**S, and ``Terms`` holds each type's g.  Below the type fields a
  class carries one more field: the sum of g + 2**S over its edges.
  Each edge monomial holds its type's g + 2**S there, and the folds
  only add packed ints or scale them by an integer, so every packed
  int of e edges carries their exact gap G as that sum less e * 2**S
  (``Tables.gap``).  Both terms of an edge lie in [0, 1), so each
  summand lies in (0, 2**(S+1)), and a packed int counts fewer than
  2**(width-1) edges (at most n-1 in a tree, and the type fields' top
  bits stay clear): the field has S + width bits and never overflows.
  The summands are positive, so a subtraction that takes no type field
  below zero takes the sum below zero neither, and borrows nothing from
  the type fields.  The field sits at the bottom so that a packed int
  stays as long as its highest edge type makes it, plus the one field.
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
sign and drop them one fold at a time, or split the units between
processes.  ``Tables.sign(cls, tol)`` is the one class signer.  Outside
a narrow band around +-tol (``Terms.band``; proof below), a class's
certified sign is that of its exact gap G (``Tables.gap``), so most
classes are signed with one integer comparison.  Only inside the band
does ``sign`` decode the class's degree pairs, score them with
``indices.pairs_report`` as ``index`` scores a graph, and certify that
gap.  ``Tables.class_of`` gives the class of one streamed tree, so a
tree is signed by its class.  It splits the tree's level bytes at the
root's children and reads each branch's root degree and class from a
memo on the instance, keyed by the level bytes of the branch's
descendants (absolute depths, so a key also fixes the branch's depth)
and filled recursively on a miss.  Consecutive trees of the stream
share most of their branches: the witness pass of order 17 streams
2,779 trees and meets 2,099 branches.  ``Tables.expand(cls)`` lists the
trees of one class as the canonical level sequences that
``treegen.free_tree_sequences`` gives them, in stream order.  It roots
each tree at every centroid, one root degree at a time with branches of
at most n/2 vertices, so a tree with two centroids is made twice and
kept once by its stream form.  One lister, ``_rooted``, makes those
rootings and the planted trees they are built from, memoized by class;
the trees stay level sequences throughout, and no ``Graph`` is built.

The witness pass streams trees in order until its last negative one,
and ``Tables.positive_block`` lets it leave out a *block*, the stream
trees that share the root's first subtree T1, when a lower bound proves
none of them negative.  The bound reads two tables of exact minima,
integers over 2**S like the class gaps, that ``Terms`` fills as the
pass asks for them and keeps in its ``_least`` memo:

* ``least_child(p, s, h)``: the least sum of the ABC - ABS terms of a
  planted tree of s vertices and height at least h under a parent of
  degree p, the term of its edge to the parent included, least over
  its root degree;
* ``_least_children(p, j, t, h)``: the least sum over j children of a
  vertex of degree p, t vertices in all, one of them of height at
  least h (any heights if h < 0).

Children add their sums independently, so each minimum is one over
sizes and degrees of smaller minima; a height of at least h asks only
that one child reach h - 1.  An edge's term is its type's g, so every
minimum is exact and needs no planted table.

The bound.  A stream tree is rooted at a center c.  Let T1 have s1
vertices, root degree d1 (its edge to c counted) and height h1.  The
rest of the tree, c with its other subtrees, is a planted tree R of
n - s1 vertices under T1's root, whose root degree is that of c.  The
stream takes a rooting only if ``treegen._accepts`` it, which needs the
rest at least as high as T1, so R's height is at least h1.  The tree's
exact sum is inner(T1) + term(deg c, d1) + inner(R), so at least
``block_bound`` = inner(T1) + least_child(d1, n - s1, h1) for every
tree of the block.  A bound above ``band(0)`` proves the block
positive at any tol (the band, below).

The band.  Let a class of a tree of order n have the exact ABC and ABS
sums A and B over 2**S, so G = A - B.  Inside the band, ``sign`` takes
the gap of ``pairs_report``, which rounds three times: two correctly
rounded ``math.fsum``, whose exact values are A / 2**S and B / 2**S,
and their difference.  Each term is below 1, so A / 2**S and B / 2**S
lie in [0, n - 1), below 2**k for k = (n - 1).bit_length(); their
doubles lie in [0, 2**k], and so does the magnitude of the difference,
which is exact if it is 2**k.  A value below 2**k lies where doubles
are at most 2**(k - 53) apart, so each rounding is off by at most
2**(k - 54), and the double gap d differs from G / 2**S by at most
3 * 2**(k - 54):
in units of 2**-S, by at most the slack 3 * 2**(S + k - 54), an
integer since S >= 53 from n = 3 (below, every term is an exact 0).
So if |G| - slack > tol * 2**S, then |d| * 2**S > tol * 2**S, that is
|d| > tol, strictly, with d on G's side of zero.  ``certified_sign``
then returns d's sign from the double alone: the 50-digit recheck runs
only for |d| <= tol, which cannot occur here, so no case is left where
the double lands on +-tol.  tol * 2**S is an exact double, 2**S being a
power of two (or inf, and then every class is in the band), and
|G| - slack > tol * 2**S holds for the integer |G| - slack exactly when
|G| > slack + floor(tol * 2**S): ``band`` returns that integer.  With
tol = 0 the same argument guards the witness pass: G > ``band(0)``, the
slack, gives a double gap above 0, and a real gap above the positive
G / 2**S - 3(n - 1) * 2**-54, since each of the 2(n - 1) terms is within
1.5 * 2**-54 of its real value and 3 * 2**k > 3(n - 1), as 2**k > n - 1.
A term takes two roundings, the quotient's and the square root's, so it
is not within half an ulp: ABC(4, 57) is off by 1.445 * 2**-54, the most
of any term with a + b <= 62, the graph6 order bound.  So
neither the double gap nor the 50-digit recheck can fall below -tol.
"""

from __future__ import annotations

from functools import wraps
from itertools import combinations_with_replacement, product
from math import floor, inf
from typing import Iterator

from .indices import Sign, certified_sign, edge_terms, pairs_report
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


def _memo(method):
    """Keep a method's results in its instance's ``_least`` memo."""
    @wraps(method)
    def cached(self, *args):
        key = (method.__name__, *args)
        got = self._least.get(key)
        if got is None:
            got = self._least[key] = method(self, *args)
        return got

    return cached


class Terms:
    """The exact ABC - ABS edge terms of the trees of order n, each an
    integer over ``unit`` = 2**S, with the band of ``Tables.sign`` and
    the min-gap tables; no planted table is built."""

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError(f"tree order must be >= 1, got {n}")
        self.n = n
        # in a tree, the two ends of an edge have degrees summing to <= n
        self.types = [(a, b) for a in range(1, n) for b in range(a, n - a + 1)]
        # every ABC and ABS term is a double M / 2**S: S from their ratios
        ratios = [[t.as_integer_ratio() for t in edge_terms(a, b)[2:]] for a, b in self.types]
        self.unit = max((den for r in ratios for _, den in r), default=1)  # 2**S
        # each type's exact ABC - ABS term over unit
        self.gaps = [abc * (self.unit // p) - abs_ * (self.unit // q)
                     for (abc, p), (abs_, q) in ratios]
        # the ABC - ABS term over unit of one edge between degrees a and b
        self._gap = self.per_edge(dict(zip(self.types, self.gaps)))
        # three roundings in sign, each at most half an ulp below 2**k: see
        # the module docstring
        self.slack = 3 * self.unit << (n - 1).bit_length() >> 54
        self._least: dict[tuple, int | float] = {}  # see _memo

    def per_edge(self, of_type: dict[tuple[int, int], int]) -> list[list[int]]:
        """A table whose [a][b] is ``of_type`` of the type of an edge
        between degrees a and b, or 0 if no tree of order n has one."""
        n = self.n
        return [[of_type[min(a, b), max(a, b)] if a + b <= n and a and b else 0
                 for b in range(n + 1)] for a in range(n + 1)]

    def band(self, tol: float) -> int | float:
        """The band of a zero tolerance tol >= 0: the largest exact
        |gap|, over ``unit``, of a tree's class whose double gap in
        ``Tables.sign`` may lie within tol of zero.  A class with a
        larger |gap| has a double gap beyond tol or -tol, on its exact
        gap's side (the module docstring's proof, with |gap| - slack >
        tol * 2**S taken in integers).  inf if tol * 2**S is not
        finite."""
        edge = tol * self.unit  # exact: unit is a power of two
        return self.slack + floor(edge) if edge < inf else inf

    @_memo
    def least_child(self, p: int, s: int, h: int) -> int | float:
        """The least sum, over ``unit``, of the ABC - ABS terms of a
        planted tree of s vertices and height at least h under a parent
        of degree p: the terms of its s - 1 inner edges and of its edge
        to the parent, least over its root degree d; inf if there is no
        such tree.  The degrees of every edge must add up to at most n."""
        gap = self._gap[p]
        # the root's d - 1 children: one of height at least h - 1
        return min(gap[d] + self._least_children(d, d - 1, s - 1, h - 1)
                   for d in range(1, s + 1))

    @_memo
    def _least_children(self, p: int, j: int, t: int, h: int) -> int | float:
        """The least sum over j planted children, t vertices in all, of a
        vertex of degree p, one of them of height at least h (any heights
        if h < 0): ``least_child`` of each, added up."""
        if j == 0:
            return 0 if t == 0 and h < 0 else inf
        first = max(h, 0)  # the first child meets the height; the other j - 1 may be any
        return min((self.least_child(p, c, first) + self._least_children(p, j - 1, t - c, -1)
                    for c in range(1, t - j + 2)), default=inf)


class Tables:
    """The planted tables of order n, from which the classes of every
    fold unit are counted and any class's trees are listed."""

    def __init__(self, n: int) -> None:
        self.terms = terms = Terms(n)
        self.n = n
        self.width = max(5, n.bit_length() + 1)
        # below the type fields, the sum of gap + unit over the edges, each
        # summand below 2 * unit: S + width bits for as many edges as a type
        # field can count
        self._types_at = terms.unit.bit_length() - 1 + self.width
        self._gap_mask = (1 << self._types_at) - 1
        shift = {ab: self._types_at + i * self.width for i, ab in enumerate(terms.types)}
        monomial = {ab: 1 << shift[ab] | g + terms.unit for ab, g in zip(terms.types, terms.gaps)}
        # the packed monomial of one edge between degrees a and b, or 0
        self._edge = terms.per_edge(monomial)
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
        self._cands: dict[tuple[int, int], list[tuple[int, int, int]]] = {}

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
                e = self._edge[d1][d2]  # never 0: a half's root degree is <= n/2
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
            yield from [self.terms.types[i]] * c
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

    def gap(self, cls: int, edges: int | None = None) -> int:
        """The exact ABC - ABS sum, over ``Terms.unit``, of the class of a
        tree of order n, or of a packed int of ``edges`` edges."""
        if edges is None:
            edges = self.n - 1
        return (cls & self._gap_mask) - edges * self.terms.unit

    def block_bound(self, seq: tuple[int, ...]) -> int | float:
        """A lower bound, over ``Terms.unit``, on the exact ABC - ABS sum
        of every stream tree whose root's first subtree is that of ``seq``:
        the sum inside that subtree plus ``Terms.least_child`` of the rest of
        the tree, planted under the subtree's root, at the height the
        stream's center rule asks of it."""
        desc = bytes(seq)[1:]
        first = desc[1:].split(desc[:1], 1)[0]  # the first child's descendants
        got = self._branches.get(first)
        if got is None:
            got = self._branches[first] = self._below(first, 1)
        d1, cls = got
        edges = len(first)  # one to each descendant's parent
        h1 = max(first, default=1) - 1  # the first subtree's height
        return self.gap(cls, edges) + self.terms.least_child(d1, self.n - 1 - edges, h1)

    def positive_block(self, seq: tuple[int, ...]) -> bool:
        """True if ``block_bound`` proves that no tree of the block of
        ``seq`` is signed negative, at any tol: if it is above
        ``Terms.band(0)``, the slack."""
        return self.block_bound(seq) > self.terms.slack

    def drop_stream_memos(self) -> None:
        """Free the memos that ``class_of`` and ``positive_block`` fill as
        the tree stream is read, its branches and the min-gap tables of
        ``terms``, so they last no longer than the witness pass."""
        self._branches.clear()
        self.terms._least.clear()

    def sign(self, cls: int, tol: float) -> Sign:
        """The certified sign of a class's gap at ``tol``: that of its
        exact gap outside the band of tol, and inside it that of the gap
        ``pairs_report`` makes from its decoded degree pairs, as ``index``
        signs a graph."""
        gap = self.gap(cls)
        if abs(gap) > self.terms.band(tol):
            return Sign.POSITIVE if gap > 0 else Sign.NEGATIVE
        pairs = list(self.pairs(cls))
        return certified_sign(pairs_report(pairs).gap, pairs, tol)

    # --- listing the trees of a class ---------------------------------

    def _children(
        self, cands: list[tuple[int, int, int]], d_parent: int,
        k: int, t: int, rest: int, start: int = 0,
    ) -> Iterator[list[int]]:
        """Nondecreasing index lists into ``cands`` (planted classes
        (s, d, cls) whose root has an edge to a parent of degree d_parent,
        sorted by s descending) of k children of total size t whose
        classes plus edges to the parent add up to ``rest``.  A candidate
        too large to leave each of the other k-1 children a vertex is
        skipped."""
        if k == 0:
            if t == 0 and rest == 0:
                yield []
            return
        guard = self._guard
        edge = self._edge[d_parent]
        for i in range(start, len(cands)):
            s, d, cls = cands[i]
            if s * k < t:
                break
            if s > t - k + 1:
                continue
            x = cls + edge[d]
            if ((rest | guard) - x) & guard != guard:
                continue  # some edge type would go below zero
            for tail in self._children(cands, d_parent, k - 1, t - s, rest - x, i):
                yield [i, *tail]

    def _candidates(self, s_max: int, d_parent: int) -> list[tuple[int, int, int]]:
        """The planted classes (s, d, cls) of at most s_max vertices whose
        root has an edge to a parent of degree d_parent, in descending
        order."""
        key = (s_max, d_parent)
        if key not in self._cands:
            self._cands[key] = sorted(
                ((s, d, cls) for (d, s), poly in self.planted.items()
                 if s <= s_max and self._edge[d_parent][d] for cls in poly),
                reverse=True)
        return self._cands[key]

    def _rooted(self, d: int, k: int, t: int, s_max: int, cls: int) -> Iterator[tuple[int, ...]]:
        """Level sequences (root depth 0) of the trees whose root has
        degree d and k children of t vertices in all, each of at most
        s_max vertices, and whose edges below the root add up to ``cls``:
        every multiset of child trees for every multiset of child classes."""
        cands = self._candidates(s_max, d)
        for picks in self._children(cands, d, k, t, cls):
            groups = []
            for i in sorted(set(picks)):
                s, dc, c = cands[i]
                groups.append(combinations_with_replacement(
                    self._planted_trees(dc, s, c), picks.count(i)))
            for choice in product(*groups):
                yield (0, *(v + 1 for trees in choice for tree in trees for v in tree))

    def _planted_trees(self, d: int, s: int, cls: int) -> list[tuple[int, ...]]:
        """Level sequences (root depth 0) of the planted trees of a class."""
        key = (d, s, cls)
        if key not in self._trees:
            self._trees[key] = list(self._rooted(d, d - 1, s - 1, s - 1, cls))
        return self._trees[key]

    def expand(self, cls: int) -> list[tuple[int, ...]]:
        """The trees of a class as the stream's canonical level
        sequences, in stream order.

        Each tree is listed from every centroid: a root of any degree
        whose branches have at most n/2 vertices.  Both rootings of a
        tree with two centroids have one stream form."""
        trees = {stream_form(seq) for d in range(self.n)
                 for seq in self._rooted(d, d, self.n - 1, self.half, cls)}
        return sorted(trees, reverse=True)

