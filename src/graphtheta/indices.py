"""Degree-based topological indices and the ABC-ABS gap.

Each index is a sum over the edges of a term in the degree pair
(d_u, d_v): Randic 1/sqrt(d_u*d_v), sum-connectivity 1/sqrt(d_u+d_v),
ABC sqrt((d_u+d_v-2)/(d_u*d_v)) and ABS sqrt((d_u+d_v-2)/(d_u+d_v)).
Each term is written once, in ``edge_terms``, a cached function of the
degree pair.  ``pairs_report`` scores a graph from its edges' degree
pairs: ``index_report`` takes them from a ``Graph``,
the ``index`` command from ``graph6.parse_degree_pairs``, with no
``Graph``, and ``verify`` from each statement's ``pairs`` (a graph's
own, or its line graph's read from the root), with no connectivity
search.

Whole-graph values are correctly rounded sums of the edge terms, which
``pairs_report`` accumulates with ``math.fsum``.

No double decides a sign: ``certified_sign`` decides it exactly, in
integers.  ``term_bracket`` brackets an edge's ABC - ABS term by
g = floor(2**k * ABC) - ceil(2**k * ABS), from ``math.isqrt``: 2**k
times the real term lies in [g, g + 2).  ``treeclasses.Terms`` uses
these brackets at k = BRACKET_BITS.  A gap whose brackets straddle
+-tol is written as sum_s Q_s * sqrt(s) over square-free s, with
rational Q_s.  Square roots of distinct square-free integers are
linearly independent over the rationals (Besicovitch 1940), so the gap
is rational, and compared with tol exactly, iff every Q_s with s > 1 is
0.  Otherwise it is irrational, never equal to the dyadic tol, and
brackets at doubled bits soon clear +-tol.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import cache
from itertools import starmap
from typing import Iterable, NamedTuple, Sequence

from .graphs import Graph, DisconnectedGraphError, GraphError, is_connected

DEFAULT_ZERO_TOL = 1e-9
BRACKET_BITS = 54  # the first brackets, and the census's, are over 2**BRACKET_BITS


class IndexReport(NamedTuple):
    """All four index values of one graph plus the gap ABC - ABS."""

    randic: float
    sum_connectivity: float
    abc: float
    abs: float
    gap: float


class Sign(Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    ZERO_WITHIN_TOL = "zero"


@cache
def edge_terms(a: int, b: int) -> tuple[float, float, float, float]:
    """The R, SC, ABC and ABS terms of one edge between degrees a and b."""
    return (1.0 / math.sqrt(a * b), 1.0 / math.sqrt(a + b),
            math.sqrt((a + b - 2) / (a * b)), math.sqrt((a + b - 2) / (a + b)))


def index_report(g: Graph) -> IndexReport:
    """Evaluate R, SC, ABC, ABS and the gap on a connected graph."""
    if not is_connected(g):
        raise DisconnectedGraphError("graph is not connected")
    return pairs_report(g.edge_degree_pairs())


def pairs_report(pairs: Iterable[tuple[int, int]]) -> IndexReport:
    """R, SC, ABC, ABS and the gap of a graph, from the degree pair of
    each of its edges."""
    terms = list(starmap(edge_terms, pairs))
    randic, sc, abc, abs_ = map(math.fsum, zip(*terms)) if terms else (0.0,) * 4
    return IndexReport(randic=randic, sum_connectivity=sc, abc=abc, abs=abs_, gap=abc - abs_)


def _check_tol(tol: float) -> None:
    """Raise GraphError unless the zero tolerance is finite and above 0."""
    if not 0 < tol < math.inf:  # also false for NaN
        raise GraphError(f"tolerance must be finite and positive, got {tol}")


def sign_of_gap(gap: float, tol: float = DEFAULT_ZERO_TOL) -> Sign:
    _check_tol(tol)
    if abs(gap) <= tol:
        return Sign.ZERO_WITHIN_TOL
    return Sign.POSITIVE if gap > 0 else Sign.NEGATIVE


@cache
def term_bracket(a: int, b: int, bits: int = BRACKET_BITS) -> int:
    """floor(2**bits * ABC) - ceil(2**bits * ABS) of one edge between
    degrees a and b: 2**bits times its real ABC - ABS term lies in
    [this, this + 2).  floor(sqrt(x)) is isqrt(floor(x)), and
    ceil(sqrt(x)) is the least r with r * r >= ceil(x)."""
    e = a + b - 2 << 2 * bits
    x = -(-e // (a + b))  # ceil(2**(2 * bits) * ABS**2)
    r = math.isqrt(x)
    return math.isqrt(e // (a * b)) - r - (r * r < x)


@cache
def _surds(a: int, b: int) -> list[tuple[int, int, int]]:
    """ABC and -ABS of one edge between degrees a and b, sqrt(e * ab) / ab
    and -sqrt(e * (a + b)) / (a + b) with e = a + b - 2, as (s, c, d):
    c * sqrt(s) / d with s square-free (0 if e is 0)."""
    out = []
    for sign, d in ((1, a * b), (-1, a + b)):
        x = (a + b - 2) * d
        f = next(f for f in range(math.isqrt(x) or 1, 0, -1) if x % (f * f) == 0)  # the largest
        out.append((x // (f * f), sign * f, d))
    return out


def _rational_gap(pairs: Iterable[tuple[int, int]]) -> tuple[int, int] | None:
    """The gap of the degree pairs ``pairs`` as (numerator, denominator)
    if every Q_s with s > 1 is 0, else None."""
    q: dict[int, tuple[int, int]] = {}  # s -> Q_s as (numerator, denominator)
    for a, b in pairs:
        for s, c, d in _surds(a, b):
            num, den = q.get(s, (0, 1))
            q[s] = num * d + c * den, den * d
    return None if any(num for s, (num, _) in q.items() if s > 1) else q.get(1, (0, 1))


def certified_sign(pairs: Sequence[tuple[int, int]], tol: float = DEFAULT_ZERO_TOL) -> Sign:
    """The sign at zero tolerance ``tol`` of the real ABC - ABS gap of the
    degree pairs ``pairs``, decided exactly (the module docstring).  The
    first brackets are compared with tol * 2**BRACKET_BITS, an exact
    double (or inf), as an int compares with a float exactly."""
    _check_tol(tol)
    bits = BRACKET_BITS
    lo, width, edge = sum(starmap(term_bracket, pairs)), 2 * len(pairs), tol * 2.0**bits
    while True:
        # a scale times the real gap lies in [lo, lo + width], and edge is
        # tol times that scale, or its floor
        if lo > edge:
            return Sign.POSITIVE
        if lo + width < -edge:
            return Sign.NEGATIVE
        if -edge <= lo and lo + width <= edge:
            return Sign.ZERO_WITHIN_TOL
        num, den = tol.as_integer_ratio()
        rational = _rational_gap(pairs) if bits == BRACKET_BITS else None
        if rational:  # the scale is its denominator
            (lo, scale), width = rational, 0
            edge = num * scale // den
        else:  # irrational: the brackets end up clear of +-tol
            bits *= 2
            lo = sum(term_bracket(a, b, bits) for a, b in pairs)
            edge = (num << bits) // den
