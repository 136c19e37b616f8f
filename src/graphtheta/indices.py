"""Degree-based topological indices and the ABC-ABS gap.

Each index is a sum over the edges of a term in the degree pair
(d_u, d_v): Randic 1/sqrt(d_u*d_v), sum-connectivity 1/sqrt(d_u+d_v),
ABC sqrt((d_u+d_v-2)/(d_u*d_v)) and ABS sqrt((d_u+d_v-2)/(d_u+d_v)).
Each term is written once, in ``edge_terms``, a cached function of the
degree pair that ``pairs_report`` and the tree census's exact terms
(``treeclasses.Terms``) both read.  ``pairs_report`` scores a graph from
its edges' degree pairs: ``index_report`` takes them from a ``Graph``,
the ``index`` command from ``graph6.parse_degree_pairs``, with no
``Graph``, and ``verify`` from each statement's ``pairs`` (a graph's
own, or its line graph's read from the root), with no connectivity
search.

Whole-graph values are correctly rounded sums of the edge terms: the
surveys turn on the sign of gaps as small as ~1e-4, which must sit far
above accumulated rounding error.  ``pairs_report`` accumulates them
with ``math.fsum``.  The tree census writes each ABC - ABS term as an
integer over 2**S and carries a class's exact integer gap in the class
itself.  It signs most classes from that gap alone, and the rest with
``pairs_report`` of the class's degree pairs, certified here.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import cache
from itertools import starmap
from typing import TYPE_CHECKING, Iterable, NamedTuple

from .graphs import Graph, DisconnectedGraphError, GraphError, is_connected

if TYPE_CHECKING:
    from decimal import Decimal

DEFAULT_ZERO_TOL = 1e-9
RECHECK_DIGITS = 50  # decimal digits of gap_extended_precision


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


def certified_sign(
    gap: float, pairs: Iterable[tuple[int, int]], tol: float = DEFAULT_ZERO_TOL
) -> Sign:
    """The sign of ``gap``, the double-precision ABC - ABS gap of the
    degree pairs ``pairs``, at zero tolerance ``tol``.

    Outside the band |gap| <= tol the double decides.  Inside it, the gap
    is re-evaluated at RECHECK_DIGITS digits, and only a gap still within
    tol there is zero.  ``pairs`` is read only in that case.
    """
    sign = sign_of_gap(gap, tol)
    if sign is Sign.ZERO_WITHIN_TOL:
        hp = gap_extended_precision(pairs)
        if abs(hp) > tol:
            sign = Sign.POSITIVE if hp > 0 else Sign.NEGATIVE
    return sign


def gap_extended_precision(pairs: Iterable[tuple[int, int]]) -> Decimal:
    """Re-evaluate the ABC - ABS gap at RECHECK_DIGITS decimal digits, with
    correctly rounded square roots (``Decimal.sqrt``).

    Used to confirm that a near-zero double-precision gap is not a
    rounding artifact before it is reported as a true tie.
    """
    from decimal import Decimal, localcontext  # only this recheck needs decimal

    with localcontext() as ctx:  # localcontext(prec=...) needs Python 3.11
        ctx.prec = RECHECK_DIGITS
        terms = ((Decimal(a + b - 2), a * b, a + b) for a, b in pairs)
        return sum(((e / p).sqrt() - (e / s).sqrt() for e, p, s in terms), Decimal(0))
