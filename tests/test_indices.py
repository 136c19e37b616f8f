import math
import random

import pytest

from graphtheta.graphs import DisconnectedGraphError, GraphError, from_edge_list
from graphtheta.indices import (
    BRACKET_BITS,
    Sign,
    certified_sign,
    edge_terms,
    index_report,
    pairs_report,
    sign_of_gap,
    term_bracket,
)
from graphtheta.treeclasses import Tables

from conftest import cycle_graph, path_graph, real_gap, star_graph

# gap of every path P_n, n >= 3: sqrt(2) - 2/sqrt(3), independent of n
PATH_GAP = 0.2595130239938436


def abc_edge(a, b):
    """The ABC term of one edge, as the census's class scorer sums it."""
    return edge_terms(a, b)[2]


def abs_edge(a, b):
    """The ABS term of one edge, as the census's class scorer sums it."""
    return edge_terms(a, b)[3]


def class_sums(pairs, n=6):
    """The (abc, abs) sums of a multiset of degree pairs, packed as a
    class of order n (every pair must have a + b <= n) and scored from
    the pairs the class decodes to, as the census scores a class."""
    tables = Tables(n)
    r = pairs_report(tables.pairs(sum(tables._edge[a][b] for a, b in pairs)))
    return r.abc, r.abs


def margin(x, y):
    """ABS - ABC of one edge with end degrees x and y."""
    return abs_edge(x, y) - abc_edge(x, y)


class TestEdgeFunctions:
    def test_abc_values(self):
        assert abc_edge(1, 1) == 0.0
        assert abc_edge(2, 2) == pytest.approx(1 / math.sqrt(2), abs=1e-15)
        assert abc_edge(1, 2) == pytest.approx(1 / math.sqrt(2), abs=1e-15)

    def test_abs_values(self):
        assert abs_edge(1, 1) == 0.0
        assert abs_edge(2, 2) == pytest.approx(1 / math.sqrt(2), abs=1e-15)
        assert abs_edge(1, 2) == pytest.approx(1 / math.sqrt(3), abs=1e-15)

    def test_randic_and_sc(self):
        # closed forms: K_2, C_n (every term 1/2), K_{1,4} (four (1,4) edges)
        r = index_report(from_edge_list(2, [(0, 1)]))
        assert r.randic == 1.0
        assert r.sum_connectivity == pytest.approx(1 / math.sqrt(2), abs=1e-15)
        for n in (3, 6, 9):
            r = index_report(cycle_graph(n))
            assert r.randic == pytest.approx(n / 2, abs=1e-12)
            assert r.sum_connectivity == pytest.approx(n / 2, abs=1e-12)
        r = index_report(star_graph(4))
        assert r.randic == pytest.approx(2.0, abs=1e-15)
        assert r.sum_connectivity == pytest.approx(4 / math.sqrt(5), abs=1e-15)

    def test_product_vs_sum_kernel(self):
        # min degree >= 2 forces d_u*d_v >= d_u+d_v, so abc <= abs,
        # equality only at (2,2); exhaustive for degrees <= 50
        for a in range(2, 51):
            for b in range(a, 51):
                assert a * b >= a + b
                if (a, b) == (2, 2):
                    assert abc_edge(a, b) == abs_edge(a, b)
                else:
                    assert abc_edge(a, b) < abs_edge(a, b)


class TestEdgeMargin:
    @pytest.mark.parametrize(
        "x,y,expected",
        [
            (1, 2, -0.129757),
            (2, 3, 0.0674899),
            (1, 3, -0.10939),
            (3, 3, 0.14983),
            (2, 5, 0.138047),
        ],
    )
    def test_reference_values(self, x, y, expected):
        assert margin(x, y) == pytest.approx(expected, abs=5e-6)

    def test_negative_iff_pendent(self):
        for y in range(2, 51):
            assert margin(1, y) < 0
        for x in range(2, 51):
            for y in range(max(x, 3), 51):
                assert margin(x, y) > 0 or (x, y) == (2, 2)
        assert margin(2, 2) == 0.0

    def test_strictly_increasing_each_argument(self):
        for x in range(1, 50):
            for y in range(max(x, 2), 50):
                assert margin(x, y + 1) > margin(x, y)
                if x + 1 <= y:
                    assert margin(x + 1, y) > margin(x, y)

    def test_pendent_plus_heavy_pair_positive(self):
        # margin(1,y) + margin(y-1,y) > 0 for y >= 4
        for y in range(4, 51):
            assert margin(1, y) + margin(y - 1, y) > 0


class TestIndexReport:
    def test_cycle_gap_zero(self):
        for n in (3, 5, 9):
            r = index_report(cycle_graph(n))
            assert r.abc == pytest.approx(n / math.sqrt(2), abs=1e-12)
            assert r.abs == r.abc
            assert r.gap == 0.0

    def test_path_gap_independent_of_order(self):
        for n in range(3, 12):
            r = index_report(path_graph(n))
            assert r.abc == pytest.approx((n - 1) / math.sqrt(2), abs=1e-12)
            assert r.gap == pytest.approx(PATH_GAP, abs=1e-12)

    def test_star_with_four_leaves(self):
        r = index_report(star_graph(4))
        assert r.abc == pytest.approx(2 * math.sqrt(3), abs=1e-12)
        assert r.abs == pytest.approx(4 * math.sqrt(3 / 5), abs=1e-12)

    def test_tiny_orders_zero(self):
        for g in (from_edge_list(1, []), from_edge_list(2, [(0, 1)])):
            r = index_report(g)
            assert r.abc == r.abs == 0.0

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            index_report(from_edge_list(4, [(0, 1), (2, 3)]))

    def test_component_additivity(self):
        # index sums over a disjoint union equal the sum over components
        g1, g2 = path_graph(6), star_graph(4)
        pairs = list(g1.edge_degree_pairs()) + list(g2.edge_degree_pairs())
        abc, abs_ = class_sums(pairs)
        a1, b1 = class_sums(g1.edge_degree_pairs())
        a2, b2 = class_sums(g2.edge_degree_pairs())
        assert abc == pytest.approx(a1 + a2, abs=1e-12)
        assert abs_ == pytest.approx(b1 + b2, abs=1e-12)

    def test_cycle_components_leave_gap_fixed(self):
        g = star_graph(5)
        base = index_report(g)
        for k in (3, 4, 7):
            pairs = list(g.edge_degree_pairs()) + [(2, 2)] * k
            abc, abs_ = class_sums(pairs)
            assert abc - abs_ == pytest.approx(base.gap, abs=1e-12)


class TestSignOfGap:
    def test_trichotomy(self):
        assert sign_of_gap(0.2595, 1e-9) is Sign.POSITIVE
        assert sign_of_gap(0.0, 1e-9) is Sign.ZERO_WITHIN_TOL
        assert sign_of_gap(-1e-12, 1e-9) is Sign.ZERO_WITHIN_TOL
        assert sign_of_gap(-1e-3, 1e-9) is Sign.NEGATIVE

    def test_rejects_bad_tolerance(self):
        for tol in (0.0, -1e-9, math.nan, math.inf):
            with pytest.raises(GraphError):
                sign_of_gap(0.1, tol)


def real_sign(mpmath, pairs, tol):
    """The sign of the gap of ``pairs`` at ``tol``, from mpmath at the
    working precision, which must tell |gap| from tol."""
    gap = real_gap(mpmath, pairs)
    assert gap == 0 or abs(abs(gap) - tol) > mpmath.mpf(10) ** -50, pairs
    if abs(gap) <= tol:
        return Sign.ZERO_WITHIN_TOL
    return Sign.POSITIVE if gap > 0 else Sign.NEGATIVE


def brackets_straddle(pairs, tol):
    """True if the brackets at BRACKET_BITS leave the sign at tol open,
    so that ``certified_sign`` builds the Q vector."""
    lo, edge = sum(term_bracket(a, b) for a, b in pairs), tol * 2**BRACKET_BITS
    hi = lo + 2 * len(pairs)
    return not (lo > edge or hi < -edge or -edge <= lo and hi <= edge)


class TestCertifiedSign:
    def test_rejects_bad_tolerance(self):
        for tol in (0.0, -1e-9, math.nan, math.inf):
            with pytest.raises(GraphError):
                certified_sign([(1, 2)], tol)

    @pytest.mark.parametrize("k", [1, 2, 7, 40])
    def test_22_edges_are_exactly_zero_at_the_least_tol(self, k):
        # each (2, 2) bracket is -1, so the brackets straddle +-5e-324
        # and the rational branch decides: Q_2 is 0, and so is Q_1
        for pairs in ([(2, 2)] * k, [(2, 2)] * k + [(1, 1)]):
            assert brackets_straddle(pairs, 5e-324)
            assert certified_sign(pairs, 5e-324) is Sign.ZERO_WITHIN_TOL
        assert certified_sign([], 5e-324) is Sign.ZERO_WITHIN_TOL

    def test_gap_within_the_brackets_of_tol_is_signed_by_its_real_value(self):
        # a path's gap, sqrt(2) - 2/sqrt(3), and a star's, -3 * (ABS - ABC)
        # of (1, 3), subdivided: the doubles next to |gap|, as tol, lie
        # within 2m * 2**-54 of it, so the refinement loop decides some
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            for base in ([(1, 2), (1, 2)], [(1, 3)] * 3):
                for k in (0, 6, 37):
                    pairs = base + [(2, 2)] * k
                    nearest = float(abs(real_gap(mpmath, pairs)))
                    tols = (math.nextafter(nearest, 0), nearest, math.nextafter(nearest, 1))
                    assert any(brackets_straddle(pairs, tol) for tol in tols)
                    for tol in tols:
                        assert certified_sign(pairs, tol) is real_sign(mpmath, pairs, tol)


def test_certified_sign_matches_mpmath_at_60_digits():
    # seeded random degree-pair lists against an independent oracle, at
    # the default tol and at the doubles nearest each |gap|, where the
    # brackets straddle tol
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(20240817)
    straddled = 0
    with mpmath.workdps(60):
        for _ in range(500):
            pairs = [(rng.randint(1, 60), rng.randint(1, 60))
                     for _ in range(rng.randint(1, 30))]
            nearest = float(abs(real_gap(mpmath, pairs)))
            tols = [1e-9] + ([nearest, math.nextafter(nearest, 0)] if nearest else [])
            for tol in tols:
                straddled += brackets_straddle(pairs, tol)
                assert certified_sign(pairs, tol) is real_sign(mpmath, pairs, tol), (pairs, tol)
    # the loop runs on about half of them: above ~2, a double ulp outgrows the brackets
    assert straddled >= 500
