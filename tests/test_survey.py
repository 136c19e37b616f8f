import collections
import functools
import hashlib

import pytest

from graphtheta import indices, survey, treeclasses, treegen
from graphtheta.graph6 import parse_graph6, to_graph6
from graphtheta.graphs import classify_shape, Shape
from graphtheta.indices import (
    DEFAULT_ZERO_TOL,
    Sign,
    certified_sign,
    gap_extended_precision,
    index_report,
    pairs_report,
    sign_of_gap,
)
from graphtheta.smallgraphs import internal_universe

from conftest import (
    assert_no_child_left, complete_graph, cycle_graph, random_connected_graphs,
    sequence_to_graph,
)


class TestClassifyTrees:
    def test_counts_consistent(self):
        rec = survey.classify_trees(9)
        assert rec.total == 47
        assert rec.positive + rec.negative + rec.zero == rec.total

    def test_small_orders_all_positive(self):
        for n in (3, 7, 10):
            rec = survey.classify_trees(n)
            assert rec.negative == 0 and rec.zero == 0

    def test_first_negative_order(self):
        assert survey.classify_trees(11).negative == 1
        assert survey.classify_trees(12).negative == 6

    def test_worker_count_does_not_change_result(self):
        assert survey.classify_trees(10, workers=3) == survey.classify_trees(10)

    def test_witness_cap(self):
        rec = survey.classify_trees(12, witness_cap=2)
        assert rec.negative == 6 and len(rec.negative_witnesses) == 2

    @pytest.mark.parametrize("census", [
        lambda n: survey.classify_trees(n), lambda n: survey.find_near_ties(n, 1)])
    def test_order_bounds(self, census, monkeypatch):
        monkeypatch.setattr(survey, "_census", None)  # checked before any census
        with pytest.raises(ValueError, match="^order 26 exceeds tree-order bound 25$"):
            census(26)
        with pytest.raises(ValueError, match="^order 63 exceeds short-form graph6 bound 62$"):
            census(63)

    @pytest.mark.parametrize("tol", [0.0, -1e-9, float("nan"), float("inf")])
    def test_rejects_bad_tolerance(self, tol, monkeypatch):
        # most classes are signed with no call to certified_sign, which
        # would reject it
        monkeypatch.setattr(survey, "_census", None)  # checked before any census
        with pytest.raises(ValueError, match="^tolerance must be finite and positive"):
            survey.classify_trees(12, tol=tol)

    def test_pool_has_no_more_processes_than_cpus(self, monkeypatch):
        jobs = []  # per census, the (parts, part) of each child it forks
        start_fold = survey._start_fold

        def counting_start_fold(args):
            jobs[-1].append(args[1:3])
            return start_fold(args)

        monkeypatch.setattr(survey, "_start_fold", counting_start_fold)
        monkeypatch.setattr(survey.os, "cpu_count", lambda: 4)

        def census(workers):
            jobs.append([])
            return survey.classify_trees(12, workers=workers)

        one = census(1)
        assert census(8) == one
        assert census(3) == one
        assert [len(run) for run in jobs] == [0, 4, 3]  # children forked
        assert jobs[1:] == [[(4, part) for part in range(4)],
                            [(3, part) for part in range(3)]]  # one part per child
        monkeypatch.setattr(survey.os, "cpu_count", lambda: 1)
        assert census(3) == one
        assert jobs[-1] == []  # one part runs in this process, with no child
        assert_no_child_left()

    def test_no_fork_folds_in_this_process(self, monkeypatch):
        one = survey.classify_trees(12)
        monkeypatch.setattr(survey.os, "cpu_count", lambda: 2)
        monkeypatch.delattr(survey.os, "fork")
        monkeypatch.setattr(survey, "_start_fold", None)  # never reached
        assert survey.classify_trees(12, workers=2) == one

    def test_failed_witness_pass_leaves_no_child(self, monkeypatch):
        forked = []
        start_fold = survey._start_fold

        def counting_start_fold(args):
            forked.append(args[2])
            return start_fold(args)

        def witness_fails(*args):
            raise RuntimeError("witness pass failed")

        monkeypatch.setattr(survey, "_start_fold", counting_start_fold)
        monkeypatch.setattr(survey, "_witnesses", witness_fails)
        monkeypatch.setattr(survey.os, "cpu_count", lambda: 2)
        with pytest.raises(RuntimeError, match="^witness pass failed$"):
            survey.classify_trees(16, workers=2)
        assert forked == [0, 1]  # both children were forked before the pass raised
        assert_no_child_left()


@functools.cache
def reference_census(n, tol=DEFAULT_ZERO_TOL):
    """The census of order n made tree by tree, as it was made before it
    counted degree-pair classes: every tree scored from its own degree
    pairs, an in-band gap rechecked at 50 digits, the minimum |gap| and
    the witnesses taken first in stream order."""
    signs = {sign: 0 for sign in Sign}
    best = None
    witnesses = []
    for seq in treegen.free_tree_sequences(n):
        g = sequence_to_graph(seq)
        gap = index_report(g).gap
        sign = sign_of_gap(gap, tol)
        if sign is Sign.ZERO_WITHIN_TOL:
            hp = gap_extended_precision(g.edge_degree_pairs())
            if abs(hp) > tol:
                sign = Sign.POSITIVE if hp > 0 else Sign.NEGATIVE
        signs[sign] += 1
        if sign is Sign.NEGATIVE and len(witnesses) < survey.DEFAULT_WITNESS_CAP:
            witnesses.append(to_graph6(sequence_to_graph(seq)))
        if best is None or abs(gap) < best[0]:
            best = (abs(gap), seq)
    return survey.ClassificationRecord(
        order=n,
        total=sum(signs.values()),
        positive=signs[Sign.POSITIVE],
        negative=signs[Sign.NEGATIVE],
        zero=signs[Sign.ZERO_WITHIN_TOL],
        tol=tol,
        min_abs_gap=best[0],
        min_abs_gap_graph6=to_graph6(sequence_to_graph(best[1])),
        negative_witnesses=tuple(witnesses),
        witness_cap=survey.DEFAULT_WITNESS_CAP,
    )


class TestClassCensusMatchesStream:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_orders_3_to_17(self, workers):
        for n in range(3, 18):
            assert survey.classify_trees(n, workers=workers) == reference_census(n)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_rechecked_band_at_order_16(self, workers):
        tol = TestRecheck.TOL_16
        assert survey.classify_trees(16, tol=tol, workers=workers) == reference_census(16, tol)

    @pytest.mark.parametrize("n, total, negative", [
        (18, 123867, 30849), (19, 317955, 103658), (20, 823065, 334931)])
    def test_orders_18_to_20_pinned(self, n, total, negative):
        # too many trees for the reference: totals from OEIS A000055
        rec = survey.classify_trees(n, witness_cap=0)
        assert (rec.total, rec.negative, rec.zero) == (total, negative, 0)
        assert rec.positive == total - negative

    def test_no_stream_without_witnesses(self, monkeypatch):
        def no_stream(n):
            raise AssertionError("the tree stream was started")

        monkeypatch.setattr(survey.treegen, "free_tree_sequences", no_stream)
        rec = survey.classify_trees(12, witness_cap=0)
        assert rec.negative == 6 and rec.negative_witnesses == ()

    @pytest.mark.parametrize("tol", [1e-9, 0.5])
    def test_no_tree_streamed_without_negative_trees(self, monkeypatch, tol):
        # every gap at orders 3..10 is positive: the block skip leaves out
        # the whole stream, with no cap taken from the census
        streamed = []
        stream = treegen.free_tree_sequences

        def counted(n, skip=None):
            for seq in stream(n, skip):
                streamed.append(seq)
                yield seq

        monkeypatch.setattr(survey.treegen, "free_tree_sequences", counted)
        for n in range(3, 11):
            assert survey._witnesses(treeclasses.Tables(n), tol, 100) == []
        assert streamed == []


@functools.cache
def reference_witnesses(n, cap=survey.DEFAULT_WITNESS_CAP, tol=DEFAULT_ZERO_TOL):
    """The first ``cap`` negative trees of order n in stream order, each
    tree scored on its own graph."""
    found = []
    for seq in treegen.free_tree_sequences(n):
        g = sequence_to_graph(seq)
        if certified_sign(index_report(g).gap, g.edge_degree_pairs(), tol) is Sign.NEGATIVE:
            found.append(to_graph6(g))
            if len(found) == cap:
                break
    return tuple(found)


class TestWitnessPass:
    def test_each_class_scored_at_most_once(self, monkeypatch):
        scored = []
        sign = treeclasses.Tables.sign

        def counted(self, cls, tol):
            scored.append(cls)
            return sign(self, cls, tol)

        monkeypatch.setattr(treeclasses.Tables, "sign", counted)
        found = survey._witnesses(treeclasses.Tables(16), DEFAULT_ZERO_TOL,
                                  survey.DEFAULT_WITNESS_CAP)
        assert len(found) == survey.DEFAULT_WITNESS_CAP
        # the classes of the trees of the whole stream up to the last witness
        tables = treeclasses.Tables(16)
        prefix = []
        for seq in treegen.free_tree_sequences(16):
            prefix.append((seq, tables.class_of(seq)))
            if seq == found[-1]:
                break
        met = {cls for _, cls in prefix}
        once = set(scored)
        assert len(scored) == len(once)
        # the skipped blocks leave some classes unscored, and every tree
        # of those classes scores non-negative on its own graph
        assert once < met
        for seq, cls in prefix:
            if cls not in once:
                assert index_report(sequence_to_graph(seq)).gap >= 0

    # sha256 of repr(_witnesses(n, 1e-9, 100)), recorded from the full walk
    # before the witness pass skipped blocks
    WITNESS_SHA256 = {
        19: "ce3480ffdc72861018ec4680807316cee596499f8ad990c830b5af23e62014ba",
        20: "f3d2459904db92f2a030cea906cffe7a710c289acddd5c2875b7a564373160aa",
    }

    @pytest.mark.parametrize("n", sorted(WITNESS_SHA256))
    def test_witnesses_above_order_18_are_pinned(self, n):
        found = survey._witnesses(treeclasses.Tables(n), 1e-9, 100)
        assert hashlib.sha256(repr(found).encode()).hexdigest() == self.WITNESS_SHA256[n]

    # the trees the pass streams: a weaker block bound streams more, with the
    # same witnesses (without the height in block_bound, 11,134 at order 17)
    STREAMED = {11: 6, 12: 92, 13: 354, 14: 1042, 15: 1669, 16: 3651, 17: 2779, 18: 6384}

    @pytest.mark.parametrize("n", sorted(STREAMED))
    def test_streamed_trees_are_pinned(self, n):
        tables = treeclasses.Tables(n)
        streamed = []
        class_of = tables.class_of

        def counted(seq):
            streamed.append(seq)
            return class_of(seq)

        tables.class_of = counted
        survey._witnesses(tables, 1e-9, 100)
        assert len(streamed) == self.STREAMED[n]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_witnesses_at_order_18_match_tree_by_tree(self, workers):
        rec = survey.classify_trees(18, workers=workers)
        assert len(rec.negative_witnesses) == survey.DEFAULT_WITNESS_CAP
        assert rec.negative_witnesses == reference_witnesses(18)


@functools.cache
def ranked_by_abs_gap(n):
    """Reference ranking: every tree of order n as (|gap|, graph6, abc,
    abs), sorted, with graph6 made for every tree."""
    rows = []
    for seq in treegen.free_tree_sequences(n):
        g = sequence_to_graph(seq)
        r = index_report(g)
        rows.append((abs(r.abc - r.abs), to_graph6(g), r.abc, r.abs))
    return sorted(rows)


# `find_near_ties(n, 8)` as (graph6, abs_gap.hex()) rows above order 17,
# which no CLI golden reaches
NEAR_TIES_ABOVE_17 = {
    18: [
        ('QhC`@@?_??_@?C?CO?C??_?A???', '0x1.c8967afc80000p-16'),
        ('QhHC?C@?_C?O?_?_?OC????E???', '0x1.6d211fe3c0000p-15'),
        ('QhGa?D?OA?G?O?_???G?@??O??G', '0x1.4535b44aa0000p-14'),
        ('QhCP?C_OA?G?_???_?G?@??O?A?', '0x1.4e273677e0000p-14'),
        ('QhCP?E??G?_A?G??_CC??_?A???', '0x1.4e273677e0000p-14'),
        ('QhCP?E??G?_C?G?GO???@??I???', '0x1.4e273677e0000p-14'),
        ('QhCPA?@OC??@?@??_?c??_?A???', '0x1.4e273677e0000p-14'),
        ('QhCPC?@?G?_C?G?G?G??@?OA???', '0x1.4e273677e0000p-14'),
    ],
    19: [
        ('RhCO___?H?O??@??_?G?C??C?CC???', '0x1.2c6f058d00000p-16'),
        ('RhCO___?H?O??@??_?G?C?@???K???', '0x1.2c6f058d00000p-16'),
        ('RhCO___?H?O??@??_?G?C?@A?????G', '0x1.2c6f058d00000p-16'),
        ('RhCP?D??K??@?@?@??_?G?A???G?O?', '0x1.2c6f058d00000p-16'),
        ('RhC_I?@?S??@?@?@??_?G?A???G?O?', '0x1.2c6f058d00000p-16'),
        ('RhCa?C@?c??@?@?@??_?G?A???G?O?', '0x1.2c6f058d00000p-16'),
        ('RhC`@@?_??_@?@?C?AC??_?A??C???', '0x1.c8967afc80000p-16'),
        ('RhC`A@?OA?O??@??_?G?G?@??CC???', '0x1.c8967afc80000p-16'),
    ],
    20: [
        ('ShCO`?@OC??@?@?@??_?O??E??C??C???', '0x1.deb3faf000000p-19'),
        ('ShCO`@??K??@?@?@??_?O??E??C??C???', '0x1.deb3faf000000p-19'),
        ('ShCO`@?OA?O??@??_?O?C?@???K?????C', '0x1.deb3faf000000p-19'),
        ('ShC_I?@?OAO??@??_?O?C?@A??C??C???', '0x1.deb3faf000000p-19'),
        ('ShC_I@?OC??@?@?@??_?O??C??O??c???', '0x1.deb3faf000000p-19'),
        ('ShC_I@?OC??@?@?@??_?O_????G??O??O', '0x1.deb3faf000000p-19'),
        ('ShC_IA??G?_A?C?G??G?A??Q??C??C???', '0x1.deb3faf000000p-19'),
        ('ShCa?CA?c??@?@?@??_?O??E??C??C???', '0x1.deb3faf000000p-19'),
    ],
}


class TestNearTies:
    # (14, 1), (14, 3) and (15, 2) cut through groups of exactly tied gaps
    @pytest.mark.parametrize("n,k", [(8, 10**6), (11, 5), (14, 1), (14, 3), (15, 2)])
    def test_matches_reference_ranking(self, n, k):
        ties = survey.find_near_ties(n, k)
        assert [(t.abs_gap, t.graph6, t.abc, t.abs) for t in ties] == ranked_by_abs_gap(n)[:k]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_census_minimum_is_first_near_tie(self, workers):
        rec = survey.classify_trees(14, workers=workers)
        best = ranked_by_abs_gap(14)[0]
        assert (rec.min_abs_gap, rec.min_abs_gap_graph6) == best[:2]

    @pytest.mark.parametrize("parts", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 4, 14])
    @pytest.mark.parametrize("n", [12, 15, 16])
    def test_merge_of_parts(self, n, k, parts):
        # the census merge, in this process: every part's near list, joined
        # and cut once more; k = 14 at order 16 cuts through 13 tied trees
        tables = treeclasses.Tables(n)
        near = [e for part in range(parts)
                for e in survey._scan_partition(tables, parts, part, DEFAULT_ZERO_TOL, k)[1]]
        merged, _ = survey._nearest(near, k)
        assert survey._near_ties(tables, merged, k) == survey.find_near_ties(n, k)

    def test_p3_single_tree(self):
        ties = survey.find_near_ties(3, 1)
        r = index_report(parse_graph6(ties[0].graph6))
        assert ties[0].abs_gap == pytest.approx(abs(r.gap), abs=1e-15)

    def test_clamps_to_total(self):
        assert len(survey.find_near_ties(8, 10**6)) == 23

    def test_more_than_max_trees_refused_before_listing(self, monkeypatch):
        first_10 = survey.find_near_ties(8, 23)[:10]
        monkeypatch.setattr(survey, "MAX_NEAR_TIES", 10)
        near_k = []
        census = survey._census

        def recorded(tables, tol, workers, k, **kwargs):
            near_k.append(k)
            return census(tables, tol, workers, k, **kwargs)

        monkeypatch.setattr(survey, "_census", recorded)
        assert len(survey.find_near_ties(6, 10**6)) == 6  # every tree of order 6
        assert survey.find_near_ties(8, 10) == first_10
        assert near_k == [11, 10]  # the near list is cut at MAX + 1 trees

        def no_listing(self, cls):
            raise AssertionError("a tree was listed")

        monkeypatch.setattr(treeclasses.Tables, "expand", no_listing)
        for k in (11, 10**6):
            with pytest.raises(ValueError, match=f"^top_k {k} would list more than 10 trees$"):
                survey.find_near_ties(8, k)

    def test_ascending(self):
        ties = survey.find_near_ties(11, 5)
        gaps = [t.abs_gap for t in ties]
        assert gaps == sorted(gaps)

    # odd order 19 lists from one centroid; even orders also join two halves
    @pytest.mark.parametrize("n,rows", NEAR_TIES_ABOVE_17.items())
    def test_golden_above_order_17(self, n, rows):
        ties = survey.find_near_ties(n, 8)
        assert [(t.graph6, t.abs_gap.hex()) for t in ties] == rows


def test_exact_and_double_gaps_rank_classes_alike():
    # the near list ranks classes by their exact |gap| over 2**S and prints
    # their double |gap|: over every class, both keys give one order, and
    # two classes tie under one exactly when they tie under the other
    for n in range(3, 18):
        tables = treeclasses.Tables(n)
        keys = set()
        for unit in tables.units:
            for cls in tables.classes(unit):
                keys.add((abs(tables.gap(cls)), abs(pairs_report(tables.pairs(cls)).gap)))
        exact, doubles = zip(*sorted(keys))
        assert list(doubles) == sorted(doubles), n
        assert len(set(exact)) == len(set(doubles)) == len(keys), n


class TestSmallestNegativeTree:
    def test_found_at_order_11_unique(self):
        # orders 3..10 have no negative tree, and order 11 has exactly one
        assert all(survey.classify_trees(n).negative == 0 for n in range(3, 11))
        rec = survey.classify_trees(11)
        assert rec.negative == 1
        g = parse_graph6(rec.negative_witnesses[0])
        assert index_report(g).gap < 0
        assert 2 in g.degrees
        assert classify_shape(g) is Shape.OTHER


# sha256 of the "gap.hex() subdivided.hex()" lines of verify p2, seed 1, 300 trials
P2_GAPS_SHA256 = "1a417570c6618ef9693e768a8426b1385ad5c44b0b5d708f8ae3d4db7e9b6fbb"


def verify(name, universes, tol=None):
    return survey.verify_statement(survey.STATEMENTS[name], universes, tol)


# verify_statement over 200 seeded connected order-10 graphs, recorded
# while t1 still built each line graph and every statement scored a
# Graph: (checked, hypothesis holds, failures, min_margin.hex()); the
# failures as their count and the sha256 of their space-joined graph6
ORDER10_VERDICTS = {
    ("p1", None): (200, 166, (0, None), None),
    ("t1", None): (200, 200, (0, None), "0x1.4e7a6cc8d6f6cp+1"),
    ("t2", None): (200, 119, (0, None), "0x1.2685f1eb0c19ap+2"),
    ("t3", None): (200, 143, (0, None), "0x1.89d317e0e1e90p+1"),
    # in-band tolerances: gaps within tol are rechecked at 50 digits
    ("t1", 3.0): (200, 200, (1, "abd914d19b5acf3febf18e1da3999ad4c11fccb069ea9b56b82967b4324b001c"),
                  "0x1.4e7a6cc8d6f6cp+1"),
    ("p1", 5.0): (200, 166, (25, "03377d502916f117ac5631068681221806b2d4b494b964105f9453d84ba1177b"),
                  None),
}


class TestVerifiers:
    def test_min_degree2_clean_up_to_6(self, universes_1_to_6):
        report = verify("p1", universes_1_to_6)
        assert not report.conclusion_failures and report.hypothesis_holds > 0

    def test_min_degree2_single_cycle(self):
        from graphtheta.smallgraphs import GraphUniverse

        u = GraphUniverse(order=7, source="test", graphs=(cycle_graph(7),))
        report = verify("p1", [u])
        assert not report.conclusion_failures and report.hypothesis_holds == 1

    def test_complete_graph_gap_negative(self):
        assert index_report(complete_graph(4)).gap < 0

    def test_subdivision_invariance_seeded(self):
        report = survey.verify_subdivision_invariance(trials=500, seed=42)
        assert not report.conclusion_failures and report.checked == 500
        again = survey.verify_subdivision_invariance(trials=500, seed=42)
        assert again.conclusion_failures == report.conclusion_failures == ()

    def test_subdivision_gaps_pinned(self, monkeypatch):
        # the (gap, subdivided gap) of every trial, recorded before p2
        # moved to trusted construction: the same RNG draws, graphs and bits
        gaps = []

        def recorded(pairs):
            report = pairs_report(pairs)
            gaps.append((len(pairs), report.gap))
            return report

        monkeypatch.setattr(survey, "pairs_report", recorded)
        report = survey.verify_subdivision_invariance(trials=300, seed=1)
        assert not report.conclusion_failures and report.checked == 300 and len(gaps) == 600
        lines = []
        for pair in zip(gaps[::2], gaps[1::2]):
            (m, gap), (m_sub, sub) = sorted(pair)
            assert m_sub == m + 1
            lines.append(f"{gap.hex()} {sub.hex()}\n")
        assert lines[0] == "0x1.09bdc83bc22c8p-2 0x1.09bdc83bc22c0p-2\n"
        assert hashlib.sha256("".join(lines).encode()).hexdigest() == P2_GAPS_SHA256

    @pytest.mark.parametrize("name,tol", ORDER10_VERDICTS)
    def test_order10_verdicts_pinned(self, name, tol):
        from graphtheta.smallgraphs import GraphUniverse

        u = GraphUniverse(10, "seeded", tuple(random_connected_graphs(10, 200, seed=2309)))
        r = verify(name, [u], tol)
        failures = r.conclusion_failures
        digest = hashlib.sha256(" ".join(failures).encode()).hexdigest() if failures else None
        margin = None if r.min_margin is None else r.min_margin.hex()
        assert (r.checked, r.hypothesis_holds, (len(failures), digest), margin) \
            == ORDER10_VERDICTS[name, tol]

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
    def test_verifiers_reject_bad_tolerance(self, tol, monkeypatch):
        # before any graph is scored: t1 holds on no graph of order 4, and
        # p2's gaps within an infinite tol would all read as verified
        monkeypatch.setattr(survey, "pairs_report", None)
        with pytest.raises(ValueError, match="^tolerance must be finite and positive"):
            survey.verify_subdivision_invariance(trials=50, seed=1, tol=tol)
        with pytest.raises(ValueError, match="^tolerance must be finite and positive"):
            verify("t1", [internal_universe(4)], tol)

    def test_line_graphs_order5(self):
        report = verify("t1", [internal_universe(5)])
        assert not report.conclusion_failures
        assert report.checked == 21 and report.hypothesis_holds == 19
        assert report.min_margin > 0

    def test_line_graph_of_star_is_complete(self):
        from conftest import line_graph, star_graph

        g = line_graph(star_graph(4))
        assert g.m == g.n * (g.n - 1) // 2  # K4
        assert index_report(g).gap < 0

    def test_hypothesis_predicates(self):
        from conftest import path_graph

        assert survey.bounded_pendents_no_degree2(complete_graph(4))
        assert not survey.bounded_pendents_no_degree2(path_graph(3))
        assert survey.bounded_pendents_isolated_degree2(complete_graph(5))
        assert not survey.bounded_pendents_isolated_degree2(cycle_graph(4))

    def test_pendent_bound_verifiers_clean(self, universes_1_to_6):
        assert not verify("t2", universes_1_to_6).conclusion_failures
        assert not verify("t3", universes_1_to_6).conclusion_failures


def rechecked(g6):
    """The gap of the graph6 string ``g6`` at 50 digits, as a double."""
    return float(gap_extended_precision(parse_graph6(g6).edge_degree_pairs()))


class TestRecheck:
    """The 50-digit recheck of every |gap| <= tol, end to end.  The
    expected values were recorded when the recheck ran on mpmath."""

    # in double precision, 13 trees of order 16 share this |gap|; one lies below it
    TOL_16 = 9.699402605711782e-05
    # graph6 -> (gap, rechecked gap) as float.hex(), for every |gap| <= TOL_16
    CANDIDATES_16 = {
        **dict.fromkeys([
            "OhC_I?@_??_@?@?C?AC??", "OhC_IA??G?_@?G?GO???@", "OhC_IA??G?_C?G_???G?@",
            "OhC`A?@_??_@?@?C??K??", "OhC`A?@_??_@?@?CO???@", "OhC`AA??G?_@?G??o???@",
            "OhC`AA??G?_C?@_???G?@", "OhCa?C@_??_@?C?CO???@", "OhCa?E??G?_@?G?GO???@",
            "OhCa?E??G?_C?G_???G?@", "OhD?K?@?GA?G_???_?G?C", "OhDAC?@?GA?@_???_?G?C",
            "OhDC?C@?_?o??@??_?_?G",
        ], ("0x1.96d28ade60000p-14", "0x1.96d28ade6758ep-14")),
        "OhHAC?@?S??@_?_?O?C??": ("0x1.5e34e59960000p-14", "0x1.5e34e599611aap-14"),
    }

    def test_census_counts_rechecked_signs(self):
        # the 13 trees at |gap| == tol lie above it at 50 digits, so the
        # recheck moves them out of zero
        r = survey.classify_trees(16, tol=self.TOL_16)
        assert (r.positive, r.negative, r.zero) == (17027, 2292, 1)

    def test_near_zero_order_11(self):
        # the one tree of order 11 with |gap| <= 0.02
        first, second = survey.find_near_ties(11, 2)
        assert second.abs_gap > 0.02
        assert (first.graph6, first.abc - first.abs, rechecked(first.graph6)) == (
            "JkE?K?@_C??", 0.01878490648964437, 0.018784906489643108)

    def test_near_zero_order_16_bit_for_bit(self):
        k = len(self.CANDIDATES_16)
        ties = survey.find_near_ties(16, k + 1)
        assert ties[k].abs_gap > self.TOL_16  # so ties[:k] are every |gap| <= TOL_16
        found = {t.graph6: (t.abc - t.abs, rechecked(t.graph6)) for t in ties[:k]}
        assert {g6: (gap.hex(), hp.hex()) for g6, (gap, hp) in found.items()} == self.CANDIDATES_16
        assert sum(abs(hp) > self.TOL_16 for _, hp in found.values()) == 13


@pytest.mark.parametrize("tol", [5e-324, 1e-9, TestRecheck.TOL_16, 0.02, 0.5, 1e300])
def test_sign_from_exact_gap_agrees_with_score(tol, monkeypatch):
    # every class of every fold unit: Tables.sign and the census's counts
    # against a scorer that certifies the pairs_report gap of every class
    # the 50-digit recheck is a pure function of the degree pairs: each
    # class's runs once, for score, Tables.sign and the census alike
    recheck = functools.cache(gap_extended_precision)
    monkeypatch.setattr(indices, "gap_extended_precision", lambda pairs: recheck(tuple(pairs)))
    for n in range(3, 18):
        tables = treeclasses.Tables(n)

        @functools.cache  # one 50-digit recheck per class, however often it is scored
        def score(cls):
            pairs = list(tables.pairs(cls))
            return certified_sign(pairs_report(pairs).gap, pairs, tol)

        expected = collections.Counter()
        for unit in tables.units:
            for cls, trees in tables.classes(unit).items():
                sign = score(cls)
                assert tables.sign(cls, tol) is sign
                expected[sign] += trees
        assert survey._scan_partition(tables, 1, 0, tol, 1)[0] == expected
