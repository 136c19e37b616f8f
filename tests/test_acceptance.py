"""Acceptance suite: one test per criterion, each printing a pass/fail
line.  Run with ``pytest tests/test_acceptance.py -v -s``."""

import functools
import time

import pytest

from graphtheta import survey
from graphtheta.cli import main as cli_main
from graphtheta.graph6 import parse_graph6
from graphtheta.graphs import Shape, classify_shape
from graphtheta.indices import index_report
from graphtheta.smallgraphs import internal_universe
from graphtheta.treegen import free_tree_sequences

from conftest import canonical_key, is_line_graph, sequence_to_graph
from test_linegraph import root_search_oracle
from test_treegen import leaf_augmentation_oracle

EXPECTED_NEGATIVE = {n: 0 for n in range(3, 11)} | {
    11: 1, 12: 6, 13: 31, 14: 134, 15: 564
}
TREE_COUNTS_1_TO_15 = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159, 7741]


def criterion(label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[acceptance] {label}: FAIL")
                raise
            print(f"\n[acceptance] {label}: PASS")

        return wrapper

    return deco


@pytest.fixture(scope="module")
def census():
    t0 = time.perf_counter()
    records = {n: survey.classify_trees(n, tol=1e-9, workers=1) for n in range(3, 16)}
    return records, time.perf_counter() - t0


@criterion("1 tree census 3..15")
def test_criterion_1(census):
    records, elapsed = census
    for n, rec in records.items():
        assert rec.negative == EXPECTED_NEGATIVE[n], (n, rec.negative)
        assert rec.positive + rec.negative + rec.zero == rec.total
    assert elapsed < 60, f"census took {elapsed:.1f}s"


@criterion("2 unique negative tree at order 11")
def test_criterion_2(census):
    records, _ = census
    assert all(records[n].negative == 0 for n in range(3, 11))
    assert records[11].negative == 1
    g = parse_graph6(records[11].negative_witnesses[0])
    assert index_report(g).gap < 0
    assert 2 in g.degrees
    assert classify_shape(g) is Shape.OTHER


@criterion("3 four near-ties at order 15")
def test_criterion_3():
    ties = survey.find_near_ties(15, 5)
    top4, fifth = ties[:4], ties[4]
    for t in top4:
        assert abs(t.abc - 10.184232) <= 5e-7
        assert abs(t.abs - 10.184135) <= 5e-7
        assert 9.0e-5 <= t.abs_gap <= 1.05e-4
        assert abs(t.abs_gap - top4[0].abs_gap) <= 1e-12
    assert fifth.abs_gap > 1.05e-4
    assert len({t.graph6 for t in top4}) == 4


@criterion("4 no zero gap through order 15")
def test_criterion_4(census):
    records, _ = census
    for n, rec in records.items():
        assert rec.zero == 0
        assert rec.min_abs_gap > 1e-6, (n, rec.min_abs_gap_graph6)


@criterion("5 min-degree-2 bound on all connected graphs of order <= 6")
def test_criterion_5(universes_1_to_6):
    report = survey.verify_statement(survey.STATEMENTS["p1"], universes_1_to_6, tol=1e-12)
    assert not report.conclusion_failures and report.hypothesis_holds > 0


@criterion("6 subdivision invariance, 10^4 seeded trials")
def test_criterion_6():
    report = survey.verify_subdivision_invariance(trials=10_000, seed=20240817)
    assert not report.conclusion_failures and report.checked == 10_000


@criterion("7 line graphs of roots of order 5..7")
def test_criterion_7(universes_5_to_7):
    t0 = time.perf_counter()
    report = survey.verify_statement(survey.STATEMENTS["t1"], universes_5_to_7, tol=1e-9)
    assert not report.conclusion_failures
    assert report.checked == 21 + 112 + 853
    assert report.hypothesis_holds == 19 + 110 + 851
    assert report.min_margin > 1e-9
    assert time.perf_counter() - t0 < 300


@criterion("8 pendent-count hypotheses on order <= 6")
def test_criterion_8(universes_1_to_6):
    r2 = survey.verify_statement(survey.STATEMENTS["t2"], universes_1_to_6, tol=1e-9)
    r3 = survey.verify_statement(survey.STATEMENTS["t3"], universes_1_to_6, tol=1e-9)
    assert not r2.conclusion_failures and r2.hypothesis_holds > 0
    assert not r3.conclusion_failures and r3.hypothesis_holds > 0


@criterion("9 enumeration counts and oracle agreement")
def test_criterion_9():
    for n, expected in enumerate(TREE_COUNTS_1_TO_15, start=1):
        assert sum(1 for _ in free_tree_sequences(n)) == expected
    for n in range(1, 10):
        keys = [canonical_key(sequence_to_graph(s)) for s in free_tree_sequences(n)]
        assert len(keys) == len(set(keys))
        assert set(keys) == set(leaf_augmentation_oracle(n))


@criterion("10 line-graph recognition vs root-search oracle")
def test_criterion_10():
    roots = {}
    for n in range(2, 8):
        for k in internal_universe(n):
            if 1 <= k.m <= 6:
                roots.setdefault(k.m, []).append(k)
    for n in range(1, 7):
        for g in internal_universe(n):
            assert bool(is_line_graph(g)) == root_search_oracle(g, roots)


@criterion("11 scan output identical for 1, 2, 8 workers")
def test_criterion_11(tmp_path):
    outputs = []
    for workers in (1, 2, 8):
        out = tmp_path / f"scan-w{workers}.csv"
        code = cli_main(
            ["scan", "3..12", "--workers", str(workers), "--out", str(out)]
        )
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
