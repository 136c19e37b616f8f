"""The class census against the tree stream it replaces."""

import random
from collections import Counter, defaultdict

import pytest

from conftest import fsum_class_sums
from graphtheta import survey, treegen
from graphtheta.indices import DEFAULT_ZERO_TOL
from graphtheta.treeclasses import Tables

# OEIS A000055, free trees of order n = 1..20
A000055 = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159, 7741, 19320,
           48629, 123867, 317955, 823065]


def class_of(seq):
    pairs = treegen.sequence_to_graph(seq).edge_degree_pairs()
    return tuple(sorted(tuple(sorted(p)) for p in pairs))


def census(tables):
    """class (as sorted degree pairs) -> number of trees, over every unit."""
    counts = Counter()
    for unit in tables.units:
        for cls, trees in tables.classes(unit).items():
            counts[tuple(tables.pairs(cls))] += trees
    return counts


@pytest.mark.parametrize("n", range(1, 16))
def test_class_counts_match_stream(n):
    assert census(Tables(n)) == Counter(map(class_of, treegen.free_tree_sequences(n)))


def test_totals_match_a000055():
    for n, expected in enumerate(A000055, start=1):
        tables = Tables(n)
        assert sum(sum(tables.classes(u).values()) for u in tables.units) == expected


@pytest.mark.parametrize("n", range(1, 15))
def test_expand_gives_the_streams_sequences(n):
    by_class = defaultdict(list)
    for seq in treegen.free_tree_sequences(n):
        by_class[class_of(seq)].append(seq)
    tables = Tables(n)
    classes = {cls for unit in tables.units for cls in tables.classes(unit)}
    assert len(classes) == len(by_class)
    for cls in classes:
        assert tables.expand(cls) == by_class[tuple(tables.pairs(cls))]


def test_classes_of_order_17():
    tables = Tables(17)
    assert len({cls for unit in tables.units for cls in tables.classes(unit)}) == 7778


def test_rejects_order_below_one():
    with pytest.raises(ValueError):
        Tables(0)


def assert_carried_sums(tables, cls):
    abc, abs_, _ = tables.score(cls, DEFAULT_ZERO_TOL)
    ref_abc, ref_abs = fsum_class_sums(tables, cls)
    assert (abc.hex(), abs_.hex()) == (ref_abc.hex(), ref_abs.hex())
    # a class is the sum of its edges' monomials, carried sums included
    assert sum(tables._edge[a][b] for a, b in tables.pairs(cls)) == cls


@pytest.mark.parametrize("n", range(1, 18))
def test_carried_sums_equal_fsum_on_every_class(n):
    tables = Tables(n)
    for unit in tables.units:
        for cls in tables.classes(unit):
            assert_carried_sums(tables, cls)


@pytest.mark.parametrize("n", [20, 22])
def test_carried_sums_equal_fsum_on_sampled_unit_entries(n):
    tables = Tables(n)
    entries = [cls for unit in tables.units for cls in tables.classes(unit)]
    for cls in random.Random(n).sample(entries, 2000):
        assert_carried_sums(tables, cls)


def class_from_degree_pairs(tables, seq):
    pairs = treegen.sequence_to_graph(seq).edge_degree_pairs()
    return sum(tables._edge[a][b] for a, b in pairs)


@pytest.mark.parametrize("n", range(1, 16))
def test_class_of_sums_the_trees_degree_pairs(n):
    tables = Tables(n)  # one branch memo over the whole stream
    for seq in treegen.free_tree_sequences(n):
        assert tables.class_of(seq) == class_from_degree_pairs(tables, seq)


def test_class_of_over_the_order_17_witness_prefix():
    last = survey._witnesses(17, DEFAULT_ZERO_TOL, survey.DEFAULT_WITNESS_CAP)[-1]
    tables = Tables(17)
    for seq in treegen.free_tree_sequences(17):
        assert tables.class_of(seq) == class_from_degree_pairs(tables, seq)
        if seq == last:
            break
