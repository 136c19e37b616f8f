"""The class census against the tree stream it replaces."""

import math
import random
from collections import Counter, defaultdict

import pytest

from conftest import fsum_class_sums, otter_classes, real_gap, sequence_to_graph, stream_blocks
from graphtheta import survey, treeclasses, treegen
from graphtheta.indices import DEFAULT_ZERO_TOL, Sign, pairs_report, term_bracket
from graphtheta.treeclasses import Tables, Terms

# OEIS A000055, free trees of order n = 1..20
A000055 = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159, 7741, 19320,
           48629, 123867, 317955, 823065]


def class_of(seq):
    pairs = sequence_to_graph(seq).edge_degree_pairs()
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


@pytest.mark.parametrize("n", range(3, 19))
def test_class_counts_match_otters_theorem(n):
    tables = Tables(n)
    counts = Counter()
    for unit in tables.units:
        counts.update(tables.classes(unit))
    assert counts == otter_classes(n)


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
    pairs = list(tables.pairs(cls))
    r = pairs_report(pairs)
    ref_abc, ref_abs = fsum_class_sums(tables, cls)
    assert (r.abc.hex(), r.abs.hex()) == (ref_abc.hex(), ref_abs.hex())
    # a class is the sum of its edges' monomials, carried gap included
    assert sum(tables._edge[a][b] for a, b in pairs) == cls
    # and its gap is the exact sum of its edges' gaps
    assert tables.gap(cls) == exact_gap(tables.terms, pairs)


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


@pytest.mark.parametrize("n", range(3, 26))
def test_gap_field_holds_the_most_edges_a_type_field_counts(n):
    # a type field counts at most 2**(width-1) - 1 edges: packed from that
    # many edges of the type of largest gap, then of smallest, the gap
    # field's sum must not carry into the type fields.  No tree of order
    # <= 25 comes near it, so only this class catches a gap field one bit
    # short
    tables = Tables(n)
    terms = tables.terms
    most = 2**(tables.width - 1) - 1
    guard = tables._guard
    for g, ab in (max(zip(terms.gaps, terms.types)), min(zip(terms.gaps, terms.types))):
        edge = tables._edge[ab[0]][ab[1]]
        cls = most * edge
        assert list(tables.pairs(cls)) == [ab] * most
        assert tables.gap(cls, most) == most * g == exact_gap(terms, [ab] * most)
        # _children's guard test: taking the class from itself borrows
        # nothing from the type fields, and one more edge underflows one
        assert (cls | guard) - cls == guard
        assert ((cls | guard) - (cls + edge)) & guard != guard


def class_from_degree_pairs(tables, seq):
    pairs = sequence_to_graph(seq).edge_degree_pairs()
    return sum(tables._edge[a][b] for a, b in pairs)


@pytest.mark.parametrize("n", range(1, 16))
def test_class_of_sums_the_trees_degree_pairs(n):
    tables = Tables(n)  # one branch memo over the whole stream
    for seq in treegen.free_tree_sequences(n):
        assert tables.class_of(seq) == class_from_degree_pairs(tables, seq)


def test_class_of_over_the_order_17_witness_prefix():
    last = survey._witnesses(Tables(17), DEFAULT_ZERO_TOL, survey.DEFAULT_WITNESS_CAP)[-1]
    tables = Tables(17)
    for seq in treegen.free_tree_sequences(17):
        assert tables.class_of(seq) == class_from_degree_pairs(tables, seq)
        if seq == last:
            break


# --- the min-gap tables and the block bound ----------------------------

def exact_gap(terms, pairs):
    """The sum of some edges' ABC - ABS term brackets, over the terms'
    unit, from ``indices.term_bracket`` edge by edge."""
    assert terms.unit == 2**54
    return sum(term_bracket(a, b) for a, b in pairs)


def planted_trees(s_max):
    """Every rooted tree of at most s_max vertices, as a sorted tuple of
    its children, grown a leaf at a time and deduplicated."""
    def grown(t):
        yield tuple(sorted((*t, ())))
        for i, child in enumerate(t):
            for c in grown(child):
                yield tuple(sorted((*t[:i], c, *t[i + 1:])))

    level = {()}
    trees = [()]
    for _ in range(s_max - 1):
        level = {g for t in level for g in grown(t)}
        trees += level
    return trees


def planted_stats(t):
    """Size, height and inner edge pairs of a planted tree whose root
    has an edge to a parent."""
    size, height, pairs = 1, 0, []
    for child in t:
        s, h, p = planted_stats(child)
        size += s
        height = max(height, h + 1)
        pairs += [(len(t) + 1, len(child) + 1), *p]
    return size, height, pairs


def test_min_gap_tables_match_brute_force_to_10_vertices():
    terms = Terms(20)  # every edge below has degrees adding up to <= 20
    trees = planted_trees(10)
    sizes = Counter(planted_stats(t)[0] for t in trees)
    assert [sizes[s] for s in range(1, 11)] == [1, 1, 2, 4, 9, 20, 48, 115, 286, 719]
    best = defaultdict(lambda: math.inf)  # (root degree, size, height) -> least sum
    for t in trees:
        s, h, pairs = planted_stats(t)
        key = (len(t) + 1, s, h)
        best[key] = min(best[key], exact_gap(terms, pairs))
    for s in range(1, 11):
        for h in range(s + 1):
            reach = [(d, v) for (d, ss, hh), v in best.items() if ss == s and hh >= h]
            for d in range(1, s + 1):
                # the root's d - 1 children, one of height at least h - 1
                assert terms._least_children(d, d - 1, s - 1, h - 1) == min(
                    (v for dd, v in reach if dd == d), default=math.inf), (d, s, h)
            for p in range(1, 11):
                assert terms.least_child(p, s, h) == min(
                    (exact_gap(terms, [(p, d)]) + v for d, v in reach), default=math.inf), (p, s, h)


def least_gap(terms):
    """The least exact gap of the trees of the terms' order: a tree
    rooted at a vertex of degree D is D planted children of n - 1
    vertices in all, of any heights."""
    n = terms.n
    return min(terms._least_children(d, d, n - 1, -1) for d in range(1, n))


def test_least_gap_is_the_least_class_gap_at_every_order():
    for n in range(3, 18):
        tables = Tables(n)
        assert least_gap(Terms(n)) == min(
            tables.gap(cls) for unit in tables.units for cls in tables.classes(unit)), n


def test_least_gap_of_order_62_builds_no_planted_table(monkeypatch):
    # every planted table is folded by _fold, and only Tables builds them
    monkeypatch.setattr(treeclasses, "_fold", None)
    monkeypatch.setattr(treeclasses, "Tables", None)
    terms = Terms(62)
    assert terms.unit == 2**54
    least = least_gap(terms)
    assert least == -71582799921644784
    # within 2 * 61 * 2**-54 of the least sum of the doubles' exact terms,
    # -143165599843289388 / 2**55, when those were the census's terms
    assert abs(least * 2 - -143165599843289388) <= 2 * 61 * 2


@pytest.mark.parametrize("n", range(2, 16))
def test_block_bound_is_at_most_each_blocks_least_sum(n):
    tables = Tables(n)
    for trees in stream_blocks(n):
        least = min(exact_gap(tables.terms, sequence_to_graph(seq).edge_degree_pairs())
                    for seq in trees)
        assert tables.block_bound(trees[0]) <= least


@pytest.mark.parametrize("n", [3, 9, 17, 25])
def test_positive_block_needs_a_bound_above_the_margin(n, monkeypatch):
    # the margin is 0: G >= 0 gives a real gap >= 0, never signed negative
    tables = Tables(n)
    seq = next(treegen.free_tree_sequences(n))
    monkeypatch.setattr(tables, "block_bound", lambda seq: -1)
    assert not tables.positive_block(seq)
    monkeypatch.setattr(tables, "block_bound", lambda seq: 0)
    assert tables.positive_block(seq)


# the slack band(0), 2(n - 1) over unit = 2**54, stays below the three
# half ulps of a double below 2**k, k = (n - 1).bit_length(), that three
# roundings of a double gap may add up to, so the band is no wider than
# one built on the double gap would be
@pytest.mark.parametrize("n", [3, 9, 17, 25, 62])
def test_slack_is_three_half_ulps_below_2_to_the_k(n):
    terms = Terms(n)
    half_ulp = 2**((n - 1).bit_length() - 54) * terms.unit
    assert half_ulp == int(half_ulp)
    assert terms.band(0) == 2 * (n - 1) < 3 * half_ulp


def test_slack_exceeds_the_real_gaps_error_at_every_order():
    # 2**54 times each real ABC - ABS term lies in [g, g + 2), for every
    # pair of degrees up to 61, the most a graph6 graph has, so a class's
    # real gap times 2**54 lies in [G, G + slack) with slack 2(n - 1);
    # and where a + b <= 62 each g + 2**54 fits the gap field, (0, 2**55)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        for a in range(1, 62):
            for b in range(1, 62):
                g = term_bracket(a, b)
                assert g <= real_gap(mpmath, [(a, b)]) * 2**54 < g + 2, (a, b)
                if a + b <= 62:
                    assert 0 < g + 2**54 < 2**55, (a, b)
    for n in range(1, 63):
        terms = Terms(n)
        assert terms.unit == 2**54
        assert terms.band(0) == 2 * (n - 1)


# --- the band of tol -----------------------------------------------------

@pytest.mark.parametrize("n", [3, 17, 25])
@pytest.mark.parametrize("tol", [5e-324, 2.0**-20, 1e-9, 0.02])
def test_only_classes_inside_the_band_are_scored(n, tol, monkeypatch):
    tables = Tables(n)
    unit = Terms(n).unit
    # the band of the module docstring: n - 1 brackets, each within 2
    edge = math.floor(tol * unit) + 2 * (n - 1)  # the largest |gap| in the band
    base = (n - 1) * unit  # the gap field of n - 1 edges whose gaps add up to 0
    classes = {}
    for gap in (edge - 1, edge, edge + 1):
        for g in (gap, -gap):
            # a count in the first type field tells the classes' pairs apart
            tag = len(classes) + 1 << tables._types_at
            classes[tag | base + g] = g
    assert [tables.gap(cls) for cls in classes] == list(classes.values())
    scored = []

    def stub(pairs, tol):
        scored.append(tuple(pairs))
        return Sign.ZERO_WITHIN_TOL

    monkeypatch.setattr(treeclasses, "certified_sign", stub)
    inside = [tuple(tables.pairs(cls)) for cls, g in classes.items() if abs(g) <= edge]
    for cls, g in classes.items():
        expected = Sign.ZERO_WITHIN_TOL if abs(g) <= edge else (
            Sign.POSITIVE if g > 0 else Sign.NEGATIVE)
        assert tables.sign(cls, tol) is expected
    assert scored == inside
    # the census reads the same band
    scored.clear()
    monkeypatch.setattr(tables, "units", [0])
    monkeypatch.setattr(tables, "classes", lambda unit: dict.fromkeys(classes, 1))
    signs = survey._scan_partition(tables, 1, 0, tol, 1)[0]
    assert scored == inside
    assert signs == Counter({Sign.ZERO_WITHIN_TOL: 4, Sign.POSITIVE: 1, Sign.NEGATIVE: 1})
