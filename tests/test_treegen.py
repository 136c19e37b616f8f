import hashlib
import random

import pytest

from graphtheta import treegen
from graphtheta.graphs import from_edge_list, is_connected
from graphtheta.graph6 import Graph6Error, edges_to_graph6, to_graph6
from graphtheta.indices import DEFAULT_ZERO_TOL, index_report
from graphtheta.treeclasses import Tables
from graphtheta.treegen import (
    free_tree_sequences,
    parent_array,
    sequence_to_graph,
)

from conftest import canonical_key, edges_to_graph6_oracle

TREE_COUNTS = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159, 7741]


def leaf_augmentation_oracle(n):
    """Brute-force generate-and-dedup: grow every tree by hanging a new
    leaf on every vertex, dedup by canonical key.  Independent of the
    level-sequence machinery."""
    reps = {canonical_key(from_edge_list(1, [])): from_edge_list(1, [])}
    for k in range(2, n + 1):
        grown = {}
        for g in reps.values():
            for v in range(k - 1):
                h = from_edge_list(k, list(g.edges()) + [(v, k - 1)])
                grown.setdefault(canonical_key(h), h)
        reps = grown
    return reps


def count(n):
    return sum(1 for _ in free_tree_sequences(n))


def test_counts_1_to_15():
    for n, expected in enumerate(TREE_COUNTS, start=1):
        assert count(n) == expected


def test_trivial_counts():
    assert count(1) == 1
    assert count(2) == 1
    assert count(7) == 11
    assert count(10) == 106


def test_every_emitted_graph_is_a_tree():
    for n in range(1, 11):
        for g in map(sequence_to_graph, free_tree_sequences(n)):
            assert g.n == n and g.m == n - 1
            assert is_connected(g)


def test_stream_matches_oracle_graph_for_graph():
    for n in range(1, 10):
        oracle_keys = set(leaf_augmentation_oracle(n))
        stream_keys = [canonical_key(sequence_to_graph(s)) for s in free_tree_sequences(n)]
        assert len(stream_keys) == len(set(stream_keys))  # duplicate-free
        assert set(stream_keys) == oracle_keys


def test_emission_order_deterministic():
    assert list(free_tree_sequences(9)) == list(free_tree_sequences(9))


def test_stream_of_order_18_is_pinned():
    # sha256 over the bytes of every sequence in stream order, recorded
    # from the stream before its acceptance test compared in place
    h = hashlib.sha256()
    count = 0
    for seq in free_tree_sequences(18):
        h.update(bytes(seq))
        count += 1
    assert count == 123867
    assert h.hexdigest() == "197cd0965db5676a891f02d3921ee0fdaaca6d5198e9ccadd1be18a06c644f54"


def test_stream_in_ascending_graph6_order():
    # survey breaks ties in |gap| by stream index, relying on this order
    for n in range(1, 15):
        codes = [to_graph6(sequence_to_graph(s)) for s in free_tree_sequences(n)]
        assert codes == sorted(codes)


def test_stream_roots_at_a_center():
    # a center is a vertex of least eccentricity
    for n in range(1, 15):
        for seq in free_tree_sequences(n):
            par = parent_array(seq)
            adj = [[] for _ in seq]
            for v in range(1, n):
                adj[v].append(par[v])
                adj[par[v]].append(v)
            ecc = []
            for src in range(n):
                dist = {src: 0}
                todo = [src]
                for v in todo:
                    for w in adj[v]:
                        if w not in dist:
                            dist[w] = dist[v] + 1
                            todo.append(w)
                ecc.append(max(dist.values()))
            assert ecc[0] == min(ecc), (n, seq)


def test_degree_pairs_match_graphs():
    # the degree pairs of a streamed tree's class, as the witness pass reads it
    for n in range(2, 10):
        tables = Tables(n)
        for seq in free_tree_sequences(n):
            g = sequence_to_graph(seq)
            fast = sorted(tuple(sorted(p)) for p in tables.pairs(tables.class_of(seq)))
            slow = sorted(tuple(sorted(p)) for p in g.edge_degree_pairs())
            assert fast == slow


def test_abc_abs_sums_match_reports():
    tables = Tables(10)
    for seq in free_tree_sequences(10):
        abc, abs_, _ = tables.score(tables.class_of(seq), DEFAULT_ZERO_TOL)
        r = index_report(sequence_to_graph(seq))
        assert abc == pytest.approx(r.abc, abs=1e-13)
        assert abs_ == pytest.approx(r.abs, abs=1e-13)


def test_abc_abs_sums_bits_match_the_formula():
    # the census scores a tree by its class; fsum makes it exact
    for n in range(1, 14):
        tables = Tables(n)
        for seq in free_tree_sequences(n):
            r = index_report(sequence_to_graph(seq))
            assert tables.score(tables.class_of(seq), DEFAULT_ZERO_TOL)[:2] == (r.abc, r.abs)


def test_graph6_stream(tmp_path):
    out = tmp_path / "trees.g6"
    with open(out, "w") as fh:
        assert treegen.write_graph6_stream(6, fh) == 6
    lines = out.read_text().splitlines()
    assert len(lines) == 6 and len(set(lines)) == 6


def test_invalid_order():
    with pytest.raises(ValueError):
        list(free_tree_sequences(0))


def _parent_edges_graph6(seq):
    par = parent_array(seq)
    return edges_to_graph6(len(seq), zip(par[1:], range(1, len(seq))))


def test_tree_encoder_matches_parent_edges():
    for n in range(1, 17):
        for seq in free_tree_sequences(n):
            assert treegen.sequence_to_graph6(seq) == _parent_edges_graph6(seq)


@pytest.mark.parametrize("n", range(17, 63))
def test_tree_encoder_matches_on_random_level_sequences(n):
    # any sequence that starts at 0 and rises by at most 1 is a rooted tree
    rng = random.Random(n)
    for _ in range(20):
        seq = [0]
        for _ in range(n - 1):
            seq.append(rng.randint(1, seq[-1] + 1))
        seq = tuple(seq)
        expected = edges_to_graph6_oracle(n, zip(parent_array(seq)[1:], range(1, n)))
        assert treegen.sequence_to_graph6(seq) == _parent_edges_graph6(seq) == expected


def test_tree_encoder_order_bound():
    with pytest.raises(Graph6Error, match="^order 63 exceeds short-form graph6 bound 62$"):
        treegen.sequence_to_graph6(tuple(range(63)))
