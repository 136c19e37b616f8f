import gc
import hashlib
import random

import pytest

from graphtheta import treegen
from graphtheta.graphs import from_edge_list, is_connected
from graphtheta.graph6 import Graph6Error, edges_to_graph6, to_graph6
from graphtheta.indices import DEFAULT_ZERO_TOL, index_report
from graphtheta.treeclasses import Tables
from graphtheta.treegen import free_tree_sequences

from conftest import (
    canonical_key,
    edges_to_graph6_oracle,
    parent_array,
    sequence_to_graph,
    stream_blocks,
)

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


# sha256 over the bytes of every sequence in stream order, orders 1..17,
# recorded before the stream took a skip hook (order 18 is pinned above)
STREAM_SHA256 = {
    1: "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
    2: "b413f47d13ee2fe6c845b2ee141af81de858df4ec549a58b7970bb96645bc8d2",
    3: "fbb59ed10e9cd4ff45a12c5bb92cbd80df984ba1fe60f26a30febf218e2f0f5e",
    4: "3774a0c5ecaf521c31a2f6984f28e317880a93f56a52e67cdd81768fd11288d5",
    5: "13d0c7efa6414aafd0fb3fbd6900e00fae0590649de8b450725c680819a63a1b",
    6: "d296650050743f4c338d9b22faa61ab341bf5364ba405447529d70a964b3d726",
    7: "b3aecde5cb4d55ac7f3b8229b2ff24e2c8fa1bacbff192b5a75e363f255706e1",
    8: "538b7da8519cdc272c5be487f878b87e27fd1be6bb5e5e116d5524a3ed803562",
    9: "152f4e7ed7ed088a37d5cc62025ed30e4211f3435377acb8a15ec25c06e063f8",
    10: "affcca541476d16f9474d3ece3376d47d52255242c4bfbdb12851f41e51c93b5",
    11: "c1c944e01c131985c386217a8a77b1e802d50f0b101c7b91d1190e69e806c760",
    12: "c6dd4e51b8afcb18c4d1bce9e8b6eafbf02212f2ae61755fc659219973878c96",
    13: "783d8a4eae37992db69074fc6df52c22ae76214cb62ec9776e48302a8dbb0928",
    14: "86b198329454b54ff105dd773d4696e4a1be3ae9f1c67e7b0248094635df7091",
    15: "f88ba3e8c9256cc9aed8685bdf68141d9121fb71456774aa87c0dfda1b1c62a1",
    16: "b7af4ae64e9411115cfb0fcc27a5503dc220dd261ef546d9aa9272476361a608",
    17: "3da49a5ae2ee366f84c462b3e658cb1aaf1d9f4200363ba0e154872fa730ba77",
}


@pytest.mark.parametrize("n", sorted(STREAM_SHA256))
def test_stream_without_skip_is_pinned(n):
    h = hashlib.sha256()
    for seq in free_tree_sequences(n):
        h.update(bytes(seq))
    assert h.hexdigest() == STREAM_SHA256[n]


@pytest.mark.parametrize("n", range(3, 17))
def test_skipping_every_block_meets_each_blocks_first_tree(n):
    met = []
    assert list(free_tree_sequences(n, skip=lambda seq: met.append(seq) or True)) == []
    assert met == [trees[0] for trees in stream_blocks(n)]


@pytest.mark.parametrize("n", [2, 8, 13, 15])
def test_skipped_blocks_leave_the_rest_of_the_stream(n):
    rng = random.Random(n)
    skipped = {trees[0] for trees in stream_blocks(n) if rng.random() < 0.5}
    kept = [seq for trees in stream_blocks(n) if trees[0] not in skipped for seq in trees]
    assert list(free_tree_sequences(n, skip=skipped.__contains__)) == kept


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


def rerooted(seq, rng):
    """A level sequence of the tree of ``seq`` rooted at a random vertex,
    its children in random order."""
    g = sequence_to_graph(seq)
    out = []
    todo = [(rng.randrange(len(seq)), -1, 0)]
    while todo:
        v, parent, depth = todo.pop()
        out.append(depth)
        kids = [w for w in g.adj[v] if w != parent]
        rng.shuffle(kids)
        todo += [(w, v, depth + 1) for w in kids]
    return tuple(out)


def test_stream_form_of_a_rerooted_tree_is_its_stream_sequence():
    rng = random.Random(2024)
    for n in range(1, 15):
        for seq in free_tree_sequences(n):
            assert treegen.stream_form(rerooted(seq, rng)) == seq


def test_stream_form_leaves_no_cyclic_garbage():
    trees = list(free_tree_sequences(12))[:200]
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for seq in trees:
            treegen.stream_form(seq)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


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
        treegen.write_graph6_stream(6, fh)
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
