import hashlib
from functools import cache
from itertools import combinations

import pytest

from graphtheta import canon, smallgraphs
from graphtheta.graphs import GraphError, from_edge_list, is_connected
from graphtheta.graph6 import to_graph6
from graphtheta.smallgraphs import internal_universe, load_universe
from graphtheta.treegen import free_tree_sequences

from conftest import canonical_key, sequence_to_graph

CONNECTED_COUNTS = [1, 1, 2, 6, 21, 112, 853]
# sha256 over canonical_key of every internal representative, orders 1..7
# in universe order, as recorded from the generate-and-dedup build
UNIVERSE_KEYS_SHA256 = "1e51995c4cab85eddca41c4164a2620b81b14313c468ae39dad024803f0b2414"


@cache
def generate_and_dedup(n):
    """Reference build: every representative of order n-1 with every
    nonempty neighbor set of a new vertex, first by size, then
    lexicographically.  A candidate is dropped when some old vertex u
    has a higher degree than the new vertex and the graph without u is
    connected.  The first graph of each key is kept, and the result is
    sorted by key."""
    if n == 1:
        return (from_edge_list(1, []),)
    seen = {}
    for base in generate_and_dedup(n - 1):
        edges = list(base.edges())
        for r in range(1, n):
            for subset in combinations(range(n - 1), r):
                g = from_edge_list(n, edges + [(v, n - 1) for v in subset])
                if not any(g.degrees[u] > r and is_connected(_without(g, u))
                           for u in range(n - 1)):
                    seen.setdefault(canonical_key(g), g)
    return tuple(g for _, g in sorted(seen.items()))


def _without(g, u):
    """g less vertex u, the vertices above u numbered one lower."""
    def label(v):
        return v - (v > u)
    return from_edge_list(g.n - 1, [(label(a), label(b)) for a, b in g.edges() if u not in (a, b)])


def brute_force_connected(n):
    """Oracle enumeration: walk all 2^(n(n-1)/2) edge subsets, keep the
    connected ones, dedup by canonical key.  Only sensible for n <= 6."""
    pairs = list(combinations(range(n), 2))
    seen = {}
    for mask in range(1 << len(pairs)) if n > 1 else range(1):
        g = from_edge_list(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
        if is_connected(g):
            seen.setdefault(canonical_key(g), g)
    return [g for _, g in sorted(seen.items())]


def test_counts_match_published_sequence():
    for n, expected in enumerate(CONNECTED_COUNTS, start=1):
        assert len(internal_universe(n)) == expected


def test_agrees_with_edge_subset_brute_force():
    for n in range(1, 6):
        fast = [canonical_key(g) for g in internal_universe(n)]
        slow = [canonical_key(g) for g in brute_force_connected(n)]
        assert fast == slow


def test_same_graphs_in_same_order_as_generate_and_dedup():
    for n in range(1, 8):
        assert internal_universe(n).graphs == generate_and_dedup(n)


def test_key_bytes_pinned():
    h = hashlib.sha256()
    for n in range(1, 8):
        for g in internal_universe(n):
            h.update(canonical_key(g))
    assert h.hexdigest() == UNIVERSE_KEYS_SHA256


def test_all_emitted_graphs_connected_and_distinct():
    for n in range(1, 7):
        keys = set()
        for g in internal_universe(n):
            assert g.n == n and is_connected(g)
            keys.add(canonical_key(g))
        assert len(keys) == CONNECTED_COUNTS[n - 1]


def test_order_bounds():
    with pytest.raises(GraphError):
        internal_universe(8)
    with pytest.raises(GraphError):
        internal_universe(0)


class TestLoadUniverse:
    def test_trees_of_order_7(self, tmp_path):
        path = tmp_path / "t7.g6"
        path.write_text(
            "# seventh-order trees\n"
            + "".join(to_graph6(sequence_to_graph(s)) + "\n" for s in free_tree_sequences(7))
        )
        u = load_universe(str(path), expect_order=7)
        assert len(u) == 11 and u.order == 7

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.g6"
        path.write_text("")
        assert len(load_universe(str(path), expect_order=5)) == 0

    def test_order_mismatch(self, tmp_path):
        path = tmp_path / "bad.g6"
        path.write_text("EhEG\n")  # order 6
        with pytest.raises(GraphError, match="bad.g6:1"):
            load_universe(str(path), expect_order=7)

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.g6"
        path.write_text("A_\nA_XYZ\n")
        with pytest.raises(GraphError, match=":2"):
            load_universe(str(path), expect_order=2)

    def test_non_ascii_byte_reports_line(self, tmp_path):
        path = tmp_path / "latin.g6"
        path.write_bytes(b"A_\n\xe9_\n")
        with pytest.raises(GraphError, match=r"latin\.g6:2: invalid header byte 233$"):
            load_universe(str(path), expect_order=2)

    def test_disconnected_rejected(self, tmp_path):
        path = tmp_path / "disc.g6"
        path.write_text(to_graph6(_two_edges()) + "\n")
        with pytest.raises(GraphError, match="not connected"):
            load_universe(str(path), expect_order=4)


def _two_edges():
    return from_edge_list(4, [(0, 1), (2, 3)])


def test_internal_universe_wrapper():
    u = internal_universe(4)
    assert u.order == 4 and len(u) == 6 and u.source == "internal"


def test_trusted_representatives_equal_validated_graph():
    # the build makes each representative with _from_adjacency, unchecked
    for n in range(1, 8):
        for g in internal_universe(n):
            assert g == from_edge_list(n, list(g.edges()))


def test_build_work_counts(monkeypatch):
    # one key per kept candidate, and no other search; one twin computation
    # per class of orders 1..6, for the neighbor sets that the next order tries
    keys, twins = [], []

    def counted_key(masks, degrees):
        keys.append(canon.canonical_key(masks, degrees))
        return keys[-1]

    def counted_twins(masks, degrees):
        twins.append(len(masks))
        return canon.lower_twins(masks, degrees)

    monkeypatch.setattr(smallgraphs, "canonical_key", counted_key)
    monkeypatch.setattr(smallgraphs, "lower_twins", counted_twins)
    smallgraphs._connected_classes.cache_clear()
    try:
        graphs = [g for n in range(1, 8) for g in internal_universe(n)]
    finally:
        smallgraphs._connected_classes.cache_clear()
    assert len(keys) == 1685
    assert len(set(keys)) == len(graphs) - 1 == 995  # order 1 needs no key
    assert len(twins) == sum(CONNECTED_COUNTS[:6]) == 143
    assert max(twins) == 6


def test_order_8_build_reaches_every_class():
    # above MAX_INTERNAL_ORDER, so no other test builds it: A001349 gives 11117
    try:
        graphs = smallgraphs._connected_classes(8)
        assert len(graphs) == 11117
        assert all(g.n == 8 and is_connected(g) for g in graphs)
        assert len({canonical_key(g) for g in graphs}) == 11117
    finally:
        smallgraphs._connected_classes.cache_clear()
