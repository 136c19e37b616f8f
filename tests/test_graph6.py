import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from graphtheta import treegen
from graphtheta.graph6 import (
    Graph6Error,
    edges_to_graph6,
    parse_degree_pairs,
    parse_graph6,
    to_graph6,
)
from graphtheta.graphs import DisconnectedGraphError, from_edge_list, is_connected
from graphtheta.indices import certified_sign, index_report, pairs_report
from graphtheta.smallgraphs import internal_universe
from graphtheta.treegen import free_tree_sequences, sequence_to_graph

from conftest import (
    complete_graph, cycle_graph, edges_to_graph6_oracle, line_graph, parse_graph6_oracle,
)


def _random_edges(n, p, rng):
    return [(i, j) for j in range(n) for i in range(j) if rng.random() < p]


def test_single_edge_encoding():
    assert to_graph6(from_edge_list(2, [(0, 1)])) == "A_"
    g = parse_graph6("A_")
    assert g.n == 2 and list(g.edges()) == [(0, 1)]


def test_roundtrip_all_trees_up_to_8():
    for n in range(1, 9):
        for g in map(sequence_to_graph, free_tree_sequences(n)):
            h = parse_graph6(to_graph6(g))
            assert h.n == g.n and list(h.edges()) == list(g.edges())


def test_matches_reference_codec():
    # cross-check both directions against networkx's graph6 implementation
    samples = [cycle_graph(6), complete_graph(5)]
    samples += map(sequence_to_graph, free_tree_sequences(7))
    for g in samples:
        G = nx.empty_graph(g.n)
        G.add_edges_from(g.edges())
        ref = nx.to_graph6_bytes(G, header=False).strip().decode()
        assert to_graph6(g) == ref
        back = nx.from_graph6_bytes(to_graph6(g).encode())
        assert sorted(back.edges()) == list(g.edges())


@pytest.mark.parametrize("n", range(1, 63))
def test_random_graphs_round_trip_and_match_networkx(n):
    # orders 1..62 give every padding length 0..5 of the last chunk
    rng = random.Random(n)
    for p in (0.0, 0.1, 0.5, 0.9, 1.0):
        edges = _random_edges(n, p, rng)
        g = from_edge_list(n, edges)
        text = to_graph6(g)
        assert parse_graph6(text) == g
        G = nx.empty_graph(n)
        G.add_edges_from(edges)
        ref = nx.to_graph6_bytes(G, header=False).strip().decode()
        assert text == ref
        assert sorted(nx.from_graph6_bytes(text.encode()).edges()) == list(g.edges())
        assert parse_graph6(ref) == g


def test_tree_path_matches_graph_path():
    for n in range(1, 16):
        for seq in free_tree_sequences(n):
            assert treegen.sequence_to_graph6(seq) == to_graph6(sequence_to_graph(seq))


def test_trusted_constructions_equal_validated_graph():
    # parse_graph6 and sequence_to_graph skip from_edge_list's checks
    rng = random.Random(7)
    for n in range(1, 20):
        edges = _random_edges(n, 0.4, rng)
        assert parse_graph6(to_graph6(from_edge_list(n, edges))) == from_edge_list(n, edges)
    for n in range(1, 11):
        for seq in free_tree_sequences(n):
            g = sequence_to_graph(seq)
            assert g == from_edge_list(n, list(g.edges()))


def test_empty_string_rejected():
    with pytest.raises(Graph6Error, match="^empty graph6 string$"):
        parse_graph6("")


def test_prefix_without_body_rejected():
    with pytest.raises(Graph6Error, match="empty graph6 string"):
        parse_graph6(">>graph6<<")


@pytest.mark.parametrize("text, header", [(">", 62), ("\x7f", 127), ("\xe9_", 233)])
def test_invalid_header_rejected(text, header):
    with pytest.raises(Graph6Error, match=f"^invalid header byte {header}$"):
        parse_graph6(text)


def test_extended_order_rejected():
    with pytest.raises(Graph6Error, match="^extended-order graph6 forms are not supported$"):
        parse_graph6("~?@~")


def test_order_zero_rejected():
    with pytest.raises(Graph6Error, match=r"^graph6 order must be >= 1$"):
        parse_graph6("?")


def test_trailing_garbage_rejected():
    with pytest.raises(Graph6Error, match="^trailing garbage after graph6 body: 'X'$"):
        parse_graph6("A_X")


def test_truncated_rejected():
    with pytest.raises(Graph6Error, match="^truncated graph6 body: need 2 chars, got 0$"):
        parse_graph6("D")


@pytest.mark.parametrize("bad", [" ", ">", "\x7f", "\xe9"])
def test_invalid_body_byte_in_the_middle_rejected(bad):
    # order 7: a 21-bit triangle in 4 chars; index 1 is neither end
    with pytest.raises(Graph6Error, match="^invalid body byte at index 1$"):
        parse_graph6("F?" + bad + "??")


def test_padding_bits_rejected():
    # K2 body with a stray bit beyond the 1-bit triangle
    with pytest.raises(Graph6Error, match="^padding bits set beyond the adjacency triangle$"):
        parse_graph6("A" + chr(63 + 0b110000))


def test_order_bound():
    with pytest.raises(Graph6Error, match="^order 63 exceeds short-form graph6 bound 62$"):
        to_graph6(from_edge_list(63, []))


def test_body_character_above_latin1_rejected():
    # a str body may hold any code point, not only the bytes of a file
    with pytest.raises(Graph6Error, match="^invalid body byte at index 1$"):
        parse_graph6("F?\u20ac??")


@st.composite
def graphs_as_edges(draw, orders=st.integers(1, 62)):
    """(n, edges) of a random graph of order in ``orders``, each edge once
    as (i, j) with i < j, in random order."""
    n = draw(orders)
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    chosen = draw(st.integers(0, (1 << len(pairs)) - 1))
    edges = [e for k, e in enumerate(pairs) if chosen >> k & 1]
    return n, draw(st.permutations(edges))


def _outcome(parse, text):
    try:
        return parse(text)
    except Graph6Error as exc:
        return f"Graph6Error: {exc}"


@settings(deadline=None)
@given(graphs_as_edges())
def test_round_trip_and_encoding_match_oracle(graph):
    n, edges = graph
    text = edges_to_graph6(n, edges)
    assert text == edges_to_graph6_oracle(n, edges)
    assert parse_graph6(text) == from_edge_list(n, edges) == parse_graph6_oracle(text)


# body characters in range, then any code point, lone surrogates included
_CHARS = st.one_of(st.characters(min_codepoint=63, max_codepoint=126),
                   st.characters(max_codepoint=0x2FF), st.sampled_from("\u20ac\ud800\U0001f600"))


@settings(deadline=None)
@given(graphs_as_edges(), st.data())
def test_single_character_corruption_matches_oracle(graph, data):
    text = edges_to_graph6(*graph)
    k = data.draw(st.integers(0, len(text) - 1))
    bad = text[:k] + data.draw(_CHARS) + text[k + 1:]
    assert _outcome(parse_graph6, bad) == _outcome(parse_graph6_oracle, bad)


@settings(deadline=None)
@given(graphs_as_edges(), st.data())
def test_truncation_and_extension_match_oracle(graph, data):
    text = edges_to_graph6(*graph)
    bad = text[:data.draw(st.integers(0, len(text)))] + data.draw(st.text(_CHARS, max_size=3))
    assert _outcome(parse_graph6, bad) == _outcome(parse_graph6_oracle, bad)


@settings(deadline=None)
@given(graphs_as_edges(st.sampled_from([n for n in range(2, 63) if n * (n - 1) // 2 % 6])),
       st.data())
def test_padding_bits_match_oracle(graph, data):
    n, edges = graph
    text = edges_to_graph6(n, edges)
    padding = -(n * (n - 1) // 2) % 6
    bits = data.draw(st.integers(1, (1 << padding) - 1))
    bad = text[:-1] + chr((ord(text[-1]) - 63 | bits) + 63)
    message = "Graph6Error: padding bits set beyond the adjacency triangle"
    assert _outcome(parse_graph6, bad) == _outcome(parse_graph6_oracle, bad) == message


def _reader_view(g):
    """(n, sorted degree pairs, connected) of a Graph, as ``parse_degree_pairs``
    gives them for its graph6 string (which lists the pairs in column order)."""
    return g.n, sorted(g.edge_degree_pairs()), is_connected(g)


def _assert_reader_matches_index_report(g):
    n, pairs, connected = parse_degree_pairs(to_graph6(g))
    assert (n, sorted(pairs), connected) == _reader_view(g)
    if not connected:
        with pytest.raises(DisconnectedGraphError):
            index_report(g)
        return
    got, ref = pairs_report(pairs), index_report(g)
    assert [x.hex() for x in got] == [x.hex() for x in ref]
    assert certified_sign(got.gap, pairs) is certified_sign(ref.gap, g.edge_degree_pairs())


def test_reader_matches_index_report_on_trees():
    for n in range(1, 16):
        for seq in free_tree_sequences(n):
            _assert_reader_matches_index_report(sequence_to_graph(seq))


def test_reader_matches_index_report_on_small_graphs_and_line_graphs():
    for n in range(1, 8):
        for g in internal_universe(n):
            _assert_reader_matches_index_report(g)
            if g.m:
                _assert_reader_matches_index_report(line_graph(g))


@pytest.mark.parametrize("n", range(1, 63))
def test_reader_matches_index_report_on_random_graphs(n):
    rng = random.Random(n)
    for p in (0.0, 0.02, 0.1, 0.3, 0.6, 0.9, 1.0):
        _assert_reader_matches_index_report(from_edge_list(n, _random_edges(n, p, rng)))
    # a random tree (vertex j hangs from a random vertex below it, so
    # the column rule settles it) and the same tree relabelled at random
    edges = [(rng.randrange(j), j) for j in range(1, n)]
    _assert_reader_matches_index_report(from_edge_list(n, edges))
    perm = list(range(n))
    rng.shuffle(perm)
    _assert_reader_matches_index_report(
        from_edge_list(n, [(perm[i], perm[j]) for i, j in edges]))


def _reader_outcome(text):
    try:
        n, pairs, connected = parse_degree_pairs(text)
    except Graph6Error as exc:
        return f"Graph6Error: {exc}"
    return n, sorted(pairs), connected


@settings(deadline=None)
@given(graphs_as_edges(), st.data())
def test_reader_rejects_what_parse_graph6_rejects(graph, data):
    text = edges_to_graph6(*graph)
    k = data.draw(st.integers(0, len(text)))
    bad = text[:k] + data.draw(st.text(_CHARS, max_size=2)) + text[k + 1:]
    expected = _outcome(parse_graph6, bad)
    if not isinstance(expected, str):
        expected = _reader_view(expected)
    assert _reader_outcome(bad) == expected
