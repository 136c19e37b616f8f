import random

import networkx as nx
import pytest

from graphtheta import treegen
from graphtheta.graph6 import Graph6Error, parse_graph6, to_graph6
from graphtheta.graphs import from_edge_list
from graphtheta.treegen import free_tree_sequences, sequence_to_graph

from conftest import complete_graph, cycle_graph


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
