import networkx as nx
import pytest

from graphtheta.graph6 import Graph6Error, parse_graph6, to_graph6
from graphtheta.graphs import from_edge_list
from graphtheta.treegen import enumerate_trees

from conftest import complete_graph, cycle_graph


def test_single_edge_encoding():
    assert to_graph6(from_edge_list(2, [(0, 1)])) == "A_"
    g = parse_graph6("A_")
    assert g.n == 2 and list(g.edges()) == [(0, 1)]


def test_roundtrip_all_trees_up_to_8():
    for n in range(1, 9):
        for g in enumerate_trees(n):
            h = parse_graph6(to_graph6(g))
            assert h.n == g.n and list(h.edges()) == list(g.edges())


def test_matches_reference_codec():
    # cross-check both directions against networkx's graph6 implementation
    samples = [cycle_graph(6), complete_graph(5)] + list(enumerate_trees(7))
    for g in samples:
        G = nx.empty_graph(g.n)
        G.add_edges_from(g.edges())
        ref = nx.to_graph6_bytes(G, header=False).strip().decode()
        assert to_graph6(g) == ref
        back = nx.from_graph6_bytes(to_graph6(g).encode())
        assert sorted(back.edges()) == list(g.edges())


def test_empty_string_rejected():
    with pytest.raises(Graph6Error):
        parse_graph6("")


def test_prefix_without_body_rejected():
    with pytest.raises(Graph6Error, match="empty graph6 string"):
        parse_graph6(">>graph6<<")


def test_trailing_garbage_rejected():
    with pytest.raises(Graph6Error):
        parse_graph6("A_X")


def test_truncated_rejected():
    with pytest.raises(Graph6Error):
        parse_graph6("D")


def test_padding_bits_rejected():
    # K2 body with a stray bit beyond the 1-bit triangle
    with pytest.raises(Graph6Error):
        parse_graph6("A" + chr(63 + 0b110000))


def test_order_bound():
    with pytest.raises(Graph6Error):
        to_graph6(from_edge_list(63, []))
