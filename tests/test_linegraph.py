import networkx as nx
import pytest

from graphtheta.graphs import GraphError, Shape, classify_shape, from_edge_list
from graphtheta.linegraph import line_graph_pairs
from graphtheta.smallgraphs import internal_universe

from conftest import (
    canonical_key,
    cycle_graph,
    is_line_graph,
    line_graph,
    path_graph,
    random_connected_graphs,
    star_graph,
)


class TestConstruction:
    def test_path_shrinks(self):
        for n in range(2, 8):
            assert classify_shape(line_graph(path_graph(n))) is Shape.PATH
            assert line_graph(path_graph(n)).n == n - 1

    def test_cycle_fixed_point(self):
        for n in range(3, 8):
            lg = line_graph(cycle_graph(n))
            assert classify_shape(lg) is Shape.CYCLE and lg.n == n

    def test_claw_becomes_triangle(self):
        lg = line_graph(star_graph(3))
        assert lg.n == 3 and lg.m == 3

    def test_rejects_edgeless(self):
        with pytest.raises(GraphError):
            line_graph(from_edge_list(1, []))

    def test_size_and_degree_identities(self):
        # |V(L)| = m, |E(L)| = sum C(d,2), vertex degrees d_u + d_v - 2
        for n in range(2, 7):
            for k in internal_universe(n):
                lg = line_graph(k)
                assert lg.n == k.m
                assert lg.m == sum(d * (d - 1) // 2 for d in k.degrees)
                for i, (u, v) in enumerate(k.edges()):
                    assert lg.degrees[i] == k.degrees[u] + k.degrees[v] - 2


    def test_matches_networkx(self):
        # internal universes and a seeded set of connected order-10 graphs
        graphs = [k for n in range(2, 8) for k in internal_universe(n)]
        graphs += random_connected_graphs(10, 50, seed=10)
        for k in graphs:
            lg = line_graph(k)
            nx_lg = nx.line_graph(nx.Graph(list(k.edges())))
            index = {e: i for i, e in enumerate(k.edges())}
            expected = sorted(
                tuple(sorted((index[tuple(sorted(a))], index[tuple(sorted(b))])))
                for a, b in nx_lg.edges()
            )
            assert lg.n == nx_lg.number_of_nodes() == k.m
            assert sorted(lg.edges()) == expected


def _sorted_pairs(pairs):
    return sorted(tuple(sorted(p)) for p in pairs)


@pytest.mark.parametrize("order", [2, 3, 4, 5, 6, 7, 10])
def test_line_graph_pairs_match_two_oracles(order):
    # every connected graph of orders 2..7, and 50 seeded ones of order 10
    roots = internal_universe(order) if order <= 7 else random_connected_graphs(10, 50, seed=10)
    for k in roots:
        got = _sorted_pairs(line_graph_pairs(k))
        assert got == _sorted_pairs(line_graph(k).edge_degree_pairs()), k
        nx_lg = nx.line_graph(nx.Graph(list(k.edges())))
        assert got == _sorted_pairs((nx_lg.degree[a], nx_lg.degree[b])
                                    for a, b in nx_lg.edges()), k


def test_line_graph_pairs_of_edgeless_root():
    assert line_graph_pairs(from_edge_list(1, [])) == []


class TestRecognition:
    def test_claw_rejected_with_witness(self):
        assert not is_line_graph(star_graph(3))

    def test_c5_accepted(self):
        assert is_line_graph(cycle_graph(5))

    def test_sound_on_constructed_line_graphs(self):
        for n in range(2, 7):
            for k in internal_universe(n):
                res = is_line_graph(line_graph(k))
                assert res, f"rejected line graph of {k}"


def root_search_oracle(g, roots_by_edge_count):
    gk = canonical_key(g)
    return any(
        canonical_key(line_graph(k)) == gk for k in roots_by_edge_count.get(g.n, [])
    )


@pytest.fixture(scope="module")
def roots_by_edge_count():
    roots = {}
    for n in range(2, 8):
        for k in internal_universe(n):
            if 1 <= k.m <= 6:
                roots.setdefault(k.m, []).append(k)
    return roots


def test_recognition_complete_up_to_order_6(roots_by_edge_count):
    # agree with brute-force root reconstruction on every connected graph
    positives = negatives = 0
    for n in range(1, 7):
        for g in internal_universe(n):
            expected = root_search_oracle(g, roots_by_edge_count)
            assert bool(is_line_graph(g)) == expected, g
            positives += expected
            negatives += not expected
    assert positives and negatives  # both directions exercised
