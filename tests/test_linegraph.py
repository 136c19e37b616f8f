import pytest

from graphtheta.canon import canonical_key
from graphtheta.graphs import GraphError, Shape, classify_shape, from_edge_list
from graphtheta.linegraph import is_line_graph, line_graph
from graphtheta.smallgraphs import internal_universe

from conftest import cycle_graph, path_graph, star_graph


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


class TestRecognition:
    def test_claw_rejected_with_witness(self):
        assert not is_line_graph(star_graph(3))

    def test_c5_accepted(self):
        assert is_line_graph(cycle_graph(5))

    def test_sound_on_constructed_line_graphs(self):
        for n in range(2, 7):
            for k in internal_universe(n):
                res = is_line_graph(line_graph(k), max_order=15)
                assert res, f"rejected line graph of {k}"

    def test_order_bound(self):
        with pytest.raises(GraphError):
            is_line_graph(cycle_graph(13))
        assert is_line_graph(cycle_graph(13), max_order=13)


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
