import pytest
from hypothesis import given, strategies as st

from graphtheta.graphs import (
    DisconnectedGraphError,
    DuplicateEdgeError,
    GraphError,
    SelfLoopError,
    Shape,
    VertexOutOfRange,
    classify_shape,
    from_edge_list,
    is_connected,
    min_degree,
    subdivide_at_degree2,
)

from conftest import complete_graph, cycle_graph, path_graph, spider, star_graph


class TestFromEdgeList:
    def test_triangle(self):
        g = from_edge_list(3, [(0, 1), (1, 2), (2, 0)])
        assert g.degrees == (2, 2, 2)
        assert g.m == 3

    def test_single_edge(self):
        g = from_edge_list(2, [(0, 1)])
        assert g.degrees == (1, 1)

    def test_star(self):
        g = from_edge_list(4, [(0, 1), (0, 2), (0, 3)])
        assert g.degrees == (3, 1, 1, 1)

    def test_out_of_range(self):
        with pytest.raises(VertexOutOfRange):
            from_edge_list(3, [(0, 3)])

    def test_self_loop(self):
        with pytest.raises(SelfLoopError):
            from_edge_list(3, [(1, 1)])

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateEdgeError):
            from_edge_list(3, [(0, 1), (1, 0)])

    @given(st.integers(2, 12), st.data())
    def test_degree_sum_is_twice_edge_count(self, n, data):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        picked = data.draw(st.sets(st.sampled_from(pairs)))
        g = from_edge_list(n, sorted(picked))
        assert sum(g.degrees) == 2 * g.m
        for u in range(n):
            for v in g.adj[u]:
                assert u in g.adj[v]


class TestConnectivity:
    def test_path(self):
        assert is_connected(path_graph(5))

    def test_two_disjoint_edges(self):
        assert not is_connected(from_edge_list(4, [(0, 1), (2, 3)]))

    def test_single_vertex(self):
        assert is_connected(from_edge_list(1, []))


class TestQueries:
    def test_min_degree(self):
        assert min_degree(cycle_graph(7)) == 2
        assert min_degree(path_graph(3)) == 1
        assert min_degree(complete_graph(4)) == 3


class TestSubdivide:
    def test_triangle_to_square(self):
        g = subdivide_at_degree2(cycle_graph(3), 0, (0, 1))
        assert classify_shape(g) is Shape.CYCLE
        assert g.n == 4

    def test_path_grows(self):
        g = subdivide_at_degree2(path_graph(4), 1, (1, 2))
        assert classify_shape(g) is Shape.PATH
        assert g.n == 5

    def test_new_vertex_degree_two(self):
        g = subdivide_at_degree2(cycle_graph(5), 2, (2, 3))
        assert g.degrees[5] == 2

    def test_rejects_wrong_degree(self):
        with pytest.raises(GraphError):
            subdivide_at_degree2(star_graph(3), 0, (0, 1))

    def test_rejects_non_incident_edge(self):
        with pytest.raises(GraphError):
            subdivide_at_degree2(path_graph(5), 1, (3, 4))

    @given(st.lists(st.integers(0, 100), min_size=2, max_size=12), st.data())
    def test_preserves_degree_multiset(self, parents, data):
        n = len(parents) + 1
        g = from_edge_list(n, [(p % (i + 1), i + 1) for i, p in enumerate(parents)])
        deg2 = [v for v in range(n) if g.degrees[v] == 2]
        if not deg2:
            return
        x = data.draw(st.sampled_from(deg2))
        w = data.draw(st.sampled_from(list(g.adj[x])))
        h = subdivide_at_degree2(g, x, (x, w))
        assert h.n == g.n + 1 and h.m == g.m + 1
        assert sorted(h.degrees) == sorted(g.degrees + (2,))


class TestClassifyShape:
    def test_small(self):
        assert classify_shape(path_graph(6)) is Shape.PATH
        assert classify_shape(cycle_graph(6)) is Shape.CYCLE
        assert classify_shape(star_graph(4)) is Shape.OTHER
        assert classify_shape(path_graph(1)) is Shape.PATH
        assert classify_shape(path_graph(2)) is Shape.PATH

    def test_spider_is_other(self):
        assert classify_shape(spider(1, 2, 2)) is Shape.OTHER

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            classify_shape(from_edge_list(4, [(0, 1), (2, 3)]))
