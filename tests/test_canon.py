import random
from itertools import combinations

import networkx as nx
import pytest
from networkx.algorithms import isomorphism

from graphtheta.canon import canonical_search
from graphtheta.graphs import from_edge_list, is_connected

from conftest import canonical_key, complete_graph, cycle_graph, path_graph, star_graph


def relabel(g, perm):
    return from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def test_relabeling_invariance_path():
    p = path_graph(4)
    assert canonical_key(p) == canonical_key(relabel(p, [2, 0, 3, 1]))


def test_distinguishes_path_from_star():
    assert canonical_key(path_graph(4)) != canonical_key(star_graph(3))


def test_connected_order4_classes_by_brute_force():
    # independent oracle: all edge subsets on 4 vertices, count distinct keys
    pairs = list(combinations(range(4), 2))
    keys = set()
    for mask in range(1 << 6):
        g = from_edge_list(4, [pairs[i] for i in range(6) if mask >> i & 1])
        if is_connected(g):
            keys.add(canonical_key(g))
    assert len(keys) == 6


@pytest.mark.parametrize(
    "g",
    [path_graph(7), cycle_graph(8), star_graph(6), cycle_graph(5)],
    ids=["P7", "C8", "K1_6", "C5"],
)
def test_thousand_random_relabelings(g):
    rng = random.Random(20240817)
    key = canonical_key(g)
    perm = list(range(g.n))
    for _ in range(1000):
        rng.shuffle(perm)
        assert canonical_key(relabel(g, perm)) == key


def _search(g):
    return canonical_search([sum(1 << v for v in nbrs) for nbrs in g.adj], list(g.degrees))


def _key_under(g, ordering):
    """The key's byte string of g with its vertices listed in ``ordering``."""
    bits = 0
    for pos, v in enumerate(ordering):
        for u in ordering[:pos]:
            bits = bits << 1 | g.has_edge(v, u)
    total = g.n * (g.n - 1) // 2
    return bytes([g.n]) + bits.to_bytes((total + 7) // 8, "big")


def _automorphism_count(g):
    nxg = nx.Graph(list(g.edges()))
    nxg.add_nodes_from(range(g.n))
    return sum(1 for _ in isomorphism.GraphMatcher(nxg, nxg).isomorphisms_iter())


@pytest.mark.parametrize(
    "g",
    [complete_graph(7), cycle_graph(7), path_graph(7), star_graph(6)],
    ids=["K7", "C7", "P7", "K1_6"],
)
def test_search_orderings_count_automorphisms(g):
    key, orderings = _search(g)
    assert key == canonical_key(g)
    assert len(orderings) == _automorphism_count(g)


def test_search_orderings_count_automorphisms_up_to_order_6(universes_1_to_6):
    for universe in universes_1_to_6:
        for g in universe:
            key, orderings = _search(g)
            assert len(orderings) == len(set(orderings)) == _automorphism_count(g)
            if g.n > 1:
                assert {_key_under(g, q) for q in orderings} == {key}
