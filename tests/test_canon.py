import random
from itertools import combinations, permutations, product

import networkx as nx
import pytest
from networkx.algorithms import isomorphism

from graphtheta import canon
from graphtheta.canon import canonical_search
from graphtheta.graphs import from_edge_list, is_connected
from graphtheta.smallgraphs import internal_universe

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


def _degree_sorted_orderings(g):
    """Every ordering of g's vertices by ascending degree."""
    by_degree = {}
    for v in range(g.n):
        by_degree.setdefault(g.degrees[v], []).append(v)
    groups = [permutations(by_degree[d]) for d in sorted(by_degree)]
    for parts in product(*groups):
        yield tuple(v for part in parts for v in part)


def _oracle(g):
    """The least key over every degree-sorted ordering, and the orderings
    that attain it: a search with no pruning."""
    if g.n == 1:
        return bytes([1]), {(0,)}
    keys = {q: _key_under(g, q) for q in _degree_sorted_orderings(g)}
    least = min(keys.values())
    return least, {q for q, k in keys.items() if k == least}


def _masks(g):
    return [sum(1 << v for v in nbrs) for nbrs in g.adj]


def complete_multipartite(*sizes):
    parts, start = [], 0
    for s in sizes:
        parts.append(range(start, start + s))
        start += s
    return from_edge_list(
        start, [(u, v) for a, b in combinations(parts, 2) for u in a for v in b]
    )


def k7_minus_matching():
    """K7 less three disjoint edges (K7 has no perfect matching): three
    pairs of false twins of degree 5 and one vertex of degree 6."""
    return from_edge_list(
        7, [e for e in combinations(range(7), 2) if e not in {(0, 1), (2, 3), (4, 5)}]
    )


TWIN_HEAVY = {
    "K7": complete_graph(7),
    "K1_6": star_graph(6),
    "K3_4": complete_multipartite(3, 4),
    "K7-M": k7_minus_matching(),
    "K2_2_2": complete_multipartite(2, 2, 2),
    "K1_2_3": complete_multipartite(1, 2, 3),
    "K2_2_3": complete_multipartite(2, 2, 3),
    "K1_1_2_3": complete_multipartite(1, 1, 2, 3),
}


def _random_graphs(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 7)
        p = rng.random()
        yield from_edge_list(n, [e for e in combinations(range(n), 2) if rng.random() < p])


def _check_against_oracle(g):
    key, attaining = _oracle(g)
    assert canon.canonical_key(_masks(g), g.degrees) == key
    search_key, orderings = canon.canonical_search(_masks(g), g.degrees)
    assert search_key == key
    assert len(orderings) == len(set(orderings))
    assert set(orderings) == attaining


@pytest.mark.parametrize("name", list(TWIN_HEAVY))
def test_key_and_search_match_unpruned_oracle_on_twin_heavy_graphs(name):
    g = TWIN_HEAVY[name]
    rng = random.Random(name)
    perm = list(range(g.n))
    for _ in range(3):  # twins in scattered, not contiguous, positions
        _check_against_oracle(relabel(g, perm))
        rng.shuffle(perm)


def test_key_and_search_match_unpruned_oracle_on_random_graphs():
    # disconnected graphs too: the key does not need connectivity
    for g in _random_graphs(20261018, 150):
        _check_against_oracle(g)


def test_key_is_first_of_search_on_every_graph_up_to_order_7():
    for n in range(1, 8):
        for g in internal_universe(n):
            m = _masks(g)
            assert canon.canonical_key(m, g.degrees) == canon.canonical_search(m, g.degrees)[0]
