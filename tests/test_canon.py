import random
from itertools import combinations, permutations, product

import pytest

from graphtheta import canon
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


def _key_under(g, ordering):
    """The key's byte string of g with its vertices listed in ``ordering``."""
    bits = 0
    for pos, v in enumerate(ordering):
        for u in ordering[:pos]:
            bits = bits << 1 | g.has_edge(v, u)
    total = g.n * (g.n - 1) // 2
    return bytes([g.n]) + bits.to_bytes((total + 7) // 8, "big")


def _degree_sorted_orderings(g):
    """Every ordering of g's vertices by ascending degree."""
    by_degree = {}
    for v in range(g.n):
        by_degree.setdefault(g.degrees[v], []).append(v)
    groups = [permutations(by_degree[d]) for d in sorted(by_degree)]
    for parts in product(*groups):
        yield tuple(v for part in parts for v in part)


def _oracle(g):
    """The least key over every degree-sorted ordering: a search with no
    pruning."""
    if g.n == 1:
        return bytes([1])
    return min(_key_under(g, q) for q in _degree_sorted_orderings(g))


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
    assert canon.canonical_key(_masks(g), g.degrees) == _oracle(g)


def _brute_force_lower_twins(g):
    """u < v are twins iff they have equal degree and equal masks once
    bits u and v are cleared."""
    masks = _masks(g)
    before = [0] * g.n
    for u, v in combinations(range(g.n), 2):
        keep = ~(1 << u | 1 << v)
        if g.degrees[u] == g.degrees[v] and masks[u] & keep == masks[v] & keep:
            before[v] |= 1 << u
    return before


def _check_lower_twins(g):
    before = canon.lower_twins(_masks(g), g.degrees)
    assert before == _brute_force_lower_twins(g)
    edges = {frozenset(e) for e in g.edges()}
    for v in range(g.n):
        for u in range(v):
            if before[v] >> u & 1:  # swapping u and v maps the edge set onto itself
                swap = {u: v, v: u}
                assert {frozenset(swap.get(x, x) for x in e) for e in edges} == edges


def _relabelings(name):
    """Three labelings of TWIN_HEAVY[name]: twins in scattered, not
    contiguous, positions."""
    g = TWIN_HEAVY[name]
    rng = random.Random(name)
    perm = list(range(g.n))
    for _ in range(3):
        yield relabel(g, perm)
        rng.shuffle(perm)


@pytest.mark.parametrize("name", list(TWIN_HEAVY))
def test_key_and_search_match_unpruned_oracle_on_twin_heavy_graphs(name):
    for g in _relabelings(name):
        _check_against_oracle(g)


def test_key_and_search_match_unpruned_oracle_on_random_graphs():
    # disconnected graphs too: the key does not need connectivity
    for g in _random_graphs(20261018, 150):
        _check_against_oracle(g)


@pytest.mark.parametrize("name", list(TWIN_HEAVY))
def test_lower_twins_match_definition_on_twin_heavy_graphs(name):
    for g in _relabelings(name):
        _check_lower_twins(g)


def test_lower_twins_match_definition_on_random_graphs():
    for g in _random_graphs(20261018, 150):
        _check_lower_twins(g)
