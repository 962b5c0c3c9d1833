import hashlib
import math
from functools import lru_cache
from itertools import permutations

import pytest

from szf.canon import _search, canonical_form, graph_classes, labeled_classes
from szf.families import SplitMix64, complete, complete_multipartite, cycle, hypercube
from szf.graph import disjoint_union

from helpers import random_graph, unpruned_canonical_form, unpruned_graph_classes


def relabel(rows, perm):
    """Bit-set rows of the graph with vertex v renamed perm[v]."""
    out = [0] * len(rows)
    for v, row in enumerate(rows):
        out[perm[v]] = sum(1 << perm[u] for u in range(len(rows)) if row >> u & 1)
    return tuple(out)


def splitmix_permutation(n, seed):
    rng = SplitMix64(seed)
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.below(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def is_automorphism(rows, perm):
    return relabel(rows, perm) == tuple(rows)


# Growing order 8 takes seconds; the tests that read it share one growth,
# kept as a list since a generator is exhausted by its first reader.
@lru_cache
def cached_classes(n):
    return list(graph_classes(n))


def test_class_counts_follow_oeis_a000088():
    assert ([len(cached_classes(n)) for n in range(1, 9)]
            == [1, 2, 4, 11, 34, 156, 1044, 12346])


def test_classes_stream_depth_first(monkeypatch):
    # The first order-8 class follows at most one search per order. Draining
    # the growth searches every kept child below order 8, but of order 8 only
    # those whose new vertex shares the greatest (degree, neighbour-degree
    # sum) with another vertex.
    calls = []
    monkeypatch.setattr("szf.canon._search", lambda rows, n: calls.append(n) or _search(rows, n))
    classes = iter(graph_classes(8))
    next(classes)
    assert len(calls) <= 8
    assert sum(1 for _ in classes) == 12345 and len(calls) == 5659


# sha256 of repr(list(graph_classes(n))): the stream, rows and aut in
# order. A faster growth must yield it unchanged.
STREAM_DIGESTS = [
    "b94b1cb7d1cbc4e4791574cd93e5514a2b093fe640d2f7d3843a71615941f761",
    "502b58bc64726f44106e1251db04bf9d010ef7a01a63c0be646b5916cd516c63",
    "258f317620134ffd44f56c7ac6c2587d9be87132adaa97d988a770cc315f5f53",
    "f1b312b1825672988c165f11394f1e31f9b883aa92f83ad3630c8b3b4cf4bf23",
    "56d1a68e8487136cc1e86a108e44a7ca34386d90185ded52146261dfe2aeb567",
    "cfeb47b04b00b0b67b1c44d121e48e89779a20c308cc2ac55eece6a0874b5c8f",
    "ec10cea19b79dfcb7fbc2ecdc2d1b5d528667f3393d1d29b98c9b827c5f42cc5",
    "4c95659f3b25418661586772b6ce31b999f695dd34c84893492cc6317bafd4a4",
]


@pytest.mark.parametrize("n", range(8))
def test_class_stream_is_pinned(n):
    digest = hashlib.sha256(repr(cached_classes(n)).encode()).hexdigest()
    assert digest == STREAM_DIGESTS[n]


@pytest.mark.parametrize("n", range(9))
def test_class_weights_count_every_labeled_graph(n):
    assert sum(math.factorial(n) // aut for _, aut in cached_classes(n)) == 2 ** math.comb(n, 2)


def test_labeled_stream_searches_nothing_of_its_last_order(monkeypatch):
    # Only the kept children below order 8 are searched: 1307 searches,
    # none of order 8, where graph_classes(8) makes 5659.
    calls = []
    monkeypatch.setattr("szf.canon._search", lambda rows, n: calls.append(n) or _search(rows, n))
    assert sum(1 for _ in labeled_classes(8)) == 13348
    assert len(calls) == 1307 and max(calls) == 7


@pytest.mark.parametrize("n", range(9))
def test_labeled_weights_count_every_labeled_graph(n):
    unit = math.lcm(*range(1, n + 1))
    total = sum(weight for _, weight in labeled_classes(n))
    assert total == unit << math.comb(n, 2)


@pytest.mark.parametrize("n", range(8))
def test_labeled_weights_of_a_class_add_up_to_its_copies(n):
    # Each class has children in the stream, and their weights, in units of
    # 1/lcm(1..n), add up to the class's n!/|Aut| labeled graphs.
    unit = math.lcm(*range(1, n + 1))
    grown = {}
    for rows, weight in labeled_classes(n):
        code = canonical_form(rows, n)[0]
        grown[code] = grown.get(code, 0) + weight
    assert grown == {canonical_form(rows, n)[0]: unit * math.factorial(n) // aut
                     for rows, aut in cached_classes(n)}


@pytest.mark.parametrize("n", range(1, 6))
def test_aut_is_the_number_of_automorphisms(n):
    for rows, aut in graph_classes(n):
        fixed = sum(relabel(rows, perm) == rows for perm in permutations(range(n)))
        assert aut == fixed, rows


@pytest.mark.parametrize("n", range(6, 9))
def test_aut_matches_the_search_of_each_class(n):
    # At order n most classes take |Aut| from their parent's group.
    for rows, aut in cached_classes(n):
        assert aut == canonical_form(rows, n)[1], rows


@pytest.mark.parametrize("n", range(7, 11))
def test_code_is_invariant_under_relabeling(n):
    for seed in range(6):
        rows = random_graph(n, 100 * n + seed, percent=15 + 14 * seed).bit_adjacency
        code, aut = canonical_form(rows, n)
        for k in range(3):
            perm = splitmix_permutation(n, 1000 * seed + k)
            assert canonical_form(relabel(rows, perm), n) == (code, aut)


SYMMETRIC = [
    (cycle(9), 18), (hypercube(3), 48), (complete_multipartite([3, 3, 3]), 6 ** 4),
    # 2-regular, so refinement cannot tell a C6 vertex from a triangle
    # vertex: the tree has leaves that no automorphism relates.
    (disjoint_union(cycle(6), disjoint_union(cycle(3), cycle(3))), 12 * 72),
    # 10! and 24^5 leaves reach the code: too many for the unpruned search.
    (complete(10), math.factorial(10)), (complete_multipartite([4, 4, 4, 4]), 24 ** 5),
    (hypercube(4), 384), (cycle(24), 48),
]


@pytest.mark.parametrize("g,order", SYMMETRIC)
def test_symmetric_graphs_keep_their_code_and_group_order(g, order):
    code, aut, generators, _, _ = _search(g.bit_adjacency, g.n)
    assert aut == order
    assert all(is_automorphism(g.bit_adjacency, perm) for perm in generators)
    # Each generator joins the orbit of a searched child to the first
    # child's, so a search that abandons its subtree finds at most n - 1.
    assert len(generators) <= g.n - 1
    perm = splitmix_permutation(g.n, 7)
    assert canonical_form(relabel(g.bit_adjacency, perm), g.n) == (code, aut)


@pytest.mark.parametrize("g", [g for g, _ in SYMMETRIC[:4]])
def test_pruned_form_matches_the_unpruned_oracle_on_symmetric_graphs(g):
    assert canonical_form(g.bit_adjacency, g.n) == unpruned_canonical_form(g.bit_adjacency, g.n)


@pytest.mark.parametrize("n", range(7))
def test_pruned_form_matches_the_unpruned_oracle_on_every_class(n):
    for rows, _ in graph_classes(n):
        for seed in range(3):
            relabeled = relabel(rows, splitmix_permutation(n, 31 * n + seed))
            code, aut, generators, _, _ = _search(relabeled, n)
            assert (code, aut) == unpruned_canonical_form(relabeled, n), rows
            assert all(is_automorphism(relabeled, perm) for perm in generators), rows


@pytest.mark.parametrize("n", range(7))
def test_pruned_growth_matches_the_unpruned_oracle(n):
    # Each representative is the child that canonical augmentation keeps,
    # not the first graph reached, so the classes are compared by code.
    grown, oracle = list(graph_classes(n)), unpruned_graph_classes(n)
    assert len(grown) == len(oracle)
    assert ({unpruned_canonical_form(rows, n)[0]: aut for rows, aut in grown}
            == {unpruned_canonical_form(rows, n)[0]: aut for rows, aut in oracle})


def relabeled_code(rows, order):
    """The adjacency bits of the graph relabeled by `order` (order[i] -> i)."""
    canonical = relabel(rows, [order.index(v) for v in range(len(rows))])
    return sum(row << len(rows) * i for i, row in enumerate(canonical))


@pytest.mark.parametrize("n", range(6))
def test_search_returns_the_orbits_and_the_canonical_order(n):
    for classed, _ in unpruned_graph_classes(n):
        for seed in range(3):
            rows = relabel(classed, splitmix_permutation(n, 17 * n + seed))
            code, _, _, orbit, order = _search(rows, n)
            automorphisms = [p for p in permutations(range(n)) if is_automorphism(rows, p)]
            assert orbit == [min(p[v] for p in automorphisms) for v in range(n)], rows
            assert relabeled_code(rows, order) == code, rows


def deletion_orbit(rows, n):
    """The orbit of the vertex that `graph_classes` deletes: the first of the
    canonical order with the greatest (degree, sum of neighbour degrees)."""
    _, _, _, orbit, order = _search(rows, n)
    degree = [row.bit_count() for row in rows]
    pair = [(d, sum(degree[u] for u in range(n) if row >> u & 1)) for d, row in zip(degree, rows)]
    chosen = next(v for v in order if pair[v] == max(pair))
    return {v for v in range(n) if orbit[v] == orbit[chosen]}


@pytest.mark.parametrize("n", range(7, 11))
def test_deletion_orbit_follows_a_relabeling(n):
    for seed in range(6):
        rows = random_graph(n, 100 * n + seed, percent=15 + 14 * seed).bit_adjacency
        orbit = deletion_orbit(rows, n)
        for k in range(3):
            perm = splitmix_permutation(n, 1000 * seed + k)
            assert deletion_orbit(relabel(rows, perm), n) == {perm[v] for v in orbit}


@pytest.mark.parametrize("n", range(8))
def test_graph_classes_keep_no_class_twice(n):
    codes = set()
    for rows, _ in cached_classes(n):
        code, _, _, _, order = _search(rows, n)
        # At order 7 two classes have a least leaf that is not the first.
        assert relabeled_code(rows, order) == code and code not in codes, rows
        codes.add(code)


def test_code_separates_graphs_that_colour_refinement_cannot():
    # Both are 2-regular on six vertices, so refinement keeps the unit
    # partition and only individualization tells them apart.
    c6 = canonical_form(cycle(6).bit_adjacency, 6)
    two_triangles = canonical_form(disjoint_union(cycle(3), cycle(3)).bit_adjacency, 6)
    assert c6[0] != two_triangles[0]
    assert (c6[1], two_triangles[1]) == (12, 72)
