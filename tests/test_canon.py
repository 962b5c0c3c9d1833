import math
from itertools import permutations

import pytest

from szf.canon import canonical_form, graph_classes
from szf.families import SplitMix64, complete_multipartite, cycle, hypercube
from szf.graph import disjoint_union

from helpers import random_graph


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


def test_class_counts_follow_oeis_a000088():
    assert [len(graph_classes(n)) for n in range(1, 7)] == [1, 2, 4, 11, 34, 156]


@pytest.mark.parametrize("n", range(7))
def test_class_weights_count_every_labeled_graph(n):
    assert sum(math.factorial(n) // aut for _, aut in graph_classes(n)) == 2 ** math.comb(n, 2)


@pytest.mark.parametrize("n", range(1, 6))
def test_aut_is_the_number_of_automorphisms(n):
    for rows, aut in graph_classes(n):
        fixed = sum(relabel(rows, perm) == rows for perm in permutations(range(n)))
        assert aut == fixed, rows


@pytest.mark.parametrize("n", range(7, 11))
def test_code_is_invariant_under_relabeling(n):
    for seed in range(6):
        rows = random_graph(n, 100 * n + seed, percent=15 + 14 * seed).bit_adjacency
        code, aut = canonical_form(rows, n)
        for k in range(3):
            perm = splitmix_permutation(n, 1000 * seed + k)
            assert canonical_form(relabel(rows, perm), n) == (code, aut)


@pytest.mark.parametrize("g,order", [
    (cycle(9), 18), (hypercube(3), 48), (complete_multipartite([3, 3, 3]), 6 ** 4),
    # 2-regular, so refinement cannot tell a C6 vertex from a triangle
    # vertex: the tree has leaves that no automorphism relates.
    (disjoint_union(cycle(6), disjoint_union(cycle(3), cycle(3))), 12 * 72),
])
def test_symmetric_graphs_keep_their_code_and_group_order(g, order):
    code, aut = canonical_form(g.bit_adjacency, g.n)
    assert aut == order
    perm = splitmix_permutation(g.n, 7)
    assert canonical_form(relabel(g.bit_adjacency, perm), g.n) == (code, aut)


def test_code_separates_graphs_that_colour_refinement_cannot():
    # Both are 2-regular on six vertices, so refinement keeps the unit
    # partition and only individualization tells them apart.
    c6 = canonical_form(cycle(6).bit_adjacency, 6)
    two_triangles = canonical_form(disjoint_union(cycle(3), cycle(3)).bit_adjacency, 6)
    assert c6[0] != two_triangles[0]
    assert (c6[1], two_triangles[1]) == (12, 72)
