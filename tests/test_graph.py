import math

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from szf.graph import (
    Graph, _ball, ball, complement, components, corona, diameter, disjoint_union,
    distance, from_edge_list, induced_subgraph, join, leaves, min_degree,
)
from szf.families import complete, cycle, path, spider, star

from helpers import all_graphs, brute_isomorphic, random_graph


def test_from_edge_list_p3():
    g = from_edge_list(3, [(0, 1), (1, 2)])
    assert g.n == 3
    assert list(g.edges()) == [(0, 1), (1, 2)]
    assert g.degree(1) == 2


def test_from_edge_list_k1_and_2k2():
    assert from_edge_list(1, []).n == 1
    g = from_edge_list(4, [(0, 1), (2, 3)])
    assert g.num_edges() == 2
    assert len(components(g)) == 2


def test_from_edge_list_dedupes_both_orientations():
    g = from_edge_list(2, [(0, 1), (1, 0), (0, 1)])
    assert g.num_edges() == 1


def test_from_edge_list_rejects_loops_and_out_of_range():
    with pytest.raises(ValueError):
        from_edge_list(2, [(0, 0)])
    with pytest.raises(ValueError):
        from_edge_list(2, [(0, 2)])
    with pytest.raises(ValueError):
        from_edge_list(2, [(-1, 0)])


def test_graph_constructor_rejects_asymmetric_adjacency():
    with pytest.raises(ValueError):
        Graph(2, (frozenset({1}), frozenset()))


def test_disjoint_union_relabels_by_offset():
    k2 = complete(2)
    g = disjoint_union(k2, k2)
    assert list(g.edges()) == [(0, 1), (2, 3)]


def test_join_star_shape():
    g = join(complete(1), from_edge_list(3, []))
    assert brute_isomorphic(g, star(3))


def test_complement_p4_is_self_complementary():
    p4 = path(4)
    assert brute_isomorphic(complement(p4), p4)


def test_complement_is_involution():
    g = random_graph(7, seed=3)
    assert complement(complement(g)) == g


@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2 ** 10))
@settings(max_examples=60, deadline=None)
def test_join_edge_count(n1, n2, seed):
    g1 = random_graph(n1, seed)
    g2 = random_graph(n2, seed + 1)
    j = join(g1, g2)
    assert j.num_edges() == g1.num_edges() + g2.num_edges() + n1 * n2


def test_corona_k2_k1_is_p4():
    assert brute_isomorphic(corona(complete(2), complete(1)), path(4))


def test_corona_k1_k1_is_k2():
    assert corona(complete(1), complete(1)) == complete(2)


def test_corona_c3_k2_structure():
    g = corona(cycle(3), complete(2))
    assert g.n == 9
    for i in range(3):
        pair = {3 + 2 * i, 4 + 2 * i}
        assert g.adj[i] >= pair
        a, b = sorted(pair)
        assert b in g.adj[a]
    assert g.num_edges() == 3 + 3 * 3


def test_corona_k1_leaf_count():
    g = corona(cycle(4), complete(1))
    assert len(leaves(g)) == 4


def test_induced_subgraph_examples():
    assert induced_subgraph(path(4), {0, 1, 2}) == path(3)
    assert induced_subgraph(complete(4), {1, 3}) == complete(2)
    assert induced_subgraph(cycle(5), {0, 2}).num_edges() == 0


def test_induced_subgraph_rejects_bad_ids():
    with pytest.raises(ValueError):
        induced_subgraph(path(3), {0, 5})


def test_distance_and_diameter():
    p5 = path(5)
    assert distance(p5, 0, 4) == 4
    assert diameter(p5) == 4
    two = from_edge_list(4, [(0, 1), (2, 3)])
    assert distance(two, 0, 2) == math.inf
    assert diameter(two) == math.inf


def test_diameter_empty_graph_is_an_error():
    with pytest.raises(ValueError):
        diameter(from_edge_list(0, []))


def test_ball_examples():
    p5 = path(5)
    assert ball(p5, 0, 2) == frozenset({0, 1, 2})
    assert ball(p5, 2, 0) == frozenset({2})


def test_out_of_range_arguments_are_refused():
    p3 = path(3)
    for call in (lambda: distance(p3, 0, 3), lambda: distance(p3, -1, 0),
                 lambda: ball(p3, 3, 1)):
        with pytest.raises(ValueError, match="^vertex out of range$"):
            call()
    with pytest.raises(ValueError, match="^radius must be nonnegative$"):
        ball(p3, 0, -1)
    with pytest.raises(ValueError, match="^corona needs a nonempty first factor$"):
        corona(from_edge_list(0, []), complete(1))
    with pytest.raises(ValueError, match="^minimum degree of the empty graph is undefined$"):
        min_degree(from_edge_list(0, []))


def test_ball_saturates_to_component():
    g = disjoint_union(path(4), cycle(3))
    for v in range(g.n):
        comp = next(c for c in components(g) if v in c)
        assert ball(g, v, g.n) == comp


def assert_distances_agree_with_networkx(g):
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges())
    assert components(g) == sorted(map(frozenset, nx.connected_components(nxg)), key=min)
    if g.n:
        assert diameter(g) == (nx.diameter(nxg) if nx.is_connected(nxg) else math.inf)
    for u in range(g.n):
        dist = nx.single_source_shortest_path_length(nxg, u)
        assert [distance(g, u, v) for v in range(g.n)] == [
            dist.get(v, math.inf) for v in range(g.n)]
        for r in range(g.n + 1):
            assert ball(g, u, r) == frozenset(v for v, d in dist.items() if d <= r)


@pytest.mark.parametrize("n", range(6))
def test_distances_agree_with_networkx_on_every_small_graph(n):
    for g in all_graphs(n):
        assert_distances_agree_with_networkx(g)


@pytest.mark.parametrize("n", range(6, 41))
def test_distances_agree_with_networkx_on_sparse_random_graphs(n):
    # 5-30% edges: the sparser ones fall apart into several components.
    assert_distances_agree_with_networkx(random_graph(n, seed=n, percent=5 + n * 7 % 26))


@given(st.integers(0, 12), st.integers(0, 2 ** 16), st.integers(0, 2 ** 12 - 1),
       st.integers(0, 12))
@settings(max_examples=100, deadline=None)
def test_ball_of_a_vertex_set_is_the_union_of_their_balls(n, seed, mask, r):
    g = random_graph(n, seed, percent=20)
    centers = [v for v in range(n) if mask >> v & 1]
    union = frozenset().union(*(ball(g, v, r) for v in centers))
    assert _ball(g.bit_adjacency, sum(1 << v for v in centers), r) == sum(1 << v for v in union)


class RecordingRows(tuple):
    """Neighbor bit sets that record which vertices' rows are read."""

    def __getitem__(self, v):
        self.read.append(v)
        return tuple.__getitem__(self, v)


def test_ball_stops_at_its_radius():
    g = path(50)
    rows = g.__dict__["bit_adjacency"] = RecordingRows(g.bit_adjacency)
    rows.read = []
    assert ball(g, 0, 2) == frozenset({0, 1, 2})
    # Layers 0 and 1 are expanded to reach layer 2; no row beyond is read.
    assert rows.read == [0, 1]


def test_leaves_of_spider():
    g = spider(4, 3)
    assert leaves(g) == frozenset({3, 6, 9, 12})


def test_min_degree():
    assert min_degree(cycle(5)) == 2
    assert min_degree(star(3)) == 1


def test_isomorphism_helper_matches_permutation_reference():
    import networkx as nx

    from helpers import permutation_isomorphic

    for seed in range(40):
        g1 = random_graph(5, seed)
        g2 = random_graph(5, seed + 1000)
        expected = permutation_isomorphic(g1, g2)
        assert brute_isomorphic(g1, g2) == expected
        n1 = nx.Graph([(u, v) for u, v in g1.edges()])
        n1.add_nodes_from(range(5))
        n2 = nx.Graph([(u, v) for u, v in g2.edges()])
        n2.add_nodes_from(range(5))
        assert nx.is_isomorphic(n1, n2) == expected
