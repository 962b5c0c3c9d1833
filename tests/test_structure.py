import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from szf.canon import canonical_form, graph_classes
from szf.families import (
    complete, complete_multipartite, corona_k1, cycle, empty, family_graph,
    friendship, h_graph, matching, path, spider, star,
)
from szf.graph import disjoint_union, from_edge_list, induced_subgraph, join
from szf.structure import (
    CotreeLeaf, CotreeNode, ExtremeClassification, _splits, build_cotree, classify_extremes,
    cotree_graph, find_induced_2k2, find_induced_p4, recognize_corona_k1,
    recognize_h_graph,
)

from helpers import (
    all_graphs, brute_first_induced, brute_force_table, brute_isomorphic, random_graph,
)


def test_find_p4_in_p4():
    assert find_induced_p4(path(4)) == frozenset({0, 1, 2, 3})


def test_c4_has_neither_pattern():
    g = cycle(4)
    assert find_induced_p4(g) is None
    assert find_induced_2k2(g) is None


def test_p5_contains_both_patterns():
    g = path(5)
    assert find_induced_p4(g) == frozenset({0, 1, 2, 3})
    assert find_induced_2k2(g) == frozenset({0, 1, 3, 4})


def test_patterns_reverify_as_induced_subgraphs():
    for seed in range(60):
        g = random_graph(6, seed)
        quad = find_induced_p4(g)
        if quad is not None:
            assert brute_isomorphic(induced_subgraph(g, quad), path(4))
        quad = find_induced_2k2(g)
        if quad is not None:
            assert brute_isomorphic(induced_subgraph(g, quad), matching(2))


def _assert_scans_match_the_oracle(g):
    assert find_induced_p4(g) == brute_first_induced(g, [1, 1, 2, 2]), list(g.edges())
    assert find_induced_2k2(g) == brute_first_induced(g, [1, 1, 1, 1]), list(g.edges())


def test_scans_match_the_oracle_on_every_labeled_graph_to_n6():
    for n in range(7):
        for g in all_graphs(n):
            _assert_scans_match_the_oracle(g)


def test_scans_match_the_oracle_on_every_relabeled_class_of_order_7():
    for seed, g in enumerate(_class_graphs(7)):
        _assert_scans_match_the_oracle(_relabeled(g, seed))


@given(st.integers(8, 14), st.integers(0, 2 ** 16), st.integers(0, 100))
@settings(max_examples=80, deadline=None)
def test_scans_match_the_oracle_on_random_graphs_of_order_8_to_14(n, seed, percent):
    _assert_scans_match_the_oracle(random_graph(n, seed, percent))


@pytest.mark.parametrize("spec", ["cycle:40", "path:50", "hypercube:6", "spider:6,6"])
def test_scans_match_the_oracle_on_relabeled_families(spec):
    for seed in range(3):
        _assert_scans_match_the_oracle(_relabeled(family_graph(spec), seed))


@pytest.mark.parametrize("m", [55, 195])
def test_large_join_of_c5_and_a_clique_has_a_p4_and_no_2k2(m):
    # 2K2-free but not a cograph: the 2K2 scan finds nothing, and the
    # exhaustive four-vertex scan would test every quad (C(200, 4) at m = 195).
    g = join(cycle(5), complete(m))
    assert find_induced_2k2(g) is None
    assert find_induced_p4(g) == frozenset({0, 1, 2, 3})
    assert classify_extremes(g) == ExtremeClassification(
        "interior", None, {"form": "interior", "induced_p4": [0, 1, 2, 3]})


def test_cotree_of_claw():
    tree = build_cotree(star(3))
    assert tree == CotreeNode(
        "join",
        CotreeLeaf(0),
        CotreeNode("union", CotreeLeaf(1),
                   CotreeNode("union", CotreeLeaf(2), CotreeLeaf(3))))


def test_cotree_repr_equality_and_hash_read_like_the_dataclass_fields():
    tree = build_cotree(star(2))
    assert repr(tree) == (
        "CotreeNode(op='join', left=CotreeLeaf(vertex=0), right="
        "CotreeNode(op='union', left=CotreeLeaf(vertex=1), right=CotreeLeaf(vertex=2)))")
    same = CotreeNode("join", CotreeLeaf(0),
                      CotreeNode("union", CotreeLeaf(1), CotreeLeaf(2)))
    assert tree == same and hash(tree) == hash(same) and len({tree, same}) == 1
    assert tree != CotreeNode("join", CotreeLeaf(0),
                              CotreeNode("union", CotreeLeaf(2), CotreeLeaf(1)))
    assert tree != CotreeNode("union", CotreeLeaf(0),
                              CotreeNode("union", CotreeLeaf(1), CotreeLeaf(2)))
    assert tree != CotreeLeaf(0) and tree != None  # noqa: E711


def test_cotree_of_p4_fails():
    assert build_cotree(path(4)) is None


def test_cotree_of_2k2():
    tree = build_cotree(matching(2))
    assert tree == CotreeNode(
        "union",
        CotreeNode("join", CotreeLeaf(0), CotreeLeaf(1)),
        CotreeNode("join", CotreeLeaf(2), CotreeLeaf(3)))


def test_cotree_rejects_empty_graph():
    with pytest.raises(ValueError):
        build_cotree(empty(0))


def test_cotree_reconstruction_and_p4_agreement_exhaustive():
    for n in range(1, 7):
        for g in all_graphs(n):
            tree = build_cotree(g)
            assert (tree is None) == (find_induced_p4(g) is not None)
            if tree is not None and n <= 5:
                assert cotree_graph(tree, g.n) == g


@given(st.integers(0, 2 ** 16), st.integers(0, 100))
@settings(max_examples=80, deadline=None)
def test_cotree_p4_agreement_random_order_seven(seed, percent):
    g = random_graph(7, seed, percent)
    tree = build_cotree(g)
    assert (tree is None) == (find_induced_p4(g) is not None)
    if tree is not None:
        assert cotree_graph(tree, g.n) == g


def test_decomposition_and_classifier_agree_with_the_scans_exhaustively_to_n6():
    for n in range(1, 7):
        for g in all_graphs(n):
            p4, kk = find_induced_p4(g), find_induced_2k2(g)
            splits = _splits(g)
            assert (not splits or splits[-1][1] is not None) == (p4 is None)
            if p4 is None:
                # On a cograph: an induced 2K2 iff a union split has two
                # parts of at least two vertices.
                assert (kk is not None) == any(
                    op == "union" and sum(p.bit_count() > 1 for p in parts) > 1
                    for _, op, parts in splits)
            if (g.num_edges() == 0 or all(g.degree(v) == 1 for v in g.vertices)
                    or recognize_h_graph(g) is not None
                    or recognize_corona_k1(g) is not None):
                continue
            c = classify_extremes(g)
            assert (c.label == "th_equals_n_minus_1") == (p4 is None and kk is None)
            if c.label == "interior":
                assert c.evidence.get("induced_p4") == (sorted(p4) if p4 else None)
                assert c.evidence.get("induced_2k2") == (sorted(kk) if kk else None)


def test_threshold_graph_of_order_1100_decomposes_without_recursion():
    n = 1100
    # Vertex v joins as a dominating vertex when v is odd, isolated when even.
    g = from_edge_list(n, [(u, v) for v in range(1, n, 2) for u in range(v)])
    tree = build_cotree(g)
    assert isinstance(tree, CotreeNode)
    leaves, stack = [], [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, CotreeLeaf):
            leaves.append(node.vertex)
        else:
            stack += [node.left, node.right]
    assert sorted(leaves) == list(range(n))
    assert cotree_graph(tree, n) == g
    text = repr(tree)
    assert text.startswith("CotreeNode(op='join', left=CotreeNode(op='union', left=")
    assert text.count("CotreeLeaf(vertex=") == n and text.count("CotreeNode(") == n - 1
    again = build_cotree(g)
    assert again is not tree and tree == again and hash(tree) == hash(again)
    assert tree != build_cotree(from_edge_list(n, [(u, v) for v in range(1, n, 2)
                                                   for u in range(v - 1)] + [(0, 1)]))
    c = classify_extremes(g)
    assert (c.label, c.value) == ("th_equals_n_minus_1", n - 1)
    assert c.evidence == {"form": "cograph_no_2k2", "edge": [0, 1]}


def test_recognize_h_graph_families():
    assert recognize_h_graph(friendship(2)) == (0, 2, 0)
    assert recognize_h_graph(disjoint_union(path(3), matching(1))) == (1, 0, 1)
    assert recognize_h_graph(cycle(5)) is None
    assert recognize_h_graph(path(5)) == (2, 0, 0)
    assert recognize_h_graph(disjoint_union(empty(1), matching(2))) == (0, 0, 2)
    assert recognize_h_graph(matching(3)) is None
    assert recognize_h_graph(spider(4, 2)) == (4, 0, 0)
    assert recognize_h_graph(h_graph(2, 3, 1)) == (2, 3, 1)


def test_recognized_h_parameters_rebuild_the_graph():
    for (s, t, r) in [(0, 2, 0), (2, 0, 1), (1, 1, 1), (3, 0, 0), (0, 0, 2), (2, 2, 0)]:
        g = h_graph(s, t, r)
        assert recognize_h_graph(g) == (s, t, r)
        assert brute_isomorphic(h_graph(s, t, r) if s + t + r else g, g)


def _code(g):
    return canonical_form(g.bit_adjacency, g.n)[0]


def _class_graphs(n):
    return [from_edge_list(n, [(u, v) for u in range(n) for v in range(u) if rows[u] >> v & 1])
            for rows, _ in graph_classes(n)]


@pytest.mark.parametrize("n", range(1, 8))
def test_recognizers_match_an_isomorphism_oracle_on_every_class(n):
    hubs = {_code(h_graph(s, t, r)): (s, t, r)
            for s in range(n) for t in range(n) for r in range(n)
            if s + t + r >= 1 and 1 + 2 * (s + t + r) == n}
    coronas = {}
    for order in range(2, n // 2 + 1) if n % 2 == 0 else ():
        r = n // 2 - order
        for c in _class_graphs(order):
            if all(c.adj):
                coronas[_code(disjoint_union(corona_k1(c), matching(r)))] = (_code(c), r)
    for g in _class_graphs(n):
        code = _code(g)
        assert recognize_h_graph(g) == hubs.get(code), list(g.edges())
        got = recognize_corona_k1(g)
        if code in coronas:
            core, r = got
            assert (_code(core), r) == coronas[code], list(g.edges())
        else:
            assert got is None, list(g.edges())


def test_recognize_corona_families():
    core, r = recognize_corona_k1(corona_k1(cycle(3)))
    assert r == 0 and core == cycle(3)
    g = disjoint_union(corona_k1(complete(2)), matching(2))
    core, r = recognize_corona_k1(g)
    assert r == 2 and core == complete(2)
    assert recognize_corona_k1(star(3)) is None
    assert recognize_corona_k1(matching(2)) is None
    assert recognize_corona_k1(path(4)) == (complete(2), 0)


def test_recognize_corona_requires_every_core_component_to_have_an_edge():
    # P3 with a pendant on each end vertex but the middle also bare fails;
    # build the exact corona instead and strip one pendant.
    g = corona_k1(path(3))
    assert recognize_corona_k1(g) is not None
    broken = induced_subgraph(g, set(range(g.n)) - {5})
    assert recognize_corona_k1(broken) is None


def test_classify_examples():
    assert classify_extremes(complete_multipartite([2, 3])).value == 4
    assert classify_extremes(corona_k1(cycle(4))).value == 2
    c5 = classify_extremes(cycle(5))
    assert c5.label == "interior" and c5.value is None
    assert classify_extremes(star(5)).value == 5
    assert classify_extremes(empty(4)).value == 4
    assert classify_extremes(empty(2)).value == 2
    assert classify_extremes(empty(2)).label == "th_equals_2"
    assert classify_extremes(empty(1)).label == "th_equals_1"
    assert classify_extremes(matching(4)).label == "th_equals_1"
    assert classify_extremes(friendship(3)).label == "th_equals_2"


def test_classify_overlap_at_order_three():
    c = classify_extremes(path(3))
    assert c.label == "th_equals_2"
    assert c.value == 2 == path(3).n - 1


def test_classify_evidence_recheck():
    c = classify_extremes(friendship(2))
    assert c.evidence["form"] == "h_graph"
    s, t, r = c.evidence["s"], c.evidence["t"], c.evidence["r"]
    assert brute_isomorphic(h_graph(s, t, r), friendship(2))

    c = classify_extremes(corona_k1(path(3)))
    assert c.evidence["form"] == "corona_k1"
    assert len(c.evidence["core_vertices"]) == c.evidence["core_order"] == 3

    c = classify_extremes(complete_multipartite([1, 2, 2]))
    assert c.evidence["form"] == "cograph_no_2k2"
    u, v = c.evidence["edge"]
    g = complete_multipartite([1, 2, 2])
    assert v in g.adj[u]

    c = classify_extremes(cycle(6))
    assert c.label == "interior"
    assert brute_isomorphic(induced_subgraph(cycle(6), c.evidence["induced_p4"]), path(4))


def _relabeled(g, seed):
    """Deterministically shuffle vertex labels (seeded Fisher-Yates)."""
    from szf.families import SplitMix64
    from szf.graph import from_edge_list

    rng = SplitMix64(seed)
    perm = list(range(g.n))
    for i in range(g.n - 1, 0, -1):
        j = rng.below(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def test_h_recognition_survives_relabeling():
    for seed, (s, t, r) in enumerate([(0, 2, 0), (2, 0, 1), (1, 1, 1),
                                      (3, 1, 0), (0, 0, 2), (2, 2, 1)]):
        shuffled = _relabeled(h_graph(s, t, r), seed + 11)
        assert recognize_h_graph(shuffled) == (s, t, r)
        assert brute_isomorphic(h_graph(s, t, r), shuffled)


def test_corona_recognition_survives_relabeling():
    for seed, base in enumerate([cycle(3), path(3), complete(4),
                                 disjoint_union(complete(2), complete(3))]):
        g = disjoint_union(corona_k1(base), matching(seed % 3))
        shuffled = _relabeled(g, seed + 40)
        got = recognize_corona_k1(shuffled)
        assert got is not None
        core, r = got
        assert r == seed % 3
        assert brute_isomorphic(core, base)


def test_classifier_agrees_with_brute_force_exhaustively_to_n5():
    for n in range(1, 6):
        for g in all_graphs(n):
            th, _, _, _, _ = brute_force_table(g)
            c = classify_extremes(g)
            if c.value is not None:
                assert c.value == th, (list(g.edges()), c.label)
            else:
                assert th not in {1, 2, n - 1, n}, list(g.edges())
