import math
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from szf.families import (
    GadgetFamilySpec, SplitMix64, complete, complete_multipartite, corona_k1,
    corona_k2, cycle, diameter_bound_holds, diameter_lower_bound, empty,
    family_graph, friendship, gadget_family, h_graph, hypercube, matching,
    paired_blue_witness, path, random_gadget_spec, spider, spider_f_bound,
    star, th_cycle_formula, th_hypercube_formula, th_path_formula,
    th_spider_formula, _family,
)
from szf.forcing import propagate
from szf.graph import leaves, min_degree

from helpers import brute_isomorphic


def test_cycle_4_is_the_square_hypercube():
    assert brute_isomorphic(cycle(4), hypercube(2))


def test_multipartite_1_3_is_the_claw():
    assert complete_multipartite([1, 3]) == star(3)


@pytest.mark.parametrize("parts", [[1], [3], [1, 1], [2, 3], [3, 1, 2], [4, 4, 4, 4], [1, 5, 1, 2, 3]])
def test_multipartite_edges_match_networkx(parts):
    # networkx also numbers the parts as contiguous blocks in the order given.
    g = complete_multipartite(parts)
    assert g.n == sum(parts)
    assert set(g.edges()) == {tuple(sorted(e)) for e in nx.complete_multipartite_graph(*parts).edges()}


def test_matching_shape():
    g = matching(3)
    assert g.n == 6 and g.num_edges() == 3


def test_generator_minimums():
    with pytest.raises(ValueError):
        cycle(2)
    with pytest.raises(ValueError):
        path(0)
    with pytest.raises(ValueError):
        hypercube(0)
    with pytest.raises(ValueError):
        complete_multipartite([2, 0])
    with pytest.raises(ValueError):
        spider(2, 3)
    with pytest.raises(ValueError):
        friendship(0)
    with pytest.raises(ValueError, match="^leaf count must be nonnegative$"):
        star(-1)
    with pytest.raises(ValueError, match="^edge count must be nonnegative$"):
        matching(-1)
    with pytest.raises(ValueError, match="^legs need at least one vertex$"):
        spider(3, 0)
    with pytest.raises(ValueError, match="^parameters must be nonnegative$"):
        h_graph(-1, 0, 1)


def test_spider_labeling():
    g = spider(4, 3)
    assert g.n == 13
    assert g.degree(0) == 4
    assert leaves(g) == frozenset({3, 6, 9, 12})
    assert brute_isomorphic(spider(3, 1), star(3))
    assert spider(3, 2).n == 7 and spider(3, 2).degree(0) == 3


def test_h_graph_shapes():
    f2 = h_graph(0, 2, 0)
    assert f2 == friendship(2)
    assert f2.n == 5 and f2.degree(0) == 4
    assert h_graph(1, 0, 0) == path(3)
    assert h_graph(0, 1, 0) == complete(3)
    assert h_graph(1, 1, 2).n == 1 + 2 + 2 + 4
    with pytest.raises(ValueError):
        h_graph(0, 0, 0)


def test_h_graph_order_is_odd():
    for s in range(3):
        for t in range(3):
            for r in range(3):
                if s + t + r == 0:
                    continue
                assert h_graph(s, t, r).n % 2 == 1


def test_corona_wrappers():
    g = corona_k1(cycle(3))
    assert g.n == 6 and len(leaves(g)) == 3
    g2 = corona_k2(cycle(3))
    assert g2.n == 9 and min_degree(g2) == 2


def test_cycle_formula_values():
    assert th_cycle_formula(3) == 2
    assert th_cycle_formula(4) == 3
    assert th_cycle_formula(8) == 4
    assert th_cycle_formula(12) == 5
    with pytest.raises(ValueError):
        th_cycle_formula(2)


def test_path_formula_values():
    assert th_path_formula(3) == 2
    assert th_path_formula(7) == 3
    with pytest.raises(ValueError):
        th_path_formula(2)


def test_ceiling_formulas_certificate_sweep():
    # Direct certificate of the defining inequality for every order up to
    # a million: m is the ceiling iff (2m+c)^2 crosses the target at m.
    for n in range(3, 1_000_001):
        m = th_cycle_formula(n)
        assert (2 * m + 1) ** 2 >= 8 * n
        assert m == 0 or (2 * m - 1) ** 2 < 8 * n
        q = th_path_formula(n)
        assert (2 * q + 3) ** 2 >= 8 * (n + 1)
        assert q == 0 or (2 * q + 1) ** 2 < 8 * (n + 1)


def test_ceiling_formulas_match_high_precision_floats_on_sample():
    from decimal import Decimal, getcontext
    getcontext().prec = 60
    rng = SplitMix64(7)
    for _ in range(2000):
        n = 3 + rng.below(10 ** 6)
        root = Decimal(2 * n).sqrt()
        assert th_cycle_formula(n) == int(-((Decimal("0.5") - root).to_integral_value(rounding="ROUND_FLOOR")))
        root2 = Decimal(2 * (n + 1)).sqrt()
        assert th_path_formula(n) == int(-((Decimal("1.5") - root2).to_integral_value(rounding="ROUND_FLOOR")))


def test_spider_formula_cases():
    assert th_spider_formula(4, 2) == 2
    assert th_spider_formula(5, 5) == 7
    assert th_spider_formula(4, 3) == 6
    assert th_spider_formula(6, 4) == 3
    with pytest.raises(ValueError):
        th_spider_formula(4, 1)
    with pytest.raises(ValueError):
        th_spider_formula(3, 4)  # p > leg/2 + 1 fails


def test_spider_f_bound_values():
    assert spider_f_bound(4, 2) == (Fraction(1), Fraction(6))
    assert spider_f_bound(4, 3) == (Fraction(2), Fraction(12))
    assert spider_f_bound(2, 2) == (Fraction(1), Fraction(6))
    # p*leg a perfect square above the integer candidate: f is the exact root.
    assert spider_f_bound(2, 8) == (Fraction(2), Fraction(12))
    assert spider_f_bound(3, 27) == (Fraction(9, 2), Fraction(27))
    with pytest.raises(ValueError):
        spider_f_bound(1, 2)


def test_spider_f_bound_brackets_true_interval():
    for p in range(2, 8):
        for leg in range(2, 8):
            lo, hi = spider_f_bound(p, leg)
            f = min(leg, math.sqrt(p * leg)) if leg % 2 == 0 else max(p, math.sqrt(p * leg))
            assert float(lo) <= f / 2 + 1e-9
            assert float(hi) >= 3 * f - 1e-9


def test_hypercube_formula():
    assert th_hypercube_formula(2) == 3
    assert th_hypercube_formula(4) == 9
    assert th_hypercube_formula(2) == th_cycle_formula(4)
    with pytest.raises(ValueError):
        th_hypercube_formula(1)


def test_diameter_bound_predicate():
    assert diameter_bound_holds(2, 4)
    assert not diameter_bound_holds(1, 4)
    assert diameter_lower_bound(4) == Fraction(7, 4)
    assert diameter_lower_bound(16) == Fraction(15, 4)
    with pytest.raises(ValueError):
        diameter_lower_bound(3)
    with pytest.raises(ValueError, match="^diameter must be nonnegative$"):
        diameter_bound_holds(1, -1)


def test_diameter_predicate_agrees_with_reals():
    for d in range(4, 200):
        for th in range(0, 20):
            assert diameter_bound_holds(th, d) == (th >= math.sqrt(d) - 0.25 - 1e-12)


def test_splitmix64_reference_values():
    rng = SplitMix64(1234567)
    assert rng.next_u64() == 6457827717110365317
    assert rng.next_u64() == 3203168211198807973
    with pytest.raises(ValueError, match="^bound must be positive$"):
        SplitMix64(1).below(0)


def test_gadget_spec_validation():
    with pytest.raises(ValueError):
        GadgetFamilySpec("ring", 5, ((),) * 5)
    with pytest.raises(ValueError):
        GadgetFamilySpec("cycle", 2, ((), ()))
    with pytest.raises(ValueError):
        GadgetFamilySpec("cycle", 3, ((), ()))
    with pytest.raises(ValueError):
        GadgetFamilySpec("cycle", 3, (("triple",), (), ()))


def test_gadget_family_determinism():
    a = gadget_family(random_gadget_spec("cycle", 10, 42))
    b = gadget_family(random_gadget_spec("cycle", 10, 42))
    assert a == b


def test_gadget_degenerate_path_is_a_path():
    spec = GadgetFamilySpec("path", 6, ((),) * 6)
    assert gadget_family(spec) == path(6)


def test_gadget_single_edge_leaves_a_degree_one_vertex():
    spec = GadgetFamilySpec("cycle", 4, (("single",), (), (), ()))
    g = gadget_family(spec)
    assert g.n == 6
    assert min_degree(g) == 1


def test_seeded_cycle_gadgets_have_min_degree_two():
    for seed in range(1, 8):
        g = gadget_family(random_gadget_spec("cycle", 12, seed))
        assert min_degree(g) >= 2


def test_paired_witness_forces_gadget_cycles():
    for seed in (1, 5, 9):
        spec = random_gadget_spec("cycle", 14, seed)
        witness = paired_blue_witness(spec, 4)
        trace = propagate(gadget_family(spec), witness)
        assert trace.completed


def test_paired_witness_forces_bare_path_with_end_pairs():
    spec = GadgetFamilySpec("path", 10, ((),) * 10)
    witness = paired_blue_witness(spec, 10)
    assert witness == frozenset({0, 1, 8, 9})
    assert propagate(path(10), witness).completed


def test_paired_witness_forces_every_short_path_base():
    # A one-vertex base has no pair to take: the witness is that vertex.
    for length in range(1, 9):
        for spacing in range(1, length + 1):
            for seed in range(1, 31):
                spec = random_gadget_spec("path", length, seed)
                witness = paired_blue_witness(spec, spacing)
                assert witness <= frozenset(range(length))
                assert propagate(gadget_family(spec), witness).completed


def test_paired_witness_spacing_bounds():
    spec = GadgetFamilySpec("cycle", 6, ((),) * 6)
    with pytest.raises(ValueError):
        paired_blue_witness(spec, 7)
    with pytest.raises(ValueError):
        paired_blue_witness(spec, 0)


def test_paired_witness_spacing_one_takes_whole_base():
    spec = GadgetFamilySpec("cycle", 5, ((),) * 5)
    assert paired_blue_witness(spec, 1) == frozenset(range(5))


def test_family_spec_strings():
    assert family_graph("cycle:12") == cycle(12)
    assert family_graph("spider:4,3") == spider(4, 3)
    assert family_graph("h:1,2,0") == h_graph(1, 2, 0)
    assert family_graph("h_graph:1,2,0") == h_graph(1, 2, 0)
    assert family_graph("friendship:2") == friendship(2)
    assert family_graph("complete_multipartite:2,3") == complete_multipartite([2, 3])
    assert family_graph("matching:2") == matching(2)
    assert family_graph("empty:4") == empty(4)
    assert family_graph("corona_k1(cycle:4)") == corona_k1(cycle(4))
    assert family_graph("corona_k2(path:3)") == corona_k2(path(3))
    assert family_graph("gadget_cycle:10,42") == gadget_family(random_gadget_spec("cycle", 10, 42))
    assert family_graph("gadget_path:10,42") == gadget_family(random_gadget_spec("path", 10, 42))
    assert family_graph("path:5") == path(5)
    assert family_graph("complete:4") == complete(4)
    assert family_graph("star:3") == star(3)
    assert family_graph("hypercube:3") == hypercube(3)


@pytest.mark.parametrize("spec", [
    "cycle:12", "spider:4,3", "h:1,2,0", "h_graph:0,0,3", "friendship:2",
    "complete_multipartite:2,3,1", "matching:2", "empty:0", "corona_k1(cycle:4)",
    "corona_k2(path:3)", "corona_k1(corona_k2(star:2))", "gadget_cycle:10,42",
    "gadget_path:10,42", "path:5", "complete:4", "star:3", "hypercube:3",
])
def test_family_order_is_known_before_the_build(spec):
    order, build, _ = _family(spec)
    assert order == build().n == family_graph(spec).n


def test_family_spec_errors():
    for bad, message in [
        ("nope:3", "unknown family 'nope'"),
        ("nope:x", "non-integer parameter in family spec 'nope:x'"),
        ("cycle:x", "non-integer parameter in family spec 'cycle:x'"),
        ("cycle", "family 'cycle' takes 1 parameter(s), got 0"),
        ("spider:4", "family 'spider' takes 2 parameter(s), got 1"),
        ("h:1,2", "family 'h' takes 3 parameter(s), got 2"),
        ("complete_multipartite", "complete_multipartite needs at least one part"),
        ("corona_k3(cycle:4)", "non-integer parameter in family spec 'corona_k3(cycle:4)'"),
    ]:
        with pytest.raises(ValueError) as err:
            family_graph(bad)
        assert str(err.value) == message


@given(st.integers(3, 40))
@settings(max_examples=40, deadline=None)
def test_path_comes_from_cycle_deletion_identity(n):
    # The path value equals the cycle value on one more vertex, minus one.
    assert th_path_formula(n) == th_cycle_formula(n + 1) - 1


@pytest.mark.parametrize("build", [
    lambda: complete(-1), lambda: empty(-1), lambda: family_graph("complete:-1"),
], ids=["complete", "empty", "family-spec"])
def test_negative_order_is_rejected(build):
    with pytest.raises(ValueError, match="vertex count must be nonnegative"):
        build()
