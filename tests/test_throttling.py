import ast
import inspect
import sys
import threading
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from szf.families import (
    SplitMix64, complete, complete_multipartite, corona_k1, cycle, empty, family_graph,
    friendship, h_graph, hypercube, matching, path, spider, star,
)
from szf import throttling
from szf.canon import graph_classes
from szf.forcing import propagate
from szf.graph import disjoint_union, from_edge_list
from szf.throttling import (
    LANE_CAP, ThrottleResult, _batches, _first_completion, _hits, _lane_words, _least, _optimum,
    min_propagation_time, skew_zero_forcing_number, throttle, throttle_with_bound,
    throttling_at_k,
)

from helpers import all_graphs, brute_force_table, random_graph, record_batches


def test_forcing_number_examples():
    assert skew_zero_forcing_number(friendship(2)) == 1
    assert skew_zero_forcing_number(corona_k1(cycle(4))) == 0
    assert skew_zero_forcing_number(complete_multipartite([2, 3])) == 3
    assert skew_zero_forcing_number(hypercube(2)) == 2
    assert skew_zero_forcing_number(hypercube(3)) == 4


def test_min_propagation_time_examples():
    assert min_propagation_time(hypercube(2)) == 1
    assert min_propagation_time(hypercube(3)) == 1
    assert min_propagation_time(corona_k1(path(3))) == 2
    assert min_propagation_time(friendship(3)) == 1


def test_throttling_at_k_examples():
    assert throttling_at_k(matching(2), 0) == 1
    assert throttling_at_k(h_graph(2, 1, 0), 1) == 2
    k1 = from_edge_list(1, [])
    assert throttling_at_k(k1, 1) == 1
    assert throttling_at_k(k1, 0) is None
    with pytest.raises(ValueError):
        throttling_at_k(k1, 2)


def test_throttle_known_values():
    assert throttle(path(7)).th == 3
    assert throttle(cycle(8)).th == 4
    assert throttle(star(4)).th == 4
    assert throttle(matching(3)).th == 1
    assert throttle(from_edge_list(1, [])).th == 1


def test_throttle_spider_4_3_differs_from_closed_form():
    # Exhaustive truth: a set hitting the first vertex of all legs but one
    # finishes in two rounds (the white center forces the open leg), so
    # the optimum is p+1, one below the p+2 closed form. The full
    # 2^13-subset scan below is independent of the solver's pruning. See
    # the acceptance module for the side-by-side comparison.
    g = spider(4, 3)
    brute_th, brute_witness, brute_z, brute_ptm, _ = brute_force_table(g)
    assert (brute_th, brute_witness) == (5, frozenset({1, 4, 7}))
    result = throttle(g)
    assert result.th == brute_th == 5
    assert result.witness == brute_witness
    assert result.z_minus == brute_z == 3
    assert result.pt_minimum == brute_ptm == 2


def test_throttle_edgeless():
    r = throttle(from_edge_list(4, []))
    assert r.th == 4
    assert r.witness == frozenset(range(4))
    assert r.pt == 0
    assert r.z_minus == 4 and r.pt_minimum == 0
    assert r.per_k == {4: 4}


def test_throttle_empty_graph():
    r = throttle(from_edge_list(0, []))
    assert r.th == 0 and r.witness == frozenset()


def test_result_internal_consistency():
    for g in (cycle(6), star(3), h_graph(1, 1, 1), hypercube(3)):
        r = throttle(g)
        assert r.th == r.k + r.pt
        assert r.th == min(r.per_k.values())
        assert r.k == len(r.witness)
        assert r.per_k[r.k] == r.th


def test_throttle_with_bound_matches_throttle():
    for g in (cycle(9), path(8), star(5), h_graph(2, 0, 1), hypercube(3)):
        base = throttle(g)
        for slack in (0, 1, 3):
            fast = throttle_with_bound(g, base.th + slack)
            assert (fast.th, fast.witness, fast.per_k) == (base.th, base.witness, base.per_k)
            assert (fast.z_minus, fast.pt_minimum) == (base.z_minus, base.pt_minimum)


def test_throttle_with_bound_rejects_bound_below_optimum():
    with pytest.raises(ValueError):
        throttle_with_bound(cycle(8), 3)  # true value is 4
    with pytest.raises(ValueError):
        throttle_with_bound(from_edge_list(3, []), 2)  # edgeless optimum is 3
    with pytest.raises(ValueError, match="^bound must be nonnegative$"):
        throttle_with_bound(cycle(8), -1)


def test_edge_guarantees_th_at_most_n_minus_1():
    for seed in range(40):
        g = random_graph(6, seed)
        if g.num_edges() == 0:
            continue
        assert throttle(g).th <= g.n - 1


def test_solver_matches_brute_force_exhaustively_to_n4():
    for n in range(0, 5):
        for g in all_graphs(n):
            th, witness, z, ptm, per_k = brute_force_table(g)
            r = throttle(g)
            assert r.th == th
            assert r.witness == witness
            assert r.z_minus == z
            assert r.pt_minimum == ptm
            for k, v in r.per_k.items():
                assert per_k[k] == v


@given(st.integers(5, 7), st.integers(0, 2 ** 16), st.integers(0, 100))
@settings(max_examples=60, deadline=None)
def test_solver_matches_brute_force_on_random_graphs(n, seed, percent):
    g = random_graph(n, seed, percent)
    th, witness, z, ptm, per_k = brute_force_table(g)
    r = throttle(g)
    assert (r.th, r.witness, r.z_minus, r.pt_minimum) == (th, witness, z, ptm)
    bounded = throttle_with_bound(g, th)
    assert (bounded.th, bounded.witness, bounded.per_k) == (r.th, r.witness, r.per_k)


def test_hub_graphs_throttle_at_two_up_to_order_13():
    for s in range(0, 7):
        for t in range(0, 7):
            for r in range(0, 7):
                if s + t + r < 1 or 1 + 2 * (s + t + r) > 13:
                    continue
                assert throttle(h_graph(s, t, r)).th == 2, (s, t, r)


def test_corona_k2_leaf_bound_holds_for_distinct_leaf_supports():
    # Three leaves on three different support vertices: hosts-only coloring
    # finishes in three rounds, so the optimum is at most the base order.
    from szf.families import corona_k2, spider
    from szf.forcing import propagate
    from szf.graph import leaves

    base = spider(3, 2)  # 7 vertices, 3 leaves with distinct supports
    g = corona_k2(base)
    hosts = set(range(base.n)) - set(leaves(base))
    trace = propagate(g, hosts)
    assert trace.completed and trace.pt <= 3
    assert len(hosts) + trace.pt <= base.n


def test_witness_is_canonical_first_in_enumeration_order():
    g = cycle(6)
    r = throttle(g)
    _, witness, _, _, _ = brute_force_table(g)
    assert r.witness == witness


def test_json_dict_shape():
    payload = throttle(cycle(5)).to_json_dict()
    assert set(payload) == {"th", "k", "pt", "witness", "per_k", "z_minus", "pt_minimum"}
    assert payload["witness"] == sorted(payload["witness"])
    assert all(isinstance(k, str) for k in payload["per_k"])


# ---------------------------------------------------------------------------
# the bit-sliced batch kernel

# With the real lane cap every graph of order <= 16 fits one batch per size,
# so small caps are what make budgets tighten between batches and witnesses
# fall across batch edges. Cap 16 splits size 3 at n = 6 (C(6, 3) = 20):
# one batch of the runs under vertices 0 and 1 (10 + 6 lanes), then the rest.
SMALL_CAPS = (1, 3, 8, 16)


def _assert_every_entry_point_matches(g, table):
    th, witness, z, ptm, per_k = table
    r = throttle(g)
    optimal = {k: v for k, v in per_k.items() if v == th}
    assert (r.th, r.witness, r.per_k, r.z_minus, r.pt_minimum) == (th, witness, optimal, z, ptm)
    assert throttle_with_bound(g, th) == r
    assert throttle_with_bound(g, g.n + 1) == r
    if th >= 1:
        with pytest.raises(ValueError):
            throttle_with_bound(g, th - 1)
    assert [throttling_at_k(g, k) for k in range(g.n + 1)] == [
        per_k.get(k) for k in range(g.n + 1)]
    assert skew_zero_forcing_number(g) == z
    assert min_propagation_time(g) == ptm


def test_small_lane_caps_match_brute_force_exhaustively_to_n5():
    tables = [(g, brute_force_table(g)) for n in range(6) for g in all_graphs(n)]
    for cap in SMALL_CAPS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(throttling, "LANE_CAP", cap)
            for g, table in tables:
                _assert_every_entry_point_matches(g, table)


@given(st.integers(5, 7), st.integers(0, 2 ** 16), st.integers(0, 100))
@settings(max_examples=30, deadline=None)
def test_small_lane_caps_match_brute_force_on_random_graphs(n, seed, percent):
    g = random_graph(n, seed, percent)
    table = brute_force_table(g)
    for cap in SMALL_CAPS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(throttling, "LANE_CAP", cap)
            _assert_every_entry_point_matches(g, table)


def _assert_kernel_lanes_match_propagate(g, j, budget):
    # Lane i is the i-th j-subset in lexicographic order; a lane that stalls
    # (pt None) never completes, and a budget hides later completions.
    subsets = list(combinations(range(g.n), j))
    pts = [propagate(g, s).pt for s in subsets]
    expected = [pt if pt is not None and pt <= budget else None for pt in pts]
    words = _lane_words(g.n, j)
    for i, pt in enumerate(expected):
        alone = _first_completion(g.adj, [w >> i & 1 for w in words], 1, budget)
        assert alone == (None if pt is None else (pt, 1)), (i, subsets[i])
    # The whole batch reports the least round and every lane completing in it.
    reached = [pt for pt in expected if pt is not None]
    first = None
    if reached:
        least = min(reached)
        first = least, sum(1 << i for i, pt in enumerate(expected) if pt == least)
    assert _first_completion(g.adj, words, (1 << len(subsets)) - 1, budget) == first


@given(st.integers(1, 9), st.integers(0, 2 ** 16), st.integers(0, 100), st.data())
@settings(max_examples=80, deadline=None)
def test_kernel_lanes_match_scalar_propagate(n, seed, percent, data):
    g = random_graph(n, seed, percent)
    j = data.draw(st.integers(0, n))
    budget = data.draw(st.integers(0, n))  # n cuts nothing
    _assert_kernel_lanes_match_propagate(g, j, budget)


# Graphs of maximum degree <= 2, or with degree-0 and degree-1 vertices, where
# the kernel reads "exactly one white neighbour" from one or two words.
LOW_DEGREE_GRAPHS = {
    "K1": complete(1), "K2": complete(2), "P3": path(3), "P5": path(5), "P9": path(9),
    "C3": cycle(3), "C4": cycle(4), "C7": cycle(7), "C9": cycle(9),
    "star:3": star(3), "star:8": star(8), "2K2": matching(2), "4K2": matching(4),
    "3K1": empty(3), "9K1": empty(9), "K2+K1": disjoint_union(complete(2), empty(1)),
    "P4+2K1": disjoint_union(path(4), empty(2)), "C5+K2+2K1": disjoint_union(
        disjoint_union(cycle(5), complete(2)), empty(2)),
    "K1+star:4+K1": disjoint_union(disjoint_union(empty(1), star(4)), empty(1)),
}


@pytest.mark.parametrize("name", LOW_DEGREE_GRAPHS)
def test_kernel_lanes_match_scalar_propagate_at_low_degree(name):
    g = LOW_DEGREE_GRAPHS[name]
    assert 1 <= g.n <= 9 and min(map(len, g.adj)) <= 2
    for j in range(g.n + 1):
        for budget in (g.n, 0, 1, 2):
            _assert_kernel_lanes_match_propagate(g, j, budget)


def test_kernel_reports_a_lane_complete_at_round_zero_under_budget_zero():
    g = path(3)
    # Lane 0 is {0}, lane 1 is every vertex: only lane 1 is complete at round 0.
    assert _first_completion(g.adj, [0b11, 0b10, 0b10], 0b11, 0) == (0, 0b10)
    # Every 2-subset of P3 needs one round, so budget 0 admits none of them.
    assert [propagate(g, s).pt for s in combinations(range(3), 2)] == [1, 1, 1]
    assert _first_completion(g.adj, _lane_words(3, 2), 0b111, 0) is None
    assert _first_completion(g.adj, _lane_words(3, 2), 0b111, 1) == (1, 0b111)


def test_kernel_returns_none_when_every_lane_stalls():
    g = cycle(4)
    # Lanes {0, 2} and {1, 3}: each opposite pair of C4 forces nothing.
    assert propagate(g, [0, 2]).pt is None and propagate(g, [1, 3]).pt is None
    assert _first_completion(g.adj, [1, 2, 1, 2], 0b11, 4) is None


def test_kernel_returns_none_when_the_budget_cuts_before_a_completion():
    g = path(6)
    assert propagate(g, [0]).pt == 3
    words = [1, 0, 0, 0, 0, 0]
    assert _first_completion(g.adj, words, 1, 6) == (3, 1)
    assert _first_completion(g.adj, words, 1, 3) == (3, 1)
    assert _first_completion(g.adj, words, 1, 2) is None


def test_lowest_lane_of_the_first_completing_round_wins():
    g = cycle(6)
    subsets = list(combinations(range(6), 2))  # one batch: C(6, 2) lanes
    pts = [propagate(g, s).pt for s in subsets]
    best = min(pt for pt in pts if pt is not None)
    assert pts.count(best) > 1
    first = subsets[pts.index(best)]
    assert _least(g, 2, 4) == (best, frozenset(first))


def combination_words(m, t):
    """W(m, t) built from itertools.combinations: lane i is the i-th t-subset."""
    words = [0] * m
    for i, subset in enumerate(combinations(range(m), t)):
        for v in subset:
            words[v] |= 1 << i
    return tuple(words)


def test_lane_word_table_matches_combinations(monkeypatch):
    # The shared table is emptied before each fill order, ascending and then
    # descending, so rows are extended both from scratch and on top of
    # earlier requests.
    pairs = [(m, t) for m in range(11) for t in range(m + 1)]
    for order in (pairs, pairs[::-1]):
        monkeypatch.setattr(throttling, "_WORDS", {})
        for m, t in order:
            assert _lane_words(m, t) == combination_words(m, t), (m, t)


def test_lane_word_table_fills_wide_rows_without_recursion(monkeypatch):
    # W(1200, 1) extends row t = 1 by 1,200 entries in one request.
    monkeypatch.setattr(throttling, "_WORDS", {})
    assert throttling_at_k(star(1199), 1) is None


def test_lane_word_table_is_consistent_after_concurrent_first_fills(monkeypatch):
    # Four threads released together each fill a different large W(m, t)
    # into an emptied table; their rectangles overlap, so they race on the
    # same entries. A lost or misplaced update leaves a wrong stored entry.
    requests = [(16, 4), (14, 6), (18, 3), (13, 5)]
    expected = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(50):
            table = {}
            monkeypatch.setattr(throttling, "_WORDS", table)
            barrier = threading.Barrier(len(requests))

            def fill(m, t):
                barrier.wait()
                _lane_words(m, t)

            threads = [threading.Thread(target=fill, args=mt) for mt in requests]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            assert all(mt in table for mt in requests)
            for mt, words in table.items():
                if mt not in expected:
                    expected[mt] = combination_words(*mt)
                assert words == expected[mt], mt
    finally:
        sys.setswitchinterval(interval)


def test_lane_word_table_holds_only_batch_widths(monkeypatch):
    table = {}
    monkeypatch.setattr(throttling, "_WORDS", table)
    throttle(family_graph("cycle:24"))
    throttle(family_graph("star:20"))
    assert table
    assert all(comb(m, t) <= LANE_CAP for m, t in table)
    assert all(type(words) is tuple for words in table.values())


@pytest.mark.parametrize("cap", [1, 3, 64, LANE_CAP])
def test_batches_hold_every_subset_in_lexicographic_order(monkeypatch, cap):
    # Batch after batch, the lanes are the size-k subsets in lexicographic
    # order; each batch holds at most cap lanes, and no two neighbours could
    # be merged into one.
    monkeypatch.setattr(throttling, "LANE_CAP", cap)
    for n in range(15):
        for k in range(n + 1):
            batches = list(_batches(n, k))
            widths = [width for _, width in batches]
            assert all(1 <= width <= cap for width in widths), (n, k)
            assert all(b >> width == 0 for blue, width in batches for b in blue)
            assert all(a + b > cap for a, b in zip(widths, widths[1:])), (n, k)
            lanes = [tuple(v for v, b in enumerate(blue) if b >> i & 1)
                     for blue, width in batches for i in range(width)]
            assert lanes == list(combinations(range(n), k)), (n, k)


@pytest.mark.parametrize("spec, most", [("cycle:24", 30), ("spider:5,5", 45)])
def test_a_solve_packs_few_runs(monkeypatch, spec, most):
    # Each run's words come from one _lane_words call. A node over LANE_CAP
    # splits in two (with s, without s), so the tail of small runs after the
    # last wide first vertex is one run, not one per first vertex.
    runs = []

    def counting(m, t):
        runs.append((m, t))
        return _lane_words(m, t)

    monkeypatch.setattr(throttling, "_lane_words", counting)
    throttle(family_graph(spec))
    assert len(runs) <= most


@pytest.mark.parametrize("seed", range(6))
def test_each_prefix_batch_reports_its_own_first_optimum(monkeypatch, seed):
    # A batch packs whole runs "prefix + every t-subset of s..n-1". Its lanes,
    # batch after batch, are the size-k subsets in lexicographic order; each
    # holds at most LANE_CAP lanes but no room for the next run. Within a
    # drawn limit, _hits yields sets of strictly falling pt, the first one
    # the first (pt, lane) minimum of the first batch with a hit; _least
    # reads its last hit, the first (pt, lane) minimum over every size-k
    # subset. No batch runs under a limit below the floor of size k, and
    # the last batch run is the first whose hit reaches the floor, or the
    # last batch of the size when no hit does.
    n = 7 + seed // 2
    g = random_graph(n, seed, 40)
    rng = SplitMix64(seed)
    recorded = record_batches(monkeypatch)
    for cap in (3, 8, 16):
        monkeypatch.setattr(throttling, "LANE_CAP", cap)
        batch_counts = []
        for k in range(n + 1):
            every = list(combinations(range(n), k))
            scalar = {s: propagate(g, s).pt for s in every}
            for limit in (n - k, rng.below(n + 1)):
                recorded.clear()
                hits = list(_hits(g, k, limit))
                runs = [[tuple(v for v, b in enumerate(batch.blue) if b >> i & 1)
                         for i in range(batch.width)] for batch in recorded]
                batch_counts.append(len(runs))
                subsets = [s for lanes in runs for s in lanes]
                floor = throttling._pt_floor(g, k)
                low = [i for i, batch in enumerate(recorded) if batch.hit and batch.hit[0] <= floor]
                assert low in ([], [len(recorded) - 1])
                if limit < floor:
                    assert recorded == []
                else:
                    assert subsets == (every[:len(subsets)] if low else every)
                assert all(batch.size == k for batch in recorded)
                assert all(len(lanes) <= cap for lanes in runs)
                assert all(len(a) + len(b) > cap for a, b in zip(runs, runs[1:]))
                fits = {s: pt for s, pt in scalar.items()
                        if pt is not None and pt <= limit}
                # (pt, subset) tuples order as (pt, lane): lanes are lexicographic.
                firsts = [min(done) for lanes in runs
                          if (done := [(fits[s], s) for s in lanes if s in fits])]
                assert hits[:1] == [(pt, frozenset(s)) for pt, s in firsts[:1]], (cap, k, limit)
                assert all(a[0] > b[0] for a, b in zip(hits, hits[1:])), (cap, k, limit)
                expected = None
                if fits:
                    pt, s = min((pt, s) for s, pt in fits.items())
                    expected = pt, frozenset(s)
                assert _least(g, k, limit) == (hits[-1] if hits else None) == expected, (
                    cap, k, limit)
        assert max(batch_counts) > 1


def test_only_hits_walks_the_kernel_batches():
    # One loop runs the kernel over the batches of a size, and one loop in
    # throttle runs the sizes, so budgets, counters and filters on each loop
    # have one place to go. The one floor is read there too, and every scan
    # names its round limit: none of the three has an unlimited default.
    tree = ast.parse(open(throttling.__file__, encoding="utf-8").read())
    users = {name: [node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
                    and any(isinstance(x, ast.Name) and x.id == name for x in ast.walk(node))]
             for name in ("_batches", "_first_completion", "_pt_floor")}
    assert users == {"_batches": ["_hits"], "_first_completion": ["_hits"], "_pt_floor": ["_hits"]}
    for fn in (_first_completion, _hits, _least):
        limit = list(inspect.signature(fn).parameters.values())[-1]
        assert limit.name in ("budget", "limit") and limit.default is inspect.Parameter.empty
    # One size loop, which throttle and the th-only rows share, runs every
    # size, Z- included, through one call of _least.
    loops = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert sum(isinstance(x, ast.Name) and x.id == "_least"
               for x in ast.walk(loops["_optimum"])) == 1
    assert any(isinstance(x, ast.Name) and x.id == "_optimum"
               for x in ast.walk(loops["throttle"]))


def strict_agrees_with_throttle(g):
    """The size loop without ties (slack 0) gives throttle's th, Z- and
    witness; it has no witness only where th = n."""
    r = throttle(g)
    best, witness, _, z = _optimum(g, 0)
    assert (best, z) == (r.th, r.z_minus), g
    assert witness == (None if r.th == g.n else r.witness), g


def test_strict_size_loop_matches_throttle_on_every_class_to_order_7():
    for n in range(8):
        for rows, _ in graph_classes(n):
            strict_agrees_with_throttle(from_edge_list(
                n, [(u, v) for u in range(n) for v in range(u) if rows[u] >> v & 1]))


@pytest.mark.parametrize("n", range(8, 17))
def test_strict_size_loop_matches_throttle_on_random_graphs(n):
    for seed in range(12):
        strict_agrees_with_throttle(random_graph(n, 50 * n + seed, percent=15 + 5 * seed))


@pytest.mark.parametrize("spec", ["star:20", "empty:5", "complete:6", "gadget_cycle:13,20"])
def test_strict_size_loop_matches_throttle_on_families(spec):
    strict_agrees_with_throttle(family_graph(spec))


def test_least_stops_after_a_hit_in_one_round(monkeypatch):
    # spider:5,5 ties th = 7 at size 6 with pt 1 in the second batch of that
    # size. No set smaller than n completes in 0 rounds, so the batches after
    # that hit, which could only run at budget 0 (16 of them), do not run.
    g = family_graph("spider:5,5")
    batches = record_batches(monkeypatch)
    r = throttle(g)
    assert (r.th, r.k, r.pt, r.per_k) == (7, 4, 3, {4: 7, 6: 7})
    assert batches[-1].size == 6 and batches[-1].hit[0] == 1
    assert all(b.budget != 0 for b in batches)
    assert sum(b.width for b in batches if b.size == 6) < comb(g.n, 6)


def test_throttle_and_throttling_at_k_match_brute_force_to_order_6():
    for n in range(7):
        for g in all_graphs(n):
            th, witness, z, ptm, per_k = brute_force_table(g)
            r = throttle(g)
            optimal = {k: v for k, v in per_k.items() if v == th}
            assert (r.th, r.witness, r.per_k, r.z_minus, r.pt_minimum) == (
                th, witness, optimal, z, ptm)
            assert [throttling_at_k(g, k) for k in range(n + 1)] == [
                per_k.get(k) for k in range(n + 1)]


def _floor(g):
    """max(δ(G) - 1, 0): if S != V forces, some vertex u has exactly one white
    neighbour in round 1, so |S| >= deg(u) - 1."""
    return max(min(map(len, g.adj), default=0) - 1, 0)


@pytest.mark.parametrize("spec", ["star:20"])
def test_high_z_graphs_run_many_full_batches_at_the_real_cap(monkeypatch, spec):
    # Z- = n - 2 and δ = 1. The greedy bound is Z- itself, so the descent
    # scans size n - 3 once, in one batch without a hit, and throttle adds
    # size n - 2: a few batches. A middle size still takes many full batches
    # at its limit n - k: C(21, 10) = 352,716 lanes.
    g = family_graph(spec)
    batches = record_batches(monkeypatch)
    assert skew_zero_forcing_number(g) == g.n - 2
    assert [(b.size, b.hit) for b in batches] == [(g.n - 3, None)]
    batches.clear()
    r = throttle(g)
    assert r.th == g.n - 1  # the value n - 1 of the paper's characterization
    assert (r.z_minus, r.pt_minimum) == (g.n - 2, 1)
    trace = propagate(g, r.witness)
    assert trace.completed and r.k + trace.pt == r.th
    assert len(batches) <= 3
    batches.clear()
    k = g.n // 2
    assert throttling_at_k(g, k) is None
    widths = [b.width for b in batches]
    assert sum(widths) == comb(g.n, k) and len(widths) > comb(g.n, k) // LANE_CAP
    assert max(widths) > LANE_CAP // 2
    assert all(b.size == k and b.budget == g.n - k and b.hit is None for b in batches)


FLOORED_RESULTS = {
    "complete:20": ThrottleResult(19, frozenset(range(18)), 18, 1, {18: 19}, 18, 1),
    "complete_multipartite:4,4,4,4":
        ThrottleResult(15, frozenset(range(15)) - {11}, 14, 1, {14: 15}, 14, 1),
}


@pytest.mark.parametrize("spec", FLOORED_RESULTS)
def test_scan_runs_no_batch_below_the_min_degree_floor(monkeypatch, spec):
    # K20 has δ = n - 1, so its floor n - 2 is Z- itself and no size below
    # it is scanned; K(4,4,4,4) has δ = 12 and Z- = 14, so the descent scans
    # size 13 and nothing below it.
    g = family_graph(spec)
    batches = record_batches(monkeypatch)
    r = throttle(g)
    assert r == FLOORED_RESULTS[spec]
    assert r.th == g.n - 1  # the value n - 1 of the paper's characterization
    z, floor = r.z_minus, _floor(g)
    assert min(b.size for b in batches) == (z if z == floor else z - 1) >= floor
    trace = propagate(g, r.witness)
    assert trace.completed and r.k + trace.pt == r.th


def test_forcing_number_runs_no_batch_at_z_minus(monkeypatch):
    # The descent ends with one empty scan at size 13; the size itself needs
    # no scan, only pt_minimum and the witness do.
    g = family_graph("complete_multipartite:4,4,4,4")
    batches = record_batches(monkeypatch)
    assert skew_zero_forcing_number(g) == 14
    assert [b.size for b in batches] == [13]
    assert batches[0].hit is None


def _assert_one_empty_scan(g, batches):
    """floor <= Z- <= U for the greedy bound U, whose set forces under scalar
    propagate, and the descent scans at most one size that ends without a
    hit: Z- - 1, or none where `_pt_floor` proves that size empty, as it
    does below the min-degree floor."""
    batches.clear()
    z = skew_zero_forcing_number(g)
    floor, greedy = _floor(g), throttling._greedy(g)
    assert floor <= z <= greedy.bit_count()
    assert propagate(g, [v for v in range(g.n) if greedy >> v & 1]).completed
    empty = {b.size for b in batches} - {b.size for b in batches if b.hit}
    proven = z == 0 or throttling._pt_floor(g, z - 1) > g.n - z + 1
    assert proven or z > floor, g
    assert empty == (set() if proven else {z - 1}), g


def test_descent_scans_one_empty_size_to_order_5(monkeypatch):
    batches = record_batches(monkeypatch)
    for n in range(6):
        for g in all_graphs(n):
            _assert_one_empty_scan(g, batches)


@pytest.mark.parametrize("n, percent", [(16, 40), (17, 50), (18, 60), (16, 70), (19, 30)])
def test_descent_scans_one_empty_size_on_random_graphs(monkeypatch, n, percent):
    batches = record_batches(monkeypatch)
    for seed in range(3):
        _assert_one_empty_scan(random_graph(n, seed, percent), batches)


def test_pruned_sets_force_and_are_minimal_to_order_5():
    # Pruning the whole vertex set can drop many sizes at once: on star:20
    # it leaves n - 2 vertices.
    star20 = family_graph("star:20")
    assert throttling._pruned(star20.bit_adjacency, (1 << star20.n) - 1).bit_count() == 19
    for n in range(6):
        for g in all_graphs(n):
            full = (1 << n) - 1
            for chosen in (full, throttling._greedy(g)):
                kept = throttling._pruned(g.bit_adjacency, chosen)
                members = [v for v in range(n) if kept >> v & 1]
                assert kept & ~chosen == 0 and propagate(g, members).completed
                assert not any(propagate(g, set(members) - {v}).completed for v in members)


def test_greedy_set_is_minimal_to_order_5():
    # `_greedy` does not test its last vertex for pruning: this checks it too.
    for n in range(6):
        for g in all_graphs(n):
            chosen = throttling._greedy(g)
            members = {v for v in range(n) if chosen >> v & 1}
            assert propagate(g, members).completed
            assert not any(propagate(g, members - {v}).completed for v in members), g


def test_no_set_below_the_min_degree_floor_forces_to_order_6():
    # Graphs with δ <= 1 have floor 0, which claims nothing.
    checked = tight = 0
    for n in range(7):
        for g in all_graphs(n):
            if floor := _floor(g):
                _, _, z, ptm, _ = brute_force_table(g)
                assert z >= floor
                r = throttle(g)
                assert (r.z_minus, r.pt_minimum) == (z, ptm)
                checked += 1
                tight += z == floor
    assert checked and tight


@given(st.integers(7, 9), st.integers(0, 2 ** 16), st.integers(40, 100))
@settings(max_examples=40, deadline=None)
def test_no_set_below_the_min_degree_floor_forces_on_random_graphs(n, seed, percent):
    g = random_graph(n, seed, percent)
    th, witness, z, ptm, per_k = brute_force_table(g)
    assert z >= _floor(g)
    r = throttle(g)
    assert (r.th, r.witness, r.z_minus, r.pt_minimum) == (th, witness, z, ptm)


def _pt_floor_checks(g):
    """(sizes where some forcing set meets the floor, sizes whose floor says
    that none forces) for g, after checking under scalar propagate that no
    size-k forcing set completes in fewer than _pt_floor(g, k) rounds. A
    size-k forcing set completes within n - k rounds, so a floor above n - k
    appears only where no size-k set forces."""
    met = never = 0
    for k in range(g.n + 1):
        floor = throttling._pt_floor(g, k)
        pts = [pt for s in combinations(range(g.n), k) if (pt := propagate(g, s).pt) is not None]
        assert all(floor <= pt for pt in pts), (g, k, floor)
        met += min(pts, default=None) == floor
        never += floor > g.n - k
    return met, never


def test_pt_floor_is_at_most_every_forcing_time_on_every_class_to_order_6():
    totals = [0, 0]
    for n in range(1, 7):
        for rows, _ in graph_classes(n):
            g = from_edge_list(n, [(u, v) for u in range(n) for v in range(u) if rows[u] >> v & 1])
            totals = [a + b for a, b in zip(totals, _pt_floor_checks(g))]
    assert totals == [770, 153]  # of 1375 (class, k) pairs


def test_pt_floor_holds_the_min_degree_floor_to_order_6():
    # Below δ - 1 blue vertices no vertex has deg - 1 blue neighbours, so
    # round 1 forces nothing and the floor says no size-k set forces.
    for n in range(1, 7):
        for rows, _ in graph_classes(n):
            g = from_edge_list(n, [(u, v) for u in range(n) for v in range(u) if rows[u] >> v & 1])
            for k in range(_floor(g)):
                assert throttling._pt_floor(g, k) == n - k + 1, (g, k)


@pytest.mark.parametrize("spec, k, floor", [
    ("complete:6", 3, 4), ("complete_multipartite:4,4,4,4", 10, 7), ("hypercube:4", 2, 15),
])
def test_pt_floor_proves_sizes_below_the_min_degree_floor_empty(spec, k, floor):
    # The degree sum alone allows a round 1 here; each forcer's deg - 1
    # distinct blue neighbours do not.
    g = family_graph(spec)
    assert k < _floor(g) and throttling._pt_floor(g, k) == floor == g.n - k + 1


@pytest.mark.parametrize("n", range(7, 11))
@pytest.mark.parametrize("percent", [25, 50, 75])
def test_pt_floor_is_at_most_every_forcing_time_on_random_graphs(n, percent):
    _pt_floor_checks(random_graph(n, n, percent))


PT_FLOOR_CUTS = {
    "cycle:24": (6, 7, ThrottleResult(7, frozenset({0, 1, 10, 11}), 4, 3, {4: 7}, 2, 6)),
    "gadget_cycle:13,20":
        (7, 324, ThrottleResult(8, frozenset({2, 3, 5, 7}), 4, 4, {4: 8, 5: 8}, 2, 8)),
}


@pytest.mark.parametrize("spec", PT_FLOOR_CUTS)
def test_sizes_below_their_pt_floor_run_no_batch(monkeypatch, spec):
    # th is reached below the last size, whose budget th - k is 1 round but
    # whose floor is 2. Run anyway, that size would take 11 more batches on
    # cycle:24 and 1,249 more on gadget_cycle:13,20, none with a hit.
    size, runs, result = PT_FLOOR_CUTS[spec]
    g = family_graph(spec)
    batches = record_batches(monkeypatch)
    assert throttle(g) == result
    assert result.th - size == 1 < throttling._pt_floor(g, size)
    assert len(batches) == runs and max(b.size for b in batches) == size - 1


# (n, seed, percent): every member searches some size with more than 4096
# lanes, so the two caps cut it into different batches.
CAP_CORPUS = [(15, 1, 15), (15, 7, 60), (16, 2, 30), (16, 6, 60), (17, 3, 45),
              (17, 8, 55), (18, 4, 60), (18, 5, 20), (18, 9, 35)]


def test_results_do_not_depend_on_the_lane_cap(monkeypatch):
    graphs = [random_graph(*spec) for spec in CAP_CORPUS]
    assert sum(_floor(g) > 0 for g in graphs) > len(graphs) // 2
    wide = [throttle(g) for g in graphs]
    assert all(max(comb(g.n, k) for k in range(r.z_minus, r.th)) > 4096
               for g, r in zip(graphs, wide))
    monkeypatch.setattr(throttling, "LANE_CAP", 4096)
    for spec, g, r in zip(CAP_CORPUS, graphs, wide):
        assert throttle(g) == r, spec


def test_lane_word_table_stays_under_one_mebibyte(monkeypatch):
    # The table lives as long as the process and grows with LANE_CAP: these
    # solves leave about 0.6 MiB of lane bits at a cap of 16384 and about
    # 1.8 MiB at 65536.
    table = {}
    monkeypatch.setattr(throttling, "_WORDS", table)
    for spec in ("cycle:24", "spider:5,5"):
        throttle(family_graph(spec))
    for n, seed, percent in ((16, 1, 30), (17, 2, 45), (18, 3, 25), (19, 4, 40)):
        throttle(random_graph(n, seed, percent))
    assert sum(m * comb(m, t) for m, t in table) < 8 << 20
