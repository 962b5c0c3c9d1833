import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from szf.canon import graph_classes
from szf.families import complete, corona_k1, cycle, friendship, h_graph, hypercube, matching, path, star
from szf.forcing import (
    _ball_cover_bound, Coloring, eligible_forces, is_skew_forcing_set, propagate, step,
    verify_ball_cover,
)
from szf.graph import from_edge_list
from szf.throttling import _closure, throttle

from helpers import all_graphs, random_graph, simple_propagation_rounds


def test_white_vertex_with_single_white_neighbor_forces():
    # b - x - y with only b blue: x is white yet forces y. This is the
    # behavior that separates the rule from standard zero forcing.
    g = path(3)
    forces = eligible_forces(g, Coloring.of({0}))
    assert forces == {(0, 1), (1, 2), (2, 1)}


def test_no_forces_in_blank_triangle():
    assert eligible_forces(complete(3), Coloring.of(set())) == frozenset()


def test_star_leaves_force_center():
    g = star(3)
    forces = eligible_forces(g, Coloring.of(set()))
    assert forces == {(1, 0), (2, 0), (3, 0)}


def test_step_finishes_p3_from_one_endpoint():
    g = path(3)
    coloring, events = step(g, Coloring.of({0}))
    assert coloring.blue == frozenset({0, 1, 2})
    assert {(e.forcer, e.forced) for e in events} == {(0, 1), (1, 2), (2, 1)}
    assert all(e.round == 1 for e in events)


def test_step_on_fully_blue_graph_is_a_fixpoint():
    g = cycle(4)
    coloring, events = step(g, Coloring.of(range(4)))
    assert coloring.blue == frozenset(range(4))
    assert events == ()


def test_step_star_center_then_stall():
    g = star(3)
    coloring, events = step(g, Coloring.of(set()))
    assert coloring.blue == frozenset({0})
    coloring2, events2 = step(g, coloring, round_no=2)
    assert events2 == ()
    assert coloring2.blue == coloring.blue


def test_propagate_matching_from_empty_set():
    trace = propagate(matching(3), set())
    assert trace.completed and trace.pt == 1


def test_propagate_corona_pt_two():
    for base in (cycle(4), path(2), complete(3)):
        trace = propagate(corona_k1(base), set())
        assert trace.completed and trace.pt == 2


def test_propagate_triangle_stalls():
    trace = propagate(complete(3), set())
    assert not trace.completed
    assert trace.pt is None
    assert trace.final_blue == frozenset()


def test_pt_zero_iff_everything_blue():
    g = cycle(5)
    assert propagate(g, range(5)).pt == 0
    full_run = propagate(g, {0, 1})
    assert full_run.completed and full_run.pt >= 1


def test_multiple_forcers_of_one_target_are_all_recorded():
    g = star(3)
    trace = propagate(g, {1, 2, 3})
    assert trace.completed
    targets = [(e.forcer, e.forced) for e in trace.events()]
    assert sorted(targets) == [(1, 0), (2, 0), (3, 0)]


def test_friendship_hub_is_a_forcing_set():
    for t in (1, 2, 3):
        g = friendship(t)
        assert is_skew_forcing_set(g, {0})
        trace = propagate(g, {0})
        assert trace.pt == 1


def test_hypercube_small_sets_never_force():
    g = hypercube(3)
    from itertools import combinations
    for size in (0, 1, 2, 3):
        for comb in combinations(range(8), size):
            assert not is_skew_forcing_set(g, comb)


def test_single_vertex_never_self_forces():
    assert not is_skew_forcing_set(from_edge_list(1, []), set())


def test_ball_cover_on_path_midpoint():
    g = path(5)
    trace = propagate(g, {2})
    assert trace.completed
    assert verify_ball_cover(g, {2}, trace)


def test_ball_cover_requires_completion():
    g = complete(3)
    trace = propagate(g, set())
    with pytest.raises(ValueError):
        verify_ball_cover(g, set(), trace)


def test_ball_cover_on_cycle_witness():
    from szf.throttling import throttle
    g = cycle(9)
    result = throttle(g)
    trace = propagate(g, result.witness)
    assert verify_ball_cover(g, result.witness, trace)


def test_propagate_rejects_out_of_range_vertices():
    with pytest.raises(ValueError):
        propagate(path(3), {7})


def test_trace_lines_format():
    trace = propagate(path(3), {0})
    lines = trace.to_lines()
    assert lines[-1] == "completed pt=1"
    for line in lines[:-1]:
        rnd, forcer, forced = map(int, line.split())
        assert rnd == 1

    stalled = propagate(star(3), {0})
    assert stalled.to_lines()[-1] == "stalled blue=1"


@given(st.integers(1, 8), st.integers(0, 2 ** 16), st.data())
@settings(max_examples=120, deadline=None)
def test_blue_sets_grow_monotonically_with_initial_set(n, seed, data):
    g = random_graph(n, seed)
    small = data.draw(st.sets(st.integers(0, n - 1), max_size=n))
    extra = data.draw(st.sets(st.integers(0, n - 1), max_size=n))
    big = small | extra
    tr_small = propagate(g, small)
    tr_big = propagate(g, big)
    blue_small = set(small)
    blue_big = set(big)
    rounds = max(len(tr_small.rounds), len(tr_big.rounds))
    for r in range(rounds):
        if r < len(tr_small.rounds):
            blue_small |= {e.forced for e in tr_small.rounds[r]}
        if r < len(tr_big.rounds):
            blue_big |= {e.forced for e in tr_big.rounds[r]}
        assert blue_small <= blue_big
    if tr_small.completed:
        assert tr_big.completed
        assert tr_big.pt <= tr_small.pt


def test_forcing_is_monotone_in_the_initial_set_to_order_5():
    # The lemma behind the Z- descent: for S a subset of T, if S forces then T
    # forces no slower, and T ends with every vertex S ends with. Masks run
    # over every pair S <= T of every labeled graph.
    pairs = 0
    for n in range(6):
        for g in all_graphs(n):
            traces = [propagate(g, [v for v in range(n) if s >> v & 1]) for s in range(1 << n)]
            for t, big in enumerate(traces):
                s = t
                while True:  # every submask s of t, t itself included
                    small = traces[s]
                    assert small.final_blue <= big.final_blue
                    if small.completed:
                        assert big.completed and big.pt <= small.pt
                    pairs += 1
                    if not s:
                        break
                    s = (s - 1) & t
    assert pairs == sum(3 ** n * 2 ** (n * (n - 1) // 2) for n in range(6))


def test_bit_mask_closure_matches_propagate_to_order_5():
    for n in range(6):
        for g in all_graphs(n):
            for s in range(1 << n):
                blue = propagate(g, [v for v in range(n) if s >> v & 1]).final_blue
                assert _closure(g.bit_adjacency, s) == sum(1 << v for v in blue), (g, s)


@given(st.integers(0, 8), st.integers(0, 2 ** 16), st.integers(0, 255))
@settings(max_examples=200, deadline=None)
def test_trace_and_bitmask_propagation_agree(n, seed, mask):
    g = random_graph(n, seed)
    blue = {v for v in range(n) if (mask >> v) & 1}
    trace = propagate(g, blue)
    reference = simple_propagation_rounds(g, blue)
    assert trace.pt == reference
    if trace.completed:
        assert verify_ball_cover(g, blue, trace)


@given(st.integers(0, 9), st.integers(0, 2 ** 16), st.integers(0, 100), st.data())
@settings(max_examples=120, deadline=None)
def test_is_skew_forcing_set_agrees_with_propagate(n, seed, percent, data):
    g = random_graph(n, seed, percent)
    initial = data.draw(st.sets(st.integers(0, n - 1), max_size=n)) if n else set()
    assert is_skew_forcing_set(g, initial) == propagate(g, initial).completed


def test_is_skew_forcing_set_rejects_out_of_range_vertices():
    for bad in ({3}, {-1}, {0, 7}):
        with pytest.raises(ValueError):
            is_skew_forcing_set(path(3), bad)


def test_ball_cover_bound_is_at_most_th_on_every_class_to_order_7():
    classes = tight = 0
    for n in range(1, 8):
        for rows, _ in graph_classes(n):
            g = from_edge_list(n, [(u, v) for u in range(n) for v in range(u) if rows[u] >> v & 1])
            bound, th = _ball_cover_bound(g), throttle(g).th
            assert bound <= th, rows
            classes += 1
            tight += bound == th
    assert (classes, tight) == (1252, 18)
