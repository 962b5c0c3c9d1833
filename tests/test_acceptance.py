"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criteria 3 and 5 encode claims that exhaustive search refutes on
part of their range (balanced spiders with legs of three vertices, and
corona K2 bounds for graphs whose leaves share a support vertex); those
tests are faithful to the stated criteria and therefore fail, with the
contradicting witnesses printed. Everything else passes.
"""

import math
import time
from itertools import combinations

import pytest

from szf.families import (
    SplitMix64, complete_multipartite, corona_k1, corona_k2, cycle,
    diameter_bound_holds, gadget_family, hypercube, paired_blue_witness, path,
    random_gadget_spec, spider, star, th_cycle_formula, th_hypercube_formula,
    th_path_formula, th_spider_formula,
)
from szf.formats import from_graph6, to_graph6
from szf.forcing import _ball_cover_bound, propagate, verify_ball_cover
from szf.graph import from_edge_list, components, diameter, leaves, min_degree
from szf.structure import classify_extremes
from szf.throttling import throttle, throttle_with_bound

from helpers import all_graphs, brute_force_table, random_graph

SPIDER_CASES = [(4, 2), (5, 2), (6, 2), (4, 3), (5, 3), (6, 3), (4, 4), (5, 4), (5, 5)]

_completed_traces = []


def _checked_propagate(g, blue):
    """Propagate and bank the trace for the global ball-cover sweep."""
    trace = propagate(g, blue)
    if trace.completed:
        _completed_traces.append((g, frozenset(blue), trace))
    return trace


def _report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}{' ' + detail if detail else ''}")


def corona_base_graph(seed):
    """The frozen corpus for criterion 5: trees on odd seeds, else dense."""
    rng = SplitMix64(seed)
    n = 2 + rng.below(7)
    if seed % 2 == 1:
        return from_edge_list(n, [(v, rng.below(v)) for v in range(1, n)])
    while True:
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.below(100) < 50]
        g = from_edge_list(n, edges)
        if len(components(g)) == 1:
            return g


def test_criterion_01_cycles():
    start = time.monotonic()
    rows = []
    for n in range(3, 19):
        r = throttle(cycle(n))
        rows.append((n, r.th, th_cycle_formula(n)))
        _checked_propagate(cycle(n), r.witness)
    elapsed = time.monotonic() - start
    bad = [row for row in rows if row[1] != row[2]]
    ok = not bad and elapsed < 300
    _report("criterion-1 cycles 3..18", ok, f"{len(rows)} rows, {elapsed:.1f}s")
    assert not bad, bad
    assert elapsed < 300


def test_criterion_02_paths():
    start = time.monotonic()
    rows = []
    for n in range(3, 19):
        r = throttle(path(n))
        rows.append((n, r.th, th_path_formula(n)))
        _checked_propagate(path(n), r.witness)
    elapsed = time.monotonic() - start
    bad = [row for row in rows if row[1] != row[2]]
    ok = not bad and elapsed < 300
    _report("criterion-2 paths 3..18", ok, f"{len(rows)} rows, {elapsed:.1f}s")
    assert not bad, bad
    assert elapsed < 300


def test_criterion_03_balanced_spiders():
    rows = []
    slow = []
    for p, leg in SPIDER_CASES:
        start = time.monotonic()
        predicted = th_spider_formula(p, leg)
        r = throttle_with_bound(spider(p, leg), predicted)
        elapsed = time.monotonic() - start
        rows.append((p, leg, r.th, predicted))
        if elapsed >= 120:
            slow.append((p, leg, elapsed))
        _checked_propagate(spider(p, leg), r.witness)
    bad = [row for row in rows if row[2] != row[3]]
    _report("criterion-3 balanced spiders", not bad and not slow,
            f"mismatches={[(f'spider:{p},{l}', got, want) for p, l, got, want in bad]}")
    assert not slow, slow
    # Faithful to the stated criterion: solver must equal the closed form on
    # all nine pairs. Exhaustive search refutes the closed form for leg
    # length three (optimum p+1 via p-1 blue vertices adjacent to the
    # center, two rounds), so this assertion fails on those three rows.
    assert not bad, f"closed form disagrees with exhaustive search: {bad}"


def test_criterion_04_hypercubes():
    results = []
    for n in (2, 3, 4):
        g = hypercube(n)
        r = throttle_with_bound(g, th_hypercube_formula(n))
        results.append((n, r.z_minus, r.pt_minimum, r.th))
        _checked_propagate(g, r.witness)
    bad = [row for row in results
           if row[1:] != (2 ** (row[0] - 1), 1, 2 ** (row[0] - 1) + 1)]
    _report("criterion-4 hypercubes", not bad, str(results))
    assert not bad, bad


def test_criterion_05_coronas():
    k1_bad = []
    k2_bad = []
    leaf_rows = []
    for seed in range(1, 11):
        base = corona_base_graph(seed)
        g1 = corona_k1(base)
        r1 = throttle(g1)
        if (r1.z_minus, r1.pt_minimum, r1.th) != (0, 2, 2):
            k1_bad.append((seed, r1.z_minus, r1.pt_minimum, r1.th))
        _checked_propagate(g1, r1.witness)

        g2 = corona_k2(base)
        if g2.n <= 15:
            value = throttle_with_bound(g2, base.n + 1).th
        else:
            trace = _checked_propagate(g2, range(base.n))
            assert trace.completed
            value = base.n + trace.pt
        if value > base.n + 1:
            k2_bad.append((seed, value, base.n + 1))
        if len(leaves(base)) >= 3:
            leaf_rows.append((seed, value, base.n))
    leaf_bad = [row for row in leaf_rows if row[1] > row[2]]
    ok = not k1_bad and not k2_bad and not leaf_bad
    _report("criterion-5 coronas", ok,
            f"k1_bad={k1_bad} k2_bad={k2_bad} leaf_bound_bad={leaf_bad}")
    assert not k1_bad, k1_bad
    assert not k2_bad, k2_bad
    # Faithful to the stated criterion: graphs with at least three leaves
    # must satisfy th(G corona K2) <= |G|. When several leaves share one
    # support vertex that vertex can never force any of them, the hosts-only
    # set stalls, and the true optimum is |G|+1; search refutes the claim
    # on those seeds.
    assert not leaf_bad, f"leaf bound refuted at (seed, value, |G|): {leaf_bad}"


@pytest.fixture(scope="module")
def exhaustive_sweep():
    """Brute-force statistics for every labeled graph of order up to six."""
    start = time.monotonic()
    stats = []
    for n in range(1, 7):
        for g in all_graphs(n):
            th, _, z, ptm, _ = brute_force_table(g)
            stats.append((g, th, z, ptm))
    elapsed = time.monotonic() - start
    assert elapsed < 1800
    return stats


def test_criterion_06_extreme_characterizations(exhaustive_sweep):
    start = time.monotonic()
    mismatches = []
    for g, th, _, _ in exhaustive_sweep:
        c = classify_extremes(g)
        if c.value is not None:
            ok = c.value == th
        else:
            ok = th not in {1, 2, g.n - 1, g.n}
        if not ok:
            mismatches.append((list(g.edges()), c.label, c.value, th))
    elapsed = time.monotonic() - start
    total = len(exhaustive_sweep)
    _report("criterion-6 extreme characterizations", not mismatches,
            f"{total} labeled graphs, mismatches={len(mismatches)} "
            f"(classification pass {elapsed:.0f}s over the precomputed sweep)")
    assert not mismatches, mismatches[:5]


def test_criterion_07_complete_multipartite():
    def partitions(n, mx=None):
        mx = n if mx is None else mx
        if n == 0:
            yield []
            return
        for first in range(min(n, mx), 0, -1):
            for rest in partitions(n - first, first):
                yield [first] + rest

    bad = []
    cases = 0
    for n in range(2, 9):
        for parts in partitions(n):
            if len(parts) < 2:
                continue
            cases += 1
            r = throttle(complete_multipartite(parts))
            if (r.th, r.z_minus) != (n - 1, n - 2):
                bad.append((parts, r.th, r.z_minus))
    _report("criterion-7 complete multipartite", not bad, f"{cases} partitions")
    assert not bad, bad


def test_criterion_08_diameter_bound():
    bound_bad = []
    witness_bad = []
    for seed in range(1, 21):
        length = 10 + SplitMix64(seed).below(31)
        spec = random_gadget_spec("cycle", length, seed)
        g = gadget_family(spec)
        d = diameter(g)
        assert min_degree(g) >= 2 and d >= 4
        spacing = max(2, math.isqrt(2 * length))
        witness = paired_blue_witness(spec, spacing)
        trace = _checked_propagate(g, witness)
        if not trace.completed:
            witness_bad.append((seed, "stalled"))
            continue
        value = len(witness) + trace.pt
        if value * value > 36 * length:
            witness_bad.append((seed, value, length))
        value = throttle_with_bound(g, value).th if g.n <= 28 else _ball_cover_bound(g)
        if not diameter_bound_holds(value, d):
            bound_bad.append((seed, value, d))
    ok = not bound_bad and not witness_bad
    _report("criterion-8 diameter bound", ok,
            f"20 seeds, bound_bad={bound_bad}, witness_bad={witness_bad}")
    assert not bound_bad, bound_bad
    assert not witness_bad, witness_bad


def test_criterion_09_property_suites(exhaustive_sweep):
    # Monotonicity under initial-set growth: 200 seeded (g, S, S') cases.
    failures = []
    rng = SplitMix64(2024)
    for case in range(200):
        n = 2 + rng.below(7)
        g = random_graph(n, seed=rng.next_u64(), percent=30 + rng.below(60))
        small = {v for v in range(n) if rng.below(3) == 0}
        big = small | {v for v in range(n) if rng.below(3) == 0}
        tr_small = propagate(g, small)
        tr_big = propagate(g, big)
        blue_s, blue_b = set(small), set(big)
        for r in range(max(len(tr_small.rounds), len(tr_big.rounds))):
            if r < len(tr_small.rounds):
                blue_s |= {e.forced for e in tr_small.rounds[r]}
            if r < len(tr_big.rounds):
                blue_b |= {e.forced for e in tr_big.rounds[r]}
            if not blue_s <= blue_b:
                failures.append(("monotonicity", case))
                break
        if tr_small.completed:
            if not (tr_big.completed and tr_big.pt <= tr_small.pt):
                failures.append(("pt-monotonicity", case))
        if tr_small.completed:
            _completed_traces.append((g, frozenset(small), tr_small))

    # Ball cover on every completed trace banked across the whole run.
    cover_checked = 0
    for g, blue, trace in _completed_traces:
        cover_checked += 1
        if not verify_ball_cover(g, blue, trace):
            failures.append(("ball-cover", sorted(blue)))

    # th = Z + pt whenever pt <= 2, exhaustively for order <= 6.
    smallpt_checked = 0
    for g, th, z, ptm in exhaustive_sweep:
        if ptm is not None and ptm <= 2:
            smallpt_checked += 1
            if th != z + ptm:
                failures.append(("small-pt", list(g.edges())))

    # graph6 round trip on 1000 seeded random graphs.
    rng = SplitMix64(99)
    for case in range(1000):
        n = rng.below(30)
        g = random_graph(n, seed=rng.next_u64(), percent=rng.below(101))
        if from_graph6(to_graph6(g)) != g:
            failures.append(("graph6-roundtrip", case))

    _report("criterion-9 property suites", not failures,
            f"monotonicity=200 ball_cover={cover_checked} "
            f"small_pt={smallpt_checked} roundtrip=1000")
    assert not failures, failures[:5]


def test_criterion_10_star_discrepancy():
    rows = []
    for p in range(2, 7):
        g = star(p)
        brute_th, _, _, _, _ = brute_force_table(g)
        predicted = classify_extremes(g).value
        rows.append((p, brute_th, predicted))
    bad = [row for row in rows if not (row[1] == row[2] == row[0])]
    _report("criterion-10 star discrepancy", not bad,
            f"brute-forced th(K_1,p)=p for p=2..6: {rows}")
    assert not bad, rows
