"""Tests of the benchmark itself.

    python3 -m pytest bench        # from the repository root
"""

import json
from itertools import combinations, permutations
from pathlib import Path

import szf

from load import load
from orbits import vertex_orbits
from run import BENCH_JSON, tail_percentile
from tracing import LAYER_METRICS, Tracer, instrument, lex_rank
from workloads import (
    RANDOM_CORPUS, SYMMETRIC_SPECS, WORKLOADS, check_all, classify_output, load_golden,
    make_inputs, random_graph, verify_rows,
)


def graph6_text(graphs) -> str:
    return "".join(szf.to_graph6(g) + "\n" for g in graphs)


def _outputs(golden_seed: dict, ids):
    return [(iid, 0.0, json.loads(json.dumps(golden_seed[iid]))) for iid in ids]


def test_inputs_are_deterministic():
    for name, workload in WORKLOADS.items():
        first, again = make_inputs(name, 7), make_inputs(name, 7)
        assert first.text == again.text and first.digest == again.digest
        if workload.kind == "cli":
            continue
        assert make_inputs(name, 8).text != first.text
        graphs = load(workload.fmt, first.lines, False)
        assert graph6_text(graphs) == graph6_text(load(workload.fmt, again.lines, False))
    assert make_inputs("solve-symmetric", 0).lines[1] == "cycle:20 " + " ".join(
        str(v) for v in range(20))


def test_relabeling_keeps_the_corpus_graph():
    inputs = make_inputs("classify-large", 5)
    base = szf.family_graph(inputs.ids[0])
    g = load("graph6", inputs.lines[:1], False)[0]
    p = inputs.perms[0]
    assert sorted(g.edges()) == sorted(tuple(sorted((p[u], p[v]))) for u, v in base.edges())


def test_vertex_orbits_match_brute_force():
    # C3 + C4 is 2-regular: colour refinement alone puts all vertices in one cell.
    c3_c4 = szf.from_edge_list(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3)])
    graphs = {spec: szf.family_graph(spec) for spec in (
        "cycle:7", "path:6", "spider:3,2", "complete_multipartite:2,3", "star:6")}
    for spec, g in {**graphs, "C3+C4": c3_c4}.items():
        edges = {frozenset(e) for e in g.edges()}
        orbit = {v: {v} for v in g.vertices}
        for p in permutations(g.vertices):
            if all(frozenset((p[u], p[v])) in edges for u, v in g.edges()):
                for v in g.vertices:
                    orbit[v].add(p[v])
        want = sorted({tuple(sorted(o)) for o in orbit.values()})
        assert sorted(map(tuple, vertex_orbits(g))) == want, spec


def test_corpora_have_the_symmetry_they_claim():
    # solve-asymmetric is the control where orbit pruning has nothing to prune.
    for row in RANDOM_CORPUS:
        g = random_graph(*row)
        assert len(vertex_orbits(g)) == g.n, row
    orbits = [len(vertex_orbits(szf.family_graph(spec))) for spec in SYMMETRIC_SPECS]
    assert orbits == [1, 1, 1, 1, 1, 6]


def test_solve_check_rejects_tampered_results():
    golden = load_golden()["solve-symmetric"]
    workload = WORKLOADS["solve-symmetric"]
    inputs = make_inputs(workload.name, 0)
    graphs = load(workload.fmt, inputs.lines, True)
    outputs = _outputs(golden["seeds"]["0"], inputs.ids)
    assert not any(check_all(workload, outputs, graphs, inputs.perms, golden, 0))
    outputs[1][2]["witness"] = [0, 1, 2, 3]
    problems = check_all(workload, outputs, graphs, inputs.perms, golden, 0)
    assert problems[1] and not any(problems[:1] + problems[2:])


def test_solve_invariants_on_an_unrecorded_seed():
    golden = load_golden()["solve-symmetric"]
    workload = WORKLOADS["solve-symmetric"]
    inputs = make_inputs(workload.name, 5)
    iid, line, perm = inputs.ids[1], inputs.lines[1:2], inputs.perms[1:2]
    graphs = load(workload.fmt, line, True)
    got = szf.throttle(graphs[0]).to_json_dict()
    assert check_all(workload, [(iid, 0.0, got)], graphs, perm, golden, 5) == [[]]
    bad_witness = dict(got, witness=sorted(perm[0][v] for v in range(got["k"])))
    bad_ptm = dict(got, pt_minimum=got["pt_minimum"] + 1)
    for bad in (bad_witness, bad_ptm):
        assert check_all(workload, [(iid, 0.0, bad)], graphs, perm, golden, 5) != [[]]


def test_classify_check_rejects_tampered_evidence():
    golden = load_golden()["classify-large"]
    workload = WORKLOADS["classify-large"]
    inputs = make_inputs(workload.name, 1)
    at = inputs.ids.index("path:50")
    graphs = load(workload.fmt, inputs.lines[at:at + 1], False)
    perm = inputs.perms[at:at + 1]
    got = _outputs(golden["seeds"]["1"], ["path:50"])
    assert check_all(workload, got, graphs, perm, golden, 1) == [[]]
    got[0][2]["evidence"]["induced_p4"][0] += 1
    assert check_all(workload, got, graphs, perm, golden, 1) != [[]]

    inputs = make_inputs(workload.name, 9)
    graphs = load(workload.fmt, inputs.lines[at:at + 1], False)
    perm = inputs.perms[at:at + 1]
    out = classify_output(graphs[0])
    assert check_all(workload, [("path:50", 0.0, out)], graphs, perm, golden, 9) == [[]]
    g = graphs[0]
    out["evidence"]["induced_p4"] = next(
        list(quad) for quad in combinations(range(g.n), 4)
        if not any(g.has_edge(u, v) for u, v in combinations(quad, 2)))
    assert check_all(workload, [("path:50", 0.0, out)], graphs, perm, golden, 9) != [[]]


def test_cli_check_rejects_a_changed_row_or_exit_code():
    golden = load_golden()["verify-extremes"]
    workload = WORKLOADS["verify-extremes"]
    header = "spec,n,computed,predicted,match,runtime_ms\n"
    rows = [",".join(row) + ",7\n" for row in golden["rows"].values()]
    good = verify_rows(0, header + "".join(rows))
    assert not any(check_all(workload, good, None, None, golden, 3))
    assert any(check_all(workload, verify_rows(1, header + "".join(rows)), None, None, golden, 3))
    changed = rows[:-1] + [rows[-1].replace(",0,0,true,", ",1,0,false,")]
    assert any(check_all(workload, verify_rows(0, header + "".join(changed)),
                         None, None, golden, 3))
    assert any(check_all(workload, verify_rows(0, header + "".join(rows[:-1])),
                         None, None, golden, 3))


def test_tail_percentile_returns_the_right_sample_and_count():
    assert tail_percentile(list(range(10, 0, -1))) is None
    pct, sample, count = tail_percentile([float(x) for x in range(30, 0, -1)])
    assert (round(pct, 2), sample, count) == (66.67, 20.0, 30)
    samples = list(range(1, 101))
    pct, sample, count = tail_percentile(samples)
    assert (pct, sample, count) == (90.0, 90, 100)
    assert sum(1 for x in samples if x > sample) == 10


def test_lex_rank_matches_enumeration_order():
    for rank, subset in enumerate(combinations(range(7), 4)):
        assert lex_rank(subset, 7) == rank


def test_instrument_records_nested_spans_and_restores():
    original = szf.throttle
    tracer = Tracer()
    with instrument(tracer):
        tracer.at("cycle:6", "pass")
        szf.throttle(szf.from_graph6(szf.to_graph6(szf.family_graph("cycle:6"))))
    assert szf.throttle is original and not hasattr(szf.cli.main, "__wrapped__")
    spans = list(tracer.rows())
    names = [row[0] for row in spans]
    assert {"families.family_graph", "formats.from_graph6", "graph.from_edge_list",
            "throttling.throttle", "graph.bit_adjacency"} <= set(names)
    parent = spans[names.index("graph.from_edge_list")][3]
    assert parent >= 0 and spans[parent][0] == "families.family_graph"
    assert tracer.counts[("throttling.space", 1)] > 0


def test_benchmark_json_matches_the_code():
    spec = json.loads(Path(BENCH_JSON).read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, (unit, better, _, _) in LAYER_METRICS.items()]
