import csv
import io
import json
import math
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import szf.cli
from szf.canon import graph_classes
from szf.cli import CAMPAIGNS, _all_graphs_stats, _corona_base_graph, _formula_row, main
from szf.families import (
    _FAMILIES, corona_k1, corona_k2, cycle, family_graph, friendship, h_graph,
)
from szf.formats import format_edge_list, from_graph6, parse_edge_list, to_graph6
from szf.forcing import is_skew_forcing_set, propagate
from szf.graph import components
from szf.structure import ExtremeClassification, classify_extremes
from szf.throttling import throttle

from helpers import labeled_extremes_mismatches


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_cycle_family(capsys):
    code, out, _ = run_cli(capsys, "compute", "--family", "cycle:8")
    assert code == 0
    payload = json.loads(out)
    assert payload["th"] == 4
    assert payload["n"] == 8
    witness = payload["witness"]
    g = cycle(8)
    assert is_skew_forcing_set(g, witness)
    assert len(witness) + payload["pt"] == payload["th"]


def test_compute_spider_family(capsys):
    code, out, _ = run_cli(capsys, "compute", "--family", "spider:4,3")
    assert code == 0
    assert json.loads(out)["th"] == 5  # exhaustive optimum, see acceptance notes


def test_compute_k1_from_file(tmp_path, capsys):
    path_ = tmp_path / "k1.g6"
    path_.write_text("@\n")
    code, out, _ = run_cli(capsys, "compute", "--input", str(path_))
    assert code == 0
    payload = json.loads(out)
    assert (payload["th"], payload["k"], payload["pt"]) == (1, 1, 0)


def test_compute_reads_stdin(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("Bw\n"))
    code, out, _ = run_cli(capsys, "compute")
    assert code == 0
    assert json.loads(out)["th"] == 2


def test_compute_edge_list_input(tmp_path, capsys):
    source = tmp_path / "p3.txt"
    source.write_text("# a comment\n3 2\n0 1\n1 2\n")
    code, out, _ = run_cli(capsys, "compute", "--input", str(source),
                           "--format", "edgelist")
    assert code == 0
    assert json.loads(out)["th"] == 2


def test_compute_trace_reverifies(capsys):
    code, out, _ = run_cli(capsys, "compute", "--family", "path:6", "--trace")
    payload = json.loads(out)
    lines = payload["trace"]
    assert lines[-1] == f"completed pt={payload['pt']}"
    rounds = [int(line.split()[0]) for line in lines[:-1]]
    assert rounds == sorted(rounds)


def test_compute_json_keys_are_frozen(capsys):
    code, out, _ = run_cli(capsys, "compute", "--family", "path:5")
    payload = json.loads(out)
    assert set(payload) == {"n", "th", "k", "pt", "witness", "per_k", "z_minus", "pt_minimum"}


def test_compute_bound_at_or_above_the_optimum_keeps_the_json(capsys):
    code, out, _ = run_cli(capsys, "compute", "--family", "cycle:12", "--bound", "5")
    assert code == 0
    assert json.loads(out)["th"] == 5
    _, plain, _ = run_cli(capsys, "compute", "--family", "cycle:8")
    code, out, _ = run_cli(capsys, "compute", "--family", "cycle:8", "--bound", "4")
    assert code == 0
    assert out == plain


def test_compute_bound_below_the_optimum_exits_2(capsys):
    code, out, err = run_cli(capsys, "compute", "--family", "cycle:8", "--bound", "3")
    assert code == 2
    assert "below the optimum" in err
    assert out == ""


def test_compute_parse_failure_exit_code(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("B\x01w\n"))
    code, _, err = run_cli(capsys, "compute")
    assert code == 2
    assert "error" in err


def test_compute_max_n_guard(capsys):
    code, _, err = run_cli(capsys, "compute", "--family", "cycle:30")
    assert code == 3
    assert "exceeds" in err


@pytest.mark.parametrize("argv, message", [
    (("compute",), "graph order 100000 exceeds the limit 26 (set --max-n or SZF_MAX_N)"),
    (("classify", "--check"), "graph order 100000 exceeds the limit 26 for --check"),
], ids=["compute", "classify-check"])
def test_declared_edge_list_order_is_guarded_before_the_graph_is_built(
        capsys, monkeypatch, argv, message):
    import io
    built = []

    def spy(n, edges):
        built.append(n)
        raise AssertionError(f"a graph of order {n} was built")

    for module in ("szf.cli", "szf.formats", "szf.graph"):
        monkeypatch.setattr(f"{module}.from_edge_list", spy)
    monkeypatch.setattr("sys.stdin", io.StringIO("100000 0\n"))
    code, out, err = run_cli(capsys, *argv, "--format", "edgelist")
    assert (code, out, err.strip(), built) == (3, "", message, [])


# The edgeless graph of order 2000 in graph6: '~', an 18-bit order, then
# C(2000, 2) zero bits in 333,167 characters.
EDGELESS_2000_G6 = "~" + "".join(chr((2000 >> s & 63) + 63) for s in (12, 6, 0)) + "?" * 333167


@pytest.mark.parametrize("argv, message", [
    (("compute",), "graph order 2000 exceeds the limit 26 (set --max-n or SZF_MAX_N)"),
    (("classify", "--check"), "graph order 2000 exceeds the limit 26 for --check"),
], ids=["compute", "classify-check"])
def test_graph6_order_is_guarded_before_the_graph_is_decoded(capsys, monkeypatch, argv,
                                                             message):
    built = []

    def spy(n, edges):
        built.append(n)
        raise AssertionError(f"a graph of order {n} was built")

    for module in ("szf.cli", "szf.formats", "szf.graph"):
        monkeypatch.setattr(f"{module}.from_edge_list", spy)
    monkeypatch.setattr("sys.stdin", io.StringIO(EDGELESS_2000_G6 + "\n"))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err.strip(), built) == (3, "", message, [])
    # Malformed text is refused before the guard reads the order.
    monkeypatch.setattr("sys.stdin", io.StringIO(EDGELESS_2000_G6[:-1] + "\n"))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err.strip(), built) == (
        2, "", "error: truncated graph6 bit stream", [])


@pytest.mark.parametrize("text, fmt, message", [
    ("", "graph6", "empty graph6 string"),
    ("~AB\n", "graph6", "truncated graph6 order field"),
    ("~~AAAAAA\n", "graph6", "graph6 orders above 258047 are not supported"),
    ("", "edgelist", "empty edge-list input"),
    ("1 2 3\n", "edgelist", "expected 'n m' header, got '1 2 3'"),
    ("2 1\n0 1 2\n", "edgelist", "expected 'u v' edge line, got '0 1 2'"),
    ("2 1\n0 x\n", "edgelist", "non-integer edge line '0 x'"),
], ids=["g6-empty", "g6-order-field", "g6-order-258048", "el-empty", "el-header",
        "el-edge-arity", "el-edge-int"])
def test_malformed_input_is_a_parse_failure(tmp_path, capsys, text, fmt, message):
    source = tmp_path / "input.txt"
    source.write_text(text)
    code, out, err = run_cli(capsys, "compute", "--input", str(source), "--format", fmt)
    assert (code, out, err.strip()) == (2, "", f"error: {message}")


@pytest.mark.parametrize("argv, message", [
    (("compute",), "exceeds the limit 26 (set --max-n or SZF_MAX_N)"),
    (("classify", "--check"), "exceeds the limit 26 for --check"),
], ids=["compute", "classify-check"])
@pytest.mark.parametrize("spec, n", [
    ("path:200000", 200000), ("corona_k2(cycle:10)", 30), ("hypercube:5", 32),
    ("gadget_cycle:23,3", 55),
])
def test_family_order_is_guarded_before_the_graph_is_built(capsys, monkeypatch, argv,
                                                            message, spec, n):
    def spy(order, edges):
        raise AssertionError(f"a graph of order {order} was built")

    monkeypatch.setattr("szf.families.from_edge_list", spy)
    code, out, err = run_cli(capsys, *argv, "--family", spec)
    assert (code, out, err.strip()) == (3, "", f"graph order {n} {message}")


@pytest.mark.parametrize("argv, message", [
    (("compute", "--family"), "exceeds the limit 26 (set --max-n or SZF_MAX_N)"),
    (("family",), "exceeds the limit 258047 (the most vertices graph6 can encode)"),
], ids=["compute", "family"])
@pytest.mark.parametrize("spec, n", [
    ("gadget_cycle:1000000000,1", 10 ** 9), ("corona_k2(gadget_path:1000000000,3)", 3 * 10 ** 9),
])
def test_gadget_spec_is_refused_on_its_base_length_before_the_draw(capsys, monkeypatch, argv,
                                                                   message, spec, n):
    # A gadget spec's order is known only once its L attachments are drawn.
    # L is the least order it can have, so a base length above the limit is
    # refused without a draw, and the message names that least order.
    def spy(*spec_args):
        raise AssertionError(f"a gadget spec {spec_args} was drawn")

    monkeypatch.setattr("szf.families.random_gadget_spec", spy)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv, spec)
    assert (code, out, err.strip()) == (3, "", f"graph order {n} {message}")
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("argv", [("compute",), ("classify", "--check")],
                         ids=["compute", "classify-check"])
@pytest.mark.parametrize("source, limit, message", [
    ("flag", "-5", "the order limit (--max-n or SZF_MAX_N) must be at least 0, got -5"),
    ("env", "-1", "the order limit (--max-n or SZF_MAX_N) must be at least 0, got -1"),
    ("env", "abc", "SZF_MAX_N must be an integer, got 'abc'"),
], ids=["flag", "env", "env-text"])
def test_negative_order_guard_is_a_parse_failure(capsys, monkeypatch, argv, source, limit,
                                                 message):
    if source == "flag":
        argv += ("--max-n", limit)
    else:
        monkeypatch.setenv("SZF_MAX_N", limit)
    code, out, err = run_cli(capsys, *argv, "--family", "path:3")
    assert (code, out, err.strip()) == (2, "", f"error: {message}")


def test_order_guard_zero_admits_only_the_empty_graph(capsys):
    code, out, _ = run_cli(capsys, "compute", "--family", "empty:0", "--max-n", "0")
    assert code == 0 and json.loads(out)["th"] == 0
    code, out, err = run_cli(capsys, "compute", "--family", "path:3", "--max-n", "0")
    assert (code, out) == (3, "") and "exceeds the limit 0" in err


def test_classify_without_check_has_no_order_guard(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("30 0\n"))
    code, out, _ = run_cli(capsys, "classify", "--format", "edgelist")
    assert code == 0
    assert json.loads(out)["value"] == 30


def test_compute_max_n_env_override(capsys, monkeypatch):
    monkeypatch.setenv("SZF_MAX_N", "30")
    code, out, _ = run_cli(capsys, "compute", "--family", "corona_k1(cycle:14)")
    assert code == 0
    assert json.loads(out)["th"] == 2


def test_classify_friendship(capsys):
    code, out, _ = run_cli(capsys, "classify", "--family", "friendship:3")
    payload = json.loads(out)
    assert payload["label"] == "th_equals_2"
    assert payload["value"] == 2


def test_classify_star_with_check(capsys):
    code, out, _ = run_cli(capsys, "classify", "--family", "star:5", "--check")
    payload = json.loads(out)
    assert payload["value"] == 5
    assert payload["solver_th"] == 5
    assert payload["agrees"] is True


def test_classify_edgeless(capsys):
    code, out, _ = run_cli(capsys, "classify", "--family", "empty:4")
    payload = json.loads(out)
    assert payload["label"] == "th_equals_n" and payload["value"] == 4


def test_family_graph6_emission(capsys):
    code, out, _ = run_cli(capsys, "family", "cycle:4", "--emit", "graph6")
    assert code == 0
    comment, payload = out.strip().split("\n")
    assert comment.startswith("# family=cycle:4")
    assert payload == to_graph6(cycle(4))
    assert from_graph6(payload) == cycle(4)


def test_family_edge_list_emission(capsys):
    code, out, _ = run_cli(capsys, "family", "h:0,2,0", "--emit", "edgelist")
    assert code == 0
    assert parse_edge_list(out) == h_graph(0, 2, 0)
    assert out.splitlines()[0].startswith("#")


def test_family_matching(capsys):
    code, out, _ = run_cli(capsys, "family", "matching:2", "--emit", "edgelist")
    body = parse_edge_list(out)
    assert body.n == 4 and body.num_edges() == 2


def test_family_bad_spec(capsys):
    code, _, err = run_cli(capsys, "family", "zigzag:4")
    assert code == 2


@pytest.mark.parametrize("argv", [("family", ""), ("compute", "--family", "")])
def test_empty_family_spec_is_a_parse_failure(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err.strip()) == (2, "", "error: unknown family ''")


def test_family_prints_its_labeling_note(capsys):
    # The note reads the family name as the spec parser does, blanks stripped.
    for spec in ("cycle:4", " cycle:4", "cycle :4"):
        code, out, _ = run_cli(capsys, "family", spec)
        assert (code, out) == (0, f"# family={spec} n=4 labeling: vertices 0..n-1 in ring "
                                  "order, edge (n-1,0) closes the cycle\nCl\n"), spec
    # Every family prints the labeling of its own row, as do the wrappers and
    # the parameter-list family; none falls back to a generic note.
    notes = {
        "path:3": "vertices 0..n-1 in path order",
        "cycle:4": "vertices 0..n-1 in ring order, edge (n-1,0) closes the cycle",
        "complete:3": "vertices 0..n-1, every pair adjacent",
        "empty:3": "vertices 0..n-1, no edges",
        "star:3": "center 0, leaves 1..p",
        "matching:2": "edge i joins 2i and 2i+1",
        "hypercube:2": "vertices are n-bit integers, edges at Hamming distance 1",
        "friendship:2": "hub 0, then triangle pairs",
        "spider:3,2": "center 0, leg j occupies 1+j*leg..(j+1)*leg outward",
        "h:1,1,1": "hub 0, then pendant pairs, triangle pairs, extra edge pairs",
        "h_graph:0,1,0": "hub 0, then pendant pairs, triangle pairs, extra edge pairs",
        "gadget_cycle:10,3": "base vertices 0..L-1 first, gadget pairs appended",
        "gadget_path:5,2": "base vertices 0..L-1 first, gadget pairs appended",
        "complete_multipartite:2,3": "part i is a contiguous id block, parts in spec order",
        "corona_k1(cycle:4)":
            "inner spec's m vertices first, then vertex i's K1 copy at m+i (graph.corona)",
        "corona_k2(path:3)": "inner spec's m vertices first, then vertex i's K2 copy "
                             "at m+2i, m+2i+1 (graph.corona)",
    }
    assert set(_FAMILIES) <= {spec.split(":")[0] for spec in notes}
    for spec, note in notes.items():
        code, out, _ = run_cli(capsys, "family", spec)
        n = family_graph(spec).n
        assert (code, out.splitlines()[0]) == (0, f"# family={spec} n={n} labeling: {note}")
        assert "dense ids" not in out


@pytest.mark.parametrize("fmt", ["graph6", "edgelist"])
@pytest.mark.parametrize("spec", ["cycle:4", "spider:3,2", "corona_k1(path:3)"])
def test_family_output_reads_back_as_compute_input(tmp_path, capsys, spec, fmt):
    # `compute --input` skips the '#' labeling line that `szf family` prints first.
    _, text, _ = run_cli(capsys, "family", spec, "--emit", fmt)
    source = tmp_path / "graph.txt"
    source.write_text(text)
    code, out, _ = run_cli(capsys, "compute", "--input", str(source), "--format", fmt)
    assert (code, out) == run_cli(capsys, "compute", "--family", spec)[:2]


@pytest.mark.parametrize("emit", ["graph6", "edgelist"])
def test_family_order_above_graph6_is_refused_before_the_build(capsys, monkeypatch, emit):
    def spy(order, edges):
        raise AssertionError(f"a graph of order {order} was built")

    monkeypatch.setattr("szf.families.from_edge_list", spy)
    code, out, err = run_cli(capsys, "family", "hypercube:30", "--emit", emit)
    assert (code, out, err.strip()) == (
        3, "", "graph order 1073741824 exceeds the limit 258047 "
               "(the most vertices graph6 can encode)")


def read_rows(path_):
    with open(path_, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_verify_cycles_campaign(capsys, tmp_path):
    out_file = tmp_path / "rows.csv"
    code, _, err = run_cli(capsys, "verify", "--campaign", "cycles",
                           "--n", "3..10", "--output", str(out_file))
    assert code == 0
    header, rows = read_rows(out_file)
    assert header == ["spec", "n", "computed", "predicted", "match", "runtime_ms"]
    assert len(rows) == 8
    for spec, n, computed, predicted, match, _ in rows:
        assert match == "true" and computed == predicted
    assert "8/8 match" in err


def test_verify_rows_are_deterministic_and_sorted(capsys, tmp_path):
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(capsys, "verify", "--campaign", "paths", "--n", "3..8", "--output", str(f1))
    run_cli(capsys, "verify", "--campaign", "paths", "--n", "3..8", "--output", str(f2))
    _, rows1 = read_rows(f1)
    _, rows2 = read_rows(f2)
    stable1 = [r[:5] for r in rows1]
    assert stable1 == [r[:5] for r in rows2]
    assert stable1 == sorted(stable1)


def test_verify_parallel_matches_serial(capsys, tmp_path):
    f1, f2 = tmp_path / "serial.csv", tmp_path / "par.csv"
    run_cli(capsys, "verify", "--campaign", "cycles", "--n", "3..8",
            "--output", str(f1))
    run_cli(capsys, "verify", "--campaign", "cycles", "--n", "3..8",
            "--jobs", "2", "--output", str(f2))
    _, rows1 = read_rows(f1)
    _, rows2 = read_rows(f2)
    assert [r[:5] for r in rows1] == [r[:5] for r in rows2]


def test_verify_spiders_campaign_reports_leg_three_mismatch(capsys, tmp_path):
    # The closed form says p+2 for leg length 3 but the exhaustive optimum
    # is p+1, so the campaign faithfully reports those rows and exits 1.
    out_file = tmp_path / "spiders.csv"
    code, _, _ = run_cli(capsys, "verify", "--campaign", "spiders",
                         "--output", str(out_file))
    assert code == 1
    _, rows = read_rows(out_file)
    mismatched = {r[0] for r in rows if r[4] == "false"}
    assert mismatched == {"spider:4,3", "spider:5,3", "spider:6,3"}


def test_verify_extremes_small(capsys, tmp_path):
    out_file = tmp_path / "extremes.csv"
    code, _, _ = run_cli(capsys, "verify", "--campaign", "extremes",
                         "--n-max", "4", "--output", str(out_file))
    assert code == 0
    _, rows = read_rows(out_file)
    assert [r[2] for r in rows] == ["0"] * 4


def test_verify_coronas_reports_shared_host_leaf_rows(capsys, tmp_path):
    out_file = tmp_path / "coronas.csv"
    code, _, _ = run_cli(capsys, "verify", "--campaign", "coronas",
                         "--seeds", "7..7", "--output", str(out_file))
    assert code == 1
    _, rows = read_rows(out_file)
    by_spec = {r[0]: r for r in rows}
    assert by_spec["corona_k1(seed=7)"][4] == "true"
    assert by_spec["corona_k2(seed=7)"][4] == "true"
    # Base is a star: its three leaves share one support vertex, so the
    # hosts-only strategy stalls and the optimum is |G|+1, not |G|.
    assert by_spec["corona_k2_leaves(seed=7)"][4] == "false"


def test_verify_coronas_rows_are_exact_throttling_numbers(capsys, tmp_path):
    # Seeds 1..40 reach both branches of the base generator (trees on odd
    # seeds, connected random graphs on even ones) and coronas up to order 24.
    out_file = tmp_path / "coronas.csv"
    run_cli(capsys, "verify", "--campaign", "coronas", "--seeds", "1..40",
            "--output", str(out_file))
    _, rows = read_rows(out_file)
    assert len(rows) == 91
    for spec, n, computed, _, _, _ in rows:
        variant, seed = spec[len("corona_"):-1].split("(seed=")
        base = _corona_base_graph(int(seed))
        g = (corona_k1 if variant == "k1" else corona_k2)(base)
        result = throttle(g)
        assert (int(n), int(computed)) == (g.n, result.th), spec
        trace = propagate(g, result.witness)
        assert trace.completed and result.k + trace.pt == result.th, spec
    by_spec = {r[0]: r[:5] for r in rows}
    # Leaves 1 and 7 share support vertex 0, yet th = |G|; coloring only the
    # base vertices takes 9.
    assert by_spec["corona_k2_leaves(seed=17)"] == ["corona_k2_leaves(seed=17)", "24", "8",
                                                    "8", "true"]


def test_verify_unknown_campaign_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--campaign", "nonsense"])


@pytest.mark.parametrize("campaign,flags", [
    ("hypercubes", ("--n", "2..3")),
    ("diameter-bound", ("--seeds", "1..3")),
    ("gadget-family", ("--seeds", "1..3")),
])
def test_verify_small_campaigns_match_and_sort(capsys, tmp_path, campaign, flags):
    out_file = tmp_path / "rows.csv"
    code, _, _ = run_cli(capsys, "verify", "--campaign", campaign, *flags,
                         "--output", str(out_file))
    assert code == 0
    _, rows = read_rows(out_file)
    assert rows and all(r[4] == "true" for r in rows)
    keys = [(r[0], int(r[1])) for r in rows]
    assert keys == sorted(keys)


BAD_VERIFY_FLAGS = [
    (("--campaign", "cycles", "--n", "9..3"), "--n must look like A..B with A <= B"),
    (("--campaign", "diameter-bound", "--seeds", "5..1"), "--seeds must look like A..B"),
    (("--campaign", "extremes", "--n-max", "0"), "--n-max must be at least 1"),
    (("--campaign", "cycles", "--n", "3..4", "--jobs", "0"), "--jobs must be at least 1"),
    (("--campaign", "cycles", "--n", "3..4", "--jobs", "-5"), "--jobs must be at least 1"),
    (("--campaign", "paths", "--n", "3..4", "--timeout-s", "nan"), "--timeout-s must be"),
    (("--campaign", "paths", "--n", "3..4", "--timeout-s", "0"), "--timeout-s must be"),
    (("--campaign", "paths", "--n", "3..4", "--timeout-s", "-1"), "--timeout-s must be"),
    (("--campaign", "cycles", "--n", "a..b"), "--n must look like A..B with A <= B, got 'a..b'"),
]


@pytest.mark.parametrize("flags, message", [pytest.param(*case, id=f"flags{i}")
                                            for i, case in enumerate(BAD_VERIFY_FLAGS)])
def test_verify_empty_range_is_an_error(capsys, flags, message):
    code, out, err = run_cli(capsys, "verify", *flags)
    assert code == 2
    assert err.startswith(f"error: {message}") and out == ""


def test_verify_output_path_is_opened_before_any_instance_runs(capsys, monkeypatch, tmp_path):
    def spy(n):
        raise AssertionError("the campaign ran")

    monkeypatch.setattr(szf.cli, "graph_classes", spy)
    code, out, err = run_cli(capsys, "verify", "--campaign", "extremes",
                             "--output", str(tmp_path / "missing" / "x.csv"))
    assert (code, out) == (2, "") and err.startswith("error: [Errno 2] No such file")


def test_verify_infinite_timeout_is_no_limit(capsys):
    code, _, _ = run_cli(capsys, "verify", "--campaign", "paths", "--n", "3..4",
                         "--timeout-s", "inf")
    assert code == 0


def test_verify_timeout_overrun_exits_3_after_writing_every_row(capsys, tmp_path):
    # The order-6 row alone runs for tens of milliseconds, far past 1 ms.
    out_file = tmp_path / "extremes.csv"
    code, _, err = run_cli(capsys, "verify", "--campaign", "extremes", "--timeout-s", "0.001",
                           "--output", str(out_file))
    assert code == 3
    assert "exceeded the 0.001s timeout" in err
    _, rows = read_rows(out_file)
    assert [r[0] for r in rows] == [f"extremes:n={n}" for n in range(1, 7)]


DEFAULTS_RECORD = Path(__file__).with_name("verify_defaults.txt")


def verify_defaults_record() -> str:
    """Every campaign run at its default range: per campaign a '#' line with
    the match summary and exit code, then its CSV lines without runtime_ms."""
    lines = []
    for campaign in CAMPAIGNS:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["verify", "--campaign", campaign])
        summary = err.getvalue().splitlines()[0].rsplit(",", 1)[0]
        lines.append(f"# {summary}, exit {code}")
        lines += [line.rsplit(",", 1)[0] for line in out.getvalue().splitlines()]
    return "\n".join(lines) + "\n"


def test_verify_default_campaigns_match_the_recorded_rows():
    """Rewrite the record with `PYTHONPATH=src python3 tests/test_cli.py`."""
    assert verify_defaults_record() == DEFAULTS_RECORD.read_text()


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records the worker count it is
    asked for and maps in this process, so no worker starts."""

    requested = []

    def __init__(self, max_workers):
        RecordingPool.requested.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("orders,requested", [("2..3", [2]), ("2..2", [])])
def test_verify_jobs_asks_for_no_more_workers_than_instances(
        capsys, monkeypatch, orders, requested):
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "requested", [])
    code, _, _ = run_cli(capsys, "verify", "--campaign", "hypercubes", "--n", orders,
                         "--jobs", "64")
    assert code == 0
    assert RecordingPool.requested == requested


def test_formula_below_the_optimum_is_a_mismatch_row():
    assert _formula_row("cycle:8", cycle(8), 3) == ("cycle:8", 8, 4, 3, False)


@pytest.mark.parametrize("n", range(1, 6))
def test_extremes_classes_count_like_the_labeled_loop(n):
    assert _all_graphs_stats(n) == labeled_extremes_mismatches(n)


def cycles_as_th_equals_n(g):
    """A deliberately wrong classifier rule: cycles get the value n."""
    if g.n >= 3 and all(len(nbrs) == 2 for nbrs in g.adj) and len(components(g)) == 1:
        return ExtremeClassification("th_equals_n", g.n, {"form": "cycle"})
    return classify_extremes(g)


@pytest.mark.parametrize("n", [4, 5])
def test_extremes_classes_and_labeled_loop_catch_the_same_broken_rule(monkeypatch, n):
    monkeypatch.setattr(szf.cli, "classify_extremes", cycles_as_th_equals_n)
    count = _all_graphs_stats(n)
    assert count == labeled_extremes_mismatches(n, cycles_as_th_equals_n)
    assert count == math.factorial(n - 1) // 2  # the labeled n-cycles


def test_extremes_row_raises_when_the_classes_miss_a_labeled_graph(monkeypatch):
    monkeypatch.setattr(szf.cli, "graph_classes", lambda n: list(graph_classes(n))[1:])
    with pytest.raises(RuntimeError, match="order 4"):
        _all_graphs_stats(4)


if __name__ == "__main__":
    DEFAULTS_RECORD.write_text(verify_defaults_record())
