"""Workload definitions, seeded input generation and output checks.

Every workload is a fixed corpus of graphs. The seed only picks a
SplitMix64 vertex relabeling of each corpus graph (seed 0 keeps the
documented labeling), so runs under different seeds do the same work up
to labeling and their timings are comparable. Outputs are checked against
golden results recorded for seeds 0 and 1; on any other seed the checks
use the isomorphism-invariant parts of the seed-0 golden result plus
properties of the labeled output that can be re-verified directly.
"""

import csv
import hashlib
import io
import json
import tempfile
import time
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import szf
import szf.cli

from load import load, relabel

GOLDEN_PATH = Path(__file__).with_name("golden.json")
GOLDEN_SEEDS = (0, 1)

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64; the benchmark keeps its own copy so inputs never depend on
    the code under test."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        return self.next_u64() % bound


def relabeling(rng: SplitMix64, n: int) -> list[int]:
    """Fisher-Yates permutation of 0..n-1 drawn from rng."""
    p = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.below(i + 1)
        p[i], p[j] = p[j], p[i]
    return p


def permutations_for(seed: int, orders: list[int]) -> list[list[int]]:
    """One relabeling per corpus graph; seed 0 is the identity on every graph."""
    if seed == 0:
        return [list(range(n)) for n in orders]
    rng = SplitMix64(seed)
    return [relabeling(rng, n) for n in orders]


# ---------------------------------------------------------------------------
# corpora

# Vertex-transitive or highly symmetric: few vertex orbits, deep search, and a
# large post-pass on the dense members.
SYMMETRIC_SPECS = (
    "cycle:24", "cycle:20", "hypercube:4",
    "complete_multipartite:4,4,4,4", "complete_multipartite:5,5,5", "spider:5,5",
)

# (order, edge percentage, generator seed). Every member has a trivial
# automorphism group, so orbit pruning has nothing to prune (a test checks
# this); seeds from 2019 on that gave a symmetric graph were replaced by the
# first unused seed from 2033 on that does not. The dense (40/60%) members
# have a large Z- and carry most of the post-pass.
RANDOM_CORPUS = (
    (16, 15, 2039), (17, 15, 2036), (18, 15, 2039), (19, 15, 2022),
    (16, 25, 2023), (17, 25, 2024), (18, 25, 2033), (19, 25, 2026),
    (16, 40, 2027), (17, 40, 2028), (16, 60, 2031), (17, 60, 2032),
)

# n = 36..64. Cographs run both quad scans to the end; hub and corona graphs
# hit the recognizers; on the non-cographs the relabeling moves the first P4.
CLASSIFY_SPECS = (
    "star:60", "complete_multipartite:15,15,15", "complete:40",
    "complete_multipartite:8,8,8,8,8",
    "friendship:20", "h:8,8,4", "corona_k1(cycle:20)", "corona_k1(path:30)",
    "cycle:40", "path:50", "hypercube:6", "spider:6,6",
)

VERIFY_ARGV = ("verify", "--campaign", "extremes", "--n-max", "6")


def random_graph(n: int, percent: int, graph_seed: int):
    rng = SplitMix64(graph_seed)
    return szf.from_edge_list(
        n, [(i, j) for j in range(n) for i in range(j) if rng.below(100) < percent])


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "solve" | "classify" | "cli": what one instance runs
    fmt: str  # input format handed to load.load


WORKLOADS = {w.name: w for w in (
    Workload("solve-symmetric",
             "throttle() on symmetric families: deep exhaustive search over few "
             "vertex orbits with a large post-pass on the dense graphs",
             "solve", "family"),
    Workload("solve-asymmetric",
             "throttle() on fixed random graphs n=16-19 with trivial automorphism groups: "
             "the kernel does the work, orbit pruning has none; dense members load the post-pass",
             "solve", "graph6"),
    Workload("classify-large",
             "classify_extremes() on n=36-64: cographs run the O(n^4) quad scans "
             "to the end, no search and no kernel",
             "classify", "graph6"),
    Workload("verify-extremes",
             "in-process szf verify --campaign extremes --n-max 6: 33,867 tiny graphs "
             "where per-call overhead dominates; the only workload through the CLI",
             "cli", "cli"),
)}


@dataclass(frozen=True)
class Inputs:
    """What the program receives for one workload and seed."""

    ids: list[str]
    lines: list[str]  # input text handed to load.load, one line per graph
    perms: list[list[int]]  # relabeling applied to each corpus graph

    @property
    def text(self) -> str:
        return "".join(line + "\n" for line in self.lines)

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.text.encode("ascii")).hexdigest()


def make_inputs(name: str, seed: int) -> Inputs:
    """Deterministic inputs: the same workload and seed give the same text."""
    if name == "solve-symmetric":
        bases = [szf.family_graph(s) for s in SYMMETRIC_SPECS]
        perms = permutations_for(seed, [g.n for g in bases])
        lines = [f"{spec} {' '.join(map(str, p))}" for spec, p in zip(SYMMETRIC_SPECS, perms)]
        return Inputs(list(SYMMETRIC_SPECS), lines, perms)
    if name == "solve-asymmetric":
        ids = [f"random:{n},{pc}%,{gs}" for n, pc, gs in RANDOM_CORPUS]
        bases = [random_graph(*row) for row in RANDOM_CORPUS]
    elif name == "classify-large":
        ids = list(CLASSIFY_SPECS)
        bases = [szf.family_graph(s) for s in CLASSIFY_SPECS]
    elif name == "verify-extremes":
        return Inputs(["extremes"], [" ".join(VERIFY_ARGV)], [])
    else:
        raise ValueError(f"unknown workload {name!r}")
    perms = permutations_for(seed, [g.n for g in bases])
    lines = [szf.to_graph6(relabel(g, p)) for g, p in zip(bases, perms)]
    return Inputs(ids, lines, perms)


# ---------------------------------------------------------------------------
# one pass over a workload's inputs

def classify_output(g) -> dict:
    c = szf.classify_extremes(g)
    return {"label": c.label, "value": c.value, "evidence": c.evidence}


def run_pass(workload: Workload, ids, graphs, csv_path: Path, mark=None):
    """Run every instance once; return (wall seconds, [(id, seconds, output)]).

    mark(instance id), when given, is called before each instance starts.
    """
    if workload.kind == "cli":
        t0 = time.perf_counter()
        if mark:
            mark(ids[0])
        code = szf.cli.main([*VERIFY_ARGV, "--output", str(csv_path)])
        wall = time.perf_counter() - t0
        return wall, verify_rows(code, csv_path.read_text(encoding="ascii"))
    solve = workload.kind == "solve"
    out = []
    t_start = time.perf_counter()
    for iid, g in zip(ids, graphs):
        if mark:
            mark(iid)
        t0 = time.perf_counter()
        result = szf.throttle(g).to_json_dict() if solve else classify_output(g)
        out.append((iid, time.perf_counter() - t0, result))
    return time.perf_counter() - t_start, out


def verify_rows(exit_code: int, csv_text: str):
    """One instance per CSV row, timed by the row's own runtime_ms.

    The output compared is the row without runtime_ms, plus the exit code.
    """
    rows = list(csv.reader(io.StringIO(csv_text)))
    header, body = rows[0], rows[1:]
    ms = header.index("runtime_ms")
    return [(row[0], int(row[ms]) / 1000.0,
             {"exit": exit_code, "header": header[:ms] + header[ms + 1:],
              "row": row[:ms] + row[ms + 1:]})
            for row in body]


# ---------------------------------------------------------------------------
# checks: each returns a list of problems, empty when the output is right

def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="ascii") as fh:
        return json.load(fh)


def check_solve(got: dict, g, perm, golden: dict, iid: str, seed: int) -> list[str]:
    seeded = golden["seeds"].get(str(seed))
    if seeded is not None:
        return [] if got == seeded[iid] else [f"{iid}: {got} != golden {seeded[iid]}"]
    ref = golden["seeds"]["0"][iid]
    problems = [f"{iid}: {key} {got[key]} != {ref[key]}"
                for key in ("th", "per_k", "z_minus", "pt_minimum") if got[key] != ref[key]]
    th, k, witness = got["th"], got["k"], got["witness"]
    if got["k"] + got["pt"] != th or len(witness) != k:
        problems.append(f"{iid}: k={k}, pt={got['pt']}, |witness|={len(witness)} vs th={th}")
    if got["per_k"].get(str(k)) != th:
        problems.append(f"{iid}: per_k[{k}] != th={th}")
    trace = szf.propagate(g, witness)
    if not trace.completed or k + trace.pt != th:
        problems.append(f"{iid}: witness {witness} does not reach th={th} under propagate")
    attaining = [perm[v] for v in golden["pt_minimum_sets"][iid]]
    trace = szf.propagate(g, attaining)
    if len(attaining) != ref["z_minus"] or trace.pt != ref["pt_minimum"]:
        problems.append(f"{iid}: no Z- set shown to attain pt_minimum={ref['pt_minimum']}")
    return problems


def _induces(g, quad, degrees: list[int]) -> bool:
    """True when four distinct vertices induce the subgraph with these sorted degrees."""
    quad = list(quad)
    if len(set(quad)) != 4:
        return False
    return sorted(sum(1 for b in quad if g.has_edge(a, b)) for a in quad) == degrees


def check_classify(got: dict, g, perm, golden: dict, iid: str, seed: int) -> list[str]:
    seeded = golden["seeds"].get(str(seed))
    if seeded is not None:
        return [] if got == seeded[iid] else [f"{iid}: {got} != golden {seeded[iid]}"]
    ref = golden["seeds"]["0"][iid]
    ev, ref_ev = got["evidence"], ref["evidence"]
    if (got["label"], got["value"], ev.get("form")) != (ref["label"], ref["value"], ref_ev["form"]):
        return [f"{iid}: {got['label']}/{got['value']} != golden {ref['label']}/{ref['value']}"]
    problems = []
    form = ref_ev["form"]
    if form in ("h_graph", "corona_k1"):
        plain = {key: v for key, v in ev.items() if key != "core_vertices"}
        if plain != {key: v for key, v in ref_ev.items() if key != "core_vertices"}:
            problems.append(f"{iid}: evidence {ev} != golden {ref_ev}")
        if form == "corona_k1" and ev["core_vertices"] != sorted(
                perm[v] for v in ref_ev["core_vertices"]):
            problems.append(f"{iid}: core vertices are not the relabeled golden core")
    elif form == "cograph_no_2k2":
        if not g.has_edge(*ev["edge"]):
            problems.append(f"{iid}: certifying pair {ev['edge']} is not an edge")
    elif form == "interior":
        if set(ev) != set(ref_ev):
            problems.append(f"{iid}: evidence keys {sorted(ev)} != golden {sorted(ref_ev)}")
        if "induced_p4" in ev and not _induces(g, ev["induced_p4"], [1, 1, 2, 2]):
            problems.append(f"{iid}: {ev['induced_p4']} does not induce P4")
        if "induced_2k2" in ev and not _induces(g, ev["induced_2k2"], [1, 1, 1, 1]):
            problems.append(f"{iid}: {ev['induced_2k2']} does not induce 2K2")
    elif ev != ref_ev:
        problems.append(f"{iid}: evidence {ev} != golden {ref_ev}")
    return problems


def check_cli(got: dict, g, perm, golden: dict, iid: str, seed: int) -> list[str]:
    want = golden["rows"].get(iid)
    if got["exit"] != 0:
        return [f"{iid}: szf verify exited {got['exit']}"]
    if want is None or got["header"] != golden["header"] or got["row"] != want:
        return [f"{iid}: row {got['row']} != golden {want}"]
    return []


CHECKS = {"solve": check_solve, "classify": check_classify, "cli": check_cli}


def check_all(workload: Workload, outputs, graphs, perms, golden: dict, seed: int):
    """Problems per instance for one pass; an instance with any problem failed."""
    check = CHECKS[workload.kind]
    if workload.kind == "cli":
        graphs = perms = [None] * len(outputs)
        missing = set(golden["rows"]) - {iid for iid, _, _ in outputs}
        extra = [f"{iid}: row missing from the CSV" for iid in sorted(missing)]
    else:
        extra = []
    per_instance = [check(out, g, p, golden, iid, seed)
                    for (iid, _, out), g, p in zip(outputs, graphs, perms)]
    if extra:
        per_instance.append(extra)
    return per_instance


# ---------------------------------------------------------------------------
# recording golden results

def _pt_minimum_set(g, z: int, ptm: int) -> list[int]:
    """First Z- set in lexicographic order whose propagation time is pt_minimum."""
    for comb in combinations(range(g.n), z):
        trace = szf.propagate(g, comb)
        if trace.completed and trace.pt == ptm:
            return list(comb)
    raise AssertionError("pt_minimum is not attained by any Z- set")


def record_golden() -> dict:
    """Outputs of the current program on the golden seeds, for every workload."""
    golden = {}
    for name, workload in WORKLOADS.items():
        entry = {}
        if workload.kind == "cli":
            with tempfile.TemporaryDirectory() as tmp:
                _, rows = run_pass(workload, None, None, Path(tmp) / "out.csv")
            entry["header"] = rows[0][2]["header"]
            entry["rows"] = {iid: out["row"] for iid, _, out in rows}
            golden[name] = entry
            continue
        entry["seeds"] = {}
        for seed in GOLDEN_SEEDS:
            inputs = make_inputs(name, seed)
            graphs = load(workload.fmt, inputs.lines, workload.kind == "solve")
            _, outputs = run_pass(workload, inputs.ids, graphs, None)
            entry["seeds"][str(seed)] = {iid: out for iid, _, out in outputs}
            if workload.kind == "solve" and seed == 0:
                entry["pt_minimum_sets"] = {
                    iid: _pt_minimum_set(g, out["z_minus"], out["pt_minimum"])
                    for (iid, _, out), g in zip(outputs, graphs)}
        golden[name] = entry
    return golden


if __name__ == "__main__":
    # PYTHONPATH=src python3 bench/workloads.py --record   (rewrites golden.json)
    import sys
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python3 bench/workloads.py --record")
    GOLDEN_PATH.write_text(json.dumps(record_golden(), indent=1, sort_keys=True) + "\n",
                           encoding="ascii")
