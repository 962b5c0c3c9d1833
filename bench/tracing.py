"""Spans around the calls into each layer, recorded from the benchmark's side.

`instrument` swaps the public functions named in TRACED for timing wrappers
in every `szf` module namespace that holds them (and the solver's cached
`Graph.bit_adjacency`), so calls made inside the program are seen too. A
span is (name, start, end, parent span, instance, phase); spans live in
flat arrays while the run lasts and are written out once at the end.

Phases: `load` turns input text into graphs, `pass` is one run of the
workload's instances (the timed path), `sweep` makes the extra per-layer
calls on the same graphs, and `probe` runs every layer on a small fixed
corpus so that a layer the workload never calls still reports a value.
"""

import functools
import sys
from array import array
from contextlib import contextmanager
from itertools import combinations
from math import comb
from pathlib import Path
from time import perf_counter

import szf
import szf.cli

from workloads import verify_rows

PHASES = ("load", "pass", "sweep", "probe")

# span name -> (module, attribute)
TRACED = {
    "formats.from_graph6": ("szf.formats", "from_graph6"),
    "families.family_graph": ("szf.families", "family_graph"),
    "graph.from_edge_list": ("szf.graph", "from_edge_list"),
    "throttling.throttle": ("szf.throttling", "throttle"),
    "throttling.min_propagation_time": ("szf.throttling", "min_propagation_time"),
    "structure.classify_extremes": ("szf.structure", "classify_extremes"),
    "structure.find_induced_p4": ("szf.structure", "find_induced_p4"),
    "structure.find_induced_2k2": ("szf.structure", "find_induced_2k2"),
    "structure.recognize_h_graph": ("szf.structure", "recognize_h_graph"),
    "structure.recognize_corona_k1": ("szf.structure", "recognize_corona_k1"),
    "structure.build_cotree": ("szf.structure", "build_cotree"),
    "cli.main": ("szf.cli", "main"),
    "cli.cmd_verify": ("szf.cli", "cmd_verify"),
}


def lex_rank(subset, n: int) -> int:
    """Position of a sorted subset among combinations(range(n), len(subset))."""
    k = len(subset)
    rank, prev = 0, -1
    for i, c in enumerate(subset):
        for x in range(prev + 1, c):
            rank += comb(n - x - 1, k - i - 1)
        prev = c
    return rank


def quads_scanned(args, result) -> int:
    """Four-vertex sets a find_induced_* scan examined (computed, not counted)."""
    n = args[0].n
    return comb(n, 4) if result is None else lex_rank(sorted(result), n) + 1


def search_space(args, result) -> int:
    """Subsets of size below th that the exhaustive search enumerates (computed)."""
    n = args[0].n
    return sum(comb(n, k) for k in range(result.th))


COUNT_HOOKS = {
    "structure.find_induced_p4": ("structure.quads", quads_scanned),
    "structure.find_induced_2k2": ("structure.quads", quads_scanned),
    "throttling.throttle": ("throttling.space", search_space),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.instances: list[str] = []
        self._name_ix: dict[str, int] = {}
        self._inst_ix: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.inst = array("i")
        self.phase = array("b")
        self.counts: dict[tuple[str, int], int] = {}
        self._stack: list[int] = []
        self._open_names: set[int] = set()
        self._instance = self._intern(self._inst_ix, self.instances, "-")
        self._phase = 0

    @staticmethod
    def _intern(index, table, key):
        ix = index.get(key)
        if ix is None:
            ix = index[key] = len(table)
            table.append(key)
        return ix

    def at(self, instance: str, phase: str):
        self._instance = self._intern(self._inst_ix, self.instances, instance)
        self._phase = PHASES.index(phase)

    def count(self, name: str, value: int):
        key = (name, self._phase)
        self.counts[key] = self.counts.get(key, 0) + value

    def _open(self, name_ix: int) -> int:
        i = len(self.name)
        self.name.append(name_ix)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.inst.append(self._instance)
        self.phase.append(self._phase)
        self.end.append(0.0)
        self._stack.append(i)
        self._open_names.add(name_ix)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int):
        self.end[i] = perf_counter()
        self._stack.pop()
        self._open_names.discard(self.name[i])

    @contextmanager
    def span(self, name: str):
        i = self._open(self._intern(self._name_ix, self.names, name))
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, name: str, fn, hook=None):
        """fn with a span around each outermost call (recursion is one span)."""
        name_ix = self._intern(self._name_ix, self.names, name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name_ix in self._open_names:
                return fn(*args, **kwargs)
            i = self._open(name_ix)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if hook is not None:
                self.count(hook[0], hook[1](args, result))
            return result

        return traced

    def rows(self):
        """(name, start, end, parent, instance, phase) for every span, in order."""
        for i in range(len(self.name)):
            yield (self.names[self.name[i]], self.start[i], self.end[i], self.parent[i],
                   self.instances[self.inst[i]], PHASES[self.phase[i]])

    def write_tsv(self, path: Path):
        with open(path, "w", encoding="ascii") as fh:
            fh.write("name\tstart\tend\tparent\tinstance\tphase\n")
            for row in self.rows():
                fh.write("\t".join(map(str, row)) + "\n")

    def totals(self) -> dict[tuple[str, str], float]:
        """{(span name, phase): inclusive seconds}."""
        out: dict[tuple[str, str], float] = {}
        for i in range(len(self.name)):
            key = (self.names[self.name[i]], PHASES[self.phase[i]])
            out[key] = out.get(key, 0.0) + self.end[i] - self.start[i]
        return out


@contextmanager
def instrument(tracer: Tracer):
    """Trace the functions in TRACED and Graph.bit_adjacency until exit."""
    modules = [m for key, m in list(sys.modules.items())
               if key == "szf" or key.startswith("szf.")]
    undo = []
    for span_name, (mod_name, attr) in TRACED.items():
        original = getattr(sys.modules[mod_name], attr)
        wrapped = tracer.wrap(span_name, original, COUNT_HOOKS.get(span_name))
        for mod in modules:
            if mod.__dict__.get(attr) is original:
                undo.append((mod, attr, original))
                setattr(mod, attr, wrapped)
    graph_cls = szf.Graph
    cached = graph_cls.__dict__["bit_adjacency"]
    timed = functools.cached_property(tracer.wrap("graph.bit_adjacency", cached.func))
    timed.__set_name__(graph_cls, "bit_adjacency")
    graph_cls.bit_adjacency = timed
    undo.append((graph_cls, "bit_adjacency", cached))
    try:
        yield tracer
    finally:
        for obj, attr, original in reversed(undo):
            setattr(obj, attr, original)


# ---------------------------------------------------------------------------
# extra per-layer calls and the fixed layer probe

AT_K_REPORTED = range(5)  # every corpus graph has th >= 5
PROBE_SPECS = ("cycle:12", "spider:3,3", "complete_multipartite:3,3,3", "hypercube:3")
PROBE_ARGV = ("verify", "--campaign", "extremes", "--n-max", "5")


def sweep_solve(tracer: Tracer, g, th: int, z_minus: int):
    """The post-pass on its own, throttling_at_k below th, and every Z- subset."""
    szf.min_propagation_time(g)
    for k in range(th):
        with tracer.span(f"throttling.at_k.k{k}"):
            szf.throttling_at_k(g, k)
    calls = 0
    with tracer.span("forcing.is_skew_forcing_set"):
        for subset in combinations(range(g.n), z_minus):
            szf.is_skew_forcing_set(g, subset)
            calls += 1
    tracer.count("forcing.is_skew_forcing_set_calls", calls)


def sweep(tracer: Tracer, kind: str, ids, graphs, outputs):
    for iid, g, (_, _, out) in zip(ids, graphs, outputs):
        tracer.at(iid, "sweep")
        if kind == "solve":
            sweep_solve(tracer, g, out["th"], out["z_minus"])
        elif kind == "classify":
            szf.build_cotree(g)


def record_rows(tracer: Tracer, rows):
    for iid, seconds, _ in rows:
        tracer.count(f"cli.row_ms.n{iid.rsplit('=', 1)[1]}", round(seconds * 1000))


def probe(tracer: Tracer, csv_path: Path):
    """Every layer once on a small fixed corpus; results are not timed passes."""
    for spec in PROBE_SPECS:
        tracer.at(f"probe:{spec}", "probe")
        g = szf.from_graph6(szf.to_graph6(szf.family_graph(spec)))
        result = szf.throttle(g)
        sweep_solve(tracer, g, result.th, result.z_minus)
        szf.classify_extremes(g)
        szf.build_cotree(g)
    tracer.at("probe:extremes", "probe")
    code = szf.cli.main([*PROBE_ARGV, "--output", str(csv_path)])
    record_rows(tracer, verify_rows(code, csv_path.read_text(encoding="ascii")))


# ---------------------------------------------------------------------------
# per-layer metrics: name -> (unit, better, end-to-end metric it should move, on)

LAYER_METRICS = {
    "formats.from_graph6_s": ("s", "lower", "setup_s", "solve-asymmetric, classify-large"),
    "families.family_graph_s": ("s", "lower", "setup_s", "solve-symmetric"),
    "graph.from_edge_list_s": ("s", "lower", "wall_s", "verify-extremes"),
    "graph.bit_adjacency_s": ("s", "lower", "setup_s", "solve-*"),
    "forcing.is_skew_forcing_set_per_s": (
        "1/s", "higher", "wall_s, max_graph_s", "solve-*"),
    "forcing.is_skew_forcing_set_calls": ("count", "lower", "none (work done)", "solve-*"),
    "throttling.throttle_s": ("s", "lower", "wall_s", "solve-*"),
    "throttling.postpass_s": ("s", "lower", "wall_s", "solve-symmetric, solve-asymmetric"),
    "throttling.search_s": ("s", "lower", "wall_s", "solve-*"),
    **{f"throttling.at_k_s.k{k}": ("s", "lower", "max_graph_s", "solve-*")
       for k in AT_K_REPORTED},
    "throttling.space": ("count", "lower", "wall_s (computed, not counted)", "solve-*"),
    "throttling.space_per_s": (
        "1/s", "higher", "wall_s", "solve-symmetric (kernel + orbits) vs solve-asymmetric"),
    "structure.classify_extremes_s": (
        "s", "lower", "wall_s, max_graph_s", "classify-large, verify-extremes"),
    "structure.find_induced_p4_s": ("s", "lower", "wall_s", "classify-large"),
    "structure.find_induced_2k2_s": ("s", "lower", "wall_s", "classify-large"),
    "structure.quads": ("count", "lower", "wall_s (computed, not counted)", "classify-large"),
    "structure.recognizers_s": ("s", "lower", "wall_s", "classify-large"),
    "structure.build_cotree_s": ("s", "lower", "none today; cotree classifier", "classify-large"),
    "cli.verify_s": ("s", "lower", "wall_s", "verify-extremes"),
    "cli.row_ms.n5": ("ms", "lower", "wall_s", "verify-extremes"),
    "cli.row_ms.nmax": ("ms", "lower", "wall_s, max_graph_s", "verify-extremes"),
    "trace.overhead_frac": ("ratio", "lower", "none", "all"),
}


def unit_of(name: str) -> str:
    """Unit of a layer metric, including the per-size and per-order extras."""
    if name in LAYER_METRICS:
        return LAYER_METRICS[name][0]
    return "ms" if name.startswith("cli.row_ms.") else "s"


def layer_values(tracer: Tracer, passes: int, overhead: float):
    """{metric: (value, source)} with source "workload" or "probe".

    Span time and counts from timed passes are per pass (total / passes);
    load and sweep run once. A metric the workload never produces comes from
    the probe. Besides LAYER_METRICS the result holds throttling.at_k_s for
    every size run and cli.row_ms for every order in the CSV.
    """
    found = tracer.totals()
    found.update(((name, PHASES[p]), value) for (name, p), value in tracer.counts.items())

    def measured(*names):
        """Workload phases when any recorded one of `names`, else the probe."""
        work = [(phase, found[(name, phase)]) for name in names
                for phase in ("load", "pass", "sweep") if (name, phase) in found]
        if work:
            return sum(x / passes if phase == "pass" else x for phase, x in work), "workload"
        return sum(found.get((name, "probe"), 0) for name in names), "probe"

    v = {
        "formats.from_graph6_s": measured("formats.from_graph6"),
        "families.family_graph_s": measured("families.family_graph"),
        "graph.from_edge_list_s": measured("graph.from_edge_list"),
        "graph.bit_adjacency_s": measured("graph.bit_adjacency"),
        "forcing.is_skew_forcing_set_calls": measured("forcing.is_skew_forcing_set_calls"),
        "throttling.throttle_s": measured("throttling.throttle"),
        "throttling.postpass_s": measured("throttling.min_propagation_time"),
        "throttling.space": measured("throttling.space"),
        "structure.classify_extremes_s": measured("structure.classify_extremes"),
        "structure.find_induced_p4_s": measured("structure.find_induced_p4"),
        "structure.find_induced_2k2_s": measured("structure.find_induced_2k2"),
        "structure.quads": measured("structure.quads"),
        "structure.recognizers_s": measured("structure.recognize_h_graph",
                                         "structure.recognize_corona_k1"),
        "structure.build_cotree_s": measured("structure.build_cotree"),
        "cli.verify_s": measured("cli.cmd_verify"),
    }
    calls, source = v["forcing.is_skew_forcing_set_calls"]
    v["forcing.is_skew_forcing_set_per_s"] = (
        calls / measured("forcing.is_skew_forcing_set")[0], source)
    throttle_s, source = v["throttling.throttle_s"]
    search_s = throttle_s - v["throttling.postpass_s"][0]
    v["throttling.search_s"] = (search_s, source)
    v["throttling.space_per_s"] = (v["throttling.space"][0] / search_s, source)
    orders = sorted({int(name.rsplit("n", 1)[1]) for name, _ in found
                     if name.startswith("cli.row_ms.")})
    for n in orders:
        v[f"cli.row_ms.n{n}"] = measured(f"cli.row_ms.n{n}")
    v["cli.row_ms.nmax"] = v[f"cli.row_ms.n{orders[-1]}"]
    sizes = sorted({int(name.rsplit("k", 1)[1]) for name, _ in found
                    if name.startswith("throttling.at_k.k")})
    for k in sizes:
        v[f"throttling.at_k_s.k{k}"] = measured(f"throttling.at_k.k{k}")
    v["trace.overhead_frac"] = (overhead, "workload")
    return v
