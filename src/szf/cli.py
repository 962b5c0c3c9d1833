"""Command-line front end: compute, classify, verify, and family.

Conventions: graph inputs come from --family, --input FILE, or stdin;
results go to stdout as JSON or CSV; diagnostics go to stderr. Exit codes
are 0 (success), 1 (verification mismatch), 2 (parse failure), and 3
(resource limit: order guard exceeded or an instance ran past the
timeout). The order guard defaults to 26 and can be overridden with
--max-n or the SZF_MAX_N environment variable; a negative guard is a parse
failure.

Each verify campaign is one entry of CAMPAIGNS: a function from the parsed
arguments to instance keys, and a function from a key to one CSV row. An
empty --n or --seeds range, --n-max below 1, --jobs below 1, or a
--timeout-s that is not a positive number is a parse failure. The extremes
campaign checks one graph per isomorphism class of each order and weights
it by its n!/|Aut| labeled copies, so its counts are over every labeled
graph.
"""

import argparse
import csv
import json
import math
import operator
import os
import sys
import time
from contextlib import nullcontext
from typing import NamedTuple

from .canon import graph_classes
from .families import (
    SplitMix64, _family, cycle, gadget_family, hypercube,
    paired_blue_witness, path, random_gadget_spec, spider,
    corona_k1, corona_k2, diameter_bound_holds, diameter_lower_bound,
    th_cycle_formula, th_hypercube_formula, th_path_formula, th_spider_formula,
)
from .forcing import _ball_cover_bound, propagate
from .formats import _MAX_G6_ORDER, _edge_list, _graph6, format_edge_list, to_graph6
from .graph import Graph, components, diameter, from_edge_list, leaves, min_degree
from .structure import classify_extremes
from .throttling import throttle, throttle_with_bound

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_PARSE = 2
EXIT_RESOURCE = 3

DEFAULT_MAX_N = 26

SPIDER_CASES = ((4, 2), (5, 2), (6, 2), (4, 3), (5, 3), (6, 3), (4, 4), (5, 4), (5, 5))

CSV_HEADER = "spec,n,computed,predicted,match,runtime_ms"


class VerificationRow(NamedTuple):
    spec: str
    n: int
    computed: object
    predicted: object
    match: bool
    runtime_ms: int

    def csv_fields(self) -> list:
        return [self.spec, self.n, self.computed, self.predicted,
                str(self.match).lower(), self.runtime_ms]


def _max_n(args) -> int:
    limit = args.max_n
    if limit is None:
        env = os.environ.get("SZF_MAX_N", str(DEFAULT_MAX_N))
        try:
            limit = int(env)
        except ValueError:
            raise ValueError(f"SZF_MAX_N must be an integer, got {env!r}") from None
    if limit < 0:
        raise ValueError(f"the order limit (--max-n or SZF_MAX_N) must be at least 0, "
                         f"got {limit}")
    return limit


def _input_text(args) -> str:
    """The --input file or stdin, without '#' comment lines."""
    if getattr(args, "input", None):
        with open(args.input, "r", encoding="ascii") as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    return "\n".join(ln for ln in text.splitlines() if not ln.lstrip().startswith("#"))


class _OverLimit(Exception):
    """An input's order is above the guard; `main` prints it and exits 3."""


def _load_graph(args, limit=math.inf, hint="(set --max-n or SZF_MAX_N)") -> Graph:
    """The input graph. Every source gives its order before it is decoded (a
    gadget spec whose base length is above `limit`, that length), and one
    above `limit` raises _OverLimit without building the graph."""
    if getattr(args, "family", None) is not None:
        n, build, _ = _family(args.family, limit)
    else:
        n, build = (_graph6 if args.format == "graph6" else _edge_list)(_input_text(args))
    if n > limit:
        raise _OverLimit(f"graph order {n} exceeds the limit {limit} {hint}")
    return build()


# ---------------------------------------------------------------------------
# compute / classify / family

def cmd_compute(args) -> int:
    g = _load_graph(args, _max_n(args))
    result = throttle(g) if args.bound is None else throttle_with_bound(g, args.bound)
    payload = {"n": g.n, **result.to_json_dict()}
    if args.trace:
        payload["trace"] = propagate(g, result.witness).to_lines()
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


def _agrees(c, th: int, n: int) -> bool:
    """A classification agrees with the solver's th on an order-n graph when
    its value matches, or, for interior, when th is none of 1, 2, n-1, n."""
    if c.value is not None:
        return th == c.value
    return th not in {1, 2, n - 1, n}


def cmd_classify(args) -> int:
    g = _load_graph(args, _max_n(args) if args.check else math.inf, "for --check")
    c = classify_extremes(g)
    payload = {"n": g.n, "label": c.label, "value": c.value, "evidence": c.evidence}
    if args.check:
        th = throttle(g).th
        payload["solver_th"] = th
        payload["agrees"] = _agrees(c, th, g.n)
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


def cmd_family(args) -> int:
    g = _load_graph(args, _MAX_G6_ORDER, "(the most vertices graph6 can encode)")
    print(f"# family={args.family} n={g.n} labeling: {_family(args.family)[2]}")
    sys.stdout.write(to_graph6(g) + "\n" if args.emit == "graph6" else format_edge_list(g))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification campaigns

def _corona_base_graph(seed: int) -> Graph:
    """Seeded connected base graph on 2..8 vertices (trees on odd seeds)."""
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


def _all_graphs_stats(n: int):
    """Classifier vs solver disagreement count over all labeled graphs of
    order n.

    The classifier's label and th are isomorphism invariants, so each class
    from `canon.graph_classes` is checked once, on its representative, and
    counts for its n!/|Aut| labeled graphs. Those counts must add up to
    2^C(n,2); a RuntimeError says they do not.
    """
    mismatches = labeled = 0
    for rows, aut in graph_classes(n):
        copies = math.factorial(n) // aut
        labeled += copies
        g = from_edge_list(n, [(u, v) for u in range(n) for v in range(u) if rows[u] >> v & 1])
        if not _agrees(classify_extremes(g), throttle(g).th, n):
            mismatches += copies
    if labeled != 1 << math.comb(n, 2):
        raise RuntimeError(f"the classes of order {n} count {labeled} labeled graphs, "
                           f"not 2^{math.comb(n, 2)}")
    return mismatches


def _formula_row(spec: str, g: Graph, predicted: int, holds=operator.eq):
    """Exact th against a closed form, or against an upper bound if holds=operator.le."""
    computed = throttle(g).th
    return spec, g.n, computed, predicted, holds(computed, predicted)


def _corona_keys(args):
    keys = []
    for seed in _parse_range(args.seeds or "1..10", "--seeds"):
        keys += [(seed, "k1"), (seed, "k2")]
        if len(leaves(_corona_base_graph(seed))) >= 3:
            keys.append((seed, "k2_leaves"))
    return keys


def _corona_row(seed: int, variant: str):
    """Exact th of a corona over a seeded base G: corona_k1 has th 2, corona_k2
    at most |G|+1, or at most |G| on the k2_leaves rows (three or more leaves)."""
    base = _corona_base_graph(seed)
    spec = f"corona_{variant}(seed={seed})"
    if variant == "k1":
        return _formula_row(spec, corona_k1(base), 2)
    predicted = base.n + 1 if variant == "k2" else base.n
    return _formula_row(spec, corona_k2(base), predicted, operator.le)


def _gadget_cycle(seed: int):
    """(row name, base length L, spec, graph) of the seeded gadget cycle."""
    length = 10 + SplitMix64(seed).below(31)
    spec = random_gadget_spec("cycle", length, seed)
    return f"gadget_cycle:{length},{seed}", length, spec, gadget_family(spec)


def _gadget_family_row(seed: int):
    """A seeded gadget cycle's paired-blue witness value against the budget isqrt(36 L)."""
    name, length, spec, g = _gadget_cycle(seed)
    witness = paired_blue_witness(spec, max(2, math.isqrt(2 * length)))
    tr = propagate(g, witness)
    computed = len(witness) + tr.pt if tr.completed else g.n + 1
    budget = math.isqrt(36 * length)
    return name, g.n, computed, budget, tr.completed and computed <= budget


def _diameter_bound_row(seed: int):
    """A seeded gadget cycle against the diameter lower bound, valued by the
    exact th of `throttle` up to order 41 and by the ball-cover lower bound on
    th above it."""
    name, _, _, g = _gadget_cycle(seed)
    d = diameter(g)
    assert min_degree(g) >= 2 and d >= 4
    computed = throttle(g).th if g.n <= 41 else _ball_cover_bound(g)
    return (name, g.n, computed, str(diameter_lower_bound(d)),
            diameter_bound_holds(computed, d))


def _parse_range(text: str, what: str):
    try:
        bounds = [int(part) for part in text.split("..")]
    except ValueError:
        bounds = []
    if len(bounds) in (1, 2) and bounds[0] <= bounds[-1]:
        return range(bounds[0], bounds[-1] + 1)
    raise ValueError(f"{what} must look like A..B with A <= B, got {text!r}")


def _extremes_orders(args):
    if args.n_max < 1:
        raise ValueError(f"--n-max must be at least 1, got {args.n_max}")
    return range(1, args.n_max + 1)


# name -> (instance keys from the parsed arguments, key -> row). A row is
# (spec, n, computed, predicted, match). The lambdas look module names up at
# call time, so a function patched on this module is the one that runs.
CAMPAIGNS = {
    "paths": (lambda args: _parse_range(args.n or "3..18", "--n"),
              lambda n: _formula_row(f"path:{n}", path(n), th_path_formula(n))),
    "cycles": (lambda args: _parse_range(args.n or "3..18", "--n"),
               lambda n: _formula_row(f"cycle:{n}", cycle(n), th_cycle_formula(n))),
    "spiders": (lambda args: SPIDER_CASES,
                lambda key: _formula_row("spider:%d,%d" % key, spider(*key),
                                         th_spider_formula(*key))),
    "hypercubes": (lambda args: _parse_range(args.n or "2..4", "--n"),
                   lambda n: _formula_row(f"hypercube:{n}", hypercube(n),
                                          th_hypercube_formula(n))),
    "coronas": (_corona_keys, lambda key: _corona_row(*key)),
    "extremes": (_extremes_orders,
                 lambda n: (f"extremes:n={n}", n, (bad := _all_graphs_stats(n)), 0, bad == 0)),
    "diameter-bound": (lambda args: _parse_range(args.seeds or "1..20", "--seeds"),
                       lambda seed: _diameter_bound_row(seed)),
    "gadget-family": (lambda args: _parse_range(args.seeds or "1..20", "--seeds"),
                      lambda seed: _gadget_family_row(seed)),
}


def _run_instance(payload):
    campaign, key = payload
    start = time.monotonic()
    row = CAMPAIGNS[campaign][1](key)
    return VerificationRow(*row, int((time.monotonic() - start) * 1000))


def cmd_verify(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    if not args.timeout_s > 0:
        raise ValueError(f"--timeout-s must be a positive number, got {args.timeout_s}")
    keys = [(args.campaign, key) for key in CAMPAIGNS[args.campaign][0](args)]
    # Opened before the first instance runs, so a bad path fails at once.
    with nullcontext(sys.stdout) if args.output is None else open(
            args.output, "w", encoding="ascii", newline="") as out:
        # The fork start method launches every worker at the first submit.
        workers = min(args.jobs, len(keys))
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=workers) as pool:
                rows = list(pool.map(_run_instance, keys))
        else:
            rows = [_run_instance(k) for k in keys]
        rows.sort(key=lambda r: (r.spec, r.n))
        writer = csv.writer(out)
        writer.writerow(CSV_HEADER.split(","))
        writer.writerows(row.csv_fields() for row in rows)

    matched = sum(1 for r in rows if r.match)
    total_ms = sum(r.runtime_ms for r in rows)
    print(f"{args.campaign}: {matched}/{len(rows)} match, {total_ms} ms", file=sys.stderr)
    slow = [r for r in rows if r.runtime_ms > args.timeout_s * 1000]
    if slow:
        print(f"{len(slow)} instance(s) exceeded the {args.timeout_s}s timeout",
              file=sys.stderr)
        return EXIT_RESOURCE
    return EXIT_OK if matched == len(rows) else EXIT_MISMATCH


# ---------------------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="szf",
        description="skew zero forcing throttling: compute, classify, verify, generate")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input_flags(p):
        p.add_argument("--family", help="family spec string, e.g. cycle:8 or spider:4,3")
        p.add_argument("--input", help="read the graph from this file instead of stdin")
        p.add_argument("--format", choices=("graph6", "edgelist"), default="graph6")
        p.add_argument("--max-n", type=int, default=None,
                       help=f"order guard (default {DEFAULT_MAX_N}, env SZF_MAX_N)")

    p = sub.add_parser("compute", help="exact throttling result as JSON")
    add_input_flags(p)
    p.add_argument("--trace", action="store_true", help="embed the witness trace")
    p.add_argument("--bound", type=int, default=None,
                   help="claimed upper bound on th; exit 2 if it is below the optimum")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("classify", help="structural throttling classification as JSON")
    add_input_flags(p)
    p.add_argument("--check", action="store_true",
                   help="also run the solver and report agreement")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", help="run a verification campaign, emit CSV")
    p.add_argument("--campaign", required=True, choices=tuple(CAMPAIGNS))
    p.add_argument("--n", help="instance range A..B for paths/cycles/hypercubes")
    p.add_argument("--n-max", type=int, default=6, help="order cap for extremes")
    p.add_argument("--seeds", help="seed range A..B for seeded campaigns")
    p.add_argument("--timeout-s", type=float, default=300.0,
                   help="per-instance wall-clock limit (checked after each instance)")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers")
    p.add_argument("--output", help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("family", help="emit a generated family instance")
    p.add_argument("family", metavar="spec", help="family spec string, e.g. cycle:4 or h:0,2,0")
    p.add_argument("--emit", choices=("graph6", "edgelist"), default="graph6")
    p.set_defaults(func=cmd_family)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _OverLimit as exc:
        print(exc, file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
