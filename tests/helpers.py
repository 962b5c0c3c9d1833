"""Shared test utilities: independent oracles and corpus generators.

The brute-force throttling oracle below scans every subset in the same
canonical order as the solver (size ascending, lexicographic within a
size) but shares none of the solver's pruning or seeding logic, so it is
a genuinely independent check of values and witnesses.
"""

from functools import cache
from itertools import combinations, permutations
from typing import NamedTuple

from szf import throttling
from szf.cli import _agrees
from szf.graph import Graph, from_edge_list
from szf.families import SplitMix64
from szf.structure import classify_extremes


def simple_propagation_rounds(g: Graph, blue_set):
    """Plain round simulation used only by tests; returns pt or None.

    Reimplements the rule directly on neighbor sets: any vertex with
    exactly one white neighbor forces it, all forces applied at once.
    """
    blue = set(blue_set)
    everything = set(range(g.n))
    rounds = 0
    while blue != everything:
        forced = set()
        for u in range(g.n):
            white = g.adj[u] - blue
            if len(white) == 1:
                forced |= white
        if not forced:
            return None
        blue |= forced
        rounds += 1
    return rounds


@cache
def brute_force_table(g: Graph):
    """Exhaustive throttling data: (th, witness, z_minus, pt_minimum, per_k).

    per_k holds the true optimum for every feasible size; the witness is
    the first optimal set in canonical order. Graphs hash by value, so the
    sweeps over every graph of a small order share one table; callers only
    read the result.
    """
    best = None
    witness = None
    z = None
    ptm = None
    per_k = {}
    for k in range(g.n + 1):
        for comb in combinations(range(g.n), k):
            pt = simple_propagation_rounds(g, comb)
            if pt is None:
                continue
            if z is None:
                z = k
            if k == z and (ptm is None or pt < ptm):
                ptm = pt
            th = k + pt
            if k not in per_k or th < per_k[k]:
                per_k[k] = th
            if best is None or th < best:
                best = th
                witness = frozenset(comb)
    return best, witness, z, ptm, per_k


class Batch(NamedTuple):
    """One `_first_completion` call: the size of every lane's set, the number
    of lanes, the round budget, the result, and the words."""

    size: int
    width: int
    budget: int
    hit: tuple[int, int] | None
    blue: list[int]


def record_batches(monkeypatch):
    """Wrap `szf.throttling._first_completion` for one test; returns the list
    that gets one Batch per call, in call order."""
    batches = []
    kernel = throttling._first_completion

    def recording(adj, blue, full, budget):
        hit = kernel(adj, blue, full, budget)
        batches.append(Batch(sum(b & 1 for b in blue), full.bit_length(), budget, hit, blue))
        return hit

    monkeypatch.setattr(throttling, "_first_completion", recording)
    return batches


def all_graphs(n: int):
    """Every labeled graph on n vertices, by edge-mask order."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield from_edge_list(
            n, [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1])


def labeled_extremes_mismatches(n: int, classify=classify_extremes):
    """The `extremes` campaign count for order n, one labeled graph at a time.

    th comes from the scalar oracle `brute_force_table`, which shares no
    code with the solver's kernel or search.
    """
    return sum(not _agrees(classify(g), brute_force_table(g)[0], n) for g in all_graphs(n))


def brute_first_induced(g: Graph, degrees):
    """Oracle for `szf.structure._first_induced`: the first four-vertex set,
    in lexicographic order, whose sorted degrees in the subgraph it induces
    equal `degrees` ([1, 1, 2, 2] for P4, [1, 1, 1, 1] for 2K2); else None.
    Reads `has_edge` on every quad, not the bit rows."""
    for quad in combinations(range(g.n), 4):
        if sorted(sum(g.has_edge(u, v) for v in quad) for u in quad) == degrees:
            return frozenset(quad)
    return None


def random_graph(n: int, seed: int, percent: int = 50) -> Graph:
    """Seeded labeled graph: each pair is an edge with the given percentage."""
    rng = SplitMix64(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.below(100) < percent]
    return from_edge_list(n, edges)


def brute_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Backtracking isomorphism test for small graphs (degree-pruned)."""
    if g1.n != g2.n or g1.num_edges() != g2.num_edges():
        return False
    if sorted(map(len, g1.adj)) != sorted(map(len, g2.adj)):
        return False
    n = g1.n
    order = sorted(range(n), key=lambda v: -len(g1.adj[v]))
    mapping = {}
    used = set()

    def extend(idx):
        if idx == n:
            return True
        v = order[idx]
        for w in range(n):
            if w in used or len(g2.adj[w]) != len(g1.adj[v]):
                continue
            ok = True
            for u in g1.adj[v]:
                if u in mapping and mapping[u] not in g2.adj[w]:
                    ok = False
                    break
            if ok:
                for u in set(range(n)) - g1.adj[v]:
                    if u != v and u in mapping and mapping[u] in g2.adj[w]:
                        ok = False
                        break
            if ok:
                mapping[v] = w
                used.add(w)
                if extend(idx + 1):
                    return True
                del mapping[v]
                used.discard(w)
        return False

    return extend(0)


def permutation_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Reference isomorphism by full permutation scan; tiny graphs only."""
    if g1.n != g2.n:
        return False
    e2 = set(g2.edges())
    for perm in permutations(range(g1.n)):
        if {(min(perm[u], perm[v]), max(perm[u], perm[v]))
                for u, v in g1.edges()} == e2:
            return True
    return False


def _unpruned_refine(rows, cells, splitters):
    """Colour refinement as `szf.canon._refine` defines it, without its
    early stop: split every cell by neighbour count into each splitter
    (bit sets, first in first out), parts in ascending count order, and
    queue every new part."""
    queue = list(splitters)
    while queue:
        splitter = queue.pop(0)
        out = []
        for cell in cells:
            if len(cell) > 1:
                parts = {}
                for v in cell:
                    parts.setdefault((rows[v] & splitter).bit_count(), []).append(v)
                if len(parts) > 1:
                    for count in sorted(parts):
                        out.append(parts[count])
                        queue.append(sum(1 << v for v in parts[count]))
                    continue
            out.append(cell)
        cells = out
    return cells


def unpruned_canonical_form(rows, n: int):
    """Oracle for `szf.canon.canonical_form`: (least leaf code, number of
    leaves reaching it) over every leaf of the unpruned search tree."""
    best = aut = None
    stack = [_unpruned_refine(rows, [list(range(n))], [(1 << n) - 1])] if n else [[]]
    while stack:
        cells = stack.pop()
        target = next((i for i, cell in enumerate(cells) if len(cell) > 1), None)
        if target is None:
            order = [cell[0] for cell in cells]
            code = 0
            for i, v in enumerate(order):
                row = rows[v]
                for j, u in enumerate(order):
                    if row >> u & 1:
                        code |= 1 << (n * i + j)
            if best is None or code < best:
                best, aut = code, 1
            elif code == best:
                aut += 1
            continue
        cell = cells[target]
        for v in cell:
            child = cells[:target] + [[v], [u for u in cell if u != v]] + cells[target + 1:]
            stack.append(_unpruned_refine(rows, child, [1 << v]))
    return best, aut


def unpruned_graph_classes(n: int):
    """Oracle for `szf.canon.graph_classes`: grow every class of order m - 1
    by all 2^(m-1) neighbourhoods of the new vertex and keep the first graph
    reached per `unpruned_canonical_form` code."""
    classes = {0: ((), 1)}
    for m in range(1, n + 1):
        grown = {}
        for rows, _ in classes.values():
            for hood in range(1 << (m - 1)):
                new = tuple(row | (hood >> v & 1) << (m - 1) for v, row in enumerate(rows))
                new += (hood,)
                code, aut = unpruned_canonical_form(new, m)
                if code not in grown:
                    grown[code] = (new, aut)
        classes = grown
    return list(classes.values())
