"""Shared test utilities: independent oracles and corpus generators.

The brute-force throttling oracle below scans every subset in the same
canonical order as the solver (size ascending, lexicographic within a
size) but shares none of the solver's pruning or seeding logic, so it is
a genuinely independent check of values and witnesses.
"""

from itertools import combinations, permutations

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


def brute_force_table(g: Graph):
    """Exhaustive throttling data: (th, witness, z_minus, pt_minimum, per_k).

    per_k holds the true optimum for every feasible size; the witness is
    the first optimal set in canonical order.
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
