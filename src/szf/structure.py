"""Structural recognition: cographs, hub graphs, pendant coronas, and the
classification of graphs whose throttling value is pinned by their shape.

One union-join decomposition decides the cograph shapes: it splits a vertex
set into the components of the graph (union) or of its complement (join),
and a graph is a cograph exactly when every set of two or more vertices
splits. The exhaustive four-vertex scans decide nothing in the classifier;
they give the induced P4 and 2K2 that `interior` evidence prints, and they
serve as an independent oracle in tests, since a graph is a cograph exactly
when it has no induced path on four vertices.
"""

from dataclasses import dataclass
from itertools import combinations

from .graph import Graph, _bit_components, components, from_edge_list, induced_subgraph

__all__ = [
    "CotreeLeaf",
    "CotreeNode",
    "build_cotree",
    "cotree_graph",
    "find_induced_p4",
    "find_induced_2k2",
    "recognize_h_graph",
    "recognize_corona_k1",
    "ExtremeClassification",
    "classify_extremes",
]


@dataclass(frozen=True)
class CotreeLeaf:
    vertex: int


@dataclass(frozen=True)
class CotreeNode:
    op: str  # "union" | "join"
    left: "CotreeLeaf | CotreeNode"
    right: "CotreeLeaf | CotreeNode"


def _splits(g):
    """The union-join decomposition of g, top down, as (vertex set, op, parts).

    Vertex sets and parts are bit sets; parts are ordered by smallest vertex,
    and parts of one vertex are not split further. The walk stops at the
    first vertex set that neither op splits, recorded with op None and no
    parts, so g is a cograph iff the last entry has an op.
    """
    rows = g.bit_adjacency
    full = (1 << g.n) - 1
    co_rows = [full ^ row ^ (1 << v) for v, row in enumerate(rows)]
    out = []
    stack = [full] if g.n > 1 else []
    while stack:
        vertices = stack.pop()
        for op, side in (("union", rows), ("join", co_rows)):
            parts = _bit_components(side, vertices)
            if len(parts) > 1:
                break
        else:
            out.append((vertices, None, []))
            break
        out.append((vertices, op, parts))
        stack.extend(p for p in reversed(parts) if p.bit_count() > 1)
    return out


def build_cotree(g: Graph):
    """Union-join decomposition tree, or None when g is not a cograph.

    A node with more than two parts nests to the right:
    CotreeNode(op, first, CotreeNode(op, second, ...)).
    """
    if g.n == 0:
        raise ValueError("the empty graph has no decomposition tree")
    splits = _splits(g)
    if splits and splits[-1][1] is None:
        return None
    trees = {}
    for vertices, op, parts in reversed(splits):
        subtrees = [trees.pop(p) if p.bit_count() > 1 else CotreeLeaf(p.bit_length() - 1)
                    for p in parts]
        tree = subtrees.pop()
        while subtrees:
            tree = CotreeNode(op, subtrees.pop(), tree)
        trees[vertices] = tree
    return trees.get((1 << g.n) - 1, CotreeLeaf(0))


def cotree_graph(tree, n: int) -> Graph:
    """Evaluate a cotree bottom-up into the graph it encodes.

    Leaves carry original vertex ids, so the result compares equal to the
    decomposed graph, not merely isomorphic. The walk uses an explicit stack
    and keys vertex lists by node identity, since hashing a deep frozen node
    recurses.
    """
    members = {}
    edges = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, CotreeLeaf):
            members[id(node)] = [node.vertex]
        elif id(node.left) in members and id(node.right) in members:
            left, right = members[id(node.left)], members[id(node.right)]
            if node.op == "join":
                edges += [(u, v) for u in left for v in right]
            members[id(node)] = left + right
        else:
            stack += [node, node.left, node.right]
    return from_edge_list(n, edges)


def _first_induced(g, degrees):
    """First four-vertex set, in lexicographic order, whose sorted degrees in
    the subgraph it induces equal `degrees`; else None."""
    rows = g.bit_adjacency
    for quad in combinations(range(g.n), 4):
        a, b, c, d = quad
        mask = 1 << a | 1 << b | 1 << c | 1 << d
        if sorted([(rows[a] & mask).bit_count(), (rows[b] & mask).bit_count(),
                   (rows[c] & mask).bit_count(), (rows[d] & mask).bit_count()]) == degrees:
            return frozenset(quad)
    return None


def find_induced_p4(g: Graph):
    """First four-vertex set (lexicographic) inducing a path, else None."""
    return _first_induced(g, [1, 1, 2, 2])


def find_induced_2k2(g: Graph):
    """First four-vertex set inducing two disjoint edges, else None."""
    return _first_induced(g, [1, 1, 1, 1])


def _split_k2_components(g):
    comps = components(g)
    extra = [c for c in comps if len(c) == 2]
    rest = [c for c in comps if len(c) != 2]
    return rest, len(extra)


def recognize_h_graph(g: Graph):
    """Decompose g as a hub graph plus disjoint edges, if possible.

    Returns (s, t, r) such that g is isomorphic to h_graph(s, t, r), else
    None. The hub is located structurally (degree and neighborhood
    checks), not by generic isomorphism search.
    """
    return _h_graph_shape(g, *_split_k2_components(g))


def _h_graph_shape(g, rest, r):
    """recognize_h_graph on g's components without the K2s, and their count r."""
    if len(rest) != 1:
        return None
    core = sorted(rest[0])
    m = len(core)
    if m % 2 == 0:
        return None
    deg = {v: len(g.adj[v] & rest[0]) for v in core}
    if m == 1:
        return (0, 0, r) if r >= 1 else None
    max_deg = max(deg.values())
    if max_deg <= 2:
        edge_count = sum(deg.values()) // 2
        degs = sorted(deg.values())
        if m == 3 and edge_count == 2:
            return (1, 0, r)
        if m == 3 and edge_count == 3:
            return (0, 1, r)
        if m == 5 and edge_count == 4 and degs == [1, 1, 2, 2, 2]:
            return (2, 0, r)
        return None
    hubs = [v for v in core if deg[v] == max_deg]
    if len(hubs) != 1:
        return None
    b = hubs[0]
    s = t = 0
    seen = {b}
    for c in sorted(g.adj[b]):
        if c in seen:
            continue
        if deg[c] != 2:
            return None
        others = g.adj[c] - {b}
        if len(others) != 1:
            return None
        (d,) = others
        if d in seen:
            return None
        if d in g.adj[b]:
            if deg[d] != 2:
                return None
            t += 1
        else:
            if deg[d] != 1:
                return None
            s += 1
        seen.update({c, d})
    if len(seen) != m:
        return None
    return (s, t, r)


def recognize_corona_k1(g: Graph):
    """Decompose g as (core with one pendant per vertex) plus disjoint edges.

    Returns (core_graph, r) when every non-pendant vertex has exactly one
    pendant neighbor, the pendant-free core has order at least two, and
    every core component contains an edge; else None. The core graph is
    relabeled to dense ids.
    """
    return _corona_k1_shape(g, *_split_k2_components(g))


def _corona_k1_shape(g, rest, r):
    """recognize_corona_k1 on g's components without the K2s, and their count r."""
    if not rest:
        return None
    kept = set().union(*rest)
    deg = {v: len(g.adj[v] & kept) for v in kept}
    pendants = {v for v in kept if deg[v] == 1}
    core = kept - pendants
    if len(core) < 2:
        return None
    for v in core:
        if deg[v] < 2:
            return None
        if len(g.adj[v] & pendants) != 1:
            return None
    for v in pendants:
        (u,) = g.adj[v] & kept
        if u not in core:
            return None
    for v in core:
        if not g.adj[v] & core:
            return None
    return induced_subgraph(g, core), r


@dataclass(frozen=True)
class ExtremeClassification:
    """Predicted throttling class with a re-checkable structured witness."""

    label: str  # th_equals_1 | th_equals_2 | th_equals_n_minus_1 | th_equals_n | interior
    value: int | None
    evidence: dict


def classify_extremes(g: Graph) -> ExtremeClassification:
    """Classify g by the structural characterizations of throttling 1, 2,
    n-1, and n; graphs matching none of them are interior.

    2K1 satisfies both the value-2 and value-n shapes (they agree at 2),
    and at order three the value-2 and value-(n-1) shapes can both apply;
    the reported value is what matters in those overlaps.
    """
    n = g.n
    if g.num_edges() == 0:
        if n == 1:
            return ExtremeClassification("th_equals_1", 1, {"form": "K1"})
        if n == 2:
            return ExtremeClassification("th_equals_2", 2, {"form": "2K1"})
        return ExtremeClassification("th_equals_n", n, {"form": "edgeless", "n": n})

    if all(len(nbrs) == 1 for nbrs in g.adj):
        return ExtremeClassification(
            "th_equals_1", 1, {"form": "matching", "r": n // 2})

    rest, r = _split_k2_components(g)
    hub = _h_graph_shape(g, rest, r)
    if hub is not None:
        s, t, r = hub
        return ExtremeClassification(
            "th_equals_2", 2, {"form": "h_graph", "s": s, "t": t, "r": r})

    pend = _corona_k1_shape(g, rest, r)
    if pend is not None:
        core, r = pend
        return ExtremeClassification(
            "th_equals_2", 2,
            {"form": "corona_k1", "core_order": core.n, "r": r,
             "core_vertices": [v for v in range(n) if len(g.adj[v]) >= 2]})

    # A cograph has an induced 2K2 iff some union split has two parts with
    # an edge, i.e. two parts of at least two vertices.
    splits = _splits(g)
    cograph = splits[-1][1] is not None
    has_2k2 = any(op == "union" and sum(p.bit_count() > 1 for p in parts) > 1
                  for _, op, parts in splits)
    if cograph and not has_2k2:
        u, v = next(g.edges())
        return ExtremeClassification(
            "th_equals_n_minus_1", n - 1,
            {"form": "cograph_no_2k2", "edge": [u, v]})

    p4 = None if cograph else find_induced_p4(g)
    kk = find_induced_2k2(g)
    evidence = {"form": "interior"}
    if p4 is not None:
        evidence["induced_p4"] = sorted(p4)
    if kk is not None:
        evidence["induced_2k2"] = sorted(kk)
    return ExtremeClassification("interior", None, evidence)
