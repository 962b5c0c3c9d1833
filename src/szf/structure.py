"""Structural recognition: cographs, hub graphs, pendant coronas, and the
classification of graphs whose throttling value is pinned by their shape.

One union-join decomposition decides the cograph shapes: it splits a vertex
set into the components of the graph (union) or of its complement (join),
and a graph is a cograph exactly when every set of two or more vertices
splits. The exhaustive four-vertex scans decide nothing in the classifier;
they give the induced P4 and 2K2 that `interior` evidence prints, and they
serve as an independent oracle in tests, since a graph is a cograph exactly
when it has no induced path on four vertices.

The value-2 shapes, a hub graph or a pendant corona plus disjoint edges, are
read from the same bit-set components of `Graph.bit_adjacency` that the
decomposition walks.
"""

from itertools import combinations
from typing import NamedTuple

from .graph import Graph, _bit_components, from_edge_list, induced_subgraph

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


class CotreeLeaf(NamedTuple):
    vertex: int


class CotreeNode(NamedTuple):
    op: str  # "union" | "join"
    left: "CotreeLeaf | CotreeNode"
    right: "CotreeLeaf | CotreeNode"

    # The tuple methods recurse, and a cotree can be as deep as its order.
    def __repr__(self):
        out, stack = [], [self]
        while stack:
            node = stack.pop()
            if isinstance(node, CotreeNode):
                stack += [")", node.right, ", right=", node.left]
                node = f"CotreeNode(op={node.op!r}, left="
            out.append(str(node))  # a text piece, or a leaf's repr
        return "".join(out)

    def __eq__(self, other):
        return repr(self) == repr(other) if isinstance(other, CotreeNode) else NotImplemented

    def __hash__(self):
        return hash(repr(self))


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
    and keys vertex lists by node identity, since hashing a node reads its
    whole subtree.
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


def recognize_h_graph(g: Graph):
    """Decompose g as a hub graph plus disjoint edges, if possible.

    Returns (s, t, r) such that g is isomorphic to h_graph(s, t, r), else
    None. Besides its r K2 components, g must have exactly one other
    component, of order m and with e edges, and K1 alone (s = t = r = 0) is
    not a hub graph. H(s, t) has m = 1 + 2(s + t) and e = 2s + 3t, so
    t = e - (m - 1), s = (m - 1)/2 - t, and the hub has degree s + 2t. The
    hub is a vertex of that degree whose removal leaves only 2-vertex
    components; each of them meets it in one edge (a pendant path) or two
    (a triangle), so the counting fixes the same (s, t) whichever such
    vertex is found. Once s + 2t >= 3 the hub is the only vertex of its
    degree.
    """
    rows = g.bit_adjacency
    comps = _bit_components(rows, (1 << g.n) - 1)
    rest = [c for c in comps if c.bit_count() != 2]
    r = len(comps) - len(rest)
    if len(rest) != 1 or g.n == 1:
        return None
    core = rest[0]
    members = [v for v in range(g.n) if core >> v & 1]
    m = len(members)
    t = sum(rows[v].bit_count() for v in members) // 2 - (m - 1)
    s = (m - 1) // 2 - t
    for v in members:
        if rows[v].bit_count() == s + 2 * t and all(
                p.bit_count() == 2 for p in _bit_components(rows, core ^ 1 << v)):
            return (s, t, r)
    return None


def recognize_corona_k1(g: Graph):
    """Decompose g as (core with one pendant per vertex) plus disjoint edges.

    Returns (core_graph, r) when, outside its r K2 components, the core (the
    vertices of degree other than 1) has order at least two and every core
    vertex has exactly one pendant neighbor; else None. Such a core vertex
    has degree at least two, so it also has a core neighbor. The core graph
    is relabeled to dense ids.
    """
    rows = g.bit_adjacency
    comps = _bit_components(rows, (1 << g.n) - 1)
    rest = [c for c in comps if c.bit_count() != 2]
    kept, r = sum(rest), len(comps) - len(rest)
    pendants = sum(1 << v for v in range(g.n) if kept >> v & 1 and rows[v].bit_count() == 1)
    core = kept ^ pendants
    members = [v for v in range(g.n) if core >> v & 1]
    if len(members) < 2 or any((rows[v] & pendants).bit_count() != 1 for v in members):
        return None
    return induced_subgraph(g, members), r


class ExtremeClassification(NamedTuple):
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

    hub = recognize_h_graph(g)
    if hub is not None:
        s, t, r = hub
        return ExtremeClassification(
            "th_equals_2", 2, {"form": "h_graph", "s": s, "t": t, "r": r})

    pend = recognize_corona_k1(g)
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
