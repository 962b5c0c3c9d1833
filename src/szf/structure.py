"""Structural recognition: cographs, hub graphs, pendant coronas, and the
classification of graphs whose throttling value is pinned by their shape.

One union-join decomposition decides the cograph shapes: it splits a vertex
set into the components of the graph (union) or of its complement (join),
and a graph is a cograph exactly when every set of two or more vertices
splits. The four-vertex scans decide nothing in the classifier; they give
the lexicographically first induced P4 and 2K2 that `interior` evidence
prints, and they serve as an independent check in tests, since a graph is a
cograph exactly when it has no induced path on four vertices. They walk
vertex pairs and read the third and fourth vertices from bit masks of
`Graph.bit_adjacency` rows, not every four-vertex set.

The value-2 shapes, a hub graph or a pendant corona plus disjoint edges, are
read from the same rows: the K2 components are the edges whose two ends have
degree one, so neither recognizer walks the components of the whole graph.
"""

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


def _first_induced(g, p4):
    """First four-vertex set, in lexicographic order, inducing a P4 (p4
    true) or a 2K2 (p4 false); else None.

    Any three vertices of a P4 or a 2K2 induce one or two edges, so for each
    pair a < b the valid third vertices c > b are one mask of rows a and b. One
    vertex f of the triple is related alike to the other two, u and w (a
    path's middle, or the vertex off the edge), and the valid fourth
    vertices, which see exactly one of u and w (P4) or neither (2K2) and see
    f iff f is off the edge, are one mask too; d is its lowest bit above c.
    Pairs, c and d ascend, so no earlier quad is skipped.
    """
    rows, n = g.bit_adjacency, g.n
    full = (1 << n) - 1
    for a in range(n):
        ra = rows[a]
        for b in range(a + 1, n):
            rb, ab = rows[b], ra >> b & 1
            if p4:
                cs = ~(ra & rb) if ab else ra | rb
            else:
                cs = ~(ra | rb) if ab else ra ^ rb
            cs &= full >> b + 1 << b + 1  # ~ gives negative integers
            while cs:
                c = (cs & -cs).bit_length() - 1
                cs &= cs - 1
                rc, ac, bc = rows[c], ra >> c & 1, rb >> c & 1
                f, u, w = (ra, rb, rc) if ab == ac else (rb, ra, rc) if ab == bc else (rc, ra, rb)
                if ab + ac + bc == 2:  # f is the middle of a path
                    f = ~f
                ds = (f & (u ^ w if p4 else ~(u | w)) & full) >> c + 1
                if ds:
                    return frozenset((a, b, c, c + (ds & -ds).bit_length()))
    return None


def find_induced_p4(g: Graph):
    """First four-vertex set (lexicographic) inducing a path, else None."""
    return _first_induced(g, True)


def find_induced_2k2(g: Graph):
    """First four-vertex set inducing two disjoint edges, else None."""
    return _first_induced(g, False)


def _k2_vertices(rows):
    """The bit set of vertices in K2 components: the ends of an edge whose
    two ends both have degree one."""
    return sum(1 << v for v, row in enumerate(rows)
               if row.bit_count() == 1 and rows[row.bit_length() - 1].bit_count() == 1)


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
    degree. The core (g less its K2 components) is then connected: a
    2-vertex component of the core less the hub that missed the hub would
    be a K2 component of g.
    """
    rows = g.bit_adjacency
    pairs = _k2_vertices(rows)
    core, r = (1 << g.n) - 1 ^ pairs, pairs.bit_count() // 2
    if g.n == 1:
        return None
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
    pairs = _k2_vertices(rows)
    kept, r = (1 << g.n) - 1 ^ pairs, pairs.bit_count() // 2
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
