"""Immutable simple graphs on dense integer vertex ids.

Vertices are always 0..n-1. Adjacency is stored as a tuple of frozensets,
so a Graph hashes and compares by exact labeled structure and can be
shared freely across threads or worker processes. All constructors
validate loop-freedom and adjacency symmetry.
"""

from functools import cached_property
from itertools import islice
import math
from typing import NamedTuple

__all__ = [
    "Graph",
    "from_edge_list",
    "disjoint_union",
    "join",
    "complement",
    "corona",
    "induced_subgraph",
    "components",
    "distance",
    "diameter",
    "leaves",
    "min_degree",
    "ball",
]


class Graph(NamedTuple("_GraphFields", [("n", int), ("adj", tuple[frozenset[int], ...])])):
    """A finite simple undirected graph.

    Attributes
    ----------
    n : int
        Number of vertices; ids are 0..n-1.
    adj : tuple of frozenset
        adj[v] is the neighbor set of v. No loops, symmetric.
    """

    # No __slots__: the instance dict holds the cached bit_adjacency.
    def __new__(cls, n, adj):
        self = super().__new__(cls, n, adj)
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        if len(self.adj) != self.n:
            raise ValueError("adjacency table length does not match vertex count")
        for v, nbrs in enumerate(self.adj):
            if v in nbrs:
                raise ValueError(f"loop at vertex {v}")
            for u in nbrs:
                if not 0 <= u < self.n:
                    raise ValueError(f"neighbor {u} of vertex {v} out of range")
                if v not in self.adj[u]:
                    raise ValueError(f"asymmetric adjacency between {v} and {u}")
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks too

    @property
    def vertices(self) -> range:
        return range(self.n)

    def neighbors(self, v: int) -> frozenset[int]:
        return self.adj[v]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def edges(self):
        """Yield edges as (u, v) pairs with u < v, in lexicographic order."""
        for u in range(self.n):
            for v in sorted(self.adj[u]):
                if u < v:
                    yield (u, v)

    def num_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self.adj) // 2

    @cached_property
    def bit_adjacency(self) -> tuple[int, ...]:
        """Neighbor sets as integer bitmasks (bit v set iff v is a neighbor).

        `_layers` walks it, and `structure` reads it for the union-join
        decomposition, the hub and corona recognizers and the four-vertex
        scans, and `throttling` for the closures of its greedy forcing set and
        Z- descent. The propagation kernel does not: its integers are indexed
        by subset, not by vertex, and it walks `adj`. The value is cached on
        first use and is safe to share since the graph is immutable.
        """
        return tuple(sum(1 << u for u in nbrs) for nbrs in self.adj)

    def __repr__(self):
        return f"Graph(n={self.n}, edges={list(self.edges())})"


def _graph_from_sets(n, sets):
    return Graph(n, tuple(frozenset(s) for s in sets))


def from_edge_list(n: int, edges) -> Graph:
    """Build a graph on n vertices from an iterable of (u, v) pairs.

    Duplicate pairs and both orientations are accepted and collapse to a
    single undirected edge.

    Raises
    ------
    ValueError
        If an endpoint is out of range or a pair is a loop (u == v).
    """
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    sets = [set() for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"loop edge at vertex {u}")
        sets[u].add(v)
        sets[v].add(u)
    return _graph_from_sets(n, sets)


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union; vertices of g2 are relabeled by an offset of g1.n."""
    off = g1.n
    sets = [set(nbrs) for nbrs in g1.adj]
    sets.extend({u + off for u in nbrs} for nbrs in g2.adj)
    return _graph_from_sets(g1.n + g2.n, sets)


def join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union plus every edge between the two sides."""
    off = g1.n
    n = g1.n + g2.n
    sets = [set(nbrs) | set(range(off, n)) for nbrs in g1.adj]
    sets.extend({u + off for u in nbrs} | set(range(off)) for nbrs in g2.adj)
    return _graph_from_sets(n, sets)


def complement(g: Graph) -> Graph:
    """Flip every non-loop pair."""
    full = set(range(g.n))
    return _graph_from_sets(g.n, [full - g.adj[v] - {v} for v in range(g.n)])


def corona(g: Graph, h: Graph) -> Graph:
    """Corona product: one copy of g, g.n copies of h, copy i joined to vertex i.

    Vertex order is g's vertices first, then the h copies in index order,
    so copy i occupies ids g.n + i*h.n .. g.n + (i+1)*h.n - 1.
    """
    if g.n < 1:
        raise ValueError("corona needs a nonempty first factor")
    n = g.n + g.n * h.n
    sets = [set(nbrs) for nbrs in g.adj] + [set() for _ in range(g.n * h.n)]
    for i in range(g.n):
        base = g.n + i * h.n
        for u in range(h.n):
            sets[i].add(base + u)
            sets[base + u].add(i)
            for w in h.adj[u]:
                sets[base + u].add(base + w)
    return _graph_from_sets(n, sets)


def induced_subgraph(g: Graph, vertices) -> Graph:
    """Subgraph induced by a vertex set, relabeled to 0..k-1 in sorted id order."""
    vs = sorted(set(vertices))
    for v in vs:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
    index = {v: i for i, v in enumerate(vs)}
    sets = [{index[u] for u in g.adj[v] if u in index} for v in vs]
    return _graph_from_sets(len(vs), sets)


def _layers(rows, start, within):
    """Breadth-first layers, as bit sets, from the bit set `start` through the
    bit set `within` of the graph whose neighbor bit sets are `rows`: layer d
    holds the vertices at distance d. Disjoint, so their sum is their union."""
    layer, rest = start, within & ~start
    while layer:
        yield layer
        reach = 0
        while layer:
            low = layer & -layer
            reach |= rows[low.bit_length() - 1]
            layer ^= low
        layer = reach & rest
        rest ^= layer


def _bit_components(rows, vertices):
    """Components, as bit sets ordered by smallest vertex, of the graph whose
    neighbor bit sets are `rows`, restricted to the bit set `vertices`."""
    parts = []
    while vertices:
        comp = sum(_layers(rows, vertices & -vertices, vertices))
        parts.append(comp)
        vertices ^= comp
    return parts


def _ball(rows, start, r):
    """The bit set of vertices within distance r of the bit set `start`."""
    return sum(islice(_layers(rows, start, (1 << len(rows)) - 1), r + 1))


def _members(bits) -> frozenset[int]:
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return frozenset(out)


def components(g: Graph) -> list[frozenset[int]]:
    """Connected components as vertex sets, ordered by smallest member."""
    return [_members(c) for c in _bit_components(g.bit_adjacency, (1 << g.n) - 1)]


def distance(g: Graph, u: int, v: int):
    """Shortest-path edge count between u and v; math.inf across components."""
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise ValueError("vertex out of range")
    layers = _layers(g.bit_adjacency, 1 << u, (1 << g.n) - 1)
    return next((d for d, layer in enumerate(layers) if layer >> v & 1), math.inf)


def diameter(g: Graph):
    """Maximum pairwise distance; math.inf when disconnected.

    Raises ValueError on the empty graph, where no pair exists.
    """
    if g.n == 0:
        raise ValueError("diameter of the empty graph is undefined")
    rows, full = g.bit_adjacency, (1 << g.n) - 1
    best = 0
    for v in range(g.n):
        layers = list(_layers(rows, 1 << v, full))
        if sum(layers) != full:
            return math.inf
        best = max(best, len(layers) - 1)
    return best


def leaves(g: Graph) -> frozenset[int]:
    """Vertices of degree exactly 1."""
    return frozenset(v for v in range(g.n) if len(g.adj[v]) == 1)


def min_degree(g: Graph) -> int:
    if g.n == 0:
        raise ValueError("minimum degree of the empty graph is undefined")
    return min(len(nbrs) for nbrs in g.adj)


def ball(g: Graph, v: int, r: int) -> frozenset[int]:
    """All vertices at distance at most r from v."""
    if not 0 <= v < g.n:
        raise ValueError("vertex out of range")
    if r < 0:
        raise ValueError("radius must be nonnegative")
    return _members(_ball(g.bit_adjacency, 1 << v, r))
