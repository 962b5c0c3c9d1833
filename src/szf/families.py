"""Graph family generators, closed-form throttling evaluators, and specs.

Each family's fixed vertex labeling, which makes witnesses meaningful, is
the last field of its `_FAMILIES` row, and `szf family` prints it.

Square-root ceilings are computed with integer arithmetic only; the tie
cases (an exact .5) are precisely where float rounding goes wrong.
"""

from itertools import combinations
from math import inf, isqrt
import re
from typing import NamedTuple

from .graph import Graph, corona, from_edge_list

__all__ = [
    "path", "cycle", "complete", "empty", "star", "matching",
    "complete_multipartite", "hypercube", "spider", "h_graph", "friendship",
    "corona_k1", "corona_k2",
    "GadgetFamilySpec", "gadget_family", "random_gadget_spec", "paired_blue_witness",
    "th_path_formula", "th_cycle_formula", "th_spider_formula",
    "spider_f_bound", "th_hypercube_formula",
    "diameter_lower_bound", "diameter_bound_holds",
    "SplitMix64", "family_graph",
]


# ---------------------------------------------------------------------------
# basic generators

def path(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs at least one vertex")
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least three vertices")
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    return from_edge_list(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def empty(n: int) -> Graph:
    return from_edge_list(n, [])


def star(p: int) -> Graph:
    """K_{1,p} with the center labeled 0."""
    if p < 0:
        raise ValueError("leaf count must be nonnegative")
    return from_edge_list(p + 1, [(0, i) for i in range(1, p + 1)])


def matching(r: int) -> Graph:
    """r disjoint edges (rK2)."""
    if r < 0:
        raise ValueError("edge count must be nonnegative")
    return from_edge_list(2 * r, [(2 * i, 2 * i + 1) for i in range(r)])


def complete_multipartite(parts) -> Graph:
    """Complete multipartite graph; part i occupies a contiguous id block."""
    sizes = list(parts)
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError("every part must have at least one vertex")
    part = [i for i, s in enumerate(sizes) for _ in range(s)]
    return from_edge_list(len(part), [(u, v) for u, v in combinations(range(len(part)), 2)
                                      if part[u] != part[v]])


def hypercube(n: int) -> Graph:
    if n < 1:
        raise ValueError("hypercube dimension must be at least one")
    size = 1 << n
    edges = [(v, v ^ (1 << b)) for v in range(size) for b in range(n) if v < v ^ (1 << b)]
    return from_edge_list(size, edges)


def spider(p: int, leg: int) -> Graph:
    """Balanced spider T_{p,leg}: center of degree p, p legs of leg vertices."""
    if p < 3:
        raise ValueError("a spider center must have degree at least three")
    if leg < 1:
        raise ValueError("legs need at least one vertex")
    edges = []
    for j in range(p):
        first = 1 + j * leg
        edges.append((0, first))
        edges.extend((first + i, first + i + 1) for i in range(leg - 1))
    return from_edge_list(p * leg + 1, edges)


def h_graph(s: int, t: int, r: int) -> Graph:
    """Hub graph H(s,t) together with r extra disjoint edges.

    The hub b = 0 carries s pendant paths b - x_i - y_i and t triangles
    b - z_i - w_i; the total order 1 + 2s + 2t + 2r is always odd.
    """
    if s < 0 or t < 0 or r < 0:
        raise ValueError("parameters must be nonnegative")
    if s + t + r < 1:
        raise ValueError("H(0,0) with no extra edges is a bare K1; need s+t+r >= 1")
    edges = []
    nxt = 1
    for _ in range(s):
        x, y = nxt, nxt + 1
        edges.extend([(0, x), (x, y)])
        nxt += 2
    for _ in range(t):
        z, w = nxt, nxt + 1
        edges.extend([(0, z), (0, w), (z, w)])
        nxt += 2
    for _ in range(r):
        edges.append((nxt, nxt + 1))
        nxt += 2
    return from_edge_list(nxt, edges)


def friendship(t: int) -> Graph:
    """t triangles sharing one universal vertex (F_t = H(0, t))."""
    if t < 1:
        raise ValueError("friendship graph needs at least one triangle")
    return h_graph(0, t, 0)


def corona_k1(g: Graph) -> Graph:
    """One pendant vertex attached to every vertex of g."""
    return corona(g, complete(1))


def corona_k2(g: Graph) -> Graph:
    """One triangle pair attached to every vertex of g."""
    return corona(g, complete(2))


# ---------------------------------------------------------------------------
# gadget family: path or cycle base with K2 gadgets hung on base vertices

class GadgetFamilySpec(NamedTuple("_GadgetFields", [
        ("base", str), ("base_length", int), ("attachments", tuple[tuple[str, ...], ...])])):
    """Construction recipe: a base path or cycle plus per-vertex K2 gadgets.

    attachments[v] lists the gadgets of base vertex v; each entry is
    "single" (one edge to the base) or "double" (both gadget vertices tied
    to the base). A single-edge gadget leaves one vertex of degree one, so
    corpora that need minimum degree two use double gadgets only.
    """

    def __new__(cls, base, base_length, attachments):
        self = super().__new__(cls, base, base_length, attachments)
        if self.base not in ("path", "cycle"):
            raise ValueError("base must be 'path' or 'cycle'")
        if self.base == "cycle" and self.base_length < 3:
            raise ValueError("cycle base needs length at least three")
        if self.base == "path" and self.base_length < 1:
            raise ValueError("path base needs length at least one")
        if len(self.attachments) != self.base_length:
            raise ValueError("need one attachment tuple per base vertex")
        for per_vertex in self.attachments:
            for kind in per_vertex:
                if kind not in ("single", "double"):
                    raise ValueError(f"unknown gadget kind {kind!r}")
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks too

    @property
    def order(self) -> int:
        return self.base_length + 2 * sum(len(a) for a in self.attachments)


def gadget_family(spec: GadgetFamilySpec) -> Graph:
    """Materialize a gadget spec; deterministic for a fixed spec."""
    L = spec.base_length
    base = path(L) if spec.base == "path" else cycle(L)
    edges = list(base.edges())
    nxt = L
    for v in range(L):
        for kind in spec.attachments[v]:
            a, b = nxt, nxt + 1
            edges.append((a, b))
            edges.append((v, a))
            if kind == "double":
                edges.append((v, b))
            nxt += 2
    return from_edge_list(nxt, edges)


def random_gadget_spec(base: str, base_length: int, seed: int) -> GadgetFamilySpec:
    """Seeded gadget spec: 0..2 gadgets per base vertex, splitmix64 driven.

    Cycle bases draw double-edge gadgets only, so the generated graph has
    minimum degree two; path bases mix both kinds.
    """
    rng = SplitMix64(seed)
    attachments = []
    for _ in range(base_length):
        count = rng.below(3)
        kinds = []
        for _ in range(count):
            if base == "cycle":
                kinds.append("double")
            else:
                kinds.append("double" if rng.below(2) else "single")
        attachments.append(tuple(kinds))
    return GadgetFamilySpec(base=base, base_length=base_length,
                            attachments=tuple(attachments))


def paired_blue_witness(spec: GadgetFamilySpec, spacing: int) -> frozenset[int]:
    """Adjacent base-vertex pairs every `spacing` positions along the base.

    Path bases additionally get a pair at the far end, or their one vertex
    when the base has length one. The returned set is a skew forcing set
    of gadget_family(spec): gadgets on blue vertices clear in one round,
    then the blue front advances one base vertex per two rounds from each
    pair.
    """
    L = spec.base_length
    if spacing < 1:
        raise ValueError("spacing must be positive")
    if spacing > L:
        raise ValueError(f"spacing {spacing} exceeds base length {L}")
    chosen = set()
    for p in range(0, L, spacing):
        if spec.base == "cycle":
            chosen.update({p, (p + 1) % L})
        elif p + 1 < L:
            chosen.update({p, p + 1})
    if spec.base == "path":
        chosen.update({max(L - 2, 0), L - 1})
    return frozenset(chosen)


# ---------------------------------------------------------------------------
# closed forms and bounds (integer arithmetic throughout)

def th_cycle_formula(n: int) -> int:
    """ceil(sqrt(2n) - 1/2): least m with (2m+1)^2 >= 8n."""
    if n < 3:
        raise ValueError("cycles need at least three vertices")
    return (isqrt(8 * n - 1) + 1) // 2


def th_path_formula(n: int) -> int:
    """ceil(sqrt(2(n+1)) - 3/2): least m with (2m+3)^2 >= 8(n+1)."""
    if n < 3:
        raise ValueError("the path formula applies for n >= 3")
    return (isqrt(8 * n + 7) - 1) // 2


def th_spider_formula(p: int, leg: int) -> int:
    """Closed-form throttling value for balanced spiders with short legs.

    Requires leg >= 2 and p > leg/2 + 1. Even legs give 1 + leg/2; odd
    legs give 1 + p + (leg-1)/4 or 1 + p + (leg+1)/4 according to
    leg mod 4, with leg = 3 evaluated by the same case split.
    """
    if leg < 2:
        raise ValueError("formula applies for legs of at least two vertices")
    if 2 * p <= leg + 2:
        raise ValueError(f"hypothesis p > leg/2 + 1 fails for p={p}, leg={leg}")
    if leg % 2 == 0:
        return 1 + leg // 2
    if leg % 4 == 1:
        return 1 + p + (leg - 1) // 4
    return 1 + p + (leg + 1) // 4


def spider_f_bound(p: int, leg: int):
    """Exact rational bracket (f/2, 3f) with f = min(leg, sqrt(p*leg)) for
    even legs and max(p, sqrt(p*leg)) for odd legs.

    When f is the irrational square root, the bracket widens to integer
    square-root bounds, so the interval always contains the true one.
    """
    if p < 2 or leg < 2:
        raise ValueError("bound applies for p, leg >= 2")
    from fractions import Fraction
    product = p * leg
    root = isqrt(product)
    exact = root * root == product
    if leg % 2 == 0:
        use_int = leg * leg <= product
        f_int = leg
    else:
        use_int = p * p >= product
        f_int = p
    if use_int:
        return Fraction(f_int, 2), Fraction(3 * f_int)
    if exact:
        return Fraction(root, 2), Fraction(3 * root)
    return Fraction(root, 2), Fraction(3 * (root + 1))


def th_hypercube_formula(n: int) -> int:
    if n < 2:
        raise ValueError("formula applies for dimension at least two")
    return 2 ** (n - 1) + 1


def diameter_bound_holds(th: int, d: int) -> bool:
    """Exact predicate th >= sqrt(d) - 1/4, i.e. (4*th + 1)^2 >= 16*d."""
    if d < 0:
        raise ValueError("diameter must be nonnegative")
    return (4 * th + 1) ** 2 >= 16 * d


def diameter_lower_bound(d: int):
    """Largest quarter-integer below sqrt(d) - 1/4, for report display.

    Use diameter_bound_holds for the exact comparison; this value can sit
    strictly below the irrational bound.
    """
    if d < 4:
        raise ValueError("bound applies for diameter at least four")
    from fractions import Fraction
    return Fraction(isqrt(16 * d) - 1, 4)


# ---------------------------------------------------------------------------
# splitmix64: the documented PRNG behind every seeded corpus

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64 generator, reproducible across implementations.

    state <- state + 0x9E3779B97F4A7C15 (mod 2^64); the output mixes the
    new state with z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z ^= z >> 27;
    z *= 0x94D049BB133111EB; z ^= z >> 31. below(b) reduces next_u64()
    modulo b.
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        if bound < 1:
            raise ValueError("bound must be positive")
        return self.next_u64() % bound


# ---------------------------------------------------------------------------
# family spec strings: "family:param,param,..." plus corona wrappers

_CORONA_RE = re.compile(r"^corona_k([12])\((.+)\)$")


def family_graph(spec: str) -> Graph:
    """Build a graph from its family spec string.

    Grammar: "name:p1,p2,..." with integer parameters. corona_k1(SPEC)
    and corona_k2(SPEC) wrap any other spec. gadget_cycle:L,seed and
    gadget_path:L,seed draw seeded attachments.
    """
    return _family(spec)[1]()


def _gadget(base: str):
    """The (arity, order, build) fields of the seeded gadget family on `base`;
    its `_FAMILIES` row appends the labeling."""
    return (2, lambda length, seed: random_gadget_spec(base, length, seed).order,
            lambda length, seed: gadget_family(random_gadget_spec(base, length, seed)))


_FAMILIES = {  # name: (arity, order, build, labeling)
    "path": (1, lambda n: n, path, "vertices 0..n-1 in path order"),
    "cycle": (1, lambda n: n, cycle,
              "vertices 0..n-1 in ring order, edge (n-1,0) closes the cycle"),
    "complete": (1, lambda n: n, complete, "vertices 0..n-1, every pair adjacent"),
    "empty": (1, lambda n: n, empty, "vertices 0..n-1, no edges"),
    "star": (1, lambda p: p + 1, star, "center 0, leaves 1..p"),
    "matching": (1, lambda r: 2 * r, matching, "edge i joins 2i and 2i+1"),
    "hypercube": (1, lambda d: 2 ** d, hypercube,
                  "vertices are n-bit integers, edges at Hamming distance 1"),
    "friendship": (1, lambda t: 2 * t + 1, friendship, "hub 0, then triangle pairs"),
    "spider": (2, lambda p, leg: p * leg + 1, spider,
               "center 0, leg j occupies 1+j*leg..(j+1)*leg outward"),
    "h": (3, lambda s, t, r: 1 + 2 * (s + t + r), h_graph,
          "hub 0, then pendant pairs, triangle pairs, extra edge pairs"),
    "gadget_cycle": (*_gadget("cycle"), "base vertices 0..L-1 first, gadget pairs appended"),
    "gadget_path": (*_gadget("path"), "base vertices 0..L-1 first, gadget pairs appended"),
}
_FAMILIES["h_graph"] = _FAMILIES["h"]


def _family(spec: str, limit=inf):
    """(order, build, labeling) of a family spec: the order of its graph,
    computed from the parameters without building anything, a function that
    builds the graph, and the text of its vertex labeling. Parameters out of
    a builder's range raise only from build. A gadget spec's order is drawn
    with its attachments, in time linear in its base length L; when L is
    above `limit`, L, the least order it can have, stands in undrawn."""
    text = spec.strip()
    m = _CORONA_RE.match(text)
    if m:
        order, inner, _ = _family(m.group(2), limit)
        wrap, copy = ((corona_k1, "K1 copy at m+i") if m.group(1) == "1"
                      else (corona_k2, "K2 copy at m+2i, m+2i+1"))
        return (order * (1 + int(m.group(1))), lambda: wrap(inner()),
                f"inner spec's m vertices first, then vertex i's {copy} (graph.corona)")
    name, _, arg_text = text.partition(":")
    name = name.strip()
    try:
        args = [int(a) for a in arg_text.split(",")] if arg_text.strip() else []
    except ValueError:
        raise ValueError(f"non-integer parameter in family spec {spec!r}") from None

    if name == "complete_multipartite":
        if not args:
            raise ValueError("complete_multipartite needs at least one part")
        return (sum(args), lambda: complete_multipartite(args),
                "part i is a contiguous id block, parts in spec order")
    if name not in _FAMILIES:
        raise ValueError(f"unknown family {name!r}")
    arity, order, build, labeling = _FAMILIES[name]
    if len(args) != arity:
        raise ValueError(f"family {name!r} takes {arity} parameter(s), got {len(args)}")
    n = args[0] if name.startswith("gadget_") and args[0] > limit else order(*args)
    return n, lambda: build(*args), labeling
