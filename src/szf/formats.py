"""Serialization: graph6 interchange format and plain edge-list text.

graph6 layout, as implemented here:

* order: one byte chr(n+63) for n < 63, or '~' followed by three bytes
  carrying an 18-bit big-endian value for 63 <= n <= 258047;
* adjacency: the upper-triangle entries (i, j) with i < j, ordered by
  increasing j then increasing i, packed most-significant-bit first into
  6-bit groups, zero padded, each group emitted as chr(group+63).

The readers `_graph6` and `_edge_list` check the whole text and return
(n, build): the order comes before the body, so a caller can refuse it
before build() decodes anything. graph6 decodes in linear time.

The edge-list text format is "n m" on the first line followed by m lines
"u v". Lines that are blank or start with '#' are ignored on input.
"""

from itertools import chain, compress

from .graph import Graph, from_edge_list

__all__ = ["from_graph6", "to_graph6", "parse_edge_list", "format_edge_list"]

GRAPH6_HEADER = ">>graph6<<"

_MAX_G6_ORDER = 258047


def _triangle_pairs(n):
    for j in range(1, n):
        for i in range(j):
            yield i, j


def to_graph6(g: Graph) -> str:
    """Encode a graph as a graph6 string (no header)."""
    n = g.n
    if n > _MAX_G6_ORDER:
        raise ValueError(f"graph6 encoding supports at most {_MAX_G6_ORDER} vertices")
    if n < 63:
        head = chr(n + 63)
    else:
        head = "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    # Six bits a character, first bit highest; zip drops the padding bits left over.
    bits = chain((j in g.adj[i] for i, j in _triangle_pairs(n)), [False] * 5)
    return head + bytes(63 + (a << 5 | b << 4 | c << 3 | d << 2 | e << 1 | f)
                        for a, b, c, d, e, f in zip(*[bits] * 6)).decode("ascii")


def from_graph6(text: str) -> Graph:
    """Decode a graph6 string, tolerating the optional '>>graph6<<' header.
    Raises ValueError on characters outside chr(63)..chr(126), a truncated
    or overlong bit stream, or nonzero padding bits."""
    return _graph6(text)[1]()


def _graph6(text: str):
    """(n, build) of a graph6 string, checked in full before anything is
    decoded; build() walks the body six bits a character."""
    s = text.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER):]
    if not s:
        raise ValueError("empty graph6 string")
    for ch in s:
        if not 63 <= ord(ch) <= 126:
            raise ValueError(f"invalid graph6 character {ch!r}")
    if s[0] == "~":
        if len(s) < 4:
            raise ValueError("truncated graph6 order field")
        if s[1] == "~":
            raise ValueError("graph6 orders above 258047 are not supported")
        n = 0
        for ch in s[1:4]:
            n = (n << 6) | (ord(ch) - 63)
        body = s[4:]
    else:
        n = ord(s[0]) - 63
        body = s[1:]
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(body) < nbytes:
        raise ValueError("truncated graph6 bit stream")
    if len(body) > nbytes:
        raise ValueError("trailing data after graph6 bit stream")
    pad = 6 * nbytes - nbits
    if pad and (ord(body[-1]) - 63) & ((1 << pad) - 1):
        raise ValueError("nonzero padding bits in graph6 stream")

    def build():
        bits = ((ord(ch) - 63) >> shift & 1 for ch in body for shift in (5, 4, 3, 2, 1, 0))
        return from_edge_list(n, list(compress(_triangle_pairs(n), bits)))
    return n, build


def parse_edge_list(text: str) -> Graph:
    """Parse the plain edge-list text format."""
    return _edge_list(text)[1]()


def _edge_list(text: str):
    """(n, build) of edge-list text: the declared order, and a function that
    builds the graph."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"expected 'n m' header, got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ValueError(f"non-integer edge-list header {lines[0]!r}") from None
    if len(lines) - 1 != m:
        raise ValueError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"expected 'u v' edge line, got {ln!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ValueError(f"non-integer edge line {ln!r}") from None
    return n, lambda: from_edge_list(n, edges)


def format_edge_list(g: Graph) -> str:
    """Render a graph in the edge-list text format, edges sorted."""
    lines = [f"{g.n} {g.num_edges()}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"
