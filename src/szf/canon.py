"""Canonical forms and isomorphism classes of small graphs.

Colour refinement plus individualization (McKay & Piperno, J. Symbolic
Comput. 60, 2014): a node of the search tree is an equitable ordered
partition, and a child splits one vertex of the first non-singleton cell
off in front of it. Relabeling the graph relabels the tree.

The first path takes the first vertex of each cell, down to the leaf zeta.
A later leaf with zeta's code gives an automorphism (zeta's vertex at each
position maps to the leaf's). It maps the first path's child, at the node
where the two paths part, onto the later leaf's, so the rest of that child's
subtree is an image of a searched one and is dropped; at a node of the first
path, a child in the orbit of a searched child is skipped. Skipped leaves are
images of searched ones, with the same codes, so the least code is unchanged.
The automorphisms found below a node of the first path generate the
stabilizer of the vertices above it, so |Aut(G)| is the product over those
nodes of the first child's orbit length.

The classes of order m grow depth first from those of order m - 1 by
canonical augmentation (McKay, J. Algorithms 26, 1998), each class once.
A child of the last order whose new vertex alone has the greatest (degree,
sum of the neighbours' degrees) is not searched: that pair is invariant, so
every automorphism fixes the new vertex, and those are exactly the parent's
automorphisms that map its neighbourhood onto itself. So |Aut| of the child
is |Aut| of the parent over the length of the neighbourhood's orbit.

Graphs are tuples of bit-set adjacency rows: bit u of rows[v] is set iff
u and v are adjacent.
"""


def _refine(rows, cells, splitters):
    """Split each cell of the ordered partition `cells` in place by neighbour
    count into each splitter, in ascending count order, and queue the parts
    as splitters, until the partition is equitable or discrete. `splitters`
    are the vertex lists it may not yet be equitable against."""
    queue = list(splitters)
    for splitter in queue:
        if len(cells) == len(rows):
            break
        mask = sum(1 << v for v in splitter)
        out = []
        for cell in cells:
            if len(cell) > 1:
                counts = [(rows[v] & mask).bit_count() for v in cell]
                if min(counts) != max(counts):
                    parts = [[v for v, c in zip(cell, counts) if c == k]
                             for k in sorted(set(counts))]
                    out += parts
                    queue += parts
                    continue
            out.append(cell)
        cells = out
    return cells


def _child(rows, cells, t, i):
    """The node that splits the i-th vertex of cells[t] off in front of it."""
    cell = cells[t]
    return _refine(rows, cells[:t] + [cell[i:i + 1], cell[:i] + cell[i + 1:]] + cells[t + 1:],
                   [cell[i:i + 1]])


def _search(rows, n):
    """(code, aut, generators, orbit, order) of the order-n graph with bit-set
    `rows`. The generators, each a list mapping v to its image, generate
    Aut(G); orbit[v] is the least vertex of v's orbit; `order` lists the
    vertices by their position in the leaf that gives `code`."""
    arcs = [(v, u) for v in range(n) for u in range(n) if rows[v] >> u & 1]

    def code(order):
        position = [0] * n
        for i, v in enumerate(order):
            position[v] = i
        return sum(1 << n * position[v] + position[u] for v, u in arcs)

    cells, path = _refine(rows, [list(range(n))] if n else [], [range(n)]), []
    while len(cells) < n:
        path.append((cells, next(t for t, c in enumerate(cells) if len(c) > 1)))
        cells = _child(rows, *path[-1], 0)
    zeta = [cell[0] for cell in cells]
    first = code(zeta)
    best = (first, zeta)
    orbit, generators, aut = list(range(n)), [], 1
    for cells, target in reversed(path):
        searched = cells[target][:1]
        for i, v in enumerate(cells[target]):
            if any(orbit[v] == orbit[u] for u in searched):
                continue
            searched.append(v)
            stack = [(cells, target, i)]
            while stack:
                node = _child(rows, *stack.pop())
                if len(node) < n:
                    t = next(t for t, c in enumerate(node) if len(c) > 1)
                    stack += [(node, t, j) for j in reversed(range(len(node[t])))]
                    continue
                order = [cell[0] for cell in node]
                if (leaf := code(order)) != first:
                    best = min(best, (leaf, order))
                    continue
                generators.append([b for _, b in sorted(zip(zeta, order))])
                for a, b in enumerate(generators[-1]):
                    if orbit[a] != orbit[b]:
                        low, high = sorted((orbit[a], orbit[b]))
                        orbit = [low if o == high else o for o in orbit]
                break
        aut *= sum(orbit[v] == orbit[searched[0]] for v in cells[target])
    return best[0], aut, generators, orbit, best[1]


def canonical_form(rows, n: int):
    """(code, aut) of the order-n graph with bit-set adjacency `rows`.

    `code` is the least relabeled adjacency over the leaves: bit n*i+j is
    set iff the vertices a leaf puts at positions i and j are adjacent.
    Isomorphic graphs, and only those, get the same code; `aut` is |Aut(G)|.
    """
    return _search(rows, n)[:2]


def graph_classes(n: int):
    """Yield one (rows, aut) per isomorphism class of graphs of order n.

    A kept child of order m < n is grown at once, one of order n yielded.
    Vertex m - 1 gets the least neighbourhood in each orbit of the parent's
    automorphisms. The child is kept iff m - 1 is in the orbit of its
    deletion vertex, the first of the canonical order with the greatest
    (degree, sum of the neighbours' degrees), so each class is kept once,
    grown from the class that deleting that vertex leaves. Most other
    children lack the greatest pair at m - 1 and are never searched. Nor is
    a child of order n where m - 1 alone has the greatest pair: it is its
    own deletion vertex, fixed by every automorphism, so the child is kept
    with aut = |Aut(parent)| / |orbit of its neighbourhood|.
    """
    def grow(rows, generators, aut):
        m = len(rows) + 1
        tables = [[0] for _ in generators]
        for table, perm in zip(tables, generators):
            for v in range(m - 1):
                table += [image | 1 << perm[v] for image in table]
        seen = set()
        for hood in range(1 << (m - 1)):
            if hood in seen:
                continue
            images = [hood]
            for h in images:
                for table in tables:
                    if table[h] not in images:
                        images.append(table[h])
            seen.update(images)
            new = (*(row | (hood >> v & 1) << (m - 1) for v, row in enumerate(rows)), hood)
            degree = [row.bit_count() for row in new]
            if degree[-1] < max(degree):
                continue
            pair = [(d, sum(degree[u] for u in range(m) if row >> u & 1))
                    for d, row in zip(degree, new)]
            if pair[-1] < max(pair):
                continue
            if m == n and pair.count(pair[-1]) == 1:
                yield new, aut // len(images)
                continue
            _, child_aut, found, orbit, order = _search(new, m)
            if orbit[m - 1] == orbit[next(v for v in order if pair[v] == pair[-1])]:
                yield from grow(new, found, child_aut) if m < n else [(new, child_aut)]

    return grow((), [], 1) if n else iter([((), 1)])
