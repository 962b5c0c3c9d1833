"""Canonical forms and isomorphism classes of small graphs.

The canonical form is colour refinement plus individualization (McKay &
Piperno, "Practical graph isomorphism, II", J. Symbolic Comput. 60, 2014),
without automorphism pruning. Every node of the search tree is an ordered
partition of the vertices made equitable: every vertex of a cell has the
same number of neighbours in each cell. A node whose partition is not
discrete has one child per vertex of its first non-singleton cell, with
that vertex split off in front of the cell. Each step depends on cell
positions and neighbour counts only, so relabeling the graph relabels the
tree, and Aut(G) permutes its leaves freely.

Graphs are tuples of bit-set adjacency rows: bit u of rows[v] is set iff
u and v are adjacent.
"""


def _refine(rows, cells, splitters):
    """Refine the ordered partition `cells` until it is equitable.

    Every cell is split by neighbour count into each splitter, its parts
    kept in its place in ascending count order, and every new part becomes
    a splitter. `splitters` are the bit sets the partition may not yet be
    equitable against: all vertices for the unit partition, or the one
    vertex just individualized out of an equitable partition.
    """
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


def canonical_form(rows, n: int):
    """(code, aut) of the order-n graph with bit-set adjacency `rows`.

    `code` is the least relabeled adjacency over the leaves of the search
    tree: the leaf that puts vertex v at position i gives, for i = 0..n-1,
    the relabeled row of v at bits n*i..n*i+n-1. Isomorphic graphs, and
    only those, get the same code. `aut` is the number of leaves reaching
    `code`, which is |Aut(G)| since Aut(G) acts freely on the leaves and
    two leaves give the same code only through an automorphism.
    """
    best = aut = None
    stack = [_refine(rows, [list(range(n))], [(1 << n) - 1])] if n else [[]]
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
            stack.append(_refine(rows, child, [1 << v]))
    return best, aut


def graph_classes(n: int):
    """One (rows, aut) per isomorphism class of graphs of order n.

    The classes of order m come from those of order m - 1: the new vertex
    m - 1 gets each of the 2^(m-1) neighbourhoods, and the results are
    deduplicated by canonical code. Each representative is the first graph
    reached in its class, with the labels it grew with.
    """
    classes = {0: ((), 1)}
    for m in range(1, n + 1):
        grown = {}
        for rows, _ in classes.values():
            for hood in range(1 << (m - 1)):
                new = tuple(row | (hood >> v & 1) << (m - 1) for v, row in enumerate(rows))
                new += (hood,)
                code, aut = canonical_form(new, m)
                if code not in grown:
                    grown[code] = (new, aut)
        classes = grown
    return list(classes.values())
