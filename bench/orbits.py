"""Vertex orbits of Aut(G), by colour refinement plus individualization.

The benchmark uses this to check what its corpora claim about symmetry:
solve-asymmetric is the control on which orbit pruning has nothing to prune,
so every graph in it must have a trivial automorphism group, while the
solve-symmetric graphs have few orbits.
"""


def _refine(adj, colours):
    """Coarsest equitable refinement of `colours`.

    Colour names are derived from sorted signatures only, so two vertices in
    different copies of a graph get the same name exactly when refinement
    cannot tell them apart.
    """
    while True:
        sig = [(colours[v], tuple(sorted(colours[u] for u in adj[v])))
               for v in range(len(adj))]
        names = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [names[s] for s in sig]
        if len(names) == len(set(colours)):
            return new
        colours = new


def _maps_onto(adj, n, colours) -> bool:
    """True when an isomorphism takes copy A (vertices 0..n-1 of adj) onto
    copy B (n..2n-1) respecting `colours`."""
    colours = _refine(adj, colours)
    a, b = colours[:n], colours[n:]
    if sorted(a) != sorted(b):
        return False
    # A discrete equitable colouring with matching colours is an isomorphism.
    cell = next((c for c in a if a.count(c) > 1), None)
    if cell is None:
        return True
    x = a.index(cell)
    fresh = max(colours) + 1
    for y in range(n, 2 * n):
        if colours[y] == cell:
            trial = list(colours)
            trial[x] = trial[y] = fresh
            if _maps_onto(adj, n, trial):
                return True
    return False


def vertex_orbits(g) -> list[list[int]]:
    """The orbits of Aut(g) on its vertices, each sorted, ordered by minimum."""
    n = g.n
    adj = [sorted(g.neighbors(v)) for v in range(n)]
    pair = adj + [[u + n for u in nbrs] for nbrs in adj]
    cells = _refine(adj, [0] * n)
    orbit_of = list(range(n))
    for v in range(n):
        for u in range(v):
            if orbit_of[u] == u and cells[u] == cells[v]:
                start = [0] * (2 * n)
                start[u] = start[n + v] = 1
                if _maps_onto(pair, n, start):
                    orbit_of[v] = u
                    break
    orbits: dict[int, list[int]] = {}
    for v in range(n):
        orbits.setdefault(orbit_of[v], []).append(v)
    return list(orbits.values())
