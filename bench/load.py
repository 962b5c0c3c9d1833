"""Load a workload's inputs as Graph objects.

This is the set-up a user of the program pays on every call: importing the
package and turning input text into graphs. The benchmark imports `load`
for its in-process runs and runs this file as a fresh interpreter to time
set-up end to end:

    PYTHONPATH=src python3 bench/load.py FORMAT BITS INPUT_FILE

FORMAT is `family` (lines "SPEC PERM..."), `graph6` (one graph per line)
or `cli` (nothing to load beyond `szf.cli`); BITS is 1 when the solver's
bit adjacency should be built as part of loading.
"""

import sys


def relabel(g, perm):
    """g with vertex v renamed perm[v]."""
    import szf
    return szf.from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def load(fmt: str, lines: list[str], bits: bool) -> list:
    if fmt == "cli":
        import szf.cli  # noqa: F401
        return []
    import szf
    if fmt == "graph6":
        graphs = [szf.from_graph6(line) for line in lines]
    elif fmt == "family":
        graphs = []
        for line in lines:
            spec, *perm = line.split()
            graphs.append(relabel(szf.family_graph(spec), [int(v) for v in perm]))
    else:
        raise ValueError(f"unknown input format {fmt!r}")
    if bits:
        for g in graphs:
            g.bit_adjacency
    return graphs


if __name__ == "__main__":
    fmt, bits, path = sys.argv[1:4]
    with open(path, encoding="ascii") as fh:
        load(fmt, fh.read().splitlines(), bits == "1")
