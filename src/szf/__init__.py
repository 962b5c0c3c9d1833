"""szf: skew zero forcing simulation, exact throttling, and classification.

The package computes the skew zero forcing number, propagation times, and
throttling numbers of finite simple graphs exactly, generates the graph
families those quantities are known for in closed form, and recognizes the
structural classes whose throttling value is pinned at 1, 2, n-1, or n.

Submodules load on first use (PEP 562): `import szf` imports none of them,
and the first lookup of a public name imports the module that defines it and
binds that module's public names here, so later lookups are plain reads.
"""

import sys as _sys

# submodule -> the public names it exports through the package
_EXPORTS = {
    "graph": (
        "Graph", "from_edge_list", "disjoint_union", "join", "complement", "corona",
        "induced_subgraph", "components", "distance", "diameter", "leaves", "min_degree",
        "ball",
    ),
    "formats": ("from_graph6", "to_graph6", "parse_edge_list", "format_edge_list"),
    "forcing": (
        "OUTCOME_COMPLETED", "OUTCOME_STALLED",
        "Coloring", "ForceEvent", "PropagationTrace",
        "eligible_forces", "step", "propagate", "is_skew_forcing_set", "verify_ball_cover",
    ),
    "throttling": (
        "ThrottleResult", "skew_zero_forcing_number", "min_propagation_time",
        "throttling_at_k", "throttle", "throttle_with_bound",
    ),
    "families": (
        "path", "cycle", "complete", "empty", "star", "matching", "complete_multipartite",
        "hypercube", "spider", "h_graph", "friendship", "corona_k1", "corona_k2",
        "GadgetFamilySpec", "gadget_family", "random_gadget_spec", "paired_blue_witness",
        "th_path_formula", "th_cycle_formula", "th_spider_formula", "spider_f_bound",
        "th_hypercube_formula", "diameter_lower_bound", "diameter_bound_holds",
        "SplitMix64", "family_graph",
    ),
    "structure": (
        "CotreeLeaf", "CotreeNode", "build_cotree", "cotree_graph",
        "find_induced_p4", "find_induced_2k2", "recognize_h_graph", "recognize_corona_k1",
        "ExtremeClassification", "classify_extremes",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)

__version__ = "0.1.0"


def _submodule(module):
    # The import statement's path, so `python -X importtime` lists the load.
    __import__(f"{__name__}.{module}")
    return _sys.modules[f"{__name__}.{module}"]


def __getattr__(name):
    module = _OWNER.get(name)
    if module is None:
        if name in _EXPORTS:  # a submodule named as an attribute, as `szf.forcing`
            return _submodule(name)
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    defined = vars(_submodule(module))
    bound = globals()
    for export in _EXPORTS[module]:
        bound.setdefault(export, defined[export])
    return bound[name]


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
