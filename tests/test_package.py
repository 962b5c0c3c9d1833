"""The package's public names, and the submodules that `import szf` loads."""

import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import szf

# Every name `szf` exports, by defining submodule, in `__all__` order. The
# submodules load on first use, so this list is kept by hand, not derived.
PUBLIC = {
    "graph": [
        "Graph", "from_edge_list", "disjoint_union", "join", "complement", "corona",
        "induced_subgraph", "components", "distance", "diameter", "leaves", "min_degree",
        "ball",
    ],
    "formats": ["from_graph6", "to_graph6", "parse_edge_list", "format_edge_list"],
    "forcing": [
        "OUTCOME_COMPLETED", "OUTCOME_STALLED", "Coloring", "ForceEvent", "PropagationTrace",
        "eligible_forces", "step", "propagate", "is_skew_forcing_set", "verify_ball_cover",
    ],
    "throttling": [
        "ThrottleResult", "skew_zero_forcing_number", "min_propagation_time",
        "throttling_at_k", "throttle", "throttle_with_bound",
    ],
    "families": [
        "path", "cycle", "complete", "empty", "star", "matching", "complete_multipartite",
        "hypercube", "spider", "h_graph", "friendship", "corona_k1", "corona_k2",
        "GadgetFamilySpec", "gadget_family", "random_gadget_spec", "paired_blue_witness",
        "th_path_formula", "th_cycle_formula", "th_spider_formula", "spider_f_bound",
        "th_hypercube_formula", "diameter_lower_bound", "diameter_bound_holds",
        "SplitMix64", "family_graph",
    ],
    "structure": [
        "CotreeLeaf", "CotreeNode", "build_cotree", "cotree_graph",
        "find_induced_p4", "find_induced_2k2", "recognize_h_graph", "recognize_corona_k1",
        "ExtremeClassification", "classify_extremes",
    ],
}
NAMES = [name for names in PUBLIC.values() for name in names]


def test_all_lists_exactly_the_public_names():
    assert szf.__all__ == NAMES


@pytest.mark.parametrize("module", PUBLIC)
def test_each_name_is_the_defining_modules_object(module):
    defining = import_module(f"szf.{module}")
    assert defining.__all__ == PUBLIC[module]
    for name in PUBLIC[module]:
        assert getattr(szf, name) is getattr(defining, name), name


def test_star_import_and_dir_list_every_name():
    namespace = {}
    exec("from szf import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(NAMES)
    assert set(dir(szf)) >= {*NAMES, *PUBLIC, "__version__"}


def test_unknown_and_private_names_raise_attribute_error():
    for name in ("no_such_name", "_least", "LANE_CAP"):
        with pytest.raises(AttributeError, match=name):
            getattr(szf, name)


def _fresh(script):
    """stdout of `script` run by a new interpreter that imports szf from src/."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", script], env=env, check=True,
                          stdout=subprocess.PIPE, text=True).stdout.split("\n")


LOADED = "print(' '.join(sorted(m for m in sys.modules if m.startswith('szf'))))"


def test_parsing_loads_only_graph_and_formats_and_a_solve_adds_throttling():
    after_import, after_parse, after_solve, cached = _fresh("\n".join([
        "import sys", "import szf", LOADED,
        "szf.from_graph6('Ch')", LOADED,
        "szf.throttle", LOADED,
        "print('throttling_at_k' in vars(szf))",
    ]))[:4]
    assert after_import.split() == ["szf"]
    parsed = set(after_parse.split())
    assert parsed == {"szf", "szf.formats", "szf.graph"}
    assert set(after_solve.split()) - parsed == {"szf.throttling"}
    assert cached == "True"  # the module's other names are bound with the first


def test_submodules_import_by_name_in_a_fresh_interpreter():
    out = _fresh("\n".join([
        "import sys",
        "from szf import throttling",
        "print(throttling is sys.modules['szf.throttling'])",
        "import szf",
        "print(szf.forcing is sys.modules['szf.forcing'])",
    ]))
    assert out[:2] == ["True", "True"]
