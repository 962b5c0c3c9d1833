"""The public record types are named tuples: immutable, picklable, built by
position or keyword, and printed as `Name(field=value, ...)`; loading the
package pulls in none of the heavy standard-library modules."""

import functools
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from szf.cli import VerificationRow
from szf.families import GadgetFamilySpec
from szf.forcing import Coloring, ForceEvent, PropagationTrace, propagate
from szf.graph import Graph, from_edge_list
from szf.structure import CotreeLeaf, CotreeNode, ExtremeClassification, classify_extremes
from szf.throttling import ThrottleResult, throttle

P3 = from_edge_list(3, [(0, 1), (1, 2)])

RECORDS = [
    (P3, "Graph(n=3, edges=[(0, 1), (1, 2)])"),
    (throttle(P3), "ThrottleResult(th=2, witness=frozenset({0}), k=1, pt=1, per_k={1: 2}, "
                   "z_minus=1, pt_minimum=1)"),
    (Coloring.of([2, 0]), "Coloring(blue=frozenset({0, 2}))"),
    (ForceEvent(0, 1, 1), "ForceEvent(forcer=0, forced=1, round=1)"),
    (propagate(P3, [0]),
     "PropagationTrace(initial=Coloring(blue=frozenset({0})), rounds=(("
     "ForceEvent(forcer=0, forced=1, round=1), ForceEvent(forcer=1, forced=2, round=1), "
     "ForceEvent(forcer=2, forced=1, round=1)),), outcome='completed', "
     "final_blue=frozenset({0, 1, 2}))"),
    (CotreeLeaf(0), "CotreeLeaf(vertex=0)"),
    (CotreeNode("join", CotreeLeaf(0), CotreeLeaf(1)),
     "CotreeNode(op='join', left=CotreeLeaf(vertex=0), right=CotreeLeaf(vertex=1))"),
    (classify_extremes(P3), "ExtremeClassification(label='th_equals_2', value=2, "
                            "evidence={'form': 'h_graph', 's': 1, 't': 0, 'r': 0})"),
    (GadgetFamilySpec("path", 2, (("single",), ())),
     "GadgetFamilySpec(base='path', base_length=2, attachments=(('single',), ()))"),
    (VerificationRow("cycle:8", 8, 4, 4, True, 3),
     "VerificationRow(spec='cycle:8', n=8, computed=4, predicted=4, match=True, runtime_ms=3)"),
]
UNHASHABLE = (ThrottleResult, ExtremeClassification)  # they carry a dict field


def test_every_record_type_is_covered():
    assert len({type(record) for record, _ in RECORDS}) == 10


@pytest.mark.parametrize("record,text", RECORDS,
                         ids=[type(record).__name__ for record, _ in RECORDS])
def test_record_contract(record, text):
    cls = type(record)
    assert repr(record) == text
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    again = cls(**record._asdict())
    assert again == record and repr(again) == text
    assert record == tuple(record)
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(again) == hash(record)
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is cls and copy == record and repr(copy) == text


def test_coloring_defaults_to_no_blue_vertex():
    assert Coloring() == Coloring(blue=frozenset()) and Coloring().blue == frozenset()


def test_graph_caches_bit_adjacency_in_its_instance_dict():
    assert isinstance(Graph.__dict__["bit_adjacency"], functools.cached_property)
    g = from_edge_list(3, [(0, 1), (1, 2)])
    assert g.bit_adjacency == (2, 5, 2) and g.__dict__ == {"bit_adjacency": (2, 5, 2)}
    assert pickle.loads(pickle.dumps(g)).__dict__ == {"bit_adjacency": (2, 5, 2)}


@pytest.mark.parametrize("n,adj,message", [
    (-1, (), "vertex count must be nonnegative"),
    (1, (), "adjacency table length does not match vertex count"),
    (1, (frozenset({0}),), "loop at vertex 0"),
    (2, (frozenset({5}), frozenset()), "neighbor 5 of vertex 0 out of range"),
    (2, (frozenset({1}), frozenset()), "asymmetric adjacency between 0 and 1"),
])
def test_graph_rejects_bad_tables(n, adj, message):
    with pytest.raises(ValueError) as err:
        Graph(n=n, adj=adj)
    assert str(err.value) == message
    with pytest.raises(ValueError) as err:
        Graph(0, ())._replace(n=n, adj=adj)
    assert str(err.value) == message


@pytest.mark.parametrize("fields,message", [
    (("tree", 1, ((),)), "base must be 'path' or 'cycle'"),
    (("cycle", 2, ((), ())), "cycle base needs length at least three"),
    (("path", 0, ()), "path base needs length at least one"),
    (("path", 2, ((),)), "need one attachment tuple per base vertex"),
    (("path", 1, (("triple",),)), "unknown gadget kind 'triple'"),
])
def test_gadget_spec_rejects_bad_recipes(fields, message):
    with pytest.raises(ValueError) as err:
        GadgetFamilySpec(*fields)
    assert str(err.value) == message
    with pytest.raises(ValueError) as err:
        GadgetFamilySpec("path", 1, ((),))._make(fields)
    assert str(err.value) == message


HEAVY = {"dataclasses", "inspect", "fractions", "decimal", "concurrent.futures",
         "multiprocessing", "logging"}


@pytest.mark.parametrize("module", ["szf", "szf.cli"])
def test_import_loads_no_heavy_stdlib_module(module):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    script = (f"import sys\nbefore = set(sys.modules)\nimport {module}\n"
              "print('\\n'.join(sorted(set(sys.modules) - before)))")
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    added = set(out.split())
    assert module in added
    assert not added & HEAVY
