"""The value records: immutable, compared and hashed by value, and printed
as before.  Only ``FanoRecord`` and ``RayRecord`` are dataclasses; every
other value record is a ``typing.NamedTuple``."""

import copy
import dataclasses
import importlib
import inspect
from fractions import Fraction

import pytest

from fanoray import flop  # not TestCurve itself, which pytest would collect
from fanoray.chambers import ChamberGraph
from fanoray.cli import RecordReport, Section
from fanoray.cone import Membership, Pointedness
from fanoray.exhaustion import (ExhaustionReport, ExtensionResult, Miss,
                                ReciprocalFailure, TargetEntry)
from fanoray.model import (AntiKDerivation, ChamberEdge, ChamberNode,
                           ContractionDescriptor, Finding, FlopRow, RecordId)

MODULES = ("fanoray", "fanoray.rational", "fanoray.cone", "fanoray.model",
           "fanoray.exhaustion", "fanoray.flop", "fanoray.chambers",
           "fanoray.datafiles", "fanoray.cli")

_ID = RecordId(2, 5)
_MISS = Miss(1, "l1", (1, 0), "not covered")
_FAILURE = ReciprocalFailure("l1", "l2")
_REPORT = ExhaustionReport("B2=2/n5", ("l1", "l2"), (_MISS,), (_FAILURE,))
_CURVE = flop.TestCurve("C1", (1, Fraction(-1, 2)), (0, 1), True)
_NODE = ChamberNode("T", "X")
_EDGE = ChamberEdge("T", "F1", "E1")
_ROW = FlopRow("C1", (1, 0), 2)
# a skipped section's detail is a string, and an exhaustion section's is its
# report: every section hashes by value
_SECTION = Section("facet-patch", "skipped", (), "ray cone is not pointed")

# one sample of every value record and its repr as a frozen dataclass
SAMPLES = [
    (Membership(True, (1, Fraction(1, 2)), None),
     "Membership(inside=True, coefficients=(1, Fraction(1, 2)), "
     "separator=None)"),
    (Pointedness(False, None, (1, 1), (0, 1)),
     "Pointedness(pointed=False, functional=None, line_combination=(1, 1), "
     "line=(0, 1))"),
    (Finding("antiK", "rays.l1", "mismatch"),
     "Finding(check='antiK', key='rays.l1', message='mismatch')"),
    (_ID, "RecordId(b2=2, number=5, variant=None)"),
    (RecordId(2, 5, "_mistake"),
     "RecordId(b2=2, number=5, variant='_mistake')"),
    (ContractionDescriptor(_ID, ((1, 0), (0, 1)), ((1, 0),)),
     "ContractionDescriptor(target=RecordId(b2=2, number=5, variant=None), "
     "pullback=((1, 0), (0, 1)), target_edges=((1, 0),))"),
    (ContractionDescriptor(None, ((1,),)),
     "ContractionDescriptor(target=None, pullback=((1,),), "
     "target_edges=None)"),
    (FlopRow("l25", (1, -1), Fraction(3, 2)),
     "FlopRow(label='l25', vec=(1, -1), antiK=Fraction(3, 2))"),
    (_NODE, "ChamberNode(node_id='T', label='X')"),
    (_EDGE, "ChamberEdge(src='T', dst='F1', flop_type='E1')"),
    (ChamberGraph((_NODE,), (_EDGE,)),
     "ChamberGraph(nodes=(ChamberNode(node_id='T', label='X'),), "
     "edges=(ChamberEdge(src='T', dst='F1', flop_type='E1'),))"),
    (AntiKDerivation("ok", (3, -1)),
     "AntiKDerivation(status='ok', combo=(3, -1), kernel_dim=0, "
     "witnesses=())"),
    (AntiKDerivation("inconsistent", witnesses=(0, 2)),
     "AntiKDerivation(status='inconsistent', combo=None, kernel_dim=0, "
     "witnesses=(0, 2))"),
    (TargetEntry(((1, 0), (0, 1)), "record-table"),
     "TargetEntry(edges=((1, 0), (0, 1)), provenance='record-table')"),
    (_MISS,
     "Miss(ray_index=1, ray_label='l1', edge=(1, 0), note='not covered')"),
    (_FAILURE, "ReciprocalFailure(ray_label='l1', other_label='l2')"),
    (_REPORT,
     "ExhaustionReport(record='B2=2/n5', candidate_labels=('l1', 'l2'), "
     "misses=(Miss(ray_index=1, ray_label='l1', edge=(1, 0), "
     "note='not covered'),), reciprocal_failures=(ReciprocalFailure("
     "ray_label='l1', other_label='l2'),))"),
    (ExtensionResult(("l1",), (_REPORT,), ("added p1",)),
     "ExtensionResult(final_candidates=('l1',), reports=(ExhaustionReport("
     "record='B2=2/n5', candidate_labels=('l1', 'l2'), misses=(Miss("
     "ray_index=1, ray_label='l1', edge=(1, 0), note='not covered'),), "
     "reciprocal_failures=(ReciprocalFailure(ray_label='l1', "
     "other_label='l2'),)),), events=('added p1',))"),
    (_CURVE,
     "TestCurve(label='C1', pullback_row=(1, Fraction(-1, 2)), "
     "exc_row=(0, 1), contracted_by_flop=True)"),
    (flop.FlopConfig(_ID, "l1", ("D1",), ("E",), (_CURVE,), ("C1",),
                     (1, Fraction(1, 3))),
     "FlopConfig(record=RecordId(b2=2, number=5, variant=None), ray='l1', "
     "tracked_divisors=('D1',), exceptional_divisors=('E',), "
     "test_curves=(TestCurve(label='C1', pullback_row=(1, Fraction(-1, 2)), "
     "exc_row=(0, 1), contracted_by_flop=True),), result_curves=('C1',), "
     "antiK_combo_tracked=(1, Fraction(1, 3)))"),
    (_ROW, "FlopRow(label='C1', vec=(1, 0), antiK=2)"),
    (flop.FlopResult(((Fraction(1, 2),),), (_ROW,)),
     "FlopResult(coeffs=((Fraction(1, 2),),), rows=(FlopRow("
     "label='C1', vec=(1, 0), antiK=2),))"),
    (ChamberGraph((("T", "X"),), (("T", "F1", "E1"),)),
     "ChamberGraph(nodes=(('T', 'X'),), edges=(('T', 'F1', 'E1'),))"),
    (_SECTION,
     "Section(check='facet-patch', status='skipped', findings=(), "
     "detail='ray cone is not pointed')"),
    (RecordReport(_ID, "b2_2_n5.json", (_SECTION,)),
     "RecordReport(record=RecordId(b2=2, number=5, variant=None), "
     "file='b2_2_n5.json', sections=(Section(check='facet-patch', "
     "status='skipped', findings=(), detail='ray cone is not pointed'),))"),
]
IDS = [f"{type(value).__name__}{i}" for i, (value, _) in enumerate(SAMPLES)]


def _classes():
    for name in MODULES:
        for _, cls in inspect.getmembers(importlib.import_module(name),
                                         inspect.isclass):
            if cls.__module__.startswith("fanoray"):
                yield cls


def test_only_the_fano_and_ray_records_are_dataclasses():
    found = {cls.__name__ for cls in _classes()
             if dataclasses.is_dataclass(cls)}
    assert found == {"FanoRecord", "RayRecord"}


def test_every_value_record_is_sampled():
    sampled = {type(value) for value, _ in SAMPLES}
    records = {cls for cls in _classes()
               if issubclass(cls, tuple) and hasattr(cls, "_fields")}
    assert sampled == records and len(records) == 20


@pytest.mark.parametrize("value, text", SAMPLES, ids=IDS)
def test_repr_is_unchanged(value, text):
    assert repr(value) == text


@pytest.mark.parametrize("value", [v for v, _ in SAMPLES], ids=IDS)
def test_fields_cannot_be_set_or_added(value):
    with pytest.raises(AttributeError):
        setattr(value, type(value)._fields[0], None)
    with pytest.raises(AttributeError):
        value.extra = None


@pytest.mark.parametrize("value", [v for v, _ in SAMPLES], ids=IDS)
def test_equal_values_hash_equal(value):
    twin = copy.deepcopy(value)
    assert twin == value and hash(twin) == hash(value)
    changed = value._replace(**{type(value)._fields[0]: "other"})
    assert changed != value


def test_record_ids_sort_by_b2_then_number_then_variant():
    ids = [RecordId(5, 1), RecordId(2, 30), RecordId(4, 3, "_mistake_b"),
           RecordId(2, 8), RecordId(4, 3, "_mistake_a"), RecordId(3, 31)]
    assert sorted(ids) == [RecordId(2, 8), RecordId(2, 30), RecordId(3, 31),
                           RecordId(4, 3, "_mistake_a"),
                           RecordId(4, 3, "_mistake_b"), RecordId(5, 1)]
    assert RecordId(2, 30) < RecordId(3, 1) and _ID <= RecordId(2, 8)
    # a base id and a variant of it are not ordered, as before
    with pytest.raises(TypeError):
        RecordId(2, 5) < RecordId(2, 5, "_mistake")
