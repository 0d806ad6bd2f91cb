import dataclasses
import json
import re
from ast import literal_eval
from itertools import combinations

import pytest

from fanoray import datafiles
from fanoray.chambers import (ChamberError, chamber_graph, checked_ray_cone,
                              emit_dot, facet_patch_check, nef_cone)
from fanoray.cone import ConeError
from fanoray.exhaustion import (ExhaustionError, build_targets,
                                check_exhaustion)
from fanoray.model import (ChamberGraph, ChamberNode, RecordError,
                           parse_record, record_from_json, serialize_record)
from fanoray.rational import dot, rat

from oracles import facet_patch_reference

FIXTURES = sorted(path for sub in ("records", "mistakes", "extra")
                  for path in (datafiles.data_root() / sub).glob("*.json"))


def test_nef_facet_counts(records):
    assert len(nef_cone(records["b2_4_n13"]).facets()) == 5
    assert len(nef_cone(records["b2_4_n3"]).facets()) == 4
    for name in ("b2_2_n1", "b2_2_n8", "b2_2_n28", "b2_2_n30"):
        assert len(nef_cone(records[name]).facets()) == 2


def test_nef_shapes_pyramid_vs_tetrahedron(records):
    # 5 vertices and 5 facets against 4 and 4
    pyramid = nef_cone(records["b2_4_n13"])
    tetra = nef_cone(records["b2_4_n3"])
    assert (len(pyramid.extreme_rays()), len(pyramid.facets())) == (5, 5)
    assert (len(tetra.extreme_rays()), len(tetra.facets())) == (4, 4)


def test_nef_facet_count_equals_extreme_ray_count(records):
    for name, rec in records.items():
        cone = rec.ray_cone()
        assert len(nef_cone(rec).facets()) == len(cone.extreme_rays()), name


def test_dual_dual_of_every_fixture_ray_cone(records):
    for rec in records.values():
        cone = rec.ray_cone()
        ddual = cone.dual().dual()
        for g in cone.generators:
            assert ddual.contains(g)
        for g in ddual.generators:
            assert cone.contains(g)


def _facet_patch(record, targets, labels=None):
    """facet_patch_check after its preconditions, in their order: the
    checked ray cone, then exhaustion's report on the same candidates and
    targets."""
    labels = record.ray_labels() if labels is None else labels
    checked_ray_cone(record, labels)
    report = check_exhaustion(record, labels, targets)
    return facet_patch_check(record, targets, report)


def test_facet_patch_clean_on_full_data(records):
    for name in ("b2_5_n1", "b2_2_n1", "b2_2_n8", "b2_2_n28", "b2_2_n30"):
        rec = records[name]
        targets = build_targets(rec, prefer_record_tables=False)
        assert _facet_patch(rec, targets) == [], name


def test_facet_patch_detects_the_dropped_ray(records):
    rec = records["b2_5_n1"]
    targets = build_targets(rec, prefer_record_tables=False)
    findings = _facet_patch(rec, targets, rec.ray_labels()[:7])
    assert findings
    assert any(f.key == "rays.l4" and f.message.endswith(
        "no candidate maps onto the edge (1, 1, -1, 1)") for f in findings)


def test_patch_and_exhaustion_verdicts_agree(records):
    rec = records["b2_5_n1"]
    targets = build_targets(rec, prefer_record_tables=False)
    for labels in (rec.ray_labels(), rec.ray_labels()[:7]):
        report = check_exhaustion(rec, labels, targets)
        assert report.passed == (facet_patch_check(rec, targets, report)
                                 == [])
    for name in ("b2_2_n1", "b2_2_n8", "b2_2_n28", "b2_2_n30"):
        rec = records[name]
        targets = build_targets(rec, prefer_record_tables=False)
        report = check_exhaustion(rec, rec.ray_labels(), targets)
        assert report.passed == (facet_patch_check(rec, targets, report)
                                 == [])


def _outcome(check, *args):
    try:
        return check(*args)
    except (ChamberError, ConeError, ExhaustionError) as exc:
        return type(exc), str(exc)


def _one_ray_deletions():
    """(name, record) for each corrected record with one ray deleted, its
    flop table too: the records ray-audit verifies."""
    for path in sorted((datafiles.data_root() / "records").glob("*.json")):
        raw = json.loads(path.read_text())
        for ray in raw["rays"]:
            label = ray["label"]
            truncated = {**raw, "rays": [r for r in raw["rays"]
                                         if r["label"] != label],
                         "flop_tables": {k: v for k, v
                                         in raw["flop_tables"].items()
                                         if k != label}}
            record, _ = parse_record(json.dumps(truncated), strict=False)
            yield f"{path.stem} - {label}", record


def _agrees_with_the_reference(record, targets, kept, where) -> bool:
    """Compare one case with the reference; True when it has findings.

    Both raise the same exception, or fail the same rays with the same
    reverse-containment witnesses.  Each wall witness w of the reference
    pairs < 0 with an edge that the check names as nobody's image: w lies
    in the dual of the images, so such an edge cannot be one of them.
    """
    found = _outcome(_facet_patch, record, targets, kept)
    expected = _outcome(facet_patch_reference, record, targets, kept)
    if isinstance(found, tuple) or isinstance(expected, tuple):
        assert found == expected, where
        return False
    assert {f.key for f in found} == {f.key for f in expected}, where
    assert ([f for f in found if "exceeds the facet" in f.message]
            == [f for f in expected if "exceeds the facet" in f.message]), \
        where
    for f in expected:
        if "strictly larger" in f.message:
            w = [rat(x) for x in re.search(
                r"witness \((.*)\)$", f.message).group(1).split(", ")]
            named = [literal_eval(re.search(r"the edge (\(.*\))$",
                                            g.message).group(1))
                     for g in found
                     if g.key == f.key and "maps onto" in g.message]
            assert any(dot(w, e) < 0 for e in named), (where, f)
    return bool(found)


def test_facet_patch_matches_the_reference_on_weakened_candidate_sets():
    # every fixture, every candidate set with at most two rays dropped,
    # both target modes, and every one-ray deletion of a corrected record
    assert len(FIXTURES) == 13
    cases = with_findings = 0
    for path in FIXTURES:
        record, _ = parse_record(path.read_text(), strict=False)
        labels = record.ray_labels()
        for prefer_tables in (True, False):
            targets = _outcome(build_targets, record, prefer_tables)
            if isinstance(targets, tuple):
                cases += 1  # no targets, so neither check can run
                continue
            for k in range(3):
                for dropped in combinations(labels, k):
                    kept = [lab for lab in labels if lab not in dropped]
                    with_findings += _agrees_with_the_reference(
                        record, targets, kept, (path.name, dropped))
                    cases += 1
    assert (cases, with_findings) == (338, 156)
    deletions = with_findings = 0
    for name, record in _one_ray_deletions():
        targets = _outcome(build_targets, record, True)
        if not isinstance(targets, tuple):
            with_findings += _agrees_with_the_reference(
                record, targets, record.ray_labels(), name)
        deletions += 1
    assert (deletions, with_findings) == (32, 4)


def test_facet_patch_matches_the_reference_on_weakened_targets():
    # a target set missing one edge has a dual larger than the facet: the
    # reverse containment, which no weakened candidate set reaches; a set
    # left empty is refused by exhaustion before facet-patch can run
    cases = emptied = 0
    for path in FIXTURES:
        record, _ = parse_record(path.read_text(), strict=False)
        targets = _outcome(build_targets, record, True)
        if isinstance(targets, tuple):
            continue
        for lab, entry in targets.items():
            for k in range(len(entry.edges)):
                weak = {**targets, lab: entry._replace(
                    edges=entry.edges[:k] + entry.edges[k + 1:])}
                found = _outcome(_facet_patch, record, weak)
                cases += 1
                if not weak[lab].edges:
                    assert found == (ExhaustionError, (
                        f"{record.record_id.render()}: the target edge set "
                        f"of candidate {lab} is empty, so there is nothing "
                        f"to check")), (path.name, lab)
                    emptied += 1
                    continue
                assert found == _outcome(facet_patch_reference, record,
                                         weak), (path.name, lab, k)
                assert any("exceeds the facet" in f.message for f in found)
    assert (cases, emptied) == (160, 8)


def test_pyramid_codim2_faces_lie_in_exactly_two_facets(records):
    amp = nef_cone(records["b2_4_n13"])
    faces = amp.codim2_faces()
    # a pyramid over a quadrilateral: 8 edges, each on exactly 2 facets
    assert len(faces) == 8
    normals = amp.facets()
    for (_i, _j), face_rays in faces:
        containing = [k for k in range(len(normals))
                      if all(sum(a * b for a, b in zip(normals[k], g)) == 0
                             for g in face_rays)]
        assert len(containing) == 2


def test_rho2_patching_trivial(records):
    rec = records["b2_2_n30"]
    targets = build_targets(rec, prefer_record_tables=False)
    assert _facet_patch(rec, targets) == []


EXPECTED_DOT = """graph {
  "T" [label="T"];
  "cont_l1(T)" [label="cont_l1(T)"];
  "cont_l2(T)" [label="cont_l2(T)"];
  "T" -- "cont_l1(T)" [label="E1"];
  "T" -- "cont_l2(T)" [label="E1"];
  "cont_l1(T)" -- "cont_l2(T)" [label="F"];
}
"""


def test_chamber_graph_b2_3_n31(records):
    graph = chamber_graph(records["b2_3_n31"])
    assert len(graph.nodes) == 3
    assert sorted(t for _, _, t in graph.edges) == ["E1", "E1", "F"]
    assert emit_dot(graph) == EXPECTED_DOT


def test_dot_is_byte_identical_across_runs(records):
    rec = records["b2_3_n31"]
    first = emit_dot(chamber_graph(rec)).encode()
    second = emit_dot(chamber_graph(rec)).encode()
    assert first == second


def test_b2_5_n1_has_an_F_edge_between_the_two_flopped_models(records):
    graph = chamber_graph(records["b2_5_n1"])
    f_edges = [(a, b) for a, b, t in graph.edges if t == "F"]
    assert f_edges == [("flop_l7(T)", "flop_l8(T)")]


def test_single_chamber_graph_is_valid(records):
    spec = ChamberGraph((ChamberNode("T", "T"),), ())
    graph = chamber_graph(
        dataclasses.replace(records["b2_2_n1"], chambers=spec))
    assert graph.edges == ()
    assert emit_dot(graph) == 'graph {\n  "T" [label="T"];\n}\n'


def test_dot_escapes_quotes_and_backslashes(records):
    # chamber ids and labels are free strings: a quote or a backslash in
    # one must not end its DOT string early
    data = serialize_record(records["b2_2_n1"])
    data["chambers"] = {
        "nodes": [{"id": "T", "label": 'X" [color=red'},
                  {"id": "a\\", "label": "a\\"}],
        "edges": [{"from": "T", "to": "a\\", "type": "F"}]}
    graph = chamber_graph(record_from_json(data))
    assert emit_dot(graph) == (
        'graph {\n'
        '  "T" [label="X\\" [color=red"];\n'
        '  "a\\\\" [label="a\\\\"];\n'
        '  "T" -- "a\\\\" [label="F"];\n'
        '}\n')


def _load_with_chambers(records, node_ids, edges):
    """The loader's error on b2_2_n1 carrying the given chamber graph."""
    data = serialize_record(records["b2_2_n1"])
    data["chambers"] = {
        "nodes": [{"id": n, "label": n} for n in node_ids],
        "edges": [{"from": a, "to": b, "type": t} for a, b, t in edges]}
    with pytest.raises(RecordError) as err:
        record_from_json(data)
    return str(err.value)


def test_illegal_flop_type_rejected(records):
    assert _load_with_chambers(records, ["A", "B"], [("A", "B", "E9")]) \
        == "record.chambers.edges[0]: illegal flop type 'E9'"
