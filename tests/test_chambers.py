from itertools import combinations

import pytest

from fanoray import datafiles
from fanoray.chambers import (ChamberError, chamber_graph, emit_dot,
                              facet_patch_check, nef_cone)
from fanoray.cone import ConeError
from fanoray.exhaustion import (ExhaustionError, build_targets,
                                check_exhaustion, pushforward_map)
from fanoray.model import ChamberEdge, ChamberNode, ChamberSpec, parse_record
from fanoray.rational import _left_inverse, apply, dot, rat_str, solve_linear

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


def test_facet_patch_clean_on_full_data(records):
    for name in ("b2_5_n1", "b2_2_n1", "b2_2_n8", "b2_2_n28", "b2_2_n30"):
        rec = records[name]
        targets = build_targets(rec, prefer_record_tables=False)
        assert facet_patch_check(rec, targets) == [], name


def test_facet_patch_detects_the_dropped_ray(records):
    rec = records["b2_5_n1"]
    targets = build_targets(rec, prefer_record_tables=False)
    findings = facet_patch_check(rec, targets, rec.ray_labels()[:7])
    assert findings
    assert any(f.key == "rays.l4" and "strictly larger" in f.message
               for f in findings)


def test_patch_and_exhaustion_verdicts_agree(records):
    rec = records["b2_5_n1"]
    targets = build_targets(rec, prefer_record_tables=False)
    for labels in (rec.ray_labels(), rec.ray_labels()[:7]):
        exh = check_exhaustion(rec, labels, targets).passed
        patch = facet_patch_check(rec, targets, labels) == []
        assert exh == patch
    for name in ("b2_2_n1", "b2_2_n8", "b2_2_n28", "b2_2_n30"):
        rec = records[name]
        targets = build_targets(rec, prefer_record_tables=False)
        exh = check_exhaustion(rec, rec.ray_labels(), targets).passed
        patch = facet_patch_check(rec, targets) == []
        assert exh == patch


def _outcome(check, *args):
    try:
        return check(*args)
    except (ChamberError, ConeError, ExhaustionError) as exc:
        return type(exc), str(exc)


def test_facet_patch_matches_the_reference_on_weakened_candidate_sets():
    # every fixture, every candidate set with at most two rays dropped,
    # both target modes: the pairings on a checked chart give exactly the
    # findings of the membership-based reference
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
                    found = _outcome(facet_patch_check, record, targets, kept)
                    assert found == _outcome(facet_patch_reference, record,
                                             targets, kept), (path.name,
                                                              dropped)
                    cases += 1
                    with_findings += isinstance(found, list) and bool(found)
    assert (cases, with_findings) == (338, 156)


def test_facet_patch_matches_the_reference_on_weakened_targets():
    # a target set missing one edge has a dual larger than the facet: the
    # reverse containment, which no weakened candidate set reaches
    cases = 0
    for path in FIXTURES:
        record, _ = parse_record(path.read_text(), strict=False)
        targets = _outcome(build_targets, record, True)
        if isinstance(targets, tuple):
            continue
        for lab, entry in targets.items():
            for k in range(len(entry.edges)):
                weak = {**targets, lab: entry._replace(
                    edges=entry.edges[:k] + entry.edges[k + 1:])}
                found = _outcome(facet_patch_check, record, weak)
                assert found == _outcome(facet_patch_reference, record,
                                         weak), (path.name, lab, k)
                assert any("exceeds the facet" in f.message for f in found)
                cases += 1
    assert cases == 160


def test_one_left_inverse_per_chart_gives_every_wall_preimage():
    # what facet_patch_check reads off one left inverse of the pullback is,
    # for every nef generator on a checked chart's wall, the solution that
    # solve_linear finds, down to its witness string
    cases = 0
    for path in FIXTURES:
        record, _ = parse_record(path.read_text(), strict=False)
        try:
            amp = nef_cone(record)
        except ChamberError:
            continue
        for ray in record.rays:
            try:
                pushforward_map(record, ray.label)
            except ExhaustionError:
                continue
            pullback = ray.contraction.pullback
            inverse = _left_inverse(pullback)
            for w in amp.generators:
                if dot(w, ray.vec) == 0:
                    got = apply(inverse, w)
                    expected = solve_linear(pullback, w)[0]
                    assert (list(map(rat_str, got))
                            == list(map(rat_str, expected))), (path.name, w)
                    cases += 1
    assert cases == 161


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
    assert facet_patch_check(rec, targets) == []


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
    spec = ChamberSpec((ChamberNode("T", "T"),), ())
    graph = chamber_graph(records["b2_2_n1"], adjacency=spec)
    assert graph.edges == ()
    assert emit_dot(graph) == 'graph {\n  "T" [label="T"];\n}\n'


def test_illegal_flop_type_rejected(records):
    spec = ChamberSpec((ChamberNode("A", "A"), ChamberNode("B", "B")),
                       (ChamberEdge("A", "B", "E9"),))
    with pytest.raises(ChamberError):
        chamber_graph(records["b2_2_n1"], adjacency=spec)


def test_self_loop_rejected(records):
    spec = ChamberSpec((ChamberNode("A", "A"),),
                       (ChamberEdge("A", "A", "F"),))
    with pytest.raises(ChamberError):
        chamber_graph(records["b2_2_n1"], adjacency=spec)


def test_record_without_chambers_raises(records):
    with pytest.raises(ChamberError):
        chamber_graph(records["b2_4_n3"])
