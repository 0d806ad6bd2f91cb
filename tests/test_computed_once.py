"""Each fact is computed once, and only where a caller reads it.

The counters wrap a fanoray function in every fanoray module that holds
it by name, so a call cannot escape through an import alias.
"""

import contextlib
import importlib
import io
import json
import sys

import pytest

from fanoray import datafiles
from fanoray.chambers import facet_patch_check
from fanoray.cli import main
from fanoray.cone import Cone, dual_description
from fanoray.exhaustion import build_targets, check_exhaustion, pushforward_map
from fanoray.model import record_from_json, validate_record

from conftest import flat_fixtures
from oracles import minus_one_curves
from test_cone import B2_5_N1_RAYS


def count_calls(monkeypatch, home: str, name: str,
                note=lambda *args, **kwargs: args) -> list:
    """What ``note`` makes of every call of ``fanoray.<home>.<name>`` from
    now on: by default its positional arguments."""
    original = getattr(importlib.import_module(f"fanoray.{home}"), name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(note(*args, **kwargs))
        return original(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if ((module_name == "fanoray" or module_name.startswith("fanoray."))
                and getattr(module, name, None) is original):
            monkeypatch.setattr(module, name, counted)
    return calls


def callers(*args, **kwargs) -> set:
    """A ``count_calls`` note: the code objects on the caller's stack."""
    frame, codes = sys._getframe(2), set()
    while frame is not None:
        codes.add(frame.f_code)
        frame = frame.f_back
    return codes


def _cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def _single_record_commands():
    root = datafiles.data_root()
    b2_2_n28 = str(root / "records" / "b2_2_n28.json")
    return {
        "check-exhaustion": (["check-exhaustion", b2_2_n28], 0),
        "nef": (["nef", b2_2_n28], 0),
        "flop --record": (["flop", str(root / "flops" / "e5_b2_2_n28.json"),
                           "--record", b2_2_n28], 0),
        "derive-antik": (["derive-antik", b2_2_n28], 0),
    }


@pytest.mark.parametrize("command", sorted(_single_record_commands()))
def test_single_record_commands_do_not_validate(monkeypatch, command):
    argv, code = _single_record_commands()[command]
    calls = count_calls(monkeypatch, "model", "validate_record")
    assert _cli(argv) == code
    assert calls == []


def test_verify_derives_each_antik_combination_once(monkeypatch, tmp_path):
    flat_fixtures(tmp_path, "records", "mistakes", "extra")
    assert len(list(tmp_path.glob("*.json"))) == 13
    calls = count_calls(monkeypatch, "model", "derive_antiK_combo")
    assert _cli(["verify", str(tmp_path)]) == 1
    assert len(calls) == 13


def test_verify_computes_each_contractions_images_once(monkeypatch,
                                                       tmp_path):
    # facet-patch reads check_exhaustion's report, so only target building
    # and the exhaustion check fetch a chart, and facet-patch canonicalises
    # only while it builds a cone or its dual; each flop configuration is
    # solved once, although two records match e3_b2_2_n8
    flat_fixtures(tmp_path)
    charts = count_calls(monkeypatch, "exhaustion", "pushforward_map",
                         callers)
    canonical = count_calls(monkeypatch, "cone", "canonicalize_ray", callers)
    flops = count_calls(monkeypatch, "flop", "compute_flop")
    assert _cli(["verify", str(tmp_path)]) == 1
    patch = facet_patch_check.__code__
    readers = {build_targets.__code__, check_exhaustion.__code__}
    assert charts
    assert all(stack & readers and patch not in stack for stack in charts)
    in_patch = [stack for stack in canonical if patch in stack]
    building = {Cone.__init__.__code__, dual_description.__code__}
    assert in_patch
    assert all(stack & building for stack in in_patch)
    assert len(flops) == 4


def test_verify_dualises_only_facet_patch_target_edges(monkeypatch,
                                                       tmp_path):
    # facet-patch and verify check the nef cone's precondition on the
    # checked ray cone, so no nef cone is built: every Cone.dual is one of
    # facet-patch's target edge sets, and each flop configuration is
    # solved once
    flat_fixtures(tmp_path)
    duals = []
    dual = Cone.dual

    def counted(self):
        duals.append(callers())
        return dual(self)

    monkeypatch.setattr(Cone, "dual", counted)
    nefs = count_calls(monkeypatch, "chambers", "nef_cone")
    flops = count_calls(monkeypatch, "flop", "compute_flop")
    assert _cli(["verify", str(tmp_path)]) == 1
    assert len(duals) == 28
    assert all(facet_patch_check.__code__ in stack for stack in duals)
    assert (nefs, len(flops)) == ([], 4)


def test_verify_runs_one_pointedness_lp_per_cone(monkeypatch, tmp_path):
    # one per record's ray cone (13) and one per record's distinct target
    # edge set (b2_5_n1 and its mistake variant, whose l4, l5 and l6 share
    # theirs); target edges are judged by their cone's extreme rays, not
    # by one membership LP per edge
    flat_fixtures(tmp_path)
    phase1 = count_calls(monkeypatch, "cone", "_phase1")
    members = []
    membership = Cone.membership

    def counted(self, v):
        members.append(callers())
        return membership(self, v)

    monkeypatch.setattr(Cone, "membership", counted)
    assert _cli(["verify", str(tmp_path)]) == 1
    assert len(phase1) == 15
    assert not any(validate_record.__code__ in stack for stack in members)


def test_verify_runs_one_double_description_per_cone(monkeypatch,
                                                     tmp_path):
    # facet-patch dualises the target edge cones that validate described
    # (b2_5_n1 and its mistake variant, one shared by l4, l5 and l6 each):
    # the record keeps one cone per vector set for every caller
    flat_fixtures(tmp_path)
    dd_calls = count_calls(monkeypatch, "cone", "dual_description")
    assert _cli(["verify", str(tmp_path)]) == 1
    assert len(dd_calls) == 41


def test_one_cone_per_vector_set_serves_proposals_too(monkeypatch):
    # a reordered or repeated vector list reads the same cone, and so does
    # check_exhaustion with a proposal: the dropped l8 proposed back spans
    # the full ray set, whose pointedness LP has already run
    path = datafiles.records_dir() / "b2_5_n1.json"
    record = record_from_json(json.loads(path.read_text(encoding="utf-8")))
    vecs = [ray.vec for ray in record.rays]
    full = record.ray_cone()
    assert record.cone(5, vecs[::-1] + vecs[:2]) is full
    assert full.generators == tuple(sorted(vecs))
    targets = build_targets(record)
    full.is_pointed()
    phase1 = count_calls(monkeypatch, "cone", "_phase1")
    labels = record.ray_labels()[:7] + ["p1"]
    assert check_exhaustion(record, labels, targets, {"p1": vecs[7]}).passed
    assert phase1 == []


def test_pushforward_chart_is_ranked_once(monkeypatch):
    path = datafiles.records_dir() / "b2_5_n1.json"
    record = record_from_json(json.loads(path.read_text(encoding="utf-8")))
    calls = count_calls(monkeypatch, "rational", "rank")
    first = pushforward_map(record, "l1")
    assert len(calls) == 1
    second = pushforward_map(record, "l1")
    assert len(calls) == 1
    assert second == first


def test_derived_targets_share_one_double_description(monkeypatch):
    # every derived edge set is read off the full ray cone's incidence
    path = datafiles.records_dir() / "b2_5_n1.json"
    record = record_from_json(json.loads(path.read_text(encoding="utf-8")))
    dd_calls = count_calls(monkeypatch, "cone", "dual_description")
    images = []
    image = Cone.image

    def counted(self, m):
        images.append(m)
        return image(self, m)

    monkeypatch.setattr(Cone, "image", counted)
    targets = build_targets(record, prefer_record_tables=False)
    assert len(targets) == 8
    assert len(dd_calls) == 1
    assert images == []


def test_facet_patch_tests_each_dual_generator_once(monkeypatch, records):
    # on a checked chart each dual generator is tested by pairings, no LP
    record = records["b2_5_n1"]
    targets = build_targets(record, prefer_record_tables=False)
    calls = []
    membership = Cone.membership

    def counted(self, v):
        calls.append(v)
        return membership(self, v)

    report = check_exhaustion(record, record.ray_labels(), targets)
    monkeypatch.setattr(Cone, "membership", counted)
    assert facet_patch_check(record, targets, report) == []
    assert calls == []


def test_facet_patch_runs_no_elimination(monkeypatch, records):
    # the facet in each chart is read off the candidates' images: no
    # preimage of a wall generator is solved for
    record = records["b2_5_n1"]
    targets = build_targets(record, prefer_record_tables=False)
    report = check_exhaustion(record, record.ray_labels(), targets)
    eliminations = count_calls(monkeypatch, "rational", "_eliminate")
    assert facet_patch_check(record, targets, report) == []
    assert eliminations == []


def test_facet_patch_dualises_each_distinct_edge_set_once(monkeypatch):
    # derived targets repeat edge sets; the nef cone's own double
    # description is never asked for (there is no codimension-two audit);
    # a fresh record, since the edge cones are memoised on the record
    path = datafiles.records_dir() / "b2_5_n1.json"
    record = record_from_json(json.loads(path.read_text(encoding="utf-8")))
    targets = build_targets(record, prefer_record_tables=False)
    distinct = {entry.edges for entry in targets.values()}
    assert (len(targets), len(distinct)) == (8, 4)
    report = check_exhaustion(record, record.ray_labels(), targets)
    dd_calls = count_calls(monkeypatch, "cone", "dual_description")
    ranks = count_calls(monkeypatch, "rational", "rank")
    codim2 = []
    monkeypatch.setattr(Cone, "codim2_faces",
                        lambda self: codim2.append(self))
    assert facet_patch_check(record, targets, report) == []
    assert sorted(tuple(sorted(args[0])) for args in dd_calls) \
        == sorted(distinct)
    assert ranks == []  # nef_cone's check reads the double description
    assert codim2 == []


def test_nef_command_runs_one_double_description(monkeypatch):
    # the facet normals are the ray cone's extreme rays: the nef cone's
    # own double description, its pointedness LP and any rank are not run
    path = datafiles.records_dir() / "b2_5_n1.json"
    dd_calls = count_calls(monkeypatch, "cone", "dual_description")
    phase1 = count_calls(monkeypatch, "cone", "_phase1")
    ranks = count_calls(monkeypatch, "rational", "rank")
    assert _cli(["nef", str(path)]) == 0
    assert (len(dd_calls), len(phase1), len(ranks)) == (1, 1, 0)


def test_propose_adopting_a_dropped_ray_builds_no_second_full_cone(
        monkeypatch, tmp_path):
    # the adopted ray is appended to the candidates, but the record keeps
    # one cone per vector set: the full cone's pointedness LP is run once,
    # after the candidates' and the one for l4-l6's shared target edges
    path = datafiles.records_dir() / "b2_5_n1.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    proposal = tmp_path / "l1.json"
    proposal.write_text(json.dumps(data["rays"][0]["vec"]))
    phase1 = count_calls(monkeypatch, "cone", "_phase1")
    assert _cli(["check-exhaustion", str(path), "--drop-ray", "l1",
                 "--propose", str(proposal)]) == 0
    assert len(phase1) == 3


def test_extreme_rays_and_neighbours_read_the_memoised_covers(monkeypatch):
    # the double description hands its covers over; nothing rebuilds them
    cone = Cone(5, B2_5_N1_RAYS)
    covers = cone._double_description()[3]
    dd_calls = count_calls(monkeypatch, "cone", "dual_description")
    for ray in cone.extreme_rays():
        assert cone.neighbours(ray)
    assert cone._double_description()[3] is covers
    assert dd_calls == []


@pytest.mark.parametrize("dim, generators", [
    (8, minus_one_curves(7)), (5, B2_5_N1_RAYS)], ids=["gosset7", "b2_5_n1"])
def test_extreme_rays_compute_no_rank(monkeypatch, dim, generators):
    cone = Cone(dim, generators)
    calls = count_calls(monkeypatch, "rational", "rank")
    assert cone.extreme_rays() == tuple(sorted(generators))
    assert calls == []


@pytest.mark.parametrize("dim, generators", [
    (7, minus_one_curves(6)), (5, B2_5_N1_RAYS)], ids=["gosset6", "b2_5_n1"])
def test_codim2_faces_rank_each_face_once(monkeypatch, dim, generators):
    # the popcount prefilter leaves only adjacent facet pairs on these
    # cones, and one rank decides each pair, so each face is ranked once
    cone = Cone(dim, generators).dual()
    normals = cone.facets()
    cone.extreme_rays()
    calls = count_calls(monkeypatch, "rational", "rank")
    faces = cone.codim2_faces()
    assert len(faces) < len(normals) * (len(normals) - 1) // 2
    assert [args[0] for args in calls] == [tight for _, tight in faces]
