import json
from dataclasses import replace
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fanoray.cone import Cone, canonicalize_ray
from fanoray.exhaustion import (ExhaustionError, TargetEntry,
                                build_targets, check_exhaustion,
                                derive_target_edges, extend_candidates,
                                pushforward_map)
from fanoray.model import record_from_json, serialize_record
from fanoray.rational import apply, rank, solve_linear, transpose

from oracles import derive_target_edges_reference

ALL8 = [f"l{i}" for i in range(1, 9)]


def phi(record, label, vec):
    return apply(pushforward_map(record, label), vec)


def test_pushforward_annihilates_own_ray_on_every_fixture(records):
    for rec in records.values():
        for ray in rec.rays:
            if ray.contraction is None:
                continue
            assert not any(phi(rec, ray.label, ray.vec))


def test_pushforward_of_l8_hits_the_other_ruling(records):
    rec = records["b2_5_n1"]
    image = canonicalize_ray(phi(rec, "l4", rec.ray("l8").vec))
    assert image == (1, 1, -1, 1)
    # which is the last ray of the contraction target record
    n12 = records["b2_4_n12"]
    assert image == tuple(int(x) for x in n12.ray("l4").vec)


def test_pushforward_on_rho2_record(records):
    rec = records["b2_2_n1"]
    m = pushforward_map(rec, "l1")
    assert (len(m), len(m[0])) == (1, 2)
    assert not any(apply(m, rec.ray("l1").vec))


def test_derived_edges_b2_5_n1_counts(records):
    rec = records["b2_5_n1"]
    for label, count in [("l4", 4), ("l5", 4), ("l6", 4), ("l7", 7),
                         ("l1", 5), ("l8", 4)]:
        entry = derive_target_edges(rec, label)
        assert len(entry.edges) == count, label
        assert entry.provenance == "derived-oracle"


def test_derived_edges_l7_include_the_flopping_curve(records):
    rec = records["b2_5_n1"]
    entry = derive_target_edges(rec, "l7")
    flopping = canonicalize_ray(phi(rec, "l7", rec.ray("l8").vec))
    assert flopping in entry.edges
    assert flopping == (1, 1, 1, 2)


def test_derived_edges_rho2_single_edge(records):
    rec = records["b2_2_n1"]
    entry = derive_target_edges(rec, "l1")
    assert len(entry.edges) == 1


RHO2 = ("b2_2_n1", "b2_2_n28", "b2_2_n30", "b2_2_n8")


@pytest.mark.parametrize("stem", RHO2)
def test_rank_one_targets_match_the_derived_ones(records, stem):
    rec = records[stem]
    auto = build_targets(rec)
    derived = build_targets(rec, prefer_record_tables=False)
    assert set(auto) == set(derived) == {"l1", "l2"}
    for label, entry in auto.items():
        assert entry == TargetEntry(((1,),), "rank-one")
        assert derived[label] == TargetEntry(((1,),), "derived-oracle")


def test_rank_one_targets_still_check_the_chart(mistakes):
    # l1's chart of b2_2_n8_mistake does not kill l1: no target is built
    record, _ = mistakes["b2_2_n8_mistake"]
    with pytest.raises(ExhaustionError,
                       match="descriptor of l1 does not annihilate"):
        build_targets(record)


@pytest.mark.parametrize("label", ["l1", "l2"])
def test_rank_one_target_survives_a_deleted_ray(records, label):
    data = serialize_record(records["b2_2_n1"])
    data["rays"] = [r for r in data["rays"] if r["label"] != label]
    data["flop_tables"] = {}
    record = record_from_json(data)
    (kept,) = record.ray_labels()
    targets = build_targets(record)
    assert targets[kept].edges == ((1,),)
    report = check_exhaustion(record, record.ray_labels(), targets)
    assert [(m.ray_label, m.edge) for m in report.misses] == [(kept, (1,))]
    # derived from the truncated record's own rays, the targets are empty,
    # and an empty edge set may not pass vacuously
    derived = build_targets(record, prefer_record_tables=False)
    assert derived[kept].edges == ()
    with pytest.raises(ExhaustionError, match=f"candidate {kept} is empty"):
        check_exhaustion(record, record.ray_labels(), derived)


def test_record_table_targets_match_derived_for_n12_contractions(records):
    rec = records["b2_5_n1"]
    table = build_targets(rec, prefer_record_tables=True)
    derived = build_targets(rec, prefer_record_tables=False)
    for label in ("l4", "l5", "l6"):
        assert table[label].provenance == "record-table"
        assert table[label].edges == derived[label].edges


def test_missing_ray_reproduction(records):
    rec = records["b2_5_n1"]
    targets = build_targets(rec, prefer_record_tables=False)
    report = check_exhaustion(rec, ALL8[:7], targets)
    assert report.verdict == "fail"
    missing_edge = canonicalize_ray(phi(rec, "l4", rec.ray("l8").vec))
    got = [(m.ray_index, m.edge) for m in report.misses]
    assert got == [(4, missing_edge), (5, missing_edge), (6, missing_edge),
                   (7, (1, 1, 1, 2))]
    assert report.reciprocal_failures == ()


def test_full_set_passes(records):
    rec = records["b2_5_n1"]
    targets = build_targets(rec, prefer_record_tables=False)
    report = check_exhaustion(rec, ALL8, targets)
    assert report.passed


def test_every_fixture_full_set_passes(records):
    for name, rec in records.items():
        if not any(r.contraction for r in rec.rays):
            continue
        targets = build_targets(rec, prefer_record_tables=False)
        report = check_exhaustion(rec, rec.ray_labels(), targets)
        assert report.passed, (name, report.misses)


def test_rho2_records_pass_with_both_rays(records):
    for name in ("b2_2_n1", "b2_2_n8", "b2_2_n28", "b2_2_n30"):
        rec = records[name]
        targets = build_targets(rec)
        assert check_exhaustion(rec, rec.ray_labels(), targets).passed


def test_matching_invariant_under_candidate_rescaling(records):
    rec = records["b2_5_n1"]
    targets = build_targets(rec, prefer_record_tables=False)
    tripled = tuple(3 * x for x in rec.ray("l8").vec)
    report = check_exhaustion(rec, ALL8[:7] + ["l8x"], targets,
                              extra_rays={"l8x": tripled})
    assert report.passed


def test_misses_are_sorted(records):
    rec = records["b2_5_n1"]
    targets = build_targets(rec, prefer_record_tables=False)
    report = check_exhaustion(rec, ALL8[:6], targets)
    order = [(m.ray_index, m.edge) for m in report.misses]
    assert order == sorted(order)


def test_missing_targets_entry_raises(records):
    rec = records["b2_5_n1"]
    with pytest.raises(ExhaustionError):
        check_exhaustion(rec, ALL8, {})


def test_a_candidate_set_with_no_descriptor_raises(records):
    # nothing would be checked, so the criterion may not report "pass"
    rec = records["b2_5_n1"]
    targets = build_targets(rec)
    with pytest.raises(ExhaustionError, match="B2=5/n1"):
        check_exhaustion(rec, [], targets)


def test_a_candidate_with_an_empty_target_edge_set_raises(records):
    rec = records["b2_5_n1"]
    targets = dict(build_targets(rec))
    targets["l4"] = TargetEntry((), "record-table")
    with pytest.raises(ExhaustionError,
                       match="B2=5/n1: the target edge set of candidate l4"):
        check_exhaustion(rec, ALL8, targets)


def test_reciprocal_failure_detected_on_doctored_targets(records):
    # edge phi_1(l2) is matched by l2, but l2's doctored edge set no longer
    # contains phi_2(l1): the matched pair must be reported as one-sided
    from fanoray.exhaustion import TargetEntry

    rec = records["b2_5_n1"]
    targets = dict(build_targets(rec, prefer_record_tables=False))
    back = canonicalize_ray(phi(rec, "l2", rec.ray("l1").vec))
    pruned = tuple(e for e in targets["l2"].edges if e != back)
    assert len(pruned) == len(targets["l2"].edges) - 1
    targets["l2"] = TargetEntry(pruned, "record-table")
    report = check_exhaustion(rec, ALL8, targets)
    assert not report.passed
    assert any(f.ray_label == "l1" and f.other_label == "l2"
               for f in report.reciprocal_failures)


def test_extension_recovers_the_missing_ray(records):
    rec = records["b2_5_n1"]
    targets = build_targets(rec, prefer_record_tables=False)
    result = extend_candidates(rec, ALL8[:7], targets,
                               [rec.ray("l8").vec])
    assert result.passed
    assert result.final_candidates == tuple(ALL8)
    assert len(result.reports) == 2
    assert any("adopted record ray l8" in e for e in result.events)


def test_extension_fixed_point(records):
    rec = records["b2_5_n1"]
    targets = build_targets(rec, prefer_record_tables=False)
    result = extend_candidates(rec, ALL8, targets, [])
    assert result.passed
    assert len(result.reports) == 1


def test_extension_insufficient_proposals(records):
    rec = records["b2_5_n1"]
    targets = build_targets(rec, prefer_record_tables=False)
    result = extend_candidates(rec, ALL8[:6], targets, [rec.ray("l8").vec])
    assert not result.passed
    final = result.reports[-1]
    l7_edge = canonicalize_ray(phi(rec, "l1", rec.ray("l7").vec))
    assert any(m.edge == l7_edge for m in final.misses)


@pytest.mark.parametrize("proposal", [(1, 1, 1), (1, 1, 1, -1, 2, 7)])
def test_extension_rejects_a_proposal_of_the_wrong_length(records, proposal):
    rec = records["b2_5_n1"]
    with pytest.raises(ValueError):
        extend_candidates(rec, ALL8[:7], build_targets(rec), [proposal])


def test_extension_useless_proposal_skipped(records):
    rec = records["b2_5_n1"]
    targets = build_targets(rec, prefer_record_tables=False)
    result = extend_candidates(rec, ALL8[:7], targets, [(9, 7, 5, 3, 1)])
    assert not result.passed
    assert any("matches no missing edge" in e for e in result.events)


def test_added_proposal_label_avoids_record_labels(records):
    # a record whose own ray is labelled p1 must not be shadowed by the
    # first added proposal
    data = serialize_record(records["b2_5_n1"])
    for ray in data["rays"]:
        if ray["label"] == "l3":
            ray["label"] = "p1"
    data["flop_tables"]["p1"] = data["flop_tables"].pop("l3")
    rec = record_from_json(data)
    l8, l4 = rec.ray("l8").vec, rec.ray("l4").vec
    candidates = [lab for lab in rec.ray_labels() if lab != "l8"]
    result = extend_candidates(rec, candidates, build_targets(rec),
                               [tuple(a + b for a, b in zip(l8, l4))])
    assert result.final_candidates == tuple(candidates) + ("p2",)
    assert any(e.startswith("added proposal p2 ") for e in result.events)
    plain = records["b2_5_n1"]
    expected = extend_candidates(
        plain, [lab for lab in plain.ray_labels() if lab != "l8"],
        build_targets(plain), [tuple(a + b for a, b in zip(l8, l4))])
    assert ([len(r.misses) for r in result.reports]
            == [len(r.misses) for r in expected.reports] == [4, 3])


def _outcome(derive, *args):
    """The edges and provenance derived, or the class of the exception."""
    try:
        return derive(*args)
    except Exception as exc:  # compared by class
        return type(exc)


def test_derived_edges_match_the_image_cone_reference(data_root):
    # every fixture truncated to every non-empty ray subset x every
    # contracted ray in it; each truncation starts with an empty cone memo
    cases = 0
    for sub in ("records", "mistakes", "extra"):
        for path in sorted((data_root / sub).glob("*.json")):
            record = record_from_json(json.loads(path.read_text()))
            for size in range(1, len(record.rays) + 1):
                for rays in combinations(record.rays, size):
                    truncated = replace(record, rays=rays)
                    for ray in rays:
                        if ray.contraction is None:
                            continue
                        cases += 1
                        assert _outcome(
                            derive_target_edges, truncated, ray.label
                        ) == _outcome(
                            derive_target_edges_reference, truncated,
                            truncated.ray_labels(), ray.label), (
                            path.stem, truncated.ray_labels(), ray.label)
    assert cases == 2448


def _record_with_chart(gens, contracted, phi):
    """A record on the rays ``gens`` plus the ray ``c`` = ``contracted``,
    whose descriptor's pushforward is ``phi``."""
    dim = len(contracted)

    def ray(label, vec, **extra):
        return {"label": label, "vec": [str(x) for x in vec], "antiK": "1",
                "type": "C", **extra}

    return record_from_json({
        "id": {"b2": dim, "n": 1},
        "basis": [f"b{i}" for i in range(dim)],
        "antiK_combo": ["1"] * dim,
        "rays": [ray(f"r{i}", g) for i, g in enumerate(gens)] + [ray(
            "c", contracted, contraction={
                "target": None,
                "pullback": [[str(x) for x in row]
                             for row in transpose(phi)]})],
        "flop_tables": {}, "weyl_group": "", "flop_types": []})


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_derived_edges_match_the_reference_on_random_cones(data):
    # a random pointed cone, a random extreme ray of it and a chart whose
    # kernel is that ray: rows spanning the ray's orthogonal complement,
    # mixed by a random invertible matrix
    dim = data.draw(st.integers(min_value=2, max_value=5))
    small = st.integers(min_value=-3, max_value=3)
    gens = data.draw(st.lists(st.tuples(*[small] * dim).filter(any),
                              min_size=1, max_size=8))
    cone = Cone(dim, gens)
    assume(cone.is_pointed().pointed)
    contracted = data.draw(st.sampled_from(cone.extreme_rays()))
    complement = [canonicalize_ray(v)
                  for v in solve_linear([contracted], [0])[1]]
    mix = data.draw(st.lists(st.tuples(*[small] * (dim - 1)),
                             min_size=dim - 1, max_size=dim - 1))
    assume(rank(mix) == dim - 1)
    phi = [tuple(sum(m * row[j] for m, row in zip(coeffs, complement))
                 for j in range(dim)) for coeffs in mix]
    record = _record_with_chart(gens, contracted, phi)
    derived = derive_target_edges(record, "c")
    assert derived == derive_target_edges_reference(
        record, record.ray_labels(), "c")


def _b2_3_n31_with_an_inner_contracted_ray(data_root):
    """b2_3_n31 plus l4 = l2 + l3 = (0, 0, 1), which is not extreme, with a
    chart that kills it."""
    data = json.loads((data_root / "records" / "b2_3_n31.json").read_text())
    data["rays"].append({
        "label": "l4", "vec": ["0", "0", "1"], "antiK": "3", "type": "C",
        "contraction": {"target": None,
                        "pullback": [["1", "0"], ["0", "1"], ["0", "0"]]}})
    return data


NOT_EXTREME = ("B2=3/n31: contracted ray l4 = [0, 0, 1] is not an extreme "
               "ray of the ray set")


def test_a_contracted_ray_that_is_not_extreme_is_named(data_root):
    record = record_from_json(_b2_3_n31_with_an_inner_contracted_ray(
        data_root))
    with pytest.raises(ExhaustionError) as excinfo:
        build_targets(record)
    assert str(excinfo.value) == NOT_EXTREME
