import dataclasses
import json

import pytest

from fanoray.model import (RecordError, derive_antiK_combo, diff_records,
                           parse_record, record_from_json, serialize_record,
                           validate_record)
from fanoray.rational import QVec, rat


def test_corrected_corpus_is_invariant_clean(records):
    for name, record in records.items():
        assert validate_record(record) == [], name


def test_b2_5_n1_shape(records):
    rec = records["b2_5_n1"]
    assert rec.rho == 5
    assert len(rec.rays) == 8
    assert sum(len(rows) for rows in rec.flop_tables.values()) == 64
    assert rec.weyl_group == "A2"
    assert rec.ray("l8").vec == QVec([1, 1, 1, -1, 2])


def test_round_trip_is_identity(records, mistakes):
    for rec in list(records.values()) + [r for r, _ in mistakes.values()]:
        text = json.dumps(serialize_record(rec))
        again = record_from_json(json.loads(text))
        assert again == rec


def test_antiK_column_is_redundant(records):
    for rec in records.values():
        for ray in rec.rays:
            assert rec.antiK_combo.dot(ray.vec) == ray.antiK
        for rows in rec.flop_tables.values():
            for row in rows:
                assert rec.antiK_combo.dot(row.vec) == row.antiK


def test_pullbacks_kill_their_rays(records):
    for rec in records.values():
        for ray in rec.rays:
            if ray.contraction is not None:
                image = ray.contraction.pullback.transpose().apply(ray.vec)
                assert image.is_zero(), (rec.record_id.render(), ray.label)


def test_ray_cone_is_shared_per_label_tuple(records):
    rec = records["b2_5_n1"]
    assert rec.ray_cone() is rec.ray_cone()
    assert rec.ray_cone(["l1", "l2"]) is rec.ray_cone(("l1", "l2"))
    assert rec.ray_cone(["l1", "l2"]) is not rec.ray_cone()
    assert "_cones" not in repr(rec)
    copy = dataclasses.replace(rec)
    assert copy == rec
    assert copy.ray_cone() is not rec.ray_cone()


def test_strict_parse_rejects_antiK_mistake(data_root):
    raw = (data_root / "mistakes" / "b2_5_n1_mistake.json").read_text()
    with pytest.raises(RecordError) as err:
        parse_record(raw)
    assert "l25" in str(err.value)
    assert "3" in str(err.value)


def test_collect_parse_reports_the_l25_row(mistakes):
    record, findings = mistakes["b2_5_n1_mistake"]
    antik = [f for f in findings if f.check == "antiK"]
    assert [f.key for f in antik] == ["flop_tables.l5.l25"]
    assert "says -3" in antik[0].message and "gives 3" in antik[0].message


def test_n3_mistake_findings(mistakes):
    record, findings = mistakes["b2_4_n3_mistake"]
    keys = {(f.check, f.key) for f in findings}
    assert ("antiK", "rays.l4") in keys
    assert ("fano-positivity", "rays.l4") in keys


def test_schema_unknown_field_rejected(records):
    data = serialize_record(records["b2_2_n1"])
    data["surprise"] = 1
    with pytest.raises(RecordError) as err:
        record_from_json(data)
    assert "surprise" in str(err.value)


def test_schema_rejects_floats(records):
    data = serialize_record(records["b2_2_n1"])
    data["antiK_combo"] = [-1.0, 2]
    with pytest.raises(RecordError):
        record_from_json(data)


def test_schema_rejects_empty_ray_list(records):
    data = serialize_record(records["b2_2_n1"])
    data["rays"] = []
    del data["flop_tables"]["l1"]
    with pytest.raises(RecordError) as err:
        record_from_json(data)
    assert "rays" in str(err.value)


def test_schema_rejects_bad_flop_table_key(records):
    data = serialize_record(records["b2_2_n1"])
    data["flop_tables"]["l9"] = data["flop_tables"].pop("l1")
    with pytest.raises(RecordError) as err:
        record_from_json(data)
    assert "l9" in str(err.value)


def test_validate_flags_nonextreme_target_edge(records):
    data = serialize_record(records["b2_5_n1"])
    for ray in data["rays"]:
        if ray["label"] == "l4":
            # append the sum of the first two edges: inside their cone
            ray["contraction"]["target_edges"].append(
                ["-1", "-1", "2", "0"])
    record = record_from_json(data)
    findings = validate_record(record)
    assert any(f.check == "target-edges" for f in findings)


def test_validate_flags_rank_deficient_pullback(records):
    data = serialize_record(records["b2_2_n1"])
    data["rays"][0]["contraction"]["pullback"] = [["0"], ["0"]]
    record = record_from_json(data)
    findings = validate_record(record)
    assert any(f.check == "pullback" and "rank" in f.message
               for f in findings)


def test_derive_antiK_b2_5_n1(records):
    rec = records["b2_5_n1"]
    derived = derive_antiK_combo([(r.vec, r.antiK) for r in rec.rays], 5)
    assert derived.status == "ok"
    assert derived.combo == QVec([-2, -2, -2, -1, 3])
    for rows in rec.flop_tables.values():
        for row in rows:
            assert derived.combo.dot(row.vec) == row.antiK


def test_derive_antiK_b2_2_n28(records):
    rec = records["b2_2_n28"]
    derived = derive_antiK_combo([(r.vec, r.antiK) for r in rec.rays], 2)
    assert derived.combo == QVec([-1, 4])


def test_too_few_rays_is_a_finding_not_a_crash(records):
    data = serialize_record(records["b2_2_n1"])
    data["rays"] = data["rays"][:1]
    record = record_from_json(data)
    findings = validate_record(record)
    assert any(f.check == "antiK-combo" for f in findings)


def test_derive_antiK_contradictory_rows():
    v = QVec([1, 1])
    derived = derive_antiK_combo([(v, rat(1)), (v, rat(2))], 2)
    assert derived.status == "inconsistent"
    assert derived.witnesses == (0, 1)


def test_derive_antiK_underdetermined():
    derived = derive_antiK_combo(
        [(QVec([1, 0, 0]), rat(1)), (QVec([0, 1, 0]), rat(1)),
         (QVec([1, 1, 0]), rat(2))], 3)
    assert derived.status == "underdetermined"
    assert derived.kernel_dim == 1


def test_diff_records_lists_exact_corrections(records, mistakes):
    mistake, _ = mistakes["b2_4_n3_mistake"]
    diff = diff_records(mistake, records["b2_4_n3"])
    assert sorted(f.key for f in diff) == [
        "flop_tables.l1.l21", "flop_tables.l2.l12",
        "flop_tables.l3.l43", "rays.l4"]


def test_extra_record_flags_are_data_level(data_root):
    raw = (data_root / "extra" / "b2_4_n2.json").read_text()
    record, findings = parse_record(raw, strict=False)
    keys = sorted(f.key for f in findings)
    assert keys == [
        "flop_tables.l1.l51", "flop_tables.l1.l61",
        "flop_tables.l2.l32", "flop_tables.l2.l42",
        "flop_tables.l4.l14", "flop_tables.l4.l44",
        "flop_tables.l4.l54", "flop_tables.l4.l64",
        "flop_tables.l6.l56", "flop_tables.l6.l66"]
    assert all(f.check == "antiK" for f in findings)
