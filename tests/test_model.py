import dataclasses
import json

import pytest

from fanoray.flop import flop_config_from_json
from fanoray.model import (RAY_TYPES, RecordError, derive_antiK_combo,
                           diff_records, parse_record, record_from_json,
                           serialize_record, validate_record)
from fanoray.rational import apply, dot, rat, transpose


def test_corrected_corpus_is_invariant_clean(records):
    for name, record in records.items():
        assert validate_record(record) == [], name


def test_b2_5_n1_shape(records):
    rec = records["b2_5_n1"]
    assert rec.rho == 5
    assert len(rec.rays) == 8
    assert sum(len(rows) for rows in rec.flop_tables.values()) == 64
    assert rec.weyl_group == "A2"
    assert rec.ray("l8").vec == (1, 1, 1, -1, 2)


def test_round_trip_is_identity(records, mistakes):
    for rec in list(records.values()) + [r for r, _ in mistakes.values()]:
        text = json.dumps(serialize_record(rec))
        again = record_from_json(json.loads(text))
        assert again == rec


def test_antiK_column_is_redundant(records):
    for rec in records.values():
        for ray in rec.rays:
            assert dot(rec.antiK_combo, ray.vec) == ray.antiK
        for rows in rec.flop_tables.values():
            for row in rows:
                assert dot(rec.antiK_combo, row.vec) == row.antiK


def test_pullbacks_kill_their_rays(records):
    for rec in records.values():
        for ray in rec.rays:
            if ray.contraction is not None:
                image = apply(transpose(ray.contraction.pullback), ray.vec)
                assert not any(image), (rec.record_id.render(), ray.label)


def test_ray_cone_is_shared_per_label_tuple(records):
    rec = records["b2_5_n1"]
    assert rec.ray_cone() is rec.ray_cone()
    assert rec.ray_cone(["l1", "l2"]) is rec.ray_cone(("l1", "l2"))
    assert rec.ray_cone(["l1", "l2"]) is not rec.ray_cone()
    assert "_cones" not in repr(rec)
    copy = dataclasses.replace(rec)
    assert copy == rec
    assert copy.ray_cone() is not rec.ray_cone()


def test_ray_cone_is_shared_per_ray_set(records):
    # the key is the vector set: a reordered or repeated label list reuses
    # the cone, and an unknown label still raises
    rec = records["b2_5_n1"]
    labels = rec.ray_labels()
    assert rec.ray_cone(labels[1:] + labels[:1]) is rec.ray_cone()
    assert rec.ray_cone(["l2", "l1", "l2"]) is rec.ray_cone(["l1", "l2"])
    with pytest.raises(KeyError, match="l9"):
        rec.ray_cone(["l1", "l9"])


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


LOADER_MESSAGES = {
    # where the bad entry goes, what it is, and the message it must give
    "float": (lambda d: d["antiK_combo"], 0, 2.0,
              "record.antiK_combo[0]: float rejected: 2.0"),
    "letter": (lambda d: d["rays"][1]["vec"], 2, "x",
               "record.rays[1].vec[2]: bad rational literal 'x'"),
    "zero-denominator": (
        lambda d: d["rays"][0]["contraction"]["pullback"][1], 0, "1/0",
        "record.rays[0].contraction.pullback[1][0]: bad rational literal "
        "'1/0'"),
}


@pytest.mark.parametrize("name", sorted(LOADER_MESSAGES))
def test_loader_messages_name_the_entry(name, data_root):
    where, index, value, message = LOADER_MESSAGES[name]
    data = json.loads((data_root / "records" / "b2_3_n31.json").read_text())
    where(data)[index] = value
    with pytest.raises(RecordError) as err:
        parse_record(json.dumps(data))
    assert str(err.value) == message


REPEATED_NAMES = {
    # the file, the list that repeats a name, and the loader's message
    "basis": ("records/b2_3_n31.json", "basis",
              "record.basis[2]: duplicate name 'E'"),
    "tracked": ("flops/e5_b2_2_n28.json", "tracked_divisors",
                "flop.tracked_divisors[1]: duplicate name 'E'"),
    "exceptional": ("flops/e5_b2_2_n28.json", "exceptional_divisors",
                    "flop.exceptional_divisors[1]: duplicate name 'D1'"),
    # a repeated result curve would print and compare its row twice
    "result-curves": ("flops/e5_b2_2_n28.json", "result_curves",
                      "flop.result_curves[1]: duplicate name 'l12'"),
    "flop-types": ("records/b2_2_n28.json", "flop_types",
                   "record.flop_types[1]: duplicate name 'E1'"),
}


@pytest.mark.parametrize("name", sorted(REPEATED_NAMES))
def test_a_repeated_name_is_rejected(name, data_root):
    # a repeated name would collapse two columns into one key
    file, key, message = REPEATED_NAMES[name]
    data = json.loads((data_root / file).read_text())
    data[key][-1] = data[key][0]
    load = (record_from_json if file.startswith("records/")
            else flop_config_from_json)
    with pytest.raises(RecordError) as err:
        load(data)
    assert str(err.value) == message


def test_an_empty_flop_type_list_loads(records):
    data = serialize_record(records["b2_2_n28"])
    data["flop_types"] = []
    assert record_from_json(data).flop_types == ()


def test_a_flop_type_or_result_curve_outside_its_list_is_named(data_root):
    data = json.loads((data_root / "records/b2_2_n28.json").read_text())
    data["flop_types"] = ["E1", "E9"]
    with pytest.raises(RecordError) as err:
        record_from_json(data)
    assert str(err.value).startswith("record.flop_types[1]: 'E9' is not "
                                     "one of E1, E2,")
    data = json.loads((data_root / "flops/e5_b2_2_n28.json").read_text())
    data["result_curves"] = ["l12", "l99"]
    with pytest.raises(RecordError) as err:
        flop_config_from_json(data)
    assert str(err.value).startswith("flop.result_curves[1]: 'l99' is not "
                                     "one of ")


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
    # the key names the edge's index in the transcribed list, zeros included
    key = "rays.l4.contraction.target_edges"
    for leading_zero in (False, True):
        data = serialize_record(records["b2_5_n1"])
        for ray in data["rays"]:
            if ray["label"] == "l4":
                edges = ray["contraction"]["target_edges"]
                if leading_zero:
                    edges.insert(0, ["0", "0", "0", "0"])
                # append the sum of the first two edges: inside their cone
                edges.append(["-1", "-1", "2", "0"])
                appended = len(edges) - 1
        findings = validate_record(record_from_json(data))
        expected = [(f"{key}[{appended}]", "edge (-1, -1, 2, 0) lies in "
                     "the cone of the other edges")]
        if leading_zero:
            expected.insert(0, (f"{key}[0]", "zero edge vector"))
        assert [(f.key, f.message) for f in findings
                if f.check == "target-edges"] == expected, leading_zero


L4_EDGES = "rays.l4.contraction.target_edges"
L4_REPEAT = "edge (-1, 0, 1, 0) lies in the cone of the other edges"


@pytest.mark.parametrize("extra, expected", [
    # both copies of a repeated edge lie in the cone of the others
    (["-1", "0", "1", "0"], [(f"{L4_EDGES}[0]", L4_REPEAT),
                             (f"{L4_EDGES}[4]", L4_REPEAT)]),
    # with the negative of its third edge, l4's edge cone holds a line and
    # has no extreme rays: one finding for the whole list, naming the line
    (["0", "0", "1", "0"], [(L4_EDGES, "edge cone contains the line "
                                       "through (0, 0, -1, 0)")]),
], ids=["repeated-edge", "line"])
def test_validate_judges_target_edges_by_their_cone(records, extra,
                                                    expected):
    data = serialize_record(records["b2_5_n1"])
    data["rays"][3]["contraction"]["target_edges"].append(extra)  # l4
    findings = validate_record(record_from_json(data))
    assert [(f.key, f.message) for f in findings
            if f.check == "target-edges"] == expected


def test_validate_flags_rank_deficient_pullback(records):
    data = serialize_record(records["b2_2_n1"])
    data["rays"][0]["contraction"]["pullback"] = [["0"], ["0"]]
    record = record_from_json(data)
    findings = validate_record(record)
    assert any(f.check == "pullback" and "rank" in f.message
               for f in findings)


def test_validate_flags_a_repeated_ray_direction(records):
    # l9 copies l1 and l10 is a positive multiple of l2: both are findings,
    # keyed by the later label and naming the earlier one
    data = serialize_record(records["b2_5_n1"])
    l1, l2 = data["rays"][0], data["rays"][1]
    data["rays"].append(dict(l1, label="l9"))
    data["rays"].append(dict(l2, label="l10",
                             vec=[str(2 * rat(x)) for x in l2["vec"]],
                             antiK=str(2 * rat(l2["antiK"]))))
    findings = validate_record(record_from_json(data))
    assert [(f.key, f.message) for f in findings
            if f.check == "duplicate-ray"] == [
        ("rays.l9", "same ray as l1"), ("rays.l10", "same ray as l2")]


def test_ray_type_typos_caught_by_moris_classification(records):
    # each ray of the corrected records set to each other type: 192 typos.
    # The length -K.l catches 38 and a type D ray on rho != 2 another 24;
    # the other 130 need divisor or target data
    typos, by_length, by_rho = 0, 0, 0
    for record in records.values():
        data = serialize_record(record)
        for ray in data["rays"]:
            for ray_type in RAY_TYPES.keys() - {ray["type"]}:
                typo = {**data, "rays": [dict(r, type=ray_type) if r is ray
                                         else r for r in data["rays"]]}
                messages = [f.message for f in validate_record(
                    record_from_json(typo)) if f.check == "ray-type"]
                typos += 1
                by_length += any("not a length" in m for m in messages)
                by_rho += any("rho must be 2" in m for m in messages)
    assert typos == 192
    assert by_length >= 38 and by_rho >= 24


def test_derive_antiK_b2_5_n1(records):
    rec = records["b2_5_n1"]
    derived = derive_antiK_combo([(r.vec, r.antiK) for r in rec.rays], 5)
    assert derived.status == "ok"
    assert derived.combo == (-2, -2, -2, -1, 3)
    for rows in rec.flop_tables.values():
        for row in rows:
            assert dot(derived.combo, row.vec) == row.antiK


def test_derive_antiK_b2_2_n28(records):
    rec = records["b2_2_n28"]
    derived = derive_antiK_combo([(r.vec, r.antiK) for r in rec.rays], 2)
    assert derived.combo == (-1, 4)


def test_too_few_rays_is_a_finding_not_a_crash(records):
    data = serialize_record(records["b2_2_n1"])
    data["rays"] = data["rays"][:1]
    record = record_from_json(data)
    findings = validate_record(record)
    assert any(f.check == "antiK-combo" for f in findings)


def test_derive_antiK_contradictory_rows():
    v = (1, 1)
    derived = derive_antiK_combo([(v, rat(1)), (v, rat(2))], 2)
    assert derived.status == "inconsistent"
    assert derived.witnesses == (0, 1)


def test_derive_antiK_underdetermined():
    derived = derive_antiK_combo(
        [((1, 0, 0), rat(1)), ((0, 1, 0), rat(1)), ((1, 1, 0), rat(2))], 3)
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


def test_memos_stay_out_of_eq_hash_repr_and_replace(records):
    rec = records["b2_5_n1"]
    ray = rec.ray("l1")
    assert rec.derived_antiK is rec.derived_antiK
    assert ray.chart is ray.chart
    for obj, memo in ((rec, "derived_antiK"), (ray, "chart")):
        assert memo not in repr(obj)
        copy = dataclasses.replace(obj)
        assert copy == obj
        assert memo not in vars(copy)
    assert hash(dataclasses.replace(ray)) == hash(ray)
