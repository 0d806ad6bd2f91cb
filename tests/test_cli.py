import argparse
import json
import os
import shutil
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

from fanoray import datafiles
from fanoray.chambers import nef_cone
from fanoray.cli import (RecordReport, Section, _render_table, build_parser,
                         main, verify_records)
from fanoray.cone import canonicalize_ray
from fanoray.exhaustion import (ExhaustionReport, Miss, ReciprocalFailure,
                                build_targets, check_exhaustion)
from fanoray.flop import flop_config_from_json, parse_flop_config
from fanoray.model import RecordError, RecordId, parse_record, record_from_json
from fanoray.rational import rat, rat_str

from test_exhaustion import NOT_EXTREME, _b2_3_n31_with_an_inner_contracted_ray
from test_golden import GOLDEN, _all_fixtures_dir


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def corpus_dir(tmp_path, data_root):
    """Corrected records plus the flop configurations, one flat directory."""
    for sub in ("records", "flops"):
        for path in (data_root / sub).glob("*.json"):
            shutil.copy(path, tmp_path / path.name)
    return tmp_path


def test_verify_corrected_corpus_exits_zero(capsys, corpus_dir):
    code, out, _ = run_cli(capsys, "verify", str(corpus_dir))
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["status"] == "pass"
    assert payload["summary"]["records"] == 9
    assert payload["summary"]["flop_configs"] == 4
    n28 = next(r for r in payload["reports"] if r["record"] == "B2=2/n28")
    flop_section = next(s for s in n28["sections"]
                        if s["check"] == "flop-tables")
    assert flop_section["status"] == "pass"


def test_verify_is_deterministic(capsys, corpus_dir):
    code1, out1, _ = run_cli(capsys, "verify", str(corpus_dir))
    code2, out2, _ = run_cli(capsys, "verify", str(corpus_dir))
    assert (code1, out1) == (code2, out2)


def test_verify_flags_mistake_fixture(capsys, corpus_dir, data_root):
    shutil.copy(data_root / "mistakes" / "b2_5_n1_mistake.json", corpus_dir)
    code, out, _ = run_cli(capsys, "verify", str(corpus_dir))
    assert code == 1
    payload = json.loads(out)
    report = next(r for r in payload["reports"]
                  if r["record"] == "B2=5/n1mistake")
    validate = next(s for s in report["sections"] if s["check"] == "validate")
    assert any("l25" in f and "says -3" in f and "gives 3" in f
               for f in validate["findings"])
    corrections = next(s for s in report["sections"]
                       if s["check"] == "corrections")
    flagged = {f.split(":")[0].split(" ")[1] for f in corrections["findings"]}
    assert flagged == {"flop_tables.l5.l25", "flop_tables.l7.l17",
                       "flop_tables.l7.l27", "flop_tables.l7.l37",
                       "flop_tables.l7.l47", "flop_tables.l7.l57",
                       "flop_tables.l7.l67"}


def test_verify_skips_facet_patch_on_an_invalid_chart(capsys, record_paths,
                                                      tmp_path):
    data = json.loads(record_paths["b2_5_n1"].read_text())
    l4 = next(r for r in data["rays"] if r["label"] == "l4")
    l4["contraction"]["pullback"][0][0] = "1"
    (tmp_path / "b2_5_n1.json").write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "verify", str(tmp_path))
    assert code == 1
    sections = {s["check"]: s for s in json.loads(out)["reports"][0]["sections"]}
    assert sections["validate"]["status"] == "fail"
    assert sections["facet-patch"] == {
        "check": "facet-patch", "status": "skipped", "findings": [],
        "detail": "B2=5/n1: descriptor of l4 does not annihilate its own ray"}


def test_verify_fails_a_record_that_lists_one_ray_twice(capsys, record_paths,
                                                      tmp_path):
    # the ray cone drops the repeat, so only validate can see it
    data = json.loads(record_paths["b2_5_n1"].read_text())
    l1 = next(r for r in data["rays"] if r["label"] == "l1")
    data["rays"].append(dict(l1, label="l9"))
    (tmp_path / "b2_5_n1.json").write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "verify", str(tmp_path))
    assert code == 1
    sections = {s["check"]: s for s in json.loads(out)["reports"][0]["sections"]}
    assert sections["validate"] == {
        "check": "validate", "status": "fail",
        "findings": ["[duplicate-ray] rays.l9: same ray as l1"]}


def test_verify_fails_exhaustion_on_a_rank_one_record_with_a_ray_deleted(
        capsys, record_paths, tmp_path):
    data = json.loads(record_paths["b2_2_n1"].read_text())
    data["rays"] = [r for r in data["rays"] if r["label"] != "l1"]
    data["flop_tables"] = {}
    (tmp_path / "b2_2_n1.json").write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "verify", str(tmp_path))
    assert code == 1
    sections = {s["check"]: s for s in json.loads(out)["reports"][0]["sections"]}
    assert sections["exhaustion"]["status"] == "fail"
    assert sections["exhaustion"]["detail"]["misses"] == [
        {"ray_index": 1, "ray": "l2", "edge": [1],
         "note": "no candidate maps onto this edge"}]
    code, out, _ = run_cli(capsys, "verify", str(tmp_path), "--human")
    assert code == 1
    assert ("  exhaustion   fail\n"
            "    [exhaustion] rays.l2: no candidate maps onto this edge (1,)\n"
            ) in out


def _b2_5_n1_cut_to_l1(record_paths, tmp_path):
    # one ray left: its derived target edge set is empty
    data = json.loads(record_paths["b2_5_n1"].read_text())
    data["rays"] = [r for r in data["rays"] if r["label"] == "l1"]
    data["flop_tables"] = {}
    path = tmp_path / "b2_5_n1.json"
    path.write_text(json.dumps(data))
    return path


EMPTY_L1_TARGETS = ("B2=5/n1: the target edge set of candidate l1 is empty, "
                    "so there is nothing to check")


def test_check_exhaustion_with_an_empty_target_edge_set_exits_two(
        capsys, record_paths, tmp_path):
    path = _b2_5_n1_cut_to_l1(record_paths, tmp_path)
    code, out, err = run_cli(capsys, "check-exhaustion", str(path))
    assert (code, out, err) == (2, "", f"error: {EMPTY_L1_TARGETS}\n")


def test_verify_skips_exhaustion_on_an_empty_target_edge_set(
        capsys, record_paths, tmp_path):
    _b2_5_n1_cut_to_l1(record_paths, tmp_path)
    code, out, _ = run_cli(capsys, "verify", str(tmp_path))
    sections = {s["check"]: s for s in json.loads(out)["reports"][0]["sections"]}
    assert sections["exhaustion"] == {
        "check": "exhaustion", "status": "skipped", "findings": [],
        "detail": EMPTY_L1_TARGETS}
    assert code == 1


def test_a_flop_config_with_no_result_curves_exits_two(capsys, data_root,
                                                       record_paths, tmp_path):
    # no row would be compared, so "flop-tables: pass" would be vacuous
    data = json.loads((data_root / "flops" / "e5_b2_2_n28.json").read_text())
    data["result_curves"] = []
    config = tmp_path / "e5_b2_2_n28.json"
    config.write_text(json.dumps(data))
    shutil.copy(record_paths["b2_2_n28"], tmp_path)
    message = "flop.result_curves: expected at least one result curve\n"
    code, out, err = run_cli(capsys, "verify", str(tmp_path))
    assert (code, out, err) == (2, "", f"error: {config}: {message}")
    code, out, err = run_cli(capsys, "flop", str(config), "--record",
                             str(record_paths["b2_2_n28"]))
    assert (code, out, err) == (2, "", f"error: {message}")


def test_verify_names_ray_rows_of_rank_below_rho(capsys, record_paths,
                                                 tmp_path):
    # ray rows of rank 2 in rho = 3 leave the -K combination
    # underdetermined: validate fails naming the rank, nothing else does
    data = json.loads(record_paths["b2_2_n28"].read_text())
    data.update(id={"b2": 3, "n": 99}, basis=["A", "B", "C"],
                antiK_combo=["1", "1", "0"], flop_tables={}, rays=[
                    {"label": label, "vec": vec, "antiK": antik, "type": "C"}
                    for label, vec, antik in (("l1", ["1", "0", "0"], "1"),
                                              ("l2", ["0", "1", "0"], "1"),
                                              ("l3", ["1", "1", "0"], "2"))])
    (tmp_path / "b2_3_n99.json").write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "verify", str(tmp_path))
    assert code == 1
    payload = json.loads(out)
    assert payload["summary"]["status"] == "fail"
    sections = payload["reports"][0]["sections"]
    assert [(s["check"], s["status"], s["findings"]) for s in sections
            if s["status"] != "skipped"] == [("validate", "fail", [
                "[antiK-combo] rays: ray rows of rank 2 cannot determine a "
                "rank-3 anticanonical combination"])]


def test_verify_human_rendering(capsys, corpus_dir, data_root):
    shutil.copy(data_root / "mistakes" / "b2_4_n3_mistake.json", corpus_dir)
    code, out, _ = run_cli(capsys, "verify", str(corpus_dir), "--human")
    assert code == 1
    assert "B2=4/n3mistake" in out
    assert "rays.l4" in out
    assert out.strip().endswith("fail")


def test_verify_empty_dir_exits_two(capsys, tmp_path, data_root):
    # no record would be checked, so a pass would be vacuous; a directory
    # holding only flop configurations checks no record either
    message = f"error: {tmp_path}: no record files\n"
    assert run_cli(capsys, "verify", str(tmp_path)) == (2, "", message)
    shutil.copy(data_root / "flops" / "e5_b2_2_n28.json", tmp_path)
    assert run_cli(capsys, "verify", str(tmp_path)) == (2, "", message)


def test_verify_rejects_a_bogus_chamber_self_loop(capsys, record_paths,
                                                  tmp_path):
    data = json.loads(record_paths["b2_3_n31"].read_text())
    data["chambers"]["edges"].append({"from": "T", "to": "T",
                                      "type": "Bogus"})
    path = tmp_path / "b2_3_n31.json"
    path.write_text(json.dumps(data))
    assert run_cli(capsys, "verify", str(tmp_path)) == (
        2, "", f"error: {path}: record.chambers.edges[3]: illegal flop type "
               f"'Bogus'\n")


@pytest.mark.parametrize("ray_type", ["F_fiber", "Flopping"])
def test_verify_rejects_a_ray_type_outside_the_schema(ray_type, capsys,
                                                      record_paths, tmp_path):
    # a flopping curve is K-trivial and no fixture has a fiber-type ray
    def retype_l3(data):
        data["rays"][2]["type"] = ray_type

    path = _edited(record_paths["b2_3_n31"], tmp_path, retype_l3)
    assert run_cli(capsys, "verify", str(tmp_path)) == (
        2, "", f"error: {path}: record.rays[2].type: unknown ray type "
               f"{ray_type!r}\n")


def test_flop_rejects_a_repeated_exceptional_divisor(capsys, data_root,
                                                     tmp_path):
    # parsed, the two D1 columns would collapse into one coefficient key
    data = json.loads((data_root / "flops" / "e5_b2_2_n28.json").read_text())
    data["exceptional_divisors"] = ["D1", "D1"]
    config = tmp_path / "e5_b2_2_n28.json"
    config.write_text(json.dumps(data))
    assert run_cli(capsys, "flop", str(config)) == (
        2, "", "error: flop.exceptional_divisors[1]: duplicate name 'D1'\n")


def test_verify_unreadable_json_exits_two(capsys, tmp_path):
    (tmp_path / "junk.json").write_text("{not json")
    code, _, err = run_cli(capsys, "verify", str(tmp_path))
    assert code == 2
    assert "junk.json" in err


def test_verify_defaults_to_the_packaged_corpus(capsys, tmp_path,
                                                monkeypatch):
    # no environment variable names another directory
    monkeypatch.setenv("MRA_DATA", str(tmp_path))
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    assert json.loads(out)["summary"] == {"records": 9, "flop_configs": 4,
                                          "status": "pass"}


def test_verify_out_and_human_are_exclusive(capsys, corpus_dir, tmp_path):
    out_dir = tmp_path / "reports"
    with pytest.raises(SystemExit) as exit_:
        main(["verify", str(corpus_dir), "--out", str(out_dir), "--human"])
    captured = capsys.readouterr()
    assert (exit_.value.code, captured.out) == (2, "")
    assert "not allowed with argument" in captured.err
    assert not out_dir.exists()


def test_verify_out_dir(capsys, corpus_dir, tmp_path):
    out_dir = tmp_path / "reports"
    code, _, _ = run_cli(capsys, "verify", str(corpus_dir),
                         "--out", str(out_dir))
    assert code == 0
    assert (out_dir / "summary.json").exists()
    assert (out_dir / "b2_5_n1.audit.json").exists()
    report = json.loads((out_dir / "b2_5_n1.audit.json").read_text())
    assert report["status"] == "pass"


def test_verify_out_writes_every_report_and_the_summary(capsys, tmp_path):
    # over all 13 record fixtures and the 4 flop configurations, each
    # <stem>.audit.json is the matching entry of verify's JSON reports
    fixtures = tmp_path / "fixtures"
    fixtures.mkdir()
    _all_fixtures_dir(fixtures)
    code, out, _ = run_cli(capsys, "verify", str(fixtures))
    payload = json.loads(out)
    out_dir = tmp_path / "reports"
    out_code, printed, _ = run_cli(capsys, "verify", str(fixtures),
                                   "--out", str(out_dir))
    assert code == out_code == 1
    assert len(payload["reports"]) == 13
    assert json.loads(printed) == payload["summary"]
    written = {path.name: path.read_text(encoding="utf-8")
               for path in out_dir.iterdir()}
    expected = {f"{Path(r['file']).stem}.audit.json": r
                for r in payload["reports"]}
    expected["summary.json"] = payload["summary"]
    assert written == {name: json.dumps(entry, indent=2, sort_keys=True)
                       + "\n" for name, entry in expected.items()}


def _parsed_fixtures(data_root):
    """All 13 record fixtures and the 4 flop configurations, keyed by file
    name in name order and read as ``verify`` reads them."""
    paths = [path for sub in ("records", "mistakes", "extra", "flops")
             for path in (data_root / sub).glob("*.json")]
    records, configs = {}, {}
    for path in sorted(paths, key=lambda path: path.name):
        if path.parent.name == "flops":
            configs[path.name] = parse_flop_config(path.read_text())
        else:
            records[path.name] = record_from_json(json.loads(path.read_text()))
    return records, configs


def test_verify_records_in_process_matches_the_verify_golden(data_root):
    records, configs = _parsed_fixtures(data_root)
    assert (len(records), len(configs)) == (13, 4)
    reports = verify_records(records, configs)
    golden = json.loads((GOLDEN / "verify_json.out").read_text())
    assert [report.to_json() for report in reports] == golden["reports"]
    # a report fails exactly when one of its sections does
    for report in reports:
        assert (report.status == "fail") == any(
            section.status == "fail" for section in report.sections)
    failed = any(report.status == "fail" for report in reports)
    assert golden["summary"] == {"records": 13, "flop_configs": 4,
                                 "status": "fail" if failed else "pass"}
    # and verify exits 1 exactly when some report fails
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert codes["verify_json"] == (1 if failed else 0) == 1


def test_verify_records_hands_exhaustions_misses_over_typed(record_paths):
    # b2_5_n1 without l8 (the verify_drop_l8 golden): the exhaustion
    # section holds check_exhaustion's report itself, no stdout is read
    data = json.loads(record_paths["b2_5_n1"].read_text())
    data["rays"] = [r for r in data["rays"] if r["label"] != "l8"]
    del data["flop_tables"]["l8"]
    record = record_from_json(data)
    [report] = verify_records({"b2_5_n1.json": record}, {})
    section = next(s for s in report.sections if s.check == "exhaustion")
    expected = check_exhaustion(record, record.ray_labels(),
                                build_targets(record))
    assert (report.status, section.status) == ("fail", "fail")
    assert section.findings == ()
    assert section.detail.misses == expected.misses
    assert [miss.ray_label for miss in expected.misses] == ["l4", "l5", "l6"]


def test_verify_records_validates_each_record_itself(data_root):
    # the mistake fixture alone: its validate section holds the findings
    # of the verify golden, which no caller handed over
    path = data_root / "mistakes" / "b2_2_n8_mistake.json"
    record = record_from_json(json.loads(path.read_text()))
    [report] = verify_records({path.name: record}, {})
    golden = json.loads((GOLDEN / "verify_json.out").read_text())
    [expected] = [section for entry in golden["reports"]
                  if entry["file"] == path.name
                  for section in entry["sections"]
                  if section["check"] == "validate"]
    assert report.sections[0].to_json() == expected
    assert (expected["status"], len(expected["findings"])) == ("fail", 3)


def test_verify_human_prints_the_exhaustion_report_it_holds():
    # no fixture has a reciprocal failure; the table prints them off the
    # section's typed report, one line each, after the misses
    report = ExhaustionReport(
        "B2=2/n5", ("l1", "l2"),
        (Miss(1, "l1", (1, 0), "no candidate maps onto this edge"),),
        (ReciprocalFailure("l1", "l2"),))
    section = Section("exhaustion", report.verdict, detail=report)
    table = _render_table(
        [RecordReport(RecordId(2, 5), "b2_2_n5.json", (section,))],
        {"records": 1, "flop_configs": 0, "status": "fail"})
    assert table.splitlines() == [
        "B2=2/n5            fail  (b2_2_n5.json)",
        "  exhaustion   fail",
        "    [exhaustion] rays.l1: no candidate maps onto this edge (1, 0)",
        "    [exhaustion] rays.l1: the image of l1 under l2's pushforward is "
        "not a target edge of l2",
        "1 records, 0 flop configs: fail"]


def test_check_exhaustion_drop_l8(capsys, record_paths):
    code, out, _ = run_cli(capsys, "check-exhaustion",
                           str(record_paths["b2_5_n1"]), "--drop-ray", "l8")
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "fail"
    assert [(m["ray_index"], tuple(m["edge"])) for m in payload["misses"]] == [
        (4, (1, 1, -1, 1)), (5, (1, 1, -1, 1)), (6, (1, 1, -1, 1)),
        (7, (1, 1, 1, 2))]


def test_check_exhaustion_full_passes(capsys, record_paths):
    code, out, _ = run_cli(capsys, "check-exhaustion",
                           str(record_paths["b2_5_n1"]))
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


def test_check_exhaustion_with_no_descriptor_exits_two(capsys, record_paths):
    drops = [arg for k in range(1, 9) for arg in ("--drop-ray", f"l{k}")]
    code, out, err = run_cli(capsys, "check-exhaustion",
                             str(record_paths["b2_5_n1"]), *drops)
    assert code == 2
    assert out == ""
    assert "B2=5/n1" in err and "contraction descriptor" in err


def test_check_exhaustion_unknown_label(capsys, record_paths):
    code, _, err = run_cli(capsys, "check-exhaustion",
                           str(record_paths["b2_5_n1"]), "--drop-ray", "l99")
    assert code == 2
    assert "l99" in err


def test_check_exhaustion_with_proposal(capsys, record_paths, tmp_path,
                                        records):
    proposal = tmp_path / "l8.json"
    proposal.write_text(json.dumps(
        [rat_str(e) for e in records["b2_5_n1"].ray("l8").vec]))
    code, out, _ = run_cli(capsys, "check-exhaustion",
                           str(record_paths["b2_5_n1"]),
                           "--drop-ray", "l8", "--propose", str(proposal))
    assert code == 0
    payload = json.loads(out)
    assert len(payload["trail"]) == 2
    assert payload["trail"][0]["verdict"] == "fail"
    assert payload["trail"][1]["verdict"] == "pass"
    assert payload["final_candidates"][-1] == "l8"


def test_repeated_calls_carry_no_state(capsys, record_paths, tmp_path,
                                      records):
    """An ``append`` option's list starts empty on every call in-process."""
    path = str(record_paths["b2_5_n1"])
    labels = list(records["b2_5_n1"].ray_labels())
    proposal = tmp_path / "l8.json"
    proposal.write_text(json.dumps(
        [rat_str(e) for e in records["b2_5_n1"].ray("l8").vec]))
    run_cli(capsys, "check-exhaustion", path, "--drop-ray", "l1")
    code, out, _ = run_cli(capsys, "check-exhaustion", path)
    assert (code, json.loads(out)["candidates"]) == (0, labels)
    run_cli(capsys, "check-exhaustion", path, "--drop-ray", "l8",
            "--propose", str(proposal))
    code, out, _ = run_cli(capsys, "check-exhaustion", path, "--drop-ray", "l8")
    payload = json.loads(out)
    assert code == 1 and "trail" not in payload
    assert payload["candidates"] == labels[:-1]


def test_the_parser_is_built_once_per_process(capsys, record_paths,
                                              monkeypatch):
    build_parser.cache_clear()
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    path = str(record_paths["b2_5_n1"])
    assert run_cli(capsys, "check-exhaustion", path)[0] == 0
    first = len(built)
    assert run_cli(capsys, "check-exhaustion", path, "--drop-ray", "l8")[0] == 1
    assert built.count("fanoray") == 1 and len(built) == first
    assert build_parser() is build_parser()


def test_importing_the_cli_builds_no_parser():
    proc = subprocess.run(
        [sys.executable, "-c", "import fanoray.cli as cli; "
         "print(cli.build_parser.cache_info().currsize)"],
        capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "0\n")


def test_flop_command(capsys, data_root, record_paths):
    cfg = data_root / "flops" / "e5_b2_2_n28.json"
    code, out, _ = run_cli(capsys, "flop", str(cfg),
                           "--record", str(record_paths["b2_2_n28"]))
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficients"]["E"] == {"D1": "3/2", "D2": "3"}
    assert payload["coefficients"]["Blp*O(1)"] == {"D1": "1/2", "D2": "1"}
    assert payload["table_findings"] == []


def test_flop_against_mistake_record_finds_rows(capsys, data_root):
    cfg = data_root / "flops" / "e3_b2_2_n8.json"
    mistake = data_root / "mistakes" / "b2_2_n8_mistake.json"
    code, out, _ = run_cli(capsys, "flop", str(cfg), "--record", str(mistake))
    assert code == 1
    assert len(json.loads(out)["table_findings"]) == 2


def test_nef_command(capsys, record_paths):
    code, out, _ = run_cli(capsys, "nef", str(record_paths["b2_4_n13"]))
    assert code == 0
    assert json.loads(out)["facets"] == 5


@pytest.mark.parametrize("path", sorted(
    p for sub in ("records", "mistakes", "extra")
    for p in (datafiles.data_root() / sub).glob("*.json")),
    ids=lambda p: p.stem)
def test_nef_facet_normals_are_the_dual_cones_facets(capsys, path):
    # nef reads its facets off the ray cone's extreme rays; on every record
    # fixture they must be the facets of the dual, computed here directly
    code, out, _ = run_cli(capsys, "nef", str(path))
    assert code == 0
    expected = nef_cone(record_from_json(json.loads(path.read_text())))
    payload = json.loads(out)
    assert payload["facet_normals"] == [list(n) for n in expected.facets()]
    assert payload["facets"] == len(expected.facets())


def test_nef_dot_output(capsys, record_paths, tmp_path):
    dot_path = tmp_path / "graph.dot"
    code, _, _ = run_cli(capsys, "nef", str(record_paths["b2_3_n31"]),
                         "--dot", str(dot_path))
    assert code == 0
    text = dot_path.read_text()
    assert text.count("--") == 3
    assert 'label="F"' in text


def test_nef_dot_without_chamber_data(capsys, record_paths):
    code, _, err = run_cli(capsys, "nef", str(record_paths["b2_4_n3"]),
                           "--dot", "/tmp/unused.dot")
    assert code == 2
    assert "chamber" in err


def test_derive_antik_command(capsys, record_paths):
    code, out, _ = run_cli(capsys, "derive-antik",
                           str(record_paths["b2_5_n1"]))
    assert code == 0
    payload = json.loads(out)
    assert payload["combo"] == ["-2", "-2", "-2", "-1", "3"]
    assert payload["table_rows"] == {"checked": 64, "consistent": 64}
    assert payload["ray_rows"] == {"checked": 8, "consistent": 8}


def test_derive_antik_flags_mistake(capsys, data_root):
    path = data_root / "mistakes" / "b2_5_n1_mistake.json"
    code, out, _ = run_cli(capsys, "derive-antik", str(path))
    assert code == 1
    assert json.loads(out)["inconsistent_rows"] == ["flop_tables.l5.l25"]


def test_derive_antik_witness_is_the_zero_row_alone(capsys, record_paths,
                                                   tmp_path):
    data = json.loads(record_paths["b2_2_n1"].read_text())
    data["rays"].append({
        "label": "lz", "vec": ["0", "0"], "antiK": "1", "type": "E1",
        "contraction": {"target": None, "pullback": [["0"], ["1"]]}})
    path = tmp_path / "lz.json"
    path.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "derive-antik", str(path))
    assert code == 1
    assert json.loads(out)["witnesses"] == ["lz"]


def test_console_script_entry_point(record_paths):
    proc = subprocess.run(
        [sys.executable, "-m", "fanoray.cli", "nef",
         str(record_paths["b2_4_n3"])],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["facets"] == 4


def _first_table(data):
    return data["flop_tables"][sorted(data["flop_tables"])[0]]


MALFORMED = {
    "flop-table-not-array":
        ("records/b2_5_n1.json",
         lambda d: d["flop_tables"].update({"l5": 5})),
    "flop-row-label-list":
        ("records/b2_5_n1.json",
         lambda d: _first_table(d)[0].update({"label": ["x"]})),
    "chamber-nodes-int":
        ("records/b2_5_n1.json", lambda d: d["chambers"].update({"nodes": 5})),
    "chamber-edges-int":
        ("records/b2_5_n1.json", lambda d: d["chambers"].update({"edges": 5})),
    "test-curves-int":
        ("flops/e1_b2_2_n1.json", lambda d: d.update({"test_curves": 3})),
    "test-curve-label-list":
        ("flops/e1_b2_2_n1.json",
         lambda d: d["test_curves"][0].update({"label": ["x"]})),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_container_is_a_record_error(name, capsys, data_root,
                                               tmp_path):
    source, mutate = MALFORMED[name]
    data = json.loads((data_root / source).read_text())
    mutate(data)
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(data))
    is_record = source.startswith("records/")
    with pytest.raises(RecordError):
        if is_record:
            parse_record(path.read_text(), strict=False)
        else:
            parse_flop_config(path.read_text())
    command = "check-exhaustion" if is_record else "flop"
    code, _, err = run_cli(capsys, command, str(path))
    assert code == 2
    assert err.startswith("error: ")


@pytest.mark.parametrize("text", ["nope", "[]", '["x"]', "[1.5]",
                                  "[1, 2, 3]"])
def test_malformed_proposal_names_its_file(text, capsys, record_paths,
                                           tmp_path):
    good = tmp_path / "good.json"
    good.write_text("[1, 0, 0, 0, 0]")
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code, _, err = run_cli(capsys, "check-exhaustion",
                           str(record_paths["b2_5_n1"]), "--drop-ray", "l8",
                           "--propose", str(good), "--propose", str(bad))
    assert code == 2
    assert err.startswith(f"error: {bad}")


UNDECODABLE = {
    "not_utf8": b'\xff\xfe{"a": 1}',
    "too_deep": b"[" * 200_000 + b"]" * 200_000,
    # past Python's limit on the digits of an int read from a string
    "huge_int": b"[" + b"7" * 5000 + b"]",
}


@pytest.mark.parametrize("command", ["verify", "nef", "derive-antik",
                                     "check-exhaustion", "flop"])
@pytest.mark.parametrize("kind", sorted(UNDECODABLE))
def test_undecodable_file_exits_two_naming_it(command, kind, capsys,
                                              tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(UNDECODABLE[kind])
    target = tmp_path if command == "verify" else path
    code, _, err = run_cli(capsys, command, str(target))
    assert code == 2
    assert str(path) in err
    assert "Traceback" not in err


def test_check_exhaustion_names_a_contracted_ray_that_is_not_extreme(
        capsys, data_root, tmp_path):
    path = tmp_path / "b2_3_n31.json"
    path.write_text(json.dumps(_b2_3_n31_with_an_inner_contracted_ray(
        data_root)))
    code, out, err = run_cli(capsys, "check-exhaustion", str(path))
    assert (code, out, err) == (2, "", f"error: {NOT_EXTREME}\n")


def test_verify_flags_a_contracted_ray_that_is_not_extreme(
        capsys, data_root, tmp_path):
    (tmp_path / "b2_3_n31.json").write_text(json.dumps(
        _b2_3_n31_with_an_inner_contracted_ray(data_root)))
    code, out, _ = run_cli(capsys, "verify", str(tmp_path))
    report = json.loads(out)["reports"][0]
    sections = {s["check"]: s for s in report["sections"]}
    assert sections["validate"] == {
        "check": "validate", "status": "fail",
        "findings": ["[extremality] rays.l4.contraction: contracted ray "
                     "l4 = [0, 0, 1] is not an extreme ray of the ray cone"]}
    for check in ("exhaustion", "facet-patch"):
        assert sections[check] == {"check": check, "status": "skipped",
                                   "findings": [], "detail": NOT_EXTREME}
    assert report["status"] == "fail"
    assert code == 1


def test_verify_fails_facet_patch_on_a_contracted_ray_inside_the_cone(
        capsys, record_paths, tmp_path):
    # l3 = l1 + l2 lies inside the candidate cone, so its wall on the nef
    # cone is {0}: no facet there can equal the dual of its target edges
    data = json.loads(record_paths["b2_2_n8"].read_text())
    data["rays"].append({"label": "l3", "vec": ["0", "1"], "antiK": "2",
                         "type": "C", "contraction": {
                             "target": None, "pullback": [["1"], ["0"]],
                             "target_edges": [["1"]]}})
    (tmp_path / "b2_2_n8.json").write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "verify", str(tmp_path))
    sections = {s["check"]: s for s in json.loads(out)["reports"][0]["sections"]}
    assert any(f.startswith("[extremality] rays.l3.contraction")
               for f in sections["validate"]["findings"])
    assert sections["facet-patch"] == {
        "check": "facet-patch", "status": "fail", "findings": [
            "[facet-patch] rays.l3: dual of target edges exceeds the facet "
            "on l3's wall: witness (1,)"]}
    assert code == 1


def test_verify_skips_facet_patch_with_the_nef_cone_message_first(
        capsys, record_paths, tmp_path):
    # -l1 makes the ray cone hold a line: exhaustion skips with its own
    # message, and facet-patch with nef_cone's, not with exhaustion's
    data = json.loads(record_paths["b2_2_n8"].read_text())
    l1 = next(r for r in data["rays"] if r["label"] == "l1")
    data["rays"].append({"label": "l3", "antiK": "1", "type": "C",
                         "vec": [rat_str(-rat(x)) for x in l1["vec"]]})
    (tmp_path / "b2_2_n8.json").write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "verify", str(tmp_path))
    sections = {s["check"]: s for s in json.loads(out)["reports"][0]["sections"]}
    assert sections["exhaustion"]["detail"] == \
        "B2=2/n8: candidate set is not pointed"
    assert sections["facet-patch"] == {
        "check": "facet-patch", "status": "skipped", "findings": [],
        "detail": "B2=2/n8: ray cone is not pointed"}
    assert code == 1


def test_an_overlong_literal_is_echoed_short(capsys, record_paths, tmp_path):
    data = json.loads(record_paths["b2_2_n1"].read_text())
    data["rays"][0]["antiK"] = "7" * 5000
    path = tmp_path / "b2_2_n1.json"
    path.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, "verify", str(tmp_path))
    assert code == 2
    assert err.count("\n") == 1 and len(err) < 200
    assert err.startswith(f"error: {path}: record.rays[0].antiK: bad "
                          f"rational literal '7777")
    assert err.endswith("… (5002 characters)\n")


def _b2_5_n1_with(record_paths, ray, key, value):
    data = json.loads(record_paths["b2_5_n1"].read_text())
    row = next(r for r in data["rays"] if r["label"] == ray)
    if key == "vec":
        row["vec"] = value
    else:
        row["contraction"][key] = value
    return data


ZERO_L1 = ("l1", "vec", ["0"] * 5, "B2=5/n1.rays.l1")
ZERO_L4_EDGE = ("l4", "target_edges", [["0"] * 4],
                "B2=5/n1.rays.l4.contraction.target_edges[0]")


@pytest.mark.parametrize("command, zero", [
    ("check-exhaustion", ZERO_L1), ("nef", ZERO_L1),
    ("check-exhaustion", ZERO_L4_EDGE)], ids=["l1-exhaustion", "l1-nef",
                                              "l4-edge-exhaustion"])
def test_a_zero_vector_is_named_by_record_and_key(command, zero, capsys,
                                                  record_paths, tmp_path):
    ray, key, value, where = zero
    path = tmp_path / "b2_5_n1.json"
    path.write_text(json.dumps(_b2_5_n1_with(record_paths, ray, key, value)))
    code, out, err = run_cli(capsys, command, str(path))
    assert (code, out, err) == (
        2, "", f"error: {where}: zero vector has no ray direction\n")


@pytest.mark.parametrize("zero, finding", [
    (ZERO_L1, "[pointedness] rays: B2=5/n1.rays.l1: zero vector has no ray "
              "direction"),
    (ZERO_L4_EDGE, "[target-edges] rays.l4.contraction.target_edges[0]: "
                   "zero edge vector")], ids=["l1", "l4-edge"])
def test_verify_names_a_zero_vector_in_its_skipped_sections(
        zero, finding, capsys, record_paths, tmp_path):
    ray, key, value, where = zero
    (tmp_path / "b2_5_n1.json").write_text(json.dumps(
        _b2_5_n1_with(record_paths, ray, key, value)))
    code, out, _ = run_cli(capsys, "verify", str(tmp_path))
    sections = {s["check"]: s for s in json.loads(out)["reports"][0]["sections"]}
    assert finding in sections["validate"]["findings"]
    for check in ("exhaustion", "facet-patch"):
        assert sections[check] == {
            "check": check, "status": "skipped", "findings": [],
            "detail": f"{where}: zero vector has no ray direction"}
    assert code == 1


def test_a_zero_proposal_names_its_file(capsys, record_paths, tmp_path):
    zero = tmp_path / "zero.json"
    zero.write_text('["0", "0", "0", "0", "0"]')
    code, out, err = run_cli(capsys, "check-exhaustion",
                             str(record_paths["b2_5_n1"]), "--drop-ray", "l8",
                             "--propose", str(zero))
    assert (code, out, err) == (
        2, "", f"error: {zero}: zero vector has no ray direction\n")


def test_a_zero_ray_is_named_before_a_proposal_is_matched(capsys, record_paths,
                                                          tmp_path):
    # rank-one targets read no ray, so the first cone built is the check's
    data = json.loads(record_paths["b2_2_n1"].read_text())
    data["rays"][1]["vec"] = ["0", "0"]
    path = tmp_path / "b2_2_n1.json"
    path.write_text(json.dumps(data))
    proposal = tmp_path / "p.json"
    proposal.write_text('["1", "1"]')
    code, out, err = run_cli(capsys, "check-exhaustion", str(path),
                             "--propose", str(proposal))
    assert (code, out, err) == (
        2, "", "error: B2=2/n1.rays.l2: zero vector has no ray direction\n")


def _b2_5_n1_with_l4_edge(record_paths, tmp_path, edge):
    """b2_5_n1.json, written to tmp_path, with ``edge`` appended to l4's
    transcribed target edges."""
    data = json.loads(record_paths["b2_5_n1"].read_text())
    data["rays"][3]["contraction"]["target_edges"].append(edge)  # l4
    path = tmp_path / "b2_5_n1.json"
    path.write_text(json.dumps(data))
    return path


L4_LINE = ("B2=5/n1.rays.l4.contraction.target_edges: edge cone contains "
           "the line through (0, 0, -1, 0)")


def test_a_target_edge_set_holding_a_line_is_reported_once(
        capsys, record_paths, tmp_path):
    # validate names the line; exhaustion and facet-patch would each report
    # the appended edge again, so both are skipped with the line instead
    path = _b2_5_n1_with_l4_edge(record_paths, tmp_path, ["0", "0", "1", "0"])
    code, out, _ = run_cli(capsys, "verify", str(tmp_path))
    sections = {s["check"]: s for s in json.loads(out)["reports"][0]["sections"]}
    assert [f for s in sections.values() for f in s["findings"]] == [
        "[target-edges] rays.l4.contraction.target_edges: edge cone contains "
        "the line through (0, 0, -1, 0)"]
    for check in ("exhaustion", "facet-patch"):
        assert sections[check] == {"check": check, "status": "skipped",
                                   "findings": [], "detail": L4_LINE}
    assert code == 1
    assert run_cli(capsys, "check-exhaustion", str(path)) == (
        2, "", f"error: {L4_LINE}\n")


def test_a_repeated_target_edge_is_checked_once(capsys, record_paths,
                                                tmp_path):
    # validate flags both copies, and exhaustion checks the distinct edges,
    # so the miss that dropping l8 leaves on l4 is listed once
    path = _b2_5_n1_with_l4_edge(record_paths, tmp_path, ["1", "1", "-1", "1"])
    clean = run_cli(capsys, "check-exhaustion", str(record_paths["b2_5_n1"]),
                    "--drop-ray", "l8")
    assert clean[0] == 1 and '"ray": "l4"' in clean[1]
    assert run_cli(capsys, "check-exhaustion", str(path),
                   "--drop-ray", "l8") == clean
    code, out, _ = run_cli(capsys, "verify", str(tmp_path))
    validate = json.loads(out)["reports"][0]["sections"][0]
    assert validate["findings"] == [
        f"[target-edges] rays.l4.contraction.target_edges[{i}]: edge "
        f"(1, 1, -1, 1) lies in the cone of the other edges" for i in (3, 4)]
    assert code == 1


def test_an_edge_inside_a_transcribed_set_is_reported_once(
        capsys, data_root, tmp_path):
    # each record-table set of b2_5_n1 and its mistake fixture, with the sum
    # of two of its edges appended: the sum lies in the cone of the others,
    # so it is no target, and only validate names it
    cases = 0
    for path in (data_root / "records" / "b2_5_n1.json",
                 data_root / "mistakes" / "b2_5_n1_mistake.json"):
        copy = tmp_path / path.stem / path.name
        copy.parent.mkdir()
        copy.write_text(path.read_text())
        before = json.loads(run_cli(capsys, "verify", str(copy.parent))[1])
        before = before["reports"][0]["sections"]
        clean_check = run_cli(capsys, "check-exhaustion", str(copy))
        data = json.loads(path.read_text())
        for ray in data["rays"]:
            edges = (ray.get("contraction") or {}).get("target_edges")
            if edges is None:
                continue
            for a, b in combinations(edges, 2):
                total = [rat_str(rat(x) + rat(y)) for x, y in zip(a, b)]
                ray["contraction"]["target_edges"] = [*edges, total]
                copy.write_text(json.dumps(data))
                cases += 1
                where = (path.stem, ray["label"], total)
                after = json.loads(run_cli(capsys, "verify",
                                           str(copy.parent))[1])
                after = after["reports"][0]["sections"]
                assert after[1:] == before[1:], where
                added = list(after[0]["findings"])
                for finding in before[0]["findings"]:
                    added.remove(finding)
                assert added == [
                    f"[target-edges] rays.{ray['label']}.contraction"
                    f".target_edges[{len(edges)}]: edge "
                    f"{canonicalize_ray([rat(x) for x in total])} lies in "
                    f"the cone of the other edges"], where
                assert run_cli(capsys, "check-exhaustion",
                               str(copy)) == clean_check, where
            ray["contraction"]["target_edges"] = edges
    assert cases == 36


def test_a_repeated_result_curve_exits_two(capsys, data_root, record_paths,
                                           tmp_path):
    # the l12 row would be printed and compared twice
    data = json.loads((data_root / "flops" / "e5_b2_2_n28.json").read_text())
    data["result_curves"] = ["l12", "l12", "l22"]
    config = tmp_path / "e5_b2_2_n28.json"
    config.write_text(json.dumps(data))
    assert run_cli(capsys, "flop", str(config), "--record",
                   str(record_paths["b2_2_n28"])) == (
        2, "", "error: flop.result_curves[1]: duplicate name 'l12'\n")


def test_a_doubled_flop_type_list_exits_two(capsys, record_paths, tmp_path):
    data = json.loads(record_paths["b2_2_n28"].read_text())
    data["flop_types"] *= 2
    path = tmp_path / "b2_2_n28.json"
    path.write_text(json.dumps(data))
    message = "record.flop_types[2]: duplicate name 'E1'\n"
    assert run_cli(capsys, "nef", str(path)) == (2, "", f"error: {message}")
    assert run_cli(capsys, "verify", str(tmp_path)) == (
        2, "", f"error: {path}: {message}")


def test_verify_decodes_a_file_once(capsys, record_paths, tmp_path):
    # a file whose JSON is a string holding a record's text is no record
    path = tmp_path / "b2_2_n1.json"
    path.write_text(json.dumps(record_paths["b2_2_n1"].read_text()))
    message = "record: expected object, got str\n"
    assert run_cli(capsys, "verify", str(tmp_path)) == (
        2, "", f"error: {path}: {message}")
    assert run_cli(capsys, "nef", str(path)) == (2, "", f"error: {message}")


def _is_rational(text: str) -> bool:
    try:
        rat(text)
    except ValueError:
        return False
    return True


def _label_lists(node, path=()):
    """The key paths of the arrays of objects or of names in parsed JSON; an
    array of rational literals is a vector, neither of these."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _label_lists(value, path + (key,))
    elif isinstance(node, list):
        if node and (all(isinstance(e, dict) for e in node)
                     or all(isinstance(e, str) for e in node)
                     and not all(map(_is_rational, node))):
            yield path
        for i, value in enumerate(node):
            yield from _label_lists(value, path + (i,))


FIXTURE_FILES = sorted(
    path.relative_to(datafiles.data_root()).as_posix()
    for path in datafiles.data_root().glob("*/*.json"))


def _verify_stdout(capsys, directory: Path, name: str, data) -> tuple:
    """verify's exit code and stdout on ``directory`` holding ``data`` as
    ``name``, next to whatever it holds already."""
    (directory / name).write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "verify", str(directory))
    return code, out


def test_the_fixtures_hold_103_label_lists(data_root):
    assert len(FIXTURE_FILES) == 17
    assert sum(len(list(_label_lists(json.loads((data_root / f).read_text()))))
               for f in FIXTURE_FILES) == 103


@pytest.mark.parametrize("file", FIXTURE_FILES)
def test_a_repeated_list_entry_is_rejected_or_changes_nothing(
        file, capsys, data_root, tmp_path):
    # appending a copy of any array's last entry either makes the file
    # unusable (verify exits 2), or leaves both the loaded value and
    # verify's output unchanged; a flop configuration is verified together
    # with the record it is for
    data = json.loads((data_root / file).read_text())
    name = Path(file).name
    load = record_from_json
    if file.startswith("flops/"):
        load = flop_config_from_json
        rid = data["record"]
        shutil.copy(data_root / "records" / f"b2_{rid['b2']}_n{rid['n']}.json",
                    tmp_path)
    before = _verify_stdout(capsys, tmp_path, name, data)
    assert before[0] in (0, 1)
    changed = []
    for path in _label_lists(data):
        copy = json.loads(json.dumps(data))
        target = copy
        for step in path:
            target = target[step]
        target.append(target[-1])
        after = _verify_stdout(capsys, tmp_path, name, copy)
        if after[0] != 2 and (after != before or load(copy) != load(data)):
            changed.append(path)
    assert changed == []


# exit paths that no other test reaches, each pinned with its message

def _edited(source, directory, edit):
    """The JSON file ``source``, changed in place by ``edit`` and written to
    ``directory`` under its own name."""
    data = json.loads(source.read_text())
    edit(data)
    path = directory / source.name
    path.write_text(json.dumps(data))
    return path


def _sections(out):
    return {s["check"]: s for s in json.loads(out)["reports"][0]["sections"]}


def test_a_pullback_of_too_low_rank_is_named(capsys, record_paths, tmp_path):
    def zero_column_4_of_l1(data):
        for row in data["rays"][0]["contraction"]["pullback"]:  # l1
            row[3] = "0"

    path = _edited(record_paths["b2_5_n1"], tmp_path, zero_column_4_of_l1)
    rank_3 = ("B2=5/n1: pushforward of l1 has rank 3, expected 4; its kernel "
              "is larger than the contracted ray")
    assert run_cli(capsys, "check-exhaustion", str(path)) == (
        2, "", f"error: {rank_3}\n")
    code, out, _ = run_cli(capsys, "verify", str(tmp_path))
    sections = _sections(out)
    assert sections["validate"]["findings"] == [
        "[pullback] rays.l1.contraction: pullback rank 3 != 4"]
    for check in ("exhaustion", "facet-patch"):
        assert sections[check] == {"check": check, "status": "skipped",
                                   "findings": [], "detail": rank_3}
    assert code == 1


def test_a_ray_set_holding_a_line_is_not_pointed(capsys, record_paths,
                                                 tmp_path):
    # l4 = -l3 makes the ray cone hold the line through l3
    path = _edited(record_paths["b2_3_n31"], tmp_path, lambda data: data[
        "rays"].append({"label": "l4", "vec": ["-1", "0", "0"],
                        "antiK": "-2", "type": "C"}))
    assert run_cli(capsys, "check-exhaustion", str(path)) == (
        2, "", "error: B2=3/n31: ray set is not pointed\n")
    code, out, _ = run_cli(capsys, "verify", str(tmp_path))
    assert ("[pointedness] rays: ray cone contains the line through "
            "(-1, 0, 0)") in _sections(out)["validate"]["findings"]
    assert code == 1


def test_derive_antik_names_an_underdetermined_system(capsys, record_paths,
                                                      tmp_path):
    # l3 = (-2, 1, 1) = l1 + l2, so the three rows span only a plane
    def replace_l3(data):
        data["rays"][2].update(vec=["-2", "1", "1"], antiK="2")

    path = _edited(record_paths["b2_3_n31"], tmp_path, replace_l3)
    code, out, _ = run_cli(capsys, "derive-antik", str(path))
    assert json.loads(out) == {"record": "B2=3/n31",
                               "status": "underdetermined", "kernel_dim": 1}
    assert code == 1


def test_derive_antik_witnesses_an_irreducible_triple(capsys, record_paths,
                                                      tmp_path):
    # every two of the three rows agree, only all three contradict: the
    # witness comes from the greedy reduction, not the single or pair scan
    path = _edited(record_paths["b2_2_n1"], tmp_path, lambda data: data[
        "rays"].append({"label": "l3", "vec": ["0", "1"], "antiK": "3",
                        "type": "C"}))
    code, out, _ = run_cli(capsys, "derive-antik", str(path))
    assert json.loads(out)["witnesses"] == ["l1", "l2", "l3"]
    assert code == 1


def test_verify_on_a_file_exits_two(capsys, record_paths):
    path = record_paths["b2_2_n1"]
    assert run_cli(capsys, "verify", str(path)) == (
        2, "", f"error: {path}: not a directory\n")


def test_a_flop_config_with_inconsistent_vanishing_conditions_fails(
        capsys, data_root, record_paths, tmp_path):
    def zero_contracted_exc_rows(data):
        for curve in data["test_curves"]:
            if curve["contracted_by_flop"]:
                curve["exc_row"] = ["0"] * len(curve["exc_row"])

    _edited(data_root / "flops" / "e1_b2_2_n1.json", tmp_path,
            zero_contracted_exc_rows)
    shutil.copy(record_paths["b2_2_n1"], tmp_path)
    code, out, _ = run_cli(capsys, "verify", str(tmp_path))
    assert _sections(out)["flop-tables"] == {
        "check": "flop-tables", "status": "fail", "findings": [
            "[flop-config] e1_b2_2_n1.json: inconsistent vanishing "
            "conditions for 'E': curves ['M']"]}
    assert code == 1


def test_a_renamed_ray_is_absent_from_and_missing_in_the_reference(
        capsys, data_root, record_paths, tmp_path):
    def rename_l2_to_l9(data):
        data["rays"][1]["label"] = "l9"
        data["flop_tables"]["l9"] = data["flop_tables"].pop("l2")

    _edited(data_root / "mistakes" / "b2_2_n8_mistake.json", tmp_path,
            rename_l2_to_l9)
    shutil.copy(record_paths["b2_2_n8"], tmp_path)
    code, out, _ = run_cli(capsys, "verify", str(tmp_path))
    report = next(r for r in json.loads(out)["reports"]
                  if r["record"] == "B2=2/n8mistake")
    corrections = report["sections"][-1]
    assert corrections["check"] == "corrections"
    assert {"[correction] rays.l9: ray absent from the reference record",
            "[correction] rays.l2: ray missing (present in the reference)"
            } <= set(corrections["findings"])
    assert code == 1


@pytest.mark.parametrize("failing", [False, True], ids=["clean", "failing"])
def test_a_closed_stdout_keeps_the_verdict(failing, data_root, tmp_path):
    # the reader is gone before verify writes its report: the exit code is
    # still verify's verdict, and nothing is printed on stderr
    directory = data_root / "records"
    if failing:  # the -K mismatch at l25 fails verify
        shutil.copy(data_root / "mistakes" / "b2_5_n1_mistake.json", tmp_path)
        directory = tmp_path
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "fanoray.cli", "verify", str(directory)],
            stdout=write, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (int(failing), "")


@pytest.mark.parametrize("stderr", ["closed_pipe", "full", "closed_fd"])
def test_unusable_input_exits_two_when_stderr_cannot_be_written(stderr):
    # a failed write of the error message changes no exit code, and the
    # message never lands on stdout
    argv = [sys.executable, "-m", "fanoray.cli", "verify", "/nonexistent"]
    if stderr == "closed_pipe":
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=write)
        finally:
            os.close(write)
    elif stderr == "full":
        with open("/dev/full", "wb") as full:
            proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=full)
    else:
        proc = subprocess.run(argv, stdout=subprocess.PIPE,
                              preexec_fn=lambda: os.close(2))
    assert (proc.returncode, proc.stdout) == (2, b"")


RANK_3_OF_5 = ("[antiK-combo] rays: ray rows of rank 3 cannot determine a "
               "rank-5 anticanonical combination")


def test_derive_antik_on_fewer_rays_than_rho_is_underdetermined(
        capsys, record_paths, tmp_path):
    # b2_5_n1 cut to l1-l3: three rows for five unknowns, the same answer
    # as five rows of rank three (l1-l3, then l1 + l2 and l2 + l3)
    def cut_to_l1_l3(data):
        data["rays"] = data["rays"][:3]
        data["flop_tables"] = {}

    path = _edited(record_paths["b2_5_n1"], tmp_path, cut_to_l1_l3)
    underdetermined = {"record": "B2=5/n1", "status": "underdetermined",
                       "kernel_dim": 2}
    code, out, err = run_cli(capsys, "derive-antik", str(path))
    assert (code, json.loads(out), err) == (1, underdetermined, "")
    code, out, _ = run_cli(capsys, "verify", str(tmp_path))
    assert _sections(out)["validate"]["findings"] == [RANK_3_OF_5]
    assert code == 1

    def add_two_sums(data):
        cut_to_l1_l3(data)
        for label, (a, b) in (("l4", (0, 1)), ("l5", (1, 2))):
            data["rays"].append({
                "label": label, "type": "C", "antiK": "2",
                "vec": [rat_str(rat(x) + rat(y)) for x, y in
                        zip(data["rays"][a]["vec"], data["rays"][b]["vec"])]})

    path = _edited(record_paths["b2_5_n1"], tmp_path, add_two_sums)
    code, out, _ = run_cli(capsys, "derive-antik", str(path))
    assert (code, json.loads(out)) == (1, underdetermined)
    # five rows of rank three: enough rows, too low a rank
    code, out, _ = run_cli(capsys, "verify", str(tmp_path))
    assert _sections(out)["validate"]["findings"] == [RANK_3_OF_5]
    assert code == 1


@pytest.mark.parametrize("stem, label, rank", [("b2_4_n13", "l3", 3),
                                               ("b2_5_n1", "l7", 4)])
def test_verify_names_the_rank_of_a_truncated_ray_set(
        stem, label, rank, capsys, record_paths, tmp_path):
    # as many rays as rho or more, but one deleted leaves too low a rank
    def delete(data):
        data["rays"] = [r for r in data["rays"] if r["label"] != label]
        data["flop_tables"].pop(label, None)

    _edited(record_paths[stem], tmp_path, delete)
    code, out, _ = run_cli(capsys, "verify", str(tmp_path))
    assert _sections(out)["validate"]["findings"] == [
        f"[antiK-combo] rays: ray rows of rank {rank} cannot determine a "
        f"rank-{rank + 1} anticanonical combination"]
    assert code == 1


def _truncations():
    """Each corrected record with one ray and that ray's flop table deleted
    (file name -> record), as the bench's ray-audit verifies them."""
    for path in sorted(datafiles.records_dir().glob("*.json")):
        data = json.loads(path.read_text())
        for ray in data["rays"]:
            cut = {**data, "rays": [r for r in data["rays"] if r is not ray],
                   "flop_tables": {k: v for k, v in data["flop_tables"].items()
                                   if k != ray["label"]}}
            yield f"{path.stem}_{ray['label']}.json", record_from_json(cut)


def test_no_failed_section_without_a_reason(data_root):
    # every failed section says why: a finding, or an exhaustion report
    # with a miss or a reciprocal failure
    records, configs = _parsed_fixtures(data_root)
    reports = verify_records(records, configs)
    for name, record in _truncations():
        reports += verify_records({name: record}, {})
    assert len(reports) == 13 + 32
    failed = [(report.file, section) for report in reports
              for section in report.sections if section.status == "fail"]
    reasonless = [
        (file, section.check) for file, section in failed
        if not section.findings and not (
            isinstance(section.detail, ExhaustionReport)
            and (section.detail.misses or section.detail.reciprocal_failures))]
    assert failed and reasonless == []


L12_MISMATCH = ("[flop-table] flop_tables.l2.l12: table says (1/2, 3/2 | 3/2), "
                "recomputation gives (1/2, 1/2 | 3/2)")


def test_a_flop_table_cell_that_disagrees_is_named(capsys, data_root,
                                                   record_paths, tmp_path):
    def change_l12(data):
        data["flop_tables"]["l2"][0].update(vec=["1/2", "3/2"])  # l12

    record = _edited(record_paths["b2_2_n28"], tmp_path, change_l12)
    config = data_root / "flops" / "e5_b2_2_n28.json"
    shutil.copy(config, tmp_path)
    code, out, _ = run_cli(capsys, "verify", str(tmp_path))
    assert _sections(out)["flop-tables"] == {
        "check": "flop-tables", "status": "fail", "findings": [L12_MISMATCH]}
    assert code == 1
    code, out, err = run_cli(capsys, "flop", str(config), "--record",
                             str(record))
    assert (code, json.loads(out)["table_findings"], err) == (
        1, [L12_MISMATCH], "")


def test_a_flop_config_tracking_other_divisors_than_the_basis(
        capsys, data_root, record_paths, tmp_path):
    config = _edited(data_root / "flops" / "e5_b2_2_n28.json", tmp_path,
                     lambda data: data.update(tracked_divisors=["E", "H"]))
    shutil.copy(record_paths["b2_2_n28"], tmp_path)
    message = ("record basis ('E', 'Blp*O(1)') does not match tracked "
               "divisors ('E', 'H')")
    code, out, _ = run_cli(capsys, "verify", str(tmp_path))
    assert _sections(out)["flop-tables"] == {
        "check": "flop-tables", "status": "fail",
        "findings": [f"[flop-config] e5_b2_2_n28.json: {message}"]}
    assert code == 1
    assert run_cli(capsys, "flop", str(config), "--record",
                   str(record_paths["b2_2_n28"])) == (
        2, "", f"error: {message}\n")


def _a_file(record_paths, tmp):
    path = record_paths["b2_2_n1"]
    return ["verify", str(path)], path, "not a directory"


def _a_directory_entry(record_paths, tmp):
    (tmp / "x.json").mkdir()
    return ["verify", str(tmp)], tmp / "x.json", "unreadable: [Errno 21] "


def _a_schema_error(record_paths, tmp):
    path = _edited(record_paths["b2_2_n1"], tmp,
                   lambda data: data.update(rays=5))
    return ["verify", str(tmp)], path, "record.rays: expected "


def _only_flop_configurations(record_paths, tmp):
    shutil.copy(datafiles.data_root() / "flops" / "e5_b2_2_n28.json", tmp)
    return ["verify", str(tmp)], tmp, "no record files"


def _an_unknown_drop_ray(record_paths, tmp):
    path = record_paths["b2_5_n1"]
    return (["check-exhaustion", str(path), "--drop-ray", "l99"], path,
            "unknown ray label 'l99' (record has ['l1', ")


def _a_proposal_that_is_no_vector(record_paths, tmp):
    path = tmp / "p.json"
    path.write_text('{"vec": 3}')
    return (["check-exhaustion", str(record_paths["b2_5_n1"]),
             "--propose", str(path)], path,
            "expected a non-empty array of rationals")


def _a_proposal_wrapped_in_an_object(record_paths, tmp):
    # a proposal is read as a record's vectors are: a bare array
    path = tmp / "p.json"
    path.write_text('{"vec": ["0", "0", "0", "0", "1"]}')
    return (["check-exhaustion", str(record_paths["b2_5_n1"]),
             "--propose", str(path)], path,
            "expected a non-empty array of rationals")


@pytest.mark.parametrize("case", [
    _a_file, _a_directory_entry, _a_schema_error, _only_flop_configurations,
    _an_unknown_drop_ray, _a_proposal_that_is_no_vector,
    _a_proposal_wrapped_in_an_object],
    ids=lambda case: case.__name__.lstrip("_"))
def test_unusable_input_exits_two_naming_its_path(case, capsys, record_paths,
                                                  tmp_path):
    argv, path, message = case(record_paths, tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: {message}")
    assert err.count("\n") == 1 and err.endswith("\n")
