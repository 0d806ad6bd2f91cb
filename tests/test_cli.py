import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from fanoray import datafiles
from fanoray.chambers import nef_cone
from fanoray.cli import (RecordReport, Section, _render_table, build_parser,
                         main, verify_records)
from fanoray.exhaustion import (ExhaustionReport, Miss, ReciprocalFailure,
                                build_targets, check_exhaustion)
from fanoray.flop import parse_flop_config
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


def test_verify_fails_on_a_failed_section_without_findings(capsys,
                                                          record_paths,
                                                          tmp_path):
    # ray rows of rank 2 in rho = 3 leave the -K combination
    # underdetermined: antik-audit fails with no findings, nothing else does
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
    assert [(s["check"], s["status"]) for s in sections
            if s["status"] != "skipped"] == [("validate", "pass"),
                                             ("antik-audit", "fail")]
    assert all(s["findings"] == [] for s in sections)


def test_verify_human_rendering(capsys, corpus_dir, data_root):
    shutil.copy(data_root / "mistakes" / "b2_4_n3_mistake.json", corpus_dir)
    code, out, _ = run_cli(capsys, "verify", str(corpus_dir), "--human")
    assert code == 1
    assert "B2=4/n3mistake" in out
    assert "rays.l4" in out
    assert out.strip().endswith("fail")


def test_verify_empty_dir_warns(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "verify", str(tmp_path))
    assert code == 0
    assert json.loads(out)["summary"]["warning"] == "no records"


def test_verify_unreadable_json_exits_two(capsys, tmp_path):
    (tmp_path / "junk.json").write_text("{not json")
    code, _, err = run_cli(capsys, "verify", str(tmp_path))
    assert code == 2
    assert "junk.json" in err


def test_verify_env_default(capsys, corpus_dir, monkeypatch):
    monkeypatch.setenv("MRA_DATA", str(corpus_dir))
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    assert json.loads(out)["summary"]["records"] == 9


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
    name in name order and parsed as ``verify`` parses them."""
    paths = [path for sub in ("records", "mistakes", "extra", "flops")
             for path in (data_root / sub).glob("*.json")]
    records, configs = {}, {}
    for path in sorted(paths, key=lambda path: path.name):
        if path.parent.name == "flops":
            configs[path.name] = parse_flop_config(path.read_text())
        else:
            records[path.name] = parse_record(path.read_text(), strict=False)
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
    record, findings = parse_record(json.dumps(data), strict=False)
    [report] = verify_records({"b2_5_n1.json": (record, findings)}, {})
    section = next(s for s in report.sections if s.check == "exhaustion")
    expected = check_exhaustion(record, record.ray_labels(),
                                build_targets(record))
    assert (report.status, section.status) == ("fail", "fail")
    assert section.findings == ()
    assert section.detail.misses == expected.misses
    assert [miss.ray_label for miss in expected.misses] == ["l4", "l5", "l6"]


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
        {"vec": [rat_str(e) for e in records["b2_5_n1"].ray("l8").vec]}))
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
