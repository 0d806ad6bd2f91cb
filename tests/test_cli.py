import argparse
import json
import os
import shutil
import subprocess
import sys
from itertools import combinations
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import pytest

from fanoray import datafiles
from fanoray.chambers import nef_cone
from fanoray.cli import (RecordReport, Section, _render_table, build_parser,
                         main, verify_records)
from fanoray.cone import canonicalize_ray
from fanoray.exhaustion import (ExhaustionReport, Miss, ReciprocalFailure,
                                build_targets, check_exhaustion)
from fanoray.flop import flop_config_from_json, parse_flop_config
from fanoray.model import RecordId, record_from_json
from fanoray.rational import rat, rat_str

from conftest import flat_fixtures
from test_golden import GOLDEN


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def corpus_dir(tmp_path):
    """Corrected records plus the flop configurations, one flat directory."""
    return flat_fixtures(tmp_path, "records", "flops")


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
    flat_fixtures(fixtures)
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


def test_console_script_entry_point(record_paths):
    proc = subprocess.run(
        [sys.executable, "-m", "fanoray.cli", "nef",
         str(record_paths["b2_4_n3"])],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["facets"] == 4


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


def test_a_zero_proposal_names_its_file(capsys, record_paths, tmp_path):
    zero = tmp_path / "zero.json"
    zero.write_text('["0", "0", "0", "0", "0"]')
    code, out, err = run_cli(capsys, "check-exhaustion",
                             str(record_paths["b2_5_n1"]), "--drop-ray", "l8",
                             "--propose", str(zero))
    assert (code, out, err) == (
        2, "", f"error: {zero}: zero vector has no ray direction\n")


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


def test_verify_on_a_file_exits_two(capsys, record_paths):
    path = record_paths["b2_2_n1"]
    assert run_cli(capsys, "verify", str(path)) == (
        2, "", f"error: {path}: not a directory\n")


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


# ---------------------------------------------------------------------------
# Edited fixtures: one table of mutants, one test that runs each row
# ---------------------------------------------------------------------------

class Mutant(NamedTuple):
    """Packaged fixtures with one edit, and one command's exact output.

    ``files`` (paths under the data root, space-separated) are copied flat
    into a scratch directory, ``{dir}``; ``edit`` changes the first one,
    ``{file}``, in its parsed JSON, or returns what to write instead.
    ``written`` adds files by name and text (None: an empty directory).
    ``out`` is the exact stdout, or a dict of parts of its JSON: verify's
    report on the first of ``files`` it reports on, section by check, and
    any other command's payload, key by key.
    """
    files: str
    edit: Optional[Callable]
    argv: str
    code: int
    out: object = ""
    err: str = ""
    written: dict = {}


def _failed(check, *findings):
    return {"check": check, "status": "fail", "findings": list(findings)}


def _skipped(check, detail):
    return {"check": check, "status": "skipped", "findings": [],
            "detail": detail}


def _only(*labels):
    """Keep the named rays and no flop table."""
    def edit(data):
        data["rays"] = [r for r in data["rays"] if r["label"] in labels]
        data["flop_tables"] = {}
    return edit


def _without(label):
    """Delete one ray and its flop table."""
    def edit(data):
        data["rays"] = [r for r in data["rays"] if r["label"] != label]
        data["flop_tables"].pop(label, None)
    return edit


def _append_ray(label, vec, antik, contraction=None, ray_type="C"):
    ray = {"label": label, "vec": vec, "antiK": antik, "type": ray_type}
    if contraction is not None:
        ray["contraction"] = contraction
    return lambda data: data["rays"].append(ray)


_minus_l3_as_l4 = _append_ray("l4", ["-1", "0", "0"], "-2")  # b2_3_n31
# b2_3_n31's l2 + l3, not extreme, with a chart that kills it
_inner_l4 = _append_ray("l4", ["0", "0", "1"], "3", {
    "target": None, "pullback": [["1", "0"], ["0", "1"], ["0", "0"]]})


def _set_pullback_entry(data):  # b2_5_n1's l4 no longer kills its ray
    data["rays"][3]["contraction"]["pullback"][0][0] = "1"


def _zero_pullback_column_4(data):  # of b2_5_n1's l1: rank 3
    for row in data["rays"][0]["contraction"]["pullback"]:
        row[3] = "0"


def _l1_again_as_l9(data):  # the ray cone drops the repeat
    data["rays"].append(dict(data["rays"][0], label="l9"))


def _minus_l1_as_l3(data):  # the ray cone holds a line
    data["rays"].append({"label": "l3", "antiK": "1", "type": "C", "vec": [
        rat_str(-rat(x)) for x in data["rays"][0]["vec"]]})


def _rays_of_rank_2_in_rho_3(data):
    data.update(id={"b2": 3, "n": 99}, basis=["A", "B", "C"],
                antiK_combo=["1", "1", "0"], flop_tables={}, rays=[
                    {"label": label, "vec": vec, "antiK": antik, "type": "C"}
                    for label, vec, antik in (("l1", ["1", "0", "0"], "1"),
                                              ("l2", ["0", "1", "0"], "1"),
                                              ("l3", ["1", "1", "0"], "2"))])


def _doubled_flop_types(data):
    data["flop_types"] *= 2


def _zero_contracted_exc_rows(data):
    for curve in data["test_curves"]:
        if curve["contracted_by_flop"]:
            curve["exc_row"] = ["0"] * len(curve["exc_row"])


def _rename_l2_to_l9(data):
    data["rays"][1]["label"] = "l9"
    data["flop_tables"]["l9"] = data["flop_tables"].pop("l2")


def _l1_to_l3_and_two_sums(data):
    # five rows of rank three: enough rows, too low a rank
    _only("l1", "l2", "l3")(data)
    for label, (a, b) in (("l4", (0, 1)), ("l5", (1, 2))):
        data["rays"].append({
            "label": label, "type": "C", "antiK": "2",
            "vec": [rat_str(rat(x) + rat(y)) for x, y in
                    zip(data["rays"][a]["vec"], data["rays"][b]["vec"])]})


def _zero_l1(data):
    data["rays"][0]["vec"] = ["0"] * 5


def _zero_l4_edge(data):
    data["rays"][3]["contraction"]["target_edges"] = [["0"] * 4]


def _l4_edge(edge):
    """Append ``edge`` to b2_5_n1's transcribed target edges of l4."""
    return lambda data: data["rays"][3]["contraction"]["target_edges"].append(
        edge)


def _l12_cell(data):
    data["flop_tables"]["l2"][0].update(vec=["1/2", "3/2"])


def _no_result_curves(data):  # "flop-tables: pass" would be vacuous
    data["result_curves"] = []


def _wrong_tracked_divisors(data):
    data["tracked_divisors"] = ["E", "H"]


B2_5_N1 = "records/b2_5_n1.json"
E5_N28 = "flops/e5_b2_2_n28.json records/b2_2_n28.json"
N28_E5 = "records/b2_2_n28.json flops/e5_b2_2_n28.json"
NO_CONFIG = _skipped("flop-tables", "no matching flop configuration")
EMPTY_L1 = ("B2=5/n1: the target edge set of candidate l1 is empty, so "
            "there is nothing to check")
NOT_EXTREME = ("B2=3/n31: contracted ray l4 = [0, 0, 1] is not an extreme "
               "ray of the ray set")
ZERO_L1 = "B2=5/n1.rays.l1: zero vector has no ray direction"
ZERO_L4_EDGE = ("B2=5/n1.rays.l4.contraction.target_edges[0]: zero vector "
                "has no ray direction")
L4_LINE = ("B2=5/n1.rays.l4.contraction.target_edges: edge cone contains "
           "the line through (0, 0, -1, 0)")
RANK_3 = ("B2=5/n1: pushforward of l1 has rank 3, expected 4; its kernel is "
          "larger than the contracted ray")
L12 = ("[flop-table] flop_tables.l2.l12: table says (1/2, 3/2 | 3/2), "
       "recomputation gives (1/2, 1/2 | 3/2)")
TRACKED = ("record basis ('E', 'Blp*O(1)') does not match tracked divisors "
           "('E', 'H')")
ONE_RESULT = "flop.result_curves: expected at least one result curve"
RANK_3_OF_5 = ("[antiK-combo] rays: ray rows of rank 3 cannot determine a "
               "rank-5 anticanonical combination")
L1_TO_L3 = {"record": "B2=5/n1", "status": "underdetermined", "kernel_dim": 2}
NO_VECTOR = "error: {dir}/p.json: expected a non-empty array of rationals\n"
DOUBLED_E1 = "record.flop_types[2]: duplicate name 'E1'"
NOT_AN_OBJECT = "record: expected object, got str"

MUTANTS = {
    # validate's findings, and the sections they make verify skip
    "ray-listed-twice-verify": Mutant(
        B2_5_N1, _l1_again_as_l9, "verify {dir}", 1, {"validate": _failed(
            "validate", "[duplicate-ray] rays.l9: same ray as l1")}),
    "invalid-chart-verify": Mutant(
        B2_5_N1, _set_pullback_entry, "verify {dir}", 1, {
            "validate": _failed(
                "validate", "[pullback] rays.l4.contraction: projection "
                "formula violated: pullback^T . vec(l) = (1, 0, 0, 0) != 0"),
            "facet-patch": _skipped("facet-patch", "B2=5/n1: descriptor of "
                                    "l4 does not annihilate its own ray")}),
    "pullback-rank-3-check-exhaustion": Mutant(
        B2_5_N1, _zero_pullback_column_4, "check-exhaustion {file}", 2,
        err=f"error: {RANK_3}\n"),
    "pullback-rank-3-verify": Mutant(
        B2_5_N1, _zero_pullback_column_4, "verify {dir}", 1, {
            "validate": _failed("validate", "[pullback] rays.l1.contraction: "
                                "pullback rank 3 != 4"),
            "exhaustion": _skipped("exhaustion", RANK_3),
            "facet-patch": _skipped("facet-patch", RANK_3)}),
    "rays-of-rank-2-in-rho-3-verify": Mutant(
        # only validate runs, and it names the rank
        "records/b2_2_n28.json", _rays_of_rank_2_in_rho_3, "verify {dir}", 1,
        {"validate": _failed(
            "validate", "[antiK-combo] rays: ray rows of rank 2 cannot "
            "determine a rank-3 anticanonical combination"),
         "exhaustion": _skipped("exhaustion", "no contraction descriptors"),
         "facet-patch": _skipped("facet-patch", "no contraction descriptors"),
         "flop-tables": NO_CONFIG}),
    "l1-to-l3-derive-antik": Mutant(
        B2_5_N1, _only("l1", "l2", "l3"), "derive-antik {file}", 1, L1_TO_L3),
    "l1-to-l3-verify": Mutant(
        B2_5_N1, _only("l1", "l2", "l3"), "verify {dir}", 1,
        {"validate": _failed("validate", RANK_3_OF_5)}),
    "l1-to-l3-and-two-sums-derive-antik": Mutant(
        B2_5_N1, _l1_to_l3_and_two_sums, "derive-antik {file}", 1, L1_TO_L3),
    "l1-to-l3-and-two-sums-verify": Mutant(
        B2_5_N1, _l1_to_l3_and_two_sums, "verify {dir}", 1,
        {"validate": _failed("validate", RANK_3_OF_5)}),
    "without-l3-b2_4_n13-verify": Mutant(
        "records/b2_4_n13.json", _without("l3"), "verify {dir}", 1,
        {"validate": _failed(
            "validate", "[antiK-combo] rays: ray rows of rank 3 cannot "
            "determine a rank-4 anticanonical combination")}),
    "without-l7-b2_5_n1-verify": Mutant(
        B2_5_N1, _without("l7"), "verify {dir}", 1, {"validate": _failed(
            "validate", "[antiK-combo] rays: ray rows of rank 4 cannot "
            "determine a rank-5 anticanonical combination")}),
    "ray-type-length-verify": Mutant(
        # C with -K.l3 = 2 becomes E1, whose length is 1
        "records/b2_3_n31.json", lambda d: d["rays"][2].update(type="E1"),
        "verify {dir}", 1, {"validate": _failed(
            "validate", "[ray-type] rays.l3: -K.l3 = 2 is not a length of a "
            "type E1 ray (1)")}),
    "ray-type-D-on-rho-3-verify": Mutant(
        "records/b2_3_n31.json", lambda d: d["rays"][0].update(type="D"),
        "verify {dir}", 1, {"validate": _failed(
            "validate", "[ray-type] rays.l1: a type D contraction maps onto "
            "P^1, so rho must be 2, not 3")}),
    # the ray cone: pointedness and extremality
    "ray-set-holding-a-line-check-exhaustion": Mutant(
        "records/b2_3_n31.json", _minus_l3_as_l4,
        "check-exhaustion {file}", 2,
        err="error: B2=3/n31: ray set is not pointed\n"),
    "ray-set-holding-a-line-verify": Mutant(
        "records/b2_3_n31.json", _minus_l3_as_l4,
        "verify {dir}", 1, {"validate": _failed(
            "validate", "[fano-positivity] rays.l4: -K.l4 = -2 is not "
            "positive", "[pointedness] rays: ray cone contains the line "
            "through (-1, 0, 0)")}),
    "nef-cone-message-first-verify": Mutant(
        # exhaustion skips with its own message, facet-patch with nef_cone's
        "records/b2_2_n8.json", _minus_l1_as_l3, "verify {dir}", 1, {
            "exhaustion": _skipped(
                "exhaustion", "B2=2/n8: candidate set is not pointed"),
            "facet-patch": _skipped(
                "facet-patch", "B2=2/n8: ray cone is not pointed")}),
    "inner-contracted-ray-check-exhaustion": Mutant(
        "records/b2_3_n31.json", _inner_l4,
        "check-exhaustion {file}", 2, err=f"error: {NOT_EXTREME}\n"),
    "inner-contracted-ray-verify": Mutant(
        "records/b2_3_n31.json", _inner_l4,
        "verify {dir}", 1, {
            "validate": _failed(
                # -K.l4 = -K.l2 - K.l3 = 3, too long for any type on rho = 3
                "validate", "[ray-type] rays.l4: -K.l4 = 3 is not a length of "
                "a type C ray (1, 2)", "[extremality] rays.l4.contraction: "
                "contracted ray l4 = [0, 0, 1] is not an extreme ray of the "
                "ray cone"),
            "exhaustion": _skipped("exhaustion", NOT_EXTREME),
            "facet-patch": _skipped("facet-patch", NOT_EXTREME)}),
    "contracted-ray-inside-the-cone-verify": Mutant(
        "records/b2_2_n8.json", _append_ray(
            "l3", ["0", "1"], "2", {"target": None, "pullback": [["1"], ["0"]],
                                    "target_edges": [["1"]]}),
        # l3 = l1 + l2: its wall on the nef cone is {0}
        "verify {dir}", 1, {
            "validate": _failed(
                "validate", "[extremality] rays.l3.contraction: contracted "
                "ray l3 = [0, 1] is not an extreme ray of the ray cone"),
            "facet-patch": _failed(
                "facet-patch", "[facet-patch] rays.l3: dual of target edges "
                "exceeds the facet on l3's wall: witness (1,)")}),
    "zero-l1-check-exhaustion": Mutant(
        B2_5_N1, _zero_l1, "check-exhaustion {file}", 2,
        err=f"error: {ZERO_L1}\n"),
    "zero-l1-nef": Mutant(
        B2_5_N1, _zero_l1, "nef {file}", 2, err=f"error: {ZERO_L1}\n"),
    "zero-l1-verify": Mutant(B2_5_N1, _zero_l1, "verify {dir}", 1, {
        "validate": _failed(
            "validate", "[antiK] rays.l1: -K mismatch: row says 1, combo "
            "gives 0", f"[pointedness] rays: {ZERO_L1}",
            "[antiK-combo] rays: ray rows are mutually inconsistent: ['l1']"),
        "exhaustion": _skipped("exhaustion", ZERO_L1),
        "facet-patch": _skipped("facet-patch", ZERO_L1)}),
    "zero-l2-before-a-proposal-check-exhaustion": Mutant(
        # rank-one targets read no ray, so the first cone built is the check's
        "records/b2_2_n1.json", lambda d: d["rays"][1].update(vec=["0", "0"]),
        "check-exhaustion {file} --propose {dir}/p.json", 2,
        err="error: B2=2/n1.rays.l2: zero vector has no ray direction\n",
        written={"p.json": '["1", "1"]'}),
    # target edge sets
    "cut-to-l1-check-exhaustion": Mutant(
        B2_5_N1, _only("l1"), "check-exhaustion {file}", 2,
        err=f"error: {EMPTY_L1}\n"),
    "cut-to-l1-verify": Mutant(
        B2_5_N1, _only("l1"), "verify {dir}", 1,
        {"exhaustion": _skipped("exhaustion", EMPTY_L1)}),
    "zero-l4-edge-check-exhaustion": Mutant(
        B2_5_N1, _zero_l4_edge, "check-exhaustion {file}", 2,
        err=f"error: {ZERO_L4_EDGE}\n"),
    "zero-l4-edge-verify": Mutant(
        B2_5_N1, _zero_l4_edge, "verify {dir}", 1, {
            "validate": _failed(
                "validate", "[target-edges] rays.l4.contraction"
                ".target_edges[0]: zero edge vector"),
            "exhaustion": _skipped("exhaustion", ZERO_L4_EDGE),
            "facet-patch": _skipped("facet-patch", ZERO_L4_EDGE)}),
    "l4-edges-holding-a-line-check-exhaustion": Mutant(
        B2_5_N1, _l4_edge(["0", "0", "1", "0"]), "check-exhaustion {file}", 2,
        err=f"error: {L4_LINE}\n"),
    "l4-edges-holding-a-line-verify": Mutant(
        # validate names the line once, so the other two skip with it
        B2_5_N1, _l4_edge(["0", "0", "1", "0"]), "verify {dir}", 1, {
            "validate": _failed("validate", "[target-edges] rays.l4"
                                ".contraction.target_edges: edge cone "
                                "contains the line through (0, 0, -1, 0)"),
            "exhaustion": _skipped("exhaustion", L4_LINE),
            "facet-patch": _skipped("facet-patch", L4_LINE),
            "flop-tables": NO_CONFIG}),
    "l4-edge-repeated-check-exhaustion": Mutant(
        # checked once: the output without l8 of the unedited record
        B2_5_N1, _l4_edge(["1", "1", "-1", "1"]),
        "check-exhaustion {file} --drop-ray l8", 1, {
            "record": "B2=5/n1", "verdict": "fail", "reciprocal_failures": [],
            "candidates": ["l1", "l2", "l3", "l4", "l5", "l6", "l7"],
            "misses": [{"ray_index": k, "ray": f"l{k}", "edge": edge,
                        "note": "no candidate maps onto this edge"}
                       for k, edge in ((4, [1, 1, -1, 1]), (5, [1, 1, -1, 1]),
                                       (6, [1, 1, -1, 1]),
                                       (7, [1, 1, 1, 2]))]}),
    "l4-edge-repeated-verify": Mutant(
        B2_5_N1, _l4_edge(["1", "1", "-1", "1"]), "verify {dir}", 1,
        {"validate": _failed("validate", *(
            f"[target-edges] rays.l4.contraction.target_edges[{i}]: edge "
            f"(1, 1, -1, 1) lies in the cone of the other edges"
            for i in (3, 4)))}),
    "rank-one-without-l1-verify": Mutant(
        "records/b2_2_n1.json", _only("l2"), "verify {dir}", 1, {
            "exhaustion": {
                "check": "exhaustion", "status": "fail", "findings": [],
                "detail": {"record": "B2=2/n1", "candidates": ["l2"],
                           "verdict": "fail", "reciprocal_failures": [],
                           "misses": [{"ray_index": 1, "ray": "l2",
                                       "edge": [1], "note": "no candidate "
                                       "maps onto this edge"}]}}}),
    "rank-one-without-l1-verify-human": Mutant(
        "records/b2_2_n1.json", _only("l2"), "verify {dir} --human", 1,
        "B2=2/n1            fail  (b2_2_n1.json)\n"
        "  validate     fail\n"
        "    [antiK-combo] rays: ray rows of rank 1 cannot determine a rank-2 "
        "anticanonical combination\n"
        "  exhaustion   fail\n"
        "    [exhaustion] rays.l2: no candidate maps onto this edge (1,)\n"
        "  facet-patch  skipped\n"
        "  flop-tables  skipped\n"
        "1 records, 0 flop configs: fail\n"),
    # -K rows
    "zero-row-derive-antik": Mutant(
        "records/b2_2_n1.json", _append_ray(
            "lz", ["0", "0"], "1", {"target": None,
                                    "pullback": [["0"], ["1"]]}, "E1"),
        "derive-antik {file}", 1, {"record": "B2=2/n1",
                                   "status": "inconsistent",
                                   "witnesses": ["lz"]}),
    "l3-in-the-plane-derive-antik": Mutant(
        "records/b2_3_n31.json",
        lambda d: d["rays"][2].update(vec=["-2", "1", "1"], antiK="2"),
        "derive-antik {file}", 1,
        {"record": "B2=3/n31", "status": "underdetermined", "kernel_dim": 1}),
    "irreducible-triple-derive-antik": Mutant(
        # every two rows agree: the witness comes from the greedy reduction
        "records/b2_2_n1.json", _append_ray("l3", ["0", "1"], "3"),
        "derive-antik {file}", 1, {"record": "B2=2/n1",
                                   "status": "inconsistent",
                                   "witnesses": ["l1", "l2", "l3"]}),
    # flop tables and configurations
    "l12-cell-verify": Mutant(
        N28_E5, _l12_cell, "verify {dir}", 1,
        {"flop-tables": _failed("flop-tables", L12)}),
    "l12-cell-flop": Mutant(
        N28_E5, _l12_cell, "flop {dir}/e5_b2_2_n28.json --record {file}", 1,
        {"table_findings": [L12]}),
    "tracked-divisors-verify": Mutant(
        E5_N28, _wrong_tracked_divisors, "verify {dir}", 1,
        {"flop-tables": _failed(
            "flop-tables", f"[flop-config] e5_b2_2_n28.json: {TRACKED}")}),
    "tracked-divisors-flop": Mutant(
        E5_N28, _wrong_tracked_divisors,
        "flop {file} --record {dir}/b2_2_n28.json", 2,
        err=f"error: {TRACKED}\n"),
    "vanishing-conditions-verify": Mutant(
        "flops/e1_b2_2_n1.json records/b2_2_n1.json",
        _zero_contracted_exc_rows, "verify {dir}", 1, {"flop-tables": _failed(
            "flop-tables", "[flop-config] e1_b2_2_n1.json: inconsistent "
            "vanishing conditions for 'E': curves ['M']")}),
    "no-result-curves-verify": Mutant(
        E5_N28, _no_result_curves, "verify {dir}", 2,
        err=f"error: {{file}}: {ONE_RESULT}\n"),
    "no-result-curves-flop": Mutant(
        E5_N28, _no_result_curves, "flop {file} --record {dir}/b2_2_n28.json",
        2, err=f"error: {ONE_RESULT}\n"),
    "renamed-ray-verify": Mutant(
        "mistakes/b2_2_n8_mistake.json records/b2_2_n8.json", _rename_l2_to_l9,
        "verify {dir}", 1, {"corrections": _failed(
            "corrections",
            "[correction] rays.l1: (-1, 1 | 1) should read (1, 1 | 1)",
            "[correction] rays.l9: ray absent from the reference record",
            "[correction] rays.l2: ray missing (present in the reference)",
            "[correction] flop_tables.l2.l12: row missing (present in the "
            "reference)",
            "[correction] flop_tables.l2.l22: row missing (present in the "
            "reference)",
            "[correction] flop_tables.l9.l11: row label absent from the "
            "reference",
            "[correction] flop_tables.l9.l21: row label absent from the "
            "reference")}),
    # schema errors: exit 2, naming the entry
    "chamber-self-loop-verify": Mutant(
        "records/b2_3_n31.json", lambda d: d["chambers"]["edges"].append(
            {"from": "T", "to": "T", "type": "Bogus"}), "verify {dir}", 2,
        err="error: {file}: record.chambers.edges[3]: illegal flop type "
            "'Bogus'\n"),
    **{f"ray-type-{ray_type}-verify": Mutant(
        # a flopping curve is K-trivial and no fixture has a fiber-type ray
        "records/b2_3_n31.json",
        lambda d, ray_type=ray_type: d["rays"][2].update(type=ray_type),
        "verify {dir}", 2, err=f"error: {{file}}: record.rays[2].type: "
                               f"unknown ray type {ray_type!r}\n")
       for ray_type in ("F_fiber", "Flopping")},
    "ray-type-a-list-verify": Mutant(
        "records/b2_3_n31.json", lambda d: d["rays"][2].update(type=["C"]),
        "verify {dir}", 2, err="error: {file}: record.rays[2].type: unknown "
                               "ray type ['C']\n"),
    "flop-types-doubled-nef": Mutant(
        "records/b2_2_n28.json", _doubled_flop_types, "nef {file}", 2,
        err=f"error: {DOUBLED_E1}\n"),
    "flop-types-doubled-verify": Mutant(
        "records/b2_2_n28.json", _doubled_flop_types, "verify {dir}", 2,
        err=f"error: {{file}}: {DOUBLED_E1}\n"),
    "exceptional-divisor-repeated-flop": Mutant(
        # parsed, the two D1 columns would collapse into one key
        "flops/e5_b2_2_n28.json",
        lambda d: d.update(exceptional_divisors=["D1", "D1"]), "flop {file}",
        2, err="error: flop.exceptional_divisors[1]: duplicate name 'D1'\n"),
    "result-curve-repeated-flop": Mutant(
        E5_N28, lambda d: d.update(result_curves=["l12", "l12", "l22"]),
        "flop {file} --record {dir}/b2_2_n28.json", 2,
        err="error: flop.result_curves[1]: duplicate name 'l12'\n"),
    "overlong-literal-verify": Mutant(
        "records/b2_2_n1.json",
        lambda d: d["rays"][0].update(antiK="7" * 5000),
        "verify {dir}", 2, err="error: {file}: record.rays[0].antiK: bad "
                               f"rational literal '{'7' * 39}… (5002 "
                               "characters)\n"),
    "record-text-in-a-json-string-verify": Mutant(
        "records/b2_2_n1.json", json.dumps, "verify {dir}", 2,
        err=f"error: {{file}}: {NOT_AN_OBJECT}\n"),
    "record-text-in-a-json-string-nef": Mutant(
        "records/b2_2_n1.json", json.dumps, "nef {file}", 2,
        err=f"error: {NOT_AN_OBJECT}\n"),
    "flop-table-not-array-check-exhaustion": Mutant(
        B2_5_N1, lambda d: d["flop_tables"].update({"l5": 5}),
        "check-exhaustion {file}", 2,
        err="error: record.flop_tables.l5: expected array, got int\n"),
    "flop-row-label-list-check-exhaustion": Mutant(
        B2_5_N1, lambda d: d["flop_tables"]["l1"][0].update({"label": ["x"]}),
        "check-exhaustion {file}", 2,
        err="error: record.flop_tables.l1[0].label: expected non-empty "
            "string\n"),
    "chamber-nodes-int-check-exhaustion": Mutant(
        B2_5_N1, lambda d: d["chambers"].update({"nodes": 5}),
        "check-exhaustion {file}", 2,
        err="error: record.chambers.nodes: expected array, got int\n"),
    "chamber-edges-int-check-exhaustion": Mutant(
        B2_5_N1, lambda d: d["chambers"].update({"edges": 5}),
        "check-exhaustion {file}", 2,
        err="error: record.chambers.edges: expected array, got int\n"),
    "test-curves-int-flop": Mutant(
        "flops/e1_b2_2_n1.json", lambda d: d.update({"test_curves": 3}),
        "flop {file}", 2,
        err="error: flop.test_curves: expected array, got int\n"),
    "test-curve-label-list-flop": Mutant(
        "flops/e1_b2_2_n1.json",
        lambda d: d["test_curves"][0].update({"label": ["x"]}), "flop {file}",
        2, err="error: flop.test_curves[0].label: expected non-empty "
               "string\n"),
    "rays-not-an-array-verify": Mutant(
        "records/b2_2_n1.json", lambda d: d.update(rays=5), "verify {dir}", 2,
        err="error: {file}: record.rays: expected array, got int\n"),
    # unusable input that is no edit of a record: exit 2, naming its path
    "a-file-verify": Mutant(
        "records/b2_2_n1.json", None, "verify {file}", 2,
        err="error: {file}: not a directory\n"),
    "a-directory-entry-verify": Mutant(
        "", None, "verify {dir}", 2,
        err="error: {dir}/x.json: unreadable: [Errno 21] Is a directory: "
            "'{dir}/x.json'\n", written={"x.json": None}),
    "only-flop-configurations-verify": Mutant(
        "flops/e5_b2_2_n28.json", None, "verify {dir}", 2,
        err="error: {dir}: no record files\n"),
    "an-unknown-drop-ray-check-exhaustion": Mutant(
        B2_5_N1, None, "check-exhaustion {file} --drop-ray l99", 2,
        err="error: {file}: unknown ray label 'l99' (record has ['l1', 'l2', "
            "'l3', 'l4', 'l5', 'l6', 'l7', 'l8'])\n"),
    "a-proposal-that-is-no-vector-check-exhaustion": Mutant(
        B2_5_N1, None, "check-exhaustion {file} --propose {dir}/p.json", 2,
        err=NO_VECTOR, written={"p.json": '{"vec": 3}'}),
    "a-proposal-wrapped-in-an-object-check-exhaustion": Mutant(
        # a proposal is read as a record's vectors are: a bare array
        B2_5_N1, None, "check-exhaustion {file} --propose {dir}/p.json", 2,
        err=NO_VECTOR,
        written={"p.json": '{"vec": ["0", "0", "0", "0", "1"]}'}),
}


@pytest.mark.parametrize("name", MUTANTS)
def test_a_fixture_mutant(name, capsys, tmp_path):
    mutant = MUTANTS[name]
    sources = mutant.files.split()
    for source in sources:
        shutil.copy(datafiles.data_root() / source, tmp_path)
    for written, text in mutant.written.items():
        if text is None:
            (tmp_path / written).mkdir()
        else:
            (tmp_path / written).write_text(text)
    path = tmp_path / Path(sources[0]).name if sources else tmp_path
    if mutant.edit is not None:
        data = json.loads(path.read_text())
        path.write_text(json.dumps(mutant.edit(data) or data))

    def fill(text):
        return text.replace("{dir}", str(tmp_path)).replace("{file}",
                                                            str(path))

    code, out, err = run_cli(capsys, *map(fill, mutant.argv.split()))
    expected = mutant.out if isinstance(mutant.out, dict) else fill(mutant.out)
    if isinstance(expected, dict):
        view = json.loads(out)
        if "reports" in view:
            view = next({s["check"]: s for s in report["sections"]}
                        for source in sources for report in view["reports"]
                        if report["file"] == Path(source).name)
        out = {key: view[key] for key in expected if key in view}
    assert (code, out, err) == (mutant.code, expected, fill(mutant.err))
