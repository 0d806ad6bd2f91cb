import json
import shutil
import subprocess
import sys

import pytest

from fanoray.cli import main
from fanoray.flop import parse_flop_config
from fanoray.model import RecordError, parse_record


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


def test_check_exhaustion_unknown_label(capsys, record_paths):
    code, _, err = run_cli(capsys, "check-exhaustion",
                           str(record_paths["b2_5_n1"]), "--drop-ray", "l99")
    assert code == 2
    assert "l99" in err


def test_check_exhaustion_with_proposal(capsys, record_paths, tmp_path,
                                        records):
    proposal = tmp_path / "l8.json"
    proposal.write_text(json.dumps(
        {"vec": records["b2_5_n1"].ray("l8").vec.to_strings()}))
    code, out, _ = run_cli(capsys, "check-exhaustion",
                           str(record_paths["b2_5_n1"]),
                           "--drop-ray", "l8", "--propose", str(proposal))
    assert code == 0
    payload = json.loads(out)
    assert len(payload["trail"]) == 2
    assert payload["trail"][0]["verdict"] == "fail"
    assert payload["trail"][1]["verdict"] == "pass"
    assert payload["final_candidates"][-1] == "l8"


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


@pytest.mark.parametrize("text", ["nope", "[]", '["x"]', "[1.5]"])
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
