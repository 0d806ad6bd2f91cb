"""Golden CLI output: stdout and stderr byte for byte, plus the exit code.

The expected files under ``tests/golden/`` hold the CLI's output on the
packaged fixtures; a refactor of the engine must leave them unchanged.
``<case>.out`` holds stdout; ``<case>.err`` holds stderr and exists only
for the cases that write to it (the others must write nothing there).
To recapture after a deliberate output change, run
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from fanoray import datafiles
from fanoray.cli import main

from conftest import MEMOS, flat_fixtures

GOLDEN = Path(__file__).resolve().parent / "golden"
CORRECTED = ("b2_2_n1", "b2_2_n28", "b2_2_n30", "b2_2_n8", "b2_3_n31",
             "b2_4_n12", "b2_4_n13", "b2_4_n3", "b2_5_n1")


def _cases():
    root = datafiles.data_root()
    records = root / "records"
    cases = {"verify_json": ("verify", "{dir}"),
             "verify_human": ("verify", "{dir}", "--human"),
             "verify_drop_l8": ("verify", "{drop_l8}", "--human"),
             "verify_default_human": ("verify", "--human")}
    for stem in CORRECTED:
        cases[f"nef_{stem}"] = ("nef", str(records / f"{stem}.json"))
    b2_5_n1 = str(records / "b2_5_n1.json")
    cases["exhaustion_drop_l8"] = ("check-exhaustion", b2_5_n1,
                                   "--drop-ray", "l8")
    cases["exhaustion_drop_l8_derived"] = ("check-exhaustion", b2_5_n1,
                                           "--drop-ray", "l8",
                                           "--targets", "derived")
    cases["exhaustion_drop_l8_propose"] = ("check-exhaustion", b2_5_n1,
                                           "--drop-ray", "l8",
                                           "--propose", "{l8}")
    cases["exhaustion_b2_2_n8_mistake"] = (
        "check-exhaustion", str(root / "mistakes" / "b2_2_n8_mistake.json"))
    for sub, stem in (("records", "b2_5_n1"), ("mistakes", "b2_5_n1_mistake"),
                      ("extra", "b2_4_n2")):
        cases[f"derive_antik_{stem}"] = ("derive-antik",
                                         str(root / sub / f"{stem}.json"))
    for config, sub, stem in (("e3_b2_2_n8", "mistakes", "b2_2_n8_mistake"),
                              ("e5_b2_2_n28", "records", "b2_2_n28")):
        cases[f"flop_{config}_{stem}"] = (
            "flop", str(root / "flops" / f"{config}.json"),
            "--record", str(root / sub / f"{stem}.json"))
    return cases


CASES = _cases()


def _l8_proposal(tmp: Path) -> Path:
    """A proposal file holding the vector of b2_5_n1's ray l8."""
    record = json.loads(
        (datafiles.records_dir() / "b2_5_n1.json").read_text())
    vec = next(r["vec"] for r in record["rays"] if r["label"] == "l8")
    path = tmp / "l8.proposal.json"
    path.write_text(json.dumps(vec))
    return path


def _drop_l8_dir(tmp: Path) -> Path:
    """A one-file directory: b2_5_n1 without its ray l8 or l8's flop table."""
    record = json.loads(
        (datafiles.records_dir() / "b2_5_n1.json").read_text())
    record["rays"] = [r for r in record["rays"] if r["label"] != "l8"]
    del record["flop_tables"]["l8"]
    (tmp / "b2_5_n1.json").write_text(json.dumps(record))
    return tmp


def _run(argv, tmp: Path):
    """(exit code, stdout, stderr) of one CLI call; the placeholders
    ``{dir}``, ``{drop_l8}`` and ``{l8}`` become a fixture directory, a
    directory holding b2_5_n1 without l8, and a proposal file."""
    fill = {"{dir}": flat_fixtures, "{drop_l8}": _drop_l8_dir,
            "{l8}": _l8_proposal}
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        code = main([str(fill[a](tmp)) if a in fill else a for a in argv])
    return code, stdout.getvalue(), stderr.getvalue()


def _expected_codes() -> dict:
    return json.loads((GOLDEN / "exit_codes.json").read_text())


def _golden(name: str):
    """The (exit code, stdout, stderr) recorded for one case."""
    err_file = GOLDEN / f"{name}.err"
    return (_expected_codes()[name],
            (GOLDEN / f"{name}.out").read_text(encoding="utf-8"),
            err_file.read_text(encoding="utf-8") if err_file.exists() else "")


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    assert _run(CASES[name], tmp_path) == _golden(name)


def test_the_memos_change_no_golden_byte(tmp_path):
    # every case twice in one process, the second time with the memos warm
    # from every case before it, then once more after emptying them
    for sweep in range(3):
        if sweep == 2:
            for memo in MEMOS:
                memo.cache_clear()
        for name in sorted(CASES):
            run_dir = tmp_path / f"{sweep}-{name}"
            run_dir.mkdir()
            assert _run(CASES[name], run_dir) == _golden(name), (sweep, name)


def _recapture() -> None:
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name, argv in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as tmp:
            codes[name], out, err = _run(argv, Path(tmp))
        (GOLDEN / f"{name}.out").write_text(out, encoding="utf-8")
        err_file = GOLDEN / f"{name}.err"
        if err:
            err_file.write_text(err, encoding="utf-8")
        elif err_file.exists():
            err_file.unlink()
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(codes, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    _recapture()
    sys.exit(0)
