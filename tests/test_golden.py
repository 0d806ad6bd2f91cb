"""Golden CLI output: stdout byte for byte, plus the exit code.

The expected files under ``tests/golden/`` hold the CLI's output on the
packaged fixtures; a refactor of the engine must leave them unchanged.
To recapture after a deliberate output change, run
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from fanoray import datafiles
from fanoray.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CORRECTED = ("b2_2_n1", "b2_2_n28", "b2_2_n30", "b2_2_n8", "b2_3_n31",
             "b2_4_n12", "b2_4_n13", "b2_4_n3", "b2_5_n1")


def _all_fixtures_dir(tmp: Path) -> Path:
    """All 13 record fixtures and the 4 flop configurations, flat."""
    root = datafiles.data_root()
    for sub in ("records", "mistakes", "extra", "flops"):
        for path in (root / sub).glob("*.json"):
            shutil.copy(path, tmp / path.name)
    return tmp


def _cases():
    records = datafiles.records_dir()
    cases = {"verify_json": ("verify", "{dir}"),
             "verify_human": ("verify", "{dir}", "--human")}
    for stem in CORRECTED:
        cases[f"nef_{stem}"] = ("nef", str(records / f"{stem}.json"))
    b2_5_n1 = str(records / "b2_5_n1.json")
    cases["exhaustion_drop_l8"] = ("check-exhaustion", b2_5_n1,
                                   "--drop-ray", "l8")
    cases["exhaustion_drop_l8_derived"] = ("check-exhaustion", b2_5_n1,
                                           "--drop-ray", "l8",
                                           "--targets", "derived")
    return cases


CASES = _cases()


def _run(argv, tmp: Path):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([str(_all_fixtures_dir(tmp)) if a == "{dir}" else a
                     for a in argv])
    return code, stdout.getvalue()


def _expected_codes() -> dict:
    return json.loads((GOLDEN / "exit_codes.json").read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    code, out = _run(CASES[name], tmp_path)
    assert code == _expected_codes()[name]
    assert out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")


def _recapture() -> None:
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name, argv in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as tmp:
            codes[name], out = _run(argv, Path(tmp))
        (GOLDEN / f"{name}.out").write_text(out, encoding="utf-8")
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(codes, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    _recapture()
    sys.exit(0)
