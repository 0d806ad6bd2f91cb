"""Each fact is computed once, and only where a caller reads it.

The counters wrap a fanoray function in every fanoray module that holds
it by name, so a call cannot escape through an import alias.
"""

import contextlib
import importlib
import io
import json
import shutil
import sys

import pytest

from fanoray import datafiles
from fanoray.chambers import facet_patch_check
from fanoray.cli import main
from fanoray.cone import Cone
from fanoray.exhaustion import build_targets, pushforward_map
from fanoray.model import record_from_json

from oracles import minus_one_curves
from test_cone import B2_5_N1_RAYS


def count_calls(monkeypatch, home: str, name: str) -> list:
    """Arguments of every call of ``fanoray.<home>.<name>`` from now on."""
    original = getattr(importlib.import_module(f"fanoray.{home}"), name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if ((module_name == "fanoray" or module_name.startswith("fanoray."))
                and getattr(module, name, None) is original):
            monkeypatch.setattr(module, name, counted)
    return calls


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
    root = datafiles.data_root()
    for sub in ("records", "mistakes", "extra"):
        for path in (root / sub).glob("*.json"):
            shutil.copy(path, tmp_path / path.name)
    assert len(list(tmp_path.glob("*.json"))) == 13
    calls = count_calls(monkeypatch, "model", "derive_antiK_combo")
    assert _cli(["verify", str(tmp_path)]) == 1
    assert len(calls) == 13


def test_pushforward_chart_is_ranked_once(monkeypatch):
    path = datafiles.records_dir() / "b2_5_n1.json"
    record = record_from_json(json.loads(path.read_text(encoding="utf-8")))
    calls = count_calls(monkeypatch, "rational", "rank")
    first = pushforward_map(record, "l1")
    assert len(calls) == 1
    second = pushforward_map(record, "l1")
    assert len(calls) == 1
    assert second == first


def test_facet_patch_tests_each_dual_generator_once(monkeypatch, records):
    record = records["b2_5_n1"]
    targets = build_targets(record, prefer_record_tables=False)
    expected = sum(len(Cone(record.rho - 1, list(t.edges)).dual().generators)
                   for t in targets.values())
    calls = []
    membership = Cone.membership

    def counted(self, v):
        calls.append(v)
        return membership(self, v)

    monkeypatch.setattr(Cone, "membership", counted)
    assert facet_patch_check(record, targets) == []
    assert len(calls) == expected


@pytest.mark.parametrize("dim, generators", [
    (8, minus_one_curves(7)), (5, B2_5_N1_RAYS)], ids=["gosset7", "b2_5_n1"])
def test_extreme_rays_compute_no_rank(monkeypatch, dim, generators):
    cone = Cone(dim, generators)
    calls = count_calls(monkeypatch, "rational", "rank")
    assert cone.extreme_rays() == tuple(sorted(generators))
    assert calls == []
