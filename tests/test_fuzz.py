"""Malformed input never crashes: one JSON node of a fixture replaced.

Each example takes one packaged fixture (corrected record, mistake, extra
table or flop configuration), replaces one node of its JSON tree, the root
included, with a value from a small pool of wrong types and values, and
checks that

* the loaders either succeed or raise ``RecordError``;
* every CLI command exits 0, 1 or 2 and raises nothing.

The single-record commands feed schema-checked but unvalidated records
straight to the engine, so this is their guard against tracebacks.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fanoray import datafiles
from fanoray.cli import main
from fanoray.flop import parse_flop_config
from fanoray.model import RecordError, parse_record, record_from_json

POOL = (0, -1, "x", "1/0", [], [[1]], {}, None, True, 1.5)


def _fixtures():
    """(sub-directory, file name, parsed JSON) of every packaged fixture."""
    root = datafiles.data_root()
    return [(sub, path.name, json.loads(path.read_text(encoding="utf-8")))
            for sub in ("records", "mistakes", "extra", "flops")
            for path in sorted((root / sub).glob("*.json"))]


FIXTURES = _fixtures()


def _node_paths(node, path=()):
    """Key/index paths of every node of a JSON tree, root first."""
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _node_paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _node_paths(value, path + (i,))


def _replaced(doc, path, value):
    value = copy.deepcopy(value)
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


mutations = st.sampled_from(FIXTURES).flatmap(
    lambda fixture: st.tuples(st.just(fixture),
                              st.sampled_from(list(_node_paths(fixture[2]))),
                              st.sampled_from(POOL)))


CONFIGS = [(datafiles.data_root() / sub / name, doc)
           for sub, name, doc in FIXTURES if sub == "flops"]


def _record_key(record_id: dict) -> tuple:
    return record_id["b2"], record_id["n"]


def _run(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main([str(a) for a in argv])


@given(mutation=mutations)
@settings(max_examples=300, deadline=None)
def test_loaders_raise_only_record_error(mutation):
    (sub, _, doc), path, value = mutation
    mutated = _replaced(doc, path, value)
    text = json.dumps(mutated)
    if sub == "flops":
        loads = [lambda: parse_flop_config(text)]
    else:
        loads = [lambda: record_from_json(mutated),
                 lambda: parse_record(text, strict=False),
                 lambda: parse_record(text)]
    for load in loads:
        try:
            load()
        except RecordError:
            pass


@given(mutation=mutations)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_cli_exits_0_1_or_2(mutation):
    (sub, name, doc), path, value = mutation
    with tempfile.TemporaryDirectory() as tmp:
        batch = Path(tmp)
        target = batch / name
        target.write_text(json.dumps(_replaced(doc, path, value)),
                          encoding="utf-8")
        if sub == "flops":
            b2, n = _record_key(doc["record"])
            record = datafiles.records_dir() / f"b2_{b2}_n{n}.json"
            (batch / record.name).write_text(record.read_text())
            commands = [["flop", target], ["flop", target, "--record", record]]
        else:
            for config, _ in CONFIGS:
                (batch / config.name).write_text(config.read_text())
            commands = [["check-exhaustion", target],
                        ["check-exhaustion", target, "--targets", "derived"],
                        ["nef", target], ["derive-antik", target]]
            commands += [["flop", config, "--record", target]
                         for config, data in CONFIGS
                         if _record_key(data["record"])
                         == _record_key(doc["id"])]
        commands.append(["verify", batch])
        for argv in commands:
            assert _run(argv) in (0, 1, 2), argv
