"""The traced benchmark wraps fanoray functions and Cone methods by name.

``bench/tracing.py`` is read, never imported as a file module, so this
test leaves the benchmark directory untouched.
"""

import importlib
import types
from pathlib import Path

from fanoray.cone import Cone

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    module = types.ModuleType("bench_tracing")
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"),
         module.__dict__)
    return module


def test_every_traced_name_resolves():
    tracing = _tracing()
    for home, name in list(tracing.FUNCTIONS) + list(tracing.COUNTED):
        module = importlib.import_module(f"fanoray.{home}")
        assert callable(getattr(module, name, None)), f"fanoray.{home}.{name}"
    for method in tracing.CONE_METHODS:
        assert callable(getattr(Cone, method, None)), f"Cone.{method}"
