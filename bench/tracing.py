"""Per-layer spans for a traced run, recorded from outside the package.

Timing wrappers replace the layer functions in every fanoray module that
holds them by name (``rank`` in ``model`` and ``exhaustion``,
``build_targets`` in ``cli``, ...) and the ``Cone`` methods on the class,
so no call escapes through an alias.  Nothing under ``src/`` is edited.

A span's self time is its duration minus the time covered by the timed
calls nested in it.  Spans stay in memory and are written out at the end.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# (defining module, function) -> span name
FUNCTIONS = {
    ("rational", "solve_linear"): "rational.solve",
    ("rational", "rank"): "rational.rank",
    ("cone", "dual_description"): "cone.dd",
    ("model", "parse_record"): "model.parse",
    ("model", "validate_record"): "model.validate",
    ("model", "derive_antiK_combo"): "model.antik",
    ("model", "diff_records"): "model.diff",
    ("exhaustion", "build_targets"): "exhaustion.targets",
    ("exhaustion", "derive_target_edges"): "exhaustion.derive",
    ("exhaustion", "pushforward_map"): "exhaustion.pushforward",
    ("exhaustion", "check_exhaustion"): "exhaustion.check",
    ("exhaustion", "extend_candidates"): "exhaustion.extend",
    ("chambers", "nef_cone"): "chambers.nef",
    ("chambers", "facet_patch_check"): "chambers.facet_patch",
    ("flop", "compute_flop"): "flop.compute",
    ("flop", "verify_against_table"): "flop.table",
    ("cli", "main"): "cli",
}
CONE_METHODS = {
    "is_pointed": "cone.pointed",
    "membership": "cone.membership",
    "extreme_rays": "cone.extreme",
    "facets": "cone.facets",
    "image": "cone.image",
    "codim2_faces": "cone.codim2",
}
# Called too often for a span each; counted only.
COUNTED = {("cone", "canonicalize_ray"): "cone.canonicalize"}


def _dd_key(args, kwargs):
    generators, dim = args
    return dim, frozenset(generators)


def _pointed_key(args, kwargs):
    cone = args[0]
    return cone.ambient_dim, frozenset(cone.generators)


# span name -> key of the input, for counting distinct inputs
DISTINCT = {"cone.dd": _dd_key, "cone.pointed": _pointed_key}

# Per-layer metrics: name -> (span name, what).  "self" is the summed self
# time in seconds, "calls" the number of calls, "distinct" the number of
# distinct inputs among those calls.
METRICS = {
    "cone.dd_s": ("cone.dd", "self"),
    "cone.dd_calls": ("cone.dd", "calls"),
    "cone.dd_distinct": ("cone.dd", "distinct"),
    "cone.extreme_s": ("cone.extreme", "self"),
    "cone.facets_s": ("cone.facets", "self"),
    "cone.pointed_s": ("cone.pointed", "self"),
    "cone.pointed_calls": ("cone.pointed", "calls"),
    "cone.pointed_distinct": ("cone.pointed", "distinct"),
    "cone.membership_s": ("cone.membership", "self"),
    "cone.membership_calls": ("cone.membership", "calls"),
    "cone.image_s": ("cone.image", "self"),
    "cone.codim2_s": ("cone.codim2", "self"),
    "cone.canonicalize_calls": ("cone.canonicalize", "calls"),
    "exhaustion.targets_s": ("exhaustion.targets", "self"),
    "exhaustion.targets_calls": ("exhaustion.targets", "calls"),
    "exhaustion.derive_calls": ("exhaustion.derive", "calls"),
    "exhaustion.pushforward_s": ("exhaustion.pushforward", "self"),
    "exhaustion.pushforward_calls": ("exhaustion.pushforward", "calls"),
    "exhaustion.check_s": ("exhaustion.check", "self"),
    "exhaustion.extend_s": ("exhaustion.extend", "self"),
    "model.parse_s": ("model.parse", "self"),
    "model.parse_calls": ("model.parse", "calls"),
    "model.validate_s": ("model.validate", "self"),
    "model.antik_s": ("model.antik", "self"),
    "model.diff_s": ("model.diff", "self"),
    "chambers.nef_s": ("chambers.nef", "self"),
    "chambers.facet_patch_s": ("chambers.facet_patch", "self"),
    "flop.compute_s": ("flop.compute", "self"),
    "flop.table_s": ("flop.table", "self"),
    "rational.solve_s": ("rational.solve", "self"),
    "rational.solve_calls": ("rational.solve", "calls"),
    "rational.rank_s": ("rational.rank", "self"),
    "rational.rank_calls": ("rational.rank", "calls"),
    "cli.self_s": ("cli", "self"),
}


class Tracer:
    """Collects spans of the passes run while its wrappers are installed."""

    def __init__(self):
        # (pass, id, parent id, name, start, end, self time)
        self.spans: list[tuple] = []
        self.pass_index = -1
        self._stack: list[list] = []   # [span id, time covered by children]
        self._next_id = 0
        self.self_time: Counter = Counter()
        self.calls: Counter = Counter()
        self.inputs: dict[str, set] = defaultdict(set)

    def begin_pass(self, index: int) -> None:
        self.pass_index = index
        self.self_time = Counter()
        self.calls = Counter()
        self.inputs = defaultdict(set)

    def pass_metrics(self) -> dict[str, float | int]:
        """The per-layer metrics of the pass begun last."""
        out = {}
        for metric, (span, what) in METRICS.items():
            if what == "self":
                out[metric] = self.self_time[span]
            elif what == "calls":
                out[metric] = self.calls[span]
            else:
                out[metric] = len(self.inputs[span])
        return out

    def _timed(self, name, fn):
        key_of = DISTINCT.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            if key_of is not None:
                self.inputs[name].add(key_of(args, kwargs))
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            frame = [span_id, 0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                duration = t1 - t0
                if parent is not None:
                    parent[1] += duration
                own = duration - frame[1]
                self.self_time[name] += own
                self.spans.append((self.pass_index, span_id,
                                   parent[0] if parent else None, name,
                                   t0, t1, own))
        return wrapper

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self, package) -> None:
        """Wrap the layer functions of a freshly imported fanoray package.

        Each wrapper replaces the original in every fanoray module that
        holds it by name, the package namespace included.
        """
        modules = [m for name, m in sys.modules.items()
                   if name == package.__name__
                   or name.startswith(package.__name__ + ".")]
        for table, make in ((FUNCTIONS, self._timed),
                            (COUNTED, self._counted)):
            for (home, fname), span in table.items():
                original = getattr(sys.modules[f"{package.__name__}.{home}"],
                                   fname)
                wrapped = make(span, original)
                for module in modules:
                    if getattr(module, fname, None) is original:
                        setattr(module, fname, wrapped)
        cone_cls = sys.modules[f"{package.__name__}.cone"].Cone
        for method, span in CONE_METHODS.items():
            setattr(cone_cls, method, self._timed(span, getattr(cone_cls,
                                                                method)))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for p, sid, parent, name, t0, t1, own in self.spans:
                fh.write(json.dumps({"pass": p, "id": sid, "parent": parent,
                                     "name": name, "start": t0, "end": t1,
                                     "self": own}) + "\n")
