"""The benchmark's workloads: inputs from a seed, set-up, one pass, checks.

A workload object has

* ``make_inputs(data_dir, work_dir, rng)``: writes its input files (not
  timed);
* ``load(fanoray, cli)``: the program's own set-up, loading the inputs
  through fanoray's loaders (timed as ``setup_s``);
* ``operations(fanoray, cli, state)``: the pass, as ``(key, thunk)`` pairs
  run once each on objects built by the last ``load``;
* ``check(results)``: ``(errors, failed)`` from the benchmark's own
  int/Fraction arithmetic; ``failed`` counts the operations that hit the
  known fault the workload keeps;
* ``corrupt(results)``: a copy with one output altered, which ``check``
  must reject (the self-test);
* ``setups_per_pass``: set-ups timed before each pass, more where passes
  are long and few, so that every run has enough set-up samples.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
from collections import Counter
from pathlib import Path

import oracle

FINDING = re.compile(r"\[([^\]]+)\] (\S+): ")


def call_cli(cli, argv):
    """Run ``fanoray`` in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def write_json(path: Path, data) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")


def table_rows(raw) -> dict[str, tuple]:
    """Every row of a raw record, keyed as fanoray keys its findings."""
    rows = {}
    for ray in raw["rays"]:
        rows[f"rays.{ray['label']}"] = (ray["vec"], ray["antiK"])
    for key, table in raw["flop_tables"].items():
        for row in table:
            rows[f"flop_tables.{key}.{row['label']}"] = (row["vec"],
                                                         row["antiK"])
    return {k: (tuple(map(oracle.frac, v)), oracle.frac(a))
            for k, (v, a) in rows.items()}


def finding_keys(report, check: str) -> Counter:
    keys = Counter()
    for section in report["sections"]:
        for text in section["findings"]:
            m = FINDING.match(text)
            if m and m.group(1) == check:
                keys[m.group(2)] += 1
    return keys


# ---------------------------------------------------------------------------
# verify-all
# ---------------------------------------------------------------------------

class VerifyAll:
    """One ``fanoray verify`` over all 13 record fixtures and 4 flop configs.

    The seed permutes the file names, and with them the order of loading.
    """

    setups_per_pass = 1
    corpus = (("records", "record"), ("mistakes", "mistake"),
              ("extra", "extra"), ("flops", "flop"))

    def make_inputs(self, data_dir: Path, work_dir: Path, rng) -> None:
        sources = [(path, kind) for sub, kind in self.corpus
                   for path in sorted((data_dir / sub).glob("*.json"))]
        order = list(range(len(sources)))
        rng.shuffle(order)
        self.dir = work_dir / "all"
        self.dir.mkdir(parents=True)
        self.files = {}                      # name -> (kind, raw JSON)
        for k, (path, kind) in zip(order, sources):
            name = f"{k:02d}_{path.name}"
            shutil.copyfile(path, self.dir / name)
            self.files[name] = (kind, read_json(path))

    def load(self, fanoray, cli):
        loaded = []
        for name, (kind, _) in sorted(self.files.items()):
            text = (self.dir / name).read_text(encoding="utf-8")
            if kind == "flop":
                loaded.append(fanoray.parse_flop_config(text))
            else:
                loaded.append(fanoray.parse_record(text, strict=False))
        return loaded

    def operations(self, fanoray, cli, state):
        return [("verify", lambda: call_cli(cli, ["verify", str(self.dir)]))]

    def check(self, results):
        code, out, _ = results["verify"]
        errors = []
        if code != 1:
            errors.append(f"verify exit code {code}, expected 1")
        payload = json.loads(out)
        summary = payload["summary"]
        if (summary["records"], summary["flop_configs"]) != (13, 4):
            errors.append(f"summary {summary}, expected 13 records and 4 "
                          f"flop configurations")
        reports = {r["file"]: r for r in payload["reports"]}
        corrected = {}
        for name, (kind, raw) in self.files.items():
            if kind == "record":
                corrected[(raw["id"]["b2"], raw["id"]["n"])] = raw
        for name, (kind, raw) in sorted(self.files.items()):
            if kind == "flop":
                continue
            report = reports.get(name)
            if report is None:
                errors.append(f"{name}: no report")
                continue
            combo = [oracle.frac(x) for x in raw["antiK_combo"]]
            expected = Counter(k for k, (vec, antik) in table_rows(raw).items()
                               if oracle.dot(combo, vec) != antik)
            found = finding_keys(report, "antiK")
            if found != expected:
                errors.append(f"{name}: [antiK] findings on {dict(found)}, "
                              f"expected one on each of {sorted(expected)}")
            if kind == "record" and (report["status"] != "pass" or any(
                    s["findings"] for s in report["sections"])):
                errors.append(f"{name}: corrected record has findings")
            if kind == "mistake":
                rows = table_rows(raw)
                ref = table_rows(corrected[(raw["id"]["b2"], raw["id"]["n"])])
                differ = Counter(k for k in rows.keys() | ref.keys()
                                 if rows.get(k) != ref.get(k))
                found = finding_keys(report, "correction")
                if found != differ:
                    errors.append(f"{name}: [correction] findings on "
                                  f"{dict(found)}, expected one on each of "
                                  f"{sorted(differ)}")
        return errors, 0

    def corrupt(self, results):
        code, out, err = results["verify"]
        payload = json.loads(out)
        for report in payload["reports"]:
            for section in report["sections"]:
                if section["check"] == "corrections" and section["findings"]:
                    section["findings"].pop()
                    return {"verify": (code, json.dumps(payload), err)}
        raise AssertionError("no correction finding to remove")


# ---------------------------------------------------------------------------
# ray-audit
# ---------------------------------------------------------------------------

class RayAudit:
    """Three items per ray L of the 9 corrected records (32 rays):
    ``check-exhaustion --drop-ray L``, the same with L proposed back, and
    ``verify`` of the record file with L deleted.  The seed shuffles the
    order of the rays.

    The third item keeps a known fault: fanoray derives the exhaustion
    targets from the truncated record's own rays, so most deletions still
    report ``exhaustion pass``.  Each of those counts as failed.
    """

    setups_per_pass = 2

    def make_inputs(self, data_dir: Path, work_dir: Path, rng) -> None:
        self.raw = {}
        self.items = []     # (stem, label, record, proposal, truncated file)
        for path in sorted((data_dir / "records").glob("*.json")):
            stem = path.stem
            raw = read_json(path)
            self.raw[stem] = raw
            record = work_dir / "records" / path.name
            write_json(record, raw)
            for ray in raw["rays"]:
                label = ray["label"]
                proposal = work_dir / "proposals" / f"{stem}_{label}.json"
                write_json(proposal, ray["vec"])
                truncated = dict(raw)
                truncated["rays"] = [r for r in raw["rays"]
                                     if r["label"] != label]
                truncated["flop_tables"] = {
                    k: v for k, v in raw["flop_tables"].items() if k != label}
                one_file = (work_dir / "truncated" / f"{stem}_{label}"
                            / path.name)
                write_json(one_file, truncated)
                self.items.append((stem, label, record, proposal, one_file))
        rng.shuffle(self.items)

    def load(self, fanoray, cli):
        paths = (sorted({item[2] for item in self.items})
                 + [item[4] for item in self.items])
        return [fanoray.parse_record(path.read_text(encoding="utf-8"),
                                     strict=False) for path in paths]

    def operations(self, fanoray, cli, state):
        ops = []
        for stem, label, record, proposal, one_file in self.items:
            drop = ["check-exhaustion", str(record), "--drop-ray", label]
            ops += [
                ((stem, label, "drop"), lambda a=drop: call_cli(cli, a)),
                ((stem, label, "propose"),
                 lambda a=drop + ["--propose", str(proposal)]:
                 call_cli(cli, a)),
                ((stem, label, "verify"),
                 lambda a=["verify", str(one_file.parent)]: call_cli(cli, a)),
            ]
        return ops

    def check(self, results):
        errors, failed = [], 0
        for (stem, label, item), (code, out, err) in results.items():
            raw = self.raw[stem]
            where = f"{stem} {item} {label}"
            remaining = [r["label"] for r in raw["rays"]
                         if r["label"] != label]
            if code == 2:
                errors.append(f"{where}: exit 2: {err.strip()}")
                continue
            payload = json.loads(out)
            if item == "drop":
                errors += self._check_drop(where, raw, label, remaining,
                                           code, payload)
            elif item == "propose":
                events = payload["events"]
                if (code != 0 or payload["final_candidates"]
                        != remaining + [label]
                        or payload["trail"][-1]["verdict"] != "pass"
                        or not any(e.startswith(f"adopted record ray {label} ")
                                   for e in events)):
                    errors.append(f"{where}: exit {code}, events {events}: "
                                  f"{label} not adopted")
            else:
                reports = payload["reports"]
                if len(reports) != 1:
                    errors.append(f"{where}: {len(reports)} reports")
                    continue
                status = {s["check"]: s["status"]
                          for s in reports[0]["sections"]}
                if code != (1 if "fail" in status.values() else 0):
                    errors.append(f"{where}: exit {code} with sections "
                                  f"{status}")
                if status["exhaustion"] == "pass":
                    failed += 1
        return errors, failed

    @staticmethod
    def _check_drop(where, raw, label, remaining, code, payload):
        vec = {r["label"]: r["vec"] for r in raw["rays"]}
        pullback = {r["label"]: r["contraction"]["pullback"]
                    for r in raw["rays"] if r.get("contraction")}
        errors = []
        if code != 1 or not payload["misses"]:
            errors.append(f"{where}: exit {code} with "
                          f"{len(payload['misses'])} misses")
        if payload["candidates"] != remaining:
            errors.append(f"{where}: candidates {payload['candidates']}")
        for miss in payload["misses"]:
            ray, edge = miss["ray"], tuple(miss["edge"])
            image = oracle.primitive(oracle.transpose_apply(pullback[ray],
                                                            vec[label]))
            if edge != image:
                errors.append(f"{where}: miss at {ray} on edge {edge}, but "
                              f"{label} maps to {image}")
            for other in remaining:
                if other != ray and oracle.primitive(oracle.transpose_apply(
                        pullback[ray], vec[other])) == edge:
                    errors.append(f"{where}: {other} covers the missed edge "
                                  f"{edge} of {ray}")
        return errors

    def corrupt(self, results):
        altered = dict(results)
        for key, (code, out, err) in results.items():
            payload = json.loads(out)
            if key[2] == "drop" and payload["misses"]:
                payload["misses"][0]["edge"][0] += 1
                altered[key] = (code, json.dumps(payload), err)
                return altered
        raise AssertionError("no miss to alter")


# ---------------------------------------------------------------------------
# cone-scale
# ---------------------------------------------------------------------------

class ConeScale:
    """Cones spanned by the (-1)-curves of P^2 blown up at r = 3..7 points:
    facets, extreme rays, the pointedness certificate and seeded membership
    queries.  The seed draws the queries only; the generators stay in their
    sorted order, which fixes the double description's insertion order.
    """

    setups_per_pass = 4
    ranks = range(3, 8)
    queries_per_cone = 8

    def make_inputs(self, data_dir: Path, work_dir: Path, rng) -> None:
        cones = []
        for r in self.ranks:
            gens = oracle.minus_one_curves(r)
            queries = []
            for k in range(self.queries_per_cone):
                if k % 2 == 0:      # a point of the cone
                    picks = rng.sample(gens, 3)
                    q = [sum(rng.randint(1, 3) * g[i] for g in picks)
                         for i in range(r + 1)]
                else:               # anywhere; inside or outside
                    q = [0] * (r + 1)
                    while not any(q):
                        q = [rng.randint(-3, 3) for _ in range(r + 1)]
                queries.append(q)
            cones.append({"r": r, "generators": gens, "queries": queries})
        self.path = work_dir / "cones.json"
        write_json(self.path, {"cones": cones})
        self.cones = {c["r"]: c for c in cones}

    def load(self, fanoray, cli):
        data = read_json(self.path)
        return [(c["r"], fanoray.Cone(c["r"] + 1, c["generators"]),
                 c["queries"]) for c in data["cones"]]

    def operations(self, fanoray, cli, state):
        ops = []
        for r, cone, queries in state:
            ops += [((r, "pointed"), cone.is_pointed),
                    ((r, "facets"), cone.facets),
                    ((r, "extreme"), cone.extreme_rays)]
            ops += [((r, "member", k), lambda c=cone, q=q: c.membership(q))
                    for k, q in enumerate(queries)]
        return ops

    def check(self, results):
        errors = []
        for r in self.ranks:
            gens = [tuple(g) for g in self.cones[r]["generators"]]
            d = r + 1
            pointed = results[r, "pointed"]
            if not pointed.pointed or any(
                    oracle.dot(pointed.functional, g) <= 0 for g in gens):
                errors.append(f"r={r}: no valid pointedness functional")
            normals = results[r, "facets"]
            if len(normals) != oracle.GOSSET_FACETS[r]:
                errors.append(f"r={r}: {len(normals)} facets, expected "
                              f"{oracle.GOSSET_FACETS[r]}")
            if len(set(normals)) != len(normals):
                errors.append(f"r={r}: repeated facet normals")
            for n in normals:
                if not oracle.is_primitive(n):
                    errors.append(f"r={r}: facet normal {n} not primitive")
                pairings = [oracle.dot(n, g) for g in gens]
                tight = [g for g, p in zip(gens, pairings) if p == 0]
                if min(pairings) < 0 or oracle.int_rank(tight) != d - 1:
                    errors.append(f"r={r}: {n} is not a facet normal")
            if sorted(results[r, "extreme"]) != sorted(gens):
                errors.append(f"r={r}: extreme rays differ from the "
                              f"{len(gens)} generators")
            for k, q in enumerate(self.cones[r]["queries"]):
                m = results[r, "member", k]
                if m.inside:
                    c = m.coefficients
                    ok = (len(c) == len(gens) and min(c) >= 0 and all(
                        sum(cj * g[i] for cj, g in zip(c, gens)) == q[i]
                        for i in range(d)))
                else:
                    s = m.separator
                    ok = (oracle.dot(s, q) < 0
                          and all(oracle.dot(s, g) >= 0 for g in gens))
                if not ok:
                    errors.append(f"r={r}: membership certificate of {q} "
                                  f"fails")
        return errors, 0

    def corrupt(self, results):
        altered = dict(results)
        top = max(self.ranks)
        altered[top, "facets"] = results[top, "facets"][1:]
        return altered


WORKLOADS = {"verify-all": VerifyAll, "ray-audit": RayAudit,
             "cone-scale": ConeScale}
