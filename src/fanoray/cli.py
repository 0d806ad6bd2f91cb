"""Batch verifier CLI.

Exit codes are CI contracts: 0 = every check that ran passed, 1 = some
check failed, 2 = unusable input (I/O, JSON, schema).  All report output
is JSON with sorted keys and canonical rationals, so repeated runs are
byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

from . import datafiles
from .chambers import (ChamberError, chamber_graph, checked_ray_cone,
                       emit_dot, facet_patch_check)
from .cone import ConeError
from .exhaustion import (ExhaustionError, ExhaustionReport, build_targets,
                         check_exhaustion, extend_candidates)
from .flop import (FlopConfig, FlopError, compute_flop, flop_config_from_json,
                   verify_against_table)
from .model import (FanoRecord, Finding, RecordError, RecordId, _json_at,
                    _vec_at, antik_mismatches, diff_records, record_from_json,
                    require_direction, validate_record)
from .rational import ExactArithError, rat_str

OK, FOUND, UNUSABLE = 0, 1, 2


def _json(payload) -> str:
    """Report JSON: sorted keys, indented by two."""
    return json.dumps(payload, indent=2, sort_keys=True)


def _load(path: Path, parse=record_from_json):
    """``parse`` of the JSON file at ``path``; every error names the file."""
    try:
        data = _json_at(path.read_bytes(), str(path))
    except OSError as exc:
        raise RecordError(str(path), f"unreadable: {exc}") from None
    try:
        return parse(data)
    except RecordError as exc:
        raise RecordError(str(path), str(exc)) from None


def _record_or_config(data):
    """A flop configuration if ``data`` has tracked divisors, else a record."""
    is_config = isinstance(data, dict) and "tracked_divisors" in data
    return (flop_config_from_json if is_config else record_from_json)(data)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

class Section(NamedTuple):
    check: str
    status: str                         # "pass" | "fail" | "skipped"
    findings: tuple[Finding, ...] = ()
    detail: object = None               # skip reason, or exhaustion's report

    def to_json(self) -> dict:
        out = {"check": self.check, "status": self.status,
               "findings": [f.render() for f in self.findings]}
        if isinstance(self.detail, ExhaustionReport):
            out["detail"] = self.detail.to_json()
        elif self.detail is not None:
            out["detail"] = self.detail
        return out


class RecordReport(NamedTuple):
    record: RecordId
    file: str
    sections: tuple[Section, ...]

    @property
    def status(self) -> str:
        passed = all(s.status in ("pass", "skipped") for s in self.sections)
        return "pass" if passed else "fail"

    def to_json(self) -> dict:
        return {"record": self.record.render(), "file": self.file,
                "status": self.status,
                "sections": [s.to_json() for s in self.sections]}


def _judged(check: str, findings: Sequence[Finding]) -> Section:
    """A section that fails exactly when it has findings."""
    return Section(check, "fail" if findings else "pass", tuple(findings))


def verify_records(records: Mapping[str, FanoRecord],
                   configs: Mapping[str, FlopConfig]) -> list[RecordReport]:
    """Validate and audit each record (file name -> record) against the
    flop configurations (file name -> config) that match it, each solved
    once, and each mistake variant against the first corrected record of
    its base id; the reports keep the records' order."""
    solved = {}  # config file -> its FlopResult, or its failure's finding
    reports = []
    for name, record in records.items():
        rid = record.record_id
        sections = [_judged("validate", validate_record(record))]

        targets = report = patch = None
        skip = "no contraction descriptors"
        try:
            if any(r.contraction for r in record.rays):
                targets = build_targets(record)
                report = check_exhaustion(record, record.ray_labels(), targets)
        except (ExhaustionError, ConeError) as exc:
            skip = str(exc)
        sections.append(
            Section("exhaustion", "skipped", detail=skip) if report is None
            else Section("exhaustion", report.verdict, detail=report))
        try:
            if report is not None:
                patch = facet_patch_check(record, targets, report)
            elif targets is not None:
                checked_ray_cone(record)  # its message wins over exhaustion's
        except (ChamberError, ConeError) as exc:
            skip = str(exc)
        sections.append(
            Section("facet-patch", "skipped", detail=skip) if patch is None
            else _judged("facet-patch", patch))

        matching = [(file, cfg) for file, cfg in configs.items()
                    if cfg.record.base() == rid.base()
                    and cfg.ray in record.flop_tables]
        flop_findings = []
        for file, cfg in matching:
            if file not in solved:
                try:
                    solved[file] = compute_flop(cfg)
                except FlopError as exc:
                    solved[file] = Finding("flop-config", file, str(exc))
            result = solved[file]
            try:
                flop_findings += ([result] if isinstance(result, Finding) else
                                  verify_against_table(record, cfg, result))
            except FlopError as exc:
                flop_findings.append(Finding("flop-config", file, str(exc)))
        sections.append(
            _judged("flop-tables", flop_findings) if matching
            else Section("flop-tables", "skipped",
                         detail="no matching flop configuration"))

        siblings = [other for other in records.values()
                    if other.record_id == rid.base()]  # corrected ones
        if rid.variant and "mistake" in rid.variant and siblings:
            sections.append(
                _judged("corrections", diff_records(record, siblings[0])))
        reports.append(RecordReport(rid, name, tuple(sections)))
    return reports


def cmd_verify(args):
    data_dir = Path(args.data_dir or datafiles.records_dir())
    if not data_dir.is_dir():
        raise RecordError(str(data_dir), "not a directory")
    records, configs = {}, {}
    for path in (sorted(data_dir.glob("*.json")) if args.data_dir
                 else datafiles.corpus()):
        loaded = _load(path, _record_or_config)
        (configs if isinstance(loaded, FlopConfig)
         else records)[path.name] = loaded
    if not records:  # nothing would be checked, so a pass would be vacuous
        raise RecordError(str(data_dir), "no record files")

    reports = verify_records(records, configs)
    passed = all(report.status == "pass" for report in reports)
    summary = {"records": len(reports), "flop_configs": len(configs),
               "status": "pass" if passed else "fail"}
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        audits = {f"{Path(report.file).stem}.audit.json": report.to_json()
                  for report in reports}
        for name, payload in {**audits, "summary.json": summary}.items():
            (out / name).write_text(_json(payload) + "\n", encoding="utf-8")
        return passed, summary
    if args.human:
        return passed, _render_table(reports, summary)
    return passed, {"reports": [r.to_json() for r in reports],
                    "summary": summary}


def _render_table(reports: Sequence[RecordReport], summary) -> str:
    lines = []
    for report in reports:
        lines.append(f"{report.record.render():<18} {report.status:<4}  "
                     f"({report.file})")
        for section in report.sections:
            lines.append(f"  {section.check:<12} {section.status}")
            lines += [f"    {f.render()}" for f in section.findings]
            if isinstance(section.detail, ExhaustionReport):
                lines += [f"    [exhaustion] rays.{m.ray_label}: {m.note} "
                          f"{m.edge}" for m in section.detail.misses]
                lines += [f"    [exhaustion] rays.{f.ray_label}: the image of "
                          f"{f.ray_label} under {f.other_label}'s pushforward "
                          f"is not a target edge of {f.other_label}"
                          for f in section.detail.reciprocal_failures]
    lines.append(f"{summary['records']} records, "
                 f"{summary['flop_configs']} flop configs: "
                 f"{summary['status']}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# check-exhaustion
# ---------------------------------------------------------------------------

def cmd_check_exhaustion(args):
    record = _load(Path(args.record))
    labels = record.ray_labels()
    for drop in args.drop_ray:
        if drop not in labels:
            raise RecordError(args.record, f"unknown ray label {drop!r} "
                              f"(record has {labels})")
    candidates = [lab for lab in labels if lab not in args.drop_ray]
    targets = build_targets(record,
                            prefer_record_tables=(args.targets == "auto"))
    if args.propose:
        # one vector per file, read as every vector in a record is
        proposals = [require_direction(str(p), _load(
                         p, lambda v: _vec_at(v, "proposal", record.rho)))
                     for p in map(Path, args.propose)]
        result = extend_candidates(record, candidates, targets, proposals)
        return result.passed, {
            "final_candidates": list(result.final_candidates),
            "events": list(result.events),
            "trail": [r.to_json() for r in result.reports]}
    report = check_exhaustion(record, candidates, targets)
    return report.passed, report.to_json()


# ---------------------------------------------------------------------------
# flop / nef / derive-antik
# ---------------------------------------------------------------------------

def cmd_flop(args):
    cfg = _load(Path(args.config), flop_config_from_json)
    result = compute_flop(cfg)
    payload = {
        "record": cfg.record.render(),
        "ray": cfg.ray,
        "coefficients": {
            tracked: {exc: rat_str(result.coeffs[t][s])
                      for s, exc in enumerate(cfg.exceptional_divisors)}
            for t, tracked in enumerate(cfg.tracked_divisors)},
        "rows": [{"label": row.label, "vec": [rat_str(e) for e in row.vec],
                  "antiK": rat_str(row.antiK)} for row in result.rows],
    }
    findings = []
    if args.record:
        record = _load(Path(args.record))
        findings = verify_against_table(record, cfg, result)
        payload["table_findings"] = [f.render() for f in findings]
    return not findings, payload


def cmd_nef(args):
    record = _load(Path(args.record))
    # its dual, the nef cone, has its extreme rays for facet normals and its
    # facets for generators
    cone = checked_ray_cone(record)
    normals = cone.extreme_rays()
    payload = {
        "record": record.record_id.render(),
        "facets": len(normals),
        "facet_normals": [list(n) for n in normals],
        "nef_generators": [list(g) for g in sorted(cone.facets())],
    }
    if args.dot:
        graph = chamber_graph(record)
        Path(args.dot).write_text(emit_dot(graph), encoding="utf-8")
        payload["dot"] = args.dot
    return True, payload


def cmd_derive_antik(args):
    record = _load(Path(args.record))
    derived = record.derived_antiK
    payload = {"record": record.record_id.render(), "status": derived.status}
    if derived.status == "ok":
        payload["combo"] = [rat_str(e) for e in derived.combo]
        bad = payload["inconsistent_rows"] = [
            f.key for f in antik_mismatches(record, derived.combo)]
        rays_bad = sum(key.startswith("rays.") for key in bad)
        rows = sum(map(len, record.flop_tables.values()))
        payload["ray_rows"] = {"checked": len(record.rays),
                               "consistent": len(record.rays) - rays_bad}
        payload["table_rows"] = {"checked": rows,
                                 "consistent": rows - len(bad) + rays_bad}
        return not bad, payload
    if derived.status == "inconsistent":
        payload["witnesses"] = [record.rays[i].label
                                for i in derived.witnesses]
    else:
        payload["kernel_dim"] = derived.kernel_dim
    return False, payload


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one CLI parser of this process, built on the first call.

    It is constant and keeps no state between ``parse_args`` calls (each
    call gets its own namespace, and argparse copies an ``append``
    option's default list before appending), so ``main`` may be called
    repeatedly in-process.
    """
    parser = argparse.ArgumentParser(
        prog="fanoray",
        description="Exact verifier for extremal-ray tables of Fano 3-folds")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="audit a directory of record/flop JSON")
    p.add_argument("data_dir", nargs="?",
                   help="directory of records and flop configurations "
                        "(default: the packaged corpus)")
    output = p.add_mutually_exclusive_group()
    output.add_argument("--out", help="write one audit JSON per record here")
    output.add_argument("--human", action="store_true",
                        help="compact table on stdout instead of JSON")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("check-exhaustion",
                       help="run the extremal-ray exhaustion criterion")
    p.add_argument("record")
    p.add_argument("--drop-ray", action="append", default=[], metavar="LABEL")
    p.add_argument("--propose", action="append", default=[], metavar="FILE")
    p.add_argument("--targets", choices=("auto", "derived"), default="auto",
                   help="target edge sets: descriptor tables when present "
                        "(auto) or always derived from the full ray set")
    p.set_defaults(func=cmd_check_exhaustion)

    p = sub.add_parser("flop", help="solve a flop configuration")
    p.add_argument("config")
    p.add_argument("--record", help="record file to compare rows against")
    p.set_defaults(func=cmd_flop)

    p = sub.add_parser("nef", help="nef cone facts, optional chamber DOT")
    p.add_argument("record")
    p.add_argument("--dot", help="write the chamber graph here")
    p.set_defaults(func=cmd_nef)

    p = sub.add_parser("derive-antik",
                       help="derive the -K combination and audit all rows")
    p.add_argument("record")
    p.set_defaults(func=cmd_derive_antik)
    return parser


def _unusable(exc: Exception) -> int:
    """Exit code 2, saying why on stderr if stderr can be written."""
    with contextlib.suppress(OSError):  # a failed write changes no verdict
        if sys.stderr is not None:  # None when fd 2 was closed at start
            print(f"error: {exc}", file=sys.stderr, flush=True)
    return UNUSABLE


def main(argv=None) -> int:
    """Run one command: the one writer of stdout and of exit codes."""
    args = build_parser().parse_args(argv)
    try:
        passed, report = args.func(args)
    except (RecordError, FlopError, ChamberError, ExhaustionError, ConeError,
            ExactArithError, OSError) as exc:
        return _unusable(exc)
    text = report if isinstance(report, str) else _json(report)
    try:
        print(text, flush=True)
    except OSError as exc:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())  # the last flush cannot fail
        os.close(devnull)
        if not isinstance(exc, BrokenPipeError):  # a closed pipe is no error
            return _unusable(exc)
    return OK if passed else FOUND


if __name__ == "__main__":
    sys.exit(main())
