"""Batch verifier CLI.

Exit codes are CI contracts: 0 = no findings, 1 = at least one finding,
2 = unusable input (I/O, JSON, schema).  All report output is JSON with
sorted keys and canonical rationals, so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import datafiles
from .chambers import ChamberError, chamber_graph, emit_dot, facet_patch_check, nef_cone
from .cone import ConeError
from .exhaustion import ExhaustionError, build_targets, check_exhaustion, extend_candidates
from .flop import FlopError, compute_flop, flop_config_from_json, parse_flop_config, verify_against_table
from .model import (Finding, RecordError, _json_at, _qvec_at, diff_records,
                    parse_record, record_from_json)
from .rational import ExactArithError, QVec, rat_str

OK, FOUND, UNUSABLE = 0, 1, 2


def _emit(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _read_json(path: Path, source: str):
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise RecordError(str(path), f"unreadable: {exc}") from None
    return _json_at(raw, source)


def _findings_json(findings):
    return [f.render() for f in findings]


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    data_dir = Path(args.data_dir or os.environ.get("MRA_DATA")
                    or datafiles.records_dir())
    if not data_dir.is_dir():
        print(f"error: not a directory: {data_dir}", file=sys.stderr)
        return UNUSABLE
    records = {}
    configs = []
    for path in sorted(data_dir.glob("*.json")):
        try:
            head = json.loads(path.read_text(encoding="utf-8"))
            if isinstance(head, dict) and "tracked_divisors" in head:
                configs.append((path, parse_flop_config(head)))
            else:
                records[path] = parse_record(head, strict=False)
        except (OSError, json.JSONDecodeError, RecordError) as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            return UNUSABLE

    by_base = {}
    for path, (record, _) in records.items():
        by_base.setdefault(record.record_id.base(), []).append(path)

    reports = []
    total_findings = 0
    for path, (record, load_findings) in sorted(records.items()):
        sections = []

        def add(name, findings, status=None, detail=None):
            nonlocal total_findings
            entry = {"check": name,
                     "status": status or ("fail" if findings else "pass"),
                     "findings": _findings_json(findings)}
            if detail is not None:
                entry["detail"] = detail
            if entry["status"] == "fail":
                total_findings += len(findings) or 1
            sections.append(entry)

        add("validate", load_findings)

        derived = (record.derived_antiK if len(record.rays) >= record.rho
                   else None)
        if derived is not None and derived.status == "ok":
            add("antik-audit", [], detail={
                "combo": derived.combo.to_strings()})
        else:
            add("antik-audit", [], status="fail",
                detail={"status": derived.status if derived else "too few rays"})

        targets, skip = None, "no contraction descriptors"
        if any(r.contraction for r in record.rays):
            try:
                targets = build_targets(record)
            except (ExhaustionError, ConeError) as exc:
                skip = str(exc)
        if targets is None:
            add("exhaustion", [], status="skipped", detail=skip)
            add("facet-patch", [], status="skipped", detail=skip)
        else:
            try:
                report = check_exhaustion(record, record.ray_labels(), targets)
                add("exhaustion", [], status=report.verdict,
                    detail=report.to_json())
            except (ExhaustionError, ConeError) as exc:
                add("exhaustion", [], status="skipped", detail=str(exc))
            try:
                patch = facet_patch_check(record, targets)
                add("facet-patch", patch)
            except (ChamberError, ConeError, ExhaustionError) as exc:
                add("facet-patch", [], status="skipped", detail=str(exc))

        flop_findings = []
        flop_ran = False
        for cfg_path, cfg in configs:
            if cfg.record.base() != record.record_id.base():
                continue
            if cfg.ray not in record.flop_tables:
                continue
            flop_ran = True
            try:
                flop_findings.extend(
                    verify_against_table(record, cfg, compute_flop(cfg)))
            except FlopError as exc:
                flop_findings.append(
                    Finding("flop-config", cfg_path.name, str(exc)))
        if flop_ran:
            add("flop-tables", flop_findings)
        else:
            add("flop-tables", [], status="skipped",
                detail="no matching flop configuration")

        if record.record_id.variant and "mistake" in record.record_id.variant:
            siblings = [p for p in by_base.get(record.record_id.base(), [])
                        if records[p][0].record_id.variant is None]
            if siblings:
                diff = diff_records(record, records[siblings[0]][0])
                add("corrections", diff)

        status = "pass" if all(s["status"] in ("pass", "skipped")
                               for s in sections) else "fail"
        reports.append({"record": record.record_id.render(),
                        "file": path.name,
                        "status": status,
                        "sections": sections})

    summary = {"records": len(reports),
               "flop_configs": len(configs),
               "status": "pass" if total_findings == 0 else "fail"}
    if not reports:
        summary["warning"] = "no records"

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for report in reports:
            stem = Path(report["file"]).stem
            (out / f"{stem}.audit.json").write_text(
                json.dumps(report, indent=2, sort_keys=True) + "\n",
                encoding="utf-8")
        (out / "summary.json").write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        print(json.dumps(summary, indent=2, sort_keys=True))
    elif args.human:
        print(_render_table(reports, summary))
    else:
        _emit({"reports": reports, "summary": summary})
    return OK if total_findings == 0 else FOUND


def _render_table(reports, summary) -> str:
    lines = []
    for report in reports:
        lines.append(f"{report['record']:<18} {report['status']:<4}  "
                     f"({report['file']})")
        for section in report["sections"]:
            lines.append(f"  {section['check']:<12} {section['status']}")
            for finding in section["findings"]:
                lines.append(f"    {finding}")
    lines.append(f"{summary['records']} records, "
                 f"{summary['flop_configs']} flop configs: "
                 f"{summary['status']}"
                 + (" (no records)" if "warning" in summary else ""))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# check-exhaustion
# ---------------------------------------------------------------------------

def _read_proposal(path: Path) -> QVec:
    data = _read_json(path, str(path))
    if isinstance(data, dict):
        data = data.get("vec", data)
    if not isinstance(data, list):
        raise RecordError(str(path), "expected a vector or {'vec': [...]}")
    return _qvec_at(data, str(path))


def cmd_check_exhaustion(args) -> int:
    record = record_from_json(_read_json(Path(args.record), "record"))
    labels = record.ray_labels()
    for drop in args.drop_ray:
        if drop not in labels:
            print(f"error: unknown ray label {drop!r} "
                  f"(record has {labels})", file=sys.stderr)
            return UNUSABLE
    candidates = [lab for lab in labels if lab not in args.drop_ray]
    targets = build_targets(record,
                            prefer_record_tables=(args.targets == "auto"))
    if args.propose:
        proposals = [_read_proposal(Path(p)) for p in args.propose]
        result = extend_candidates(record, candidates, targets, proposals)
        payload = {"final_candidates": list(result.final_candidates),
                   "events": list(result.events),
                   "trail": [r.to_json() for r in result.reports]}
        _emit(payload)
        return OK if result.passed else FOUND
    report = check_exhaustion(record, candidates, targets)
    _emit(report.to_json())
    return OK if report.passed else FOUND


# ---------------------------------------------------------------------------
# flop / nef / derive-antik
# ---------------------------------------------------------------------------

def cmd_flop(args) -> int:
    cfg = flop_config_from_json(_read_json(Path(args.config), "flop"))
    result = compute_flop(cfg)
    payload = {
        "record": cfg.record.render(),
        "ray": cfg.ray,
        "coefficients": {
            tracked: {exc: rat_str(result.coeffs.entries[t][s])
                      for s, exc in enumerate(cfg.exceptional_divisors)}
            for t, tracked in enumerate(cfg.tracked_divisors)},
        "rows": [{"label": row.label, "vec": row.row.to_strings(),
                  "antiK": rat_str(row.antiK)} for row in result.rows],
    }
    findings = []
    if args.record:
        record = record_from_json(_read_json(Path(args.record), "record"))
        findings = verify_against_table(record, cfg, result)
        payload["table_findings"] = _findings_json(findings)
    _emit(payload)
    return FOUND if findings else OK


def cmd_nef(args) -> int:
    record = record_from_json(_read_json(Path(args.record), "record"))
    cone = nef_cone(record)
    payload = {
        "record": record.record_id.render(),
        "facets": len(cone.facets()),
        "facet_normals": [list(n) for n in cone.facets()],
        "nef_generators": [list(g) for g in sorted(cone.generators)],
    }
    if args.dot:
        graph = chamber_graph(record)
        Path(args.dot).write_text(emit_dot(graph), encoding="utf-8")
        payload["dot"] = args.dot
    _emit(payload)
    return OK


def cmd_derive_antik(args) -> int:
    record = record_from_json(_read_json(Path(args.record), "record"))
    derived = record.derived_antiK
    payload = {"record": record.record_id.render(), "status": derived.status}
    bad = []
    if derived.status == "ok":
        payload["combo"] = derived.combo.to_strings()
        ray_total = table_total = ray_bad = table_bad = 0
        for ray in record.rays:
            ray_total += 1
            if derived.combo.dot(ray.vec) != ray.antiK:
                ray_bad += 1
                bad.append(f"rays.{ray.label}")
        for key, rows in sorted(record.flop_tables.items()):
            for row in rows:
                table_total += 1
                if derived.combo.dot(row.vec) != row.antiK:
                    table_bad += 1
                    bad.append(f"flop_tables.{key}.{row.label}")
        payload["ray_rows"] = {"checked": ray_total,
                               "consistent": ray_total - ray_bad}
        payload["table_rows"] = {"checked": table_total,
                                 "consistent": table_total - table_bad}
        payload["inconsistent_rows"] = bad
    elif derived.status == "inconsistent":
        payload["witnesses"] = [record.rays[i].label
                                for i in derived.witnesses]
        bad = payload["witnesses"]
    else:
        payload["kernel_dim"] = derived.kernel_dim
        bad = ["underdetermined"]
    _emit(payload)
    return FOUND if bad else OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fanoray",
        description="Exact verifier for extremal-ray tables of Fano 3-folds")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="audit a directory of record/flop JSON")
    p.add_argument("data_dir", nargs="?",
                   help="directory of records (default: $MRA_DATA or the "
                        "packaged corpus)")
    p.add_argument("--out", help="write one audit JSON per record here")
    p.add_argument("--human", action="store_true",
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (RecordError, FlopError, ChamberError, ExhaustionError, ConeError,
            ExactArithError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return UNUSABLE


if __name__ == "__main__":
    sys.exit(main())
