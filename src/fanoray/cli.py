"""Batch verifier CLI.

Exit codes are CI contracts: 0 = every check that ran passed, 1 = some
check failed, 2 = unusable input (I/O, JSON, schema).  All report output
is JSON with sorted keys and canonical rationals, so repeated runs are
byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from . import datafiles
from .chambers import ChamberError, chamber_graph, emit_dot, facet_patch_check, nef_cone
from .cone import ConeError
from .exhaustion import ExhaustionError, build_targets, check_exhaustion, extend_candidates
from .flop import FlopError, compute_flop, flop_config_from_json, parse_flop_config, verify_against_table
from .model import (Finding, RecordError, _json_at, _vec_at, diff_records,
                    parse_record, record_from_json, require_direction)
from .rational import ExactArithError, Vec, dot, rat_str

OK, FOUND, UNUSABLE = 0, 1, 2


def _emit(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _read_json(path: Path):
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise RecordError(str(path), f"unreadable: {exc}") from None
    return _json_at(raw, str(path))


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
        head = _read_json(path)
        try:
            if isinstance(head, dict) and "tracked_divisors" in head:
                configs.append((path, parse_flop_config(head)))
            else:
                records[path] = parse_record(head, strict=False)
        except RecordError as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            return UNUSABLE

    corrected = {}  # base id -> the first corrected record, in path order
    for record, _ in records.values():
        if record.record_id.variant is None:
            corrected.setdefault(record.record_id.base(), record)

    solved = {}  # config path -> its FlopResult or FlopError, once
    reports = []
    for path, (record, load_findings) in records.items():
        sections = []

        def add(name, findings, status=None, detail=None):
            entry = {"check": name,
                     "status": status or ("fail" if findings else "pass"),
                     "findings": _findings_json(findings)}
            if detail is not None:
                entry["detail"] = detail
            sections.append(entry)

        add("validate", load_findings)

        derived = (record.derived_antiK if len(record.rays) >= record.rho
                   else None)
        if derived is not None and derived.status == "ok":
            add("antik-audit", [], detail={
                "combo": [rat_str(e) for e in derived.combo]})
        else:
            add("antik-audit", [], status="fail",
                detail={"status": derived.status if derived else "too few rays"})

        targets = report = patch = None
        skip = "no contraction descriptors"
        try:
            if any(r.contraction for r in record.rays):
                targets = build_targets(record)
                report = check_exhaustion(record, record.ray_labels(), targets)
        except (ExhaustionError, ConeError) as exc:
            skip = str(exc)
        if report is None:
            add("exhaustion", [], status="skipped", detail=skip)
        else:
            add("exhaustion", [], status=report.verdict,
                detail=report.to_json())
        try:
            if report is not None:
                patch = facet_patch_check(record, targets, report)
            elif targets is not None:
                nef_cone(record)  # its message wins over exhaustion's
        except (ChamberError, ConeError) as exc:
            skip = str(exc)
        if patch is None:
            add("facet-patch", [], status="skipped", detail=skip)
        else:
            add("facet-patch", patch)

        flop_findings = []
        flop_ran = False
        for cfg_path, cfg in configs:
            if cfg.record.base() != record.record_id.base():
                continue
            if cfg.ray not in record.flop_tables:
                continue
            flop_ran = True
            if cfg_path not in solved:
                try:
                    solved[cfg_path] = compute_flop(cfg)
                except FlopError as exc:
                    solved[cfg_path] = exc
            try:
                result = solved[cfg_path]
                if isinstance(result, FlopError):
                    raise result
                flop_findings.extend(verify_against_table(record, cfg, result))
            except FlopError as exc:
                flop_findings.append(
                    Finding("flop-config", cfg_path.name, str(exc)))
        if flop_ran:
            add("flop-tables", flop_findings)
        else:
            add("flop-tables", [], status="skipped",
                detail="no matching flop configuration")

        sibling = corrected.get(record.record_id.base())
        if (record.record_id.variant and "mistake" in record.record_id.variant
                and sibling is not None):
            add("corrections", diff_records(record, sibling))

        status = "pass" if all(s["status"] in ("pass", "skipped")
                               for s in sections) else "fail"
        reports.append({"record": record.record_id.render(),
                        "file": path.name,
                        "status": status,
                        "sections": sections})

    failed = any(report["status"] == "fail" for report in reports)
    summary = {"records": len(reports),
               "flop_configs": len(configs),
               "status": "fail" if failed else "pass"}
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
    return FOUND if failed else OK


def _render_table(reports, summary) -> str:
    lines = []
    for report in reports:
        lines.append(f"{report['record']:<18} {report['status']:<4}  "
                     f"({report['file']})")
        for section in report["sections"]:
            lines.append(f"  {section['check']:<12} {section['status']}")
            for finding in section["findings"]:
                lines.append(f"    {finding}")
            if (section["check"], section["status"]) == ("exhaustion",
                                                         "fail"):
                lines += _exhaustion_lines(section["detail"])
    lines.append(f"{summary['records']} records, "
                 f"{summary['flop_configs']} flop configs: "
                 f"{summary['status']}"
                 + (" (no records)" if "warning" in summary else ""))
    return "\n".join(lines)


def _exhaustion_lines(detail) -> list[str]:
    """A failed exhaustion section's misses and reciprocal failures, read
    from its detail (the report's JSON), one line each."""
    lines = [f"    [exhaustion] rays.{m['ray']}: {m['note']} "
             f"{tuple(m['edge'])}" for m in detail["misses"]]
    lines += [f"    [exhaustion] rays.{f['ray']}: the image of {f['ray']} "
              f"under {f['other']}'s pushforward is not a target edge of "
              f"{f['other']}" for f in detail["reciprocal_failures"]]
    return lines


# ---------------------------------------------------------------------------
# check-exhaustion
# ---------------------------------------------------------------------------

def _read_proposal(path: Path, rho: int) -> Vec:
    data = _read_json(path)
    if isinstance(data, dict):
        data = data.get("vec", data)
    if not isinstance(data, list):
        raise RecordError(str(path), "expected a vector or {'vec': [...]}")
    return require_direction(str(path), _vec_at(data, str(path), rho))


def cmd_check_exhaustion(args) -> int:
    record = record_from_json(_read_json(Path(args.record)))
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
        proposals = [_read_proposal(Path(p), record.rho)
                     for p in args.propose]
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
    cfg = flop_config_from_json(_read_json(Path(args.config)))
    result = compute_flop(cfg)
    payload = {
        "record": cfg.record.render(),
        "ray": cfg.ray,
        "coefficients": {
            tracked: {exc: rat_str(result.coeffs[t][s])
                      for s, exc in enumerate(cfg.exceptional_divisors)}
            for t, tracked in enumerate(cfg.tracked_divisors)},
        "rows": [{"label": row.label, "vec": [rat_str(e) for e in row.row],
                  "antiK": rat_str(row.antiK)} for row in result.rows],
    }
    findings = []
    if args.record:
        record = record_from_json(_read_json(Path(args.record)))
        findings = verify_against_table(record, cfg, result)
        payload["table_findings"] = _findings_json(findings)
    _emit(payload)
    return FOUND if findings else OK


def cmd_nef(args) -> int:
    record = record_from_json(_read_json(Path(args.record)))
    cone = nef_cone(record)
    # the dual of a pointed, full-dimensional cone has its extreme rays
    # for facet normals, so the ray cone's one double description serves
    normals = record.ray_cone().extreme_rays()
    payload = {
        "record": record.record_id.render(),
        "facets": len(normals),
        "facet_normals": [list(n) for n in normals],
        "nef_generators": [list(g) for g in sorted(cone.generators)],
    }
    if args.dot:
        graph = chamber_graph(record)
        Path(args.dot).write_text(emit_dot(graph), encoding="utf-8")
        payload["dot"] = args.dot
    _emit(payload)
    return OK


def cmd_derive_antik(args) -> int:
    record = record_from_json(_read_json(Path(args.record)))
    derived = record.derived_antiK
    payload = {"record": record.record_id.render(), "status": derived.status}
    if derived.status == "ok":
        payload["combo"] = [rat_str(e) for e in derived.combo]
        rays_bad = [f"rays.{ray.label}" for ray in record.rays
                    if dot(derived.combo, ray.vec) != ray.antiK]
        rows = [(key, row) for key, table in sorted(record.flop_tables.items())
                for row in table]
        tables_bad = [f"flop_tables.{key}.{row.label}" for key, row in rows
                      if dot(derived.combo, row.vec) != row.antiK]
        payload["ray_rows"] = {"checked": len(record.rays),
                               "consistent": len(record.rays) - len(rays_bad)}
        payload["table_rows"] = {"checked": len(rows),
                                 "consistent": len(rows) - len(tables_bad)}
        bad = payload["inconsistent_rows"] = rays_bad + tables_bad
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
