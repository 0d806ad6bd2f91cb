"""Flop intersection-number calculus on the resolution of a 4-fold flop.

The strict transform of each tracked divisor pulls back to the resolution
as the naive pullback plus a correction supported on the exceptional
divisors.  The correction coefficients are pinned by one vanishing
condition per curve contracted by the flopped side; rows on the flopped
side are then plain evaluations.  Coefficients are honest rationals
(halves occur), so nothing here assumes integrality.
"""

from __future__ import annotations

from typing import NamedTuple

from .model import FanoRecord, Finding, RecordError, RecordId, _expect_keys, \
    _id_at, _json_at, _list_at, _vec_at
from .rational import (Mat, Rat, Vec, dot, inconsistent_rows, rat, rat_str,
                       solve_linear)


class FlopError(ValueError):
    pass


class TestCurve(NamedTuple):
    label: str
    pullback_row: Vec             # pairings with pulled-back tracked divisors
    exc_row: Vec                  # pairings with the exceptional divisors
    contracted_by_flop: bool


class FlopConfig(NamedTuple):
    record: RecordId
    ray: str
    tracked_divisors: tuple[str, ...]
    exceptional_divisors: tuple[str, ...]
    test_curves: tuple[TestCurve, ...]
    result_curves: tuple[str, ...]
    antiK_combo_tracked: Vec

    def curve(self, label: str) -> TestCurve:
        for c in self.test_curves:
            if c.label == label:
                return c
        raise KeyError(f"no test curve {label!r}")


class FlopRowResult(NamedTuple):
    label: str
    row: Vec                      # pairings with the tracked strict transforms
    antiK: Rat


class FlopResult(NamedTuple):
    coeffs: Mat                   # tracked x exceptional correction matrix
    rows: tuple[FlopRowResult, ...]


def flop_config_from_json(data: dict) -> FlopConfig:
    _expect_keys(data, "flop",
                 {"record", "ray", "tracked_divisors", "exceptional_divisors",
                  "test_curves", "result_curves", "antiK_combo_tracked"})
    record = _id_at(data["record"], "flop.record")
    tracked = data["tracked_divisors"]
    exceptional = data["exceptional_divisors"]
    for key, val in (("tracked_divisors", tracked),
                     ("exceptional_divisors", exceptional)):
        if (not isinstance(val, list) or not val
                or not all(isinstance(s, str) for s in val)):
            raise RecordError(f"flop.{key}", "expected array of strings")
    curves = []
    labels = set()
    for i, raw in enumerate(_list_at(data["test_curves"],
                                     "flop.test_curves")):
        path = f"flop.test_curves[{i}]"
        _expect_keys(raw, path,
                     {"label", "pullback_row", "exc_row", "contracted_by_flop"})
        if not isinstance(raw["label"], str):
            raise RecordError(f"{path}.label", "expected string")
        if raw["label"] in labels:
            raise RecordError(path, f"duplicate curve label {raw['label']!r}")
        labels.add(raw["label"])
        if not isinstance(raw["contracted_by_flop"], bool):
            raise RecordError(f"{path}.contracted_by_flop", "expected boolean")
        curves.append(TestCurve(
            raw["label"],
            _vec_at(raw["pullback_row"], f"{path}.pullback_row", len(tracked)),
            _vec_at(raw["exc_row"], f"{path}.exc_row", len(exceptional)),
            raw["contracted_by_flop"]))
    results = data["result_curves"]
    if not isinstance(results, list) or not all(
            isinstance(r, str) and r in labels for r in results):
        raise RecordError("flop.result_curves",
                          "every result curve must be a test curve label")
    if not results:
        raise RecordError("flop.result_curves",
                          "expected at least one result curve")
    combo = _vec_at(data["antiK_combo_tracked"],
                    "flop.antiK_combo_tracked", len(tracked))
    contracted = sum(c.contracted_by_flop for c in curves)
    if contracted < len(exceptional):
        raise RecordError("flop.test_curves",
                          f"{contracted} contracted curves cannot pin "
                          f"{len(exceptional)} exceptional coefficients")
    if not isinstance(data["ray"], str):
        raise RecordError("flop.ray", "expected string")
    return FlopConfig(record, data["ray"], tuple(tracked), tuple(exceptional),
                      tuple(curves), tuple(results), combo)


def parse_flop_config(raw) -> FlopConfig:
    return flop_config_from_json(_json_at(raw, "flop"))


def solve_pullback_coeffs(cfg: FlopConfig) -> Mat:
    """Correction coefficients, one column per exceptional divisor.

    For each tracked divisor X_t the contracted curves impose
    (c, psi*X_t) + sum_s alpha_{t,s} (c, D^s) = 0; the system must
    determine every alpha exactly.
    """
    contracted = [c for c in cfg.test_curves if c.contracted_by_flop]
    a = [c.exc_row for c in contracted]
    coeff_rows = []
    for t in range(len(cfg.tracked_divisors)):
        b = [-c.pullback_row[t] for c in contracted]
        solved = solve_linear(a, b)
        if solved is None:
            witnesses = [contracted[i].label
                         for i in inconsistent_rows(a, b)]
            raise FlopError(
                f"inconsistent vanishing conditions for "
                f"{cfg.tracked_divisors[t]!r}: curves {witnesses}")
        alpha, ker = solved
        if ker:
            raise FlopError(
                f"underdetermined correction for {cfg.tracked_divisors[t]!r}: "
                f"kernel dimension {len(ker)}")
        coeff_rows.append(alpha)
    return tuple(coeff_rows)


def flopped_rows(cfg: FlopConfig, coeffs: Mat) -> FlopResult:
    """Evaluate every result curve against the corrected pullbacks.

    (l, X_t^+) = (l, psi*X_t) + sum_s alpha_{t,s} (l, D^s); the -K entry is
    the tracked-divisor combination of the row.  Contracted curves must
    pair to exactly zero with every corrected pullback; that is asserted,
    not assumed.
    """
    def corrected(c: TestCurve) -> Vec:
        return tuple(rat(p + dot(alpha, c.exc_row))
                     for p, alpha in zip(c.pullback_row, coeffs, strict=True))

    for c in cfg.test_curves:
        if not c.contracted_by_flop:
            continue
        for t, value in enumerate(corrected(c)):
            if value != 0:
                raise FlopError(
                    f"contracted curve {c.label} pairs {rat_str(value)} != 0 "
                    f"with corrected {cfg.tracked_divisors[t]!r}")
    rows = []
    for label in cfg.result_curves:
        row = corrected(cfg.curve(label))
        rows.append(FlopRowResult(label, row,
                                  dot(cfg.antiK_combo_tracked, row)))
    return FlopResult(coeffs, tuple(rows))


def compute_flop(cfg: FlopConfig) -> FlopResult:
    return flopped_rows(cfg, solve_pullback_coeffs(cfg))


def verify_against_table(record: FanoRecord, cfg: FlopConfig,
                         result: FlopResult) -> list[Finding]:
    """Exact cell-by-cell comparison of recomputed rows with the record's
    flop table for the flopped ray.  Empty findings = agreement."""
    base = cfg.record.base()
    if record.record_id.base() != base:
        raise FlopError(
            f"config is for {base.render()}, record is "
            f"{record.record_id.render()}")
    if record.basis_labels != cfg.tracked_divisors:
        raise FlopError(
            f"record basis {record.basis_labels} does not match tracked "
            f"divisors {cfg.tracked_divisors}")
    if cfg.ray not in record.flop_tables:
        raise FlopError(
            f"{record.record_id.render()} has no flop table for ray "
            f"{cfg.ray!r}")
    table = {row.label: row for row in record.flop_tables[cfg.ray]}
    findings: list[Finding] = []
    for computed in result.rows:
        key = f"flop_tables.{cfg.ray}.{computed.label}"
        if computed.label not in table:
            findings.append(Finding(
                "flop-table", key,
                f"no row labeled {computed.label!r} (table rows: "
                f"{sorted(table)})"))
            continue
        row = table[computed.label]
        if row.vec != computed.row or row.antiK != computed.antiK:
            findings.append(Finding(
                "flop-table", key,
                f"table says ({', '.join(map(rat_str, row.vec))} | "
                f"{rat_str(row.antiK)}), recomputation gives "
                f"({', '.join(map(rat_str, computed.row))} | "
                f"{rat_str(computed.antiK)})"))
    return findings
