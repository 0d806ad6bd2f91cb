"""Record model for one deformation type: divisor basis, anticanonical
combination, extremal rays with contraction descriptors, flop row tables.

The -K column of every table is stored *and* recomputable from the
record-level combination; any disagreement is a row-keyed finding.  That
redundancy is deliberate: it turns table typos into mechanical findings
instead of silent corruption.  Strict loading raises on the first finding;
the audit path loads in collecting mode so that deliberately wrong
("mistake") fixtures can be examined rather than rejected.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .cone import Cone, ConeError, canonicalize_ray
from .rational import (ExactArithError, QMat, QVec, inconsistent_rows, rat,
                       rat_str, rank, solve_linear)

RAY_TYPES = ("E1", "E2", "E3", "E4", "E5", "C", "D", "F_fiber", "Flopping")
DIVISORIAL_TYPES = ("E1", "E2", "E3", "E4", "E5")
FLOP_TYPES = ("E1", "E2", "E3", "E4", "E5",
              "E1_inv", "E2_inv", "E3_inv", "E4_inv", "E5_inv",
              "F", "G", "Others")


class RecordError(ValueError):
    """Schema or invariant violation, with a JSON-path-like location."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


@dataclass(frozen=True)
class Finding:
    check: str      # e.g. "antiK", "pullback", "pointedness"
    key: str        # row/ray keyed, e.g. "flop_tables.l7.l25"
    message: str

    def render(self) -> str:
        return f"[{self.check}] {self.key}: {self.message}"


@dataclass(frozen=True, order=True)
class RecordId:
    b2: int
    number: int
    variant: Optional[str] = None

    def render(self) -> str:
        tail = self.variant or ""
        return f"B2={self.b2}/n{self.number}{tail}"

    def base(self) -> "RecordId":
        return RecordId(self.b2, self.number)

    def to_json(self) -> dict:
        out = {"b2": self.b2, "n": self.number}
        if self.variant is not None:
            out["variant"] = self.variant
        return out


@dataclass(frozen=True)
class ContractionDescriptor:
    target: Optional[RecordId]
    pullback: QMat                       # rho rows, rho-1 columns
    target_edges: Optional[tuple[QVec, ...]] = None


@dataclass(frozen=True)
class RayRecord:
    label: str
    vec: QVec
    antiK: Fraction
    ray_type: str
    contraction: Optional[ContractionDescriptor] = None


@dataclass(frozen=True)
class FlopRow:
    label: str
    vec: QVec
    antiK: Fraction


@dataclass(frozen=True)
class ChamberNode:
    node_id: str
    label: str


@dataclass(frozen=True)
class ChamberEdge:
    src: str
    dst: str
    flop_type: str


@dataclass(frozen=True)
class ChamberSpec:
    nodes: tuple[ChamberNode, ...]
    edges: tuple[ChamberEdge, ...]


@dataclass(frozen=True)
class FanoRecord:
    record_id: RecordId
    rho: int
    basis_labels: tuple[str, ...]
    antiK_combo: QVec
    rays: tuple[RayRecord, ...]
    flop_tables: dict[str, tuple[FlopRow, ...]]
    weyl_group: str
    flop_types: tuple[str, ...]
    chambers: Optional[ChamberSpec] = None
    # one Cone per ray-label tuple, so its memoised facts are shared
    _cones: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def ray_labels(self) -> list[str]:
        return [r.label for r in self.rays]

    def ray(self, label: str) -> RayRecord:
        for r in self.rays:
            if r.label == label:
                return r
        raise KeyError(f"{self.record_id.render()}: no ray {label!r}")

    def ray_cone(self, labels: Optional[Sequence[str]] = None) -> Cone:
        key = tuple(labels) if labels is not None else tuple(self.ray_labels())
        if key not in self._cones:
            self._cones[key] = Cone(self.rho,
                                    [self.ray(lab).vec for lab in key])
        return self._cones[key]


# ---------------------------------------------------------------------------
# JSON loading (schema layer)
# ---------------------------------------------------------------------------

def _expect_keys(obj: dict, path: str, required: set, optional: set = frozenset()):
    if not isinstance(obj, dict):
        raise RecordError(path, f"expected object, got {type(obj).__name__}")
    unknown = set(obj) - required - set(optional)
    if unknown:
        raise RecordError(path, f"unknown fields: {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise RecordError(path, f"missing fields: {sorted(missing)}")


def _list_at(value, path: str) -> list:
    if not isinstance(value, list):
        raise RecordError(path, f"expected array, got {type(value).__name__}")
    return value


def _rat_at(value, path: str) -> Fraction:
    if isinstance(value, float):
        raise RecordError(path, f"float rejected: {value!r}")
    try:
        return rat(value)
    except ExactArithError as exc:
        raise RecordError(path, str(exc)) from None


def _qvec_at(value, path: str, dim: Optional[int] = None) -> QVec:
    if not isinstance(value, list) or not value:
        raise RecordError(path, "expected a non-empty array of rationals")
    v = QVec([_rat_at(x, f"{path}[{i}]") for i, x in enumerate(value)])
    if dim is not None and v.dim != dim:
        raise RecordError(path, f"expected length {dim}, got {v.dim}")
    return v


def _id_at(value, path: str) -> RecordId:
    _expect_keys(value, path, {"b2", "n"}, {"variant"})
    b2, n = value["b2"], value["n"]
    if not isinstance(b2, int) or isinstance(b2, bool) or b2 < 2:
        raise RecordError(f"{path}.b2", f"expected integer >= 2, got {b2!r}")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise RecordError(f"{path}.n", f"expected positive integer, got {n!r}")
    variant = value.get("variant")
    if variant is not None and not isinstance(variant, str):
        raise RecordError(f"{path}.variant", "expected string")
    return RecordId(b2, n, variant)


def _contraction_at(value, path: str, rho: int) -> ContractionDescriptor:
    _expect_keys(value, path, {"target", "pullback"}, {"target_edges"})
    target = None if value["target"] is None else _id_at(value["target"],
                                                         f"{path}.target")
    pb = value["pullback"]
    if not isinstance(pb, list) or len(pb) != rho:
        raise RecordError(f"{path}.pullback", f"expected {rho} rows")
    rows = []
    for i, row in enumerate(pb):
        rows.append(_qvec_at(row, f"{path}.pullback[{i}]", rho - 1).entries)
    pullback = QMat(rows)
    edges = None
    if "target_edges" in value and value["target_edges"] is not None:
        raw = value["target_edges"]
        if not isinstance(raw, list) or not raw:
            raise RecordError(f"{path}.target_edges", "expected non-empty array")
        edges = tuple(_qvec_at(e, f"{path}.target_edges[{i}]", rho - 1)
                      for i, e in enumerate(raw))
    return ContractionDescriptor(target, pullback, edges)


def _chambers_at(value, path: str) -> ChamberSpec:
    _expect_keys(value, path, {"nodes", "edges"})
    nodes = []
    for i, n in enumerate(_list_at(value["nodes"], f"{path}.nodes")):
        _expect_keys(n, f"{path}.nodes[{i}]", {"id", "label"})
        if not isinstance(n["id"], str) or not isinstance(n["label"], str):
            raise RecordError(f"{path}.nodes[{i}]", "id and label must be strings")
        nodes.append(ChamberNode(n["id"], n["label"]))
    edges = []
    for i, e in enumerate(_list_at(value["edges"], f"{path}.edges")):
        _expect_keys(e, f"{path}.edges[{i}]", {"from", "to", "type"})
        if not all(isinstance(e[k], str) for k in ("from", "to", "type")):
            raise RecordError(f"{path}.edges[{i}]",
                              "from, to and type must be strings")
        edges.append(ChamberEdge(e["from"], e["to"], e["type"]))
    return ChamberSpec(tuple(nodes), tuple(edges))


def record_from_json(data: dict, source: str = "record") -> FanoRecord:
    """Build a FanoRecord from parsed JSON, checking only the schema.

    Numeric invariants (antiK agreement, pointedness, projection formula)
    live in validate_record so that mistake fixtures stay loadable.
    """
    _expect_keys(data, source,
                 {"id", "basis", "antiK_combo", "rays", "flop_tables",
                  "weyl_group", "flop_types"},
                 {"chambers"})
    record_id = _id_at(data["id"], f"{source}.id")
    basis = data["basis"]
    if (not isinstance(basis, list) or not basis
            or not all(isinstance(b, str) for b in basis)):
        raise RecordError(f"{source}.basis", "expected array of strings")
    rho = len(basis)
    combo = _qvec_at(data["antiK_combo"], f"{source}.antiK_combo", rho)

    rays = []
    labels_seen = set()
    if not isinstance(data["rays"], list) or not data["rays"]:
        raise RecordError(f"{source}.rays", "expected non-empty array")
    for i, raw in enumerate(data["rays"]):
        path = f"{source}.rays[{i}]"
        _expect_keys(raw, path, {"label", "vec", "antiK", "type"},
                     {"contraction"})
        label = raw["label"]
        if not isinstance(label, str) or not label:
            raise RecordError(f"{path}.label", "expected non-empty string")
        if label in labels_seen:
            raise RecordError(f"{path}.label", f"duplicate ray label {label!r}")
        labels_seen.add(label)
        if raw["type"] not in RAY_TYPES:
            raise RecordError(f"{path}.type",
                              f"unknown ray type {raw['type']!r}")
        contraction = None
        if "contraction" in raw and raw["contraction"] is not None:
            contraction = _contraction_at(raw["contraction"],
                                          f"{path}.contraction", rho)
        if raw["type"] in DIVISORIAL_TYPES and contraction is None:
            raise RecordError(path,
                              f"divisorial ray {label!r} needs a contraction")
        rays.append(RayRecord(label, _qvec_at(raw["vec"], f"{path}.vec", rho),
                              _rat_at(raw["antiK"], f"{path}.antiK"),
                              raw["type"], contraction))

    tables: dict[str, tuple[FlopRow, ...]] = {}
    if not isinstance(data["flop_tables"], dict):
        raise RecordError(f"{source}.flop_tables", "expected object")
    for key, raw_rows in data["flop_tables"].items():
        path = f"{source}.flop_tables.{key}"
        if key not in labels_seen:
            raise RecordError(path, f"key {key!r} is not a ray label")
        rows = []
        row_labels = set()
        for i, raw in enumerate(_list_at(raw_rows, path)):
            rpath = f"{path}[{i}]"
            _expect_keys(raw, rpath, {"label", "vec", "antiK"})
            if not isinstance(raw["label"], str):
                raise RecordError(f"{rpath}.label", "expected string")
            if raw["label"] in row_labels:
                raise RecordError(rpath, f"duplicate row label {raw['label']!r}")
            row_labels.add(raw["label"])
            rows.append(FlopRow(raw["label"],
                                _qvec_at(raw["vec"], f"{rpath}.vec", rho),
                                _rat_at(raw["antiK"], f"{rpath}.antiK")))
        tables[key] = tuple(rows)

    if not isinstance(data["weyl_group"], str):
        raise RecordError(f"{source}.weyl_group", "expected string")
    ftypes = data["flop_types"]
    if not isinstance(ftypes, list) or not all(
            t in FLOP_TYPES for t in ftypes):
        raise RecordError(f"{source}.flop_types",
                          f"entries must be among {FLOP_TYPES}")
    chambers = None
    if "chambers" in data and data["chambers"] is not None:
        chambers = _chambers_at(data["chambers"], f"{source}.chambers")

    return FanoRecord(record_id, rho, tuple(basis), combo, tuple(rays),
                      tables, data["weyl_group"], tuple(ftypes), chambers)


def _json_at(raw, path: str):
    """Parsed JSON from bytes or text; already parsed data passes through."""
    if isinstance(raw, (bytes, bytearray)):
        raw = raw.decode("utf-8")
    if not isinstance(raw, str):
        return raw
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise RecordError(path, f"bad JSON: {exc}") from None


def parse_record(raw, strict: bool = True):
    """Parse JSON bytes/text into a validated FanoRecord.

    strict=True raises on the first invariant finding (the default API
    behaviour); strict=False returns (record, findings) so the audit can
    report every violation of a mistake fixture.
    """
    record = record_from_json(_json_at(raw, "record"))
    findings = validate_record(record)
    if strict:
        if findings:
            f = findings[0]
            raise RecordError(f"{record.record_id.render()}.{f.key}",
                              f"[{f.check}] {f.message}")
        return record
    return record, findings


# ---------------------------------------------------------------------------
# Numeric invariants
# ---------------------------------------------------------------------------

def validate_record(record: FanoRecord) -> list[Finding]:
    """All invariant checks as row-keyed findings (empty = clean)."""
    findings: list[Finding] = []
    combo = record.antiK_combo

    def check_row(key: str, vec: QVec, antiK: Fraction):
        expected = combo.dot(vec)
        if expected != antiK:
            findings.append(Finding(
                "antiK", key,
                f"-K mismatch: row says {rat_str(antiK)}, "
                f"combo gives {rat_str(expected)}"))

    for ray in record.rays:
        check_row(f"rays.{ray.label}", ray.vec, ray.antiK)
        if ray.antiK <= 0:
            findings.append(Finding(
                "fano-positivity", f"rays.{ray.label}",
                f"-K.{ray.label} = {rat_str(ray.antiK)} is not positive"))
    for key, rows in sorted(record.flop_tables.items()):
        for row in rows:
            check_row(f"flop_tables.{key}.{row.label}", row.vec, row.antiK)

    for ray in record.rays:
        desc = ray.contraction
        if desc is None:
            continue
        key = f"rays.{ray.label}.contraction"
        image = desc.pullback.transpose().apply(ray.vec)
        if not image.is_zero():
            findings.append(Finding(
                "pullback", key,
                f"projection formula violated: pullback^T . vec(l) = "
                f"({', '.join(image.to_strings())}) != 0"))
        pullback_rank = rank(desc.pullback.entries)
        if pullback_rank != record.rho - 1:
            findings.append(Finding(
                "pullback", key,
                f"pullback rank {pullback_rank} != {record.rho - 1}"))
        if desc.target_edges is not None:
            edges = []
            for i, e in enumerate(desc.target_edges):
                if e.is_zero():
                    findings.append(Finding(
                        "target-edges", f"{key}.target_edges[{i}]",
                        "zero edge vector"))
                else:
                    edges.append(canonicalize_ray(e))
            for i, e in enumerate(edges):
                others = edges[:i] + edges[i + 1:]
                if others and Cone(record.rho - 1, others).contains(e):
                    findings.append(Finding(
                        "target-edges", f"{key}.target_edges[{i}]",
                        f"edge {e} lies in the cone of the other edges"))

    try:
        pointed = record.ray_cone().is_pointed()
        if not pointed.pointed:
            findings.append(Finding(
                "pointedness", "rays",
                f"ray cone contains the line through {pointed.line}"))
    except (ConeError, ExactArithError) as exc:  # e.g. a zero ray vector
        findings.append(Finding("pointedness", "rays", str(exc)))

    if len(record.rays) < record.rho:
        findings.append(Finding(
            "antiK-combo", "rays",
            f"{len(record.rays)} ray row(s) cannot determine a "
            f"rank-{record.rho} anticanonical combination"))
        return findings
    derived = derive_antiK_combo(
        [(r.vec, r.antiK) for r in record.rays], record.rho)
    if derived.status == "ok" and derived.combo != combo:
        findings.append(Finding(
            "antiK-combo", "antiK_combo",
            f"stored combination ({', '.join(combo.to_strings())}) "
            f"disagrees with the one derived from the ray rows "
            f"({', '.join(derived.combo.to_strings())})"))
    elif derived.status == "inconsistent":
        labels = [record.rays[i].label for i in derived.witnesses]
        findings.append(Finding(
            "antiK-combo", "rays",
            f"ray rows are mutually inconsistent: {labels}"))

    return findings


# ---------------------------------------------------------------------------
# Anticanonical combination
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AntiKDerivation:
    status: str                      # "ok" | "underdetermined" | "inconsistent"
    combo: Optional[QVec] = None
    kernel_dim: int = 0
    witnesses: tuple[int, ...] = ()


def derive_antiK_combo(rows: Sequence[tuple[QVec, Fraction]],
                       rho: int) -> AntiKDerivation:
    """Solve for the coefficients lam with lam . vec = antiK on every row.

    Unique solution when the rows have full rank and agree; otherwise the
    kernel dimension (underdetermined) or an irreducible witness set of
    mutually inconsistent row indices.
    """
    if len(rows) < rho:
        raise ExactArithError(f"need at least {rho} rows, got {len(rows)}")
    a = QMat([r[0].entries for r in rows])
    b = QVec([r[1] for r in rows])
    solved = solve_linear(a, b)
    if solved is None:
        return AntiKDerivation("inconsistent", witnesses=inconsistent_rows(
            a.entries, b.entries))
    combo, ker = solved
    if ker:
        return AntiKDerivation("underdetermined", kernel_dim=len(ker))
    return AntiKDerivation("ok", combo=combo)


# ---------------------------------------------------------------------------
# Serialization and table diffing
# ---------------------------------------------------------------------------

def serialize_record(record: FanoRecord) -> dict:
    """Canonical JSON form; parse(serialize(r)) round-trips identically."""
    out: dict = {
        "id": record.record_id.to_json(),
        "basis": list(record.basis_labels),
        "antiK_combo": record.antiK_combo.to_strings(),
        "rays": [],
        "flop_tables": {},
        "weyl_group": record.weyl_group,
        "flop_types": list(record.flop_types),
    }
    for ray in record.rays:
        entry: dict = {"label": ray.label, "vec": ray.vec.to_strings(),
                       "antiK": rat_str(ray.antiK), "type": ray.ray_type}
        if ray.contraction is not None:
            desc = ray.contraction
            entry["contraction"] = {
                "target": desc.target.to_json() if desc.target else None,
                "pullback": [[rat_str(e) for e in row]
                             for row in desc.pullback.entries],
            }
            if desc.target_edges is not None:
                entry["contraction"]["target_edges"] = [
                    e.to_strings() for e in desc.target_edges]
        out["rays"].append(entry)
    for key in sorted(record.flop_tables):
        out["flop_tables"][key] = [
            {"label": row.label, "vec": row.vec.to_strings(),
             "antiK": rat_str(row.antiK)}
            for row in record.flop_tables[key]]
    if record.chambers is not None:
        out["chambers"] = {
            "nodes": [{"id": n.node_id, "label": n.label}
                      for n in record.chambers.nodes],
            "edges": [{"from": e.src, "to": e.dst, "type": e.flop_type}
                      for e in record.chambers.edges],
        }
    return out


def diff_records(record: FanoRecord, reference: FanoRecord) -> list[Finding]:
    """Row-keyed differences of one record against a reference.

    Used to reconcile a mistake fixture with its corrected sibling: the
    finding set is exactly the list of corrected rows.
    """
    findings: list[Finding] = []

    def diff_row(key, vec_a, antik_a, vec_b, antik_b):
        if vec_a != vec_b or antik_a != antik_b:
            findings.append(Finding(
                "correction", key,
                f"({', '.join(vec_a.to_strings())} | {rat_str(antik_a)}) "
                f"should read "
                f"({', '.join(vec_b.to_strings())} | {rat_str(antik_b)})"))

    ref_rays = {r.label: r for r in reference.rays}
    for ray in record.rays:
        if ray.label in ref_rays:
            ref = ref_rays[ray.label]
            diff_row(f"rays.{ray.label}", ray.vec, ray.antiK,
                     ref.vec, ref.antiK)
        else:
            findings.append(Finding("correction", f"rays.{ray.label}",
                                    "ray absent from the reference record"))
    for label in sorted(set(ref_rays) - {r.label for r in record.rays}):
        findings.append(Finding("correction", f"rays.{label}",
                                "ray missing (present in the reference)"))

    keys = sorted(set(record.flop_tables) | set(reference.flop_tables))
    for key in keys:
        mine = {r.label: r for r in record.flop_tables.get(key, ())}
        theirs = {r.label: r for r in reference.flop_tables.get(key, ())}
        for label in sorted(set(mine) | set(theirs)):
            path = f"flop_tables.{key}.{label}"
            if label not in theirs:
                findings.append(Finding(
                    "correction", path, "row label absent from the reference"))
            elif label not in mine:
                findings.append(Finding(
                    "correction", path, "row missing (present in the reference)"))
            else:
                diff_row(path, mine[label].vec, mine[label].antiK,
                         theirs[label].vec, theirs[label].antiK)
    return findings
