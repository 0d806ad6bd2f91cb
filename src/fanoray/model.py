"""Record model for one deformation type: divisor basis, anticanonical
combination, extremal rays with contraction descriptors, flop row tables.

The -K column of every table is stored *and* recomputable from the
record-level combination; any disagreement is a row-keyed finding.  That
redundancy is deliberate: it turns table typos into mechanical findings
instead of silent corruption.  Loading checks only the schema
(``record_from_json``) and ``validate_record`` returns every finding, so
that deliberately wrong ("mistake") fixtures can be examined rather than
rejected; ``verify`` runs the two in turn.  ``parse_record`` does both and
by default raises on the first finding.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple, Optional, Sequence

from .cone import Cone, ConeError, canonicalize_ray
from .rational import (ExactArithError, Mat, Rat, Vec, apply, dot,
                       inconsistent_rows, rat, rat_str, rank, solve_linear,
                       transpose)

# ray type -> the lengths -K.l that Mori's classification of extremal
# contractions of smooth 3-folds allows it
RAY_TYPES = {"E1": (1,), "E2": (2,), "E3": (1,), "E4": (1,), "E5": (1,),
             "C": (1, 2), "D": (1, 2, 3)}
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


class Finding(NamedTuple):
    check: str      # e.g. "antiK", "pullback", "pointedness"
    key: str        # row/ray keyed, e.g. "flop_tables.l7.l25"
    message: str

    def render(self) -> str:
        return f"[{self.check}] {self.key}: {self.message}"


class RecordId(NamedTuple):
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


class ContractionDescriptor(NamedTuple):
    target: Optional[RecordId]
    pullback: Mat                        # rho rows, rho-1 columns
    target_edges: Optional[tuple[Vec, ...]] = None


# One bounded memo per engine fact, keyed by its exact inputs, so records
# with equal data (a mistake and its corrected sibling, a file read twice)
# share it; as in ``rational._literal``, no exception is stored.
@lru_cache(maxsize=1024)
def _cone(dim: int, vectors: frozenset) -> Cone:
    return Cone(dim, sorted(vectors))


@lru_cache(maxsize=1024)
def _chart(pullback: Mat, vec: Vec) -> tuple[Mat, Vec, int]:
    phi = transpose(pullback)
    return phi, apply(phi, vec), rank(phi)


@lru_cache(maxsize=1024)
def _derived_antiK(rows: tuple, rho: int) -> "AntiKDerivation":
    return derive_antiK_combo(rows, rho)


# RayRecord and FanoRecord stay frozen dataclasses (``dataclasses.replace``
# copies them); every other value record is a NamedTuple, cheaper at import.
@dataclass(frozen=True)
class RayRecord:
    label: str
    vec: Vec
    antiK: Rat
    ray_type: str
    contraction: Optional[ContractionDescriptor] = None

    @property
    def chart(self) -> tuple[Mat, Vec, int]:
        """(pushforward = pullback^T, its image of vec, its rank)."""
        return _chart(self.contraction.pullback, self.vec)


class FlopRow(NamedTuple):
    label: str
    vec: Vec
    antiK: Rat


class ChamberNode(NamedTuple):
    node_id: str
    label: str


class ChamberEdge(NamedTuple):
    src: str
    dst: str
    flop_type: str


class ChamberGraph(NamedTuple):
    nodes: tuple[ChamberNode, ...]        # (id, label), sorted by id
    edges: tuple[ChamberEdge, ...]        # (from, to, flop_type), sorted


@dataclass(frozen=True)
class FanoRecord:
    record_id: RecordId
    rho: int
    basis_labels: tuple[str, ...]
    antiK_combo: Vec
    rays: tuple[RayRecord, ...]
    flop_tables: dict[str, tuple[FlopRow, ...]]
    weyl_group: str
    flop_types: tuple[str, ...]
    chambers: Optional[ChamberGraph] = None

    def ray_labels(self) -> list[str]:
        return [r.label for r in self.rays]

    def ray(self, label: str) -> RayRecord:
        for r in self.rays:
            if r.label == label:
                return r
        raise KeyError(f"{self.record_id.render()}: no ray {label!r}")

    def cone(self, dim: int, vectors: Iterable[Vec]) -> Cone:
        """The cone of ``vectors`` in R^dim, one per distinct vector set,
        built on the set sorted so that its memoised facts depend on the
        set alone and not on which caller asked first."""
        return _cone(dim, frozenset(vectors))

    def ray_cone(self, labels: Optional[Sequence[str]] = None) -> Cone:
        """The cone of the named rays (all by default), read from ``cone``."""
        chosen = self.ray_labels() if labels is None else labels
        return self.cone(self.rho, map(self.ray_vec, chosen))

    def ray_vec(self, label: str) -> Vec:
        """A ray's vector; a zero one raises ``ConeError`` naming the ray."""
        vec = self.ray(label).vec
        if not any(vec):
            require_direction(f"{self.record_id.render()}.rays.{label}", vec)
        return vec

    @property
    def derived_antiK(self) -> "AntiKDerivation":
        """derive_antiK_combo on the ray rows."""
        return _derived_antiK(tuple((r.vec, r.antiK) for r in self.rays),
                              self.rho)


def require_direction(where: str, vec: Vec) -> Vec:
    """vec, which must be a ray direction; a zero vector raises
    ``ConeError`` naming where it was read: a file, or a record id and a
    key as in ``validate_record``'s findings ("B2=5/n1.rays.l1")."""
    if not any(vec):
        raise ConeError(f"{where}: zero vector has no ray direction")
    return vec


# ---------------------------------------------------------------------------
# JSON loading (schema layer)
# ---------------------------------------------------------------------------

def _expect_keys(obj: dict, path: str, required: set, optional: set = frozenset()):
    if not isinstance(obj, dict):
        raise RecordError(path, f"expected object, got {type(obj).__name__}")
    unknown = obj.keys() - required - optional
    if unknown:
        raise RecordError(path, f"unknown fields: {sorted(unknown)}")
    missing = required - obj.keys()
    if missing:
        raise RecordError(path, f"missing fields: {sorted(missing)}")


def _list_at(value, path: str) -> list:
    if not isinstance(value, list):
        raise RecordError(path, f"expected array, got {type(value).__name__}")
    return value


def _rat_at(value, path: str) -> Rat:
    if isinstance(value, float):
        raise RecordError(path, f"float rejected: {value!r}")
    try:
        return rat(value)
    except ExactArithError as exc:
        raise RecordError(path, str(exc)) from None


def _vec_at(value, path: str, dim: Optional[int] = None) -> Vec:
    if not isinstance(value, list) or not value:
        raise RecordError(path, "expected a non-empty array of rationals")
    try:
        v = tuple(map(rat, value))
    except ExactArithError:
        # only now build the paths: the first bad entry raises with its own
        for i, x in enumerate(value):
            _rat_at(x, f"{path}[{i}]")
        raise
    if dim is not None and len(v) != dim:
        raise RecordError(path, f"expected length {dim}, got {len(v)}")
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
    pullback = tuple(_vec_at(row, f"{path}.pullback[{i}]", rho - 1)
                     for i, row in enumerate(pb))
    edges = None
    if "target_edges" in value and value["target_edges"] is not None:
        raw = value["target_edges"]
        if not isinstance(raw, list) or not raw:
            raise RecordError(f"{path}.target_edges", "expected non-empty array")
        edges = tuple(_vec_at(e, f"{path}.target_edges[{i}]", rho - 1)
                      for i, e in enumerate(raw))
    return ContractionDescriptor(target, pullback, edges)


def _names_at(value, path: str, among=None,
              empty="expected array of strings") -> tuple[str, ...]:
    """An array of distinct strings (a basis, a divisor, curve or flop-type
    list), each one of ``among`` when that is given; an empty array raises
    ``empty`` unless that is None."""
    if not isinstance(value, list) or not all(isinstance(s, str)
                                              for s in value):
        raise RecordError(path, "expected array of strings")
    if not value and empty:
        raise RecordError(path, empty)
    for i, name in enumerate(value):
        if among is not None and name not in among:
            raise RecordError(f"{path}[{i}]",
                              f"{name!r} is not one of {', '.join(among)}")
        if value.index(name) < i:
            raise RecordError(f"{path}[{i}]", f"duplicate name {name!r}")
    return tuple(value)


def _entries_at(value, path: str, kind: str, required: set,
                optional: set = frozenset(), label: str = "label"):
    """(path, object) for each object of an array whose keys check out and
    whose ``label`` is a non-empty string no earlier entry has."""
    seen = set()
    for i, entry in enumerate(_list_at(value, path)):
        where = f"{path}[{i}]"
        _expect_keys(entry, where, required, optional)
        name = entry[label]
        if not isinstance(name, str) or not name:
            raise RecordError(f"{where}.{label}", "expected non-empty string")
        if name in seen:
            raise RecordError(where, f"duplicate {kind} {name!r}")
        seen.add(name)
        yield where, entry


def _chambers_at(value, path: str) -> ChamberGraph:
    """Distinct node ids; distinct edges of a flop type, each joining two
    distinct known ids; both lists sorted."""
    _expect_keys(value, path, {"nodes", "edges"})
    nodes: dict[str, ChamberNode] = {}
    for npath, n in _entries_at(value["nodes"], f"{path}.nodes",
                                "chamber id", {"id", "label"}, label="id"):
        if not isinstance(n["label"], str):
            raise RecordError(f"{npath}.label", "expected string")
        nodes[n["id"]] = ChamberNode(n["id"], n["label"])
    edges = []
    for i, e in enumerate(_list_at(value["edges"], f"{path}.edges")):
        epath = f"{path}.edges[{i}]"
        _expect_keys(e, epath, {"from", "to", "type"})
        edge = ChamberEdge(e["from"], e["to"], e["type"])
        if not all(isinstance(x, str) for x in edge):
            raise RecordError(epath, "from, to and type must be strings")
        if edge.flop_type not in FLOP_TYPES:
            raise RecordError(epath, f"illegal flop type {edge.flop_type!r}")
        for end in (edge.src, edge.dst):
            if end not in nodes:
                raise RecordError(epath, f"unknown chamber {end!r}")
        if edge.src == edge.dst:
            raise RecordError(epath, f"self-loop at {edge.src!r}")
        if edge in edges:
            raise RecordError(epath, f"duplicate edge {tuple(edge)}")
        edges.append(edge)
    return ChamberGraph(tuple(sorted(nodes.values())), tuple(sorted(edges)))


def record_from_json(data: dict) -> FanoRecord:
    """Build a FanoRecord from parsed JSON, checking only the schema.

    Numeric invariants (antiK agreement, pointedness, projection formula)
    live in validate_record so that mistake fixtures stay loadable.
    """
    _expect_keys(data, "record",
                 {"id", "basis", "antiK_combo", "rays", "flop_tables",
                  "weyl_group", "flop_types"},
                 {"chambers"})
    record_id = _id_at(data["id"], "record.id")
    basis = _names_at(data["basis"], "record.basis")
    rho = len(basis)
    combo = _vec_at(data["antiK_combo"], "record.antiK_combo", rho)

    rays: dict[str, RayRecord] = {}
    for path, raw in _entries_at(data["rays"], "record.rays", "ray label",
                                 {"label", "vec", "antiK", "type"},
                                 {"contraction"}):
        label = raw["label"]
        if not isinstance(raw["type"], str) or raw["type"] not in RAY_TYPES:
            raise RecordError(f"{path}.type",
                              f"unknown ray type {raw['type']!r}")
        contraction = None
        if "contraction" in raw and raw["contraction"] is not None:
            contraction = _contraction_at(raw["contraction"],
                                          f"{path}.contraction", rho)
        if raw["type"] in DIVISORIAL_TYPES and contraction is None:
            raise RecordError(path,
                              f"divisorial ray {label!r} needs a contraction")
        rays[label] = RayRecord(
            label, _vec_at(raw["vec"], f"{path}.vec", rho),
            _rat_at(raw["antiK"], f"{path}.antiK"), raw["type"], contraction)
    if not rays:
        raise RecordError("record.rays", "expected non-empty array")

    tables: dict[str, tuple[FlopRow, ...]] = {}
    if not isinstance(data["flop_tables"], dict):
        raise RecordError("record.flop_tables", "expected object")
    for key, raw_rows in data["flop_tables"].items():
        path = f"record.flop_tables.{key}"
        if key not in rays:
            raise RecordError(path, f"key {key!r} is not a ray label")
        tables[key] = tuple(
            FlopRow(raw["label"], _vec_at(raw["vec"], f"{rpath}.vec", rho),
                    _rat_at(raw["antiK"], f"{rpath}.antiK"))
            for rpath, raw in _entries_at(raw_rows, path, "row label",
                                          {"label", "vec", "antiK"}))

    if not isinstance(data["weyl_group"], str):
        raise RecordError("record.weyl_group", "expected string")
    ftypes = _names_at(data["flop_types"], "record.flop_types", FLOP_TYPES,
                       empty=None)
    chambers = None
    if "chambers" in data and data["chambers"] is not None:
        chambers = _chambers_at(data["chambers"], "record.chambers")

    return FanoRecord(record_id, rho, basis, combo, tuple(rays.values()),
                      tables, data["weyl_group"], ftypes, chambers)


def _json_at(raw, path: str):
    """Parsed JSON from UTF-8 bytes or text."""
    try:
        if isinstance(raw, (bytes, bytearray)):
            raw = raw.decode("utf-8")
        return json.loads(raw)
    except (ValueError, RecursionError) as exc:
        # ValueError: undecodable bytes, bad JSON or an int past Python's
        # digit limit
        raise RecordError(path, f"bad JSON: {exc}") from None


def parse_record(raw, strict: bool = True):
    """Parse JSON bytes/text into a validated FanoRecord.

    strict=True raises on the first invariant finding (the default API
    behaviour); strict=False returns (record, findings) instead.  The
    audit uses neither: ``verify`` calls ``record_from_json`` and
    ``validate_record`` itself.  The benchmark's set-up and the tests read
    mistake fixtures with strict=False.
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
    combo = record.antiK_combo
    findings = antik_mismatches(record, combo)
    first_label: dict[tuple, str] = {}  # canonical direction -> label
    for ray in record.rays:
        if ray.antiK <= 0:
            findings.append(Finding(
                "fano-positivity", f"rays.{ray.label}",
                f"-K.{ray.label} = {rat_str(ray.antiK)} is not positive"))
        elif ray.antiK not in RAY_TYPES[ray.ray_type]:
            findings.append(Finding(
                "ray-type", f"rays.{ray.label}",
                f"-K.{ray.label} = {rat_str(ray.antiK)} is not a length of "
                f"a type {ray.ray_type} ray "
                f"({', '.join(map(str, RAY_TYPES[ray.ray_type]))})"))
        if ray.ray_type == "D" and record.rho != 2:
            findings.append(Finding(
                "ray-type", f"rays.{ray.label}",
                f"a type D contraction maps onto P^1, so rho must be 2, "
                f"not {record.rho}"))
        if any(ray.vec):  # a zero vector is the pointedness finding's
            first = first_label.setdefault(canonicalize_ray(ray.vec),
                                           ray.label)
            if first != ray.label:
                findings.append(Finding("duplicate-ray", f"rays.{ray.label}",
                                        f"same ray as {first}"))

    for ray in record.rays:
        desc = ray.contraction
        if desc is None:
            continue
        key = f"rays.{ray.label}.contraction"
        _, image, pullback_rank = ray.chart
        if any(image):
            findings.append(Finding(
                "pullback", key,
                f"projection formula violated: pullback^T . vec(l) = "
                f"({', '.join(map(rat_str, image))}) != 0"))
        if pullback_rank != record.rho - 1:
            findings.append(Finding(
                "pullback", key,
                f"pullback rank {pullback_rank} != {record.rho - 1}"))
        if desc.target_edges is not None:
            edges = {}  # index in target_edges -> canonical nonzero edge
            for i, e in enumerate(desc.target_edges):
                if not any(e):
                    findings.append(Finding(
                        "target-edges", f"{key}.target_edges[{i}]",
                        "zero edge vector"))
                else:
                    edges[i] = canonicalize_ray(e)
            listed = list(edges.values())
            if not listed:
                continue
            edge_cone = record.cone(record.rho - 1, listed)
            pointed = edge_cone.is_pointed()
            if not pointed.pointed:
                findings.append(Finding(
                    "target-edges", f"{key}.target_edges",
                    f"edge cone contains the line through {pointed.line}"))
                continue
            # in a pointed cone an edge lies in the cone of the others
            # exactly when it repeats one or is not an extreme ray
            extreme = edge_cone.extreme_rays()
            for i, e in edges.items():
                if listed.count(e) > 1 or e not in extreme:
                    findings.append(Finding(
                        "target-edges", f"{key}.target_edges[{i}]",
                        f"edge {e} lies in the cone of the other edges"))

    try:
        cone = record.ray_cone()
        pointed = cone.is_pointed()
        if not pointed.pointed:
            findings.append(Finding(
                "pointedness", "rays",
                f"ray cone contains the line through {pointed.line}"))
        elif any(ray.contraction for ray in record.rays):
            # a contraction contracts an extremal ray; the memoised double
            # description read here serves exhaustion and facet-patch too
            extreme = cone.extreme_rays()
            for ray in record.rays:
                contracted = canonicalize_ray(ray.vec)
                if ray.contraction and contracted not in extreme:
                    findings.append(Finding(
                        "extremality", f"rays.{ray.label}.contraction",
                        f"contracted ray {ray.label} = {list(contracted)} "
                        f"is not an extreme ray of the ray cone"))
    except (ConeError, ExactArithError) as exc:  # e.g. a zero ray vector
        findings.append(Finding("pointedness", "rays", str(exc)))

    derived = record.derived_antiK
    if derived.status == "underdetermined":
        findings.append(Finding(
            "antiK-combo", "rays",
            f"ray rows of rank {record.rho - derived.kernel_dim} cannot "
            f"determine a rank-{record.rho} anticanonical combination"))
    elif derived.status == "ok" and derived.combo != combo:
        findings.append(Finding(
            "antiK-combo", "antiK_combo",
            f"stored combination ({', '.join(map(rat_str, combo))}) "
            f"disagrees with the one derived from the ray rows "
            f"({', '.join(map(rat_str, derived.combo))})"))
    elif derived.status == "inconsistent":
        labels = [record.rays[i].label for i in derived.witnesses]
        findings.append(Finding(
            "antiK-combo", "rays",
            f"ray rows are mutually inconsistent: {labels}"))

    return findings


# ---------------------------------------------------------------------------
# Anticanonical combination
# ---------------------------------------------------------------------------

def antik_mismatches(record: FanoRecord, combo: Vec) -> list[Finding]:
    """The ray rows, then the flop-table rows (tables by key), whose -K
    column disagrees with ``combo``: one "antiK" finding each."""
    rows = [(f"rays.{r.label}", r) for r in record.rays] + [
        (f"flop_tables.{key}.{row.label}", row)
        for key, table in sorted(record.flop_tables.items()) for row in table]
    return [Finding("antiK", key, f"-K mismatch: row says "
                    f"{rat_str(row.antiK)}, combo gives {rat_str(expected)}")
            for key, row in rows
            if (expected := dot(combo, row.vec)) != row.antiK]


class AntiKDerivation(NamedTuple):
    status: str                      # "ok" | "underdetermined" | "inconsistent"
    combo: Optional[Vec] = None
    kernel_dim: int = 0
    witnesses: tuple[int, ...] = ()


def derive_antiK_combo(rows: Sequence[tuple[Vec, Rat]],
                       rho: int) -> AntiKDerivation:
    """Solve for the coefficients lam with lam . vec = antiK on every row.

    Unique solution when the rows have full rank and agree; otherwise the
    kernel dimension (underdetermined) or an irreducible witness set of
    mutually inconsistent row indices; ``rho`` is the number of unknowns.
    """
    if not rows:
        return AntiKDerivation("underdetermined", kernel_dim=rho)
    a = [r[0] for r in rows]
    b = [r[1] for r in rows]
    solved = solve_linear(a, b)
    if solved is None:
        return AntiKDerivation("inconsistent",
                               witnesses=inconsistent_rows(a, b))
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
        "antiK_combo": [rat_str(e) for e in record.antiK_combo],
        "rays": [],
        "flop_tables": {},
        "weyl_group": record.weyl_group,
        "flop_types": list(record.flop_types),
    }
    for ray in record.rays:
        entry: dict = {"label": ray.label,
                       "vec": [rat_str(e) for e in ray.vec],
                       "antiK": rat_str(ray.antiK), "type": ray.ray_type}
        if ray.contraction is not None:
            desc = ray.contraction
            entry["contraction"] = {
                "target": desc.target.to_json() if desc.target else None,
                "pullback": [[rat_str(e) for e in row]
                             for row in desc.pullback],
            }
            if desc.target_edges is not None:
                entry["contraction"]["target_edges"] = [
                    [rat_str(x) for x in e] for e in desc.target_edges]
        out["rays"].append(entry)
    for key in sorted(record.flop_tables):
        out["flop_tables"][key] = [
            {"label": row.label, "vec": [rat_str(e) for e in row.vec],
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


def _row_text(row) -> str:
    """A ray or flop-table row as findings quote it: (vec | antiK)."""
    return f"({', '.join(map(rat_str, row.vec))} | {rat_str(row.antiK)})"


def diff_records(record: FanoRecord, reference: FanoRecord) -> list[Finding]:
    """Row-keyed differences of one record against a reference.

    Used to reconcile a mistake fixture with its corrected sibling: the
    finding set is exactly the list of corrected rows.
    """
    findings: list[Finding] = []

    def diff_row(key, row, ref):
        if (row.vec, row.antiK) != (ref.vec, ref.antiK):
            findings.append(Finding(
                "correction", key,
                f"{_row_text(row)} should read {_row_text(ref)}"))

    ref_rays = {r.label: r for r in reference.rays}
    for ray in record.rays:
        if ray.label in ref_rays:
            diff_row(f"rays.{ray.label}", ray, ref_rays[ray.label])
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
                diff_row(path, mine[label], theirs[label])
    return findings
