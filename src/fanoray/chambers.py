"""Dual-side checks: nef cones, boundary facet patching, chamber graphs.

The nef cone is the dual of the ray cone; each ray supports one facet.
The patching check is the exhaustion criterion read on the dual side,
off exhaustion's report and by pairings alone (no chart, image or LP).
Write P for a contraction's pullback, phi = P^T for its pushforward, I
for the images phi(c) of the other candidates and E for its target
edges.  By adjointness (P w).c = w.phi(c), so the facet cut out by the
contracted ray, read in the chart, is dual(cone(I)), and it is
dual(cone(E)) exactly when cone(I) = cone(E), that is when the report
misses no edge of E and every P w, w a generator of dual(E), pairs >= 0
with every candidate.  Each distinct edge set is dualised once per
check.  There is no codimension-two audit: two facets of a pointed,
full-dimensional cone have independent normals, so it could never
report.  Chamber graphs are transcribed adjacency, validated and emitted
as DOT.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Optional, Sequence

from .cone import Cone
from .exhaustion import ExhaustionReport, TargetEntry
from .model import FLOP_TYPES, FanoRecord, Finding
from .rational import apply, dot


class ChamberError(ValueError):
    pass


def checked_ray_cone(record: FanoRecord,
                     candidate_labels: Optional[Sequence[str]] = None) -> Cone:
    """The ray cone; ChamberError unless it is pointed and full-dimensional."""
    cone = record.ray_cone(candidate_labels)
    if not cone.is_pointed().pointed:
        raise ChamberError(
            f"{record.record_id.render()}: ray cone is not pointed")
    if not cone.is_full_dimensional():
        raise ChamberError(
            f"{record.record_id.render()}: ray cone has rank {cone.rank()} "
            f"< {record.rho}, nef cone would not be pointed")
    return cone


def nef_cone(record: FanoRecord,
             candidate_labels: Optional[Sequence[str]] = None) -> Cone:
    """Dual of the ray cone; requires a pointed, full-dimensional input."""
    return checked_ray_cone(record, candidate_labels).dual()


def facet_patch_check(record: FanoRecord,
                      targets: Mapping[str, TargetEntry],
                      report: ExhaustionReport) -> list[Finding]:
    """Boundary-patching audit of the nef cone: exhaustion's dual half.

    ``report`` is ``check_exhaustion``'s on the same targets.  For each
    candidate ray l with a descriptor, l's target edges must each be an
    image (the report's misses are not), and each pulled-back generator
    of their dual must pair >= 0 with every candidate.
    """
    labels = report.candidate_labels
    vectors = checked_ray_cone(record, labels).generators
    findings: list[Finding] = []
    duals: dict[tuple, tuple] = {}

    for lab in labels:
        contraction = record.ray(lab).contraction
        if contraction is None:
            continue
        for miss in report.misses:
            if miss.ray_label == lab:
                findings.append(Finding(
                    "facet-patch", f"rays.{lab}",
                    f"facet of the nef cone on {lab}'s wall differs from "
                    f"the dual of its target edges: no candidate maps onto "
                    f"the edge {miss.edge}"))
        edges = targets[lab].edges
        if edges not in duals:
            duals[edges] = Cone(record.rho - 1, edges).dual().generators
        for e in duals[edges]:
            # by adjointness, (P e).c = e.phi(c) for every candidate c
            pulled = apply(contraction.pullback, e)
            if any(dot(pulled, vec) < 0 for vec in vectors):
                findings.append(Finding(
                    "facet-patch", f"rays.{lab}",
                    f"dual of target edges exceeds the facet on {lab}'s "
                    f"wall: witness {e}"))
    return findings


# ---------------------------------------------------------------------------
# Chamber graph
# ---------------------------------------------------------------------------

class ChamberGraph(NamedTuple):
    nodes: tuple[tuple[str, str], ...]        # (id, label), sorted by id
    edges: tuple[tuple[str, str, str], ...]   # (from, to, flop_type)


def chamber_graph(record: FanoRecord) -> ChamberGraph:
    """Validated chamber graph from the record's transcribed adjacency."""
    spec = record.chambers
    if spec is None:
        raise ChamberError(
            f"{record.record_id.render()} carries no chamber data")
    ids = [n.node_id for n in spec.nodes]
    if len(set(ids)) != len(ids):
        raise ChamberError("duplicate chamber ids")
    known = set(ids)
    for e in spec.edges:
        if e.flop_type not in FLOP_TYPES:
            raise ChamberError(f"illegal flop type {e.flop_type!r}")
        if e.src not in known or e.dst not in known:
            raise ChamberError(f"edge {e.src}--{e.dst} references unknown "
                               f"chamber")
        if e.src == e.dst:
            raise ChamberError(f"self-loop at {e.src}")
    nodes = tuple(sorted((n.node_id, n.label) for n in spec.nodes))
    edges = tuple(sorted((e.src, e.dst, e.flop_type) for e in spec.edges))
    return ChamberGraph(nodes, edges)


def emit_dot(graph: ChamberGraph) -> str:
    """Deterministic Graphviz text: nodes sorted by id, edges by (from, to)."""
    lines = ["graph {"]
    for node_id, label in graph.nodes:
        lines.append(f'  "{node_id}" [label="{label}"];')
    for src, dst, flop_type in graph.edges:
        lines.append(f'  "{src}" -- "{dst}" [label="{flop_type}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
