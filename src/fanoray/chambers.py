"""Dual-side checks: nef cones, boundary facet patching, chamber graphs.

The nef cone is the dual of the ray cone; each ray supports one facet.
The patching check re-states the exhaustion criterion on the dual side,
by pairings on a checked chart (no LP): the facet cut out by a ray, read
in the contraction's divisor chart, must be the dual of that ray's target
edges.  Each distinct target edge set is dualised once per check.  There
is no codimension-two audit: two facets of a pointed, full-dimensional
cone have independent normals, so it could never report.  Chamber graphs
are transcribed adjacency, validated and emitted as DOT.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Optional, Sequence

from .cone import Cone
from .exhaustion import TargetEntry, pushforward_map
from .model import (FLOP_TYPES, ChamberSpec, FanoRecord, Finding)
from .rational import _left_inverse, apply, dot, rat_str


class ChamberError(ValueError):
    pass


def nef_cone(record: FanoRecord,
             candidate_labels: Optional[Sequence[str]] = None) -> Cone:
    """Dual of the ray cone; requires a pointed, full-dimensional input."""
    cone = record.ray_cone(candidate_labels)
    if not cone.is_pointed().pointed:
        raise ChamberError(
            f"{record.record_id.render()}: ray cone is not pointed")
    if not cone.is_full_dimensional():
        raise ChamberError(
            f"{record.record_id.render()}: ray cone has rank {cone.rank()} "
            f"< {record.rho}, nef cone would not be pointed")
    return cone.dual()


def facet_patch_check(record: FanoRecord,
                      targets: Mapping[str, TargetEntry],
                      candidate_labels: Optional[Sequence[str]] = None
                      ) -> list[Finding]:
    """Boundary-patching audit of the nef cone.

    For each candidate ray l with a descriptor, the facet of the nef cone
    on l's wall, read in the pullback chart P, must be the dual of l's
    target edges.  ``pushforward_map`` checks the chart first; then P has
    full column rank and maps it onto the wall, so one left inverse of P
    gives every facet generator's preimage, and both containments are
    pairings: each preimage with the edges, and P e for each dual
    generator e with the candidate rays, each distinct edge set dualised
    once.  Findings mirror exhaustion failures: a candidate set missing a
    ray leaves some facet strictly larger than the dual it should match.
    """
    labels = list(candidate_labels) if candidate_labels is not None \
        else record.ray_labels()
    findings: list[Finding] = []
    amp = nef_cone(record, labels)
    candidates = [record.ray(lab).vec for lab in labels]
    duals: dict[tuple, tuple] = {}

    for lab in labels:
        ray = record.ray(lab)
        if ray.contraction is None or lab not in targets:
            continue
        pushforward_map(record, lab)  # ExhaustionError on a bad chart
        pullback = ray.contraction.pullback
        inverse = _left_inverse(pullback)
        chart_wall = [apply(inverse, w) for w in amp.generators
                      if dot(w, ray.vec) == 0]
        edges = targets[lab].edges
        for w in chart_wall:
            # the definition of the dual: w pairs >= 0 with every edge
            if any(dot(w, e) < 0 for e in edges):
                findings.append(Finding(
                    "facet-patch", f"rays.{lab}",
                    f"facet of the nef cone on {lab}'s wall is strictly "
                    f"larger than the dual of its target edges: witness "
                    f"({', '.join(map(rat_str, w))})"))
        if chart_wall:
            if edges not in duals:
                duals[edges] = Cone(record.rho - 1, edges).dual().generators
            for e in duals[edges]:
                image = apply(pullback, e)
                if any(dot(image, c) < 0 for c in candidates):
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


def chamber_graph(record: FanoRecord,
                  adjacency: Optional[ChamberSpec] = None) -> ChamberGraph:
    """Validated chamber graph from transcribed adjacency data."""
    spec = adjacency if adjacency is not None else record.chambers
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
