"""Dual-side checks: nef cones, boundary facet patching, chamber graphs.

The nef cone is the dual of the ray cone; each ray supports one facet.
The patching check is the exhaustion criterion read on the dual side,
from the same images and by pairings alone (no LP).  Write P for a
contraction's pullback, phi = P^T for its pushforward, I for the images
phi(c) of the other candidates and E for its target edges.  By
adjointness (P w).c = w.phi(c), so the facet cut out by the contracted
ray, read in the chart, is dual(cone(I)), and it is dual(cone(E))
exactly when cone(I) = cone(E).  E is a set of extreme rays, so that
holds when every edge of E is an image and every image pairs >= 0 with
every generator of dual(E).  Each distinct edge set is dualised once per
check.  There is no codimension-two audit: two facets of a pointed,
full-dimensional cone have independent normals, so it could never
report.  Chamber graphs are transcribed adjacency, validated and emitted
as DOT.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Optional, Sequence

from .cone import Cone
from .exhaustion import TargetEntry, candidate_images, pushforward_map
from .model import (FLOP_TYPES, ChamberSpec, FanoRecord, Finding)
from .rational import dot


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
    """Boundary-patching audit of the nef cone: exhaustion's dual half.

    For each candidate ray l with a descriptor and a checked chart, the
    facet of the nef cone on l's wall must be the dual of l's target
    edges: each edge must be the image of another candidate, and every
    image must pair >= 0 with each generator of the edges' dual.
    """
    labels = list(candidate_labels) if candidate_labels is not None \
        else record.ray_labels()
    nef_cone(record, labels)  # ChamberError unless pointed, full-dimensional
    vectors = {lab: record.ray(lab).vec for lab in labels}
    findings: list[Finding] = []
    duals: dict[tuple, tuple] = {}

    for lab in labels:
        if record.ray(lab).contraction is None or lab not in targets:
            continue
        phi = pushforward_map(record, lab)  # ExhaustionError on a bad chart
        images = set(candidate_images(phi, vectors, lab).values())
        edges = targets[lab].edges
        for e in edges:
            if e not in images:
                findings.append(Finding(
                    "facet-patch", f"rays.{lab}",
                    f"facet of the nef cone on {lab}'s wall differs from "
                    f"the dual of its target edges: no candidate maps onto "
                    f"the edge {e}"))
        if edges not in duals:
            duals[edges] = Cone(record.rho - 1, edges).dual().generators
        for e in duals[edges]:
            # by adjointness, (P e).c = e.phi(c) for every candidate c
            if any(dot(e, image) < 0 for image in images):
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
