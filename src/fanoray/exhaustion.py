"""Exhaustion criterion for a candidate set of extremal rays.

For every candidate ray the contraction pushes the whole cone down one
dimension; the candidate set is complete iff every edge of every pushed
cone is hit by the image of another candidate.  Edge identity is canonical
primitive-ray equality, never approximate, so the verdict is invariant
under positive rescaling of any candidate or edge.

Target edge sets come from data: transcribed on the contraction
descriptor (record-table), fixed by the target's Picard rank one (rank-one:
on a rho = 2 record every contraction lands on a curve cone that is a
single ray), or computed from the record's full corrected ray set
(derived-oracle).  A derived set is the images of the 2-faces of the
full ray cone through the contracted ray (the edges of a quotient by a
face), read off that cone's one double description: every contraction of
a record shares it.  Audits weaken only the candidate set, never the
targets, so a failure genuinely reflects a missing ray.
"""

from __future__ import annotations

from itertools import count
from typing import Mapping, NamedTuple, Optional, Sequence

from .cone import IVec, canonicalize_ray
from .model import FanoRecord, require_direction
from .rational import Mat, Vec, apply


class ExhaustionError(ValueError):
    pass


class TargetEntry(NamedTuple):
    edges: tuple[IVec, ...]         # sorted extreme rays of a pointed cone
    provenance: str     # "record-table" | "rank-one" | "derived-oracle"


class Miss(NamedTuple):
    ray_index: int                    # 1-based position in the record's rays
    ray_label: str
    edge: IVec
    note: str


class ReciprocalFailure(NamedTuple):
    ray_label: str
    other_label: str


class ExhaustionReport(NamedTuple):
    record: str
    candidate_labels: tuple[str, ...]
    misses: tuple[Miss, ...]
    reciprocal_failures: tuple[ReciprocalFailure, ...]

    @property
    def verdict(self) -> str:
        ok = not self.misses and not self.reciprocal_failures
        return "pass" if ok else "fail"

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json(self) -> dict:
        return {
            "record": self.record,
            "candidates": list(self.candidate_labels),
            "verdict": self.verdict,
            "misses": [{"ray_index": m.ray_index, "ray": m.ray_label,
                        "edge": list(m.edge), "note": m.note}
                       for m in self.misses],
            "reciprocal_failures": [{"ray": f.ray_label, "other": f.other_label}
                                    for f in self.reciprocal_failures],
        }


def pushforward_map(record: FanoRecord, label: str) -> Mat:
    """Pushforward on curve classes: the transpose of the contraction's
    pullback matrix (projection formula), read from the ray's chart."""
    ray = record.ray(label)
    if ray.contraction is None:
        raise ExhaustionError(
            f"{record.record_id.render()}: ray {label} has no contraction "
            f"descriptor")
    phi, image, phi_rank = ray.chart
    if any(image):
        raise ExhaustionError(
            f"{record.record_id.render()}: descriptor of {label} does not "
            f"annihilate its own ray")
    if phi_rank != record.rho - 1:
        raise ExhaustionError(
            f"{record.record_id.render()}: pushforward of {label} has rank "
            f"{phi_rank}, expected {record.rho - 1}; its kernel is larger "
            f"than the contracted ray")
    return phi


def derive_target_edges(record: FanoRecord, label: str) -> TargetEntry:
    """Edge set of the pushed cone, read off the cone of the whole record
    (derive from a ray subset on a record truncated to it).

    The chart's kernel is the contracted ray l, so the pushed cone is the
    quotient of the ray cone by its face l, whose edges are the images of
    the 2-faces through l: one per neighbour of l in that cone's one
    double description.
    """
    cone = record.ray_cone()
    if not cone.is_pointed().pointed:
        raise ExhaustionError(
            f"{record.record_id.render()}: ray set is not pointed")
    phi = pushforward_map(record, label)
    contracted = canonicalize_ray(record.ray(label).vec)
    if contracted not in cone.extreme_rays():
        raise ExhaustionError(
            f"{record.record_id.render()}: contracted ray {label} = "
            f"{list(contracted)} is not an extreme ray of the ray set")
    edges = {canonicalize_ray(apply(phi, r))
             for r in cone.neighbours(contracted)}
    return TargetEntry(tuple(sorted(edges)), "derived-oracle")


def build_targets(record: FanoRecord,
                  prefer_record_tables: bool = True
                  ) -> dict[str, TargetEntry]:
    """Target edges for every descriptor-bearing ray.

    With ``prefer_record_tables`` (the CLI's ``--targets auto``) a
    transcribed edge set wins when present (record-table provenance): its
    targets are the extreme rays of the record's memoised edge cone, which
    must not hold a line, so a listed edge in the cone of the others is no
    target.  A contraction of a rho = 2 record without one gets the single
    edge (1,) (rank-one provenance): its target has Picard rank one, and
    the chart's basis is assumed to be the target's ample generator.  Such
    an edge set depends on no ray of the record, so deleting a ray cannot
    shrink it; its chart is still checked first, so a broken chart raises
    before any target is built.  Everything else is derived from the whole
    record.
    """
    targets: dict[str, TargetEntry] = {}
    for ray in record.rays:
        if ray.contraction is None:
            continue
        edges = ray.contraction.target_edges
        if prefer_record_tables and edges is not None:
            where = (f"{record.record_id.render()}.rays.{ray.label}"
                     f".contraction.target_edges")
            cone = record.cone(record.rho - 1, [
                canonicalize_ray(require_direction(f"{where}[{i}]", e))
                for i, e in enumerate(edges)])
            pointed = cone.is_pointed()
            if not pointed.pointed:
                raise ExhaustionError(f"{where}: edge cone contains the "
                                      f"line through {pointed.line}")
            targets[ray.label] = TargetEntry(cone.extreme_rays(),
                                             "record-table")
        elif prefer_record_tables and record.rho == 2:
            pushforward_map(record, ray.label)
            targets[ray.label] = TargetEntry(((1,),), "rank-one")
        else:
            targets[ray.label] = derive_target_edges(record, ray.label)
    return targets


def check_exhaustion(record: FanoRecord,
                     candidate_labels: Sequence[str],
                     targets: Mapping[str, TargetEntry],
                     extra_rays: Optional[Mapping[str, Vec]] = None
                     ) -> ExhaustionReport:
    """Run the criterion over a candidate set.

    extra_rays lets the inductive extension add proposal vectors that are
    not record rays; they act as cover providers only (no descriptor, so
    no edge set of their own is checked).  A candidate set in which no
    ray carries a descriptor, or a candidate whose target edge set is
    empty, raises ``ExhaustionError``: an edge set would go unchecked, so
    a "pass" would be vacuous.
    """
    extra_rays = dict(extra_rays or {})
    index_of = {lab: i + 1 for i, lab in enumerate(record.ray_labels())}
    vectors = {lab: extra_rays[lab] if lab in extra_rays
               else record.ray_vec(lab) for lab in candidate_labels}
    if not record.cone(record.rho, vectors.values()).is_pointed().pointed:
        raise ExhaustionError(
            f"{record.record_id.render()}: candidate set is not pointed")

    phis: dict[str, Mat] = {}        # candidate -> its pushforward
    for lab in candidate_labels:
        if lab in extra_rays or record.ray(lab).contraction is None:
            continue
        phis[lab] = pushforward_map(record, lab)
        if lab not in targets:
            raise ExhaustionError(
                f"{record.record_id.render()}: no target edges for "
                f"candidate {lab}")
        if not targets[lab].edges:
            raise ExhaustionError(
                f"{record.record_id.render()}: the target edge set of "
                f"candidate {lab} is empty, so there is nothing to check")
    if not phis:
        raise ExhaustionError(
            f"{record.record_id.render()}: no candidate carries a "
            f"contraction descriptor, so there is nothing to check")

    # each nonzero image, once, for both the edge cover and the reciprocals
    images = {lab: {other: canonicalize_ray(image)
                    for other, vec in vectors.items()
                    if other != lab and any(image := apply(phi, vec))}
              for lab, phi in phis.items()}

    misses: list[Miss] = []
    reciprocal: list[ReciprocalFailure] = []
    for lab in phis:
        for edge in targets[lab].edges:
            matched = [other for other, canon in images[lab].items()
                       if canon == edge]
            if not matched:
                misses.append(Miss(index_of.get(lab, 0), lab, edge,
                                   "no candidate maps onto this edge"))
                continue
            for other in matched:
                if (other in phis
                        and images[other].get(lab) not in targets[other].edges):
                    reciprocal.append(ReciprocalFailure(lab, other))

    misses.sort(key=lambda m: (m.ray_index, m.edge))
    reciprocal = sorted(set(reciprocal),
                        key=lambda f: (f.ray_label, f.other_label))
    return ExhaustionReport(record.record_id.render(),
                            tuple(candidate_labels), tuple(misses),
                            tuple(reciprocal))


class ExtensionResult(NamedTuple):
    final_candidates: tuple[str, ...]
    reports: tuple[ExhaustionReport, ...]
    events: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return self.reports[-1].passed


def extend_candidates(record: FanoRecord,
                      candidate_labels: Sequence[str],
                      targets: Mapping[str, TargetEntry],
                      proposals: Sequence[Vec]
                      ) -> ExtensionResult:
    """Inductive extension: rerun the criterion, consuming the first
    proposal whose image matches a missing edge, until pass or exhaustion
    of proposals.

    A proposal equal (up to positive scale) to a record ray is adopted
    under that ray's label, descriptor included, so the final check covers
    its edge set too.  Any other is added as ``p<k>``, the first such label
    that is not a record ray's.
    """
    candidates = list(candidate_labels)
    extras: dict[str, Vec] = {}
    pending = [(canonicalize_ray(p), p) for p in proposals]
    events: list[str] = []
    report = check_exhaustion(record, candidates, targets, extras)
    reports = [report]
    by_canon = {canonicalize_ray(r.vec): r.label for r in record.rays}
    labels = set(record.ray_labels())

    while not report.passed and pending:
        consumed = None
        for miss in report.misses:
            phi = pushforward_map(record, miss.ray_label)
            for k, (canon, vec) in enumerate(pending):
                image = apply(phi, vec)
                if not any(image):
                    continue
                if canonicalize_ray(image) == miss.edge:
                    consumed = (k, canon, vec, miss)
                    break
            if consumed:
                break
        if consumed is None:
            for canon, _ in pending:
                events.append(f"proposal {canon} matches no missing edge; "
                              f"skipped")
            break
        k, canon, vec, miss = consumed
        pending.pop(k)
        if canon in by_canon:
            label = by_canon[canon]
            events.append(f"adopted record ray {label} for the missing edge "
                          f"{miss.edge} of {miss.ray_label}")
        else:
            label = next(f"p{k}" for k in count(1) if f"p{k}" not in labels)
            labels.add(label)
            extras[label] = vec
            events.append(f"added proposal {label} = {canon} for the missing "
                          f"edge {miss.edge} of {miss.ray_label}")
        candidates.append(label)
        report = check_exhaustion(record, candidates, targets, extras)
        reports.append(report)

    return ExtensionResult(tuple(candidates), tuple(reports), tuple(events))
