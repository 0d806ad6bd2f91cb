"""Exhaustion criterion for a candidate set of extremal rays.

For every candidate ray the contraction pushes the whole cone down one
dimension; the candidate set is complete iff every edge of every pushed
cone is hit by the image of another candidate.  Edge identity is canonical
primitive-ray equality, never approximate, so the verdict is invariant
under positive rescaling of any candidate or edge.

Target edge sets come from data: either transcribed on the contraction
descriptor (record-table) or computed from the record's full corrected ray
set (derived-oracle).  Audits weaken only the candidate set, never the
targets, so a failure genuinely reflects a missing ray.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .cone import Cone, IVec, canonicalize_ray
from .model import FanoRecord
from .rational import QMat, QVec, rank


class ExhaustionError(ValueError):
    pass


@dataclass(frozen=True)
class TargetEntry:
    edges: tuple[IVec, ...]
    provenance: str                   # "record-table" | "derived-oracle"


@dataclass(frozen=True)
class Miss:
    ray_index: int                    # 1-based position in the record's rays
    ray_label: str
    edge: IVec
    note: str


@dataclass(frozen=True)
class ReciprocalFailure:
    ray_label: str
    other_label: str


@dataclass(frozen=True)
class ExhaustionReport:
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


def pushforward_map(record: FanoRecord, label: str) -> QMat:
    """Pushforward on curve classes: the transpose of the contraction's
    pullback matrix (projection formula)."""
    ray = record.ray(label)
    if ray.contraction is None:
        raise ExhaustionError(
            f"{record.record_id.render()}: ray {label} has no contraction "
            f"descriptor")
    phi = ray.contraction.pullback.transpose()
    if not phi.apply(ray.vec).is_zero():
        raise ExhaustionError(
            f"{record.record_id.render()}: descriptor of {label} does not "
            f"annihilate its own ray")
    phi_rank = rank(phi.entries)
    if phi_rank != record.rho - 1:
        raise ExhaustionError(
            f"{record.record_id.render()}: pushforward of {label} has rank "
            f"{phi_rank}, expected {record.rho - 1}; its kernel is larger "
            f"than the contracted ray")
    return phi


def derive_target_edges(record: FanoRecord, full_labels: Sequence[str],
                        label: str) -> TargetEntry:
    """Edge set of the pushed cone, computed from the full ray set."""
    cone = record.ray_cone(full_labels)
    pointed = cone.is_pointed()
    if not pointed.pointed:
        raise ExhaustionError(
            f"{record.record_id.render()}: ray set is not pointed")
    image = cone.image(pushforward_map(record, label))
    # image() already reduced its generators to the sorted extreme rays
    return TargetEntry(image.generators, "derived-oracle")


def build_targets(record: FanoRecord,
                  prefer_record_tables: bool = True
                  ) -> dict[str, TargetEntry]:
    """Target edges for every descriptor-bearing ray.

    Descriptor-supplied edge sets win when present (record-table
    provenance); everything else is derived from the full corrected set.
    """
    full = record.ray_labels()
    targets: dict[str, TargetEntry] = {}
    for ray in record.rays:
        if ray.contraction is None:
            continue
        edges = ray.contraction.target_edges
        if prefer_record_tables and edges is not None:
            targets[ray.label] = TargetEntry(
                tuple(sorted(canonicalize_ray(e) for e in edges)),
                "record-table")
        else:
            targets[ray.label] = derive_target_edges(record, full, ray.label)
    return targets


def check_exhaustion(record: FanoRecord,
                     candidate_labels: Sequence[str],
                     targets: Mapping[str, TargetEntry],
                     extra_rays: Optional[Mapping[str, QVec]] = None
                     ) -> ExhaustionReport:
    """Run the criterion over a candidate set.

    extra_rays lets the inductive extension add proposal vectors that are
    not record rays; they act as cover providers only (no descriptor, so
    no edge set of their own is checked).
    """
    extra_rays = dict(extra_rays or {})
    index_of = {lab: i + 1 for i, lab in enumerate(record.ray_labels())}
    vectors: dict[str, QVec] = {}
    for lab in candidate_labels:
        if lab in extra_rays:
            vectors[lab] = extra_rays[lab]
        else:
            vectors[lab] = record.ray(lab).vec

    cone = (Cone(record.rho, list(vectors.values())) if extra_rays
            else record.ray_cone(candidate_labels))
    if not cone.is_pointed().pointed:
        raise ExhaustionError(
            f"{record.record_id.render()}: candidate set is not pointed")

    misses: list[Miss] = []
    reciprocal: list[ReciprocalFailure] = []
    phis: dict[str, QMat] = {}

    def phi_of(lab: str) -> Optional[QMat]:
        if lab in extra_rays or record.ray(lab).contraction is None:
            return None
        if lab not in phis:
            phis[lab] = pushforward_map(record, lab)
        return phis[lab]

    for lab in candidate_labels:
        phi = phi_of(lab)
        if phi is None:
            continue
        if lab not in targets:
            raise ExhaustionError(
                f"{record.record_id.render()}: no target edges for "
                f"candidate {lab}")
        images = []
        for other in candidate_labels:
            if other == lab:
                continue
            image = phi.apply(vectors[other])
            if not image.is_zero():
                images.append((other, canonicalize_ray(image)))
        for edge in targets[lab].edges:
            matched = [other for other, canon in images if canon == edge]
            if not matched:
                misses.append(Miss(index_of.get(lab, 0), lab, edge,
                                   "no candidate maps onto this edge"))
                continue
            for other in matched:
                phi_other = phi_of(other)
                if phi_other is None or other not in targets:
                    continue
                back = canonicalize_ray(phi_other.apply(vectors[lab]))
                if back not in targets[other].edges:
                    reciprocal.append(ReciprocalFailure(lab, other))

    misses.sort(key=lambda m: (m.ray_index, m.edge))
    reciprocal = sorted(set(reciprocal),
                        key=lambda f: (f.ray_label, f.other_label))
    return ExhaustionReport(record.record_id.render(),
                            tuple(candidate_labels), tuple(misses),
                            tuple(reciprocal))


@dataclass(frozen=True)
class ExtensionResult:
    final_candidates: tuple[str, ...]
    reports: tuple[ExhaustionReport, ...]
    events: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return self.reports[-1].passed


def extend_candidates(record: FanoRecord,
                      candidate_labels: Sequence[str],
                      targets: Mapping[str, TargetEntry],
                      proposals: Sequence[QVec]
                      ) -> ExtensionResult:
    """Inductive extension: rerun the criterion, consuming the first
    proposal whose image matches a missing edge, until pass or exhaustion
    of proposals.

    A proposal equal (up to positive scale) to a record ray is adopted
    under that ray's label, descriptor included, so the final check covers
    its edge set too.
    """
    candidates = list(candidate_labels)
    extras: dict[str, QVec] = {}
    pending = [(canonicalize_ray(p), p) for p in proposals]
    reports: list[ExhaustionReport] = []
    events: list[str] = []
    by_canon = {canonicalize_ray(r.vec): r.label for r in record.rays}

    while True:
        report = check_exhaustion(record, candidates, targets, extras)
        reports.append(report)
        if report.passed or not pending:
            break
        consumed = None
        for miss in report.misses:
            phi = pushforward_map(record, miss.ray_label)
            for k, (canon, vec) in enumerate(pending):
                image = phi.apply(vec)
                if image.is_zero():
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
            label = f"p{len(extras) + 1}"
            extras[label] = vec
            events.append(f"added proposal {label} = {canon} for the missing "
                          f"edge {miss.edge} of {miss.ray_label}")
        candidates.append(label)

    return ExtensionResult(tuple(candidates), tuple(reports), tuple(events))
