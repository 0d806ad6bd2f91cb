"""Exact-rational verification toolkit for extremal-ray tables of Fano
3-folds: polyhedral cone engine, exhaustion criterion for candidate ray
sets, flop intersection-number calculus, and a batch audit harness.

Every exact value is an ``int`` when integral and a ``Fraction``
otherwise (``rat``), and every vector is a plain tuple of such values,
a matrix a tuple of row tuples (``fanoray.rational``)."""

from .rational import Rat, rat, rat_str, solve_linear
from .cone import Cone, ConeError, canonicalize_ray
from .model import (FanoRecord, Finding, RecordError, RecordId,
                    derive_antiK_combo, diff_records, parse_record,
                    serialize_record, validate_record)
from .exhaustion import (ExhaustionReport, build_targets, check_exhaustion,
                         derive_target_edges, extend_candidates,
                         pushforward_map)
from .flop import (FlopConfig, FlopResult, compute_flop, flopped_rows,
                   parse_flop_config, solve_pullback_coeffs,
                   verify_against_table)
from .chambers import (ChamberGraph, chamber_graph, emit_dot,
                       facet_patch_check, nef_cone)

__all__ = [
    "Rat", "rat", "rat_str", "solve_linear",
    "Cone", "ConeError", "canonicalize_ray",
    "FanoRecord", "Finding", "RecordError", "RecordId",
    "derive_antiK_combo", "diff_records", "parse_record",
    "serialize_record", "validate_record",
    "ExhaustionReport", "build_targets", "check_exhaustion",
    "derive_target_edges", "extend_candidates", "pushforward_map",
    "FlopConfig", "FlopResult", "compute_flop", "flopped_rows",
    "parse_flop_config", "solve_pullback_coeffs", "verify_against_table",
    "ChamberGraph", "chamber_graph", "emit_dot", "facet_patch_check",
    "nef_cone",
]

__version__ = "0.1.0"
