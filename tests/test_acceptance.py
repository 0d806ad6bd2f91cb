"""Acceptance suite: every criterion exact, zero tolerance.

Each test prints one PASS/FAIL line (run with -s or look at captured
output).  Expected values are frozen from the corrected tables and from
independent recomputation; nothing here is tuned.
"""

import json
from fractions import Fraction

from fanoray.chambers import chamber_graph, emit_dot, facet_patch_check, nef_cone
from fanoray.cli import main
from fanoray.cone import canonicalize_ray
from fanoray.exhaustion import build_targets, check_exhaustion, pushforward_map
from fanoray.flop import compute_flop
from fanoray.model import derive_antiK_combo, diff_records
from fanoray.rational import apply, dot

from oracles import extreme_rays_bruteforce, in_cone_bruteforce, random_pointed_cones


def _line(num, ok, text):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num}: {text}"


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_criterion_1_missing_ray_reproduction(capsys, record_paths, records):
    rec = records["b2_5_n1"]
    code, out = run_cli(capsys, "check-exhaustion",
                        str(record_paths["b2_5_n1"]),
                        "--drop-ray", "l8", "--targets", "derived")
    payload = json.loads(out)
    expected = []
    for i in (4, 5, 6, 7):
        phi = pushforward_map(rec, f"l{i}")
        expected.append((i, canonicalize_ray(apply(phi, rec.ray("l8").vec))))
    got = [(m["ray_index"], tuple(m["edge"])) for m in payload["misses"]]
    fail_ok = (code == 1 and payload["verdict"] == "fail" and got == expected
               and not payload["reciprocal_failures"])

    code_full, out_full = run_cli(capsys, "check-exhaustion",
                                  str(record_paths["b2_5_n1"]),
                                  "--targets", "derived")
    pass_ok = code_full == 0 and json.loads(out_full)["verdict"] == "pass"
    _line(1, fail_ok and pass_ok,
          "candidates l1..l7 fail exactly at i=4,5,6 (edge = phi_i(l8)) "
          "and i=7; the full eight-ray set passes")


def test_criterion_2_flop_coefficients(flop_configs):
    def grid(name):
        coeffs = compute_flop(flop_configs[name]).coeffs
        return tuple(tuple(e for e in row) for row in coeffs)

    half = Fraction(1, 2)
    ok = (grid("e1_b2_2_n1") == ((-1,), (0,))
          and grid("e3_b2_2_n8") == ((-1,), (0,))
          and grid("e5_b2_2_n28") == ((Fraction(3, 2), 3), (half, 1))
          and grid("e2_b2_2_n30") == ((1, 2), (half, 1)))
    _line(2, ok, "flop coefficients: (-1,0) / (-1,0) / (3/2,3,1/2,1) / "
                 "(1,2,1/2,1)")


def test_criterion_3_flopped_rows(flop_configs):
    def rows(name):
        return {r.label: tuple(r.vec) + (r.antiK,)
                for r in compute_flop(flop_configs[name]).rows}

    half = Fraction(1, 2)
    ok = (rows("e1_b2_2_n1") == {"l11": (1, 0, -1), "l21": (0, 1, 2)}
          and rows("e3_b2_2_n8") == {"l12": (0, 1, 2), "l22": (1, 0, -1)}
          and rows("e5_b2_2_n28") == {
              "l12": (half, half, Fraction(3, 2)),
              "l22": (Fraction(-3, 2), -half, -half)}
          and rows("e2_b2_2_n30") == {"l12": (1, 1, 3),
                                      "l22": (-1, -half, -1)})
    _line(3, ok, "flopped rows match the corrected tables cell by cell")


def test_criterion_4_antik_audit(records, mistakes):
    rec = records["b2_5_n1"]
    derived = derive_antiK_combo([(r.vec, r.antiK) for r in rec.rays], 5)
    lam_ok = derived.status == "ok" and derived.combo == (
        -2, -2, -2, -1, 3)
    table_rows = [row for rows in rec.flop_tables.values() for row in rows]
    rows_ok = len(table_rows) == 64 and all(
        dot(derived.combo, row.vec) == row.antiK for row in table_rows)

    n1_mistake, n1_findings = mistakes["b2_5_n1_mistake"]
    antik_keys = [f.key for f in n1_findings if f.check == "antiK"]
    n1_flagged = {f.key for f in diff_records(n1_mistake, rec)}
    n1_ok = (antik_keys == ["flop_tables.l5.l25"]
             and n1_flagged == {"flop_tables.l5.l25",
                                "flop_tables.l7.l17", "flop_tables.l7.l27",
                                "flop_tables.l7.l37", "flop_tables.l7.l47",
                                "flop_tables.l7.l57", "flop_tables.l7.l67"})

    n3_mistake, n3_findings = mistakes["b2_4_n3_mistake"]
    n3_flagged = {f.key for f in diff_records(n3_mistake,
                                              records["b2_4_n3"])}
    n3_ok = (n3_flagged == {"rays.l4", "flop_tables.l1.l21",
                            "flop_tables.l2.l12", "flop_tables.l3.l43"}
             and any(f.check == "antiK" and f.key == "rays.l4"
                     for f in n3_findings))
    _line(4, lam_ok and rows_ok and n1_ok and n3_ok,
          "lambda = (-2,-2,-2,-1,3), 64/64 rows consistent; mistakes "
          "flagged at exactly l25 + the six l_k7 rows, and at l4/l21/l12/l43")


def test_criterion_5_nef_cone_shapes(records):
    counts = {name: len(nef_cone(records[name]).facets())
              for name in ("b2_4_n13", "b2_4_n3", "b2_2_n1", "b2_2_n8",
                           "b2_2_n28", "b2_2_n30")}
    ok = (counts["b2_4_n13"] == 5 and counts["b2_4_n3"] == 4
          and all(counts[n] == 2 for n in ("b2_2_n1", "b2_2_n8",
                                           "b2_2_n28", "b2_2_n30")))
    _line(5, ok, f"nef facet counts {counts}")


def test_criterion_6_dual_formulation_equivalence(records):
    agreements = []
    rec = records["b2_5_n1"]
    targets = build_targets(rec, prefer_record_tables=False)
    for labels in (rec.ray_labels(), rec.ray_labels()[:7]):
        report = check_exhaustion(rec, labels, targets)
        patch = facet_patch_check(rec, targets, report) == []
        agreements.append(report.passed == patch)
    for name in ("b2_2_n1", "b2_2_n8", "b2_2_n28", "b2_2_n30"):
        rec = records[name]
        targets = build_targets(rec, prefer_record_tables=False)
        report = check_exhaustion(rec, rec.ray_labels(), targets)
        patch = facet_patch_check(rec, targets, report) == []
        agreements.append(report.passed == patch)
    _line(6, all(agreements),
          "facet-patch verdict == exhaustion verdict on B2=5 n1 (full and "
          "l8-dropped) and on all four B2=2 fixtures")


def test_criterion_7_cone_property_suite():
    cones = random_pointed_cones(200, seed=20240815)
    ok = len(cones) >= 200
    for cone in cones:
        gens = list(cone.generators)
        dim = cone.ambient_dim
        if list(cone.extreme_rays()) != extreme_rays_bruteforce(gens, dim):
            ok = False
            break
        if cone.is_full_dimensional():
            ddual = cone.dual().dual()
            if not all(ddual.contains(g) for g in gens):
                ok = False
                break
            if not all(in_cone_bruteforce(g, gens, dim)
                       for g in ddual.generators):
                ok = False
                break
        probe = tuple(sum(g[k] for g in gens) - 1 for k in range(dim))
        for v in gens[:2] + ([probe] if any(probe) else []):
            res = cone.membership(v)
            if res.inside:
                combo = [sum(c * g[k] for c, g in zip(res.coefficients, gens))
                         for k in range(dim)]
                if (any(c < 0 for c in res.coefficients)
                        or tuple(combo) != tuple(Fraction(x) for x in v)):
                    ok = False
            else:
                good = (all(sum(Fraction(n) * x for n, x in
                                zip(res.separator, g)) >= 0 for g in gens)
                        and sum(Fraction(n) * x for n, x in
                                zip(res.separator, v)) < 0)
                if not good:
                    ok = False
        scaled = [tuple(3 * x for x in g) for g in gens]
        if canonicalize_ray(scaled[0]) != canonicalize_ray(gens[0]):
            ok = False
        if not ok:
            break
    _line(7, ok, "200 random pointed cones: extreme rays == brute force, "
                 "dual-dual membership, certificates re-verify, scaling "
                 "invariance")


def test_criterion_8_chamber_graph_dot(records, record_paths, capsys,
                                       tmp_path):
    rec = records["b2_3_n31"]
    first = emit_dot(chamber_graph(rec))
    second = emit_dot(chamber_graph(rec))
    graph = chamber_graph(rec)
    labels = sorted(t for _, _, t in graph.edges)

    dot_path = tmp_path / "n31.dot"
    code, _ = run_cli(capsys, "nef", str(record_paths["b2_3_n31"]),
                      "--dot", str(dot_path))
    ok = (len(graph.nodes) == 3 and labels == ["E1", "E1", "F"]
          and first == second and code == 0
          and dot_path.read_text() == first)
    _line(8, ok, "B2=3 n31 emits a 3-node DOT graph with edge labels "
                 "{E1, E1, F}, byte-identical across runs")
