import json

import pytest

from fanoray.flop import (compute_flop, flop_config_from_json,
                          parse_flop_config, solve_pullback_coeffs,
                          verify_against_table)
from fanoray.model import RecordError
from fanoray.rational import dot, rat_str


def coeff_grid(result):
    return [[str(e) for e in row] for row in result.coeffs]


def rows_of(result):
    return {r.label: (tuple(str(x) for x in r.vec), str(r.antiK))
            for r in result.rows}


def test_blowdown_to_curve_coefficients(flop_configs):
    res = compute_flop(flop_configs["e1_b2_2_n1"])
    assert coeff_grid(res) == [["-1"], ["0"]]


def test_node_smoothing_coefficients(flop_configs):
    res = compute_flop(flop_configs["e3_b2_2_n8"])
    assert coeff_grid(res) == [["-1"], ["0"]]


def test_half_point_blowdown_coefficients(flop_configs):
    res = compute_flop(flop_configs["e5_b2_2_n28"])
    assert coeff_grid(res) == [["3/2", "3"], ["1/2", "1"]]


def test_plane_blowdown_coefficients(flop_configs):
    res = compute_flop(flop_configs["e2_b2_2_n30"])
    assert coeff_grid(res) == [["1", "2"], ["1/2", "1"]]


def test_flopped_rows_match_expected_values(flop_configs):
    expected = {
        "e1_b2_2_n1": {"l11": (("1", "0"), "-1"), "l21": (("0", "1"), "2")},
        "e3_b2_2_n8": {"l12": (("0", "1"), "2"), "l22": (("1", "0"), "-1")},
        "e5_b2_2_n28": {"l12": (("1/2", "1/2"), "3/2"),
                        "l22": (("-3/2", "-1/2"), "-1/2")},
        "e2_b2_2_n30": {"l12": (("1", "1"), "3"),
                        "l22": (("-1", "-1/2"), "-1")},
    }
    for name, want in expected.items():
        assert rows_of(compute_flop(flop_configs[name])) == want


def test_contracted_curves_vanish_in_all_configs(flop_configs):
    for cfg in flop_configs.values():
        coeffs = solve_pullback_coeffs(cfg)
        for c in cfg.test_curves:
            if not c.contracted_by_flop:
                continue
            for t in range(len(cfg.tracked_divisors)):
                assert c.pullback_row[t] + dot(coeffs[t], c.exc_row) == 0


def test_antiK_is_linear_in_tracked_divisors(flop_configs):
    for cfg in flop_configs.values():
        for row in compute_flop(cfg).rows:
            assert dot(cfg.antiK_combo_tracked, row.vec) == row.antiK


def test_solving_invariant_under_contracted_curve_rescaling(flop_configs):
    cfg = flop_configs["e5_b2_2_n28"]
    data = json.loads(json.dumps(_as_json(cfg)))
    for curve in data["test_curves"]:
        if curve["label"] == "M":
            curve["pullback_row"] = ["9", "3"]
            curve["exc_row"] = ["-6", "0"]
    rescaled = flop_config_from_json(data)
    assert solve_pullback_coeffs(rescaled) == solve_pullback_coeffs(cfg)


def _as_json(cfg):
    return {
        "record": cfg.record.to_json(),
        "ray": cfg.ray,
        "tracked_divisors": list(cfg.tracked_divisors),
        "exceptional_divisors": list(cfg.exceptional_divisors),
        "test_curves": [
            {"label": c.label,
             "pullback_row": [rat_str(e) for e in c.pullback_row],
             "exc_row": [rat_str(e) for e in c.exc_row],
             "contracted_by_flop": c.contracted_by_flop}
            for c in cfg.test_curves],
        "result_curves": list(cfg.result_curves),
        "antiK_combo_tracked": [rat_str(e) for e in
                                cfg.antiK_combo_tracked],
    }


def test_verify_against_corrected_tables_is_clean(records, flop_configs):
    pairs = [("e1_b2_2_n1", "b2_2_n1"), ("e3_b2_2_n8", "b2_2_n8"),
             ("e5_b2_2_n28", "b2_2_n28"), ("e2_b2_2_n30", "b2_2_n30")]
    for cfg_name, rec_name in pairs:
        cfg = flop_configs[cfg_name]
        findings = verify_against_table(records[rec_name], cfg,
                                        compute_flop(cfg))
        assert findings == [], cfg_name


def test_verify_against_mistake_table_flags_miskeyed_rows(mistakes,
                                                          flop_configs):
    record, _ = mistakes["b2_2_n8_mistake"]
    cfg = flop_configs["e3_b2_2_n8"]
    findings = verify_against_table(record, cfg, compute_flop(cfg))
    keys = sorted(f.key for f in findings)
    assert keys == ["flop_tables.l2.l12", "flop_tables.l2.l22"]
    assert all("no row labeled" in f.message for f in findings)


def test_config_schema_round_trip(flop_configs):
    for cfg in flop_configs.values():
        again = parse_flop_config(json.dumps(_as_json(cfg)))
        assert again == cfg


def test_config_rejects_an_empty_result_curve_list(flop_configs):
    # no row would be compared, so a clean table check would be vacuous
    data = _as_json(flop_configs["e5_b2_2_n28"])
    data["result_curves"] = []
    with pytest.raises(RecordError, match=r"^flop\.result_curves: "):
        flop_config_from_json(data)
