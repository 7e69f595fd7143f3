"""Report rows, serialization formats, and suite orchestration."""

import json
import math

import pytest

from cctrig import (CSV_HEADER, Curvature, DomainError, MAX_BELOW, MIN_ABOVE,
                    RECORDED, CheckRow, ResidualReport, SUITE_NAMES,
                    SuiteConfig, make_row, render, run_suite, to_csv, to_human, to_json)

HYP = Curvature.hyperbolic()


def _report(rows, suite="euclidean", tolerance=1e-9, elapsed=0.25):
    samples = rows[0].samples if rows else 1
    return ResidualReport(suite, 42, samples, tolerance, HYP, tuple(rows),
                          elapsed)


def test_make_row_order_statistics():
    row = make_row("demo", [float(i) for i in range(1, 101)], 1e3)
    assert row.samples == 100
    assert row.max_abs == 100.0
    assert row.min_abs == 1.0
    assert row.mean_abs == pytest.approx(50.5)
    assert row.p99_abs == 99.0  # ceil(0.99 * 100)-th order statistic
    assert row.passed is True


def test_make_row_takes_absolute_values():
    row = make_row("demo", [-3.0, 1.0, -2.0], 10.0)
    assert (row.max_abs, row.min_abs) == (3.0, 1.0)
    assert row.mean_abs == pytest.approx(2.0)


def test_max_below_is_strict():
    assert make_row("demo", [1.0], 1.0).passed is False
    assert make_row("demo", [0.999999], 1.0).passed is True


def test_min_above_compares_the_smallest_value():
    row = make_row("demo", [5.0, 2.0, 9.0], 1.0, comparison=MIN_ABOVE)
    assert row.passed is True
    assert make_row("demo", [5.0, 1.0], 1.0, comparison=MIN_ABOVE).passed is False


def test_conjecture_rows_take_no_verdict():
    row = make_row("demo", [0.5], None, conjecture=True)
    assert row.passed is None
    assert row.comparison == RECORDED
    assert row.conjecture is True


def test_make_row_rejects_bad_inputs():
    with pytest.raises(DomainError):
        make_row("demo", [], 1.0)
    with pytest.raises(DomainError):
        make_row("demo", [1.0, math.nan], 1.0)
    with pytest.raises(DomainError):
        make_row("demo", [1.0, math.inf], 1.0)
    with pytest.raises(DomainError):
        make_row("demo", [1.0], 1.0, comparison="sideways")


def test_suite_config_validation():
    cfg = SuiteConfig()
    assert (cfg.seed, cfg.samples, cfg.tolerance) == (42, 10000, 1e-9)
    assert cfg.curvature.kind.value == "hyperbolic"
    with pytest.raises(DomainError):
        SuiteConfig(samples=0)
    with pytest.raises(DomainError):
        SuiteConfig(seed=-1)
    with pytest.raises(DomainError):
        SuiteConfig(seed=2 ** 64)
    with pytest.raises(DomainError):
        SuiteConfig(tolerance=0.0)
    with pytest.raises(DomainError):
        SuiteConfig(tolerance=math.inf)


def test_report_passed_ignores_conjecture_rows():
    good = make_row("good", [1e-12], 1e-9)
    bad = make_row("bad", [1.0], 1e-9)
    conjecture = make_row("guess", [1.0], None, conjecture=True)
    assert _report([good, conjecture]).passed is True
    assert _report([good, bad]).passed is False
    assert _report([conjecture]).passed is True


def test_json_shape_and_float_round_trip():
    value = math.pi * 1e-10
    row = make_row("demo", [value], 1e-9)
    text = to_json(_report([row]))
    data = json.loads(text)
    assert data["schema"] == 1
    assert data["suite"] == "euclidean"
    assert data["seed"] == 42
    assert data["tolerance"] == 1e-9
    assert data["curvature"] == {"kind": "hyperbolic", "k": 1.0}
    assert data["pass"] is True
    assert "elapsed" not in text
    (row_data,) = data["rows"]
    assert row_data["relation_id"] == "demo"
    assert row_data["max_abs_residual"] == value  # 17 digits round-trip
    assert row_data["comparison"] == "max_below"
    assert row_data["pass"] is True


@pytest.mark.parametrize("value", (math.nan, math.inf, -math.inf))
def test_json_refuses_non_finite_floats(value):
    row = CheckRow("demo", 1, value, value, value, value, 1e-9)
    with pytest.raises(DomainError):
        to_json(_report([row]))


@pytest.mark.parametrize("value", (math.nan, math.inf, -math.inf))
def test_csv_refuses_non_finite_floats(value):
    row = CheckRow("demo", 1, value, value, value, value, 1e-9)
    with pytest.raises(DomainError):
        to_csv(_report([row]))


def test_json_conjecture_row_is_null_tolerance():
    row = make_row("guess", [0.5], None, conjecture=True)
    (row_data,) = json.loads(to_json(_report([row])))["rows"]
    assert row_data["tolerance"] is None
    assert row_data["pass"] is None
    assert row_data["comparison"] == "recorded"


def test_csv_header_and_conjecture_cells():
    rows = [make_row("demo", [2e-10], 1e-9),
            make_row("guess", [0.5], None, conjecture=True)]
    lines = to_csv(_report(rows)).splitlines()
    assert lines[0] == CSV_HEADER
    demo = lines[1].split(",")
    assert demo[0] == "euclidean"
    assert demo[1] == "demo"
    assert demo[-1] == "true"
    guess = lines[2].split(",")
    assert guess[1] == "guess"
    assert guess[-4] == ""            # tolerance cell empty
    assert guess[-3] == "recorded"
    assert guess[-1] == ""            # pass cell empty


def test_human_format_carries_timing_and_verdicts():
    rows = [make_row("demo", [2e-10], 1e-9),
            make_row("floor", [5.0], 1.0, comparison=MIN_ABOVE),
            make_row("guess", [0.5], None, conjecture=True)]
    text = to_human(_report(rows))
    assert "elapsed: 0.250 s" in text
    assert "max < 1e-09" in text
    assert "min > 1" in text
    assert "recorded" in text
    assert text.endswith("overall: PASS\n")
    failing = to_human(_report([make_row("demo", [1.0], 1e-9)]))
    assert "FAIL" in failing
    assert failing.endswith("overall: FAIL\n")


def test_render_dispatch():
    report = _report([make_row("demo", [2e-10], 1e-9)])
    assert render(report, "json") == to_json(report)
    assert render(report, "csv") == to_csv(report)
    assert render(report, "human") == to_human(report)
    with pytest.raises(DomainError):
        render(report, "xml")


def test_machine_formats_are_deterministic_across_runs():
    cfg = SuiteConfig(samples=25)
    first = run_suite("euclidean", cfg)
    second = run_suite("euclidean", cfg)
    assert to_json(first) == to_json(second)
    assert to_csv(first) == to_csv(second)
    assert first.elapsed_seconds > 0.0


def test_all_concatenates_the_suites_in_order():
    cfg = SuiteConfig(samples=10)
    combined = run_suite("all", cfg)
    rows = []
    for name in SUITE_NAMES:
        rows.extend(run_suite(name, cfg).rows)
    assert combined.rows == tuple(rows)
    ids = [r.relation_id for r in combined.rows]
    assert len(ids) == len(set(ids))
    assert combined.passed is True


def test_unknown_suite_is_a_domain_error():
    with pytest.raises(DomainError):
        run_suite("elliptic", SuiteConfig(samples=5))
