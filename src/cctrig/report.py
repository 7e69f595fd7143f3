"""Residual-report data model and serialization.

A verification run produces one ResidualReport: a list of rows, one per
relation exercised, each carrying order statistics of the absolute
residuals and a pass flag. Reports serialize to three formats:

* ``json`` — single object, snake_case keys, floats printed with 17
  significant digits (round-trip exact for IEEE doubles), ``schema: 1``;
* ``csv`` — one header row plus one line per relation;
* ``human`` — aligned table with the elapsed wall-clock time.

The machine formats contain no timing information, so a rerun with the
same configuration is byte-identical; elapsed time appears only in the
human format (and on stderr from the CLI).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .curvature import Curvature
from .errors import DomainError

SCHEMA_VERSION = 1

#: the verification suites, in the order `verify all` runs them; the
#: order also fixes each suite's random stream (suites._STREAM_BASE)
SUITE_NAMES = ("spherical", "hyperbolic", "euclidean", "sphere-model", "horosphere",
               "prism", "substitution", "limits", "cevians")

#: Row semantics: either the largest residual must stay below tolerance,
#: or (for sensitivity rows) the smallest value must stay above it.
MAX_BELOW = "max_below"
MIN_ABOVE = "min_above"
#: Conjecture rows carry this comparison: the value is published without
#: a pass verdict.
RECORDED = "recorded"

CSV_HEADER = ("suite,relation_id,samples,max_abs_residual,mean_abs_residual,"
              "p99_abs_residual,min_abs_residual,tolerance,comparison,"
              "conjecture,pass")


def _is_int(value) -> bool:
    """An int and not a bool, which reports would print as True or False."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class SuiteConfig:
    """Knobs shared by every verification suite."""

    seed: int = 42
    samples: int = 10000
    tolerance: float = 1e-9
    curvature: Curvature = field(default_factory=Curvature.hyperbolic)

    def __post_init__(self) -> None:
        if not (_is_int(self.samples) and self.samples >= 1):
            raise DomainError(f"samples must be a positive integer, got {self.samples}")
        if not (_is_int(self.seed) and 0 <= self.seed < 2 ** 64):
            raise DomainError(f"seed must fit an unsigned 64-bit integer, got {self.seed}")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0.0):
            raise DomainError(f"tolerance must be positive, got {self.tolerance}")


@dataclass(frozen=True)
class CheckRow:
    """Aggregated absolute residuals of one relation."""

    relation_id: str
    samples: int
    max_abs: float
    mean_abs: float
    p99_abs: float
    min_abs: float
    tolerance: float | None
    comparison: str = MAX_BELOW
    conjecture: bool = False
    passed: bool | None = None


@dataclass(frozen=True)
class ResidualReport:
    suite: str
    seed: int
    samples: int
    tolerance: float
    curvature: Curvature
    rows: tuple[CheckRow, ...]
    elapsed_seconds: float

    @property
    def passed(self) -> bool:
        """True iff every non-conjecture row passed."""
        return all(row.passed for row in self.rows if not row.conjecture)


def make_row(relation_id: str, values, tolerance: float | None, *,
             comparison: str = MAX_BELOW, conjecture: bool = False) -> CheckRow:
    """Aggregate absolute residuals into one report row.

    `values` is a column or a sequence of floats, or of complex values,
    which aggregate by their magnitude abs(z). p99 is the ceil(0.99 n)-th
    order statistic. Conjecture rows take no verdict; otherwise the flag
    compares the extreme value against the tolerance strictly.
    """
    import numpy as np  # here, so that importing this module loads no numpy

    mags = np.abs(np.asarray(values))
    if mags.dtype == object:  # an object column of Python complex values
        mags = mags.astype(np.float64)
    # np.sort puts inf and nan last
    mags = np.sort(mags).tolist()
    if not mags:
        raise DomainError(f"no samples for relation {relation_id}")
    if not math.isfinite(mags[-1]):
        raise DomainError(f"non-finite residual in relation {relation_id}")
    n = len(mags)
    p99 = mags[math.ceil(0.99 * n) - 1]
    mean = math.fsum(mags) / n
    if conjecture:
        passed = None
        comparison = RECORDED
    elif comparison == MAX_BELOW:
        passed = mags[-1] < tolerance
    elif comparison == MIN_ABOVE:
        passed = mags[0] > tolerance
    else:
        raise DomainError(f"unknown comparison {comparison!r}")
    return CheckRow(relation_id, n, mags[-1], mean, p99, mags[0],
                    tolerance, comparison, conjecture, passed)


def _finite(x: float) -> float:
    """x itself; no output format has a value for a non-finite float."""
    if not math.isfinite(x):
        raise DomainError(f"reports have no value for the non-finite float {x}")
    return x


def _f17(x: float) -> str:
    return "%.17g" % _finite(x)


def _json_scalar(value) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _f17(value)
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    raise DomainError(f"cannot serialize {type(value).__name__} to json")


def _row_pairs(row: CheckRow):
    return (("relation_id", row.relation_id),
            ("samples", row.samples),
            ("max_abs_residual", row.max_abs),
            ("mean_abs_residual", row.mean_abs),
            ("p99_abs_residual", row.p99_abs),
            ("min_abs_residual", row.min_abs),
            ("tolerance", row.tolerance),
            ("comparison", row.comparison),
            ("conjecture", row.conjecture),
            ("pass", row.passed))


def to_json(report: ResidualReport) -> str:
    """Serialize to the schema-1 json object (no timing fields)."""
    rows = []
    for row in report.rows:
        body = ", ".join(f'"{k}": {_json_scalar(v)}' for k, v in _row_pairs(row))
        rows.append("    {" + body + "}")
    lines = ["{",
             f'  "schema": {SCHEMA_VERSION},',
             f'  "suite": {_json_scalar(report.suite)},',
             f'  "seed": {report.seed},',
             f'  "samples": {report.samples},',
             f'  "tolerance": {_f17(report.tolerance)},',
             f'  "curvature": {{"kind": {_json_scalar(report.curvature.kind.value)}, '
             f'"k": {_f17(report.curvature.k)}}},',
             '  "rows": [',
             ",\n".join(rows),
             "  ],",
             f'  "pass": {_json_scalar(report.passed)}',
             "}"]
    return "\n".join(lines) + "\n"


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, float):
        return _f17(value)
    return str(value)


def to_csv(report: ResidualReport) -> str:
    """Serialize to csv (no timing fields)."""
    lines = [CSV_HEADER]
    for row in report.rows:
        cells = [report.suite] + [_csv_cell(v) for _, v in _row_pairs(row)]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def to_human(report: ResidualReport) -> str:
    """Aligned table for terminals, including elapsed wall-clock time."""
    head = (f"suite: {report.suite}   seed: {report.seed}   "
            f"samples: {report.samples}   tolerance: {report.tolerance:g}   "
            f"curvature: {report.curvature.kind.value} (k = {report.curvature.k:g})")
    name_w = max([len(r.relation_id) for r in report.rows] + [len("relation")])
    lines = [head,
             f"elapsed: {report.elapsed_seconds:.3f} s",
             f"  {'relation':<{name_w}}  {'max':>10}  {'mean':>10}  "
             f"{'p99':>10}  {'min':>10}  {'check':>14}  result"]
    for row in report.rows:
        if row.conjecture:
            check, verdict = "recorded", "--"
        else:
            op = "<" if row.comparison == MAX_BELOW else ">"
            side = "max" if row.comparison == MAX_BELOW else "min"
            check = f"{side} {op} {row.tolerance:g}"
            verdict = "PASS" if row.passed else "FAIL"
        lines.append(f"  {row.relation_id:<{name_w}}  {row.max_abs:>10.3e}  "
                     f"{row.mean_abs:>10.3e}  {row.p99_abs:>10.3e}  "
                     f"{row.min_abs:>10.3e}  {check:>14}  {verdict}")
    lines.append(f"overall: {'PASS' if report.passed else 'FAIL'}")
    return "\n".join(lines) + "\n"


def render(report: ResidualReport, output_format: str) -> str:
    if output_format == "json":
        return to_json(report)
    if output_format == "csv":
        return to_csv(report)
    if output_format == "human":
        return to_human(report)
    raise DomainError(f"unknown output format {output_format!r}")
