"""The exit-code and output contract of `cctrig solve` over the whole
float domain: exit 0 with one JSON object of finite numbers on stdout,
or exit 2 or 3 with exactly one JSON error line on stderr."""

import contextlib
import io
import json
import math

from hypothesis import given, settings, strategies as st

from cctrig.cli import main

_EDGES = (0.0, -0.0, 5e-324, 2.0 ** -1022, 1e-300, 1e308, 1.7976931348623157e308,
          -1.0, -1e308, math.nan, math.inf, -math.inf)
_MODERATE = st.floats(0.01, 4.0)


@st.composite
def _solves(draw):
    """A geometry, a mode, k log-uniform over [1e-300, 1e300], and three
    values: edge values, moderate ones (angles, or sides in units of k)
    and any float."""
    k = draw(st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e))
    value = st.one_of(st.sampled_from(_EDGES), _MODERATE, _MODERATE.map(lambda x: x * k),
                      st.floats())
    return (draw(st.sampled_from(("spherical", "euclidean", "hyperbolic"))),
            draw(st.sampled_from(("sss", "sas", "asa", "aaa"))), k,
            draw(st.tuples(value, value, value)))


def _finite(text):
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"non-finite number {text} in the output")
    return x


def _solve(geometry, mode, k, values):
    argv = ["solve", "--geometry", geometry, "--mode", mode, "--format", "json"]
    if geometry != "euclidean":
        argv += ["--curvature-scale", repr(k)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        # "--" ends the options, so negative values parse as values
        code = main(argv + ["--", *map(repr, values)])
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, database=None, deadline=None, max_examples=1000)
@given(_solves())
def test_solve_exits_0_with_finite_json_or_2_3_with_one_error_line(solve):
    code, out, err = _solve(*solve)
    assert code in (0, 2, 3)
    if code == 0:
        assert err == ""
        data = json.loads(out, parse_float=_finite, parse_constant=_finite)
        assert data["schema"] == 1
    else:
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and err.endswith("\n")
        assert set(json.loads(lines[0])) == {"error", "message"}
