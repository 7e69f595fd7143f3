"""Command-line interface: solving, tabulation, verification, exit codes."""

import contextlib
import json
import math
import signal
import subprocess
import sys

import pytest

from cctrig import geodesic_sphere, models, suites
from cctrig.cli import main
from cctrig.suites import SUITE_NAMES

ARCCOSH_2 = "1.3169578969248168"
HALF_PI = "1.5707963267948966"


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _error_kind(err: str) -> str:
    return json.loads(err.strip().splitlines()[-1])["error"]


def test_solve_human_output(capsys):
    code, out, err = _run(capsys, "solve", "--geometry", "hyperbolic",
                          "--mode", "sss", ARCCOSH_2, ARCCOSH_2, ARCCOSH_2)
    assert code == 0
    assert err == ""
    assert "hyperbolic triangle" in out
    assert "0.8410686705679" in out     # acos(2/3), each angle
    assert "deg" in out
    assert "residuals:" in out


def test_solve_json_output(capsys):
    code, out, _ = _run(capsys, "solve", "--geometry", "hyperbolic",
                        "--mode", "sss", "--format", "json",
                        ARCCOSH_2, ARCCOSH_2, ARCCOSH_2)
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == 1
    assert data["kind"] == "hyperbolic"
    assert data["k"] == 1.0
    assert data["mode"] == "sss"
    assert data["side_a"] == float(ARCCOSH_2)
    assert data["angle_a"] == pytest.approx(math.acos(2.0 / 3.0), abs=1e-15)
    assert data["angle_excess"] < 0.0
    assert set(data["residuals"]) == {"hyp_sine_law", "hyp_side_cosine",
                                      "hyp_angle_cosine", "hyp_cotangent"}
    assert all(abs(v) < 1e-12 for v in data["residuals"].values())
    assert out.count("\n") == 1         # a single line


def test_solve_csv_output(capsys):
    code, out, _ = _run(capsys, "solve", "--geometry", "euclidean",
                        "--mode", "sss", "--format", "csv", "3", "4", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "field,value"
    cells = dict(line.split(",", 1) for line in lines[1:])
    assert float(cells["angle_c"]) == pytest.approx(math.pi / 2.0, abs=1e-15)
    assert float(cells["angle_excess"]) == 0.0


def test_solve_octant_from_sas(capsys):
    code, out, _ = _run(capsys, "solve", "--geometry", "spherical",
                        "--mode", "sas", "--format", "json",
                        HALF_PI, HALF_PI, HALF_PI)
    assert code == 0
    data = json.loads(out)
    for field in ("side_a", "side_b", "side_c", "angle_a", "angle_b", "angle_c"):
        assert data[field] == pytest.approx(math.pi / 2.0, abs=1e-15)


def test_solve_writes_to_file(tmp_path, capsys):
    target = tmp_path / "triangle.json"
    code, out, _ = _run(capsys, "solve", "--geometry", "euclidean",
                        "--mode", "sss", "--format", "json",
                        "--out", str(target), "3", "4", "5")
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["kind"] == "euclidean"


def test_similarity_exits_3(capsys):
    code, out, err = _run(capsys, "solve", "--geometry", "euclidean",
                          "--mode", "aaa", "0.6", "0.7",
                          repr(math.pi - 1.3))
    assert code == 3
    assert out == ""
    assert _error_kind(err) == "similarity"


def test_infeasible_exits_3(capsys):
    code, _, err = _run(capsys, "solve", "--geometry", "euclidean",
                        "--mode", "sss", "1", "1", "5")
    assert code == 3
    assert _error_kind(err) == "infeasible"


def test_domain_error_exits_2(capsys):
    code, _, err = _run(capsys, "solve", "--geometry", "euclidean",
                        "--mode", "sss", "--", "-1", "4", "5")
    assert code == 2
    assert _error_kind(err) == "domain"


def test_flat_geometry_rejects_curvature_scale(capsys):
    code, _, err = _run(capsys, "solve", "--geometry", "euclidean",
                        "--mode", "sss", "--curvature-scale", "2", "3", "4", "5")
    assert code == 2
    assert _error_kind(err) == "domain"


def test_parallelism_table(capsys):
    code, out, err = _run(capsys, "parallelism", "0", ARCCOSH_2, "3")
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == "p,parallelism_angle"
    rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
    assert len(rows) == 3
    assert rows[0] == (0.0, math.pi / 2.0)
    assert rows[-1][1] == pytest.approx(math.pi / 6.0, abs=1e-15)
    assert rows[0][1] > rows[1][1] > rows[2][1]


def test_parallelism_rejects_bad_ranges(capsys):
    code, _, err = _run(capsys, "parallelism", "2", "1", "5")
    assert code == 2
    assert _error_kind(err) == "domain"
    code, _, err = _run(capsys, "parallelism", "0", "1", "1")
    assert code == 2
    assert _error_kind(err) == "domain"


def test_verify_json_passes_and_reports_timing(capsys):
    code, out, err = _run(capsys, "verify", "euclidean", "--samples", "20")
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert data["suite"] == "euclidean"
    assert "elapsed" not in out
    assert err.startswith("# suite euclidean:")
    assert "s elapsed" in err


def test_verify_output_is_byte_identical_across_runs(capsys):
    _, first, _ = _run(capsys, "verify", "euclidean", "--samples", "20")
    _, second, _ = _run(capsys, "verify", "euclidean", "--samples", "20")
    assert first == second


def test_verify_human_format(capsys):
    code, out, err = _run(capsys, "verify", "euclidean", "--samples", "20",
                          "--format", "human")
    assert code == 0
    assert "overall: PASS" in out
    assert "elapsed:" in out
    assert err == ""                    # timing lives in the table itself


def test_verify_writes_to_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = _run(capsys, "verify", "euclidean", "--samples", "20",
                        "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["pass"] is True


def test_verify_failure_exits_1(capsys):
    code, out, _ = _run(capsys, "verify", "euclidean", "--samples", "20",
                        "--tol", "1e-30")
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_a_wrong_sphere_product_fails_verify(capsys, monkeypatch):
    # every binding of the sphere's dot product, off by one part in 1e6
    def edot(u, v, m=None, _edot=models._edot):
        return (1.0 + 1e-6) * _edot(u, v, m)

    monkeypatch.setattr(models, "_edot", edot)
    monkeypatch.setattr(geodesic_sphere, "_edot", edot)
    monkeypatch.setitem(models.METRIC, models.Model.SPHERE,
                        (edot, models.METRIC[models.Model.SPHERE][1]))
    argv = ("--samples", "200", "--curvature-scale", "1")
    code, out, _ = _run(capsys, "verify", "spherical", *argv)
    assert code == 1
    assert json.loads(out)["pass"] is False
    # the scaled product turns tan d into tan d / (1 + 1e-6) for every
    # distance d, which leaves the cevian ratios of tangents as they are;
    # the construction's betweenness check refuses the fixed figures
    code, _, err = _run(capsys, "verify", "cevians", *argv)
    assert code == 3
    assert json.loads(err.strip().splitlines()[-1]) == {
        "error": "infeasible", "message": "cevian foot falls outside the opposite side"}


def test_unknown_suite_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "elliptic"])
    assert excinfo.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_usage_error_leaves_the_cached_parser_intact(capsys):
    # the parser is built once per process; a parse that exits must not
    # change what the next call prints
    argv = ("verify", "euclidean", "--samples", "20", "--format", "csv")
    code, expected, _ = _run(capsys, *argv)
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "euclidean", "--samples", "many"])
    assert excinfo.value.code == 2
    capsys.readouterr()
    assert _run(capsys, *argv)[:2] == (code, expected)


def test_an_underflowing_scale_stops_sphere_model_with_exit_2(capsys):
    # k * k underflows to 0, and the per-sample path divides by it; the
    # column engine must stop the same way rather than skip every index
    code, _, err = _run(capsys, "verify", "sphere-model", "--samples", "5",
                        "--curvature-scale", "1e-300")
    assert code == 2
    assert json.loads(err.strip().splitlines()[-1]) == {
        "error": "domain", "message": "float division by zero"}


def test_an_overflowing_scale_stops_sphere_model_at_the_arc_check(capsys):
    # at k = 1e300 the squared hyperboloid coordinates overflow, the arc
    # length is nan and its row refuses the residual
    code, out, err = _run(capsys, "verify", "sphere-model", "--samples", "3",
                          "--curvature-scale", "1e300")
    assert code == 2 and out == ""
    assert json.loads(err.strip().splitlines()[-1]) == {
        "error": "domain",
        "message": "non-finite residual in relation gsph_rho0.1_effective_radius"}


@pytest.mark.parametrize("e", (-300, -10, -1, 1, 10, 300))
def test_sphere_model_prints_the_same_at_every_power_of_two_scale(capsys, e):
    # every sphere-model row is dimensionless and scaling k by 2^e is
    # exact, so the report must not move
    argv = ("verify", "sphere-model", "--samples", "200", "--format", "csv")
    unit = _run(capsys, *argv)[:2]
    assert _run(capsys, *argv, "--curvature-scale", repr(2.0 ** e))[:2] == unit


def test_cevians_stop_at_the_first_index_no_draw_accepts(capsys):
    # at k = 0.1 the cevian sampler rejects every hyperbolic draw; the
    # run stops at the first index, as a loop over the indices does
    code, out, err = _run(capsys, "verify", "cevians", "--samples", "100", "--seed", "0",
                          "--curvature-scale", "0.1")
    assert code == 2 and out == ""
    assert json.loads(err.strip().splitlines()[-1]) == {
        "error": "domain",
        "message": "no acceptable cevian configuration after 128 attempts"}


def test_cevians_stop_where_the_sphere_products_overflow(capsys):
    # at k = 1e155 the octant's vertices have coordinates near k, whose
    # squares overflow; the sums of products are not finite and the run
    # stops at the first residual, as every non-finite residual does
    code, out, err = _run(capsys, "verify", "cevians", "--samples", "3",
                          "--curvature-scale", "1e155")
    assert code == 2 and out == ""
    assert json.loads(err.strip().splitlines()[-1]) == {
        "error": "domain",
        "message": "non-finite residual in relation cev_spherical_octant"}


def test_horosphere_stops_where_every_triangle_is_refused(capsys):
    # the chart tangents underflow at k = 1e-300, so no draw gives a
    # triangle; the suite stops after DEFAULT_ATTEMPTS draws per sample
    code, out, err = _run(capsys, "verify", "horosphere", "--samples", "3",
                          "--curvature-scale", "1e-300")
    assert code == 3 and out == ""
    assert json.loads(err.strip().splitlines()[-1]) == {
        "error": "sampling",
        "message": "0 of 3 horosphere triangles accepted in 384 draws"}


@contextlib.contextmanager
def _wall_clock_limit(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("scale", ("1e-300", "1e-170", "1e300"))
@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_every_suite_keeps_the_exit_contract_at_extreme_scales(capsys, suite, scale):
    with _wall_clock_limit(20.0):
        code, out, err = _run(capsys, "verify", suite, "--samples", "3",
                              "--curvature-scale", scale)
    assert code in (0, 1, 2, 3)
    if code in (2, 3):
        assert out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert set(json.loads(lines[0])) == {"error", "message"}
    else:
        assert json.loads(out)["suite"] == suite


def _verify_in_blocks(capsys, monkeypatch, block, *argv):
    """A csv verify run with `block` sample indices per block: its exit
    code, stdout and stderr lines other than the elapsed-time comment."""
    monkeypatch.setattr(suites, "_BLOCK", block)
    code, out, err = _run(capsys, "verify", *argv, "--format", "csv")
    return code, out, [line for line in err.splitlines() if not line.startswith("#")]


@pytest.mark.parametrize("scale", ("0.5", "1", "10", "1e-300"))
@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_block_edges_move_no_output(capsys, monkeypatch, suite, scale):
    # 40 samples cross many block edges at 1 and 7 indices a block:
    # sphere-model's 16 arc checks span several blocks, and at 1e-300
    # horosphere's draw budget runs out across them
    argv = (suite, "--samples", "40", "--curvature-scale", scale)
    whole = _verify_in_blocks(capsys, monkeypatch, 4096, *argv)
    assert whole[0] in (0, 1, 2, 3)
    for block in (1, 7):
        assert _verify_in_blocks(capsys, monkeypatch, block, *argv) == whole


def test_missing_values_are_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["solve", "--geometry", "euclidean", "--mode", "sss", "3", "4"])
    assert excinfo.value.code == 2


def test_module_runner(tmp_path, child_env):
    result = subprocess.run(
        [sys.executable, "-m", "cctrig", "verify", "euclidean",
         "--samples", "10"],
        capture_output=True, text=True, cwd=tmp_path, env=child_env,
        timeout=120)
    assert result.returncode == 0
    assert json.loads(result.stdout)["pass"] is True


def test_json_never_prints_non_finite_values(capsys):
    # the flat SSS products overflow here and leave a nan residual
    code, out, err = _run(capsys, "solve", "--geometry", "euclidean",
                          "--mode", "sss", "1e160", "1e160", "1e160",
                          "--format", "json")
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert _error_kind(err) == "domain"


@pytest.mark.parametrize("fmt", ("csv", "human"))
def test_csv_and_human_never_print_non_finite_values(capsys, fmt):
    # the same overflowing flat SSS solve: every format refuses the nan
    code, out, err = _run(capsys, "solve", "--geometry", "euclidean",
                          "--mode", "sss", "1e160", "1e160", "1e160",
                          "--format", fmt)
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert _error_kind(err) == "domain"


def test_math_errors_exit_2_with_one_json_line(tmp_path, child_env):
    # sinh of the semiperimeter, 720, overflows in the hyperbolic SSS solver
    result = subprocess.run(
        [sys.executable, "-m", "cctrig", "solve", "--geometry", "hyperbolic",
         "--mode", "sss", "480", "480", "480"],
        capture_output=True, text=True, cwd=tmp_path, env=child_env,
        timeout=120)
    assert result.returncode == 2
    assert result.stdout == ""
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "domain"
