"""Start-up: `import cctrig`, the solvers, the relation evaluators and
`cctrig solve` and `parallelism` load no numpy; the names whose modules
do load it are resolved on first access, with the public API unchanged."""

import importlib
import json
import subprocess
import sys

import pytest

import cctrig
from cctrig.cli import main

#: the package's exported names by defining module
_EXPORTS = {
    "cevians": "CevianConfig cevian_feet cevian_residual perturbed_residual "
               "sample_cevian_config",
    "correspondence": "SUBSTITUTION_RELATIONS ComplexResidual LimitFit RescalingReport "
                      "euclidean_limit_slope imaginary_substitution_residual "
                      "imaginary_substitution_residuals rescaling_check",
    "curvature": "Curvature GeometryKind",
    "errors": "DegenerateError DomainError GeometryError InfeasibleError "
              "SamplingError SimilarityError",
    "geodesic_sphere": "GeodesicSphere geodesic_sphere_triangle intrinsic_arc_length",
    "horosphere": "ambient_polyline_length horosphere_triangle intrinsic_distance",
    "models": "Model ModelPoint Ray asymptotic_ray geodesic_point ideal_direction "
              "model_angle model_distance tangent_angle tangent_toward",
    "parallelism": "inverse_parallelism parallelism_angle",
    "prism": "PrismFigure build_prism replay_residuals",
    "relations": "RelationResidual euclidean_residuals hyperbolic_residuals "
                 "spherical_residuals spherical_right_residuals",
    "report": "CSV_HEADER CheckRow MAX_BELOW MIN_ABOVE RECORDED ResidualReport "
              "SuiteConfig make_row render to_csv to_human to_json",
    "sampling": "sample_right_triangle sample_stream sample_triangle",
    "solvers": "solve_from_aaa solve_from_asa solve_from_sas solve_from_sss",
    "suites": "SUITE_NAMES run_suite",
    "triangle": "TriangleData angle_excess",
}
_NAMES = [(module, name) for module, names in _EXPORTS.items() for name in names.split()]

#: the modules of the solve path, none of which loads numpy
_NUMPY_FREE = ("curvature", "errors", "floats", "triangle", "solvers", "relations",
               "parallelism", "models", "report", "cli")

_VERIFY = ["verify", "euclidean", "--samples", "5"]

#: run in a child: the whole solve path, then `verify`, reporting after
#: each whether numpy is loaded
_CHILD = """
import contextlib, io, json, math, sys
import cctrig
from cctrig import cli

K = cctrig.Curvature
half = math.pi / 2
for g in (K.spherical(1.0), K.euclidean(), K.hyperbolic(2.0)):
    for t in (cctrig.solve_from_sss(g, 0.5, 0.6, 0.7),
              cctrig.solve_from_sas(g, 0.5, 1.0, 0.6),
              cctrig.solve_from_asa(g, 0.9, 0.5, 1.1)):
        {"spherical": cctrig.spherical_residuals, "euclidean": cctrig.euclidean_residuals,
         "hyperbolic": cctrig.hyperbolic_residuals}[g.kind.value](t)
cctrig.solve_from_aaa(K.spherical(1.0), 1.2, 1.3, 1.4)
cctrig.solve_from_aaa(K.hyperbolic(1.0), 0.5, 0.6, 0.7)
cctrig.spherical_right_residuals(cctrig.solve_from_asa(K.spherical(1.0), 0.9, 0.5, half))
cctrig.inverse_parallelism(cctrig.parallelism_angle(0.7, K.hyperbolic(1.0)), K.hyperbolic(1.0))
solve = io.StringIO()
with contextlib.redirect_stdout(solve), contextlib.redirect_stderr(io.StringIO()):
    codes = [cli.main(["solve", "--geometry", "hyperbolic", "--mode", "sss",
                       "1", "1.2", "1.5", "--format", fmt])
             for fmt in ("json", "csv", "human")]
    codes.append(cli.main(["parallelism", "0", "2", "5"]))
    try:
        cli.main(["verify", "no-such-suite"])
    except SystemExit as exc:
        codes.append(exc.code)
after_solve = "numpy" in sys.modules
verify = io.StringIO()
with contextlib.redirect_stdout(verify), contextlib.redirect_stderr(io.StringIO()):
    codes.append(cli.main(%r))
print(json.dumps({"codes": codes, "solve_lines": len(solve.getvalue().splitlines()),
                  "after_solve": after_solve, "after_verify": "numpy" in sys.modules,
                  "verify": verify.getvalue()}))
""" % (_VERIFY,)


def _child(code: str, env) -> str:
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_the_solve_path_loads_no_numpy_until_verify(child_env, capsys):
    report = json.loads(_child(_CHILD, child_env))
    assert report["codes"] == [0, 0, 0, 0, 2, 0]
    assert report["solve_lines"] > 20
    assert report["after_solve"] is False
    assert report["after_verify"] is True
    assert main(_VERIFY) == 0
    assert report["verify"] == capsys.readouterr().out


@pytest.mark.parametrize("module", _NUMPY_FREE)
def test_importing_a_solve_path_module_loads_no_numpy(child_env, module):
    code = f"import sys, cctrig.{module}; print('numpy' in sys.modules)"
    assert _child(code, child_env).strip() == "False"


@pytest.mark.parametrize("module, name", _NAMES)
def test_every_exported_name_is_its_modules_object(module, name):
    assert getattr(cctrig, name) is getattr(importlib.import_module("cctrig." + module), name)
    assert name in dir(cctrig)


def test_the_export_list_is_unchanged():
    assert len(_NAMES) == 70
    assert sorted(cctrig.__all__) == sorted(["__version__"] + [n for _, n in _NAMES])
    assert "__version__" in dir(cctrig)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from cctrig import *", namespace)
    assert namespace["__version__"] == cctrig.__version__
    for _, name in _NAMES:
        assert namespace[name] is getattr(cctrig, name)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="^module 'cctrig' has no attribute 'no_such_name'$"):
        cctrig.no_such_name  # noqa: B018
    assert not hasattr(cctrig, "columns_of_nothing")


def test_submodules_import_through_the_package(child_env):
    # in a fresh interpreter, where cctrig.sampling is not loaded yet
    code = ("import sys\nfrom cctrig import sampling\n"
            "print(sampling is sys.modules['cctrig.sampling'])")
    assert _child(code, child_env).strip() == "True"
    from cctrig import suites

    assert suites.SUITE_NAMES is cctrig.SUITE_NAMES
