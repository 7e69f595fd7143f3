"""Constant-curvature triangle trigonometry with model-based verification.

The package evaluates the classical triangle relations of spherical,
Euclidean, and hyperbolic geometry and verifies them against concrete
models: the round sphere, the hyperboloid, geodesic spheres and
horospheres inside hyperbolic space, and the flat plane. It also covers
the angle of parallelism, the right-triangle prism construction that
ties all three geometries together, the imaginary-side substitution
between the spherical and hyperbolic relation families, Euclidean
small-triangle limits, and concurrent-cevian identities.
"""

from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

from .curvature import Curvature, GeometryKind
from .errors import (DegenerateError, DomainError, GeometryError,
                     InfeasibleError, SamplingError, SimilarityError)
from .models import (Model, ModelPoint, Ray, asymptotic_ray,
                     geodesic_point, ideal_direction, model_angle,
                     model_distance, tangent_angle, tangent_toward)
from .parallelism import inverse_parallelism, parallelism_angle
from .relations import (RelationResidual, euclidean_residuals,
                        hyperbolic_residuals, spherical_residuals,
                        spherical_right_residuals)
from .report import (CSV_HEADER, MAX_BELOW, MIN_ABOVE, RECORDED, SUITE_NAMES,
                     CheckRow, ResidualReport, SuiteConfig, make_row, render,
                     to_csv, to_human, to_json)
from .solvers import (solve_from_aaa, solve_from_asa, solve_from_sas,
                      solve_from_sss)
from .triangle import TriangleData, angle_excess

__version__ = "0.1.0"

#: the exported names of the modules that load numpy, each with its
#: module, which is imported on the name's first access (PEP 562): the
#: names above run on `math` alone, so `import cctrig` loads no numpy
_LAZY = {name: module for module, names in (
    ("cevians", "CevianConfig cevian_feet cevian_residual perturbed_residual "
                "sample_cevian_config"),
    ("correspondence", "SUBSTITUTION_RELATIONS ComplexResidual LimitFit "
                       "RescalingReport euclidean_limit_slope "
                       "imaginary_substitution_residual "
                       "imaginary_substitution_residuals rescaling_check"),
    ("geodesic_sphere", "GeodesicSphere geodesic_sphere_triangle intrinsic_arc_length"),
    ("horosphere", "ambient_polyline_length horosphere_triangle intrinsic_distance"),
    ("prism", "PrismFigure build_prism replay_residuals"),
    ("sampling", "sample_right_triangle sample_stream sample_triangle"),
    ("suites", "run_suite"),
) for name in names.split()}

#: the names bound above, less the submodules their imports bind, and
#: the lazy ones: `from cctrig import *` binds all of them
__all__ = ["__version__", *(name for name, value in globals().items()
                            if name[0] != "_" and not isinstance(value, _ModuleType)),
           *_LAZY]


def __getattr__(name):
    if name in _LAZY:
        return getattr(_import_module("." + _LAZY[name], __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_LAZY})
