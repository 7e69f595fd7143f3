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

from .cevians import (CevianConfig, cevian_feet, cevian_residual,
                      euclidean_cevian_residual,
                      hyperbolic_cevian_conjecture_residual,
                      perturbed_residual, sample_cevian_config,
                      spherical_cevian_residual)
from .correspondence import (SUBSTITUTION_RELATIONS, ComplexResidual,
                             LimitFit, RescalingReport,
                             euclidean_limit_slope,
                             imaginary_substitution_residual,
                             imaginary_substitution_residuals,
                             rescaling_check)
from .curvature import Curvature, GeometryKind
from .errors import (DegenerateError, DomainError, GeometryError,
                     InfeasibleError, SamplingError, SimilarityError)
from .geodesic_sphere import (GeodesicSphere, geodesic_sphere_triangle,
                              intrinsic_arc_length)
from .horosphere import (ambient_polyline_length, horosphere_triangle,
                         intrinsic_distance)
from .models import (Model, ModelPoint, Ray, asymptotic_ray,
                     geodesic_point, half_space_to_hyperboloid,
                     hyperboloid_to_half_space, ideal_direction,
                     model_angle, model_distance, tangent_angle,
                     tangent_toward)
from .parallelism import inverse_parallelism, parallelism_angle
from .prism import PrismFigure, build_prism, replay_residuals
from .relations import (RelationResidual, euclidean_residuals,
                        hyperbolic_residuals, spherical_residuals,
                        spherical_right_residuals)
from .report import (CSV_HEADER, CheckRow, MAX_BELOW, MIN_ABOVE, RECORDED,
                     ResidualReport, SuiteConfig, make_row, render, to_csv,
                     to_human, to_json)
from .sampling import sample_right_triangle, sample_stream, sample_triangle
from .solvers import (solve_from_aaa, solve_from_asa, solve_from_sas,
                      solve_from_sss)
from .suites import SUITE_NAMES, run_suite
from .triangle import TriangleData, angle_excess

__version__ = "0.1.0"
