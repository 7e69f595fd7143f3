"""Cross-geometry correspondences.

Three numerical experiments connect the spherical, Euclidean, and
hyperbolic triangle systems:

* imaginary-side substitution: evaluating the general spherical
  relations at sides i*a/k, i*b/k, i*c/k (with the angles kept real)
  must annihilate hyperbolic triangles, since sin(ix) = i sinh x and
  cos(ix) = cosh x turn each spherical relation into its hyperbolic
  counterpart. At the residual level the two systems agree up to a
  modest constant: a triangle's hyperbolic residuals stay below a
  tolerance tau exactly when its substitution residuals stay below
  C*tau with C <= 10. Measured over the triangle sampler's population
  (aggregate worst case, sides up to 3k), C is about 2.1; the bound 10
  leaves headroom because the floor-level rounding noise of individual
  nearly-exact samples makes per-sample ratios meaningless;
* the Euclidean limit: a fixed shape scaled by epsilon has angle excess
  O(epsilon^2), so curvature becomes invisible at small scales;
* curvature rescaling: angles depend only on sides measured in units of
  k, so (k, sides) -> (lambda k, lambda sides) changes nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curvature import Curvature, GeometryKind
from .errors import DomainError
from .floats import FLOATS
from .relations import SPHERICAL_RELATIONS, general_spherical_system
from .solvers import solve_from_sss
from .triangle import TriangleData, angle_excess

#: The general spherical relations that admit the imaginary-side
#: substitution, keyed by the ids used by spherical_residuals.
SUBSTITUTION_RELATIONS = SPHERICAL_RELATIONS


@dataclass(frozen=True)
class ComplexResidual:
    """A spherical relation evaluated at imaginary sides: the residual
    is a complex number whose real and imaginary parts must both vanish
    on a true hyperbolic triangle. imaginary_substitution_residuals
    refuses non-finite residuals before it builds these."""

    relation_id: str
    residual: complex

    @property
    def magnitude(self) -> float:
        return abs(self.residual)


@dataclass(frozen=True)
class LimitFit:
    """Log-log regression of angle excess against the scale factor.

    ``residual_norms`` holds |angle excess| per scale and drives the
    slope fit.
    """

    scales: tuple[float, ...]
    residual_norms: tuple[float, ...]
    slope: float

    def __post_init__(self) -> None:
        if any(s2 >= s1 for s1, s2 in zip(self.scales, self.scales[1:])):
            raise DomainError("scales must be strictly decreasing")
        if any(r < 0.0 for r in self.residual_norms):
            raise DomainError("residual norms must be nonnegative")


@dataclass(frozen=True)
class RescalingReport:
    """Angle deviations of solve_from_sss under (k, sides) ->
    (lambda k, lambda sides)."""

    scale: float
    deviations: tuple[float, float, float]
    max_deviation: float


def imaginary_substitution_residuals(t: TriangleData, m=FLOATS) -> list[ComplexResidual]:
    """Evaluate the four general spherical relations at sides i*a/k,
    i*b/k, i*c/k with the triangle's real angles.

    This is the spherical system of spherical_residuals itself, handed
    complex trigonometry, which supplies sin(ix) = i sinh x and
    cos(ix) = cosh x. On a hyperbolic triangle every relation collapses
    to a hyperbolic identity (for example the side-cosine relation
    becomes cos b = cosh a cosh c - sinh a sinh c cos B with an overall
    sign), so the residual sits at the rounding floor of the cosh-sized
    terms. On columns the residuals are object columns of Python complex
    values (see columns.py).
    """
    if t.geometry.kind is not GeometryKind.HYPERBOLIC:
        raise DomainError("imaginary-side substitution applies to hyperbolic triangles")
    t = m.live(t.validate(m))
    k = t.geometry.k
    values = general_spherical_system(1j * (t.a / k), 1j * (t.b / k), 1j * (t.c / k),
                                      t, m.csin, m.ccos, m)
    for rid, v in zip(SUBSTITUTION_RELATIONS, values):
        bad = m.not_(m.cisfinite(v))
        if bad is not False:
            m.refuse(bad, DomainError, "non-finite complex residual for {}", rid)
    return [ComplexResidual(rid, v) for rid, v in zip(SUBSTITUTION_RELATIONS, values)]


def imaginary_substitution_residual(relation_id: str, t: TriangleData) -> ComplexResidual:
    """The substitution residual of one relation of SUBSTITUTION_RELATIONS."""
    if relation_id not in SUBSTITUTION_RELATIONS:
        raise DomainError(
            f"unknown substitution relation {relation_id!r}; "
            f"expected one of {', '.join(SUBSTITUTION_RELATIONS)}")
    return imaginary_substitution_residuals(t)[SUBSTITUTION_RELATIONS.index(relation_id)]


def euclidean_limit_slope(shape: TriangleData, scales) -> LimitFit:
    """Scale a fixed shape by each epsilon and fit |angle excess| vs
    epsilon on log-log axes.

    The shape contributes only its side proportions (normalized so the
    longest side is 1, in units of k); at each scale the triangle is
    rebuilt from sides alone via solve_from_sss in the shape's own
    curved geometry. Excess of a shape of diameter epsilon is
    K * area = O(epsilon^2), so the fitted slope must be 2.
    """
    if shape.geometry.kind is GeometryKind.EUCLIDEAN:
        raise DomainError("the flat-limit experiment needs a curved geometry")
    shape.validate()
    eps = sorted((float(s) for s in scales), reverse=True)
    if len(eps) < 2:
        raise DomainError("need at least two scales")
    if any(not (0.0 < s <= 1.0) or not math.isfinite(s) for s in eps):
        raise DomainError("scales must lie in (0, 1]")
    if any(s2 >= s1 for s1, s2 in zip(eps, eps[1:])):
        raise DomainError("scales must be distinct")
    if eps[0] / eps[-1] < 100.0:
        raise DomainError("scales must span at least two decades")
    geometry = shape.geometry
    k = geometry.k
    longest = max(shape.sides())
    if longest <= 0.0:
        raise DomainError("degenerate shape: nonpositive side")
    na, nb, nc = (s / longest for s in shape.sides())
    excesses = [abs(angle_excess(solve_from_sss(geometry, s * na * k, s * nb * k, s * nc * k)))
                 for s in eps]
    slope = float(np.polyfit(np.log(eps), np.log(excesses), 1)[0])
    return LimitFit(tuple(eps), tuple(excesses), slope)


def rescaling_check(t: TriangleData, scale: float) -> RescalingReport:
    """Verify solve_from_sss angles are invariant under
    (k, sides) -> (scale*k, scale*sides)."""
    if not (math.isfinite(scale) and scale > 0.0):
        raise DomainError(f"rescaling factor must be positive and finite, got {scale}")
    if t.geometry.kind is GeometryKind.EUCLIDEAN:
        raise DomainError("rescaling compares curvature radii; flat geometry has none")
    t.validate()
    geometry = t.geometry
    base = solve_from_sss(geometry, t.a, t.b, t.c)
    scaled_geometry = Curvature(geometry.kind, scale * geometry.k)
    scaled = solve_from_sss(scaled_geometry, scale * t.a, scale * t.b, scale * t.c)
    deviations = (abs(scaled.A - base.A), abs(scaled.B - base.B), abs(scaled.C - base.C))
    return RescalingReport(scale, deviations, max(deviations))
