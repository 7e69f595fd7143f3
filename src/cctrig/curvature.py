"""Signed curvature carried as an explicit parameter.

The length scale k is a free positive constant. Every formula in the
kernel consumes sides in units of k, so rescaling (k, lengths) to
(lam*k, lam*lengths) leaves all angles unchanged; a verification suite
checks that invariance rather than assuming it.

Sign convention. The three geometries are one family with sign
eps = +1 (spherical), 0 (Euclidean) or -1 (hyperbolic). Their
generalized sine and cosine are sn = sin, cs = cos on the sphere,
sn(x) = x, cs(x) = 1 on the plane and sn = sinh, cs = cosh on the
hyperboloid, so that cs(x)^2 + eps sn(x)^2 = 1; the imaginary-side
substitution sin(ix) = i sinh x, cos(ix) = cosh x carries one curved
formula to the other, and the plane is the flat member between them.
The curved models pair with them: the sphere uses the Euclidean dot
product, the hyperboloid the Minkowski product of signature
(+, -, -, ...), and a unit tangent v has eps <v, v> = 1 in either.
TRIG holds (sn, cs, eps, tn) for all three kinds, tn = sn / cs being
the tangent (tan, tanh, the identity); the kernels take it as m.trig
(floats.py, columns.py). A flat point built as a curved one,
(k cs(x), ...), lies on the plane x0 = k, which is how the flat member
shares the curved constructions: the plane model keeps its points
there (models.py), with the product x0 y0 that eps = 0 leaves.

Both products are summed by one rule: term by term, left to right, the
sphere's adding each term and the hyperboloid's subtracting all but the
first, so floats and columns round them alike. Each shared curved
formula keeps the arithmetic of the per-geometry copies it replaced,
step for step, so the report bytes do not move. That pins two per-model
steps which the sign alone does not decide:

  * sphere points pass through ModelPoint.sphere, which renormalizes
    them; hyperboloid points synthesized on the sheet are built as they
    are (renormalizing far sheet points adds noise, see ModelPoint);
  * model_distance keeps atan2 of cross and dot products on the sphere,
    the chordal asinh form on the hyperboloid and hypot of x and y on
    the plane.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import DomainError


class GeometryKind(enum.Enum):
    SPHERICAL = "spherical"
    EUCLIDEAN = "euclidean"
    HYPERBOLIC = "hyperbolic"

    # members compare by identity, so the identity hash keys dicts the same
    # way as Enum's name hash, which runs in Python on every lookup
    __hash__ = object.__hash__


@dataclass(frozen=True)
class Curvature:
    """Geometry kind plus the length scale k. The flat formulas are
    homogeneous in k, so on the plane k sets only the units of sampled
    sides; Curvature.euclidean() takes k = 1."""

    kind: GeometryKind
    k: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.k) and self.k > 0.0):
            raise DomainError(f"curvature scale must be positive and finite, got {self.k}")

    @staticmethod
    def spherical(k: float = 1.0) -> Curvature:
        return Curvature(GeometryKind.SPHERICAL, k)

    @staticmethod
    def euclidean() -> Curvature:
        return Curvature(GeometryKind.EUCLIDEAN, 1.0)

    @staticmethod
    def hyperbolic(k: float = 1.0) -> Curvature:
        return Curvature(GeometryKind.HYPERBOLIC, k)


#: every kind -> (sn, cs, eps, tn): the curved pairs and the flat member,
#: with the tangent tn = sn / cs of each (tan, tanh, the identity)
TRIG = {
    GeometryKind.SPHERICAL: (math.sin, math.cos, 1.0, math.tan),
    GeometryKind.HYPERBOLIC: (math.sinh, math.cosh, -1.0, math.tanh),
    GeometryKind.EUCLIDEAN: (lambda x: x, lambda x: 1.0, 0.0, lambda x: x),
}
