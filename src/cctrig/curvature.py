"""Signed curvature carried as an explicit parameter.

The length scale k is a free positive constant. Every formula in the
kernel consumes sides in units of k, so rescaling (k, lengths) to
(lam*k, lam*lengths) leaves all angles unchanged; a verification suite
checks that invariance rather than assuming it.

Sign convention. The two curved geometries are one family with sign
eps = +1 (spherical) or -1 (hyperbolic). Their generalized sine and
cosine sn/cs are sin/cos and sinh/cosh, so that cs(x)^2 + eps sn(x)^2 = 1
and the imaginary-side substitution sin(ix) = i sinh x, cos(ix) = cosh x
carries one formula to the other. The concrete models pair with them:
the sphere uses the Euclidean dot product, the hyperboloid the Minkowski
product of signature (+, -, -, ...), and a unit tangent v has
eps <v, v> = 1 in either. CURVED_TRIG holds (sn, cs, eps) per kind.

Each shared formula keeps the arithmetic of the per-geometry copies it
replaced, step for step, so the report bytes do not move. That pins a
few per-model steps which the sign alone does not decide:

  * sphere points pass through ModelPoint.sphere, which renormalizes
    them; hyperboloid points synthesized on the sheet are built as they
    are (renormalizing far sheet points adds noise, see ModelPoint);
  * the sphere dot product sums with math.fsum, the Minkowski product
    subtracts term by term;
  * model_distance keeps atan2 of cross and dot products on the sphere
    and the chordal asinh form on the hyperboloid.
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
    """Geometry kind plus the length scale k (ignored when Euclidean)."""

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


#: curved kind -> (sn, cs, eps); see the module docstring
CURVED_TRIG = {
    GeometryKind.SPHERICAL: (math.sin, math.cos, 1.0),
    GeometryKind.HYPERBOLIC: (math.sinh, math.cosh, -1.0),
}
