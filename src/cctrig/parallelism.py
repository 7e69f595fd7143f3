"""Angle of parallelism and its inverse.

For a point at perpendicular distance p from a line, the angle between
the perpendicular and the boundary ray that stays asymptotic to the line
satisfies

    sin PI(p) = 1 / cosh(p/k),

with PI(p) acute. Two derived forms follow from that one and are used
all over the relation evaluators:

    cos PI(p) = tanh(p/k),        tan PI(p) = 1 / sinh(p/k).

PI is strictly decreasing, PI(0) = pi/2 (the Euclidean boundary value)
and PI(p) -> 0 as p -> infinity.
"""

import math

from .curvature import Curvature, GeometryKind
from .errors import DomainError

HALF_PI = math.pi / 2.0
LN_2 = math.log(2.0)


def _require_hyperbolic(curv: Curvature) -> None:
    if curv.kind is not GeometryKind.HYPERBOLIC:
        raise DomainError("the angle of parallelism needs hyperbolic curvature, "
                          f"got {curv.kind.value}")


def _require_length(p: float, curv: Curvature, allow_zero: bool = True) -> None:
    _require_hyperbolic(curv)
    if not (math.isfinite(p) and (p >= 0.0 if allow_zero else p > 0.0)):
        bound = ">=" if allow_zero else ">"
        raise DomainError(f"perpendicular length must be finite and {bound} 0, got {p}")


def parallelism_angle(p: float, curv: Curvature) -> float:
    """PI(p) in radians, in (0, pi/2].

    Evaluated as 2*atan(exp(-p/k)): identical to arcsin(1/cosh(p/k)) on
    the acute branch, but it keeps full relative accuracy for small
    angles and survives p/k past the overflow point of cosh. Past
    p/k ~ 745 the angle underflows to 0, which no length has, and that
    is a DomainError.
    """
    _require_length(p, curv)
    if p == 0.0:
        return HALF_PI
    angle = 2.0 * math.atan(math.exp(-p / curv.k))
    if angle == 0.0:
        raise DomainError(f"the angle of parallelism at p/k = {p / curv.k} "
                          "underflows to 0")
    return angle


def inverse_parallelism(angle: float, curv: Curvature) -> float:
    """The length p with parallelism_angle(p, curv) == angle.

    Solves sin PI = 1/cosh(p/k) as p = k*asinh(cot PI). That is the
    same branch as k*arccosh(1/sin PI) but stays well conditioned as
    the angle approaches pi/2, where arccosh(1 + tiny) would lose half
    the digits. Below angle ~ 5.6e-309 the cotangent overflows; there
    asinh(cot PI) = ln 2 - ln PI to far below an ulp, and that log form
    is used instead.
    """
    _require_hyperbolic(curv)
    if not (0.0 < angle <= HALF_PI):
        raise DomainError(f"parallelism angle must lie in (0, pi/2], got {angle}")
    if angle == HALF_PI:
        return 0.0
    cot = math.cos(angle) / math.sin(angle)
    if math.isinf(cot):
        return curv.k * (LN_2 - math.log(angle))
    return curv.k * math.asinh(cot)


def sin_parallelism(p: float, curv: Curvature) -> float:
    """sin PI(p) = 1/cosh(p/k), computed without the angle."""
    _require_length(p, curv)
    return 1.0 / math.cosh(p / curv.k)


def cos_parallelism(p: float, curv: Curvature) -> float:
    """cos PI(p) = tanh(p/k), computed without the angle."""
    _require_length(p, curv)
    return math.tanh(p / curv.k)


def tan_parallelism(p: float, curv: Curvature) -> float:
    """tan PI(p) = 1/sinh(p/k); undefined at p = 0."""
    _require_length(p, curv, allow_zero=False)
    return 1.0 / math.sinh(p / curv.k)
