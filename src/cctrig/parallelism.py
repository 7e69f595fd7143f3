"""Angle of parallelism and its inverse.

For a point at perpendicular distance p from a line, the angle between
the perpendicular and the boundary ray that stays asymptotic to the line
satisfies

    sin PI(p) = 1 / cosh(p/k),

with PI(p) acute, and so

    cos PI(p) = tanh(p/k),        tan PI(p) = 1 / sinh(p/k).

PI is strictly decreasing, PI(0) = pi/2 (the Euclidean boundary value)
and PI(p) -> 0 as p -> infinity.

Both functions take their elementary functions from `m` (columns.py):
on a column of lengths or angles with a Columns namespace they give one
value per row, and refuse a row with the error the scalar call raises.
"""

import math

from .curvature import Curvature, GeometryKind
from .errors import DomainError
from .floats import FLOATS

HALF_PI = math.pi / 2.0
LN_2 = math.log(2.0)


def _require_hyperbolic(curv: Curvature) -> None:
    if curv.kind is not GeometryKind.HYPERBOLIC:
        raise DomainError("the angle of parallelism needs hyperbolic curvature, "
                          f"got {curv.kind.value}")


def parallelism_angle(p: float, curv: Curvature, m=FLOATS) -> float:
    """PI(p) in radians, in (0, pi/2].

    Evaluated as 2*atan(exp(-p/k)): identical to arcsin(1/cosh(p/k)) on
    the acute branch, but it keeps full relative accuracy for small
    angles and survives p/k past the overflow point of cosh. It is pi/2
    exactly at p = 0. Past p/k ~ 745 the angle underflows to 0, which no
    length has, and that is a DomainError.
    """
    _require_hyperbolic(curv)
    bad = m.not_((0.0 <= p) & (p < math.inf))
    if bad is not False:
        m.refuse(bad, DomainError, "perpendicular length must be finite and >= 0, got {}", p)
    angle = 2.0 * m.atan(m.exp(-p / curv.k))
    bad = angle == 0.0
    if bad is not False:
        m.refuse(bad, DomainError, "the angle of parallelism at p/k = {} underflows to 0",
                 p / curv.k)
    return angle


def inverse_parallelism(angle: float, curv: Curvature, m=FLOATS) -> float:
    """The length p with parallelism_angle(p, curv) == angle.

    Solves sin PI = 1/cosh(p/k) as p = k*asinh(cot PI). That is the
    same branch as k*arccosh(1/sin PI) but stays well conditioned as
    the angle approaches pi/2, where arccosh(1 + tiny) would lose half
    the digits; pi/2 itself gives 0 exactly. Below angle ~ 5.6e-309 the
    cotangent overflows; there asinh(cot PI) = ln 2 - ln PI to far below
    an ulp, and that log form is used instead.
    """
    _require_hyperbolic(curv)
    bad = m.not_((0.0 < angle) & (angle <= HALF_PI))
    if bad is not False:
        m.refuse(bad, DomainError, "parallelism angle must lie in (0, pi/2], got {}", angle)
    cot = m.cos(angle) / m.sin(angle)
    far = m.where(m.isinf(cot), LN_2 - m.log(angle), m.asinh(cot))
    return m.where(angle == HALF_PI, 0.0, curv.k * far)
