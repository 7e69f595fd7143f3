"""Residual evaluators for the triangle relation systems.

Each evaluator moves everything in an equation to one side and returns
the signed difference, one entry per relation, in the equation's own
units. A mathematically exact triangle gives zeros; triangles measured
off the concrete models give values at the rounding floor, and that
floor is what the verification suites pin down.

The hyperbolic system is the parallelism-angle form of the spherical
one: with sin PI(p) = 1/cosh(p/k), cos PI(p) = tanh(p/k) and
tan PI(p) = 1/sinh(p/k), the four relations below are

    sin A tan PI(a)                 = sin B tan PI(b)
    1 - cos PI(b) cos PI(c) cos A   = sin PI(b) sin PI(c) / sin PI(a)
    cos A + cos B cos C             = sin B sin C / sin PI(a)
    cot A sin C sin PI(b) + cos C   = cos PI(b) / cos PI(a)

The code evaluates the hyperbolic functions directly; a test pins that
against the literal parallelism-angle route at the 1e-12 level.

Every evaluator takes its elementary functions from `m` (columns.py):
on a triangle of float64 columns with a Columns namespace it returns one
residual column per relation, bit for bit the per-triangle values.

RelationResidual, built three or four times per evaluation, is a plain
dataclass for the reason TriangleData is (triangle.py): it compares by
value, is not hashable, and is never changed after it is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .curvature import GeometryKind
from .errors import DomainError
from .floats import FLOATS
from .triangle import TriangleData

# |C - pi/2| allowed when a relation requires a right angle
RIGHT_ANGLE_TOL = 1e-9


@dataclass
class RelationResidual:
    relation_id: str
    residual: float


def _check_kind(t: TriangleData, kind: GeometryKind, what: str) -> None:
    if t.geometry.kind is not kind:
        raise DomainError(f"{what} needs {kind.value} geometry, got {t.geometry.kind.value}")


#: ids of the general spherical relations, in the order
#: general_spherical_system returns them
SPHERICAL_RELATIONS = ("sph_sine_law", "sph_side_cosine",
                       "sph_cotangent", "sph_angle_cosine")


def general_spherical_system(a, b, c, t: TriangleData, sin, cos, m=FLOATS) -> tuple:
    """The four general spherical relations, each moved to one side,
    at sides a, b, c (in units of k) and the real angles of t:

        sin a sin B = sin b sin A
        cos b       = cos a cos c + sin a sin c cos B
        cot a sin b = cot A sin C + cos b cos C
        cos a sin B sin C = cos B cos C + cos A

    The side functions sin and cos are passed in: m.sin/m.cos at real
    sides give the spherical residuals, m.csin/m.ccos (cmath) at the
    imaginary sides i a/k give the imaginary-side substitution. Each
    side's sine and cosine is taken once, in the order the relations
    first use them, so a side function that raises does so on the same
    call as when every use called it.
    """
    sinA, cosA = m.sin(t.A), m.cos(t.A)
    sinB, cosB = m.sin(t.B), m.cos(t.B)
    sinC, cosC = m.sin(t.C), m.cos(t.C)
    sin_a, sin_b = sin(a), sin(b)
    cos_b, cos_a, cos_c = cos(b), cos(a), cos(c)
    sin_c = sin(c)
    return (sin_a * sinB - sin_b * sinA,
            (cos_b - cos_a * cos_c) - sin_a * sin_c * cosB,
            cos_a / sin_a * sin_b - (cosA / sinA * sinC + cos_b * cosC),
            cos_a * sinB * sinC - (cosB * cosC + cosA))


def spherical_residuals(t: TriangleData, m=FLOATS) -> list[RelationResidual]:
    """Residuals of the general spherical system (general_spherical_system)."""
    _check_kind(t, GeometryKind.SPHERICAL, "spherical_residuals")
    t.validate(m)
    k = t.geometry.k
    values = general_spherical_system(t.a / k, t.b / k, t.c / k, t, m.sin, m.cos, m)
    return [RelationResidual(rid, v) for rid, v in zip(SPHERICAL_RELATIONS, values)]


def spherical_right_residuals(t: TriangleData, m=FLOATS) -> list[RelationResidual]:
    """Residuals of the right-triangle specialization (right angle at C):

        sin a = sin A sin c,   cos B = cos b sin A,   cos c = cos a cos b.
    """
    _check_kind(t, GeometryKind.SPHERICAL, "spherical_right_residuals")
    t.validate(m)
    bad = abs(t.C - math.pi / 2.0) > RIGHT_ANGLE_TOL
    if bad is not False:
        m.refuse(bad, DomainError, "right angle at C required, got C = {}", t.C)
    k = t.geometry.k
    a, b, c = t.a / k, t.b / k, t.c / k
    sinA = m.sin(t.A)
    return [
        RelationResidual("sphr_sine", sinA * m.sin(c) - m.sin(a)),
        RelationResidual("sphr_cos_angle", m.cos(b) * sinA - m.cos(t.B)),
        RelationResidual("sphr_pythagoras", m.cos(a) * m.cos(b) - m.cos(c)),
    ]


def hyperbolic_residuals(t: TriangleData, m=FLOATS) -> list[RelationResidual]:
    """Residuals of the hyperbolic system in the module docstring.

    Zero sides are rejected up front: the cotangent relation divides by
    cos PI(a) = tanh(a/k) and tan PI(p) = 1/sinh(p/k) diverges, so the
    system is undefined there rather than infinite.
    """
    _check_kind(t, GeometryKind.HYPERBOLIC, "hyperbolic_residuals")
    bad = m.min(t.a, t.b, t.c) <= 0.0
    if bad is not False:
        m.refuse(bad, DomainError, "hyperbolic relations need positive sides: "
                 "tan PI and 1/cos PI diverge at a zero side")
    t.validate(m)
    k = t.geometry.k
    a, b, c = t.a / k, t.b / k, t.c / k
    sinA, cosA = m.sin(t.A), m.cos(t.A)
    sinB, cosB = m.sin(t.B), m.cos(t.B)
    sinC, cosC = m.sin(t.C), m.cos(t.C)
    cosh_b, tanh_b = m.cosh(b), m.tanh(b)
    return [
        RelationResidual("hyp_sine_law", sinA / m.sinh(a) - sinB / m.sinh(b)),
        RelationResidual("hyp_side_cosine",
                         (1.0 - tanh_b * m.tanh(c) * cosA)
                         - m.cosh(a) / (cosh_b * m.cosh(c))),
        RelationResidual("hyp_angle_cosine",
                         (cosA + cosB * cosC) - sinB * sinC * m.cosh(a)),
        RelationResidual("hyp_cotangent",
                         (cosA / sinA * sinC / cosh_b + cosC)
                         - tanh_b / m.tanh(a)),
    ]


def euclidean_residuals(t: TriangleData, m=FLOATS) -> list[RelationResidual]:
    """Residuals of the flat system: the sine law, the law of cosines,
    and the angle sum."""
    _check_kind(t, GeometryKind.EUCLIDEAN, "euclidean_residuals")
    t.validate(m)
    a, b, c = t.sides()
    return [
        RelationResidual("euc_sine_law", a * m.sin(t.B) - b * m.sin(t.A)),
        RelationResidual("euc_side_cosine",
                         a * a - (b * b + c * c - 2.0 * b * c * m.cos(t.A))),
        RelationResidual("euc_angle_sum", (t.A + t.B + t.C) - math.pi),
    ]
