"""The prism figure over a right hyperbolic triangle.

Take a right triangle ABC (right angle at C) in a hyperbolic plane
inside hyperbolic 3-space, and erect through each vertex the ray
perpendicular to that plane, all on the same side. The three rays share
one ideal point, so the figure closes up at infinity: the horosphere
centered there through A cuts the prism in a triangle obeying flat
trigonometry, and the unit direction sphere at B cuts it in a spherical
triangle k m n whose sides and angles are parallelism angles of the
base triangle's sides. Reading those measurements back through the
inverse parallelism function reconstructs the base triangle, and the
reconstruction is what the verification suite scores against the
hyperbolic relation system.

Frames are chosen so every measured tangent is exact: the horospherical
triangle is measured in the frame centered at A, and the spherical
triangle in the frame centered at B (where the three unit tangents have
closed-form components). In A's frame the shared ideal point is
(1, 0, 0, 1), and the horosphere through A centered there is the sheet
points with x0 - x3 = k. Its chart point (k x1, k x2) / (x0 - x3) is
the shadow of a point in the upper half-space picture, where that
horosphere is the plane z = k and the axes are vertical lines; on it the
chart distance s and the ambient distance d obey Lobachevsky's
horocycle formula s = 2k sinh(d / 2k), and the induced metric is flat.

build_prism, parallelism_match and replay_residuals take their
elementary functions from `m` (columns.py): on a base triangle of
columns with a Columns namespace they build one figure per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .curvature import GeometryKind
from .errors import DomainError
from .floats import FLOATS
from .geodesic_sphere import geodesic_sphere_triangle
from .horosphere import horosphere_triangle
from .models import Model, ModelPoint, Ray, asymptotic_ray, ideal_direction
from .parallelism import inverse_parallelism, parallelism_angle
from .relations import RIGHT_ANGLE_TOL, RelationResidual, hyperbolic_residuals
from .triangle import TriangleData


@dataclass(frozen=True)
class PrismFigure:
    """The assembled figure: base triangle, its vertices and axis rays in
    the A-centered frame, the shared ideal point, and the two induced
    triangles.

    Spherical slots follow (k, n, m): the angle in slot C is the dihedral
    at m, which the construction forces to be right; slot-b and slot-c
    sides are the parallelism angles of base sides c and a; the slot-B
    angle is the parallelism angle of base side b. Horospherical slots
    follow the base vertices (A, B, C); the slot-C angle is right.
    """

    base: TriangleData
    vertices: tuple[ModelPoint, ModelPoint, ModelPoint]
    axes: tuple[Ray, Ray, Ray]
    ideal_point: tuple[float, ...]
    ideal_alignment_defect: float
    spherical: TriangleData
    horospherical: TriangleData

    @property
    def right_angle_defect_at_m(self) -> float:
        return abs(self.spherical.C - 0.5 * math.pi)

    @property
    def horospherical_right_angle_defect(self) -> float:
        return abs(self.horospherical.C - 0.5 * math.pi)


def _horosphere_chart(p: ModelPoint, m=FLOATS):
    """The chart point (k x1, k x2) / (x0 - x3) of a 4-component sheet
    point p: its shadow on the horosphere x0 - x3 = k about the ideal
    point (1, 0, 0, 1). Its height k^2 / (x0 - x3) in the half-space
    picture must be positive and finite."""
    x0, x1, x2, x3 = p.coords
    k = p.k
    denom = x0 - x3
    bad = denom <= 0.0
    if bad is not False:
        m.refuse(bad, DomainError, "point maps to infinity in this chart")
    height = k * k / denom
    bad = m.not_((height > 0.0) & m.isfinite(height))
    if bad is not False:
        m.refuse(bad, DomainError, "half-space height must be positive, got {}", height)
    return k * x1 / denom, k * x2 / denom


def build_prism(base: TriangleData, m=FLOATS) -> PrismFigure:
    """Erect the prism over a right hyperbolic triangle (right angle at C)."""
    if base.geometry.kind is not GeometryKind.HYPERBOLIC:
        raise DomainError("the prism construction needs a hyperbolic base triangle")
    base.validate(m)
    bad = abs(base.C - 0.5 * math.pi) > RIGHT_ANGLE_TOL
    if bad is not False:
        m.refuse(bad, DomainError, "right angle at C required, got C = {}", base.C)
    k = base.geometry.k
    au, bu, cu = base.a / k, base.b / k, base.c / k

    # frame centered at A: base plane is x3 = 0, axis direction is e3
    pa = ModelPoint(Model.HYPERBOLOID, (k, 0.0, 0.0, 0.0), k)
    pb = ModelPoint(Model.HYPERBOLOID,
                    (k * m.cosh(cu), k * m.sinh(cu), 0.0, 0.0), k)
    pc = ModelPoint(Model.HYPERBOLOID,
                    (k * m.cosh(bu), k * m.sinh(bu) * m.cos(base.A),
                     k * m.sinh(bu) * m.sin(base.A), 0.0), k)
    axis_a = Ray.at(pa, (0.0, 0.0, 0.0, 1.0), m)
    axis_b = asymptotic_ray(pb, axis_a, m)
    axis_c = asymptotic_ray(pc, axis_a, m)
    omega = ideal_direction(axis_a, m)
    defect = m.max(*(abs(w - o)
                     for axis in (axis_a, axis_b, axis_c)
                     for w, o in zip(ideal_direction(axis, m), omega)))

    # the axes run to the ideal point, so the prism cuts the horosphere
    # through A in the chart shadows of the vertices
    charts = [_horosphere_chart(p, m) for p in (pa, pb, pc)]
    horospherical = horosphere_triangle(k, charts[0], charts[1], charts[2], k, m)

    # frame centered at B: measure the direction-sphere triangle k m n
    # (k up the axis, m toward A, n toward C) with exact unit tangents.
    # B sits where pa sits in A's frame and A where pb sits, at distance c
    axis_a_in_b = Ray.at(pb, (0.0, 0.0, 0.0, 1.0), m)
    ray_k = asymptotic_ray(pa, axis_a_in_b, m)
    ray_m = Ray.at(pa, (0.0, 1.0, 0.0, 0.0), m)
    ray_n = Ray.at(pa, (0.0, m.cos(base.B), m.sin(base.B), 0.0), m)
    spherical = geodesic_sphere_triangle((ray_k, ray_n, ray_m), m)

    return PrismFigure(base, (pa, pb, pc), (axis_a, axis_b, axis_c),
                       omega, defect, spherical, horospherical)


def parallelism_match(figure: PrismFigure, m=FLOATS):
    """The largest gap between a measured angle of the figure and the
    angle the base triangle predicts for it: three parallelism angles
    on the spherical cut, and the angles the cuts share with the base."""
    base, sph = figure.base, figure.spherical
    geom = base.geometry
    return m.max(abs(sph.b - parallelism_angle(base.c, geom, m)),
                 abs(sph.c - parallelism_angle(base.a, geom, m)),
                 abs(sph.B - parallelism_angle(base.b, geom, m)),
                 abs(sph.a - base.B),
                 abs(figure.horospherical.A - base.A))


def replay_residuals(figure: PrismFigure, m=FLOATS) -> list[RelationResidual]:
    """Reconstruct the base triangle purely from the induced spherical and
    horospherical measurements and score it against the hyperbolic
    relation system. Nothing from the base triangle enters except the
    exactness of the right angle at C."""
    curv = figure.base.geometry
    sph = figure.spherical
    hor = figure.horospherical
    recovered = TriangleData(
        a=inverse_parallelism(sph.c, curv, m),
        b=inverse_parallelism(sph.B, curv, m),
        c=inverse_parallelism(sph.b, curv, m),
        A=0.5 * math.pi - hor.B,
        B=sph.a,
        C=0.5 * math.pi,
        geometry=curv,
    )
    return [RelationResidual("replay_" + r.relation_id, r.residual)
            for r in hyperbolic_residuals(recovered, m)]
