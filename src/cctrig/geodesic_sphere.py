"""Triangles cut on a geodesic sphere inside hyperbolic 3-space.

A sphere of geodesic radius rho about a hyperboloid point is an honest
constant-curvature sphere: its intrinsic geometry is the round sphere of
effective radius k sinh(rho/k). Sides and angles of a spherical triangle
whose vertices sit on rays from the center are already fixed at the
center (ray angles and dihedral angles), so the relation residuals are
independent of rho; the rho-dependence shows up only in the intrinsic
lengths, which is what the polyline integration measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curvature import Curvature
from .errors import DegenerateError, DomainError
from .models import (Model, ModelPoint, Ray, _spacelike_norm, minkowski_dot,
                     model_distance, richardson_length, tangent_angle,
                     tangent_toward)
from .triangle import TriangleData

# rays closer than this (or to pi minus this) give no usable triangle
MIN_RAY_SEPARATION = 1e-6


@dataclass(frozen=True)
class GeodesicSphere:
    """The set of points at geodesic distance `radius` from `center`."""

    center: ModelPoint
    radius: float

    def __post_init__(self):
        if self.center.model is not Model.HYPERBOLOID or len(self.center.coords) != 4:
            raise DomainError("geodesic spheres need a 4-component hyperboloid center")
        if not (math.isfinite(self.radius) and self.radius > 0.0):
            raise DomainError(f"sphere radius must be positive and finite, got {self.radius}")

    @property
    def effective_radius(self) -> float:
        """Radius of the round sphere isometric to this one."""
        k = self.center.k
        return k * math.sinh(self.radius / k)

    def point_toward(self, direction) -> ModelPoint:
        """The sphere point hit by the ray from the center along `direction`."""
        return Ray.at(self.center, direction).point_at(self.radius)


def _tangent_part(direction, axis):
    # projection orthogonal to a unit tangent, in the tangent-space metric
    t = minkowski_dot(direction, axis)
    return tuple([d + t * ax for d, ax in zip(direction, axis)])


def geodesic_sphere_triangle(sphere: GeodesicSphere,
                             rays: tuple[Ray, Ray, Ray]) -> TriangleData:
    """The spherical triangle cut by three center rays.

    Sides are the pairwise ray angles (unit-radius angular measure) and
    angles are the dihedral angles along each ray, both defined at the
    center, so the result carries spherical geometry with k = 1 no
    matter the sphere radius.
    """
    for r in rays:
        if r.base.coords != sphere.center.coords or r.base.k != sphere.center.k:
            raise DomainError("all three rays must be based at the sphere center")
    d1, d2, d3 = (r.direction for r in rays)
    center = sphere.center
    a = tangent_angle(center, d2, d3)
    b = tangent_angle(center, d3, d1)
    c = tangent_angle(center, d1, d2)
    for side in (a, b, c):
        if side < MIN_RAY_SEPARATION or side > math.pi - MIN_RAY_SEPARATION:
            raise DegenerateError("two rays are (anti)parallel; no spherical triangle")

    def dihedral(axis, u, v):
        return tangent_angle(center, _tangent_part(u, axis), _tangent_part(v, axis))

    A = dihedral(d1, d2, d3)
    B = dihedral(d2, d3, d1)
    C = dihedral(d3, d1, d2)
    return TriangleData(a, b, c, A, B, C, Curvature.spherical(1.0)).validate()


def intrinsic_arc_length(sphere: GeodesicSphere, p: ModelPoint, q: ModelPoint, *,
                         base_segments: int = 4096) -> float:
    """Length of the intrinsic geodesic (great-circle arc) of the sphere
    between two of its points, by polyline integration.

    The arc is traced once, at the finest of three refinement levels, in
    the plane spanned by the center tangents toward p and q; chord hops
    between consecutive trace points are summed over every fourth, every
    second and every trace point and Richardson-extrapolated. The
    strided traces are bit for bit the coarse ones: the angle step
    delta/(4n) is delta/n scaled by a power of two.
    """
    k = sphere.center.k
    for x in (p, q):
        d = model_distance(sphere.center, x)
        if abs(d - sphere.radius) > 1e-9 * max(1.0, sphere.radius):
            raise DomainError(f"point at center distance {d} is not on the sphere "
                              f"of radius {sphere.radius}")
    e1 = tangent_toward(sphere.center, p)
    t2 = tangent_toward(sphere.center, q)
    delta = tangent_angle(sphere.center, e1, t2)
    if delta < MIN_RAY_SEPARATION or delta > math.pi - MIN_RAY_SEPARATION:
        raise DegenerateError("points are coincident or antipodal on the sphere")
    # tangent-metric Gram-Schmidt for the second frame vector
    w = _tangent_part(t2, e1)
    n = _spacelike_norm(w)
    e2 = tuple(wi / n for wi in w)

    ch, sh = math.cosh(sphere.radius / k), math.sinh(sphere.radius / k)
    fine = 4 * base_segments
    theta = np.linspace(0.0, delta, fine + 1)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    # one coordinate column per hyperboloid axis, time axis first
    cols = [ch * o + (k * sh) * (cos_t * u + sin_t * v)
            for o, u, v in zip(sphere.center.coords, e1, e2)]

    def polyline(n_seg: int) -> float:
        d0, d1, d2, d3 = (np.diff(col[::fine // n_seg]) for col in cols)
        msq = d1 * d1 + d2 * d2 + d3 * d3 - d0 * d0
        hops = 2.0 * k * np.arcsinh(0.5 * np.sqrt(np.maximum(msq, 0.0)) / k)
        return float(np.sum(hops))

    return richardson_length(polyline, base_segments)
