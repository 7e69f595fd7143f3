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

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .columns import Columns, take
from .curvature import Curvature
from .errors import DegenerateError, DomainError
from .floats import FLOATS
from .models import (Model, ModelPoint, Ray, _edot, _spacelike_norm,
                     check_segments, minkowski_dot, model_distance,
                     richardson_length, tangent_angle, tangent_toward)
from .sampling import DEFAULT_ATTEMPTS, Block, resolve_block
from .triangle import TriangleData

# rays closer than this (or to pi minus this) give no usable triangle
MIN_RAY_SEPARATION = 1e-6
#: the largest |cos| a random center-ray triple allows between two rays
_MAX_RAY_COS = math.cos(0.05)
_NO_RAYS = f"no acceptable ray triple after {DEFAULT_ATTEMPTS} attempts"
#: the uniform bounds of a center-ray attempt: z and phi of each ray
_RAY_BOUNDS = ((-1.0, 1.0), (0.0, 2.0 * math.pi)) * 3
#: each thread's arc trace buffers, kept from one intrinsic_arc_length
#: call to the next
_workspace = threading.local()


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


def geodesic_sphere_triangle(sphere: GeodesicSphere, rays: tuple[Ray, Ray, Ray],
                             m=FLOATS) -> TriangleData:
    """The spherical triangle cut by three center rays.

    Sides are the pairwise ray angles (unit-radius angular measure) and
    angles are the dihedral angles along each ray, both defined at the
    center, so the result carries spherical geometry with k = 1 no
    matter the sphere radius. With a Columns namespace the ray
    directions are columns and so is the triangle.
    """
    for r in rays:
        if r.base.coords != sphere.center.coords or r.base.k != sphere.center.k:
            raise DomainError("all three rays must be based at the sphere center")
    d1, d2, d3 = (r.direction for r in rays)
    center = sphere.center
    a = tangent_angle(center, d2, d3, m)
    b = tangent_angle(center, d3, d1, m)
    c = tangent_angle(center, d1, d2, m)
    for side in (a, b, c):
        bad = (side < MIN_RAY_SEPARATION) | (side > math.pi - MIN_RAY_SEPARATION)
        if bad is not False:
            m.refuse(bad, DegenerateError, "two rays are (anti)parallel; no spherical triangle")

    def dihedral(axis, u, v):
        return tangent_angle(center, _tangent_part(u, axis), _tangent_part(v, axis), m)

    A = dihedral(d1, d2, d3)
    B = dihedral(d2, d3, d1)
    C = dihedral(d3, d1, d2)
    return TriangleData(a, b, c, A, B, C, Curvature.spherical(1.0)).validate(m)


def _ray_directions(z0, phi0, z1, phi1, z2, phi2, m):
    """Three well-separated unit directions (z, r cos phi, r sin phi),
    r = sqrt((1 - z)(1 + z)), one per (z, phi) pair, or None where they
    are rejected. Uniform z on [-1, 1) and phi on [0, 2 pi) give a
    uniform point on the unit sphere (Archimedes)."""
    dirs = []
    for z, phi in ((z0, phi0), (z1, phi1), (z2, phi2)):
        r = m.sqrt((1.0 - z) * (1.0 + z))
        dirs.append((z, r * m.cos(phi), r * m.sin(phi)))
    d0, d1, d2 = dirs
    sep = m.max(abs(_edot(d0, d1, m)), abs(_edot(d0, d2, m)), abs(_edot(d1, d2, m)))
    keep = m.reject(sep > _MAX_RAY_COS)
    if keep is None:
        return None
    return keep(d0, d1, d2)


def center_ray_triangles(sphere: GeodesicSphere, seed: int, start: int, stop: int) -> Block:
    """The triangles cut by random center-ray triples, one per index of
    [start, stop): a Block whose figure is the triangle and the ray
    directions of its rows (3, 4, rows).

    Attempt j of index i runs _ray_directions on uniforms 6j to 6j + 5
    of sample_stream(seed, i) over _RAY_BOUNDS, as sampling.resolve_block
    resolves a block; the rays and their triangle are computed on
    columns. Block.errors holds the first error of every index without a
    triangle, including the exhausted attempt budget.
    """
    center = sphere.center
    drawn = resolve_block(seed, start, stop, _RAY_BOUNDS, _ray_directions, DEFAULT_ATTEMPTS,
                          functools.partial(DomainError, _NO_RAYS))
    if drawn.figure is None:
        return drawn
    with Columns(drawn.rows) as m:
        rays = tuple(Ray.at(center, (0.0, *d), m) for d in drawn.figure)
        t = geodesic_sphere_triangle(sphere, rays, m)
    alive = ~m.dead
    directions = np.array([ray.direction for ray in rays])[:, :, alive]
    return Block(m.rows[alive], (take(t, alive), directions), drawn.errors | m.errors)


def _arc_workspace(fine: int) -> np.ndarray:
    """This thread's buffers for an arc trace of fine + 1 points: nine
    rows, the angle ramp 0, 1, ..., fine first. Each thread keeps one
    buffer, grown to the largest trace it has made and never shrunk; a
    call gets views of its first fine + 1 columns, whose ramp is the
    same prefix at every size."""
    ws = getattr(_workspace, "arc", None)
    if ws is None or ws.shape[1] < fine + 1:
        ws = _workspace.arc = np.empty((9, fine + 1))
        ws[0] = np.arange(fine + 1)
    return ws[:, :fine + 1]


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

    Only the coordinates that move are traced, bit for bit as the full
    trace. A coordinate whose frame components are both 0.0 is constant
    when cosh(rho/k)·o and k·sinh(rho/k) are finite, so its squared
    differences are +0, and adding or subtracting +0 leaves a squared
    chord unchanged; at the origin center this drops the time axis. The
    center term is dropped where o is 0.0: cosh is finite (math.cosh
    raises rather than overflow), the term is ±0, and ±0 changes no
    difference beyond the sign of a zero, which its square loses. Without
    the time axis nothing is subtracted: the sum of squares is +0 or
    more, or nan, and the clamp at 0 would return it unchanged.

    The trace's buffers persist per thread (_arc_workspace), and calls
    at several segment counts share them. At the default 4096 segments
    a trace array is 131,080 bytes, just over glibc's 128 KiB mmap
    threshold, so fresh arrays cost an mmap each, faulted in page by
    page: 224 minor faults per call. They are per
    thread because numpy releases the GIL inside its loops, so threads
    tracing into one shared set would overwrite each other's traces.
    A base_segments that is not an integer of at least 1 raises
    DomainError.
    """
    check_segments(base_segments)
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
    ksh = k * sh
    fine = 4 * base_segments
    ramp, cos_t, sin_t, diff, hops, *columns = _arc_workspace(fine)
    # np.linspace(0.0, delta, fine + 1) by linspace's own arithmetic for
    # a nonzero step, which delta >= MIN_RAY_SEPARATION ensures
    np.multiply(ramp, delta / fine, out=cos_t)
    cos_t[-1] = delta
    np.sin(cos_t, out=sin_t)
    np.cos(cos_t, out=cos_t)
    # the column ch·o + ksh·(cos θ·u + sin θ·v) of each hyperboloid axis
    # that moves; a unit tangent has a nonzero spatial component, so
    # some spatial axis moves
    cols = {}
    for axis, (o, u, v) in enumerate(zip(sphere.center.coords, e1, e2)):
        cho = ch * o
        if u == 0.0 and v == 0.0 and math.isfinite(cho) and math.isfinite(ksh):
            continue
        col = cols[axis] = np.multiply(cos_t, u, out=columns[axis])
        np.add(col, np.multiply(sin_t, v, out=diff), out=col)
        np.multiply(col, ksh, out=col)
        if o != 0.0:
            np.add(col, cho, out=col)
    time = cols.pop(0, None)
    first, *rest = cols.values()

    def polyline(n_seg: int) -> float:
        step = fine // n_seg
        d, msq = diff[:n_seg], hops[:n_seg]
        np.subtract(first[step::step], first[:-1:step], out=msq)
        np.multiply(msq, msq, out=msq)
        for col in rest:
            np.subtract(col[step::step], col[:-1:step], out=d)
            np.add(msq, np.multiply(d, d, out=d), out=msq)
        if time is not None:
            np.subtract(time[step::step], time[:-1:step], out=d)
            np.subtract(msq, np.multiply(d, d, out=d), out=msq)
            np.maximum(msq, 0.0, out=msq)
        # 2.0 * k * arcsinh(0.5 * sqrt(msq) / k), rounded in that order
        np.sqrt(msq, out=msq)
        np.multiply(msq, 0.5, out=msq)
        np.divide(msq, k, out=msq)
        np.arcsinh(msq, out=msq)
        np.multiply(msq, 2.0 * k, out=msq)
        return float(np.sum(msq))

    return richardson_length(polyline, base_segments)
