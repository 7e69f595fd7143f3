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
#: call to the next (_arc_workspace)
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
        # past about 710 k no finite point lies on the sphere
        try:
            math.cosh(self.radius / self.center.k)
        except OverflowError:
            raise DomainError(f"sphere radius {self.radius} is too large for scale "
                              f"{self.center.k}: cosh(radius/k) overflows") from None

    @property
    def effective_radius(self) -> float:
        """Radius of the round sphere isometric to this one."""
        k = self.center.k
        return k * math.sinh(self.radius / k)

    def point_toward(self, direction, m=FLOATS) -> ModelPoint:
        """The sphere point hit by the ray from the center along
        `direction`; with a Columns namespace the direction and the point
        hold coordinate columns."""
        return Ray.at(self.center, direction, m).point_at(self.radius)


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


def _arc_workspace(rows: int, fine: int):
    """This thread's buffers for tracing `rows` arcs of fine + 1 points:
    the angle ramp 0, 1, ..., fine, then eight flat buffers of rows ×
    (fine + 1) doubles (cos, sin, differences, hops and four coordinate
    columns). Each thread keeps one ramp and one buffer, each grown to
    the largest trace it has made and never shrunk; a call gets views of
    their prefixes, and the ramp is the same prefix at every size. The
    buffer starts at _ARC_WORKSPACE doubles, so traces within that size
    never replace it."""
    points = fine + 1
    ramp = getattr(_workspace, "ramp", None)
    if ramp is None or len(ramp) < points:
        ramp = _workspace.ramp = np.arange(float(points))
    size = rows * points
    ws = getattr(_workspace, "arc", None)
    if ws is None or len(ws) < 8 * size:
        ws = _workspace.arc = np.empty(max(8 * size, _ARC_WORKSPACE))
    return ramp[:points], *(ws[i * size:(i + 1) * size] for i in range(8))


def intrinsic_arc_length(sphere: GeodesicSphere, p: ModelPoint, q: ModelPoint, m=FLOATS, *,
                         base_segments: int = 1024) -> float:
    """Length of the intrinsic geodesic (great-circle arc) of the sphere
    between two of its points, by polyline integration. With a Columns
    namespace p and q hold coordinate columns (as
    GeodesicSphere.point_toward(direction, m) gives them) and the result
    is a column, row i bit for bit the float call on row i's points.

    A point off the sphere raises DomainError and coincident or
    antipodal points DegenerateError, through m.refuse: a column records
    them for their rows, whose lengths are then meaningless. A
    base_segments that is not an integer of at least 1 raises
    DomainError.

    Each arc is traced once, at the finest of four refinement levels (n,
    2n, 4n and 8n segments), in the plane spanned by the center tangents
    toward p and q; chord hops between consecutive trace points are
    summed over every eighth, fourth, second and every trace point and
    Richardson-extrapolated. The strided traces are bit for bit the
    coarse ones: the angle step delta/(8n) is delta/n scaled by a power
    of two. A float call traces one row; a column call traces its rows
    together, as many at once as _ARC_WORKSPACE holds.

    Only the coordinates that move are traced, bit for bit as the full
    trace. A coordinate whose frame components are both 0.0 is constant
    when cosh(rho/k)·o and k·sinh(rho/k) are finite, so its squared
    differences are +0, and adding or subtracting +0 leaves a squared
    chord unchanged; at the origin center this drops the time axis. A
    coordinate is traced for every row where it moves in any, which
    changes no row's bits for the same reason. The center term is
    dropped where o is 0.0: cosh is finite (GeodesicSphere refuses a
    radius where it overflows), the term is ±0, and ±0 changes no
    difference beyond the sign of a zero, which its square loses.
    Without the time axis nothing is subtracted: the sum of squares is
    +0 or more, or nan, and the clamp at 0 would return it unchanged.

    The trace's buffers persist per thread (_arc_workspace), and calls
    at several segment counts and row counts share them: a trace array
    past glibc's 128 KiB mmap threshold costs an mmap when it is fresh,
    faulted in page by page. They are per thread because numpy releases
    the GIL inside its loops, so threads tracing into one shared set
    would overwrite each other's traces.
    """
    check_segments(base_segments)
    center = sphere.center
    for x in (p, q):
        d = model_distance(center, x, m)
        bad = abs(d - sphere.radius) > 1e-9 * max(1.0, sphere.radius)
        if bad is not False:
            m.refuse(bad, DomainError, "point at center distance {} is not on the sphere "
                     "of radius {}", d, sphere.radius)
    e1 = tangent_toward(center, p, m)
    t2 = tangent_toward(center, q, m)
    delta = tangent_angle(center, e1, t2, m)
    bad = (delta < MIN_RAY_SEPARATION) | (delta > math.pi - MIN_RAY_SEPARATION)
    if bad is not False:
        m.refuse(bad, DegenerateError, "points are coincident or antipodal on the sphere")
    # tangent-metric Gram-Schmidt for the second frame vector
    w = _tangent_part(t2, e1)
    n = _spacelike_norm(w, m)
    e2 = tuple(wi / n for wi in w)
    k = center.k
    ch, sh = math.cosh(sphere.radius / k), math.sinh(sphere.radius / k)
    # one row per arc: (e1, e2, delta) by nine rows
    frame = np.array(np.broadcast_arrays(*e1, *e2, delta), dtype=float).reshape(9, -1)
    lengths = _trace_arcs(center, ch, k * sh, frame[:4], frame[4:8], frame[8],
                          base_segments)
    return lengths if type(delta) is np.ndarray else float(lengths[0])


#: the doubles of a thread's trace buffer: eight arrays of two rows at
#: the default 1024 segments (1.05 MB; 1.11 MB with the angle ramp). A
#: call traces as many rows at once as fit, and one row where none do:
#: 31 at 64 segments, 2 at 1024. Two rows at a time trace sphere-model's
#: 16 arcs at 1024 segments no slower than all 16 in one 8.4 MB trace
#: (5.3 against 5.8 ms on a shared 2-vCPU machine)
_ARC_WORKSPACE = 8 * 2 * (8 * 1024 + 1)


def _trace_arcs(center: ModelPoint, ch: float, ksh: float, e1, e2, delta,
                base_segments: int) -> np.ndarray:
    """The arc lengths of intrinsic_arc_length, one per row of the
    frames e1, e2 (4, rows) and angles delta (rows): row i traces
    ch·o + ksh·(cos θ·e1 + sin θ·e2) at θ = 0, delta/fine, ..., delta,
    o the center's coordinates and fine = 8 base_segments."""
    k = center.k
    fine = 8 * base_segments
    points = fine + 1
    chunk = max(1, _ARC_WORKSPACE // (8 * points))
    # the axes that move in some row, time last: its squares are subtracted
    moving = [axis for axis, o in enumerate(center.coords)
              if e1[axis].any() or e2[axis].any()
              or not (math.isfinite(ch * o) and math.isfinite(ksh))]
    if moving[:1] == [0]:
        moving.append(moving.pop(0))
    lengths = np.empty(len(delta))
    for start in range(0, len(delta), chunk):
        rows = slice(start, start + chunk)
        angle = delta[rows]
        count = len(angle)
        ramp, cos_t, sin_t, diff, hops, *buffers = _arc_workspace(count, fine)
        cos_t, sin_t = cos_t.reshape(count, points), sin_t.reshape(count, points)
        # np.linspace(0.0, delta, fine + 1) by linspace's own arithmetic
        # for a nonzero step, which delta >= MIN_RAY_SEPARATION ensures
        np.multiply(ramp, (angle / fine)[:, None], out=cos_t)
        cos_t[:, -1] = angle
        np.sin(cos_t, out=sin_t)
        np.cos(cos_t, out=cos_t)
        columns = []
        for axis, buffer in zip(moving, buffers):
            o = center.coords[axis]
            col = np.multiply(cos_t, e1[axis, rows, None], out=buffer.reshape(count, points))
            np.add(col, np.multiply(sin_t, e2[axis, rows, None],
                                    out=diff.reshape(count, points)), out=col)
            np.multiply(col, ksh, out=col)
            if o != 0.0:
                np.add(col, ch * o, out=col)
            columns.append(col)
        time = columns.pop() if moving[-1] == 0 else None
        # a unit tangent has a nonzero spatial component, so some spatial
        # axis moves
        first, *rest = columns

        def polyline(n_seg: int) -> np.ndarray:
            step = fine // n_seg
            d = diff[:count * n_seg].reshape(count, n_seg)
            msq = hops[:count * n_seg].reshape(count, n_seg)
            np.subtract(first[:, step::step], first[:, :-1:step], out=msq)
            np.multiply(msq, msq, out=msq)
            for col in rest:
                np.subtract(col[:, step::step], col[:, :-1:step], out=d)
                np.add(msq, np.multiply(d, d, out=d), out=msq)
            if time is not None:
                np.subtract(time[:, step::step], time[:, :-1:step], out=d)
                np.subtract(msq, np.multiply(d, d, out=d), out=msq)
                np.maximum(msq, 0.0, out=msq)
            # 2.0 * k * arcsinh(0.5 * sqrt(msq) / k), rounded in that order
            np.sqrt(msq, out=msq)
            np.multiply(msq, 0.5, out=msq)
            np.divide(msq, k, out=msq)
            np.arcsinh(msq, out=msq)
            np.multiply(msq, 2.0 * k, out=msq)
            return np.sum(msq, axis=1)

        lengths[rows] = richardson_length(polyline, base_segments)
    return lengths
