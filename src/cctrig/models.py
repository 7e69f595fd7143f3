"""Concrete constant-curvature models used as measurement oracles.

Four models: the round sphere of radius k in E3, the hyperboloid sheet
in Minkowski space (3 or 4 components, for plane and space hyperbolic
geometry), the upper half-space with its conformal metric, and the flat
plane. Conventions:

  * Minkowski product <x, y> = x0 y0 - x1 y1 - ... (signature +--...).
    Hyperboloid points satisfy <x, x> = k^2 with x0 > 0; unit tangents
    satisfy <v, v> = -1 and <v, point> = 0.
  * Sphere points are 3-vectors with |x| = k.
  * Half-space points are (x, y, z) with z > 0 and metric (k/z) |dx|.
    The chart offers distances and the maps to and from the hyperboloid;
    tangents (so model angles), rays and geodesic flow are not offered.
  * Plane points are (k, x, y) on the plane x0 = k, the flat member of
    curvature.py; ModelPoint.plane takes k = 1. Their product is u0 v0
    (eps = 0), so a plane tangent has x0 = 0 and the Euclidean norm, and
    the curved code for tangents, rays and geodesic flow serves the
    plane as written.

Distances use chord-based forms (asinh/atan2 of a difference vector)
and angles use 2 atan2(|u - v|, |u + v|) on unit tangents; both keep
full relative accuracy where acos/acosh of inner products lose half the
digits.

The measurements take their elementary functions from `m` (columns.py):
FLOATS by default, or a Columns block, whose model points hold one
float64 column per coordinate.

ModelPoint and Ray, built per sample and rebuilt by columns.take/join
for every block, are plain dataclasses for the reason TriangleData is
(triangle.py): they compare by value, are not hashable, and are never
changed after they are built.
"""

from __future__ import annotations

import enum
import math
import numbers
import operator
from dataclasses import dataclass

from .curvature import TRIG, GeometryKind
from .errors import DomainError
from .floats import FLOATS


class Model(enum.Enum):
    SPHERE = "sphere"
    HYPERBOLOID = "hyperboloid"
    HALF_SPACE = "half_space"
    PLANE = "plane"

    # members compare by identity, so the identity hash keys dicts the same
    # way as Enum's name hash, which runs in Python on every lookup
    __hash__ = object.__hash__


def minkowski_dot(u, v, m=None) -> float:
    # the plane and space sheets have 3 and 4 components; the terms are
    # subtracted one at a time, left to right, as _edot adds them. The
    # product is arithmetic alone; like _edot, it takes m only so that
    # every entry of METRIC is called alike.
    if len(u) == 4:
        return u[0] * v[0] - u[1] * v[1] - u[2] * v[2] - u[3] * v[3]
    if len(u) == 3:
        return u[0] * v[0] - u[1] * v[1] - u[2] * v[2]
    raise DomainError(f"Minkowski vectors have 3 or 4 components, got {len(u)}")


def _edot(u, v, m=None) -> float:
    # the Euclidean twin of minkowski_dot, for any length: the terms are
    # added one at a time, left to right, which IEEE 754 rounds the same
    # on floats and on columns
    s = u[0] * v[0]
    for i in range(1, len(u)):
        s = s + u[i] * v[i]
    return s


def _enorm(u, m=FLOATS) -> float:
    return m.sqrt(_edot(u, u))


def _flat_dot(u, v, m=None) -> float:
    # the flat member's product x0 y0 + eps (x1 y1 + x2 y2) at eps = 0
    return u[0] * v[0]


def _cross3(u, v):
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _sub(u, v):
    return tuple(map(operator.sub, u, v))


def _add(u, v):
    return tuple(map(operator.add, u, v))


def _scale(u, t):
    return tuple([ui * t for ui in u])


def _spacelike_norm(w, m=FLOATS) -> float:
    """Length of a spacelike Minkowski vector, clipped at 0 for rounding."""
    return m.sqrt(m.max(-minkowski_dot(w, w), 0.0))


def check_segments(base_segments) -> None:
    """Refuse a base segment count of a Richardson length kernel that is
    not an integer of at least 1."""
    if (isinstance(base_segments, bool) or not isinstance(base_segments, numbers.Integral)
            or base_segments < 1):
        raise DomainError(f"base_segments must be an integer >= 1, got {base_segments!r}")


def richardson_length(polyline, base_segments: int) -> float:
    """Extrapolate a polyline length to the limit curve from
    polyline(n) at n = base_segments, 2n, 4n and 8n segments (Romberg).
    The chord error is an even power series in the step, so eliminating
    h^2, h^4 and h^6 leaves O(h^8). A polyline that returns a column of
    lengths is extrapolated row by row."""
    l1, l2, l3, l4 = (polyline(scale * base_segments) for scale in (1, 2, 4, 8))
    r12 = (4.0 * l2 - l1) / 3.0
    r23 = (4.0 * l3 - l2) / 3.0
    r34 = (4.0 * l4 - l3) / 3.0
    r123 = (16.0 * r23 - r12) / 15.0
    r234 = (16.0 * r34 - r23) / 15.0
    return (64.0 * r234 - r123) / 63.0


#: model -> (inner product, tangent-vector norm) of every model but the
#: half-space chart; see curvature.py for the sign convention they share
METRIC = {
    Model.SPHERE: (_edot, _enorm),
    Model.HYPERBOLOID: (minkowski_dot, _spacelike_norm),
    Model.PLANE: (_flat_dot, _enorm),
}
#: the model each geometry is measured on
MODEL_FOR_KIND = {
    GeometryKind.EUCLIDEAN: Model.PLANE,
    GeometryKind.SPHERICAL: Model.SPHERE,
    GeometryKind.HYPERBOLIC: Model.HYPERBOLOID,
}
_KIND_FOR_MODEL = {model: kind for kind, model in MODEL_FOR_KIND.items()}


@dataclass
class ModelPoint:
    """A point of one concrete model.

    The named constructors renormalize onto the constraint surface and
    are the right entry for external coordinates. Direct instantiation
    skips that and is reserved for coordinates synthesized on-surface:
    far hyperboloid points have |<x, x>| dwarfed by the rounding of the
    squares themselves, so renormalizing them would inject error rather
    than remove it.
    """

    model: Model
    coords: tuple[float, ...]
    k: float = 1.0

    @staticmethod
    def sphere(coords, k: float = 1.0, m=FLOATS) -> ModelPoint:
        if len(coords) != 3:
            raise DomainError("sphere points take 3 components")
        r = _enorm(coords, m)
        bad = (r == 0.0) | m.not_(m.isfinite(r))
        if bad is not False:
            m.refuse(bad, DomainError, "cannot project {} onto the sphere", coords)
        return ModelPoint(Model.SPHERE, _scale(tuple(coords), k / r), k)

    @staticmethod
    def hyperboloid(coords, k: float = 1.0) -> ModelPoint:
        if len(coords) not in (3, 4):
            raise DomainError("hyperboloid points take 3 or 4 components")
        q = minkowski_dot(coords, coords)
        if not (q > 0.0 and math.isfinite(q)):
            raise DomainError(f"{coords} is not timelike; cannot normalize onto the sheet")
        if coords[0] <= 0.0:
            raise DomainError(f"{coords} sits on the lower sheet")
        return ModelPoint(Model.HYPERBOLOID, _scale(tuple(coords), k / math.sqrt(q)), k)

    @staticmethod
    def half_space(x: float, y: float, z: float, k: float = 1.0, m=FLOATS) -> ModelPoint:
        bad = m.not_((z > 0.0) & m.isfinite(z))
        if bad is not False:
            m.refuse(bad, DomainError, "half-space height must be positive, got {}", z)
        return ModelPoint(Model.HALF_SPACE, (x, y, z), k)

    @staticmethod
    def plane(x: float, y: float) -> ModelPoint:
        return ModelPoint(Model.PLANE, (1.0, x, y), 1.0)


def _synthesized_point(model: Model, coords, k: float, m=FLOATS) -> ModelPoint:
    """A point of a model from coordinates (x0, x, y) built on its
    surface: sphere points are renormalized, and hyperboloid points and
    flat points, which lie on x0 = k, kept as built."""
    if model is Model.SPHERE:
        return ModelPoint.sphere(coords, k, m)
    return ModelPoint(model, coords, k)


def _same_chart(p: ModelPoint, q: ModelPoint, what: str) -> None:
    if p.model is not q.model or p.k != q.k or len(p.coords) != len(q.coords):
        raise DomainError(f"{what} needs points of the same model and scale")


def _same_length(p: ModelPoint, v, what: str) -> None:
    if len(v) != len(p.coords):
        raise DomainError(f"{what} needs a vector of {len(p.coords)} components "
                          f"at a {p.model.value} point, got {len(v)}")


def model_distance(p: ModelPoint, q: ModelPoint, m=FLOATS) -> float:
    """Geodesic distance between two points of the same model."""
    _same_chart(p, q, "model_distance")
    k = p.k
    if p.model is Model.PLANE:
        return m.hypot(p.coords[1] - q.coords[1], p.coords[2] - q.coords[2])
    if p.model is Model.SPHERE:
        return k * m.atan2(_enorm(_cross3(p.coords, q.coords), m),
                           _edot(p.coords, q.coords, m))
    if p.model is Model.HYPERBOLOID:
        # chordal form: exact cancellation happens in the subtraction,
        # after which the Minkowski square of the difference is benign
        chord = _spacelike_norm(_sub(p.coords, q.coords), m)
        return 2.0 * k * m.asinh(0.5 * chord / k)
    dx = _sub(p.coords, q.coords)
    chord = _enorm(dx)
    return 2.0 * k * math.asinh(0.5 * chord / math.sqrt(p.coords[2] * q.coords[2]))


def _unit_tangent(p: ModelPoint, v, failure: str, m=FLOATS) -> tuple[float, ...]:
    """The tangent part of v at a point p of the sphere, hyperboloid or
    plane, normalized. On the plane <p, v> / k^2 is v0 / k, so the part
    has x0 = 0, and at k = 1 the tangent toward q is (0, q - p) divided
    by the Euclidean norm of q - p, bit for bit."""
    dot, norm = METRIC[p.model]
    # k * k underflows to 0 below k of about 1e-162
    w = _sub(v, _scale(p.coords, m.div(dot(p.coords, v, m), p.k * p.k)))
    n = norm(w, m)
    bad = n == 0.0
    if bad is not False:
        m.refuse(bad, DomainError, failure)
    return _scale(w, 1.0 / n)


def tangent_toward(p: ModelPoint, q: ModelPoint, m=FLOATS) -> tuple[float, ...]:
    """Unit initial tangent at p of the geodesic running to q. Not
    offered for the half-space chart, nor is model_angle."""
    _same_chart(p, q, "tangent_toward")
    if p.model not in METRIC:
        raise DomainError("tangents are not offered in the half-space chart")
    return _unit_tangent(p, q.coords,
                         "tangent_toward is undefined for equal or antipodal points", m)


def tangent_angle(p: ModelPoint, u, v, m=FLOATS) -> float:
    """Angle between two tangent vectors at p, in the model metric."""
    _same_length(p, u, "tangent_angle")
    _same_length(p, v, "tangent_angle")
    # every tangent metric but the hyperboloid's is Euclidean (the
    # half-space chart is conformal)
    norm = _spacelike_norm if p.model is Model.HYPERBOLOID else _enorm
    nu, nv = norm(u, m), norm(v, m)
    bad = (nu == 0.0) | (nv == 0.0)
    if bad is not False:
        m.refuse(bad, DomainError, "tangent_angle needs nonzero tangents")
    uu = _scale(u, 1.0 / nu)
    vv = _scale(v, 1.0 / nv)
    return 2.0 * m.atan2(norm(_sub(uu, vv), m), norm(_add(uu, vv), m))


def model_angle(at: ModelPoint, toward1: ModelPoint, toward2: ModelPoint,
                m=FLOATS) -> float:
    """Vertex angle at `at` between the geodesics to the two other points."""
    return tangent_angle(at, tangent_toward(at, toward1, m),
                         tangent_toward(at, toward2, m), m)


def geodesic_point(p: ModelPoint, direction, t: float) -> ModelPoint:
    """Point at arc length t along the geodesic from p with unit tangent
    `direction`. Not offered for the half-space chart; map through the
    hyperboloid instead. On the plane cs is 1 and sn the identity, so at
    k = 1 the point is p + t direction, bit for bit."""
    if p.model not in METRIC:
        raise DomainError("geodesic flow is not offered in the half-space chart")
    _same_length(p, direction, "geodesic_point")
    k = p.k
    sn, cs, _, _ = TRIG[_KIND_FOR_MODEL[p.model]]
    c, s = cs(t / k), sn(t / k)
    return _synthesized_point(p.model, _add(_scale(p.coords, c), _scale(direction, k * s)), k)


@dataclass
class Ray:
    """A geodesic ray: base point plus unit tangent (model metric)."""

    base: ModelPoint
    direction: tuple[float, ...]

    @staticmethod
    def at(base: ModelPoint, direction, m=FLOATS) -> Ray:
        """Build a ray, projecting the direction into the tangent space at
        the base and normalizing it. Not offered for the half-space
        chart."""
        if base.model not in METRIC:
            raise DomainError("rays are not offered in the half-space chart")
        _same_length(base, direction, "Ray.at")
        return Ray(base, _unit_tangent(base, direction,
                                       "ray direction has no tangent component", m))

    def point_at(self, t: float) -> ModelPoint:
        return geodesic_point(self.base, self.direction, t)


def ideal_direction(ray: Ray, m=FLOATS) -> tuple[float, ...]:
    """The ideal endpoint of a hyperboloid ray, as the lightlike vector
    base/k + direction normalized so its first component is 1. Two rays
    are asymptotic exactly when these agree."""
    if ray.base.model is not Model.HYPERBOLOID:
        raise DomainError("ideal points belong to the hyperboloid model")
    w = _add(_scale(ray.base.coords, 1.0 / ray.base.k), ray.direction)
    return _scale(w, m.div(1.0, w[0]))


def asymptotic_ray(p: ModelPoint, ray: Ray, m=FLOATS) -> Ray:
    """The ray from p sharing the ideal endpoint of `ray`.

    Closed form: for the lightlike representative w of the ideal point,
    u = (k^2 / <p, w>) w - p is exactly tangent at p with Minkowski norm
    k and points at the same ideal point; <p, w> > 0 always holds between
    a sheet point and a future lightlike vector. The ray is assembled
    directly from u/k rather than re-projected through Ray.at: the
    projection would subtract two nearly equal large vectors and its
    renormalization factor carries the squared rounding of the big
    components, which is what dominates the ideal-endpoint defect for
    distant base points. A point already on the given ray gets the ray's
    own direction back.
    """
    if p.model is not Model.HYPERBOLOID:
        raise DomainError("asymptotic rays belong to the hyperboloid model")
    w = ideal_direction(ray, m)
    k = p.k
    denom = minkowski_dot(p.coords, w)
    u = _sub(_scale(w, m.div(k * k, denom)), p.coords)
    return Ray(p, _scale(u, 1.0 / k))


def hyperboloid_to_half_space(p: ModelPoint, m=FLOATS) -> ModelPoint:
    """Isometry from the 4-component hyperboloid sheet to the upper
    half-space, sending the ideal point along (1,0,0,1) to infinity and
    the origin (k,0,0,0) to (0,0,k)."""
    if p.model is not Model.HYPERBOLOID or len(p.coords) != 4:
        raise DomainError("hyperboloid_to_half_space needs 4-component hyperboloid points")
    x0, x1, x2, x3 = p.coords
    k = p.k
    denom = x0 - x3
    bad = denom <= 0.0
    if bad is not False:
        m.refuse(bad, DomainError, "point maps to infinity in this chart")
    return ModelPoint.half_space(k * x1 / denom, k * x2 / denom, k * k / denom, k, m)


def half_space_to_hyperboloid(q: ModelPoint) -> ModelPoint:
    """Inverse of hyperboloid_to_half_space."""
    if q.model is not Model.HALF_SPACE:
        raise DomainError("half_space_to_hyperboloid needs half-space points")
    x, y, z = q.coords
    k = q.k
    s = x * x + y * y + z * z
    return ModelPoint.hyperboloid(
        (0.5 * (s + k * k) / z, k * x / z, k * y / z, 0.5 * (s - k * k) / z), k)
