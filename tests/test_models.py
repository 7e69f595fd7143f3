"""Model oracles: distances, angles, geodesics, rays, isometries."""

import math
import pickle
import random

import numpy as np
import pytest

from cctrig import (Curvature, DomainError, GeometryKind, Model, ModelPoint, Ray,
                    asymptotic_ray, geodesic_point, half_space_to_hyperboloid,
                    hyperboloid_to_half_space, ideal_direction, model_angle,
                    model_distance, parallelism_angle, tangent_angle,
                    tangent_toward)
from cctrig import models
from cctrig.cevians import sample_cevian_configs
from cctrig.columns import Columns
from cctrig.curvature import TRIG
from cctrig.geodesic_sphere import _tangent_part

HYP = Curvature.hyperbolic()


def _hyp_origin(k=1.0, dim=3):
    return ModelPoint(Model.HYPERBOLOID, (k,) + (0.0,) * (dim - 1), k)


def test_sphere_distance_quarter_circle():
    k = 2.0
    p = ModelPoint.sphere((k, 0.0, 0.0), k)
    q = ModelPoint.sphere((0.0, k, 0.0), k)
    assert model_distance(p, q) == pytest.approx(math.pi / 2.0 * k, abs=1e-15)


def test_hyperboloid_distance_matches_the_synthesis_parameter():
    k = 1.7
    p = _hyp_origin(k)
    for t in (1e-6, 0.3, 2.0, 8.0):
        q = ModelPoint(Model.HYPERBOLOID,
                       (k * math.cosh(t), k * math.sinh(t), 0.0), k)
        assert model_distance(p, q) == pytest.approx(t * k, rel=1e-14)


def test_plane_distance_and_angle():
    a = ModelPoint.plane(0.0, 0.0)
    b = ModelPoint.plane(3.0, 0.0)
    c = ModelPoint.plane(3.0, 4.0)
    assert model_distance(a, c) == pytest.approx(5.0, abs=1e-15)
    assert model_angle(b, a, c) == pytest.approx(math.pi / 2.0, abs=1e-15)


def test_half_space_distance_along_a_vertical_line():
    # along x = y = 0 the metric integrates to k log(z2/z1)
    k = 1.3
    p = ModelPoint.half_space(0.0, 0.0, 1.0, k)
    q = ModelPoint.half_space(0.0, 0.0, math.e, k)
    assert model_distance(p, q) == pytest.approx(k, rel=1e-14)


def test_model_angle_agrees_with_tangent_angle():
    k = 1.0
    p = _hyp_origin(k)
    q = ModelPoint.hyperboloid((2.0, 1.0, 0.5), k)
    r = ModelPoint.hyperboloid((3.0, -1.0, 2.0), k)
    direct = model_angle(p, q, r)
    via_tangents = tangent_angle(p, tangent_toward(p, q), tangent_toward(p, r))
    assert direct == pytest.approx(via_tangents, abs=1e-15)


@pytest.mark.parametrize("p, target", (
    (ModelPoint.hyperboloid((1.5, 0.4, -0.3), 2.0), _hyp_origin(2.0)),
    (ModelPoint.plane(1.5, 0.4), ModelPoint.plane(-0.3, 2.0))), ids=("hyperboloid", "plane"))
def test_geodesic_point_travels_the_requested_distance(p, target):
    u = tangent_toward(p, target)
    for t in (0.1, 1.0, 4.0):
        q = geodesic_point(p, u, t)
        assert model_distance(p, q) == pytest.approx(t, rel=1e-13)


@pytest.mark.parametrize("p, q", (
    (ModelPoint.sphere((1.0, 0.0, 0.0)), ModelPoint.sphere((0.3, -0.8, 0.52))),
    (ModelPoint.plane(1.0, 0.0), ModelPoint.plane(0.3, -0.8))), ids=("sphere", "plane"))
def test_geodesic_point_reaches_the_target(p, q):
    hit = geodesic_point(p, tangent_toward(p, q), model_distance(p, q))
    assert model_distance(hit, q) < 1e-14


@pytest.mark.parametrize("base", (ModelPoint.hyperboloid((1.2, 0.3, 0.4), 1.0),
                                  ModelPoint.plane(0.3, 0.4)), ids=("hyperboloid", "plane"))
def test_ray_point_at_distance(base):
    ray = Ray.at(base, (0.0, 1.0, -0.5))
    for t in (0.5, 2.0, 5.0):
        assert model_distance(base, ray.point_at(t)) == pytest.approx(t, rel=1e-12)


def _row_bits(values, i):
    return tuple(float(v if np.ndim(v) == 0 else v[i]).hex() for v in values)


def test_the_plane_runs_through_the_shared_model_code():
    # plane points lie on x0 = 1 with product u0 v0, so the curved code
    # for tangents, rays and geodesic flow gives the bits of the closed
    # forms (q - p) * (1 / |q - p|) and p + t u
    rng = random.Random(29)
    draws = [tuple(rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-8, 8) for _ in range(5))
             for _ in range(1000)]
    for x, y, qx, qy, t in draws:
        p = ModelPoint.plane(x, y)
        w = (qx - x, qy - y)
        scale = 1.0 / models._enorm(w)
        u = (0.0, w[0] * scale, w[1] * scale)
        assert _bits(tangent_toward(p, ModelPoint.plane(qx, qy))) == _bits(u)
        assert _bits(Ray.at(p, (0.0, *w)).direction) == _bits(u)
        assert _bits(geodesic_point(p, u, t).coords) == _bits((1.0, x + t * u[1],
                                                               y + t * u[2]))
    # on columns, Ray.at gives the float call's bits row by row
    x, y, qx, qy, _ = (np.array(c) for c in zip(*draws))
    with Columns(np.arange(len(draws))) as m:
        rays = Ray.at(ModelPoint.plane(x, y), (0.0, qx - x, qy - y), m)
    for i, (xi, yi, qxi, qyi, _) in enumerate(draws):
        one = Ray.at(ModelPoint.plane(xi, yi), (0.0, qxi - xi, qyi - yi))
        assert _row_bits(rays.base.coords, i) == _bits(one.base.coords)
        assert _row_bits(rays.direction, i) == _bits(one.direction)
    # every plane point of a cevian block, feet included, is on x0 = 1
    cfg = sample_cevian_configs(Curvature.euclidean(), 29, 0, 500).figure
    for point in (cfg.A, cfg.B, cfg.C, cfg.O, cfg.foot_a, cfg.foot_b, cfg.foot_c):
        assert point.k == 1.0 and np.all(np.asarray(point.coords[0]) == 1.0)


def test_a_direction_needs_as_many_components_as_its_point():
    hyperboloid = ModelPoint(Model.HYPERBOLOID, (1.0, 0.0, 0.0, 0.0), 1.0)
    sphere = ModelPoint.sphere((1.0, 0.0, 0.0))
    with pytest.raises(DomainError, match="4 components"):
        geodesic_point(hyperboloid, (0.0, 1.0, 0.0), 1.0)
    with pytest.raises(DomainError, match="3 components"):
        Ray.at(sphere, (0.0, 1.0, 0.0, 5.0))
    with pytest.raises(DomainError, match="3 components"):
        tangent_angle(sphere, (0.0, 1.0, 0.0), (0.0, 0.0, 1.0, 7.0))
    # a plane direction carries a leading 0; a bare (dx, dy) is refused
    with pytest.raises(DomainError, match="3 components"):
        Ray.at(ModelPoint.plane(0.0, 0.0), (1.0, 0.0))


def test_ideal_direction_is_normalized_and_ray_invariant():
    base = _hyp_origin()
    ray = Ray.at(base, (0.0, 0.6, 0.8))
    w = ideal_direction(ray)
    assert w[0] == 1.0
    # the same ray seen from any of its points has the same endpoint
    later = Ray.at(ray.point_at(3.0), tangent_toward(ray.point_at(3.0),
                                                     ray.point_at(4.0)))
    w2 = ideal_direction(later)
    assert max(abs(x - y) for x, y in zip(w, w2)) < 1e-12


def test_asymptotic_ray_keeps_the_base_point():
    line = Ray.at(_hyp_origin(), (0.0, 1.0, 0.0))
    p = ModelPoint.hyperboloid((2.0, 0.5, 1.2), 1.0)
    asym = asymptotic_ray(p, line)
    assert asym.base is p


def test_asymptotic_ray_hits_the_same_ideal_endpoint():
    # grid of base points out to distance ~3 from the origin; endpoint
    # conditioning grows like cosh(distance)^2, so the documented 1e-12
    # holds for moderately distant bases, not arbitrarily far ones
    line = Ray.at(_hyp_origin(), (0.0, 1.0, 0.0))
    target = ideal_direction(line)
    for i in range(50):
        s, t = 0.085 * i - 2.1, 0.065 * i - 1.6
        p = ModelPoint.hyperboloid(
            (math.cosh(s) * math.cosh(t), math.sinh(s) * math.cosh(t),
             math.sinh(t)), 1.0)
        got = ideal_direction(asymptotic_ray(p, line))
        assert max(abs(x - y) for x, y in zip(got, target)) < 1e-12


def test_asymptotic_ray_from_a_point_on_the_ray_is_the_ray():
    line = Ray.at(_hyp_origin(), (0.0, 1.0, 0.0))
    p = line.point_at(2.0)
    asym = asymptotic_ray(p, line)
    assert max(abs(x - y) for x, y in
               zip(ideal_direction(asym), ideal_direction(line))) < 1e-15


def test_asymptotic_rays_are_transitive():
    line = Ray.at(_hyp_origin(), (0.0, 1.0, 0.0))
    p = ModelPoint.hyperboloid((2.0, 1.0, -1.0), 1.0)
    q = ModelPoint.hyperboloid((1.5, -0.5, 0.7), 1.0)
    direct = asymptotic_ray(q, line)
    chained = asymptotic_ray(q, asymptotic_ray(p, line))
    assert max(abs(x - y) for x, y in
               zip(ideal_direction(direct), ideal_direction(chained))) < 1e-13


def test_asymptotic_ray_realizes_the_angle_of_parallelism():
    """At distance p from a line, the asymptotic ray makes the angle
    PI(p) with the perpendicular dropped onto the line."""
    origin = _hyp_origin()
    line = Ray.at(origin, (0.0, 1.0, 0.0))
    perp = (0.0, 0.0, 1.0)
    for p in (1e-3, 0.03, 0.4, 1.0, 2.5, 6.0, 10.0):
        point = geodesic_point(origin, perp, p)
        asym = asymptotic_ray(point, line)
        toward_foot = tangent_toward(point, origin)
        angle = tangent_angle(point, asym.direction, toward_foot)
        assert abs(angle - parallelism_angle(p, HYP)) < 1e-10


def test_half_space_isometry_round_trip():
    k = 1.4
    pts = [ModelPoint.hyperboloid(c, k) for c in
           ((1.0, 0.0, 0.0, 0.0), (2.0, 1.0, -0.5, 0.8), (5.0, 3.0, 2.0, -2.5))]
    for p in pts:
        q = hyperboloid_to_half_space(p)
        back = half_space_to_hyperboloid(q)
        assert max(abs(x - y) for x, y in zip(p.coords, back.coords)) < 1e-12


def test_half_space_isometry_preserves_distances():
    k = 1.0
    p = ModelPoint.hyperboloid((1.5, 0.2, -0.9, 0.1), k)
    q = ModelPoint.hyperboloid((2.0, 1.1, 0.3, -1.0), k)
    d_model = model_distance(p, q)
    d_chart = model_distance(hyperboloid_to_half_space(p),
                             hyperboloid_to_half_space(q))
    assert d_chart == pytest.approx(d_model, rel=1e-12)


def test_half_space_isometry_sends_origin_to_unit_height():
    p = _hyp_origin(2.0, dim=4)
    q = hyperboloid_to_half_space(p)
    assert q.coords == pytest.approx((0.0, 0.0, 2.0), abs=1e-15)


def test_constructors_reject_bad_coordinates():
    with pytest.raises(DomainError):
        ModelPoint.sphere((0.0, 0.0, 0.0))
    with pytest.raises(DomainError):
        ModelPoint.hyperboloid((0.5, 1.0, 0.0))           # spacelike
    with pytest.raises(DomainError):
        ModelPoint.hyperboloid((-2.0, 1.0, 0.0))          # lower sheet
    with pytest.raises(DomainError):
        ModelPoint.half_space(0.0, 0.0, -1.0)
    with pytest.raises(DomainError):
        ModelPoint.sphere((1.0, 0.0))


def test_mixed_charts_are_rejected():
    p = ModelPoint.sphere((1.0, 0.0, 0.0))
    q = ModelPoint.hyperboloid((1.0, 0.0, 0.0))
    with pytest.raises(DomainError):
        model_distance(p, q)
    with pytest.raises(DomainError):
        model_distance(ModelPoint.sphere((1.0, 0.0, 0.0), 1.0),
                       ModelPoint.sphere((2.0, 0.0, 0.0), 2.0))


def test_the_half_space_chart_offers_no_tangents_angles_or_rays():
    # distances and the isometry are its only measurements; geodesic_point
    # already refuses it
    p = ModelPoint.half_space(0.0, 0.0, 1.0)
    q = ModelPoint.half_space(1.0, 0.0, 2.0)
    r = ModelPoint.half_space(0.0, 1.0, 0.5)
    with pytest.raises(DomainError, match="half-space chart"):
        tangent_toward(p, q)
    with pytest.raises(DomainError, match="half-space chart"):
        model_angle(p, q, r)
    with pytest.raises(DomainError, match="half-space chart"):
        Ray.at(p, (1.0, 0.0, 0.0))
    with pytest.raises(DomainError, match="half-space chart"):
        geodesic_point(p, (0.0, 0.0, 1.0), 1.0)


def test_ideal_direction_needs_the_hyperboloid():
    ray = Ray.at(ModelPoint.plane(0.0, 0.0), (0.0, 1.0, 0.0))
    with pytest.raises(DomainError):
        ideal_direction(ray)


# generic copies of the vector helpers: the kernel's unrolled and map-based
# ones must give the same bits

def _ref_minkowski_dot(u, v):
    s = u[0] * v[0]
    for i in range(1, len(u)):
        s -= u[i] * v[i]
    return s


def _ref_edot(u, v):
    s = u[0] * v[0]
    for i in range(1, len(u)):
        s += u[i] * v[i]
    return s


def _ref_tangent_part(direction, axis):
    t = _ref_minkowski_dot(direction, axis)
    return tuple(d + t * ax for d, ax in zip(direction, axis))


#: helpers of any length
_REFERENCE_HELPERS = (
    (models._edot, _ref_edot),
    (models._sub, lambda u, v: tuple(ui - vi for ui, vi in zip(u, v))),
    (models._add, lambda u, v: tuple(ui + vi for ui, vi in zip(u, v))),
    (lambda u, v: models._scale(u, v[0]), lambda u, v: tuple(ui * v[0] for ui in u)),
    (lambda u, v: models._enorm(u), lambda u, v: math.sqrt(_ref_edot(u, u))),
)
#: helpers of the 3- and 4-component Minkowski sheets
_MINKOWSKI_HELPERS = (
    (models.minkowski_dot, _ref_minkowski_dot),
    (_tangent_part, _ref_tangent_part),
)


def _bits(x):
    return tuple(map(float.hex, x)) if isinstance(x, tuple) else float.hex(x)


@pytest.mark.parametrize("n", (2, 3, 4))
def test_vector_helpers_match_the_generic_helpers(n):
    rng = random.Random(n)
    helpers = _REFERENCE_HELPERS + (_MINKOWSKI_HELPERS if n > 2 else ())
    for _ in range(2000):
        # magnitudes across many binades, so rounding order would show
        u = tuple(rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-8, 8) for _ in range(n))
        v = tuple(rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-8, 8) for _ in range(n))
        for ours, reference in helpers:
            assert _bits(ours(u, v)) == _bits(reference(u, v))


def _mp_dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _mp_vector_angle(u, v):
    """The angle between two 3-vectors, in mpmath's working precision."""
    import mpmath
    cross = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])
    return mpmath.atan2(mpmath.sqrt(_mp_dot(cross, cross)), _mp_dot(u, v))


def _mp_tangent(p, q):
    """The part of q orthogonal to p: the tangent at p toward q."""
    t = _mp_dot(p, q) / _mp_dot(p, p)
    return [qi - t * pi for pi, qi in zip(p, q)]


def _sphere_kernel_errors(cases, seed):
    """The worst errors of the sphere's model_distance and model_angle
    over `cases` random triangles at k = 2^U(-20, 20), against 50 digits
    evaluated from the same float coordinates: the distance of the first
    two vertices in ulps of the reference, and the angle at the first in
    units of 2^-52, the ulp of 1. The vertices are pairwise 0.1 to
    pi - 0.1 rad apart."""
    import mpmath
    rng = random.Random(seed)
    worst_distance = worst_angle = 0.0
    done = 0
    with mpmath.workdps(50):
        while done < cases:
            k = 2.0 ** rng.uniform(-20.0, 20.0)
            a, b, c = (ModelPoint.sphere(tuple(rng.gauss(0.0, 1.0) for _ in range(3)), k)
                       for _ in range(3))
            at, p, q = ([mpmath.mpf(x) for x in v.coords] for v in (a, b, c))
            apart = (_mp_vector_angle(at, p), _mp_vector_angle(at, q), _mp_vector_angle(p, q))
            if not all(0.1 <= x <= math.pi - 0.1 for x in apart):
                continue
            done += 1
            distance = k * apart[0]
            worst_distance = max(worst_distance, float(
                abs(model_distance(a, b) - distance) / math.ulp(float(distance))))
            angle = _mp_vector_angle(_mp_tangent(at, p), _mp_tangent(at, q))
            worst_angle = max(worst_angle, float(abs(model_angle(a, b, c) - angle)) / 2.0 ** -52)
    return worst_distance, worst_angle


def test_sphere_kernels_agree_with_mpmath():
    pytest.importorskip("mpmath")
    worst_distance, worst_angle = _sphere_kernel_errors(2000, 2026)
    assert worst_distance <= 32.0
    assert worst_angle <= 64.0


@pytest.mark.parametrize("n", (2, 5))
def test_minkowski_dot_takes_only_sheet_vectors(n):
    with pytest.raises(DomainError):
        models.minkowski_dot((1.0,) * n, (1.0,) * n)


def test_enum_keyed_tables_hit_by_member_by_value_and_after_pickling():
    # the enums hash by identity; each member is one object however it is
    # reached, so every way of naming it finds the same entry
    for kind in GeometryKind:
        for same in (kind, GeometryKind(kind.value), pickle.loads(pickle.dumps(kind))):
            assert models.MODEL_FOR_KIND[same] is models.MODEL_FOR_KIND[kind]
            assert TRIG[same] is TRIG[kind]
    assert TRIG[GeometryKind("spherical")][:3] == (math.sin, math.cos, 1.0)
    assert TRIG[GeometryKind("hyperbolic")][:3] == (math.sinh, math.cosh, -1.0)
    for model in (Model.SPHERE, Model.HYPERBOLOID, Model.PLANE):
        assert models.METRIC[Model(model.value)] is models.METRIC[model]
    assert Model("half_space") not in models.METRIC
