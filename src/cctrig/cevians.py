"""Euler's concurrency relation for cevians, in all three geometries.

A cevian joins a vertex to a point of the opposite side. When the three
cevians of a triangle pass through one interior point O, the ratios

    r_X = tn(dist(X, O) / k) / tn(dist(O, foot_X) / k)

satisfy the product-sum identity  r_a r_b r_c = r_a + r_b + r_c + 2,
where tn = sn / cs is the tangent of the geometry (curvature.TRIG): tan
on the sphere, tanh on the hyperboloid and the identity on the plane,
whose points carry k = 1.

Proof, for every sign eps at once. Take the Cayley-Klein chart centred
at O: the Beltrami-Klein chart for eps = -1, the gnomonic chart for
eps = +1, or the plane itself for eps = 0. Geodesics are straight lines
in that chart, so the images of A, B, C, O and the feet form a Euclidean
triangle whose three cevians meet at the centre, and Euclidean Euler
holds for their chart lengths. Each cevian runs through the centre, and
a point at distance d from O sits at chart radius k tn(d / k); vertex
and foot lie on opposite sides of O, so each Euclidean ratio AO/OD
equals tn(|AO| / k) / tn(|OD| / k). The gnomonic chart needs arcs below
(pi/2) k, which the construction enforces. The cevians suite still
records its hyperbolic row (cev_hyperbolic_conjecture) rather than
asserting it, as its row set predates the proof.

Feet are constructed, not tested, by one construction for all three
kinds, which follows the proof: every point is lifted to coordinates in
which each geodesic is the section of the model by a plane through the
origin (_lift). Sphere and hyperboloid points keep their own
coordinates; a plane point p becomes (1, p - O), the flat member's
plane x0 = k of curvature.py at k = 1, centred at O. Given O, each foot
is then the closed-form intersection of the vertex-through-O plane with
the opposite side's plane (_foot), scaled onto the model by the model's
own product and oriented by one rule, the sign of that product with the
sum of the side's endpoints: it keeps the foot on the side's arc on the
sphere, on the upper sheet of the hyperboloid, and on x0 = 1 on the
plane. The interior test takes the triple products of the same lifted
points, in every kind.

The construction, the sampler attempt and the residual take their
elementary functions from `m` (columns.py): FLOATS for one
configuration, or a Columns block, where every point coordinate and
ratio is a column with one row per configuration.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .curvature import Curvature, GeometryKind
from .errors import DegenerateError, DomainError, InfeasibleError
from .floats import FLOATS
from .models import (CURVED_METRIC, MODEL_FOR_KIND, Model, ModelPoint, _add,
                     _cross3, _enorm, geodesic_point, model_distance, tangent_toward)
from .sampling import DEFAULT_ATTEMPTS, Block, resolve_block, resolve_index

#: Relative floor below which O is considered to lie on a side or vertex.
DEGENERACY_TOL = 1e-12
#: Allowed violation of "foot lies between the side's endpoints",
#: relative to the side length.
BETWEENNESS_TOL = 1e-9
#: errors on which the sampler rejects an attempt and draws again
_REJECTED = (DegenerateError, InfeasibleError, DomainError)
_THIRDS = (0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0)
#: each model's product of lifted points: the sphere's and the
#: hyperboloid's of CURVED_METRIC, and u0 v0 on the plane, the flat
#: member's (eps = 0 in x0 y0 + eps (x1 y1 + x2 y2))
_PRODUCT = {Model.PLANE: lambda u, v, m=None: u[0] * v[0],
            **{model: dot for model, (dot, _) in CURVED_METRIC.items()}}
#: model -> the refusal of a cevian that does not meet its side's geodesic
_MISSES = {Model.SPHERE: "cevian geodesic coincides with the opposite side",
           Model.HYPERBOLOID: "cevian and opposite side meet outside the hyperbolic plane",
           Model.PLANE: "cevian is parallel to the opposite side"}

@dataclass(frozen=True)
class CevianConfig:
    """Three concurrent cevians: vertices, the common interior point,
    the feet on the opposite sides, and the section ratios
    tn(|XO| / k) / tn(|O foot_X| / k), whose Euler residual vanishes in
    every geometry (plain ratios on the plane, tan of arc on the sphere,
    tanh of arc on the hyperboloid)."""

    geometry: Curvature
    A: ModelPoint
    B: ModelPoint
    C: ModelPoint
    O: ModelPoint
    foot_a: ModelPoint
    foot_b: ModelPoint
    foot_c: ModelPoint
    ratio_a: float
    ratio_b: float
    ratio_c: float

    def ratios(self) -> tuple[float, float, float]:
        return (self.ratio_a, self.ratio_b, self.ratio_c)


def _euler_form(ratios: tuple[float, float, float]) -> float:
    ra, rb, rc = ratios
    return ra * rb * rc - (ra + rb + rc + 2.0)


def _triple(u, v, w) -> float:
    # the cofactor expansion along u, summed left to right as _edot sums
    return (u[0] * (v[1] * w[2] - v[2] * w[1])
            - u[1] * (v[0] * w[2] - v[2] * w[0])
            + u[2] * (v[0] * w[1] - v[1] * w[0]))


def _section_ratio(geometry: Curvature, k: float, vertex_arc: float,
                   foot_arc: float, m=FLOATS) -> float:
    """tn(vertex_arc / k) / tn(foot_arc / k), k being the radius of the
    figure's points: 1 on the plane, where the ratio keeps the bits of
    vertex_arc / foot_arc at every geometry k."""
    if geometry.kind is GeometryKind.SPHERICAL:
        half_pi_k = 0.5 * math.pi * k
        bad = (vertex_arc >= half_pi_k) | (foot_arc >= half_pi_k)
        if bad is not False:
            m.refuse(bad, DomainError, "cevian arc reaches the tangent pole (pi/2) k")
    tn = m.trig[geometry.kind][3]
    return m.div(tn(vertex_arc / k), tn(foot_arc / k))


def _check_points(geometry: Curvature, points: tuple[ModelPoint, ...]) -> None:
    expected = MODEL_FOR_KIND[geometry.kind]
    dim = 2 if expected is Model.PLANE else 3
    for p in points:
        if p.model is not expected:
            raise DomainError(f"cevian points must live on the {expected.value} model")
        if len(p.coords) != dim:
            raise DomainError(f"cevian {expected.value} points need {dim} components")
        if expected is not Model.PLANE and p.k != geometry.k:
            raise DomainError("point radius k disagrees with the geometry")


def _lift(p: ModelPoint, O: ModelPoint):
    """p in coordinates where each geodesic is a plane through the
    origin: its own on the sphere and the hyperboloid, and (1, p - O) on
    the plane, the chart centred at O."""
    if p.model is Model.PLANE:
        return (1.0, p.coords[0] - O.coords[0], p.coords[1] - O.coords[1])
    return p.coords


def _unlift(model: Model, coords, k: float, centre=(0.0, 0.0)) -> ModelPoint:
    """The model point at lifted coordinates that lie on the model; on
    the plane, (1, x, y) of the chart centred at `centre`."""
    if model is Model.PLANE:
        return ModelPoint.plane(centre[0] + coords[1], centre[1] + coords[2])
    return ModelPoint(model, tuple(coords), k)


def _foot(model: Model, k: float, vertex, through, seg_start, seg_end, centre,
          m=FLOATS) -> ModelPoint:
    """Intersection of the geodesic vertex->through with the side
    seg_start->seg_end, all four lifted (_lift) about `centre`.

    Each geodesic is the model's section by a central plane; with
    signature (+,-,-) the hyperboloid plane of p, q has Minkowski normal
    J(p x q), and lowering indices turns every side and intersection
    test into the same Euclidean cross products used on the sphere and
    the plane. The direction u common to both planes is the double
    cross product below, scaled to length k by the model's own product
    <u, u> (_PRODUCT). One rule orients it: u is flipped where
    <u, seg_start + seg_end> < 0. On the sphere that keeps the
    intersection on the side's arc, which is at most pi k long, rather
    than its antipode; on the hyperboloid it keeps the upper sheet, as a
    timelike u has the sign of u_0 against the timelike
    seg_start + seg_end; on the plane, where <u, u> = u_0^2, it divides
    u by u_0 and puts the foot on x0 = 1.
    """
    dot = _PRODUCT[model]
    normals = (_cross3(vertex, through), _cross3(seg_start, seg_end))
    u = _cross3(*normals)
    q = dot(u, u, m)
    norm = m.sqrt(m.max(q, 0.0))
    if model is Model.SPHERE:
        # |u| / (|normal| |normal|) is the sine of the angle between the planes
        bad = norm <= DEGENERACY_TOL * _enorm(normals[0], m) * _enorm(normals[1], m)
    else:
        bad = q <= 0.0
    if bad is not False:
        m.refuse(bad, InfeasibleError, _MISSES[model])
    r = k / norm  # the rows with norm 0 are refused
    r = m.where(dot(u, _add(seg_start, seg_end), m) < 0.0, -r, r)
    return _unlift(model, [c * r for c in u], k, centre)


def _betweenness(geometry: Curvature, foot: ModelPoint, start: ModelPoint,
                 end: ModelPoint, side_len: float, m=FLOATS) -> None:
    """Refuse a foot off its side."""
    gap = (model_distance(start, foot, m) + model_distance(foot, end, m)) - side_len
    bad = abs(gap) > BETWEENNESS_TOL * (side_len + geometry.k)
    if bad is not False:
        m.refuse(bad, InfeasibleError, "cevian foot falls outside the opposite side")


def _sides(A: ModelPoint, B: ModelPoint, C: ModelPoint, m=FLOATS):
    """|BC|, |CA| and |AB|."""
    return model_distance(B, C, m), model_distance(C, A, m), model_distance(A, B, m)


def cevian_feet(geometry: Curvature, A: ModelPoint, B: ModelPoint,
                C: ModelPoint, O: ModelPoint, m=FLOATS) -> CevianConfig:
    """Drop the three cevians through O and return the full figure.

    O must be strictly interior (every vertex sees O on the inner side
    of the opposite edge's geodesic); on the sphere this simultaneously
    enforces containment in an open hemisphere. O on a side or at a
    vertex is degenerate rather than infeasible: the cevians exist but
    their ratios do not.
    """
    _check_points(geometry, (A, B, C, O))
    return _figure(geometry, (A, B, C), O, _sides(A, B, C, m), m)


def _figure(geometry: Curvature, vertices: tuple[ModelPoint, ...], O: ModelPoint,
            sides: tuple[float, float, float], m=FLOATS) -> CevianConfig:
    """cevian_feet on checked points, given the sides of _sides."""
    model, k = O.model, O.k
    lifted = [_lift(p, O) for p in vertices]
    o = _lift(O, O)
    a, b, c = lifted
    total = _triple(a, b, c)
    # total / k is |AB| |AC| sin A on the plane and for a small curved
    # triangle; a total that overflows is not refused here, and ends as a
    # non-finite residual
    bad = abs(total) / k <= DEGENERACY_TOL * sides[1] * sides[2]
    if bad is not False:
        m.refuse(bad, DegenerateError, "triangle vertices are collinear")
    # total is nonzero on every row still live
    bad = ((_triple(o, b, c) / total <= DEGENERACY_TOL)
           | (_triple(a, o, c) / total <= DEGENERACY_TOL)
           | (_triple(a, b, o) / total <= DEGENERACY_TOL))
    if bad is not False:
        m.refuse(bad, DegenerateError, "O must be strictly interior to the triangle")

    feet = []
    for i, j, l in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        foot = _foot(model, k, lifted[i], o, lifted[j], lifted[l], O.coords, m)
        _betweenness(geometry, foot, vertices[j], vertices[l], sides[i], m)
        feet.append(foot)

    ratios = []
    for vertex, foot in zip(vertices, feet):
        vertex_arc = model_distance(vertex, O, m)
        foot_arc = model_distance(O, foot, m)
        bad = (foot_arc <= DEGENERACY_TOL * k) | (vertex_arc <= DEGENERACY_TOL * k)
        if bad is not False:
            m.refuse(bad, DegenerateError, "O coincides with a vertex or a foot")
        ratios.append(_section_ratio(geometry, k, vertex_arc, foot_arc, m))
    return CevianConfig(geometry, *vertices, O, *feet, *ratios)


def cevian_residual(cfg: CevianConfig, m=FLOATS) -> float:
    """Product-sum residual r_a r_b r_c - (r_a + r_b + r_c + 2) of the
    section ratios, zero for concurrent cevians in every geometry (see
    the module docstring); a residual that is not finite is refused.
    With a Columns namespace the configuration and its residual are
    columns."""
    value = _euler_form(cfg.ratios())
    bad = m.not_(m.isfinite(value))
    if bad is not False:
        m.refuse(bad, DomainError, "cevian residual is not finite")
    return value


def perturbed_residual(cfg: CevianConfig, delta: float) -> float:
    """Euler residual after sliding foot_a along side BC by delta of the
    side length (toward C), keeping O and the other feet fixed.

    The displaced foot breaks concurrency, and the relation must notice:
    the returned residual grows linearly in delta. Ratio r_a is
    re-measured as tn(dist(A, O) / k) / tn(dist(O, displaced foot) / k).
    """
    if not (math.isfinite(delta) and delta != 0.0):
        raise DomainError("perturbation delta must be finite and nonzero")
    side_len = model_distance(cfg.B, cfg.C)
    step = delta * side_len
    direction = tangent_toward(cfg.foot_a, cfg.C)
    moved = geodesic_point(cfg.foot_a, direction, step)
    _betweenness(cfg.geometry, moved, cfg.B, cfg.C, side_len)
    vertex_arc = model_distance(cfg.A, cfg.O)
    foot_arc = model_distance(cfg.O, moved)
    ratio_a = _section_ratio(cfg.geometry, cfg.O.k, vertex_arc, foot_arc)
    return _euler_form((ratio_a, cfg.ratio_b, cfg.ratio_c))


def _cevian_attempt(r1, r2, r3, turn, j1, j2, j3, w1, w2, w3, m, *,
                    geometry: Curvature, max_side: float) -> CevianConfig | None:
    """One attempt at the draws (three radii, a turn, three jitters about
    the thirds of a turn, three weights): the configuration, or None
    where its sides are rejected. A configuration the construction
    refuses raises one of _REJECTED."""
    k = geometry.k
    model = MODEL_FOR_KIND[geometry.kind]
    sn, cs, _, _ = m.trig[geometry.kind]
    total = w1 + w2 + w3
    wa, wb, wc = (w / total for w in (w1, w2, w3))
    lifted = []
    for r, third, jitter in zip((r1, r2, r3), _THIRDS, (j1, j2, j3)):
        th = turn + third + jitter
        x, y = r * m.cos(th), r * m.sin(th)
        # the exponential map at the model's reference point, where s is
        # exactly 1 on the plane
        rho = m.hypot(x, y)
        s = sn(rho / k) * k / rho
        lifted.append((k * cs(rho / k), s * x, s * y))
    # the weighted sum of the vertices, left to right, scaled onto the model
    mix = [wa * x + wb * y + wc * z for x, y, z in zip(*lifted)]
    scale = m.div(k, m.sqrt(_PRODUCT[model](mix, mix, m)))
    lifted.append([c * scale for c in mix])
    a_pt, b_pt, c_pt, interior = (_unlift(model, p, k) for p in lifted)
    sides = _sides(a_pt, b_pt, c_pt, m)
    keep = m.reject((m.max(*sides) > max_side * k) | (m.min(*sides) < 1e-3 * k))
    if keep is None:
        return None
    a_pt, b_pt, c_pt, interior, sides = keep(a_pt, b_pt, c_pt, interior, sides)
    return _figure(geometry, (a_pt, b_pt, c_pt), interior, sides, m)


def _cevian_plan(geometry: Curvature, max_side: float):
    """The uniform bounds of one sampler attempt and the attempt itself."""
    bounds = (((0.15 * max_side, 0.5 * max_side),) * 3 + ((0.0, 2.0 * math.pi),)
              + ((-0.5, 0.5),) * 3 + ((0.15, 1.0),) * 3)
    return bounds, functools.partial(_cevian_attempt, geometry=geometry, max_side=max_side)


def _exhausted(attempts: int) -> DomainError:
    return DomainError(f"no acceptable cevian configuration after {attempts} attempts")


def sample_cevian_config(geometry: Curvature, seed: int, index: int = 0, *,
                         max_side: float = 2.0,
                         attempts: int = DEFAULT_ATTEMPTS) -> CevianConfig:
    """Draw a well-conditioned triangle with a strictly interior O.

    Vertices are drawn directly on the model around its reference point,
    at radii in [0.15, 0.5] max_side and angles within 0.5 of the thirds
    of a turn; O is a convex model combination of the vertices with
    weights bounded away from the edges, so every configuration is
    concurrent by construction and non-degenerate. Deterministic per
    (seed, index): attempt j takes uniforms 10j to 10j + 9 of the
    index's stream.
    """
    bounds, attempt = _cevian_plan(geometry, max_side)
    return resolve_index(seed, index, bounds, attempt, attempts,
                         functools.partial(_exhausted, attempts), rejected=_REJECTED)


def sample_cevian_configs(geometry: Curvature, seed: int, start: int, stop: int, *,
                          max_side: float = 2.0,
                          attempts: int = DEFAULT_ATTEMPTS) -> Block:
    """sample_cevian_config for every index in [start, stop): a Block
    whose figure is a CevianConfig of columns. The indices past the
    first that raises may be left out of the block, as a loop over the
    indices stops there (sampling.resolve_block, until_error)."""
    bounds, attempt = _cevian_plan(geometry, max_side)
    return resolve_block(seed, start, stop, bounds, attempt, attempts,
                         functools.partial(_exhausted, attempts), rejected=_REJECTED,
                         until_error=True)
