"""Euler's concurrency relation for cevians, in all three geometries.

A cevian joins a vertex to a point of the opposite side. When the three
cevians of a triangle pass through one interior point O, the ratios

    r_X = f(dist(X, O)) / f(dist(O, foot_X))

satisfy the product-sum identity  r_a r_b r_c = r_a + r_b + r_c + 2,
where f is the identity on the plane and the tangent on the sphere
(tan of arc length over k). The analogous statement with f = tanh in
hyperbolic geometry is not a theorem; the evaluator for it is provided
as a measured conjecture and its residual is reported, never asserted
to vanish.

Feet are constructed, not tested: given O, each foot is the closed-form
intersection of the vertex-through-O geodesic with the opposite side
(line intersection on the plane, cross products of great-circle normals
on the sphere, and the signature-adjusted analogue on the hyperboloid).

The construction, the sampler attempt and the residuals take their
elementary functions from `m` (columns.py): FLOATS for one
configuration, or a Columns block, where every point coordinate and
ratio is a column with one row per configuration.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .columns import FLOATS
from .curvature import Curvature, GeometryKind
from .errors import DegenerateError, DomainError, InfeasibleError
from .models import (CURVED_METRIC, MODEL_FOR_KIND, Model, ModelPoint,
                     _cross3, geodesic_point, model_distance, tangent_toward)
from .sampling import (DEFAULT_ATTEMPTS, Block, _uniforms, resolve_block,
                       sample_stream)

#: Relative floor below which O is considered to lie on a side or vertex.
DEGENERACY_TOL = 1e-12
#: Allowed violation of "foot lies between the side's endpoints",
#: relative to the side length.
BETWEENNESS_TOL = 1e-9
#: errors on which the sampler rejects an attempt and draws again
_REJECTED = (DegenerateError, InfeasibleError, DomainError)
_THIRDS = (0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0)

@dataclass(frozen=True)
class CevianConfig:
    """Three concurrent cevians: vertices, the common interior point,
    the feet on the opposite sides, and the geometry's section ratios
    (plain on the plane, tan-of-arc on the sphere, tanh-of-arc on the
    hyperboloid)."""

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


def _triple(u, v, w, m=FLOATS) -> float:
    return m.fsum((u[0] * (v[1] * w[2] - v[2] * w[1]),
                   -u[1] * (v[0] * w[2] - v[2] * w[0]),
                   u[2] * (v[0] * w[1] - v[1] * w[0])))


def _section_ratio(geometry: Curvature, vertex_arc: float, foot_arc: float,
                   m=FLOATS) -> float:
    k = geometry.k
    if geometry.kind is GeometryKind.EUCLIDEAN:
        return m.div(vertex_arc, foot_arc)
    if geometry.kind is GeometryKind.SPHERICAL:
        half_pi_k = 0.5 * math.pi * k
        bad = (vertex_arc >= half_pi_k) | (foot_arc >= half_pi_k)
        if bad is not False:
            m.refuse(bad, DomainError, "cevian arc reaches the tangent pole (pi/2) k")
        return m.div(m.tan(vertex_arc / k), m.tan(foot_arc / k))
    return m.div(m.tanh(vertex_arc / k), m.tanh(foot_arc / k))


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


def _plane_foot(vertex, through, seg_start, seg_end, m=FLOATS) -> tuple[float, float]:
    """Intersection of line vertex->through with segment seg_start->seg_end,
    returned as coordinates; the segment parameter is betweenness-checked
    by the caller via distances."""
    dx1 = (through[0] - vertex[0], through[1] - vertex[1])
    dx2 = (seg_end[0] - seg_start[0], seg_end[1] - seg_start[1])
    det = dx1[0] * dx2[1] - dx1[1] * dx2[0]
    scale = m.hypot(*dx1) * m.hypot(*dx2)
    bad = abs(det) <= DEGENERACY_TOL * scale
    if bad is not False:
        m.refuse(bad, InfeasibleError, "cevian is parallel to the opposite side")
    rhs = (seg_start[0] - vertex[0], seg_start[1] - vertex[1])
    u = m.div(dx1[0] * rhs[1] - dx1[1] * rhs[0], -det)
    return (seg_start[0] + u * dx2[0], seg_start[1] + u * dx2[1])


def _curved_foot(geometry: Curvature, vertex, through, seg_start, seg_end,
                 m=FLOATS) -> ModelPoint:
    """Intersection of two geodesic planes through the model center.

    Both the sphere and the hyperboloid realize geodesics as central
    plane sections; with signature (+,-,-) the hyperboloid plane of p, q
    has Minkowski normal J(p x q), and lowering indices turns every side
    and intersection test into the same Euclidean cross/triple products
    used on the sphere. The direction common to both planes is the
    double cross product below; sheet (or hemisphere-arc) selection
    happens in the caller.
    """
    n1 = _cross3(vertex, through)
    n2 = _cross3(seg_start, seg_end)
    u = _cross3(n1, n2)
    k = geometry.k
    if geometry.kind is GeometryKind.SPHERICAL:
        norm = m.sqrt(m.fsum([c * c for c in u]))
        bad = norm <= DEGENERACY_TOL * k * k * k
        if bad is not False:
            m.refuse(bad, InfeasibleError, "cevian geodesic coincides with the opposite side")
        return ModelPoint(Model.SPHERE, tuple([c * (k / norm) for c in u]), k)
    q = u[0] * u[0] - u[1] * u[1] - u[2] * u[2]
    bad = q <= 0.0
    if bad is not False:
        m.refuse(bad, InfeasibleError,
                 "cevian and opposite side meet outside the hyperbolic plane")
    r = k / m.sqrt(m.max(q, 0.0))  # the rows with q <= 0 are refused
    r = m.where(u[0] < 0.0, -r, r)
    return ModelPoint(Model.HYPERBOLOID, tuple([c * r for c in u]), k)


def _betweenness(geometry: Curvature, foot: ModelPoint, start: ModelPoint,
                 end: ModelPoint, side_len: float, m=FLOATS, arms=None) -> None:
    """Refuse a foot off its side: `arms` are its distances from start
    and to end, where the caller has them."""
    if arms is None:
        arms = (model_distance(start, foot, m), model_distance(foot, end, m))
    gap = (arms[0] + arms[1]) - side_len
    bad = abs(gap) > BETWEENNESS_TOL * (side_len + geometry.k)
    if bad is not False:
        m.refuse(bad, InfeasibleError, "cevian foot falls outside the opposite side")


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
    k = geometry.k
    if geometry.kind is GeometryKind.EUCLIDEAN:
        ab = (B.coords[0] - A.coords[0], B.coords[1] - A.coords[1])
        ac = (C.coords[0] - A.coords[0], C.coords[1] - A.coords[1])
        total = ab[0] * ac[1] - ab[1] * ac[0]
        ao = (O.coords[0] - A.coords[0], O.coords[1] - A.coords[1])
        w_c = ab[0] * ao[1] - ab[1] * ao[0]
        w_b = ao[0] * ac[1] - ao[1] * ac[0]
        w_a = total - w_b - w_c
        weights = (w_a, w_b, w_c)
        area_scale = m.hypot(*ab) * m.hypot(*ac)
    else:
        k3 = k * k * k  # 0 below k of about 1e-108
        total = m.div(_triple(A.coords, B.coords, C.coords, m), k3)
        weights = (m.div(_triple(O.coords, B.coords, C.coords, m), k3),
                   m.div(_triple(A.coords, O.coords, C.coords, m), k3),
                   m.div(_triple(A.coords, B.coords, O.coords, m), k3))
        area_scale = 1.0
    bad = (total == 0.0) | (abs(total) <= DEGENERACY_TOL * area_scale)
    if bad is not False:
        m.refuse(bad, DegenerateError, "triangle vertices are collinear")
    # total is nonzero on every row still live
    bad = ((weights[0] / total <= DEGENERACY_TOL) | (weights[1] / total <= DEGENERACY_TOL)
           | (weights[2] / total <= DEGENERACY_TOL))
    if bad is not False:
        m.refuse(bad, DegenerateError, "O must be strictly interior to the triangle")

    feet = []
    for vertex, start, end in ((A, B, C), (B, C, A), (C, A, B)):
        arms = None
        if geometry.kind is GeometryKind.EUCLIDEAN:
            foot = ModelPoint.plane(
                *_plane_foot(vertex.coords, O.coords, start.coords, end.coords, m))
        else:
            foot = _curved_foot(geometry, vertex.coords, O.coords,
                                start.coords, end.coords, m)
            if geometry.kind is GeometryKind.SPHERICAL:
                # of the two antipodal intersections, keep the one on the arc
                flipped = ModelPoint(Model.SPHERE, tuple([-c for c in foot.coords]), k)
                arms = (model_distance(start, foot, m), model_distance(foot, end, m))
                flipped_arms = (model_distance(start, flipped, m),
                                model_distance(flipped, end, m))
                flip = arms[0] + arms[1] > flipped_arms[0] + flipped_arms[1]
                foot = ModelPoint(Model.SPHERE, tuple([
                    m.where(flip, f, c) for f, c in zip(flipped.coords, foot.coords)]), k)
                arms = tuple([m.where(flip, f, a) for f, a in zip(flipped_arms, arms)])
        side_len = model_distance(start, end, m)
        _betweenness(geometry, foot, start, end, side_len, m, arms)
        feet.append(foot)

    ratios = []
    for vertex, foot in zip((A, B, C), feet):
        vertex_arc = model_distance(vertex, O, m)
        foot_arc = model_distance(O, foot, m)
        bad = (foot_arc <= DEGENERACY_TOL * k) | (vertex_arc <= DEGENERACY_TOL * k)
        if bad is not False:
            m.refuse(bad, DegenerateError, "O coincides with a vertex or a foot")
        ratios.append(_section_ratio(geometry, vertex_arc, foot_arc, m))
    return CevianConfig(geometry, A, B, C, O, feet[0], feet[1], feet[2],
                        ratios[0], ratios[1], ratios[2])


def euclidean_cevian_residual(cfg: CevianConfig) -> float:
    """Product-sum residual r_a r_b r_c - (r_a + r_b + r_c + 2) for plain
    distance ratios; zero for concurrent Euclidean cevians."""
    if cfg.geometry.kind is not GeometryKind.EUCLIDEAN:
        raise DomainError("euclidean_cevian_residual needs a Euclidean configuration")
    return _euler_form(cfg.ratios())


def spherical_cevian_residual(cfg: CevianConfig) -> float:
    """Product-sum residual of the tan-of-arc ratios; zero for concurrent
    spherical cevians. Arcs at or beyond (pi/2) k are rejected when the
    configuration is built, so the stored ratios are finite and positive."""
    if cfg.geometry.kind is not GeometryKind.SPHERICAL:
        raise DomainError("spherical_cevian_residual needs a spherical configuration")
    return _euler_form(cfg.ratios())


def hyperbolic_cevian_conjecture_residual(cfg: CevianConfig, m=FLOATS) -> float:
    """Product-sum residual of the tanh-of-arc ratios.

    This mirrors the spherical identity with tan replaced by tanh, but
    no such theorem is claimed: the value is measured and reported.
    Finiteness is the only assertion; it does vanish quadratically as
    the configuration shrinks, since tanh and plain ratios then agree.
    """
    if cfg.geometry.kind is not GeometryKind.HYPERBOLIC:
        raise DomainError("hyperbolic_cevian_conjecture_residual needs a "
                          "hyperbolic configuration")
    value = _euler_form(cfg.ratios())
    bad = m.not_(m.isfinite(value))
    if bad is not False:
        m.refuse(bad, DomainError, "conjecture residual is not finite")
    return value


def cevian_residual(cfg: CevianConfig, m=FLOATS) -> float:
    """The geometry-matching residual of the configuration (a column of
    them for a configuration of columns with a Columns namespace)."""
    if cfg.geometry.kind is GeometryKind.EUCLIDEAN:
        return euclidean_cevian_residual(cfg)
    if cfg.geometry.kind is GeometryKind.SPHERICAL:
        return spherical_cevian_residual(cfg)
    return hyperbolic_cevian_conjecture_residual(cfg, m)


def perturbed_residual(cfg: CevianConfig, delta: float) -> float:
    """Euler residual after sliding foot_a along side BC by delta of the
    side length (toward C), keeping O and the other feet fixed.

    The displaced foot breaks concurrency, and the relation must notice:
    the returned residual grows linearly in delta. Ratio r_a is
    re-measured as f(dist(A, O)) / f(dist(O, displaced foot)).
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
    ratio_a = _section_ratio(cfg.geometry, vertex_arc, foot_arc)
    return _euler_form((ratio_a, cfg.ratio_b, cfg.ratio_c))


def _cevian_attempt(r1, r2, r3, turn, j1, j2, j3, w1, w2, w3, m, *,
                    geometry: Curvature, max_side: float) -> CevianConfig | None:
    """One attempt at the draws (three radii, a turn, three jitters about
    the thirds of a turn, three weights): the configuration, or None
    where its sides are rejected. A configuration the construction
    refuses raises one of _REJECTED."""
    k = geometry.k
    model = MODEL_FOR_KIND[geometry.kind]
    total = w1 + w2 + w3
    wts = [w / total for w in (w1, w2, w3)]
    points = []
    for r, third, jitter in zip((r1, r2, r3), _THIRDS, (j1, j2, j3)):
        th = turn + third + jitter
        x, y = r * m.cos(th), r * m.sin(th)
        if model is Model.PLANE:
            points.append(ModelPoint.plane(x, y))
        else:
            # exponential map at the model's reference point
            sn, cs, _ = m.trig[geometry.kind]
            rho = m.hypot(x, y)
            s = sn(rho / k) * k / rho
            points.append(ModelPoint(model, (k * cs(rho / k), s * x, s * y), k))
    if model is Model.PLANE:
        interior = ModelPoint.plane(sum(w * p.coords[0] for w, p in zip(wts, points)),
                                    sum(w * p.coords[1] for w, p in zip(wts, points)))
    else:
        mix = [m.fsum([w * p.coords[i] for w, p in zip(wts, points)]) for i in range(3)]
        n = m.sqrt(CURVED_METRIC[model][0](mix, mix, m))
        interior = ModelPoint(model, tuple([c * m.div(k, n) for c in mix]), k)
    a_pt, b_pt, c_pt = points
    sides = (model_distance(b_pt, c_pt, m), model_distance(c_pt, a_pt, m),
             model_distance(a_pt, b_pt, m))
    keep = m.reject((m.max(*sides) > max_side * k) | (m.min(*sides) < 1e-3 * k))
    if keep is None:
        return None
    a_pt, b_pt, c_pt, interior = keep(a_pt, b_pt, c_pt, interior)
    return cevian_feet(geometry, a_pt, b_pt, c_pt, interior, m)


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
    g = sample_stream(seed, index)
    for _ in range(attempts):
        draws = _uniforms(g, bounds)
        try:
            cfg = attempt(*draws, FLOATS)
        except _REJECTED:
            continue
        if cfg is not None:
            return cfg
    raise _exhausted(attempts)


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
