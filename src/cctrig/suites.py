"""Verification suites: seeded Monte-Carlo runs over the model oracles.

Each suite draws its own deterministic sample stream (counter-based, so
execution order never matters), feeds the models' measurements through
the relation evaluators, and aggregates absolute residuals into report
rows. Every sampled figure is drawn and measured on float64 columns over
blocks of sample indices (columns.py), with the values and errors of a
loop over the indices: the triangles of the spherical, hyperbolic,
euclidean, substitution, sphere-model and horosphere suites, the prisms
and the sampled cevian configurations. What stays per sample is the arc
and ambient length checks of sphere-model and horosphere, the limits
suite and the fixed cevian figures. Row tolerances default to the
documented per-row targets and scale proportionally when the configured
base tolerance is changed; structural thresholds (the limit-slope window
and the cevian sensitivity floor) are fixed properties of the
mathematics and do not scale.
"""

from __future__ import annotations

import functools
import math
import time

import numpy as np

from .cevians import (cevian_feet, cevian_residual, perturbed_residual,
                      sample_cevian_configs)
from .columns import FLOATS, Columns
from .correspondence import (euclidean_limit_slope,
                             imaginary_substitution_residuals, rescaling_check)
from .curvature import Curvature
from .errors import (DegenerateError, DomainError, InfeasibleError,
                     SamplingError)
from .geodesic_sphere import (RAY_ATTEMPTS, GeodesicSphere, _ray_directions,
                              center_ray_triangles, intrinsic_arc_length)
from .horosphere import (ambient_polyline_length, horosphere_triangle,
                         intrinsic_distance)
from .models import Model, ModelPoint, Ray, tangent_angle
from .prism import build_prism, parallelism_match, replay_residuals
from .relations import (euclidean_residuals, hyperbolic_residuals,
                        spherical_residuals, spherical_right_residuals)
from .report import (MIN_ABOVE, CheckRow, ResidualReport, SuiteConfig,
                     make_row)
from .sampling import (DEFAULT_ATTEMPTS, Block, sample_right_triangles,
                       sample_stream, sample_triangle, sample_triangles)
from .solvers import solve_from_sss
from .triangle import angle_excess

SUITE_NAMES = ("spherical", "hyperbolic", "euclidean", "sphere-model",
               "horosphere", "prism", "substitution", "limits", "cevians")

_BASE_TOLERANCE = 1e-9
#: Disjoint Philox stream bases, keyed by suite so a suite produces the
#: same rows alone and inside `all`.
_STREAM_BASE = {name: (i + 1) << 32 for i, name in enumerate(SUITE_NAMES)}
#: Sub-stream stride inside one suite.
_SUB = 1 << 28

_GEODESIC_SPHERE_RADII = ((0.1, "0.1"), (1.0, "1"), (5.0, "5"))
_ARC_CHECK_PAIRS = 16
_AMBIENT_CHECK_PAIRS = 8
_LIMIT_SHAPES = 10
_LIMIT_SCALES = tuple(np.geomspace(1e-1, 1e-3, 7))
_LIMIT_ENDPOINT = 1e-6
_RESCALING_FACTORS = (1e-3, 3.0, 1e6)
_SLOPE_WINDOW = 0.1          # |slope - 2| bound; structural, never rescaled
_SENSITIVITY_FLOOR = 1e-4    # perturbed-residual floor; structural
_SENSITIVITY_DELTA = 1e-3
#: sample indices per block of the column engine
_BLOCK = 4096
#: errors on which the sphere-model loop skips to the next index
_SKIPPED = (DomainError, DegenerateError, InfeasibleError)


def _tol(cfg: SuiteConfig, default: float) -> float:
    return default * (cfg.tolerance / _BASE_TOLERANCE)


def _evaluated(block: Block, evaluate):
    """evaluate(block.figure, m) on the rows of a block. Where an index
    failed, in the sampler or in evaluate, the error of the first one is
    raised, as a loop over the indices stops there."""
    errors = dict(block.errors)
    result = None
    if block.figure is not None:
        with Columns(block.rows) as m:
            result = evaluate(block.figure, m=m)
        errors.update(m.errors)
    if errors:
        raise errors[min(errors)]
    return result


def _sampled_rows(cfg: SuiteConfig, base: int, draw, evaluator, tolerance: float,
                  name=lambda rid: rid) -> list[CheckRow]:
    """One row per relation of `evaluator` over cfg.samples triangles,
    drawn and evaluated a block of indices at a time: `draw(seed,
    start, stop)` returns a sampling.Block."""
    per: dict[str, list] = {}
    for start in range(0, cfg.samples, _BLOCK):
        stop = min(start + _BLOCK, cfg.samples)
        residuals = _evaluated(draw(cfg.seed, base + start, base + stop), evaluator)
        for r in residuals:
            per.setdefault(name(r.relation_id), []).append(r.residual)
    # complex substitution residuals aggregate by magnitude, abs(z)
    return [make_row(rid, np.concatenate(vals).tolist(), _tol(cfg, tolerance))
            for rid, vals in per.items()]


def _suite_spherical(cfg: SuiteConfig) -> list[CheckRow]:
    geom = Curvature.spherical(cfg.curvature.k)
    base = _STREAM_BASE["spherical"]
    return (_sampled_rows(cfg, base, functools.partial(sample_triangles, geom),
                          spherical_residuals, 1e-9)
            + _sampled_rows(cfg, base + _SUB, functools.partial(sample_right_triangles, geom),
                            spherical_right_residuals, 1e-10))


def _suite_hyperbolic(cfg: SuiteConfig) -> list[CheckRow]:
    geom = Curvature.hyperbolic(cfg.curvature.k)
    return _sampled_rows(cfg, _STREAM_BASE["hyperbolic"],
                         functools.partial(sample_triangles, geom), hyperbolic_residuals, 1e-9)


def _suite_euclidean(cfg: SuiteConfig) -> list[CheckRow]:
    return _sampled_rows(cfg, _STREAM_BASE["euclidean"],
                         functools.partial(sample_triangles, Curvature.euclidean()),
                         euclidean_residuals, 1e-9)


def _center_rays(g, center: ModelPoint, attempts: int = RAY_ATTEMPTS) -> tuple[Ray, Ray, Ray]:
    """Three well-separated random rays at the hyperboloid origin
    (center_ray_triangles draws the same rays for a block of indices)."""
    for _ in range(attempts):
        dirs = _ray_directions(g.normal(size=9).tolist(), FLOATS)
        if dirs is not None:
            return tuple(Ray.at(center, (0.0, *d)) for d in dirs)
    raise DomainError(f"no acceptable ray triple after {attempts} attempts")


def _walk(n: int, needed: int, kept, skipped, sampled: dict, evaluated: dict):
    """What a loop over the n positions of a block does, in order: the
    first `needed` positions among `kept` that it uses, and the error it
    stops at before it has them all, or None. It skips a position whose
    error in `sampled` is one of the `skipped` types and stops at any
    other error, in `sampled` or else in `evaluated`."""
    kept = set(kept.tolist())
    used = []
    for pos in range(n):
        if len(used) == needed:
            break
        error = sampled.get(pos)
        if isinstance(error, skipped):
            continue
        error = error or evaluated.get(pos)
        if error is not None:
            return used, error
        if pos in kept:
            used.append(pos)
    return used, None


def _suite_sphere_model(cfg: SuiteConfig) -> list[CheckRow]:
    k = cfg.curvature.k
    center = ModelPoint(Model.HYPERBOLOID, (k, 0.0, 0.0, 0.0), k)
    base = _STREAM_BASE["sphere-model"]
    rows: list[CheckRow] = []
    for level, (rho, label) in enumerate(_GEODESIC_SPHERE_RADII):
        sphere = GeodesicSphere(center, rho * k)
        per: dict[str, list] = {}
        arc_checks: list[float] = []
        produced = 0
        index = base + level * _SUB
        while produced < cfg.samples:
            stop = index + min(cfg.samples - produced, _BLOCK)
            block, directions = center_ray_triangles(sphere, cfg.seed, index, stop)
            with Columns(block.rows) as m:
                residuals = spherical_residuals(block.figure, m)
            # the loop skips an index whose rays or triangle fail, but
            # none of the evaluator's errors
            used, error = _walk(stop - index, cfg.samples - produced, block.rows,
                                _SKIPPED, block.errors, m.errors)
            for pos in used[:max(0, _ARC_CHECK_PAIRS - produced)]:
                d0, d1 = (tuple(directions[r, :, pos].tolist()) for r in (0, 1))
                arc = intrinsic_arc_length(sphere, sphere.point_toward(d0),
                                           sphere.point_toward(d1))
                angle = tangent_angle(center, d0, d1)
                arc_checks.append(arc - sphere.effective_radius * angle)
            if error is not None:
                raise error
            produced += len(used)
            for r in residuals:
                per.setdefault(r.relation_id, []).append(
                    r.residual[np.searchsorted(block.rows, used)])
            index = stop
        rows += [make_row(f"gsph_rho{label}_{rid.removeprefix('sph_')}",
                          np.concatenate(vals).tolist(), _tol(cfg, 1e-9))
                 for rid, vals in per.items()]
        rows.append(make_row(f"gsph_rho{label}_effective_radius", arc_checks,
                             _tol(cfg, 1e-7)))
    return rows


def _suite_horosphere(cfg: SuiteConfig) -> list[CheckRow]:
    k = cfg.curvature.k
    base = _STREAM_BASE["horosphere"]
    per: dict[str, list] = {}
    produced = 0
    index = 0
    # as the samplers give an index DEFAULT_ATTEMPTS attempts, the suite
    # draws at most DEFAULT_ATTEMPTS indices per sample: where every
    # triangle is refused (chart tangents underflow at tiny k) it stops
    budget = DEFAULT_ATTEMPTS * cfg.samples
    while produced < cfg.samples:
        if index == budget:
            raise SamplingError(f"{produced} of {cfg.samples} horosphere triangles "
                                f"accepted in {budget} draws")
        stop = index + min(cfg.samples - produced, _BLOCK, budget - index)
        # each index's six chart coordinates from its own stream, by
        # Generator.uniform: it refuses a range that overflows (k above
        # about 4.5e307), and perfbench's traced accept ratio counts
        # these streams as the samples drawn
        pts = np.array([sample_stream(cfg.seed, base + i).uniform(-2.0 * k, 2.0 * k, size=6)
                        for i in range(index, stop)]).T.copy()
        with Columns(np.arange(stop - index)) as m:
            t = horosphere_triangle(k, pts[0:2], pts[2:4], pts[4:6], k, m)
            keep = m.reject((m.min(*t.angles()) < 1e-3) | (m.min(*t.sides()) < 1e-3 * k))
        residuals, evaluated = [], {}
        if keep is not None:
            with Columns(m.rows) as e:
                residuals = euclidean_residuals(*keep(t), e)
            evaluated = e.errors
        # the loop skips an index whose triangle is refused or rejected,
        # but none of the evaluator's errors
        used, error = _walk(stop - index, cfg.samples - produced, m.rows,
                            (DomainError, DegenerateError), m.errors, evaluated)
        if error is not None:
            raise error
        produced += len(used)
        for r in residuals:
            per.setdefault("horo_" + r.relation_id.removeprefix("euc_"), []).append(
                r.residual[np.searchsorted(m.rows, used)])
        index = stop
    per = {rid: np.concatenate(vals).tolist() for rid, vals in per.items()}
    rows = [make_row("horo_angle_sum", per.pop("horo_angle_sum"), _tol(cfg, 1e-9))]
    rows += [make_row(rid, vals, _tol(cfg, 1e-10)) for rid, vals in per.items()]
    ambient: list[float] = []
    for i in range(_AMBIENT_CHECK_PAIRS):
        g = sample_stream(cfg.seed, base + _SUB + i)
        p, q = g.uniform(-2.0 * k, 2.0 * k, size=(2, 2))
        ambient.append(ambient_polyline_length(k, p, q, k)
                       - intrinsic_distance(k, p, q, k))
    rows.append(make_row("horo_ambient_vs_intrinsic", ambient, _tol(cfg, 1e-7)))
    return rows


def _suite_prism(cfg: SuiteConfig) -> list[CheckRow]:
    geom = Curvature.hyperbolic(cfg.curvature.k)
    base = _STREAM_BASE["prism"]

    def measure(t, m):
        fig = build_prism(t, m)
        return ({"prism_right_angle_at_m": fig.right_angle_defect_at_m,
                 "prism_horospherical_right": fig.horospherical_right_angle_defect,
                 "prism_ideal_alignment": fig.ideal_alignment_defect,
                 "prism_parallelism_match": parallelism_match(fig, m)}
                | {r.relation_id: r.residual for r in replay_residuals(fig, m)})

    per: dict[str, list] = {}
    for start in range(0, cfg.samples, _BLOCK):
        stop = min(start + _BLOCK, cfg.samples)
        block = sample_right_triangles(geom, cfg.seed, base + start, base + stop)
        for rid, values in _evaluated(block, measure).items():
            per.setdefault(rid, []).append(values)
    tolerance = {"prism_ideal_alignment": 1e-10}
    return [make_row(rid, np.concatenate(vals).tolist(), _tol(cfg, tolerance.get(rid, 1e-8)))
            for rid, vals in per.items()]


def _suite_substitution(cfg: SuiteConfig) -> list[CheckRow]:
    geom = Curvature.hyperbolic(cfg.curvature.k)
    return _sampled_rows(cfg, _STREAM_BASE["substitution"],
                         functools.partial(sample_triangles, geom, max_side=3.0),
                         imaginary_substitution_residuals, 1e-9,
                         lambda rid: "sub_" + rid.removeprefix("sph_"))


def _suite_limits(cfg: SuiteConfig) -> list[CheckRow]:
    k = cfg.curvature.k
    hyp = Curvature.hyperbolic(k)
    sph = Curvature.spherical(k)
    base = _STREAM_BASE["limits"]
    slope_hyp: list[float] = []
    slope_sph: list[float] = []
    endpoint: list[float] = []
    rescale: list[float] = []
    for i in range(_LIMIT_SHAPES):
        shape_h = sample_triangle(hyp, cfg.seed, base + i, max_side=2.0)
        fit = euclidean_limit_slope(shape_h, _LIMIT_SCALES)
        slope_hyp.append(fit.slope - 2.0)
        shape_s = sample_triangle(sph, cfg.seed, base + _SUB + i, max_side=1.5)
        fit_s = euclidean_limit_slope(shape_s, _LIMIT_SCALES)
        slope_sph.append(fit_s.slope - 2.0)
        longest = max(shape_h.sides())
        tiny = solve_from_sss(hyp, *(s / longest * _LIMIT_ENDPOINT * k
                                     for s in shape_h.sides()))
        endpoint.append(angle_excess(tiny))
        for lam in _RESCALING_FACTORS:
            rescale.append(rescaling_check(shape_h, lam).max_deviation)
    return [make_row("limit_slope_hyperbolic", slope_hyp, _SLOPE_WINDOW),
            make_row("limit_slope_spherical", slope_sph, _SLOPE_WINDOW),
            make_row("limit_endpoint_excess", endpoint, _tol(cfg, 1e-12)),
            make_row("limit_rescaling", rescale, _tol(cfg, 1e-12))]


def _canonical_cevian_configs(k: float):
    """The three closed-form configurations used by the fixed rows."""
    euc = Curvature.euclidean()
    sph = Curvature.spherical(k)
    a_pt = ModelPoint.plane(0.2, 3.1)
    b_pt = ModelPoint.plane(4.0, -0.5)
    c_pt = ModelPoint.plane(-1.0, 0.0)
    centroid = ModelPoint.plane((0.2 + 4.0 - 1.0) / 3.0, (3.1 - 0.5 + 0.0) / 3.0)
    medians = cevian_feet(euc, a_pt, b_pt, c_pt, centroid)
    incenter = cevian_feet(
        euc, ModelPoint.plane(0.0, 4.0), ModelPoint.plane(3.0, 0.0),
        ModelPoint.plane(0.0, 0.0), ModelPoint.plane(1.0, 1.0))
    s = 1.0 / math.sqrt(3.0)
    octant = cevian_feet(
        sph,
        ModelPoint(Model.SPHERE, (k, 0.0, 0.0), k),
        ModelPoint(Model.SPHERE, (0.0, k, 0.0), k),
        ModelPoint(Model.SPHERE, (0.0, 0.0, k), k),
        ModelPoint(Model.SPHERE, (s * k, s * k, s * k), k))

    def unit(v):
        n = math.sqrt(math.fsum(x * x for x in v))
        return tuple(x / n * k for x in v)

    # A scalene spherical configuration whose cevians cross their sides
    # obliquely. The octant cannot serve here: each of its sides lies on
    # the polar circle of the opposite vertex, so every cevian meets its
    # side at a right angle and a foot slide is invisible at first order.
    skew = cevian_feet(
        sph,
        ModelPoint(Model.SPHERE, unit((1.0, 0.0, 0.2)), k),
        ModelPoint(Model.SPHERE, unit((0.1, 1.0, 0.0)), k),
        ModelPoint(Model.SPHERE, unit((0.0, 0.15, 1.0)), k),
        ModelPoint(Model.SPHERE, unit((1.1, 1.15, 1.2)), k))
    return medians, incenter, octant, skew


def _suite_cevians(cfg: SuiteConfig) -> list[CheckRow]:
    k = cfg.curvature.k
    base = _STREAM_BASE["cevians"]
    medians, incenter, octant, skew = _canonical_cevian_configs(k)
    rows = [make_row("cev_euclidean_medians", [cevian_residual(medians)],
                     _tol(cfg, 1e-12)),
            make_row("cev_345_incenter", [cevian_residual(incenter)],
                     _tol(cfg, 1e-12)),
            make_row("cev_spherical_octant", [r - 2.0 for r in octant.ratios()],
                     _tol(cfg, 1e-9))]
    geoms = (("euclidean", Curvature.euclidean()),
             ("spherical", Curvature.spherical(k)),
             ("hyperbolic", Curvature.hyperbolic(k)))
    sampled: dict[str, list[float]] = {name: [] for name, _ in geoms}
    # Sensitivity is checked on fixed oblique configurations only: their
    # cevians cross the perturbed side at an angle, so a foot slide of
    # delta changes the residual at first order. A configuration whose
    # cevian meets its side at (or near) a right angle — the octant
    # always, a random draw occasionally — responds only at second
    # order, so no useful floor exists over arbitrary configurations.
    perturbed: list[float] = [perturbed_residual(medians, _SENSITIVITY_DELTA),
                              perturbed_residual(incenter, _SENSITIVITY_DELTA),
                              perturbed_residual(skew, _SENSITIVITY_DELTA)]
    for j, (name, geom) in enumerate(geoms):
        for start in range(0, cfg.samples, _BLOCK):
            stop = min(start + _BLOCK, cfg.samples)
            block = sample_cevian_configs(geom, cfg.seed, base + j * _SUB + start,
                                          base + j * _SUB + stop)
            sampled[name] += _evaluated(block, cevian_residual).tolist()
    rows.append(make_row("cev_euclidean_sampled", sampled["euclidean"],
                         _tol(cfg, 1e-9)))
    rows.append(make_row("cev_spherical_sampled", sampled["spherical"],
                         _tol(cfg, 1e-9)))
    rows.append(make_row("cev_hyperbolic_conjecture", sampled["hyperbolic"],
                         None, conjecture=True))
    rows.append(make_row("cev_perturbation", perturbed, _SENSITIVITY_FLOOR,
                         comparison=MIN_ABOVE))
    return rows


_SUITE_FUNCS = {
    "spherical": _suite_spherical,
    "hyperbolic": _suite_hyperbolic,
    "euclidean": _suite_euclidean,
    "sphere-model": _suite_sphere_model,
    "horosphere": _suite_horosphere,
    "prism": _suite_prism,
    "substitution": _suite_substitution,
    "limits": _suite_limits,
    "cevians": _suite_cevians,
}


def run_suite(name: str, cfg: SuiteConfig) -> ResidualReport:
    """Run one suite (or ``all``) and aggregate into a report."""
    start = time.perf_counter()
    if name == "all":
        rows: list[CheckRow] = []
        for suite in SUITE_NAMES:
            rows.extend(_SUITE_FUNCS[suite](cfg))
    elif name in _SUITE_FUNCS:
        rows = _SUITE_FUNCS[name](cfg)
    else:
        raise DomainError(f"unknown suite {name!r}; expected one of "
                          f"{', '.join(SUITE_NAMES + ('all',))}")
    elapsed = time.perf_counter() - start
    return ResidualReport(name, cfg.seed, cfg.samples, cfg.tolerance,
                          cfg.curvature, tuple(rows), elapsed)
