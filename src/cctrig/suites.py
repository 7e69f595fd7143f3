"""Verification suites: seeded Monte-Carlo runs over the model oracles.

Each suite draws its own deterministic sample stream (counter-based, so
execution order never matters), feeds the models' measurements through
the relation evaluators, and aggregates absolute residuals into report
rows. Every sampled suite runs on one driver, _sampled. The suite's
draw gives the figures of a column of sample indices on float64 columns
(a sampling.Block, columns.py) and its evaluator a column per relation
on them; the driver keeps the values and errors of a loop over the
indices of each stream. A stream stops at the first index whose draw or
evaluation raises, once the indices before it are taken (sphere-model
measures its arcs on them first). sphere-model and horosphere pass over
an index whose draw gives no triangle or raises a _SKIPPED error
instead. Every stream draws at most DEFAULT_ATTEMPTS indices per
sample, the attempts a sampler gives one index, so a stream that passes
over every index stops with a SamplingError. The driver runs several
streams of one suite in lockstep, each round one block stacked from all
of them, and raises as running them one after another would:
sphere-model's three spheres share each block, since their center-ray
triangles do not depend on the radius, and each sphere then measures
its first 16 arcs in one intrinsic_arc_length call on columns. What
stays per sample is the
ambient length checks of horosphere, the limits suite and the fixed
cevian figures. Row tolerances default to the documented per-row
targets and scale proportionally when the configured base tolerance is
changed; structural thresholds (the limit-slope window and the cevian
sensitivity floor) are fixed properties of the mathematics and do not
scale.
"""

from __future__ import annotations

import functools
import math
import time

import numpy as np

from .cevians import (cevian_feet, cevian_residual, perturbed_residual,
                      sample_cevian_configs)
from .columns import Columns
from .correspondence import (euclidean_limit_slope,
                             imaginary_substitution_residuals, rescaling_check)
from .curvature import Curvature
from .errors import DegenerateError, DomainError, SamplingError
from .geodesic_sphere import (GeodesicSphere, center_ray_triangles,
                              intrinsic_arc_length)
from .horosphere import (ambient_polyline_length, chart_triangles,
                         intrinsic_distance)
from .models import Model, ModelPoint
from .prism import build_prism, parallelism_match, replay_residuals
from .relations import (euclidean_residuals, hyperbolic_residuals,
                        spherical_residuals, spherical_right_residuals)
from .report import (MIN_ABOVE, SUITE_NAMES, CheckRow, ResidualReport,
                     SuiteConfig, make_row)
from .sampling import (DEFAULT_ATTEMPTS, block_indices, sample_right_triangles,
                       sample_stream, sample_triangle, sample_triangles)
from .solvers import solve_from_sss
from .triangle import angle_excess

_BASE_TOLERANCE = 1e-9
#: Sub-stream stride inside one suite.
_SUB = 1 << 28

#: each geodesic sphere's radius in units of k, its row label and the
#: base_segments of its arc checks (Richardson over n, 2n, 4n and 8n
#: segments). The radii are fixed multiples of k, so the trace error does
#: not depend on k. Worst relative error of the suite's arcs (k in
#: {0.1, 1, 100}, seeds 1 and 2, 96 arcs per radius) against mpmath's
#: k sinh(rho/k) times the 50-digit angle at the center:
#:   rho = 0.1k: 8.1e-16 at 64, 8.1e-16 at 32, 5.2e-16 at 16, 3.7e-15 at 8
#:   rho = 1k:   8.9e-16 at 128, 7.2e-16 at 64, 6.6e-16 at 32, 1.6e-13 at 16
#:   rho = 5k:   8.9e-16 at 2048, 1.6e-13 at 1024, 4.0e-11 at 512
#: Each count is one doubling past the coarsest at the rounding floor, a
#: 256-fold margin on the O(h^8) truncation term. At 5k, sinh(5) ~ 74
#: stretches the step: 2048 reaches the floor at twice the trace of
#: 1024, which keeps the arcs within 2e-13.
_GEODESIC_SPHERE_RADII = ((0.1, "0.1", 32), (1.0, "1", 64), (5.0, "5", 1024))
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
#: draw errors on which sphere-model and horosphere pass over an index
_SKIPPED = (DomainError, DegenerateError)


def _tol(cfg: SuiteConfig, default: float) -> float:
    return default * (cfg.tolerance / _BASE_TOLERANCE)


def _sampled(cfg: SuiteConfig, suite: str, draw, evaluate, streams=(0,),
             skipped=(), check=None) -> list[dict[str, np.ndarray]]:
    """Each relation's values over cfg.samples sampled figures of each
    stream s of `streams`, by relation id, one dict per stream; stream s
    draws its indices from _STREAM_BASE[suite] + s * _SUB on.

    The streams run in lockstep. Each round stacks the next block of up
    to _BLOCK indices of every stream still running in one uint64 index
    column: draw(seed, indices) gives a sampling.Block over it and
    evaluate(figure, m) a column per relation id over its rows. A
    stream uses the rows a loop over its own indices uses: it passes
    over an index that gave no figure or whose draw raised one of the
    `skipped` errors, and fails at any other error, in the draw or in
    evaluate, or past DEFAULT_ATTEMPTS indices drawn per sample with a
    SamplingError. check(s, figure, used), where given, sees each
    round's figure and the rows of it that stream s used, before that
    error; an error check raises is the stream's too. The streams raise
    as running them one after another would: the error of the first
    stream that fails, once every stream before it has its samples. A
    stream after a failed one draws no more.
    """
    bases = [_STREAM_BASE[suite] + s * _SUB for s in streams]
    starts = list(bases)
    needed = [cfg.samples] * len(streams)
    per: list[dict[str, list]] = [{} for _ in streams]
    failed: dict[int, Exception] = {}
    while True:
        # (stream, start, stop) of each block this round draws
        lanes = []
        for s, base in enumerate(bases):
            if s in failed:
                break
            budget = base + DEFAULT_ATTEMPTS * cfg.samples
            if needed[s] and starts[s] == budget:
                failed[s] = SamplingError(f"{cfg.samples - needed[s]} of {cfg.samples} "
                                          f"{suite} triangles accepted in "
                                          f"{budget - base} draws")
                break
            if needed[s]:
                lanes.append((s, starts[s], starts[s] + min(needed[s], _BLOCK,
                                                            budget - starts[s])))
        if not lanes:
            break
        block = draw(cfg.seed, np.concatenate([block_indices(cfg.seed, start, stop)
                                               for _, start, stop in lanes]))
        errors = {pos: e for pos, e in block.errors.items() if not isinstance(e, skipped)}
        values, live = {}, block.rows
        if block.figure is not None:
            with Columns(block.rows) as m:
                values = evaluate(block.figure, m)
            errors.update(m.errors)
            # the columns hold a value per row m keeps: an evaluator drops
            # only rows that raised (m.live), each at or past its stream's
            # first error, so the rows a stream uses keep their places
            live = m.rows
        low = 0
        for s, start, stop in lanes:
            high = low + stop - start
            end = min((pos for pos in errors if low <= pos < high), default=high)
            first, last = np.searchsorted(block.rows, (low, end))
            if check is not None:
                try:
                    check(streams[s], block.figure, np.arange(first, last))
                except Exception as exc:
                    failed[s] = exc
            lo, hi = np.searchsorted(live, (low, end))
            for rid, column in values.items():
                per[s].setdefault(rid, []).append(column[lo:hi])
            needed[s] -= hi - lo
            starts[s] = stop
            if needed[s] and end < high:
                failed.setdefault(s, errors[end])
            low = high
    if failed:
        raise failed[min(failed)]
    return [{rid: np.concatenate(columns) for rid, columns in p.items()} for p in per]


def _residuals(evaluator, name=lambda rid: rid):
    """evaluate for _sampled: the evaluator's residuals by `name` of
    their relation ids."""
    return lambda t, m: {name(r.relation_id): r.residual for r in evaluator(t, m=m)}


def _sampled_rows(cfg: SuiteConfig, suite: str, draw, evaluator, tolerance: float,
                  stream: int = 0, name=lambda rid: rid) -> list[CheckRow]:
    """One row per relation of `evaluator` over cfg.samples triangles."""
    per, = _sampled(cfg, suite, draw, _residuals(evaluator, name), (stream,))
    return [make_row(rid, values, _tol(cfg, tolerance)) for rid, values in per.items()]


def _suite_spherical(cfg: SuiteConfig) -> list[CheckRow]:
    geom = Curvature.spherical(cfg.curvature.k)
    return (_sampled_rows(cfg, "spherical", functools.partial(sample_triangles, geom),
                          spherical_residuals, 1e-9)
            + _sampled_rows(cfg, "spherical", functools.partial(sample_right_triangles, geom),
                            spherical_right_residuals, 1e-10, stream=1))


def _suite_hyperbolic(cfg: SuiteConfig) -> list[CheckRow]:
    geom = Curvature.hyperbolic(cfg.curvature.k)
    return _sampled_rows(cfg, "hyperbolic", functools.partial(sample_triangles, geom),
                         hyperbolic_residuals, 1e-9)


def _suite_euclidean(cfg: SuiteConfig) -> list[CheckRow]:
    return _sampled_rows(cfg, "euclidean",
                         functools.partial(sample_triangles, Curvature.euclidean()),
                         euclidean_residuals, 1e-9)


def _suite_sphere_model(cfg: SuiteConfig) -> list[CheckRow]:
    k = cfg.curvature.k
    center = ModelPoint(Model.HYPERBOLOID, (k, 0.0, 0.0, 0.0), k)
    spheres = [GeodesicSphere(center, rho * k) for rho, _, _ in _GEODESIC_SPHERE_RADII]
    arcs: list[list[float]] = [[] for _ in spheres]

    def check_arcs(level, figure, used):
        # the first triangles a sphere uses also measure the arc between
        # two of their vertices, in one call over their rows, against the
        # sphere's effective radius times the center angle between them,
        # the triangle's side c; in units of k
        rows = used[:_ARC_CHECK_PAIRS - len(arcs[level])]
        if not len(rows):
            return
        sphere, segments = spheres[level], _GEODESIC_SPHERE_RADII[level][2]
        triangles, directions = figure
        with Columns(np.arange(len(rows))) as m:
            p, q = (sphere.point_toward(tuple(directions[r][:, rows]), m) for r in (0, 1))
            arc = intrinsic_arc_length(sphere, p, q, m, base_segments=segments)
        if m.errors:
            raise m.errors[min(m.errors)]
        arcs[level].extend(((arc - sphere.effective_radius * triangles.c[rows]) / k).tolist())

    # the triangles are fixed at the center, so the three spheres' streams
    # are drawn and evaluated as one block
    residuals = _residuals(spherical_residuals, lambda rid: rid.removeprefix("sph_"))
    pers = _sampled(cfg, "sphere-model", functools.partial(center_ray_triangles, center),
                    lambda figure, m: residuals(figure[0], m), range(len(spheres)),
                    _SKIPPED, check_arcs)
    rows: list[CheckRow] = []
    for (_, label, _), per, measured in zip(_GEODESIC_SPHERE_RADII, pers, arcs):
        rows += [make_row(f"gsph_rho{label}_{rid}", values, _tol(cfg, 1e-9))
                 for rid, values in per.items()]
        rows.append(make_row(f"gsph_rho{label}_effective_radius", measured, _tol(cfg, 1e-7)))
    return rows


def _suite_horosphere(cfg: SuiteConfig) -> list[CheckRow]:
    k = cfg.curvature.k
    residuals = _residuals(euclidean_residuals, lambda rid: "horo_" + rid.removeprefix("euc_"))
    per, = _sampled(cfg, "horosphere", functools.partial(chart_triangles, k), residuals,
                    skipped=_SKIPPED)
    rows = [make_row("horo_angle_sum", per.pop("horo_angle_sum"), _tol(cfg, 1e-9))]
    rows += [make_row(rid, values, _tol(cfg, 1e-10)) for rid, values in per.items()]
    ambient: list[float] = []
    for i in range(_AMBIENT_CHECK_PAIRS):
        g = sample_stream(cfg.seed, _STREAM_BASE["horosphere"] + _SUB + i)
        p, q = g.uniform(-2.0 * k, 2.0 * k, size=(2, 2))
        ambient.append(ambient_polyline_length(k, p, q, k)
                       - intrinsic_distance(k, p, q, k))
    rows.append(make_row("horo_ambient_vs_intrinsic", ambient, _tol(cfg, 1e-7)))
    return rows


def _suite_prism(cfg: SuiteConfig) -> list[CheckRow]:
    geom = Curvature.hyperbolic(cfg.curvature.k)

    def measure(t, m):
        fig = build_prism(t, m)
        return ({"prism_right_angle_at_m": fig.right_angle_defect_at_m,
                 "prism_horospherical_right": fig.horospherical_right_angle_defect,
                 "prism_ideal_alignment": fig.ideal_alignment_defect,
                 "prism_parallelism_match": parallelism_match(fig, m)}
                | {r.relation_id: r.residual for r in replay_residuals(fig, m)})

    per, = _sampled(cfg, "prism", functools.partial(sample_right_triangles, geom), measure)
    tolerance = {"prism_ideal_alignment": 1e-10}
    return [make_row(rid, values, _tol(cfg, tolerance.get(rid, 1e-8)))
            for rid, values in per.items()]


def _suite_substitution(cfg: SuiteConfig) -> list[CheckRow]:
    geom = Curvature.hyperbolic(cfg.curvature.k)
    return _sampled_rows(cfg, "substitution",
                         functools.partial(sample_triangles, geom, max_side=3.0),
                         imaginary_substitution_residuals, 1e-9,
                         name=lambda rid: "sub_" + rid.removeprefix("sph_"))


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
    medians, incenter, octant, skew = _canonical_cevian_configs(k)
    rows = [make_row("cev_euclidean_medians", [cevian_residual(medians)],
                     _tol(cfg, 1e-12)),
            make_row("cev_345_incenter", [cevian_residual(incenter)],
                     _tol(cfg, 1e-12)),
            make_row("cev_spherical_octant", [r - 2.0 for r in octant.ratios()],
                     _tol(cfg, 1e-9))]
    # Sensitivity is checked on fixed oblique configurations only: their
    # cevians cross the perturbed side at an angle, so a foot slide of
    # delta changes the residual at first order. A configuration whose
    # cevian meets its side at (or near) a right angle — the octant
    # always, a random draw occasionally — responds only at second
    # order, so no useful floor exists over arbitrary configurations.
    perturbed: list[float] = [perturbed_residual(medians, _SENSITIVITY_DELTA),
                              perturbed_residual(incenter, _SENSITIVITY_DELTA),
                              perturbed_residual(skew, _SENSITIVITY_DELTA)]
    euclidean, spherical, hyperbolic = (
        _sampled(cfg, "cevians", functools.partial(sample_cevian_configs, geom),
                 lambda c, m: {"cev": cevian_residual(c, m)}, (stream,))[0]["cev"]
        for stream, geom in enumerate((Curvature.euclidean(), Curvature.spherical(k),
                                       Curvature.hyperbolic(k))))
    rows.append(make_row("cev_euclidean_sampled", euclidean, _tol(cfg, 1e-9)))
    rows.append(make_row("cev_spherical_sampled", spherical, _tol(cfg, 1e-9)))
    rows.append(make_row("cev_hyperbolic_conjecture", hyperbolic, None, conjecture=True))
    rows.append(make_row("cev_perturbation", perturbed, _SENSITIVITY_FLOOR,
                         comparison=MIN_ABOVE))
    return rows


#: each suite's function, _suite_<name> with "-" read as "_"
_SUITE_FUNCS = {name: globals()["_suite_" + name.replace("-", "_")] for name in SUITE_NAMES}
#: Disjoint Philox stream bases, keyed by suite so a suite produces the
#: same rows alone and inside `all`.
_STREAM_BASE = {name: (i + 1) << 32 for i, name in enumerate(SUITE_NAMES)}


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
