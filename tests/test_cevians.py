"""Concurrent-cevian product-sum identity across the three geometries."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from cctrig import (Curvature, DegenerateError, DomainError, InfeasibleError,
                    Model, ModelPoint, cevian_feet, cevian_residual,
                    model_distance, perturbed_residual, sample_cevian_config)
from cctrig.cevians import sample_cevian_configs
from cctrig.columns import Columns

EUC = Curvature.euclidean()
SPH = Curvature.spherical()
HYP = Curvature.hyperbolic()


def _unit(v, k=1.0):
    n = math.sqrt(math.fsum(x * x for x in v))
    return tuple(x / n * k for x in v)


def _sphere(v, k=1.0):
    return ModelPoint(Model.SPHERE, _unit(v, k), k)


def _medians():
    a = ModelPoint.plane(0.2, 3.1)
    b = ModelPoint.plane(4.0, -0.5)
    c = ModelPoint.plane(-1.0, 0.0)
    centroid = ModelPoint.plane((0.2 + 4.0 - 1.0) / 3.0, (3.1 - 0.5) / 3.0)
    return cevian_feet(EUC, a, b, c, centroid)


def _incenter_345():
    return cevian_feet(EUC, ModelPoint.plane(0.0, 4.0),
                       ModelPoint.plane(3.0, 0.0), ModelPoint.plane(0.0, 0.0),
                       ModelPoint.plane(1.0, 1.0))


def _octant():
    s = 1.0 / math.sqrt(3.0)
    return cevian_feet(SPH, _sphere((1.0, 0.0, 0.0)), _sphere((0.0, 1.0, 0.0)),
                       _sphere((0.0, 0.0, 1.0)), _sphere((s, s, s)))


def _skew_spherical():
    return cevian_feet(SPH, _sphere((1.0, 0.0, 0.2)), _sphere((0.1, 1.0, 0.0)),
                       _sphere((0.0, 0.15, 1.0)), _sphere((1.1, 1.15, 1.2)))


def _oblique_hyperbolic():
    def hyp(x, y):
        return ModelPoint.hyperboloid((math.sqrt(1.0 + x * x + y * y), x, y))

    return cevian_feet(HYP, hyp(1.0, 0.2), hyp(-0.3, 1.1), hyp(-0.6, -0.7),
                       hyp(0.05, 0.1))


def test_medians_cut_each_other_in_ratio_two():
    cfg = _medians()
    for r in cfg.ratios():
        assert r == pytest.approx(2.0, abs=1e-13)
    assert abs(cevian_residual(cfg)) < 1e-12


def test_345_incenter_ratios_and_feet():
    cfg = _incenter_345()
    assert cfg.ratios() == pytest.approx((3.0, 2.0, 1.4), abs=1e-13)
    assert cfg.foot_a.coords == pytest.approx((4.0 / 3.0, 0.0), abs=1e-12)
    assert cfg.foot_b.coords == pytest.approx((0.0, 1.5), abs=1e-12)
    assert cfg.foot_c.coords == pytest.approx((12.0 / 7.0, 12.0 / 7.0), abs=1e-12)
    assert abs(cevian_residual(cfg)) < 1e-12


def test_octant_tan_ratios_are_exactly_two():
    cfg = _octant()
    for r in cfg.ratios():
        assert abs(r - 2.0) < 1e-12
    assert abs(cevian_residual(cfg)) < 1e-12


def test_sampled_euclidean_and_spherical_residuals_vanish():
    for geometry in (EUC, SPH):
        worst = max(abs(cevian_residual(sample_cevian_config(geometry, 61, i)))
                    for i in range(200))
        assert worst < 1e-9


def test_hyperbolic_conjecture_is_recorded_not_asserted():
    """The tanh relation is a theorem (the proof is in the cevians module
    docstring), but the suite's row for it stays recorded: here the
    evaluator must return a finite number for every configuration, and
    test_hyperbolic_euler_residual_is_a_few_roundings grades its size."""
    values = [cevian_residual(sample_cevian_config(HYP, 62, i)) for i in range(200)]
    assert all(math.isfinite(v) for v in values)


@pytest.mark.parametrize("k", (0.5, 1.0, 3.0), ids=repr)
def test_hyperbolic_euler_residual_is_a_few_roundings(k):
    # |R| in units u = 2**-53 of its rounding scale: `form` bounds the
    # rounding of r_a r_b r_c - (r_a + r_b + r_c + 2) itself, `response`
    # its change under a relative error u in each ratio. The tanh ratios
    # read at most 4.7 here at seed 5; plain or sinh ratios miss the
    # relation at first order and fail by many orders of magnitude.
    cfg = sample_cevian_configs(Curvature.hyperbolic(k), 5, 0, 10_000).figure
    ra, rb, rc = cfg.ratios()
    assert len(ra) == 10_000
    with Columns(np.arange(len(ra))) as m:
        residual = cevian_residual(cfg, m)
    form = ra * rb * rc + ra + rb + rc + 2.0
    response = abs(rb * rc - 1.0) * ra + abs(rc * ra - 1.0) * rb + abs(ra * rb - 1.0) * rc
    assert np.max(np.abs(residual) / (2.0 ** -53 * (form + response))) <= 64.0


def test_cevian_residual_dispatches_on_geometry():
    """One evaluator serves every geometry: the Euler form of the
    configuration's own ratios, refused where it is not finite."""
    for cfg in (_medians(), _octant(), sample_cevian_config(HYP, 63, 0)):
        ra, rb, rc = cfg.ratios()
        assert cevian_residual(cfg) == ra * rb * rc - (ra + rb + rc + 2.0)
    with pytest.raises(DomainError):
        cevian_residual(dataclasses.replace(_medians(), ratio_a=math.inf))


def test_foot_slide_breaks_the_relation_at_first_order():
    for cfg in (_medians(), _incenter_345(), _skew_spherical(), _oblique_hyperbolic()):
        assert abs(perturbed_residual(cfg, 1e-3)) > 1e-4


def test_octant_feet_are_perpendicular_so_slides_vanish_at_first_order():
    """Each octant side lies on the polar circle of the opposite vertex,
    so cevians meet their sides at right angles and a foot slide only
    registers at second order: the octant cannot witness sensitivity."""
    assert abs(perturbed_residual(_octant(), 1e-3)) < 1e-4


def test_perturbed_residual_grows_with_delta():
    for cfg in (_medians(), _incenter_345(), _skew_spherical(), _oblique_hyperbolic()):
        magnitudes = [abs(perturbed_residual(cfg, d))
                      for d in (1e-4, 1e-3, 1e-2)]
        assert magnitudes[0] < magnitudes[1] < magnitudes[2]


def test_perturbation_rejects_bad_deltas():
    cfg = _medians()
    with pytest.raises(DomainError):
        perturbed_residual(cfg, 0.0)
    with pytest.raises(DomainError):
        perturbed_residual(cfg, math.inf)
    with pytest.raises(InfeasibleError):
        perturbed_residual(cfg, 5.0)  # slides the foot past the endpoint


def test_feet_lie_between_the_side_endpoints():
    for geometry in (EUC, SPH, HYP):
        cfg = sample_cevian_config(geometry, 64, 0)
        for foot, start, end in ((cfg.foot_a, cfg.B, cfg.C),
                                 (cfg.foot_b, cfg.C, cfg.A),
                                 (cfg.foot_c, cfg.A, cfg.B)):
            gap = (model_distance(start, foot) + model_distance(foot, end)
                   - model_distance(start, end))
            assert abs(gap) < 1e-9


@pytest.mark.parametrize("geometry", (EUC,) + tuple(
    getattr(Curvature, kind)(k) for kind in ("spherical", "hyperbolic")
    for k in (0.5, 1.0, 1e3)), ids=repr)
def test_feet_do_not_depend_on_the_vertex_order(geometry):
    # the sampler draws counter-clockwise triangles only; read clockwise,
    # every cross product in the construction changes sign and the
    # orientation rule must turn each foot back onto its side
    for index in range(8):
        cfg = sample_cevian_config(geometry, 5, index)
        back = cevian_feet(geometry, cfg.A, cfg.C, cfg.B, cfg.O)
        assert (back.foot_a, back.foot_b, back.foot_c) == (cfg.foot_a, cfg.foot_c,
                                                           cfg.foot_b)
        assert back.ratios() == (cfg.ratio_a, cfg.ratio_c, cfg.ratio_b)


def test_a_small_spherical_figure_is_accepted_at_every_scale():
    # the refusal of a cevian plane that coincides with its side's plane
    # compares the sine of their angle with 1e-12, so it does not depend
    # on k; the figure is 1e-5 k across
    corners = ((1.0, 0.0, 0.0), (1.0, 1e-5, 0.0), (1.0, 3e-6, 8e-6), (1.0, 4.5e-6, 3e-6))
    ratios = {cevian_feet(Curvature.spherical(2.0 ** e),
                          *(_sphere(v, 2.0 ** e) for v in corners)).ratios()
              for e in range(-20, 11)}
    assert len(ratios) == 1


def _moved(cfg, scale, offset):
    def move(p):
        return ModelPoint.plane(scale * p.coords[0] + offset, scale * p.coords[1] + offset)

    return cevian_feet(EUC, move(cfg.A), move(cfg.B), move(cfg.C), move(cfg.O))


def test_flat_figures_are_scale_free_and_survive_translation():
    for cfg in (_medians(), _incenter_345()):
        for e in range(-30, 31):
            assert _moved(cfg, 2.0 ** e, 0.0).ratios() == cfg.ratios()
        diameter = max(model_distance(p, q) for p, q in ((cfg.A, cfg.B), (cfg.B, cfg.C),
                                                         (cfg.C, cfg.A)))
        for offset in (1e3, 1e6, 1e9):
            residual = cevian_residual(_moved(cfg, 1.0, offset))
            assert abs(residual) <= 64.0 * 2.0 ** -53 * (1.0 + offset / diameter)


def test_flat_feet_are_within_a_few_roundings_of_the_exact_intersection():
    cfg = sample_cevian_configs(EUC, 11, 0, 2_000).figure
    columns = [np.asarray(p.coords).T.tolist() for p in
               (cfg.A, cfg.B, cfg.C, cfg.O, cfg.foot_a, cfg.foot_b, cfg.foot_c)]
    assert len(columns[0]) == 2_000
    worst = 0.0
    for a, b, c, o, *feet in zip(*columns):
        diameter = max(math.dist(p, q) for p, q in ((a, b), (b, c), (c, a)))
        for (vertex, start, end), foot in zip(((a, b, c), (b, c, a), (c, a, b)), feet):
            v, s, e, q = ([Fraction(x) for x in p] for p in (vertex, start, end, o))
            cevian = (q[0] - v[0], q[1] - v[1])
            side = (e[0] - s[0], e[1] - s[1])
            t = (((s[0] - v[0]) * side[1] - (s[1] - v[1]) * side[0])
                 / (cevian[0] * side[1] - cevian[1] * side[0]))
            exact = (v[0] + t * cevian[0], v[1] + t * cevian[1])
            error = math.hypot(float(Fraction(foot[0]) - exact[0]),
                               float(Fraction(foot[1]) - exact[1]))
            worst = max(worst, error / (2.0 ** -53 * diameter))
    assert worst <= 16.0


def test_interior_point_is_required():
    a = ModelPoint.plane(0.2, 3.1)
    b = ModelPoint.plane(4.0, -0.5)
    c = ModelPoint.plane(-1.0, 0.0)
    with pytest.raises(DegenerateError):
        cevian_feet(EUC, a, b, c, ModelPoint.plane(10.0, 10.0))  # outside
    with pytest.raises(DegenerateError):
        cevian_feet(EUC, a, b, c, c)                             # at a vertex
    midpoint_bc = ModelPoint.plane(1.5, -0.25)
    with pytest.raises(DegenerateError):
        cevian_feet(EUC, a, b, c, midpoint_bc)                   # on a side


def test_collinear_vertices_are_degenerate():
    with pytest.raises(DegenerateError):
        cevian_feet(EUC, ModelPoint.plane(0.0, 0.0), ModelPoint.plane(1.0, 1.0),
                    ModelPoint.plane(2.0, 2.0), ModelPoint.plane(1.0, 0.5))


def test_arcs_reaching_the_tangent_pole_are_rejected():
    north = ModelPoint(Model.SPHERE, (0.0, 0.0, 1.0), 1.0)
    with pytest.raises(DomainError):
        cevian_feet(SPH, north, _sphere((0.5, -0.05, -1.0)),
                    _sphere((-0.5, -0.05, -1.0)), _sphere((0.0, -0.02, -0.3)))


def test_points_must_match_the_geometry():
    with pytest.raises(DomainError):
        cevian_feet(EUC, _sphere((1.0, 0.0, 0.0)), _sphere((0.0, 1.0, 0.0)),
                    _sphere((0.0, 0.0, 1.0)), _sphere((1.0, 1.0, 1.0)))
    with pytest.raises(DomainError):
        cevian_feet(SPH, _sphere((1.0, 0.0, 0.0), 2.0),
                    _sphere((0.0, 1.0, 0.0), 2.0), _sphere((0.0, 0.0, 1.0), 2.0),
                    _sphere((1.0, 1.0, 1.0), 2.0))  # radius 2 vs geometry k=1


def test_sampled_configs_are_deterministic():
    assert sample_cevian_config(SPH, 7, 3) == sample_cevian_config(SPH, 7, 3)
    assert (sample_cevian_config(HYP, 7, 3).ratios()
            != sample_cevian_config(HYP, 7, 4).ratios())
