"""The prism over a right hyperbolic triangle ties the three geometries
together: a spherical cut at one vertex, a flat horospherical cut at
another, and the hyperbolic base all describe the same figure."""

import math
import random

import pytest

from cctrig import (Curvature, DomainError, Model, ModelPoint, TriangleData, build_prism,
                    model_distance, parallelism_angle, replay_residuals,
                    sample_right_triangle, sample_triangle)
from cctrig.prism import _horosphere_chart

HYP = Curvature.hyperbolic()


def _right_triangle(a=0.8, b=1.1, geometry=HYP):
    k = geometry.k
    sha, shb = math.sinh(a), math.sinh(b)
    c = math.asinh(math.sqrt(sha * sha + shb * shb + sha * sha * shb * shb))
    return TriangleData(a * k, b * k, c * k,
                        math.atan2(math.tanh(a), shb),
                        math.atan2(math.tanh(b), sha),
                        math.pi / 2.0, geometry)


def test_right_angles_appear_in_both_cuts():
    fig = build_prism(_right_triangle())
    assert fig.right_angle_defect_at_m < 1e-12
    assert fig.horospherical_right_angle_defect < 1e-12


def test_axes_share_one_ideal_point():
    fig = build_prism(_right_triangle())
    assert fig.ideal_alignment_defect < 1e-12
    assert fig.ideal_point[0] == 1.0


def test_spherical_cut_measures_parallelism_angles():
    t = _right_triangle()
    fig = build_prism(t)
    sph = fig.spherical
    assert sph.b == pytest.approx(parallelism_angle(t.c, HYP), abs=1e-12)
    assert sph.c == pytest.approx(parallelism_angle(t.a, HYP), abs=1e-12)
    assert sph.B == pytest.approx(parallelism_angle(t.b, HYP), abs=1e-12)
    assert sph.a == pytest.approx(t.B, abs=1e-12)
    assert sph.geometry.kind.value == "spherical"


def test_horospherical_cut_reproduces_the_base_angles():
    t = _right_triangle()
    fig = build_prism(t)
    hor = fig.horospherical
    assert hor.A == pytest.approx(t.A, abs=1e-12)
    assert hor.geometry.kind.value == "euclidean"


def test_equal_legs_give_a_symmetric_spherical_cut():
    t = _right_triangle(0.9, 0.9)
    sph = build_prism(t).spherical
    # equal legs feed the same parallelism angle into the cut twice:
    # once as the side c, once as the angle B
    assert sph.c == pytest.approx(sph.B, abs=1e-12)
    assert sph.b == pytest.approx(parallelism_angle(t.c, HYP), abs=1e-12)


def test_replay_reconstructs_a_valid_hyperbolic_triangle():
    for i in range(200):
        fig = build_prism(sample_right_triangle(HYP, 31, i))
        residuals = replay_residuals(fig)
        assert {r.relation_id for r in residuals} == {
            "replay_hyp_sine_law", "replay_hyp_side_cosine",
            "replay_hyp_angle_cosine", "replay_hyp_cotangent"}
        assert max(abs(r.residual) for r in residuals) < 1e-8


def test_figure_defects_over_random_right_triangles():
    worst_m = worst_h = worst_align = 0.0
    for i in range(300):
        fig = build_prism(sample_right_triangle(HYP, 32, i))
        worst_m = max(worst_m, fig.right_angle_defect_at_m)
        worst_h = max(worst_h, fig.horospherical_right_angle_defect)
        worst_align = max(worst_align, fig.ideal_alignment_defect)
    assert worst_m < 1e-8
    assert worst_h < 1e-8
    assert worst_align < 1e-10


def test_curvature_scale_carries_through():
    geometry = Curvature.hyperbolic(2.0)
    t = _right_triangle(0.8, 1.1, geometry)
    fig = build_prism(t)
    assert fig.right_angle_defect_at_m < 1e-12
    assert fig.spherical.b == pytest.approx(
        parallelism_angle(t.c, geometry), abs=1e-12)
    assert max(abs(r.residual) for r in replay_residuals(fig)) < 1e-10


def test_non_right_base_is_rejected():
    t = sample_triangle(HYP, 33, 0)
    with pytest.raises(DomainError):
        build_prism(t)


def test_non_hyperbolic_base_is_rejected():
    t = TriangleData(*[math.pi / 2.0] * 6, Curvature.spherical())
    with pytest.raises(DomainError):
        build_prism(t)


@pytest.mark.parametrize("k", (2.0 ** -20, 0.5, 1.0, 10.0, 2.0 ** 20))
def test_the_horosphere_chart_obeys_the_horocycle_formula(k):
    # lift chart points (x, y) onto the horosphere x0 - x3 = k about the
    # ideal point (1, 0, 0, 1); the chart must read them back, and the
    # chart distance s of two of them must be 2k sinh(d / 2k) of their
    # hyperboloid distance d (Lobachevsky's horocycle formula)
    rng = random.Random(31)

    def lift(x, y):
        s = x * x + y * y + k * k
        return ModelPoint(Model.HYPERBOLOID,
                          ((s + k * k) / (2.0 * k), x, y, (s - k * k) / (2.0 * k)), k)

    worst = 0.0
    done = 0
    while done < 500:
        p, q = ((rng.uniform(-2.0, 2.0) * k, rng.uniform(-2.0, 2.0) * k) for _ in range(2))
        (px, py), (qx, qy) = (_horosphere_chart(lift(*v)) for v in (p, q))
        s = math.hypot(px - qx, py - qy)
        if s < 1e-3 * k:
            continue
        done += 1
        assert (px, py) == pytest.approx(p, abs=1e-14 * k)
        d = model_distance(lift(*p), lift(*q))
        worst = max(worst, abs(s - 2.0 * k * math.sinh(0.5 * d / k)) / s)
    assert worst < 1e-13
