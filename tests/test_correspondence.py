"""Imaginary-side substitution, Euclidean limits, curvature rescaling."""

import math

import pytest

from cctrig import (SUBSTITUTION_RELATIONS, Curvature, DomainError,
                    TriangleData, angle_excess, euclidean_limit_slope,
                    hyperbolic_residuals, imaginary_substitution_residual,
                    imaginary_substitution_residuals, rescaling_check,
                    sample_triangle, solve_from_sss)

HYP = Curvature.hyperbolic()
SPH = Curvature.spherical()
EUC = Curvature.euclidean()

ARCCOSH_2 = 1.3169578969248168
ACOS_2_3 = 0.8410686705679302
SCALES = (1e-1, 1e-2, 1e-3, 1e-4)
EQUILATERAL = TriangleData(ARCCOSH_2, ARCCOSH_2, ARCCOSH_2,
                           ACOS_2_3, ACOS_2_3, ACOS_2_3, HYP)


def test_substitution_annihilates_a_known_hyperbolic_triangle():
    residuals = imaginary_substitution_residuals(EQUILATERAL)
    assert [r.relation_id for r in residuals] == list(SUBSTITUTION_RELATIONS)
    assert max(r.magnitude for r in residuals) < 1e-12


def test_substitution_annihilates_sampled_hyperbolic_triangles():
    worst = 0.0
    for i in range(300):
        t = sample_triangle(HYP, 51, i, max_side=3.0)
        worst = max(worst, max(r.magnitude
                               for r in imaginary_substitution_residuals(t)))
    assert worst < 1e-9


def test_substitution_detects_a_broken_triangle():
    broken = TriangleData(ARCCOSH_2, ARCCOSH_2, ARCCOSH_2,
                          ACOS_2_3 + 1e-3, ACOS_2_3, ACOS_2_3, HYP)
    assert max(r.magnitude
               for r in imaginary_substitution_residuals(broken)) > 1e-4


def test_substitution_residuals_track_the_hyperbolic_residuals():
    """Residual-level equivalence: below tolerance on one side exactly
    when below a small multiple of it on the other. The multiple,
    measured as the ratio of the suite-wide worst cases, stays under
    the documented bound of 10."""
    tau = 1e-9
    bound = 10.0
    for max_side in (1.2, 3.0):
        worst_hyp = worst_sub = 0.0
        for i in range(400):
            t = sample_triangle(HYP, 52, i, max_side=max_side)
            hyp = max(abs(r.residual) for r in hyperbolic_residuals(t))
            sub = max(r.magnitude for r in imaginary_substitution_residuals(t))
            assert (hyp < tau) == (sub < bound * tau)
            worst_hyp = max(worst_hyp, hyp)
            worst_sub = max(worst_sub, sub)
        assert worst_sub <= bound * worst_hyp


def test_substitution_gates_geometry_and_relation_id():
    octant = TriangleData(*[math.pi / 2.0] * 6, SPH)
    with pytest.raises(DomainError):
        imaginary_substitution_residual("sph_sine_law", octant)
    with pytest.raises(DomainError):
        imaginary_substitution_residual("hyp_sine_law", EQUILATERAL)


def test_limit_slope_is_two_for_both_curved_geometries():
    for geometry in (HYP, SPH):
        for i in range(3):
            shape = sample_triangle(geometry, 53, i, max_side=1.5)
            fit = euclidean_limit_slope(shape, SCALES)
            assert fit.slope == pytest.approx(2.0, abs=0.1)
            assert fit.scales[0] > fit.scales[-1]


def test_excess_vanishes_quadratically_at_the_endpoint():
    shape = sample_triangle(HYP, 54, 0, max_side=2.0)
    longest = max(shape.sides())
    eps = 1e-6
    tiny = solve_from_sss(HYP, *(s / longest * eps for s in shape.sides()))
    assert abs(angle_excess(tiny)) < 1e-12


def test_limit_fit_rejects_bad_inputs():
    flat = sample_triangle(EUC, 55, 0)
    with pytest.raises(DomainError):
        euclidean_limit_slope(flat, SCALES)
    shape = sample_triangle(HYP, 55, 1)
    with pytest.raises(DomainError):
        euclidean_limit_slope(shape, (0.1, 0.01))       # under two decades
    with pytest.raises(DomainError):
        euclidean_limit_slope(shape, (0.1, 0.1, 1e-3))  # duplicate scale
    with pytest.raises(DomainError):
        euclidean_limit_slope(shape, (1.5, 0.1, 1e-3))  # above 1


def test_rescaling_leaves_angles_alone():
    t = sample_triangle(HYP, 56, 0, max_side=2.0)
    for lam in (1e-3, 1.0, 3.0, 1e6):
        report = rescaling_check(t, lam)
        assert report.max_deviation < 1e-12
        assert report.scale == lam


def test_rescaling_check_is_exact_for_unit_scale():
    t = sample_triangle(SPH, 57, 0)
    assert rescaling_check(t, 1.0).max_deviation == 0.0


def test_rescaling_rejects_bad_scales():
    t = sample_triangle(HYP, 58, 0)
    with pytest.raises(DomainError):
        rescaling_check(t, 0.0)
    with pytest.raises(DomainError):
        rescaling_check(t, math.inf)
