"""Triangle solvers: closed-form cases, round trips, infeasibility."""

import math

import pytest

from cctrig import (Curvature, DegenerateError, DomainError, InfeasibleError,
                    SimilarityError, sample_triangle, solve_from_aaa,
                    solve_from_asa, solve_from_sas, solve_from_sss)

SPH = Curvature.spherical()
HYP = Curvature.hyperbolic()
EUC = Curvature.euclidean()

ARCCOSH_2 = 1.3169578969248168
ACOS_2_3 = 0.8410686705679302
PI_3 = 1.0471975511965979
A_OCTANT_HALF = 0.9553166181245093

GEOMETRIES = (SPH, EUC, HYP)


def _assert_close(t, u, tol=1e-10):
    for x, y in zip(t.sides() + t.angles(), u.sides() + u.angles()):
        assert abs(x - y) < tol


def test_sss_hyperbolic_equilateral():
    t = solve_from_sss(HYP, ARCCOSH_2, ARCCOSH_2, ARCCOSH_2)
    for angle in t.angles():
        assert angle == pytest.approx(ACOS_2_3, abs=1e-12)


def test_sss_spherical_octant():
    t = solve_from_sss(SPH, math.pi / 2.0, math.pi / 2.0, math.pi / 2.0)
    for angle in t.angles():
        assert angle == pytest.approx(math.pi / 2.0, abs=1e-12)


def test_sss_spherical_right_isosceles():
    t = solve_from_sss(SPH, math.pi / 4.0, math.pi / 4.0, PI_3)
    assert t.C == pytest.approx(math.pi / 2.0, abs=1e-12)
    assert t.A == pytest.approx(A_OCTANT_HALF, abs=1e-12)
    assert t.B == pytest.approx(A_OCTANT_HALF, abs=1e-12)


def test_sas_euclidean_345():
    t = solve_from_sas(EUC, 3.0, math.pi / 2.0, 4.0)
    assert t.a == pytest.approx(5.0, abs=1e-14)
    assert t.A == pytest.approx(math.pi / 2.0, abs=1e-14)


def test_aaa_hyperbolic_equilateral():
    t = solve_from_aaa(HYP, ACOS_2_3, ACOS_2_3, ACOS_2_3)
    for side in t.sides():
        assert side == pytest.approx(ARCCOSH_2, abs=1e-12)


@pytest.mark.parametrize("geometry", GEOMETRIES, ids=lambda g: g.kind.value)
def test_sss_round_trip_on_sampled_triangles(geometry):
    for i in range(150):
        t = sample_triangle(geometry, seed=11, index=i, max_side=5.0)
        _assert_close(t, solve_from_sss(geometry, t.a, t.b, t.c))


@pytest.mark.parametrize("geometry", GEOMETRIES, ids=lambda g: g.kind.value)
def test_sas_round_trip_on_sampled_triangles(geometry):
    for i in range(150):
        t = sample_triangle(geometry, seed=11, index=i, max_side=5.0)
        _assert_close(t, solve_from_sas(geometry, t.b, t.A, t.c))


@pytest.mark.parametrize("geometry", GEOMETRIES, ids=lambda g: g.kind.value)
def test_asa_round_trip_on_sampled_triangles(geometry):
    for i in range(150):
        t = sample_triangle(geometry, seed=11, index=i, max_side=5.0)
        _assert_close(t, solve_from_asa(geometry, t.B, t.a, t.C))


@pytest.mark.parametrize("geometry", (SPH, HYP), ids=lambda g: g.kind.value)
def test_aaa_round_trip_on_sampled_triangles(geometry):
    for i in range(150):
        t = sample_triangle(geometry, seed=11, index=i, max_side=5.0)
        _assert_close(t, solve_from_aaa(geometry, t.A, t.B, t.C))


def test_curvature_scale_consistency():
    t1 = solve_from_sss(Curvature.hyperbolic(3.0), 3.0, 4.5, 6.0)
    t2 = solve_from_sss(HYP, 1.0, 1.5, 2.0)
    for x, y in zip(t1.angles(), t2.angles()):
        assert abs(x - y) < 1e-14


def test_triangle_inequality_violations():
    with pytest.raises(InfeasibleError):
        solve_from_sss(EUC, 1.0, 2.0, 5.0)
    with pytest.raises(InfeasibleError):
        solve_from_sss(HYP, 0.2, 0.2, 0.5)


def test_spherical_perimeter_cap():
    with pytest.raises(InfeasibleError):
        solve_from_sss(SPH, 2.2, 2.2, 2.2)


def test_aaa_rejects_flat_similarity():
    with pytest.raises(SimilarityError):
        solve_from_aaa(EUC, 1.0, 1.0, math.pi - 2.0)


def test_aaa_excess_sign_is_enforced():
    with pytest.raises(DegenerateError):
        solve_from_aaa(HYP, math.pi / 3.0, math.pi / 3.0, math.pi / 3.0)
    with pytest.raises(InfeasibleError):
        solve_from_aaa(SPH, 0.5, 0.5, 0.5)
    with pytest.raises(InfeasibleError):
        solve_from_aaa(HYP, 1.2, 1.2, 1.2)


def test_asa_rejects_flat_angles_that_leave_nothing():
    with pytest.raises(InfeasibleError):
        solve_from_asa(EUC, 1.6, 1.0, 1.6)


def test_bad_values_raise_domain_errors():
    with pytest.raises(DomainError):
        solve_from_sss(EUC, -1.0, 2.0, 2.0)
    with pytest.raises(DomainError):
        solve_from_sss(SPH, math.pi + 0.2, 1.0, 1.0)
    with pytest.raises(DomainError):
        solve_from_sas(HYP, 1.0, math.pi, 1.0)
    with pytest.raises(DomainError):
        solve_from_asa(HYP, 0.0, 1.0, 0.5)


def test_near_degenerate_thin_triangle_still_solves():
    t = solve_from_sss(EUC, 1.0, 1.0, 2.0 - 1e-12)
    assert t.C == pytest.approx(math.pi, abs=1e-5)
    assert math.isfinite(t.A) and t.A > 0.0


def test_half_angle_squares_are_correctly_rounded_products():
    # at these inputs C pow, which Python's x ** 2 calls, rounds the
    # square once more than x * x does, and the result moves by an ulp
    b, A, c = 1.1870631200711634, 2.37007769287785, 0.5753820947672985
    d, half = math.sinh(0.5 * (b - c)), math.sin(0.5 * A)
    assert math.pow(d, 2) != d * d
    a = 2.0 * math.asinh(math.sqrt(d * d + math.sinh(b) * math.sinh(c) * half * half))
    assert solve_from_sas(HYP, b, A, c).a == a

    B, a, C = 0.6953412425772116, 0.5146268513145105, 0.6772521776712273
    s_half, c_sum, s_sum = math.sin(0.5 * a), math.cos(0.5 * (B + C)), math.sin(0.5 * (B + C))
    assert (math.pow(s_half, 2), math.pow(c_sum, 2), math.pow(s_sum, 2)) != (
        s_half * s_half, c_sum * c_sum, s_sum * s_sum)
    qm = c_sum * c_sum + math.sin(B) * math.sin(C) * (s_half * s_half)
    qp = s_sum * s_sum - math.sin(B) * math.sin(C) * (s_half * s_half)
    assert solve_from_asa(SPH, B, a, C).A == 2.0 * math.atan2(math.sqrt(qm), math.sqrt(qp))
