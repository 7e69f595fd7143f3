"""Relation evaluators against hand-solvable triangles."""

import math

import pytest

from cctrig import (Curvature, DomainError, TriangleData,
                    euclidean_residuals, hyperbolic_residuals,
                    parallelism_angle, sample_triangle, spherical_residuals,
                    spherical_right_residuals)
from cctrig.relations import general_spherical_system

SPH = Curvature.spherical()
HYP = Curvature.hyperbolic()
EUC = Curvature.euclidean()

ARCCOSH_2 = 1.3169578969248168
ACOS_2_3 = 0.8410686705679302   # angle of the equilateral triangle below
PI_3 = 1.0471975511965979
A_OCTANT_HALF = 0.9553166181245093  # acos(1/sqrt 3): a=b=pi/4, C=pi/2


def _max_abs(residuals):
    return max(abs(r.residual) for r in residuals)


def test_octant_triangle_is_exact():
    t = TriangleData(*[math.pi / 2.0] * 6, SPH)
    assert _max_abs(spherical_residuals(t)) < 1e-15
    assert _max_abs(spherical_right_residuals(t)) < 1e-15


def test_right_spherical_triangle_with_known_solution():
    t = TriangleData(math.pi / 4.0, math.pi / 4.0, PI_3,
                     A_OCTANT_HALF, A_OCTANT_HALF, math.pi / 2.0, SPH)
    assert _max_abs(spherical_residuals(t)) < 1e-12
    assert _max_abs(spherical_right_residuals(t)) < 1e-12


def test_right_relations_detect_an_angle_perturbation():
    # d/dA [sin A sin c - sin a] = cos A sin c = (1/sqrt 3)(sqrt 3 / 2) = 1/2,
    # so a +1e-3 nudge of A moves the first right residual to ~5e-4
    t = TriangleData(math.pi / 4.0, math.pi / 4.0, PI_3,
                     A_OCTANT_HALF + 1e-3, A_OCTANT_HALF, math.pi / 2.0, SPH)
    first = spherical_right_residuals(t)[0].residual
    assert abs(first) == pytest.approx(5.0e-4, rel=2e-3)


def test_right_relations_require_a_right_angle():
    t = TriangleData(math.pi / 4.0, math.pi / 4.0, PI_3,
                     A_OCTANT_HALF, A_OCTANT_HALF, math.pi / 2.0 + 1e-6, SPH)
    with pytest.raises(DomainError):
        spherical_right_residuals(t)


def test_hyperbolic_equilateral_is_exact():
    t = TriangleData(ARCCOSH_2, ARCCOSH_2, ARCCOSH_2,
                     ACOS_2_3, ACOS_2_3, ACOS_2_3, HYP)
    assert _max_abs(hyperbolic_residuals(t)) < 1e-12


def test_euclidean_345_is_exact():
    t = TriangleData(3.0, 4.0, 5.0, math.atan2(3.0, 4.0), math.atan2(4.0, 3.0),
                     math.pi / 2.0, EUC)
    assert _max_abs(euclidean_residuals(t)) < 1e-14


def test_hyperbolic_relations_match_the_parallelism_angle_route():
    """The implemented hyperbolic system is the parallelism-angle form
    of the spherical one; evaluating it literally through PI() must
    agree with the direct evaluation at the 1e-12 level."""
    for i in range(200):
        t = sample_triangle(HYP, seed=7, index=i, max_side=5.0)
        pa = parallelism_angle(t.a, HYP)
        pb = parallelism_angle(t.b, HYP)
        pc = parallelism_angle(t.c, HYP)
        sinA, cosA = math.sin(t.A), math.cos(t.A)
        sinB, cosB = math.sin(t.B), math.cos(t.B)
        sinC, cosC = math.sin(t.C), math.cos(t.C)
        literal = [
            sinA * math.tan(pa) - sinB * math.tan(pb),
            (1.0 - math.cos(pb) * math.cos(pc) * cosA)
            - math.sin(pb) * math.sin(pc) / math.sin(pa),
            (cosA + cosB * cosC) - sinB * sinC / math.sin(pa),
            (cosA / sinA * sinC * math.sin(pb) + cosC)
            - math.cos(pb) / math.cos(pa),
        ]
        direct = hyperbolic_residuals(t)
        for lit, res in zip(literal, direct):
            assert abs(lit - res.residual) < 1e-12


def test_geometry_kind_is_enforced():
    sph_t = TriangleData(*[math.pi / 2.0] * 6, SPH)
    hyp_t = TriangleData(ARCCOSH_2, ARCCOSH_2, ARCCOSH_2,
                         ACOS_2_3, ACOS_2_3, ACOS_2_3, HYP)
    with pytest.raises(DomainError):
        spherical_residuals(hyp_t)
    with pytest.raises(DomainError):
        hyperbolic_residuals(sph_t)
    with pytest.raises(DomainError):
        euclidean_residuals(sph_t)


def test_invalid_triangles_are_rejected():
    with pytest.raises(DomainError):
        spherical_residuals(TriangleData(math.pi + 0.1, 1.0, 1.0,
                                         1.0, 1.0, 1.0, SPH))
    with pytest.raises(DomainError):
        hyperbolic_residuals(TriangleData(0.0, 1.0, 1.0, 0.5, 1.0, 1.0, HYP))


def test_general_system_takes_each_sides_sine_and_cosine_once():
    # the substitution suite passes cmath's sin and cos, mapped over
    # object columns, as the side functions: each repeat would cost a
    # map. The calls come in the order the relations first use them, so
    # a side function that raises does so on the call it would if every
    # use called it
    t = sample_triangle(SPH, 1, 0)
    a, b, c = t.sides()
    assert len({a, b, c}) == 3
    calls = []

    def counted(name, fn):
        def side_function(x):
            calls.append((name, x))
            return fn(x)
        return side_function

    values = general_spherical_system(a, b, c, t, counted("sin", math.sin),
                                      counted("cos", math.cos))
    assert calls == [("sin", a), ("sin", b), ("cos", b), ("cos", a), ("cos", c), ("sin", c)]
    assert values == general_spherical_system(a, b, c, t, math.sin, math.cos)
