"""Angle of parallelism: exact endpoints, identities, inversion."""

import math

import numpy as np
import pytest

from cctrig import Curvature, DomainError, inverse_parallelism, parallelism_angle

HYP = Curvature.hyperbolic()
ARCCOSH_2 = 1.3169578969248168


def test_zero_distance_gives_right_angle_exactly():
    assert parallelism_angle(0.0, HYP) == math.pi / 2.0


def test_right_angle_inverts_to_zero_exactly():
    assert inverse_parallelism(math.pi / 2.0, HYP) == 0.0


def test_known_values():
    # cosh 1 = 1.5430806...; angle = asin(1/cosh 1)
    assert parallelism_angle(1.0, HYP) == pytest.approx(0.705026843555238, abs=1e-15)
    # cosh(arccosh 2) = 2 gives sin = 1/2, i.e. pi/6
    assert parallelism_angle(ARCCOSH_2, HYP) == pytest.approx(math.pi / 6.0, abs=1e-15)


def test_identities_on_log_grid():
    for p in np.geomspace(1e-6, 50.0, 400):
        p = float(p)
        angle = parallelism_angle(p, HYP)
        assert abs(math.sin(angle) - 1.0 / math.cosh(p)) < 1e-12
        assert abs(math.cos(angle) - math.tanh(p)) < 1e-12
        # tan(angle) = 1/sinh(p), stated multiplicatively: the direct
        # difference is ill-conditioned where both sides blow up (p -> 0,
        # where tan amplifies the angle's rounding by 1 + tan^2).
        assert abs(math.sin(angle) * math.sinh(p) - math.cos(angle)) < 1e-12


def test_tan_identity_away_from_the_pole():
    for p in np.geomspace(0.1, 50.0, 200):
        p = float(p)
        angle = parallelism_angle(p, HYP)
        assert abs(math.tan(angle) - 1.0 / math.sinh(p)) < 1e-12


def test_round_trip_on_angles_is_tight_in_relative_terms():
    for p in np.geomspace(1e-6, 50.0, 400):
        angle = parallelism_angle(float(p), HYP)
        again = parallelism_angle(inverse_parallelism(angle, HYP), HYP)
        assert abs(again - angle) <= 1e-12 * angle


def test_round_trip_on_lengths_reaches_the_representation_floor():
    # An angle double near pi/2 carries p only to ~ulp(pi/2) absolute,
    # so the length-direction round trip is relative away from 0 and
    # absolute at the floor.
    for p in np.geomspace(1e-6, 50.0, 400):
        p = float(p)
        back = inverse_parallelism(parallelism_angle(p, HYP), HYP)
        assert abs(back - p) <= max(1e-12 * p, 1e-15)


def test_strictly_decreasing():
    grid = [float(p) for p in np.geomspace(1e-4, 30.0, 100)]
    values = [parallelism_angle(p, HYP) for p in grid]
    assert all(v2 < v1 for v1, v2 in zip(values, values[1:]))
    assert 0.0 < values[-1] < values[0] <= math.pi / 2.0


def test_curvature_scale_enters_as_p_over_k():
    scaled = Curvature.hyperbolic(2.5)
    assert parallelism_angle(1.7, scaled) == parallelism_angle(1.7 / 2.5, HYP)
    assert inverse_parallelism(0.4, scaled) == pytest.approx(
        2.5 * inverse_parallelism(0.4, HYP), rel=1e-15)


def test_domain_errors():
    with pytest.raises(DomainError):
        parallelism_angle(-0.1, HYP)
    with pytest.raises(DomainError):
        parallelism_angle(math.inf, HYP)
    with pytest.raises(DomainError):
        inverse_parallelism(0.0, HYP)
    with pytest.raises(DomainError):
        inverse_parallelism(math.pi / 2.0 + 0.1, HYP)
    for wrong in (Curvature.euclidean(), Curvature.spherical()):
        with pytest.raises(DomainError):
            parallelism_angle(1.0, wrong)
        with pytest.raises(DomainError):
            inverse_parallelism(0.5, wrong)


def _ulps(value, reference):
    return abs(value - float(reference)) / math.ulp(float(reference))


def test_angle_underflow_is_a_domain_error():
    # exp(-p/k) is subnormal but nonzero just below p/k = 745
    assert 0.0 < parallelism_angle(744.0, HYP) < 1e-320
    for p, curv in ((746.0, HYP), (1e6, HYP), (1.0, Curvature.hyperbolic(1e-3))):
        with pytest.raises(DomainError):
            parallelism_angle(p, curv)


def test_tiny_angles_invert_to_the_log_form():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        for angle in (5e-324, 1e-320, 1e-310, 1e-308, 1e-300):
            reference = mpmath.asinh(mpmath.cot(mpmath.mpf(angle)))
            assert _ulps(inverse_parallelism(angle, HYP), reference) <= 1.0
            scaled = inverse_parallelism(angle, Curvature.hyperbolic(3.0))
            assert _ulps(scaled, 3 * reference) <= 1.0
    assert inverse_parallelism(1e-320, HYP) == pytest.approx(737.5203880715338, rel=1e-15)
