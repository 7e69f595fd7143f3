"""Deterministic model-backed triangle sampling."""

import math
import subprocess
import sys

import numpy as np
import pytest

from cctrig import (Curvature, DomainError, angle_excess,
                    sample_right_triangle, sample_stream, sample_triangle,
                    spherical_right_residuals)

SPH = Curvature.spherical()
HYP = Curvature.hyperbolic()
EUC = Curvature.euclidean()
GEOMETRIES = (SPH, EUC, HYP)


@pytest.mark.parametrize("geometry", GEOMETRIES, ids=lambda g: g.kind.value)
def test_repeatable_for_fixed_seed_and_index(geometry):
    for i in (0, 1, 17, 4096):
        assert sample_triangle(geometry, 42, i) == sample_triangle(geometry, 42, i)


def test_streams_are_counter_based_not_order_based():
    g1 = sample_stream(9, 5)
    _ = sample_stream(9, 6).normal(size=100)  # unrelated draws in between
    g2 = sample_stream(9, 5)
    assert g1.normal() == g2.normal()


def test_different_indices_give_different_triangles():
    seen = {sample_triangle(HYP, 3, i).a for i in range(50)}
    assert len(seen) == 50


@pytest.mark.parametrize("geometry", GEOMETRIES, ids=lambda g: g.kind.value)
def test_constraints_are_respected(geometry):
    for i in range(300):
        t = sample_triangle(geometry, 1, i, min_angle=0.01, max_side=2.0)
        assert min(t.angles()) >= 0.01
        assert max(t.sides()) <= 2.0 * geometry.k
        t.validate()


def test_spherical_samples_stay_in_a_hemisphere():
    for i in range(300):
        t = sample_triangle(SPH, 2, i)
        assert max(t.sides()) < math.pi / 2.0
        assert sum(t.sides()) < 2.0 * math.pi


def test_euclidean_samples_have_zero_excess():
    for i in range(200):
        assert abs(angle_excess(sample_triangle(EUC, 5, i))) < 1e-12


def test_curvature_scale_scales_sides():
    t1 = sample_triangle(HYP, 8, 3)
    t2 = sample_triangle(Curvature.hyperbolic(2.0), 8, 3)
    for s1, s2 in zip(t1.sides(), t2.sides()):
        assert s2 == pytest.approx(2.0 * s1, rel=1e-12)
    for a1, a2 in zip(t1.angles(), t2.angles()):
        assert a2 == pytest.approx(a1, abs=1e-12)


def test_right_triangles_have_exact_right_angle():
    for geometry in (SPH, HYP):
        for i in range(200):
            t = sample_right_triangle(geometry, 4, i)
            assert t.C == math.pi / 2.0
            t.validate()


def test_right_spherical_samples_satisfy_the_right_relations():
    worst = 0.0
    for i in range(300):
        t = sample_right_triangle(SPH, 6, i)
        worst = max(worst, max(abs(r.residual)
                               for r in spherical_right_residuals(t)))
    assert worst < 1e-10


def test_right_triangle_leg_caps():
    for i in range(200):
        t = sample_right_triangle(HYP, 7, i)
        assert 0.05 <= t.a <= 3.0 and 0.05 <= t.b <= 3.0
        t_sph = sample_right_triangle(SPH, 7, i)
        assert max(t_sph.a, t_sph.b) <= 1.5


def test_sampler_input_validation():
    with pytest.raises(DomainError):
        sample_triangle(HYP, -1, 0)
    with pytest.raises(DomainError):
        sample_triangle(HYP, 0, -2)
    with pytest.raises(DomainError):
        sample_triangle(HYP, 0, 0, min_side=3.0, max_side=2.0)
    with pytest.raises(DomainError):
        sample_right_triangle(EUC, 0, 0)
    with pytest.raises(DomainError):
        sample_right_triangle(SPH, 0, 0, max_leg=1.6)


def _same_state(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return a == b


def test_stream_is_philox_keyed_by_seed_and_index():
    edges = (0, 1, 2 ** 32 - 1, 2 ** 64 - 1)
    for seed in edges:
        for index in edges:
            g = sample_stream(seed, index)
            reference = np.random.Philox(key=seed + (index << 64))
            assert _same_state(g.bit_generator.state, reference.state)
            assert g.random() == np.random.Generator(reference).random()


@pytest.mark.parametrize("seed, index", ((2 ** 64, 0), (0, 2 ** 64), (-1, 0), (0, -1)))
def test_stream_key_words_must_fit_64_bits(seed, index):
    # seed 2**64 at index 0 would otherwise alias seed 0 at index 1
    with pytest.raises(DomainError):
        sample_stream(seed, index)


def test_importing_the_package_leaves_numpy_random_unloaded(child_env):
    # programs that never sample (the solvers alone) skip its load time
    # and memory; sample_stream loads it on first use
    code = "import sys, cctrig; print('numpy.random' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env=child_env, timeout=120)
    assert result.returncode == 0
    assert result.stdout.strip() == "False"
