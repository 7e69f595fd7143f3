"""Deterministic model-backed triangle sampling."""

import math
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from cctrig import (Curvature, DomainError, Model, ModelPoint, angle_excess,
                    sample_cevian_config, sample_right_triangle, sample_stream,
                    sample_triangle, spherical_right_residuals, suites)
from cctrig.sampling import (DEFAULT_MAX_SIDE, DEFAULT_MIN_ANGLE,
                             DEFAULT_MIN_SIDE, SPHERE_SIDE_CAP, _uniforms)
from cctrig.suites import _center_rays

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


#: every (lo, hi) a sampler draws a uniform from: sides under each
#: max_side the suites pass and the spherical cap, angles, right-triangle
#: legs, and the cevian radii, turn, jitter and weights
_UNIFORM_BOUNDS = (
    (DEFAULT_MIN_SIDE, DEFAULT_MAX_SIDE), (DEFAULT_MIN_SIDE, 3.0),
    (DEFAULT_MIN_SIDE, 2.0), (DEFAULT_MIN_SIDE, 1.5),
    (DEFAULT_MIN_SIDE, SPHERE_SIDE_CAP),
    (DEFAULT_MIN_ANGLE, math.pi - DEFAULT_MIN_ANGLE),
    (0.15 * 2.0, 0.5 * 2.0), (0.0, 2.0 * math.pi), (-0.5, 0.5), (0.15, 1.0),
)


def test_block_draws_are_numpy_uniforms_bit_for_bit():
    for index in range(10_000):
        block = _uniforms(sample_stream(11, index), _UNIFORM_BOUNDS)
        g = sample_stream(11, index)
        for (lo, hi), x in zip(_UNIFORM_BOUNDS, block):
            assert type(x) is float
            assert x.hex() == float(g.uniform(lo, hi)).hex()


def _all_floats(values):
    return all(type(x) is float for x in values)


@pytest.mark.parametrize("geometry", GEOMETRIES, ids=lambda g: g.kind.value)
def test_samplers_hand_out_python_floats(geometry):
    for i in range(20):
        t = sample_triangle(geometry, 5, i)
        assert _all_floats(t.sides() + t.angles())
        if geometry is not EUC:
            t = sample_right_triangle(geometry, 5, i)
            assert _all_floats(t.sides() + t.angles())
        cfg = sample_cevian_config(geometry, 5, i)
        for p in (cfg.A, cfg.B, cfg.C, cfg.O, cfg.foot_a, cfg.foot_b, cfg.foot_c):
            assert type(p.coords) is tuple and _all_floats(p.coords)
        assert _all_floats(cfg.ratios())


_ORIGIN = ModelPoint(Model.HYPERBOLOID, (1.0, 0.0, 0.0, 0.0), 1.0)


def test_center_rays_hand_out_python_floats():
    for i in range(20):
        for ray in _center_rays(sample_stream(5, i), _ORIGIN):
            assert _all_floats(ray.direction) and _all_floats(ray.base.coords)


def _numpy_center_directions(g, attempts=128):
    """Reference for _center_rays: the same draws with numpy norms and
    BLAS cosines for the separation test, returning the directions."""
    for _ in range(attempts):
        dirs = g.normal(size=(3, 3))
        norms = np.sqrt((dirs * dirs).sum(axis=1))
        if norms.min() < 1e-6:
            continue
        dirs = dirs / norms[:, None]
        cosines = dirs @ dirs.T
        sep = max(abs(cosines[0, 1]), abs(cosines[0, 2]), abs(cosines[1, 2]))
        if sep > math.cos(0.05):
            continue
        return tuple((0.0, *map(float, d)) for d in dirs)
    raise DomainError("no acceptable ray triple")


def test_center_rays_match_the_numpy_draws(monkeypatch):
    # Ray.at is the same deterministic map on both sides; stub it out to
    # compare the directions it is handed, over 10^5 triples of one stream
    monkeypatch.setattr(suites, "Ray", SimpleNamespace(at=lambda base, d: d))
    ours, reference = sample_stream(13, 0), sample_stream(13, 0)
    for _ in range(100_000):
        assert _center_rays(ours, _ORIGIN) == _numpy_center_directions(reference)
