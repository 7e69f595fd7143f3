"""Deterministic model-backed triangle sampling."""

import dataclasses
import math
import subprocess
import sys

import numpy as np
import pytest
from scipy import stats

from cctrig import (Curvature, DomainError, GeodesicSphere, Model, ModelPoint,
                    Ray, SamplingError, angle_excess, geodesic_sphere_triangle,
                    sample_cevian_config, sample_right_triangle, sample_stream,
                    sample_triangle, spherical_right_residuals)
from cctrig.cevians import sample_cevian_configs
from cctrig.columns import FLOATS
from cctrig.geodesic_sphere import _RAY_BOUNDS, _ray_directions, center_ray_triangles
from cctrig.sampling import (DEFAULT_ATTEMPTS, DEFAULT_MAX_SIDE, DEFAULT_MIN_ANGLE,
                             DEFAULT_MIN_SIDE, SPHERE_SIDE_CAP, _philox_blocks,
                             _uniforms, block_random, sample_right_triangles,
                             sample_triangles)

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


# ------------------------------------------------------------ block draws

_KEY_EDGES = (0, 1, 2 ** 32 - 1, 2 ** 63, 2 ** 64 - 1)


def test_vectorised_philox_matches_numpy_philox():
    indices = np.array(_KEY_EDGES, dtype=np.uint64)
    counters = np.arange(1, 9, dtype=np.uint64)  # the first 8 counter blocks
    for seed in _KEY_EDGES:
        lanes = _philox_blocks(counters, seed, indices)
        for j, index in enumerate(_KEY_EDGES):
            words = [int(lanes[w % 4][w // 4, j]) for w in range(32)]
            reference = np.random.Philox(key=seed + (index << 64)).random_raw(32)
            assert words == reference.tolist()


def test_vectorised_philox_matches_numpy_philox_over_the_cevian_window():
    # counter blocks 1-40 are the 160 words a cevian block may draw
    indices = np.array(_KEY_EDGES, dtype=np.uint64)
    counters = np.arange(1, 41, dtype=np.uint64)
    for seed in _KEY_EDGES:
        lanes = _philox_blocks(counters, seed, indices)
        for j, index in enumerate(_KEY_EDGES):
            words = [int(lanes[w % 4][w // 4, j]) for w in range(160)]
            reference = np.random.Philox(key=seed + (index << 64)).random_raw(160)
            assert words == reference.tolist()


def test_block_random_is_generator_random_at_every_offset_and_count():
    seed, indices = 2 ** 64 - 1, np.array((0, 3, 2 ** 63, 2 ** 64 - 1), dtype=np.uint64)
    streams = [sample_stream(seed, index).random(167).tolist()
               for index in indices.tolist()]
    for first in range(8):
        for count in range(1, 161):
            block = block_random(seed, indices, first, count)
            assert block.shape == (count, len(indices))
            for j, drawn in enumerate(streams):
                assert [x.hex() for x in block[:, j].tolist()] == \
                    [x.hex() for x in drawn[first:first + count]]


def _hex_rows(columns):
    return [tuple(float(c[i]).hex() for c in columns) for i in range(len(columns[0]))]


def test_block_draws_do_not_depend_on_the_split():
    seed, n, m = 2 ** 63 + 5, 97, 40
    whole = _hex_rows(block_random(seed, np.arange(n, dtype=np.uint64), 3, 9))
    halves = (_hex_rows(block_random(seed, np.arange(m, dtype=np.uint64), 3, 9))
              + _hex_rows(block_random(seed, np.arange(m, n, dtype=np.uint64), 3, 9)))
    ones = [row for i in range(n)
            for row in _hex_rows(block_random(seed, np.array([i], dtype=np.uint64), 3, 9))]
    assert whole == halves == ones


def test_block_draws_are_the_per_attempt_stream_draws():
    seed, n, attempts = 42, 300, 6
    indices = np.arange(1 << 32, (1 << 32) + n, dtype=np.uint64)
    columns = block_random(seed, indices, 0, 3 * attempts)
    for i, index in enumerate(indices.tolist()):
        g = sample_stream(seed, index)
        for j in range(attempts):
            drawn = g.random(3).tolist()
            assert [columns[3 * j + d][i].hex() for d in range(3)] == \
                [x.hex() for x in drawn]


def _triangle_hex(t):
    return tuple(float(x).hex() for x in t.sides() + t.angles())


def _scalar_outcome(fn, *args, **kwargs):
    try:
        return _triangle_hex(fn(*args, **kwargs))
    except Exception as exc:  # the block must raise the same error here
        return (type(exc), str(exc))


def _block_outcomes(block, n):
    """Per position: the triangle's float.hex values, or the error."""
    t = block.figure
    values = [np.broadcast_to(x, block.rows.shape) for x in t.sides() + t.angles()]
    rows = {pos: tuple(float(v[i]).hex() for v in values)
            for i, pos in enumerate(block.rows.tolist())}
    rows.update((pos, (type(exc), str(exc))) for pos, exc in block.errors.items())
    assert sorted(rows) == list(range(n))
    return [rows[pos] for pos in range(n)]


@pytest.mark.parametrize("geometry", (SPH, EUC, HYP, Curvature.hyperbolic(0.1),
                                      Curvature.spherical(7.5)), ids=repr)
@pytest.mark.parametrize("kwargs", ({}, {"max_side": 3.0}, {"attempts": 1},
                                    {"min_angle": 0.6, "attempts": 3}), ids=repr)
def test_block_sampler_is_the_per_index_sampler(geometry, kwargs):
    seed, start, n = 9, 5 << 32, 300
    block = sample_triangles(geometry, seed, start, start + n, **kwargs)
    expected = [_scalar_outcome(sample_triangle, geometry, seed, start + i, **kwargs)
                for i in range(n)]
    assert _block_outcomes(block, n) == expected
    if kwargs.get("attempts") == 1:  # some draws are rejected: the masks run
        assert any(type(e) is SamplingError for e in block.errors.values())


@pytest.mark.parametrize("geometry", (SPH, HYP, Curvature.hyperbolic(3.0)), ids=repr)
def test_block_right_triangles_are_the_per_index_ones(geometry):
    seed, start, n = 4, 7 << 32, 200
    block = sample_right_triangles(geometry, seed, start, start + n)
    expected = [_scalar_outcome(sample_right_triangle, geometry, seed, start + i)
                for i in range(n)]
    assert _block_outcomes(block, n) == expected


def test_block_samplers_refuse_what_the_per_index_samplers_refuse():
    for call in (lambda: sample_triangles(HYP, 2 ** 64, 0, 3),
                 lambda: sample_triangles(HYP, 0, 2 ** 64 - 2, 2 ** 64 + 1),
                 lambda: sample_triangles(HYP, 0, 0, 3, min_side=3.0, max_side=2.0),
                 lambda: sample_right_triangles(EUC, 0, 0, 3)):
        with pytest.raises(DomainError):
            call()


def _per_index_rays(seed, index, center):
    """The rays a loop over one index takes: _ray_directions on floats
    from the uniforms of its stream, attempt after attempt, and the
    number of attempts it made."""
    g = sample_stream(seed, index)
    for made in range(1, DEFAULT_ATTEMPTS + 1):
        dirs = _ray_directions(*_uniforms(g, _RAY_BOUNDS), FLOATS)
        if dirs is not None:
            return tuple(Ray.at(center, (0.0, *d)) for d in dirs), made
    raise AssertionError("no ray triple accepted")


@pytest.mark.parametrize("k, radius", ((1.0, 0.1), (10.0, 50.0)))
def test_center_ray_triangles_are_the_per_index_rays(k, radius):
    # the per-index loop and geodesic_sphere_triangle, index by index,
    # are the reference for the block form
    center = ModelPoint(Model.HYPERBOLOID, (k, 0.0, 0.0, 0.0), k)
    sphere = GeodesicSphere(center, radius)
    seed, start, n = 21, 3 << 32, 400
    block = center_ray_triangles(sphere, seed, start, start + n)
    assert block.rows.tolist() == list(range(n)) and not block.errors
    triangle, directions = block.figure
    triangles = _block_outcomes(dataclasses.replace(block, figure=triangle), n)
    attempts = []
    for i in range(n):
        rays, made = _per_index_rays(seed, start + i, center)
        attempts.append(made)
        assert [tuple(x.hex() for x in r.direction) for r in rays] == \
            [tuple(float(x).hex() for x in directions[r, :, i]) for r in range(3)]
        assert triangles[i] == _triangle_hex(geodesic_sphere_triangle(sphere, rays))
    assert max(attempts) > 1  # some triple is rejected: the next round runs


def test_center_ray_directions_are_uniform_on_the_sphere():
    # z uniform on [-1, 1) and phi on [0, 2 pi) is the uniform point on
    # the sphere; the separation rule keeps each ray's law, by symmetry
    center = ModelPoint(Model.HYPERBOLOID, (1.0, 0.0, 0.0, 0.0), 1.0)
    block = center_ray_triangles(GeodesicSphere(center, 1.0), 3, 0, 100_000)
    directions = block.figure[1]
    assert directions.shape == (3, 4, 100_000)
    for _, z, x, y in directions:
        phi = np.arctan2(y, x) % (2.0 * math.pi)
        assert stats.kstest(z, stats.uniform(-1.0, 2.0).cdf).pvalue > 1e-3
        assert stats.kstest(phi, stats.uniform(0.0, 2.0 * math.pi).cdf).pvalue > 1e-3


def _cevian_hex(config, i=None):
    """A cevian configuration's numbers as float.hex strings: row i of a
    configuration of columns, where a plane point's x0 is the constant 1."""
    values = [c for p in (config.A, config.B, config.C, config.O, config.foot_a,
                          config.foot_b, config.foot_c) for c in p.coords]
    values += config.ratios()
    return tuple(float(v if i is None or np.ndim(v) == 0 else v[i]).hex() for v in values)


def _cevian_outcome(geometry, seed, index, **kwargs):
    try:
        return _cevian_hex(sample_cevian_config(geometry, seed, index, **kwargs))
    except Exception as exc:  # the block must raise the same error here
        return (type(exc), str(exc))


def _cevian_block_outcomes(block):
    """Per position the block reports: its configuration or its error."""
    rows = {pos: _cevian_hex(block.figure, i) for i, pos in enumerate(block.rows.tolist())}
    rows.update((pos, (type(exc), str(exc))) for pos, exc in block.errors.items())
    return rows


_CEVIAN_SCALES = (1e-3, 0.1, 0.5, 1.0, 10.0, 1e5)


def _assert_cevian_block_is_the_loop(geometry, seed, start, n, attempts, **kwargs):
    expected = [_cevian_outcome(geometry, seed, start + i, attempts=attempts, **kwargs)
                for i in range(n)]
    failing = [i for i, e in enumerate(expected) if type(e[0]) is type]
    block = sample_cevian_configs(geometry, seed, start, start + n, attempts=attempts,
                                  **kwargs)
    got = _cevian_block_outcomes(block)
    # every position up to the first failure is there, and what is there
    # is what the loop gives
    stop = failing[0] + 1 if failing else n
    assert set(range(stop)) <= set(got)
    assert all(got[pos] == expected[pos] for pos in got)
    assert min(block.errors, default=None) == (failing[0] if failing else None)
    return failing


@pytest.mark.parametrize("kind", ("euclidean", "spherical", "hyperbolic"))
@pytest.mark.parametrize("k", _CEVIAN_SCALES, ids=repr)
@pytest.mark.parametrize("attempts", (1, 128))
def test_block_cevian_sampler_is_the_per_index_sampler(kind, k, attempts):
    # the flat sampler does not depend on k; its cases differ by seed
    geometry = EUC if kind == "euclidean" else getattr(Curvature, kind)(k)
    _assert_cevian_block_is_the_loop(geometry, _CEVIAN_SCALES.index(k), 9 << 28, 24,
                                     attempts)


@pytest.mark.parametrize("geometry, attempts, max_side", (
    (Curvature.spherical(0.5), 12, 2.0), (Curvature.hyperbolic(0.5), 16, 2.0),
    (Curvature.hyperbolic(1e-3), 128, 2.0), (SPH, 2, 8.0)), ids=repr)
def test_cevian_block_until_error_stops_where_the_loop_stops(geometry, attempts, max_side):
    # the loop fails in every case: at index 0 for hyperbolic k = 1e-3, part
    # way into the block, after some indices were accepted, for the others
    failing = _assert_cevian_block_is_the_loop(geometry, 4, 3 << 28, 60, attempts,
                                               max_side=max_side)
    assert failing


def test_a_sampler_that_rejects_everything_fails_in_two_rounds(monkeypatch):
    # at k = 0.1 every hyperbolic draw is rejected: the lowest index
    # must spend its 128 attempts without the 99 above it spending theirs
    import cctrig.sampling as sampling
    drawn = []
    original = sampling._block_uniforms

    def counted(seed, indices, first, bounds, tries=1):
        drawn.append(len(indices) * tries)
        return original(seed, indices, first, bounds, tries)

    monkeypatch.setattr(sampling, "_block_uniforms", counted)
    block = sample_cevian_configs(Curvature.hyperbolic(0.1), 0, 0, 100)
    assert list(block.errors) == [0] and len(block.rows) == 0
    assert str(block.errors[0]) == "no acceptable cevian configuration after 128 attempts"
    assert sum(drawn) <= 2 * 100 + 128
