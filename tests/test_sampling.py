"""Deterministic model-backed triangle sampling."""

import math
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from cctrig import (Curvature, DomainError, GeodesicSphere, Model, ModelPoint,
                    SamplingError, angle_excess, geodesic_sphere_triangle,
                    sample_cevian_config, sample_right_triangle, sample_stream,
                    sample_triangle, spherical_right_residuals)
from cctrig.cevians import sample_cevian_configs
from cctrig import geodesic_sphere
from cctrig.geodesic_sphere import _center_rays, center_ray_triangles
from cctrig.sampling import (DEFAULT_MAX_SIDE, DEFAULT_MIN_ANGLE,
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
    monkeypatch.setattr(geodesic_sphere, "Ray", SimpleNamespace(at=lambda base, d: d))
    ours, reference = sample_stream(13, 0), sample_stream(13, 0)
    for _ in range(100_000):
        assert _center_rays(ours, _ORIGIN) == _numpy_center_directions(reference)


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


@pytest.mark.parametrize("k, radius", ((1.0, 0.1), (10.0, 50.0)))
def test_center_ray_triangles_are_the_per_index_rays(k, radius):
    # _center_rays and geodesic_sphere_triangle, index by index, are the
    # reference for the block form
    center = ModelPoint(Model.HYPERBOLOID, (k, 0.0, 0.0, 0.0), k)
    sphere = GeodesicSphere(center, radius)
    seed, start, n = 21, 3 << 32, 400
    block, directions = center_ray_triangles(sphere, seed, start, start + n)
    assert block.rows.tolist() == list(range(n)) and not block.errors
    triangles = _block_outcomes(block, n)
    for i in range(n):
        rays = _center_rays(sample_stream(seed, start + i), center)
        assert [tuple(x.hex() for x in r.direction) for r in rays] == \
            [tuple(float(x).hex() for x in directions[r, :, i]) for r in range(3)]
        assert triangles[i] == _triangle_hex(geodesic_sphere_triangle(sphere, rays))


def _cevian_hex(config, i=None):
    """A cevian configuration's numbers as float.hex strings: row i of a
    configuration of columns."""
    values = [c for p in (config.A, config.B, config.C, config.O, config.foot_a,
                          config.foot_b, config.foot_c) for c in p.coords]
    values += config.ratios()
    return tuple(float(v if i is None else v[i]).hex() for v in values)


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


def _assert_cevian_block_is_the_loop(geometry, seed, start, n, attempts):
    expected = [_cevian_outcome(geometry, seed, start + i, attempts=attempts)
                for i in range(n)]
    failing = [i for i, e in enumerate(expected) if type(e[0]) is type]
    block = sample_cevian_configs(geometry, seed, start, start + n, attempts=attempts)
    got = _cevian_block_outcomes(block)
    # every position up to the first failure is there, and what is there
    # is what the loop gives
    stop = failing[0] + 1 if failing else n
    assert set(range(stop)) <= set(got)
    assert all(got[pos] == expected[pos] for pos in got)
    assert min(block.errors, default=None) == (failing[0] if failing else None)


@pytest.mark.parametrize("kind", ("euclidean", "spherical", "hyperbolic"))
@pytest.mark.parametrize("k", _CEVIAN_SCALES, ids=repr)
@pytest.mark.parametrize("attempts", (1, 128))
def test_block_cevian_sampler_is_the_per_index_sampler(kind, k, attempts):
    # the flat sampler does not depend on k; its cases differ by seed
    geometry = EUC if kind == "euclidean" else getattr(Curvature, kind)(k)
    _assert_cevian_block_is_the_loop(geometry, _CEVIAN_SCALES.index(k), 9 << 28, 24,
                                     attempts)


@pytest.mark.parametrize("geometry, attempts", (
    (Curvature.spherical(0.5), 12), (Curvature.hyperbolic(0.5), 16),
    (Curvature.hyperbolic(1e-3), 128), (SPH, 1)), ids=repr)
def test_cevian_block_until_error_stops_where_the_loop_stops(geometry, attempts):
    # failures part way into the block, after some indices were accepted
    _assert_cevian_block_is_the_loop(geometry, 4, 3 << 28, 60, attempts)


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
