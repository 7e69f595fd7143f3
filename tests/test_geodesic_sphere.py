"""Geodesic spheres in hyperbolic space carry round-sphere geometry."""

import math
import re
import sys
import threading

import numpy as np
import pytest

from cctrig import (Curvature, DegenerateError, DomainError, GeodesicSphere,
                    Model, ModelPoint, Ray, SuiteConfig,
                    geodesic_sphere_triangle, intrinsic_arc_length,
                    model_distance, run_suite, sample_stream,
                    spherical_residuals, tangent_angle)
from cctrig import geodesic_sphere, suites
from cctrig.columns import Columns
from cctrig.geodesic_sphere import _tangent_part
from cctrig.models import _spacelike_norm, richardson_length, tangent_toward

ORIGIN = ModelPoint(Model.HYPERBOLOID, (1.0, 0.0, 0.0, 0.0), 1.0)


def _orthogonal_rays(center):
    return tuple(Ray.at(center, d) for d in
                 ((0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0),
                  (0.0, 0.0, 0.0, 1.0)))


def _random_rays(g, center):
    dirs = g.normal(size=(3, 3))
    return tuple(Ray.at(center, (0.0, *map(float, d))) for d in dirs)


def test_effective_radius_formula():
    sphere = GeodesicSphere(ORIGIN, 2.0)
    assert sphere.effective_radius == pytest.approx(math.sinh(2.0), rel=1e-15)
    k = 3.0
    scaled = GeodesicSphere(ModelPoint(Model.HYPERBOLOID, (k, 0.0, 0.0, 0.0), k), 2.0)
    assert scaled.effective_radius == pytest.approx(k * math.sinh(2.0 / k), rel=1e-15)


def test_orthogonal_rays_cut_an_octant():
    for rho in (0.1, 1.0, 5.0):
        t = geodesic_sphere_triangle(GeodesicSphere(ORIGIN, rho),
                                     _orthogonal_rays(ORIGIN))
        for value in t.sides() + t.angles():
            assert value == pytest.approx(math.pi / 2.0, abs=1e-15)
        assert t.geometry.kind.value == "spherical"
        assert t.geometry.k == 1.0


def test_triangle_is_independent_of_the_radius():
    g = sample_stream(13, 0)
    rays = _random_rays(g, ORIGIN)
    t1 = geodesic_sphere_triangle(GeodesicSphere(ORIGIN, 0.1), rays)
    t2 = geodesic_sphere_triangle(GeodesicSphere(ORIGIN, 5.0), rays)
    assert t1 == t2


def test_random_triangles_satisfy_spherical_relations():
    worst = 0.0
    produced = 0
    index = 0
    while produced < 200:
        g = sample_stream(14, index)
        index += 1
        try:
            t = geodesic_sphere_triangle(GeodesicSphere(ORIGIN, 1.0),
                                         _random_rays(g, ORIGIN))
        except (DomainError, DegenerateError):
            continue
        worst = max(worst, max(abs(r.residual) for r in spherical_residuals(t)))
        produced += 1
    assert worst < 1e-9


def test_intrinsic_arc_length_matches_effective_radius():
    for rho in (0.1, 1.0, 5.0):
        sphere = GeodesicSphere(ORIGIN, rho)
        g = sample_stream(15, int(rho * 10))
        rays = _random_rays(g, ORIGIN)
        p = sphere.point_toward(rays[0].direction)
        q = sphere.point_toward(rays[1].direction)
        angle = tangent_angle(ORIGIN, rays[0].direction, rays[1].direction)
        arc = intrinsic_arc_length(sphere, p, q)
        assert abs(arc - sphere.effective_radius * angle) < 1e-7


def _suite_arcs(monkeypatch, k, seed):
    """The arcs sphere-model measures at k: (sphere, p, q, base_segments,
    length) of each row of its intrinsic_arc_length calls, 16 per sphere."""
    arcs = []

    def record(sphere, p, q, m, *, base_segments=1024):
        arc = intrinsic_arc_length(sphere, p, q, m, base_segments=base_segments)
        for i, length in enumerate(arc.tolist()):
            arcs.append((sphere, _row_point(p, i), _row_point(q, i), base_segments, length))
        return arc

    monkeypatch.setattr(suites, "intrinsic_arc_length", record)
    run_suite("sphere-model", SuiteConfig(seed=seed, samples=16,
                                          curvature=Curvature.hyperbolic(k)))
    return arcs


def _mpmath_arc(sphere, p, q):
    """k sinh(rho/k) times the angle at the center between the spatial
    parts of p and q, to 50 digits, for a center at the origin."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        k = mpmath.mpf(sphere.center.k)
        u, v = ([mpmath.mpf(x) for x in point.coords[1:]] for point in (p, q))
        cross = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
                 u[0] * v[1] - u[1] * v[0])
        angle = mpmath.atan2(mpmath.sqrt(sum(c * c for c in cross)),
                             sum(a * b for a, b in zip(u, v)))
        return k * mpmath.sinh(mpmath.mpf(sphere.radius) / k) * angle


@pytest.mark.parametrize("k", (1e-3, 0.1, 1.0, 10.0, 1e5), ids=repr)
def test_suite_arcs_agree_with_mpmath_at_each_spheres_count(monkeypatch, k):
    # the counts of suites._GEODESIC_SPHERE_RADII: 32 segments at
    # rho = 0.1k and 64 at 1k reach the rounding floor; 5k keeps the
    # default 1024, whose bits the suite's arcs keep
    counts = {rho: n for rho, _, n in suites._GEODESIC_SPHERE_RADII}
    assert counts == {0.1: 32, 1.0: 64, 5.0: 1024}
    worst = {rho: 0.0 for rho in counts}
    for seed in (7, 42):
        arcs = _suite_arcs(monkeypatch, k, seed)
        assert len(arcs) == 3 * 16
        for sphere, p, q, n, arc in arcs:
            rho, = (r for r in counts if sphere.radius == r * k)
            assert n == counts[rho]
            reference = _mpmath_arc(sphere, p, q)
            worst[rho] = max(worst[rho], float(abs(arc - reference) / reference))
            if rho == 5.0:
                assert arc.hex() == intrinsic_arc_length(sphere, p, q).hex()
    assert worst[0.1] < 2e-15 and worst[1.0] < 2e-15
    assert worst[5.0] < 1e-12


def test_sphere_model_measures_each_spheres_arcs_in_one_call(monkeypatch):
    rows = []

    def record(sphere, p, q, m, *, base_segments):
        rows.append(len(m.rows))
        return intrinsic_arc_length(sphere, p, q, m, base_segments=base_segments)

    monkeypatch.setattr(suites, "intrinsic_arc_length", record)
    run_suite("sphere-model", SuiteConfig(seed=42, samples=100))
    assert rows == [16, 16, 16]


def test_sphere_model_raises_the_first_refused_arcs_error(monkeypatch):
    def refuse_two(sphere, p, q, m, *, base_segments):
        arc = intrinsic_arc_length(sphere, p, q, m, base_segments=base_segments)
        rows = np.arange(len(m.rows))
        m.refuse(rows == 9, DomainError, "row 9")
        m.refuse(rows == 4, DegenerateError, "row 4")
        return arc

    monkeypatch.setattr(suites, "intrinsic_arc_length", refuse_two)
    with pytest.raises(DegenerateError, match="row 4"):
        run_suite("sphere-model", SuiteConfig(seed=42, samples=100))


def _row_point(point, i):
    """Row i of a point of coordinate columns, as a float point."""
    return ModelPoint(point.model, tuple(c[i].item() for c in point.coords), point.k)


def _arc_outcome(sphere, p, q, n):
    """The float call's length as bits, or the type and message of what
    it raises."""
    try:
        return intrinsic_arc_length(sphere, p, q, base_segments=n).hex()
    except Exception as exc:
        return (type(exc), str(exc))


def test_column_arcs_are_the_float_arcs_row_by_row():
    # 12 spheres of 20 arcs at each radius and count of the suite's
    # table, k = 2^U(-20, 20), centers at and off the origin, and in
    # every other row directions in a coordinate plane (a coordinate the
    # row holds constant moves in the next). The last six spheres have a
    # coincident pair, an antipodal pair, a point off the sphere and a
    # nan direction in their first four rows
    g = sample_stream(19, 0)
    rows = 20
    checked = 0
    for i in range(12):
        k = float(2.0 ** g.uniform(-20.0, 20.0))
        r = float(g.uniform(0.0, 2.0)) if i % 2 else 0.0
        axis = g.normal(size=3)
        axis *= math.sinh(r) / np.linalg.norm(axis)
        center = ModelPoint.hyperboloid((math.cosh(r), *axis.tolist()), k)
        rho, _, n = suites._GEODESIC_SPHERE_RADII[i % 3]
        sphere = GeodesicSphere(center, rho * k)
        directions = g.normal(size=(2, 4, rows))
        if i % 4 >= 2:
            directions[:, 1 + i % 3, ::2] = 0.0
        special = i >= 6
        if special:
            directions[1, :, 0] = directions[0, :, 0]
            directions[1, :, 1] = -directions[0, :, 1]
            directions[0, 1, 3] = math.nan
        with Columns(np.arange(rows)) as m:
            p, q = (sphere.point_toward(tuple(d), m) for d in directions)
        if special:
            off = GeodesicSphere(center, 1.5 * rho * k).point_toward(tuple(directions[0, :, 2]))
            p = ModelPoint(p.model, tuple(np.where(np.arange(rows) == 2, x, c)
                                          for x, c in zip(off.coords, p.coords)), k)
        with Columns(np.arange(rows)) as m:
            arcs = intrinsic_arc_length(sphere, p, q, m, base_segments=n)
        for row in range(rows):
            p_row, q_row = _row_point(p, row), _row_point(q, row)
            if not (special and row < 4):
                assert p_row == sphere.point_toward(tuple(directions[0, :, row].tolist()))
            expected = _arc_outcome(sphere, p_row, q_row, n)
            if row in m.errors:
                error = m.errors[row]
                assert (type(error), str(error)) == expected
            else:
                assert arcs[row].hex() == expected
            checked += 1
        if special:
            assert sorted(m.errors) == [0, 1, 2]
            assert [type(m.errors[row]) for row in range(3)] == [
                DegenerateError, DegenerateError, DomainError]
            assert math.isnan(arcs[3]) and np.isfinite(arcs[3:]).sum() == rows - 4
        else:
            assert m.errors == {} and np.isfinite(arcs).all()
    assert checked >= 200


# float.hex of intrinsic_arc_length(GeodesicSphere(center, rho * k), p, q)
# for the fixed directions below; every bit is pinned, so a change in
# how the polylines are traced must reproduce them exactly
_ARC_DIRECTIONS = ((0.0, 0.6, 0.8, 0.0), (0.0, -0.2, 0.3, 0.9))
_PINNED_ARCS = (
    (0.001, 0.1, '0x1.2fe708fe28a89p-13'),
    (0.001, 1.0, '0x1.bdb0a47b8342cp-10'),
    (0.001, 5.0, '0x1.b7b4ff2e25dbfp-4'),
    (1.0, 0.1, '0x1.28c79ec833b4ap-3'),
    (1.0, 1.0, '0x1.b33e80a09e2f0p+0'),
    (1.0, 5.0, '0x1.ad66c13310f8cp+6'),
    (1000.0, 0.1, '0x1.21d2f10f827e7p+7'),
    (1000.0, 1.0, '0x1.a90b099cda7a2p+10'),
    (1000.0, 5.0, '0x1.a35658abde92ep+16'),
)


@pytest.mark.parametrize("k, rho, expected", _PINNED_ARCS)
def test_intrinsic_arc_length_bits_are_pinned(k, rho, expected):
    center = ModelPoint(Model.HYPERBOLOID, (k, 0.0, 0.0, 0.0), k)
    sphere = GeodesicSphere(center, rho * k)
    p, q = (sphere.point_toward(d) for d in _ARC_DIRECTIONS)
    assert intrinsic_arc_length(sphere, p, q).hex() == expected


# more pins, one per way a coordinate column of the trace can behave:
# off the origin the frame has nonzero time components; directions in a
# coordinate plane leave one spatial coordinate constant along the arc;
# and where the squared hyperboloid coordinates overflow (rho / k near
# 700, or k = 1e300) the frame and the length are nan
_OFF_ORIGIN = (1.3, 0.4, -0.7, 0.5)
_AT_ORIGIN = (1.0, 0.0, 0.0, 0.0)
_PLANAR_DIRECTIONS = ((0.0, 1.0, 0.0, 0.0), (0.0, 0.3, 0.7, 0.0))
_PINNED_COLUMN_ARCS = (
    (_OFF_ORIGIN, 0.001, 0.1, _ARC_DIRECTIONS, '0x1.3ee6fec5c6804p-13'),
    (_OFF_ORIGIN, 0.001, 1.0, _ARC_DIRECTIONS, '0x1.d3b028b6ae84cp-10'),
    (_OFF_ORIGIN, 0.001, 5.0, _ARC_DIRECTIONS, '0x1.cd68ea4cf3f9dp-4'),
    (_OFF_ORIGIN, 1.0, 0.1, _ARC_DIRECTIONS, '0x1.376d94cd23d94p-3'),
    (_OFF_ORIGIN, 1.0, 1.0, _ARC_DIRECTIONS, '0x1.c8ba07c2666dcp+0'),
    (_OFF_ORIGIN, 1.0, 5.0, _ARC_DIRECTIONS, '0x1.c29874cf26422p+6'),
    (_OFF_ORIGIN, 1000.0, 0.1, _ARC_DIRECTIONS, '0x1.3021035055023p+7'),
    (_OFF_ORIGIN, 1000.0, 1.0, _ARC_DIRECTIONS, '0x1.be05ab93d8071p+10'),
    (_OFF_ORIGIN, 1000.0, 5.0, _ARC_DIRECTIONS, '0x1.b808e2124b5c6p+16'),
    (_AT_ORIGIN, 1.0, 1.0, _PLANAR_DIRECTIONS, '0x1.5ec39e70e00b1p+0'),
    (_OFF_ORIGIN, 1.0, 1.0, _PLANAR_DIRECTIONS, '0x1.b4e1b3e82c825p+0'),
    (_AT_ORIGIN, 0.001, 700.0, _ARC_DIRECTIONS, 'nan'),
    (_OFF_ORIGIN, 0.001, 700.0, _ARC_DIRECTIONS, 'nan'),
    (_AT_ORIGIN, 1000.0, 709.0, _ARC_DIRECTIONS, 'nan'),
    (_OFF_ORIGIN, 1.0, 709.0, _ARC_DIRECTIONS, 'nan'),
    (_AT_ORIGIN, 1e300, 0.1, _ARC_DIRECTIONS, 'nan'),
    (_OFF_ORIGIN, 1e300, 0.1, _ARC_DIRECTIONS, 'nan'),
)


@pytest.mark.parametrize("coords, k, rho, directions, expected", _PINNED_COLUMN_ARCS)
def test_intrinsic_arc_length_bits_are_pinned_on_every_column_path(
        coords, k, rho, directions, expected):
    sphere = GeodesicSphere(ModelPoint.hyperboloid(coords, k), rho * k)
    p, q = (sphere.point_toward(d) for d in directions)
    with np.errstate(invalid="ignore", over="ignore"):
        assert intrinsic_arc_length(sphere, p, q).hex() == expected


@pytest.mark.parametrize("n", (1, 3, 32, 64, 1024, 4096))
def test_strided_fine_trace_is_the_coarse_trace(n):
    # the kernel's grid is the ramp 0..8n times delta/(8n) with its last
    # point set to delta, np.linspace's arithmetic for a nonzero step;
    # the step delta/(8n) is delta/n scaled by a power of two, so every
    # eighth (fourth, second) node of the 8n-segment grid is the n (2n,
    # 4n) grid
    for delta in (1e-6, 0.1, 1.0, math.pi / 3.0, 2.0, math.pi - 1e-6):
        fine = np.arange(8 * n + 1.0) * (delta / (8 * n))
        fine[-1] = delta
        assert fine.tobytes() == np.linspace(0.0, delta, 8 * n + 1).tobytes()
        for step, coarse in ((8, n), (4, 2 * n), (2, 4 * n)):
            expected = np.linspace(0.0, delta, coarse + 1)
            assert fine[::step].tobytes() == expected.tobytes()


def _reference_arc_length(sphere, p, q, base_segments=1024):
    # one (n + 1, 4) point trace per refinement level
    k = sphere.center.k
    e1 = tangent_toward(sphere.center, p)
    t2 = tangent_toward(sphere.center, q)
    delta = tangent_angle(sphere.center, e1, t2)
    w = _tangent_part(t2, e1)
    n = _spacelike_norm(w)
    ee1, ee2 = np.array(e1), np.array(tuple(wi / n for wi in w))
    center = np.array(sphere.center.coords)
    ch, sh = math.cosh(sphere.radius / k), math.sinh(sphere.radius / k)

    def polyline(n_seg):
        theta = np.linspace(0.0, delta, n_seg + 1)
        pts = (ch * center
               + (k * sh) * (np.cos(theta)[:, None] * ee1 + np.sin(theta)[:, None] * ee2))
        d = np.diff(pts, axis=0)
        msq = np.sum(d[:, 1:] ** 2, axis=1) - d[:, 0] ** 2
        hops = 2.0 * k * np.arcsinh(0.5 * np.sqrt(np.maximum(msq, 0.0)) / k)
        return float(np.sum(hops))

    return richardson_length(polyline, base_segments)


def test_intrinsic_arc_length_equals_the_per_level_trace():
    for i in range(24):
        g = sample_stream(16, i)
        k = float(10.0 ** g.uniform(-3.0, 5.0))
        center = ModelPoint(Model.HYPERBOLOID, (k, 0.0, 0.0, 0.0), k)
        sphere = GeodesicSphere(center, float(g.choice((0.1, 1.0, 5.0))) * k)
        rays = _random_rays(g, center)
        p, q = (sphere.point_toward(r.direction) for r in rays[:2])
        for n in (1, 7, 64):
            expected = _reference_arc_length(sphere, p, q, n)
            assert intrinsic_arc_length(sphere, p, q, base_segments=n) == expected
        assert intrinsic_arc_length(sphere, p, q) == _reference_arc_length(sphere, p, q)


@pytest.mark.parametrize("k", (1e-3, 0.1, 1.0, 10.0, 100.0, 1e5))
def test_intrinsic_arc_length_equals_the_per_level_trace_on_random_frames(k):
    # centers off the origin move the time axis, and directions in a
    # coordinate plane hold a spatial axis constant
    g = sample_stream(17, round(math.log10(k) * 10) + 100)
    for i in range(8):
        r = float(g.uniform(0.0, 2.0)) if i % 2 else 0.0
        axis = g.normal(size=3)
        axis *= math.sinh(r) / np.linalg.norm(axis)
        center = ModelPoint.hyperboloid((math.cosh(r), *axis.tolist()), k)
        sphere = GeodesicSphere(center, float(g.choice((0.1, 1.0, 5.0))) * k)
        directions = g.normal(size=(2, 4))
        if i % 4 >= 2:
            directions[:, 1 + i % 3] = 0.0
        p, q = (sphere.point_toward(tuple(d.tolist())) for d in directions)
        for n in (1, 7, 64, 4096):
            expected = _reference_arc_length(sphere, p, q, n)
            assert intrinsic_arc_length(sphere, p, q, base_segments=n) == expected


def test_negative_squared_chords_clamp_as_in_the_per_level_trace():
    # on a small sphere 9 k from the origin the rounding of the large
    # coordinates makes thousands of squared chords negative
    k, r = 1e-3, 9.0
    center = ModelPoint.hyperboloid(
        (math.cosh(r), math.sinh(r) / 3.0, 2.0 * math.sinh(r) / 3.0,
         2.0 * math.sinh(r) / 3.0), k)
    sphere = GeodesicSphere(center, 1e-4 * k)
    p, q = (sphere.point_toward(d) for d in _ARC_DIRECTIONS)
    assert intrinsic_arc_length(sphere, p, q) == _reference_arc_length(sphere, p, q)


@pytest.mark.parametrize("n", (-1, 0, 2.5, 4096.0, True, None, "64"))
def test_arc_length_refuses_bad_segment_counts(n):
    sphere = GeodesicSphere(ORIGIN, 1.0)
    p, q = (sphere.point_toward(d) for d in _ARC_DIRECTIONS)
    with pytest.raises(DomainError, match="base_segments"):
        intrinsic_arc_length(sphere, p, q, base_segments=n)


def test_arc_length_takes_numpy_integer_segment_counts():
    sphere = GeodesicSphere(ORIGIN, 1.0)
    p, q = (sphere.point_toward(d) for d in _ARC_DIRECTIONS)
    assert (intrinsic_arc_length(sphere, p, q, base_segments=np.int64(7))
            == intrinsic_arc_length(sphere, p, q, base_segments=7))


@pytest.mark.skipif(sys.platform != "linux", reason="counts glibc's mmap page faults")
def test_arc_traces_fault_no_pages_after_warm_up():
    # fresh trace arrays of 131,080 bytes are each an mmap, faulted in
    # page by page: about 224 faults per call without the kept buffers.
    # sphere-model alternates 128, 512 and 4096 segments; a buffer
    # replaced at each change of size faulted about 290 pages over the
    # 48 calls below
    resource = pytest.importorskip("resource")
    sphere = GeodesicSphere(ModelPoint.hyperboloid(_OFF_ORIGIN, 1.0), 1.0)
    p, q = (sphere.point_toward(d) for d in _ARC_DIRECTIONS)
    counts = (128, 512, 4096)
    for n in counts:
        intrinsic_arc_length(sphere, p, q, base_segments=n)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(16):
        for n in counts:
            intrinsic_arc_length(sphere, p, q, base_segments=n)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 32


def test_sphere_model_traces_in_one_kept_buffer_of_1_11_mb():
    # a fresh thread's buffers: two rows at 1024 segments and the ramp of
    # 8193 points, kept from the first arc of the first run to the last
    # of the second
    kept = []

    def trace():
        for _ in range(2):
            run_suite("sphere-model", SuiteConfig(seed=42, samples=16))
            ws = geodesic_sphere._workspace
            kept.append((ws.arc, len(ws.arc) + len(ws.ramp)))

    thread = threading.Thread(target=trace)
    thread.start()
    thread.join(timeout=60.0)
    (first, size), (second, _) = kept
    assert first is second and size == 8 * 2 * 8193 + 8193


def test_reused_trace_buffers_change_no_bit():
    # one thread's buffers serve calls at every segment count, after
    # calls that raise and a call whose trace is nan; an off-origin
    # center moves the time column, which the origin center leaves stale
    spheres = [GeodesicSphere(ModelPoint.hyperboloid(c, k), rho * k)
               for c, k, rho in ((_AT_ORIGIN, 1.0, 1.0), (_OFF_ORIGIN, 1e-3, 5.0),
                                 (_AT_ORIGIN, 1e3, 0.1))]
    arcs = [(s, *(s.point_toward(d) for d in _ARC_DIRECTIONS)) for s in spheres]
    huge = GeodesicSphere(ModelPoint.hyperboloid(_OFF_ORIGIN, 1.0), 709.0)
    nan_arc = (huge, *(huge.point_toward(d) for d in _ARC_DIRECTIONS))
    sphere, p, _ = arcs[0]
    off = ModelPoint.hyperboloid((math.cosh(2.0), math.sinh(2.0), 0.0, 0.0), 1.0)
    for n in (4096, 7, 1, 64, 4096):
        for arc in arcs:
            expected = _reference_arc_length(*arc, n)
            assert intrinsic_arc_length(*arc, base_segments=n).hex() == expected.hex()
        with pytest.raises(DomainError):
            intrinsic_arc_length(sphere, p, off, base_segments=n)
        with pytest.raises(DegenerateError):
            intrinsic_arc_length(sphere, p, p, base_segments=n)
        with np.errstate(invalid="ignore", over="ignore"):
            assert intrinsic_arc_length(*nan_arc, base_segments=n).hex() == "nan"
            assert _reference_arc_length(*nan_arc, n).hex() == "nan"


def test_threads_keep_their_own_trace_buffers():
    # numpy releases the GIL inside its loops, so two threads sharing
    # one set of buffers would overwrite each other's traces; the counts
    # mix, as in sphere-model, so buffers grow while the other thread traces
    arcs = []
    for i in range(48):
        g = sample_stream(18, i)
        k = float(10.0 ** g.uniform(-3.0, 3.0))
        coords = _OFF_ORIGIN if i % 2 else _AT_ORIGIN
        sphere = GeodesicSphere(ModelPoint.hyperboloid(coords, k),
                                float(g.choice((0.1, 1.0, 5.0))) * k)
        directions = g.normal(size=(2, 4))
        arcs.append((sphere, *(sphere.point_toward(tuple(d.tolist())) for d in directions)))
    counts = (128, 512, 4096)

    def length(i):
        return intrinsic_arc_length(*arcs[i], base_segments=counts[i % 3]).hex()

    serial = [length(i) for i in range(len(arcs))]
    barrier = threading.Barrier(2)
    traced = [None, None]

    def trace(t):
        barrier.wait()
        traced[t] = [length(i) for i in range(t, len(arcs), 2)]

    threads = [threading.Thread(target=trace, args=(t,)) for t in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert traced == [serial[0::2], serial[1::2]]


def test_point_toward_lands_on_the_sphere():
    sphere = GeodesicSphere(ORIGIN, 2.5)
    p = sphere.point_toward((0.0, 0.6, 0.8, 0.0))
    assert model_distance(ORIGIN, p) == pytest.approx(2.5, rel=1e-13)


def test_degenerate_ray_pairs_are_rejected():
    sphere = GeodesicSphere(ORIGIN, 1.0)
    same = Ray.at(ORIGIN, (0.0, 1.0, 0.0, 0.0))
    third = Ray.at(ORIGIN, (0.0, 0.0, 1.0, 0.0))
    with pytest.raises(DegenerateError):
        geodesic_sphere_triangle(sphere, (same, same, third))
    anti = Ray.at(ORIGIN, (0.0, -1.0, 0.0, 0.0))
    with pytest.raises(DegenerateError):
        geodesic_sphere_triangle(sphere, (same, anti, third))


def test_rays_must_sit_at_the_center():
    sphere = GeodesicSphere(ORIGIN, 1.0)
    off = ModelPoint.hyperboloid((2.0, 1.0, 0.0, 0.5), 1.0)
    rays = (Ray.at(off, (0.0, 1.0, 0.0, 0.0)),) + _orthogonal_rays(ORIGIN)[1:]
    with pytest.raises(DomainError):
        geodesic_sphere_triangle(sphere, rays)


def test_arc_length_rejects_points_off_the_sphere():
    sphere = GeodesicSphere(ORIGIN, 1.0)
    p = sphere.point_toward((0.0, 1.0, 0.0, 0.0))
    q = ModelPoint.hyperboloid((math.cosh(2.0), math.sinh(2.0), 0.0, 0.0), 1.0)
    with pytest.raises(DomainError):
        intrinsic_arc_length(sphere, p, q)


def test_constructor_validation():
    with pytest.raises(DomainError):
        GeodesicSphere(ModelPoint.sphere((1.0, 0.0, 0.0)), 1.0)
    with pytest.raises(DomainError):
        GeodesicSphere(ORIGIN, 0.0)
    with pytest.raises(DomainError):
        GeodesicSphere(ModelPoint.hyperboloid((1.0, 0.0, 0.0)), 1.0)  # 3-comp


def test_constructor_refuses_a_radius_where_cosh_overflows():
    # past rho/k of about 710 no finite point lies on the sphere
    last = float.fromhex("0x1.633ce8fb9f87dp+9")  # the largest x with finite cosh(x)
    for k in (1.0, 2.0 ** -30, 2.0 ** 30):
        center = ModelPoint(Model.HYPERBOLOID, (k, 0.0, 0.0, 0.0), k)
        for rho in (math.nextafter(last, math.inf), 800.0, 1e200):
            with pytest.raises(DomainError, match=re.escape(f"sphere radius {rho * k!r} is")):
                GeodesicSphere(center, rho * k)
        GeodesicSphere(center, last * k)
    # at k = 1 the largest radius accepted gives finite points
    sphere = GeodesicSphere(ORIGIN, last)
    assert math.isfinite(sphere.effective_radius)
    assert all(map(math.isfinite, sphere.point_toward((0.0, 0.6, 0.8, 0.0)).coords))
