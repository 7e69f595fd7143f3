"""Horosphere triangles obey flat trigonometry."""

import math

import numpy as np
import pytest

from cctrig import (Curvature, DegenerateError, DomainError, SuiteConfig,
                    ambient_polyline_length, angle_excess,
                    euclidean_residuals, horosphere_triangle,
                    intrinsic_distance, run_suite, sample_stream, suites)
from cctrig.models import richardson_length


def test_chart_345_triangle_at_unit_height():
    t = horosphere_triangle(1.0, (0.0, 4.0), (3.0, 0.0), (0.0, 0.0))
    assert sorted(t.sides()) == pytest.approx([3.0, 4.0, 5.0], abs=1e-14)
    assert t.C == pytest.approx(math.pi / 2.0, abs=1e-15)
    assert t.geometry == Curvature.euclidean()


def test_height_rescales_sides_but_not_angles():
    t1 = horosphere_triangle(1.0, (0.0, 4.0), (3.0, 0.0), (0.0, 0.0))
    t2 = horosphere_triangle(2.0, (0.0, 4.0), (3.0, 0.0), (0.0, 0.0))
    for s1, s2 in zip(t1.sides(), t2.sides()):
        assert s2 == pytest.approx(0.5 * s1, rel=1e-15)
    assert t1.angles() == pytest.approx(t2.angles(), abs=1e-15)


def test_random_triangles_have_flat_angle_sums():
    worst = 0.0
    produced = 0
    index = 0
    while produced < 300:
        g = sample_stream(21, index)
        index += 1
        pts = g.uniform(-2.0, 2.0, size=(3, 2))
        try:
            t = horosphere_triangle(1.0, pts[0], pts[1], pts[2])
        except (DomainError, DegenerateError):
            continue
        worst = max(worst, abs(angle_excess(t)))
        produced += 1
    assert worst < 1e-12


def test_random_triangles_satisfy_the_flat_laws():
    worst = 0.0
    produced = 0
    index = 0
    while produced < 300:
        g = sample_stream(22, index)
        index += 1
        pts = g.uniform(-2.0, 2.0, size=(3, 2))
        try:
            t = horosphere_triangle(1.0, pts[0], pts[1], pts[2])
        except (DomainError, DegenerateError):
            continue
        if min(t.angles()) < 1e-3 or min(t.sides()) < 1e-3:
            continue
        worst = max(worst, max(abs(r.residual) for r in euclidean_residuals(t)))
        produced += 1
    assert worst < 1e-10


def test_intrinsic_distance_is_the_scaled_chart_distance():
    assert intrinsic_distance(2.0, (0.0, 0.0), (3.0, 4.0), 1.0) == \
        pytest.approx(2.5, rel=1e-15)
    assert intrinsic_distance(0.5, (1.0, 1.0), (1.0, 2.0), 2.0) == \
        pytest.approx(4.0, rel=1e-15)


def test_ambient_length_matches_the_intrinsic_metric():
    for i in range(8):
        g = sample_stream(23, i)
        p, q = g.uniform(-2.0, 2.0, size=(2, 2))
        ambient = ambient_polyline_length(1.0, p, q)
        intrinsic = intrinsic_distance(1.0, p, q)
        assert abs(ambient - intrinsic) < 1e-7


@pytest.mark.parametrize("k", (0.1, 1.0, 10.0))
def test_suite_ambient_lengths_agree_with_mpmath(monkeypatch, k):
    # the suite's 8 chords at the default count, against the exact
    # length (k / height) |q - p| to 50 digits
    mpmath = pytest.importorskip("mpmath")
    chords = []

    def record(height, p, q, scale):
        length = ambient_polyline_length(height, p, q, scale)
        chords.append((height, p, q, length))
        return length

    monkeypatch.setattr(suites, "ambient_polyline_length", record)
    worst = 0.0
    for seed in (1, 2, 3):
        run_suite("horosphere", SuiteConfig(seed=seed, samples=16,
                                            curvature=Curvature.hyperbolic(k)))
    assert len(chords) == 3 * 8
    for height, p, q, length in chords:
        with mpmath.workdps(50):
            exact = (mpmath.mpf(k) / mpmath.mpf(height)
                     * mpmath.hypot(*(mpmath.mpf(float(b)) - mpmath.mpf(float(a))
                                      for a, b in zip(p, q))))
            worst = max(worst, float(abs(length - exact) / exact))
    assert worst < 2e-15


@pytest.mark.parametrize("n", (1, 3, 64, 1024))
def test_fine_chart_parameters_are_the_coarse_ones(n):
    # the kernel's chart parameters are i/(8n), i = 1..8n; at i = 8j
    # (4j, 2j) that is the double j/n (j/(2n), j/(4n)): both round the
    # same quotient, so the strided chart points are the coarse ones
    fine = np.arange(1, 8 * n + 1) / (8 * n)
    for step, coarse in ((8, n), (4, 2 * n), (2, 4 * n)):
        assert fine[step - 1::step].tobytes() == (np.arange(1, coarse + 1) / coarse).tobytes()
        assert fine[step - 1::step].tolist() == [j / coarse for j in range(1, coarse + 1)]


# float.hex of ambient_polyline_length(height, p, q, k); every bit is
# pinned, so a change in how the polylines are traced must reproduce them
_PINNED_AMBIENT = (
    ((1.0, (0.0, 0.0), (1.0, 0.5), 1.0), '0x1.1e3779b97f4a7p+0'),
    ((0.5, (-1.5, 2.0), (1.25, -0.75), 1.0), '0x1.f1cd9cceef22dp+2'),
    ((2.0, (0.3, -0.1), (-0.7, 1.9), 2.0), '0x1.1e3779b97f4a7p+1'),
    ((0.001, (0.001, 0.002), (-0.001, 0.0005), 0.001), '0x1.47ae147ae147bp-9'),
    ((1000.0, (-1500.0, 300.0), (1900.0, -1200.0), 1000.0), '0x1.d085c966ed687p+11'),
    ((3.0, (0.0, 0.0), (0.0, 1e-06), 1.0), '0x1.65e9f80f29211p-22'),
)


@pytest.mark.parametrize("args, expected", _PINNED_AMBIENT)
def test_ambient_polyline_length_bits_are_pinned(args, expected):
    assert ambient_polyline_length(*args).hex() == expected


# more pins: chords that tie (every chart step is the same), chords
# that are not finite, and the extreme scales k = 1e-300 and 1e300
_PINNED_AMBIENT_CHORDS = (
    ((1.0, (0.0, 0.0), (1.0, 0.0), 1.0), '0x1.0000000000001p+0'),
    ((1.0, (0.0, 0.0), (0.75, -0.75), 1.0), '0x1.0f876ccdf6cd9p+0'),
    ((2.0, (-3.0, 1.0), (5.0, 1.0), 1.5), '0x1.8000000000001p+2'),
    ((1.0, (0.0, 0.0), (math.inf, 0.0), 1.0), 'nan'),
    ((1.0, (0.0, 0.0), (math.inf, math.inf), 1.0), 'nan'),
    ((1.0, (0.0, 0.0), (math.nan, 1.0), 1.0), 'nan'),
    ((1.0, (-1e308, 0.0), (1e308, 1e308), 1.0), 'nan'),
    ((1.0, (0.0, -1.7e308), (1.0, 1.7e308), 1.0), 'nan'),
    ((1e308, (0.0, 0.0), (1e308, 1e308), 1e308), 'nan'),
    ((1e-300, (1e-300, -2e-300), (-1.5e-300, 0.5e-300), 1e-300), '0x1.2f1182b89d558p-995'),
    ((1e-300, (0.0, 0.0), (1e-300, 0.0), 1e-300), '0x1.56e1fc2f8f359p-997'),
    ((1e300, (1e300, -2e300), (-1.5e300, 0.5e300), 1e300), '0x1.51e0a53801e95p+998'),
    ((1e300, (0.0, 0.0), (3e300, 4e300), 1e300), '0x1.ddd4baa009303p+998'),
    ((1e300, (-1.7e308, 0.0), (1.7e308, 1.0), 1e300), 'nan'),
)


@pytest.mark.parametrize("args, expected", _PINNED_AMBIENT_CHORDS)
def test_ambient_polyline_length_bits_are_pinned_for_tied_and_non_finite_chords(
        args, expected):
    with np.errstate(invalid="ignore", over="ignore"):
        assert ambient_polyline_length(*args).hex() == expected


def _reference_ambient_length(height, p, q, k=1.0, base_segments=64):
    # one chart walk per refinement level
    px, py = float(p[0]), float(p[1])
    dx, dy = float(q[0]) - px, float(q[1]) - py

    def polyline(n_seg):
        hops = []
        prev = (px, py)
        for i in range(1, n_seg + 1):
            t = i / n_seg
            cur = (px + t * dx, py + t * dy)
            step = math.hypot(cur[0] - prev[0], cur[1] - prev[1])
            hops.append(2.0 * k * math.asinh(0.5 * step / height))
            prev = cur
        return math.fsum(hops)

    return richardson_length(polyline, base_segments)


def test_ambient_length_equals_the_per_level_walk():
    for i in range(24):
        g = sample_stream(24, i)
        k = float(10.0 ** g.uniform(-3.0, 5.0))
        height = float(k * 10.0 ** g.uniform(-1.0, 1.0))
        p, q = g.uniform(-2.0 * k, 2.0 * k, size=(2, 2))
        for n in (1, 7, 64):
            expected = _reference_ambient_length(height, p, q, k, n)
            assert ambient_polyline_length(height, p, q, k, base_segments=n) == expected
        assert ambient_polyline_length(height, p, q, k) == \
            _reference_ambient_length(height, p, q, k)


@pytest.mark.parametrize("k", (1e-3, 0.1, 1.0, 10.0, 100.0, 1e5))
def test_ambient_length_equals_the_per_level_walk_on_random_chords(k):
    # a chord along a chart axis makes every step of one component tie
    g = sample_stream(25, round(math.log10(k) * 10) + 100)
    for i in range(8):
        height = float(k * 10.0 ** g.uniform(-1.0, 1.0))
        p, q = g.uniform(-2.0 * k, 2.0 * k, size=(2, 2))
        if i % 4 >= 2:
            q[i % 2] = p[i % 2]
        for n in (1, 7, 64, 1024):
            expected = _reference_ambient_length(height, p, q, k, n)
            assert ambient_polyline_length(height, p, q, k, base_segments=n) == expected


def _length_outcome(length, height, p, q, k, n):
    """The length as bits, or the type and message of what it raises."""
    try:
        with np.errstate(invalid="ignore", over="ignore"):
            return length(height, p, q, k, base_segments=n).hex()
    except Exception as exc:
        return (type(exc), str(exc))


def _edge_chords(k, g):
    p, q = g.uniform(-2.0, 2.0, size=(2, 2)) * k
    yield p, q
    yield p, (p[0], q[1])  # along a chart axis: every x step ties
    yield p, (q[0], p[1])
    yield p + 1e6 * k, q + 1e6 * k  # far off the origin
    yield (math.inf, p[1]), q
    yield p, (q[0], math.nan)
    yield p, (-math.inf, math.inf)


@pytest.mark.parametrize("k", (1e-300, 1e-3, 1.0, 1e5, 1e300, 4e307))
def test_counted_ambient_sums_are_the_gathered_sums_at_the_edges(k):
    g = sample_stream(26, round(math.log10(k)) + 400)
    for p, q in _edge_chords(k, g):
        for n in (1, 7, 1024):
            args = (k, p, q, k, n)
            assert _length_outcome(ambient_polyline_length, *args) == \
                _length_outcome(_reference_ambient_length, *args)


@pytest.mark.parametrize("k, n", ((4e307, 1024), (4e307, 1), (1e301, 1024)))
def test_counted_ambient_sums_keep_the_gathered_sum_near_overflow(k, n):
    # finite hops whose total passes 2**1000: at 4e307 and 1024 segments
    # fsum overflows on the way, elsewhere it does not
    p, q = (0.0, 0.0), (4.0 * n, 0.0)  # chords of 1, 2 and 4 at height 1
    hop = 2.0 * k * math.asinh(0.5)
    assert math.isfinite(hop) and 4 * n * hop > 2.0 ** 1000
    args = (1.0, p, q, k, n)
    got = _length_outcome(ambient_polyline_length, *args)
    assert got == _length_outcome(_reference_ambient_length, *args)
    assert (got == (OverflowError, "intermediate overflow in fsum")) is (n == 1024 and k == 4e307)


@pytest.mark.parametrize("n", (-1, 0, 2.5, 1024.0, True, None, "64"))
def test_ambient_length_refuses_bad_segment_counts(n):
    with pytest.raises(DomainError, match="base_segments"):
        ambient_polyline_length(1.0, (0.0, 0.0), (1.0, 0.5), base_segments=n)


def test_degenerate_charts_are_rejected():
    with pytest.raises(DegenerateError):
        horosphere_triangle(1.0, (0.0, 0.0), (0.0, 0.0), (1.0, 1.0))
    with pytest.raises(DegenerateError):
        horosphere_triangle(1.0, (0.0, 0.0), (1.0, 1.0), (2.0, 2.0))


def test_height_must_be_positive():
    with pytest.raises(DomainError):
        horosphere_triangle(0.0, (0.0, 4.0), (3.0, 0.0), (0.0, 0.0))
    with pytest.raises(DomainError):
        intrinsic_distance(-1.0, (0.0, 0.0), (1.0, 0.0))
