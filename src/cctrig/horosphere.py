"""Triangles on a horosphere, realized as a horizontal plane of the
upper half-space model.

The plane z = h carries the induced metric (k/h) |dx|, a flat metric:
intrinsic distances are the chart distances scaled by k/h and intrinsic
angles equal chart angles (the model is conformal). Horospherical
triangles therefore satisfy Euclidean trigonometry exactly, which is
what the verification suite checks, alongside an ambient polyline
cross-check that the scaled chart length really is the induced length.

horosphere_triangle takes its elementary functions from `m`
(columns.py), so it measures one triangle or a block of them;
chart_triangles draws and measures a block.
"""

from __future__ import annotations

import math

import numpy as np

from .columns import FLOATS, Columns
from .curvature import Curvature
from .errors import DegenerateError, DomainError
from .models import ModelPoint, model_angle, model_distance, richardson_length
from .sampling import Block, sample_stream
from .triangle import TriangleData


def _chart_point(p) -> ModelPoint:
    x, y = p
    if type(x) is not np.ndarray:  # numpy scalars become Python floats
        x, y = float(x), float(y)
    return ModelPoint.plane(x, y)


def horosphere_triangle(height: float, p1, p2, p3, k: float = 1.0,
                        m=FLOATS) -> TriangleData:
    """Triangle with vertices at chart points p1, p2, p3 (pairs) on the
    horosphere z = height. Angle slots follow vertex order: A at p1,
    B at p2, C at p3. With a Columns namespace the chart coordinates are
    columns and so is the triangle."""
    if not (math.isfinite(height) and height > 0.0):
        raise DomainError(f"horosphere height must be positive, got {height}")
    q1, q2, q3 = _chart_point(p1), _chart_point(p2), _chart_point(p3)
    scale = k / height
    a = scale * model_distance(q2, q3, m)
    b = scale * model_distance(q3, q1, m)
    c = scale * model_distance(q1, q2, m)
    bad = m.min(a, b, c) == 0.0
    if bad is not False:
        m.refuse(bad, DegenerateError, "coincident vertices on the horosphere")
    A = model_angle(q1, q2, q3, m)
    B = model_angle(q2, q3, q1, m)
    C = model_angle(q3, q1, q2, m)
    bad = (m.min(A, B, C) == 0.0) | (m.max(A, B, C) >= math.pi)
    if bad is not False:
        m.refuse(bad, DegenerateError, "collinear vertices on the horosphere")
    return TriangleData(a, b, c, A, B, C, Curvature.euclidean()).validate(m)


def chart_triangles(k: float, seed: int, start: int, stop: int) -> Block:
    """Random triangles on the horosphere z = k of scale k, one per index
    of [start, stop), with their chart vertices uniform on [-2k, 2k)^2.

    Each index draws its six chart coordinates from its own stream with
    Generator.uniform, which refuses a range that overflows (k above
    about 4.5e307); perfbench's traced accept ratio counts these streams
    as the draws. A triangle with an angle under 1e-3 or a side under
    1e-3 k gives no row; Block.errors holds the error of each index
    horosphere_triangle refuses.
    """
    pts = np.array([sample_stream(seed, i).uniform(-2.0 * k, 2.0 * k, size=6)
                    for i in range(start, stop)]).T.copy()
    with Columns(np.arange(stop - start)) as m:
        t = horosphere_triangle(k, pts[0:2], pts[2:4], pts[4:6], k, m)
        keep = m.reject((m.min(*t.angles()) < 1e-3) | (m.min(*t.sides()) < 1e-3 * k))
    return Block(m.rows, None if keep is None else keep(t)[0], m.errors)


def intrinsic_distance(height: float, p, q, k: float = 1.0) -> float:
    """Distance inside the horosphere between two of its points."""
    if not (math.isfinite(height) and height > 0.0):
        raise DomainError(f"horosphere height must be positive, got {height}")
    return (k / height) * model_distance(_chart_point(p), _chart_point(q))


def ambient_polyline_length(height: float, p, q, k: float = 1.0, *,
                            base_segments: int = 1024) -> float:
    """Length of the horosphere geodesic from p to q measured with the
    ambient hyperbolic metric: the straight chart segment is subdivided,
    consecutive points are joined by ambient distances, and three
    refinement levels are Richardson-extrapolated. Converges to
    intrinsic_distance(height, p, q, k); the suite checks that.

    The chart points are built once, at the finest level; every fourth
    and every second of them are the coarser levels' points bit for bit,
    since i/(4n) and (i/4)/n round the same quotient. Points and their
    differences are exact IEEE operations in numpy too; the hops stay on
    `math`, whose hypot and asinh numpy's do not match in the last bits.

    The chords of a level differ only by the rounding of the points, so
    a few distinct chords repeat many times. The hop is computed once per
    distinct chord, keyed by the bits of its two components, and fsum
    gets the same hops in the same order as one hop per chord would give
    it: equal bits give equal hops, and chords with unequal bits, two
    nans among them, are never merged (hypot(inf, nan) is inf)."""
    if not (math.isfinite(height) and height > 0.0):
        raise DomainError(f"horosphere height must be positive, got {height}")
    px, py = float(p[0]), float(p[1])
    dx, dy = float(q[0]) - px, float(q[1]) - py
    fine = 4 * base_segments
    t = np.arange(1, fine + 1) / fine
    xs = np.concatenate(([px], px + t * dx))
    ys = np.concatenate(([py], py + t * dy))
    two_k = 2.0 * k

    def polyline(n_seg: int) -> float:
        step = fine // n_seg
        ix, cx = _ranks((xs[step::step] - xs[:-1:step]).view(np.uint64))
        iy, cy = _ranks((ys[step::step] - ys[:-1:step]).view(np.uint64))
        pair = ix * len(cy) + iy
        pairs = _distinct(pair)
        chords = map(math.hypot, cx[pairs // len(cy)].view(np.float64).tolist(),
                     cy[pairs % len(cy)].view(np.float64).tolist())
        hops = np.array([two_k * math.asinh(0.5 * s / height) for s in chords])
        return math.fsum(hops[np.searchsorted(pairs, pair)].tolist())

    return richardson_length(polyline, base_segments)


def _distinct(a: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-D array, sorted (np.unique's result,
    which costs about ten times as much on a level's 4096 chords)."""
    a = np.sort(a)
    first = np.empty(len(a), dtype=bool)
    first[:1] = True
    np.not_equal(a[1:], a[:-1], out=first[1:])
    return a[first]


def _ranks(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each value's index among the distinct values of a, and those values."""
    values = _distinct(a)
    return np.searchsorted(values, a), values
