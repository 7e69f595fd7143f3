"""Triangles on a horosphere, measured in its flat chart.

In the upper half-space picture of hyperbolic space, a horosphere about
the point at infinity is the plane z = h, and its induced metric
(k/h) |dx| is flat: intrinsic distances are the chart distances scaled
by k/h, and intrinsic angles equal chart angles (the picture is
conformal). The chart points are plane model points, measured with the
plane's model_distance and model_angle; the package keeps no half-space
model. Horospherical triangles therefore satisfy Euclidean trigonometry
exactly, which is what the verification suite checks, alongside an
ambient polyline cross-check that the scaled chart length really is
the induced length: hops of chart length s at height h are ambient
distances 2k asinh(s / 2h).

horosphere_triangle takes its elementary functions from `m`
(columns.py), so it measures one triangle or a block of them;
chart_triangles draws and measures a block.
"""

from __future__ import annotations

import math

import numpy as np

from .columns import Columns
from .curvature import Curvature, check_scale
from .errors import DegenerateError, DomainError
from .floats import FLOATS
from .models import (ModelPoint, check_segments, model_angle, model_distance,
                     richardson_length)
from .sampling import Block, sample_stream
from .triangle import TriangleData


def _chart_point(p) -> ModelPoint:
    x, y = p
    if type(x) is not np.ndarray:  # numpy scalars become Python floats
        x, y = float(x), float(y)
    return ModelPoint.plane(x, y)


def _check_height(height: float, k: float) -> None:
    if not (math.isfinite(height) and height > 0.0):
        raise DomainError(f"horosphere height must be positive, got {height}")
    check_scale(k)


def horosphere_triangle(height: float, p1, p2, p3, k: float = 1.0,
                        m=FLOATS) -> TriangleData:
    """Triangle with vertices at chart points p1, p2, p3 (pairs) on the
    horosphere z = height. Angle slots follow vertex order: A at p1,
    B at p2, C at p3. With a Columns namespace the chart coordinates are
    columns and so is the triangle."""
    _check_height(height, k)
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


def chart_triangles(k: float, seed: int, indices: np.ndarray) -> Block:
    """Random triangles on the horosphere z = k of scale k, one per index
    of the column `indices` (sampling.block_indices), with their chart
    vertices uniform on [-2k, 2k)^2.

    Each index draws its six chart coordinates from its own stream with
    Generator.uniform, which refuses a range that overflows (k above
    about 4.5e307); perfbench's traced accept ratio counts these streams
    as the draws. A triangle with an angle under 1e-3 or a side under
    1e-3 k gives no row; Block.errors holds the error of each index
    horosphere_triangle refuses.
    """
    pts = np.array([sample_stream(seed, i).uniform(-2.0 * k, 2.0 * k, size=6)
                    for i in indices.tolist()]).T.copy()
    with Columns(np.arange(len(indices))) as m:
        t = horosphere_triangle(k, pts[0:2], pts[2:4], pts[4:6], k, m)
        keep = m.reject((m.min(*t.angles()) < 1e-3) | (m.min(*t.sides()) < 1e-3 * k))
    return Block(m.rows, None if keep is None else keep(t)[0], m.errors)


def intrinsic_distance(height: float, p, q, k: float = 1.0) -> float:
    """Distance inside the horosphere between two of its points."""
    _check_height(height, k)
    return (k / height) * model_distance(_chart_point(p), _chart_point(q))


def ambient_polyline_length(height: float, p, q, k: float = 1.0, *,
                            base_segments: int = 64) -> float:
    """Length of the horosphere geodesic from p to q measured with the
    ambient hyperbolic metric: the straight chart segment is subdivided,
    consecutive points are joined by ambient distances, and four
    refinement levels (n to 8n segments) are Richardson-extrapolated.
    Converges to intrinsic_distance(height, p, q, k); the suite checks
    that. At the default n = 64 the suite's chords are within 2e-15
    relative of the exact length.

    The chart points are built once, at the finest level; every eighth,
    fourth and second of them are the coarser levels' points bit for
    bit, since i/(8n) and (i/8)/n round the same quotient. Points and their
    differences are exact IEEE operations in numpy too; the hops stay on
    `math`, whose hypot and asinh numpy's do not match in the last bits.
    Each level's hops are summed with math.fsum in chord order.

    A base_segments that is not an integer of at least 1 raises
    DomainError."""
    _check_height(height, k)
    check_segments(base_segments)
    px, py = float(p[0]), float(p[1])
    dx, dy = float(q[0]) - px, float(q[1]) - py
    fine = 8 * base_segments
    t = np.arange(1, fine + 1) / fine
    xs = np.concatenate(([px], px + t * dx))
    ys = np.concatenate(([py], py + t * dy))
    two_k = 2.0 * k

    def polyline(n_seg: int) -> float:
        step = fine // n_seg
        chords = map(math.hypot, (xs[step::step] - xs[:-1:step]).tolist(),
                     (ys[step::step] - ys[:-1:step]).tolist())
        return math.fsum([two_k * math.asinh(0.5 * s / height) for s in chords])

    return richardson_length(polyline, base_segments)
