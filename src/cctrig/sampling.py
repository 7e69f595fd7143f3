"""Deterministic triangle sampling measured off the concrete models.

Every sample index owns a counter-based random stream, so suites can be
evaluated in any order (or split across processes) and still reproduce
bit-identical triangles for a fixed seed.

Accuracy note. Each sampled triangle is synthesized three times from
the same exact parameters (b, c, A), once per vertex, and every angle
is measured at the origin of its own frame, where tangent projection is
exact. Measuring the far angles in a single frame instead would cost a
factor e^(2 max_side) of rounding amplification and cannot reach the
residual floors the verification suites assert. The far-vertex
coordinates use two-term rearrangements (difference angle plus a
half-angle square) so nearly-degenerate draws lose nothing to
cancellation.

Uniform draws. Each attempt takes all of its uniforms from one
_uniforms call: one g.random(n) block of u in [0, 1), each mapped to
lo + (hi - lo) * u, the arithmetic of Generator.uniform(lo, hi). The
values are bit for bit those of one uniform call each, and they are
Python floats, so no numpy scalar reaches the model coordinates.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .curvature import CURVED_TRIG, Curvature, GeometryKind
from .errors import DomainError, SamplingError
from .models import (MODEL_FOR_KIND, ModelPoint, _synthesized_point,
                     model_angle, model_distance)
from .triangle import TriangleData

DEFAULT_MIN_ANGLE = 1e-3
DEFAULT_MAX_SIDE = 10.0  # units of k
DEFAULT_MIN_SIDE = 0.05  # units of k
DEFAULT_ATTEMPTS = 128
# spherical side cap (units of k), just under the quarter circumference;
# a geodesic ball of this radius is convex and inside an open hemisphere
SPHERE_SIDE_CAP = 0.49 * math.pi


#: seed and index are the low and high 64-bit words of one Philox key
_KEY_WORD = 2 ** 64


@functools.cache
def _philox_key_type() -> type:
    """The seed-sequence type that hands Philox a fixed key.

    Philox keys itself from generate_state(2, np.uint64), the low and
    high 64-bit words of the key, exactly as it splits an integer
    key=...; handing the words over this way skips the SeedSequence of
    OS entropy that Philox(key=...) builds and then discards. The type
    is built on first use: importing numpy.random along with this module
    would add about 6 MB and its load time to every program that never
    samples, such as one that only solves triangles.
    """
    from numpy.random.bit_generator import ISeedSequence

    class PhiloxKey(ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return PhiloxKey


def sample_stream(seed: int, index: int) -> np.random.Generator:
    """Independent counter-based stream for one sample index: Philox
    keyed by seed + index * 2**64, so both must fit 64 bits."""
    if index < 0 or seed < 0:
        raise DomainError("seed and index must be nonnegative")
    if seed >= _KEY_WORD or index >= _KEY_WORD:
        raise DomainError(f"seed and index must be below 2**64, got ({seed}, {index})")
    key = _philox_key_type()(np.array((seed, index), dtype=np.uint64))
    return np.random.Generator(np.random.Philox(key))


def _uniforms(g: np.random.Generator, bounds) -> list[float]:
    """One uniform on [lo, hi) per (lo, hi) in bounds, from one g.random
    call: lo + (hi - lo) * u is Generator.uniform(lo, hi) bit for bit."""
    draws = g.random(len(bounds)).tolist()
    return [lo + (hi - lo) * u for (lo, hi), u in zip(bounds, draws)]


def sample_triangle(geometry: Curvature, seed: int, index: int = 0, *,
                    min_angle: float = DEFAULT_MIN_ANGLE,
                    max_side: float = DEFAULT_MAX_SIDE,
                    min_side: float = DEFAULT_MIN_SIDE,
                    attempts: int = DEFAULT_ATTEMPTS) -> TriangleData:
    """Draw one triangle against the model for `geometry` and return it
    with all six elements measured off model points.

    Side bounds are in units of the curvature scale. Draws whose third
    side leaves [~0, max_side] or whose angles fall under min_angle are
    rejected; the attempt budget bounds the rejection loop.
    """
    if not (0.0 < min_angle < math.pi / 2.0):
        raise DomainError(f"min_angle must lie in (0, pi/2), got {min_angle}")
    if not (0.0 < min_side < max_side):
        raise DomainError(f"need 0 < min_side < max_side, got ({min_side}, {max_side})")
    g = sample_stream(seed, index)
    kind = geometry.kind
    if kind is GeometryKind.EUCLIDEAN:
        t = _sample_flat(g, geometry, min_angle, max_side, min_side, attempts)
    else:
        t = _sample_curved(g, geometry, min_angle, max_side, min_side, attempts)
    return t.validate()


def _sample_flat(g, geometry, min_angle, max_side, min_side, attempts):
    bounds = ((min_side, max_side),) * 2 + ((min_angle, math.pi - min_angle),)
    for _ in range(attempts):
        b, c, A = _uniforms(g, bounds)
        pa = ModelPoint.plane(0.0, 0.0)
        pb = ModelPoint.plane(c, 0.0)
        pc = ModelPoint.plane(b * math.cos(A), b * math.sin(A))
        a_m = model_distance(pb, pc)
        if a_m > max_side or a_m < 1e-12:
            continue
        angA = model_angle(pa, pb, pc)
        angB = model_angle(pb, pc, pa)
        angC = model_angle(pc, pa, pb)
        if min(angA, angB, angC) < min_angle:
            continue
        return TriangleData(a_m, model_distance(pc, pa), model_distance(pa, pb),
                            angA, angB, angC, geometry)
    raise SamplingError(f"no flat triangle accepted in {attempts} attempts")


def _sample_curved(g, geometry, min_angle, max_side, min_side, attempts):
    k = geometry.k
    sn, cs, eps = CURVED_TRIG[geometry.kind]
    model = MODEL_FOR_KIND[geometry.kind]
    cap = min(max_side, SPHERE_SIDE_CAP) if eps > 0.0 else max_side
    if min_side >= cap:
        raise DomainError(f"min_side {min_side} leaves no room under the spherical cap {cap}")
    # every frame puts its own vertex at this origin
    origin = _synthesized_point(model, (k, 0.0, 0.0), k)
    bounds = ((min_side, cap),) * 2 + ((min_angle, math.pi - min_angle),)
    for _ in range(attempts):
        b, c, A = _uniforms(g, bounds)
        s2 = math.sin(0.5 * A) ** 2
        sinA = math.sin(A)

        # B and C as seen from A (B down the x-axis, C at angle A); A as
        # seen from B lands on the same coordinates as B seen from A
        pb = _synthesized_point(model, (k * cs(c), k * sn(c), 0.0), k)
        pc = _synthesized_point(
            model, (k * cs(b), k * sn(b) * math.cos(A), k * sn(b) * sinA), k)

        # A and B as seen from C (A down the x-axis); the far vertex B
        # lands on two-term coordinates free of cancellation
        qa = _synthesized_point(model, (k * cs(b), k * sn(b), 0.0), k)
        qb = _synthesized_point(model, (k * (cs(b - c) - eps * 2.0 * sn(b) * sn(c) * s2),
                                        k * (sn(b - c) + 2.0 * cs(b) * sn(c) * s2),
                                        k * sn(c) * sinA), k)

        # C as seen from B (A down the x-axis)
        rc = _synthesized_point(model, (k * (cs(c - b) - eps * 2.0 * sn(c) * sn(b) * s2),
                                        k * (sn(c - b) + 2.0 * cs(c) * sn(b) * s2),
                                        k * sn(b) * sinA), k)

        a_m = model_distance(origin, qb)
        if a_m > cap * k or a_m < 1e-12 * k:
            continue
        angA = model_angle(origin, pb, pc)
        angB = model_angle(origin, pb, rc)
        angC = model_angle(origin, qa, qb)
        if min(angA, angB, angC) < min_angle:
            continue
        return TriangleData(a_m, model_distance(origin, pc), model_distance(origin, pb),
                            angA, angB, angC, geometry)
    raise SamplingError(f"no {geometry.kind.value} triangle accepted in {attempts} attempts")


def sample_right_triangle(geometry: Curvature, seed: int, index: int = 0, *,
                          min_leg: float = DEFAULT_MIN_SIDE,
                          max_leg: float | None = None) -> TriangleData:
    """Draw a right triangle (right angle at C) from uniform legs.

    Legs are in units of k; the hypotenuse and the two acute angles come
    from the cancellation-free right-triangle closed forms. No rejection
    is needed: every leg pair is feasible. The hyperbolic default cap
    keeps the hypotenuse short enough (about 5.3 k) that downstream
    constructions conditioned like cosh(hypotenuse)^2 retain at least
    twelve significant digits.
    """
    kind, k = geometry.kind, geometry.k
    if kind is GeometryKind.EUCLIDEAN:
        raise DomainError("flat right triangles need no curvature-aware sampler")
    if max_leg is None:
        max_leg = 1.5 if kind is GeometryKind.SPHERICAL else 3.0
    if kind is GeometryKind.SPHERICAL and max_leg >= math.pi / 2.0:
        raise DomainError(f"spherical legs must stay below (pi/2) k, got cap {max_leg}")
    if not (0.0 < min_leg < max_leg):
        raise DomainError(f"need 0 < min_leg < max_leg, got ({min_leg}, {max_leg})")
    a, b = _uniforms(sample_stream(seed, index), ((min_leg, max_leg),) * 2)
    sn, cs, eps = CURVED_TRIG[kind]
    sa, sb = sn(a), sn(b)
    # sn(c) from cs(c) = cs(a) cs(b), expanded with no cancellation
    sc = math.sqrt(sa * sa + sb * sb - eps * sa * sa * sb * sb)
    if eps < 0.0:
        c, tn = math.asinh(sc), math.tanh
    else:
        c, tn = math.atan2(sc, cs(a) * cs(b)), math.tan
    A = math.atan2(tn(a), sb)
    B = math.atan2(tn(b), sa)
    return TriangleData(a * k, b * k, c * k, A, B, math.pi / 2.0, geometry).validate()
