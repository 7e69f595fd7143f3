"""Deterministic triangle sampling measured off the concrete models.

Every sample index owns a counter-based random stream, so suites can be
evaluated in any order (or split across processes) and still reproduce
bit-identical triangles for a fixed seed.

Accuracy note. Each sampled triangle, of every kind, is synthesized
three times from the same exact parameters (b, c, A), once per vertex,
by one attempt written over the (sn, cs, eps) family of curvature.py,
and every angle is measured at the origin of its own frame, where
tangent projection is exact. The plane is the member eps = 0: its
points are built as (k, x, y) and land on the plane model as (x, y).
Measuring the far angles in a single frame instead would cost a factor
e^(2 max_side) of rounding amplification and cannot reach the residual
floors the verification suites assert. The far-vertex coordinates use
two-term rearrangements (difference angle plus a half-angle square) so
nearly-degenerate draws lose nothing to cancellation.

Uniform draws. Attempt j of an index takes uniforms jn to jn + n - 1
of the index's stream, one per bound of its sampler (n is 3 for a
triangle, 2 for the legs of a right triangle, 6 for a center-ray triple
and 10 for a cevian configuration), each mapped to lo + (hi - lo) * u,
the arithmetic of Generator.uniform(lo, hi). The per-index samplers
run one rejection loop, resolve_index, which draws them with one
g.random(n) call per attempt, as Python floats; it is the reference
that resolve_block reproduces on a block.

Blocks. sample_triangles, sample_right_triangles,
cevians.sample_cevian_configs and geodesic_sphere.center_ray_triangles
draw a range of indices at once, bit for bit what resolve_index
returns for each of them. A numpy Philox4x64-10 (Salmon et al.,
"Parallel Random Numbers: As Easy as 1, 2, 3", SC'11), keyed as
sample_stream keys it, hands every index of the block the words of its
own stream that a round needs, so a block builds no Generator; an
index whose attempt is rejected draws again in the next round of
resolve_block, the one rejection loop of every block sampler. The attempt itself (synthesis, model measurements, rejection
tests, validation) is one function, run on floats or on float64 columns
(columns.py). On the columns numpy does + - * / and sqrt, which IEEE
754 rounds correctly, and sin and cos, which give `math`'s bits; every
other function maps `math` over the column, since numpy's tan, atan2,
asinh and the rest differ from `math` in the last bit on a share of
inputs. Powers count as such a function:
x ** 2 on a Python float is C pow, which differs from x * x (and from
numpy's x ** 2, a square) on about 1 input in 1,200, so the half-angle
square is m.pow.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .columns import Columns, join, take
from .curvature import Curvature, GeometryKind
from .errors import DomainError, SamplingError
from .floats import FLOATS
from .models import MODEL_FOR_KIND, _synthesized_point, model_angle, model_distance
from .triangle import TriangleData

DEFAULT_MIN_ANGLE = 1e-3
DEFAULT_MAX_SIDE = 10.0  # units of k
DEFAULT_MIN_SIDE = 0.05  # units of k
DEFAULT_ATTEMPTS = 128
#: what a round of resolve_block costs beside its rows, in rows of
#: attempts, and the most attempts an index makes in one round
_ROUND_COST = 1024
_MAX_TRIES = 16
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


def _check_key(seed: int, index: int) -> None:
    if index < 0 or seed < 0:
        raise DomainError("seed and index must be nonnegative")
    if seed >= _KEY_WORD or index >= _KEY_WORD:
        raise DomainError(f"seed and index must be below 2**64, got ({seed}, {index})")


def sample_stream(seed: int, index: int) -> np.random.Generator:
    """Independent counter-based stream for one sample index: Philox
    keyed by seed + index * 2**64, so both must fit 64 bits."""
    _check_key(seed, index)
    key = _philox_key_type()(np.array((seed, index), dtype=np.uint64))
    return np.random.Generator(np.random.Philox(key))


# Philox4x64-10 constants (Random123): the round multipliers of lanes 0
# and 2, their 32-bit halves, and the key bumps, each shaped (2, 1, 1)
# to run against the two multiply lanes as one array. They are written
# out: computing them would run numpy's integer loops on import, whose
# pages then count toward the resident memory of every program.
_PHILOX_M = np.array([[[0xD2E7470EE14C6C93]], [[0xCA5A826395121157]]], dtype=np.uint64)
_PHILOX_M_LO = np.array([[[0xE14C6C93]], [[0x95121157]]], dtype=np.uint64)
_PHILOX_M_HI = np.array([[[0xD2E7470E]], [[0xCA5A8263]]], dtype=np.uint64)
_PHILOX_W = np.array([[[0x9E3779B97F4A7C15]], [[0xBB67AE8584CAA73B]]], dtype=np.uint64)
_PHILOX_ROUNDS = np.array(range(10), dtype=np.uint64).reshape(10, 1, 1, 1)
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def _philox_blocks(counters: np.ndarray, seed: int, indices: np.ndarray) -> tuple:
    """The four output words of counter block c of every stream keyed
    (seed, index), for each c in `counters`: four uint64 arrays of shape
    (len(counters), len(indices)).

    Lanes 0 and 2 are multiplied, so they are held as one array
    (2, len(counters), len(indices)) against the two multipliers, and so
    are lanes 1 and 3; the ten rounds' key words come from one broadcast
    (the bumps wrap, as they should). The 128-bit products are formed
    from 32-bit halves, since numpy's uint64 products wrap.
    """
    mul = np.zeros((2, len(counters), len(indices)), dtype=np.uint64)
    mul[0] = counters[:, None]
    odd = np.zeros_like(mul)
    key = np.empty((2, 1, len(indices)), dtype=np.uint64)
    key[0], key[1] = seed, indices
    keys = key + _PHILOX_ROUNDS * _PHILOX_W
    for round_key in keys:
        # the lanes' 32-bit halves become the carry and the high word in
        # place, so that a round holds about as many arrays as one lane did
        carry, hi = mul & _LOW32, mul >> _SHIFT32
        lh, hl = _PHILOX_M_LO * hi, _PHILOX_M_HI * carry
        carry *= _PHILOX_M_LO
        carry >>= _SHIFT32
        carry += lh & _LOW32
        carry += hl & _LOW32
        carry >>= _SHIFT32
        hi *= _PHILOX_M_HI
        hi += lh >> _SHIFT32
        hi += hl >> _SHIFT32
        hi += carry
        # lane 0 takes lane 2's high word and lane 2 lane 0's; lanes 1
        # and 3 take the low words the same way round
        mul, odd = hi[::-1] ^ odd ^ round_key, (_PHILOX_M * mul)[::-1]
    return mul[0], odd[0], mul[1], odd[1]


def _index_column(seed: int, start: int, stop: int) -> np.ndarray:
    """Stream indices start..stop-1 as a uint64 column, refused as
    sample_stream refuses the first index out of range."""
    _check_key(seed, start)
    _check_key(seed, min(max(start, stop - 1), _KEY_WORD))
    return np.arange(stop - start, dtype=np.uint64) + np.uint64(start)


def block_random(seed: int, indices: np.ndarray, first: int, count: int) -> np.ndarray:
    """Uniforms first..first+count-1 of each index's stream as an array
    (count, len(indices)), bit for bit what sample_stream(seed, index)
    .random() hands out in that position.

    np.random.Philox steps its counter before each block of four words,
    so word w of a stream is lane w % 4 of counter block w // 4 + 1, and
    a double is the top 53 bits of a word times 2**-53.
    """
    low = first // 4
    counters = np.arange(low + 1, (first + count - 1) // 4 + 2, dtype=np.uint64)
    # (block, lane, index) flattened to the words of each stream in order
    words = np.stack(_philox_blocks(counters, seed, indices), axis=1).reshape(-1, len(indices))
    words = words[first - 4 * low:first - 4 * low + count]
    return (words >> np.uint64(11)).astype(np.float64) * (1.0 / 9007199254740992.0)


def _scaled(bounds, draws) -> list:
    """lo + (hi - lo) * u for each (lo, hi) and u in [0, 1): the
    arithmetic of Generator.uniform(lo, hi), on floats or columns."""
    return [lo + (hi - lo) * u for (lo, hi), u in zip(bounds, draws)]


def _uniforms(g: np.random.Generator, bounds) -> list[float]:
    """One uniform on [lo, hi) per (lo, hi) in bounds, from one g.random
    call, bit for bit Generator.uniform(lo, hi)."""
    return _scaled(bounds, g.random(len(bounds)).tolist())


def _block_uniforms(seed: int, indices: np.ndarray, first: int, bounds,
                    tries: int = 1) -> list[np.ndarray]:
    """_uniforms for a column of indices and `tries` attempts each, from
    uniform `first` on: one array (tries, len(indices)) per bound."""
    draws = block_random(seed, indices, first, tries * len(bounds))
    return _scaled(bounds, draws.reshape(tries, len(bounds), len(indices)).transpose(1, 0, 2))


@dataclass(frozen=True)
class Block:
    """Figures drawn for a range of indices.

    `rows` holds the positions in the range (index - start) that gave a
    figure and `figure` their values (a TriangleData or another figure
    whose numbers are columns, one row per position; None where no
    position gave one). `errors` maps every other position to the error
    the per-index sampler raises there.
    """

    rows: np.ndarray
    figure: object
    errors: dict


def _tries(width: int, resolved: int, tried: int) -> int:
    """Attempts each of `width` unresolved indices makes in the next
    round: the number that resolves them at the least cost per index
    resolved, where a round costs _ROUND_COST rows beside its own and an
    attempt is accepted at the rate (resolved + 1) / (tried + 1) seen so
    far. One before any attempt is seen and while every attempt is
    accepted, up to _MAX_TRIES while nearly every one is rejected."""
    rejected = 1.0 - (resolved + 1) / (tried + 1)
    return min(range(1, _MAX_TRIES + 1),
               key=lambda r: (_ROUND_COST + width * r) / (1.0 - rejected ** r))


def resolve_index(seed: int, index: int, bounds, attempt, attempts: int, exhausted, *,
                  rejected=()):
    """The first accepted attempt of one index: the per-index rejection
    loop. Attempt j runs attempt(*draws, FLOATS) on uniforms
    j * len(bounds) to (j + 1) * len(bounds) - 1 of the index's stream,
    one per (lo, hi) in bounds, as _uniforms maps them. It is rejected
    where it gives None or raises one of the `rejected` errors; the
    index takes its first attempt that was accepted or raised another
    error, and after `attempts` rejections the error exhausted()."""
    g = sample_stream(seed, index)
    for _ in range(attempts):
        draws = _uniforms(g, bounds)
        try:
            figure = attempt(*draws, FLOATS)
        except rejected:
            continue
        if figure is not None:
            return figure
    raise exhausted()


def resolve_block(seed: int, start: int, stop: int, bounds, attempt, attempts: int,
                  exhausted, *, rejected=(), until_error: bool = False) -> Block:
    """The first accepted attempt of every index in [start, stop), as
    resolve_index takes it; the attempt runs on a Columns block, where a
    row that gives no figure is rejected.

    Each round runs the next attempts of every index still unresolved as
    one block of rows, as many per index as _tries gives: one in the
    first round, so a sampler that accepts its first attempts makes no
    attempt that a loop over the indices would not make, and more as the
    rejections seen make another round dearer than the extra rows.

    With until_error the caller stops at the first index that fails, as
    a loop over the indices would: the indices past a failed one are
    dropped, and while every attempt so far was rejected, the lowest
    unresolved index alone makes all its remaining attempts in the next
    round, so that a sampler that rejects everything fails in two rounds
    rather than `attempts`. Dropped indices are in neither the rows nor
    the errors of the block.
    """
    indices = _index_column(seed, start, stop)
    active = np.arange(stop - start)
    made = 0  # attempts made by every index still active
    taken, parts = [], []
    errors: dict[int, Exception] = {}
    resolved = tried = 0
    while True:
        if made >= attempts:
            errors.update((pos, exhausted()) for pos in active.tolist())
            active = active[:0]
        if until_error and errors:
            active = active[active < min(errors)]
        if not len(active):
            break
        lead = until_error and made and not resolved
        batch = active[:1] if lead else active
        width = len(batch)
        tries = attempts - made if lead else min(attempts - made,
                                                 _tries(width, resolved, tried))
        # row r * width + i holds attempt made + r of the index at batch[i]
        draws = _block_uniforms(seed, indices[batch], made * len(bounds), bounds, tries)
        with Columns(np.arange(tries * width)) as m:
            figure = attempt(*[u.reshape(-1) for u in draws], m)
        # per row: 0 rejected, 1 accepted, 2 raised
        outcome = np.zeros(tries * width, dtype=np.int8)
        if figure is not None:
            outcome[m.rows[~m.dead]] = 1
        outcome[[r for r, e in m.errors.items() if not isinstance(e, rejected)]] = 2
        grid = outcome.reshape(tries, width) != 0
        first = np.argmax(grid, axis=0)
        done = grid[first, np.arange(width)]
        row = first * width + np.arange(width)
        resolved += int(done.sum())
        tried += int(np.where(done, first + 1, tries).sum())
        ends = np.where(done, outcome[row], 0)
        took = ends == 1
        if took.any():
            taken.append(batch[took])
            parts.append(take(figure, np.searchsorted(m.rows, row[took])))
        for pos, r in zip(batch[ends == 2].tolist(), row[ends == 2].tolist()):
            errors[pos] = m.errors[r]
        if lead:
            # the lowest index has made all its attempts
            if not done[0]:
                errors[int(batch[0])] = exhausted()
            active = active[1:]
        else:
            made += tries
            active = active[~done]
    rows = np.concatenate(taken) if taken else np.zeros(0, dtype=np.intp)
    order = np.argsort(rows)
    return Block(rows[order], take(join(parts), order) if parts else None, errors)


def _triangle_attempt(b, c, A, m, *, geometry, min_angle, cap, origin):
    """One attempt at the draws (b, c, A): the triangle measured on the
    model of its kind, or None where it is rejected."""
    k = geometry.k
    model = origin.model
    sn, cs, eps, _ = m.trig[geometry.kind]
    s2 = m.pow(m.sin(0.5 * A), 2.0)
    sinA = m.sin(A)
    snb, csb, snc, csc = sn(b), cs(b), sn(c), cs(c)

    # B and C as seen from A (B down the x-axis, C at angle A); A as
    # seen from B lands on the same coordinates as B seen from A
    pb = _synthesized_point(model, (k * csc, k * snc, 0.0), k, m)
    pc = _synthesized_point(model, (k * csb, k * snb * m.cos(A), k * snb * sinA), k, m)

    # A and B as seen from C (A down the x-axis); the far vertex B
    # lands on two-term coordinates free of cancellation
    qa = _synthesized_point(model, (k * csb, k * snb, 0.0), k, m)
    qb = _synthesized_point(model, (k * (cs(b - c) - eps * 2.0 * snb * snc * s2),
                                    k * (sn(b - c) + 2.0 * csb * snc * s2),
                                    k * snc * sinA), k, m)

    # C as seen from B (A down the x-axis)
    rc = _synthesized_point(model, (k * (cs(c - b) - eps * 2.0 * snc * snb * s2),
                                    k * (sn(c - b) + 2.0 * csc * snb * s2),
                                    k * snb * sinA), k, m)

    a_m = model_distance(origin, qb, m)
    keep = m.reject((a_m > cap * k) | (a_m < 1e-12 * k))
    if keep is None:
        return None
    pb, pc, qa, qb, rc, a_m = keep(pb, pc, qa, qb, rc, a_m)
    angA = model_angle(origin, pb, pc, m)
    angB = model_angle(origin, pb, rc, m)
    angC = model_angle(origin, qa, qb, m)
    keep = m.reject(m.min(angA, angB, angC) < min_angle)
    if keep is None:
        return None
    pb, pc, a_m, angA, angB, angC = keep(pb, pc, a_m, angA, angB, angC)
    return TriangleData(a_m, model_distance(origin, pc, m), model_distance(origin, pb, m),
                        angA, angB, angC, geometry).validate(m)


def _triangle_plan(geometry: Curvature, min_angle: float, max_side: float,
                   min_side: float):
    """The uniform bounds of one attempt and the attempt itself."""
    if not (0.0 < min_angle < math.pi / 2.0):
        raise DomainError(f"min_angle must lie in (0, pi/2), got {min_angle}")
    if not (0.0 < min_side < max_side):
        raise DomainError(f"need 0 < min_side < max_side, got ({min_side}, {max_side})")
    angles = (min_angle, math.pi - min_angle)
    cap = min(max_side, SPHERE_SIDE_CAP) if geometry.kind is GeometryKind.SPHERICAL \
        else max_side
    if min_side >= cap:
        raise DomainError(f"min_side {min_side} leaves no room under the spherical cap {cap}")
    k = geometry.k
    # every frame puts its own vertex at this origin
    origin = _synthesized_point(MODEL_FOR_KIND[geometry.kind], (k, 0.0, 0.0), k)
    return (((min_side, cap),) * 2 + (angles,),
            functools.partial(_triangle_attempt, geometry=geometry,
                              min_angle=min_angle, cap=cap, origin=origin))


def _rejection_failure(geometry: Curvature, attempts: int):
    """exhausted() of an index whose `attempts` attempts were all rejected."""
    kind = "flat" if geometry.kind is GeometryKind.EUCLIDEAN else geometry.kind.value
    return functools.partial(SamplingError,
                             f"no {kind} triangle accepted in {attempts} attempts")


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
    bounds, attempt = _triangle_plan(geometry, min_angle, max_side, min_side)
    return resolve_index(seed, index, bounds, attempt, attempts,
                         _rejection_failure(geometry, attempts))


def sample_triangles(geometry: Curvature, seed: int, start: int, stop: int, *,
                     min_angle: float = DEFAULT_MIN_ANGLE,
                     max_side: float = DEFAULT_MAX_SIDE,
                     min_side: float = DEFAULT_MIN_SIDE,
                     attempts: int = DEFAULT_ATTEMPTS) -> Block:
    """sample_triangle for every index in [start, stop)."""
    bounds, attempt = _triangle_plan(geometry, min_angle, max_side, min_side)
    return resolve_block(seed, start, stop, bounds, attempt, attempts,
                         _rejection_failure(geometry, attempts))


def _right_plan(geometry: Curvature, min_leg: float, max_leg: float | None):
    """The leg bounds of the right-triangle sampler and its attempt."""
    kind = geometry.kind
    if kind is GeometryKind.EUCLIDEAN:
        raise DomainError("flat right triangles need no curvature-aware sampler")
    if max_leg is None:
        max_leg = 1.5 if kind is GeometryKind.SPHERICAL else 3.0
    if kind is GeometryKind.SPHERICAL and max_leg >= math.pi / 2.0:
        raise DomainError(f"spherical legs must stay below (pi/2) k, got cap {max_leg}")
    if not (0.0 < min_leg < max_leg):
        raise DomainError(f"need 0 < min_leg < max_leg, got ({min_leg}, {max_leg})")
    return ((min_leg, max_leg),) * 2, functools.partial(_right_triangle, geometry=geometry)


def _right_triangle(a, b, m, *, geometry: Curvature) -> TriangleData:
    """The right triangle (right angle at C) with legs a, b in units of k."""
    k = geometry.k
    sn, cs, eps, tn = m.trig[geometry.kind]
    sa, sb = sn(a), sn(b)
    # sn(c) from cs(c) = cs(a) cs(b), expanded with no cancellation
    sc = m.sqrt(sa * sa + sb * sb - eps * sa * sa * sb * sb)
    c = m.asinh(sc) if eps < 0.0 else m.atan2(sc, cs(a) * cs(b))
    A = m.atan2(tn(a), sb)
    B = m.atan2(tn(b), sa)
    return TriangleData(a * k, b * k, c * k, A, B, math.pi / 2.0, geometry).validate(m)


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
    bounds, attempt = _right_plan(geometry, min_leg, max_leg)
    return resolve_index(seed, index, bounds, attempt, 1, _rejection_failure(geometry, 1))


def sample_right_triangles(geometry: Curvature, seed: int, start: int, stop: int, *,
                           min_leg: float = DEFAULT_MIN_SIDE,
                           max_leg: float | None = None) -> Block:
    """sample_right_triangle for every index in [start, stop), one
    attempt each: every leg pair gives a triangle or raises, so none is
    rejected. The right angle C stays the constant pi/2 rather than a
    column."""
    bounds, attempt = _right_plan(geometry, min_leg, max_leg)
    return resolve_block(seed, start, stop, bounds, attempt, 1, _rejection_failure(geometry, 1))
