"""Independent 50-digit reference for triangle solving and the angle of
parallelism, written with mpmath and sharing no code with cctrig.

Triangles are solved by the law of cosines and its dual:

    euclidean   a^2 = b^2 + c^2 - 2 b c cos A
    spherical   cos a = cos b cos c + sin b sin c cos A
                cos A = -cos B cos C + sin B sin C cos a
    hyperbolic  cosh a = cosh b cosh c - sinh b sinh c cos A
                cos A = -cos B cos C + sin B sin C cosh a

with sides in units of the curvature scale k. Angles from three sides
use the same law solved for 1 - cos A, so that angles far below 1e-25
(long hyperbolic sides, huge or tiny flat ones) keep their digits. The
angle of parallelism is arcsin(1/cosh(p/k)).

`condition` measures how strongly each output of a reference function
reacts to relative changes of its inputs; `agrees` turns that into the
error a double-precision answer may carry.
"""

from __future__ import annotations

import math

import mpmath
from mpmath import mp, mpf

DIGITS = 50
#: unit roundoff of IEEE doubles
EPS = 2.0 ** -53
#: relative step of the finite differences behind `condition`
_STEP = mpf(10) ** -20


def _angles_from_sides(kind: str, a, b, c):
    """(A, B, C) opposite (a, b, c); sides already divided by k."""
    def one(x, y, z):
        # 1 - cos X by the law of cosines, rearranged without cancellation
        if kind == "euclidean":
            vers = (x - y + z) * (x + y - z) / (2 * y * z)
        elif kind == "spherical":
            vers = (mpmath.cos(y - z) - mpmath.cos(x)) / (mpmath.sin(y) * mpmath.sin(z))
        else:
            vers = (mpmath.cosh(x) - mpmath.cosh(y - z)) / (mpmath.sinh(y) * mpmath.sinh(z))
        return 2 * mpmath.asin(mpmath.sqrt(vers / 2))
    return one(a, b, c), one(b, c, a), one(c, a, b)


def _side_from_angles(kind: str, X, Y, Z):
    """Side opposite X from the dual law of cosines, in units of k."""
    q = (mpmath.cos(X) + mpmath.cos(Y) * mpmath.cos(Z)) / (mpmath.sin(Y) * mpmath.sin(Z))
    return mpmath.acos(q) if kind == "spherical" else mpmath.acosh(q)


def solve(kind: str, k: float, mode: str, values) -> tuple:
    """(a, b, c, A, B, C) to DIGITS digits for one solver call.

    `mode` and the order of `values` follow the solvers: sss (a, b, c),
    sas (b, A, c), asa (B, a, C), aaa (A, B, C).
    """
    with mp.workdps(DIGITS):
        kk = mpf(1) if kind == "euclidean" else mpf(k)
        x, y, z = (mpf(v) for v in values)
        if mode == "sss":
            a, b, c = x / kk, y / kk, z / kk
        elif mode == "sas":
            b, A, c = x / kk, y, z / kk
            if kind == "euclidean":
                a = mpmath.sqrt(b * b + c * c - 2 * b * c * mpmath.cos(A))
            elif kind == "spherical":
                a = mpmath.acos(mpmath.cos(b) * mpmath.cos(c)
                                + mpmath.sin(b) * mpmath.sin(c) * mpmath.cos(A))
            else:
                a = mpmath.acosh(mpmath.cosh(b) * mpmath.cosh(c)
                                 - mpmath.sinh(b) * mpmath.sinh(c) * mpmath.cos(A))
        elif mode == "asa":
            B, a, C = x, y / kk, z
            if kind == "euclidean":
                A = mp.pi - B - C
                return (a, a * mpmath.sin(B) / mpmath.sin(A),
                        a * mpmath.sin(C) / mpmath.sin(A), A, B, C)
            ca = mpmath.cos(a) if kind == "spherical" else mpmath.cosh(a)
            A = mpmath.acos(-mpmath.cos(B) * mpmath.cos(C) + mpmath.sin(B) * mpmath.sin(C) * ca)
            b = _side_from_angles(kind, B, C, A)
            c = _side_from_angles(kind, C, A, B)
        elif mode == "aaa":
            A, B, C = x, y, z
            a = _side_from_angles(kind, A, B, C)
            b = _side_from_angles(kind, B, C, A)
            c = _side_from_angles(kind, C, A, B)
        else:
            raise ValueError(f"unknown mode {mode!r}")
        A, B, C = _angles_from_sides(kind, a, b, c)
        return (a * kk, b * kk, c * kk, A, B, C)


def parallelism_angle(p: float, k: float):
    """PI(p) = arcsin(1 / cosh(p/k))."""
    with mp.workdps(DIGITS):
        return mpmath.asin(1 / mpmath.cosh(mpf(p) / mpf(k)))


def inverse_parallelism(angle: float, k: float):
    """The p >= 0 with arcsin(1 / cosh(p/k)) = angle."""
    with mp.workdps(DIGITS):
        return mpf(k) * mpmath.acosh(1 / mpmath.sin(mpf(angle)))


def condition(fn, values) -> list:
    """Relative condition number of each output of `fn(*values)`:
    sum over inputs x_j of |x_j dF_i/dx_j| / |F_i|, by forward
    differences at DIGITS digits."""
    with mp.workdps(DIGITS):
        base = fn(*values)
        kappa = [mpf(0)] * len(base)
        for j in range(len(values)):
            moved = list(values)
            moved[j] = mpf(values[j]) * (1 + _STEP)
            out = fn(*moved)
            for i, (f0, f1) in enumerate(zip(base, out)):
                kappa[i] += abs((f1 - f0) / _STEP) / abs(f0)
        return [float(x) for x in kappa]


def agrees(computed: float, exact, kappa: float, ulps: float) -> bool:
    """True iff `computed` is within `ulps` roundings of `exact`, widened
    by the condition number: rounding the inputs alone moves an exact
    answer by kappa * EPS relative to itself."""
    if not math.isfinite(computed):
        return False
    with mp.workdps(DIGITS):
        gap = abs(mpf(computed) - exact)
        return gap <= ulps * EPS * (1.0 + kappa) * abs(exact)
