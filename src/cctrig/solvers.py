"""Triangle solvers (SSS, SAS, ASA, AAA) for the three geometries.

Each solver returns its given elements as given and forms the others in
one path. Every inverse is atan2 or asinh, which take any finite
argument, so nothing is clamped. Angles from sides go through half-angle
tangents and SAS angles through the four-parts relation with denominator
sn(c - b) + 2 sn(b) cs(c) sin^2(A/2): neither cancels on slivers or on
sides far below the curvature scale, where arccos of a law-of-cosines
ratio loses half the digits. Where a cosine law gives an angle or a
spherical side, it is 2 atan2 of the square roots of its half-versines
(1 - cos)/2 and (1 + cos)/2, each formed from half-angle products, which
keeps its digits near 0 and pi; a half-versine that is not positive means
the requested triangle does not exist. The ambiguous side-side-angle case
is not offered.
"""

from __future__ import annotations

import math

from .curvature import TRIG, Curvature, GeometryKind
from .errors import DegenerateError, DomainError, InfeasibleError, SimilarityError
from .triangle import TriangleData


def _check_angle(value: float, name: str) -> None:
    if not (0.0 < value < math.pi):
        raise DomainError(f"angle {name} must lie strictly inside (0, pi), got {value}")


def _check_side(value: float, name: str, geometry: Curvature) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise DomainError(f"side {name} must be positive and finite, got {value}")
    if geometry.kind is GeometryKind.SPHERICAL and value >= math.pi * geometry.k:
        raise DomainError(f"spherical side {name} must stay below pi*k, got {value}")


#: the least normal double, and the power of two that scales the
#: factors of a root's sum back into the normal range
_TINY = 2.0 ** -1022
_SCALE = 2.0 ** 600


def _root_sum(d: float, x: float, y: float, h: float) -> float:
    """sqrt(d d + x y h h) for x, y > 0, where x y or the sum may leave
    the normal range, as they do for SAS sides far below or above k.
    There d, x and y are scaled by 2^600 or 2^-600, h joins each of x
    and y before they meet, and the root is scaled back, all exactly;
    elsewhere it is the plain root, bit for bit."""
    q = d * d + x * y * h * h
    if _TINY <= q < math.inf:
        return math.sqrt(q)
    s = _SCALE if q < _TINY else 1.0 / _SCALE
    d, xh, yh = d * s, x * s * h, y * s * h
    return math.sqrt(d * d + xh * yh) / s


def solve_from_sss(geometry: Curvature, a: float, b: float, c: float) -> TriangleData:
    """Solve a triangle from its three sides."""
    for name, s in (("a", a), ("b", b), ("c", c)):
        _check_side(s, name, geometry)
    # semiperimeter differences computed directly so near-degenerate
    # inputs keep their small quantities intact
    sa, sb, sc = 0.5 * (b + c - a), 0.5 * (c + a - b), 0.5 * (a + b - c)
    if sa <= 0.0 or sb <= 0.0 or sc <= 0.0:
        raise InfeasibleError(f"triangle inequality fails for sides ({a}, {b}, {c})")
    s = 0.5 * (a + b + c)
    kind, k = geometry.kind, geometry.k

    if kind is GeometryKind.SPHERICAL and 2.0 * s >= 2.0 * math.pi * k:
        raise InfeasibleError(f"spherical perimeter {2.0 * s} reaches 2*pi*k; no such triangle")

    sn = TRIG[kind][0]
    fs, fsa, fsb, fsc = sn(s / k), sn(sa / k), sn(sb / k), sn(sc / k)
    A = 2.0 * math.atan2(math.sqrt(fsb * fsc), math.sqrt(fs * fsa))
    B = 2.0 * math.atan2(math.sqrt(fsc * fsa), math.sqrt(fs * fsb))
    C = 2.0 * math.atan2(math.sqrt(fsa * fsb), math.sqrt(fs * fsc))
    return TriangleData(a, b, c, A, B, C, geometry).validate()


def solve_from_sas(geometry: Curvature, b: float, A: float, c: float) -> TriangleData:
    """Solve from two sides and the angle between them; A is returned as given.

    a comes from the half-angle law of cosines. B is atan2(sin A sn(b),
    sn(c - b) + 2 sn(b) cs(c) sin^2(A/2)), the four-parts relation with a
    two-term denominator (sides in units of k), and C is the same with b
    and c swapped.
    """
    _check_side(b, "b", geometry)
    _check_side(c, "c", geometry)
    _check_angle(A, "A")
    (sn, cs, eps, _), k = TRIG[geometry.kind], geometry.k
    half, sinA = math.sin(0.5 * A), math.sin(A)
    sn_b, sn_c, sn_cb = sn(b / k), sn(c / k), sn((c - b) / k)
    if eps == 0.0:
        # sqrt(b c), kept in range
        a = math.hypot(b - c, 2.0 * _root_sum(0.0, b, c, 1.0) * half)
    else:
        # sn(a/2) from the half-angle form of the law of cosines; squares
        # are products, as x ** 2 is C pow, which rounds once more
        rm = _root_sum(sn(0.5 * (b - c) / k), sn_b, sn_c, half)
        if eps < 0.0:
            a = 2.0 * k * math.asinh(rm)
        else:
            s_sum, c_half = math.cos(0.5 * (b + c) / k), math.cos(0.5 * A)
            qp = s_sum * s_sum + sn_b * sn_c * c_half * c_half  # cos(a/2)^2
            a = 2.0 * k * math.atan2(rm, math.sqrt(qp))
    s2 = half * half
    B = math.atan2(sinA * sn_b, sn_cb + 2.0 * sn_b * cs(c / k) * s2)
    C = math.atan2(sinA * sn_c, -sn_cb + 2.0 * sn_c * cs(b / k) * s2)
    return TriangleData(a, b, c, A, B, C, geometry).validate()


def solve_from_asa(geometry: Curvature, B: float, a: float, C: float) -> TriangleData:
    """Solve from two angles and the side between them."""
    _check_angle(B, "B")
    _check_angle(C, "C")
    _check_side(a, "a", geometry)
    k = geometry.k
    sinB, sinC = math.sin(B), math.sin(C)

    # no sine or cosine is taken of B + C: near pi it amplifies the sum's
    # rounding, so angle-addition products give the functions of the sum
    # and of the difference instead
    if geometry.kind is GeometryKind.EUCLIDEAN:
        A = math.pi - (B + C)
        if A <= 0.0:
            raise InfeasibleError(f"flat angles B + C = {B + C} leave nothing for A")
        sinA = sinB * math.cos(C) + math.cos(B) * sinC  # sin(B + C) = sin A
        return TriangleData(a, a * sinB / sinA, a * sinC / sinA, A, B, C, geometry).validate()

    # The opposite angle comes from the dual law of cosines, but through
    # half-angle products: acos of the raw expression loses enough digits
    # on slivers for cot A in the cotangent relation to amplify past any
    # useful floor. The products keep 1 -/+ cos A fully accurate wherever
    # the triangle is feasible; squares are products, as x ** 2 is C pow,
    # which rounds once more.
    sn, cs, eps, _ = TRIG[geometry.kind]
    sn_half, cs_half = sn(0.5 * a / k), cs(0.5 * a / k)
    sB, cB = math.sin(0.5 * B), math.cos(0.5 * B)
    sC, cC = math.sin(0.5 * C), math.cos(0.5 * C)
    c_sum, s_diff = cB * cC - sB * sC, sB * cC - cB * sC  # cos((B + C)/2), sin((B - C)/2)
    qm = c_sum * c_sum + eps * sinB * sinC * (sn_half * sn_half)  # (1 - cos A)/2
    qp = s_diff * s_diff + sinB * sinC * (cs_half * cs_half)  # (1 + cos A)/2
    # qm > 0 says the two lines meet. On the hyperboloid they meet on the
    # rays' side only if B + C < pi, as a triangle's angles sum below pi
    if qm <= 0.0 or (eps < 0.0 and B + C >= math.pi):
        raise InfeasibleError("the two rays diverge before meeting for "
                              f"B = {B}, a = {a}, C = {C}")
    rm, rp = math.sqrt(qm), math.sqrt(qp)
    A = 2.0 * math.atan2(rm, rp)
    # A rounds to pi, and sinA to 0, once both angles are below about 1e-162
    _check_angle(A, "A")
    sn_a = sn(a / k)
    if eps > 0.0:
        # the four-parts relation anchored to the given side
        cosB, cosC, cs_a = math.cos(B), math.cos(C), cs(a / k)
        b = k * math.atan2(sinB * sn_a, cosB * sinC + sinB * cosC * cs_a)
        c = k * math.atan2(sinC * sn_a, cosC * sinB + sinC * cosB * cs_a)
    else:
        # the law of sines, whose sinh b asinh takes at any size; the
        # four-parts form would need atanh, whose argument must stay below 1
        sinA = 2.0 * rm * rp / (qm + qp)
        b, c = k * math.asinh(sn_a * sinB / sinA), k * math.asinh(sn_a * sinC / sinA)
    return TriangleData(a, b, c, A, B, C, geometry).validate()


def solve_from_aaa(geometry: Curvature, A: float, B: float, C: float) -> TriangleData:
    """Solve from the three angles. Curvature makes this determinate:
    the angle excess fixes the size. Flat geometry raises SimilarityError,
    zero excess raises DegenerateError.
    """
    if geometry.kind is GeometryKind.EUCLIDEAN:
        raise SimilarityError("flat triangles are fixed by their angles only up to similarity")
    for name, ang in (("A", A), ("B", B), ("C", C)):
        _check_angle(ang, name)
    excess = (A + B + C) - math.pi
    k = geometry.k
    kind = geometry.kind
    eps = TRIG[kind][2]
    sins = (math.sin(A), math.sin(B), math.sin(C))
    if eps * excess < 0.0:
        raise InfeasibleError(f"{kind.value} angles need a "
                              f"{'positive' if eps > 0.0 else 'negative'} excess, got {excess}")
    if excess == 0.0:
        raise DegenerateError(f"zero excess: the {kind.value} triangle has collapsed")
    m = math.sin(0.5 * eps * excess)
    sides = []
    for X, Y, Z, sY, sZ in ((A, B, C, sins[1], sins[2]),
                            (B, C, A, sins[2], sins[0]),
                            (C, A, B, sins[0], sins[1])):
        # eps (1 - cs(side)) as a stable product: cos X + cos(Y+Z) factored
        qm = 2.0 * m * math.cos(0.5 * (X - Y - Z)) / (sY * sZ)
        if eps < 0.0:
            sides.append(2.0 * k * math.asinh(math.sqrt(0.5 * qm)))
            continue
        # 1 + cos(side) likewise; nonpositive factors mean the polar-dual
        # triangle inequality fails and no spherical triangle exists
        qp = 2.0 * math.cos(0.5 * (X + Y - Z)) * math.cos(0.5 * (X - Y + Z)) / (sY * sZ)
        if qm <= 0.0 or qp <= 0.0:
            raise InfeasibleError(f"angles ({A}, {B}, {C}) violate the spherical "
                                  "feasibility inequalities")
        sides.append(2.0 * k * math.atan2(math.sqrt(qm), math.sqrt(qp)))
    return TriangleData(sides[0], sides[1], sides[2], A, B, C, geometry).validate()
