"""Triangle solvers: closed-form cases, round trips, infeasibility."""

import importlib.util
import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cctrig import (Curvature, DegenerateError, DomainError, GeometryKind,
                    InfeasibleError, SimilarityError, sample_triangle,
                    solve_from_aaa, solve_from_asa, solve_from_sas, solve_from_sss)
from cctrig.cli import main
from cctrig.sampling import block_indices, sample_triangles

SPH = Curvature.spherical()
HYP = Curvature.hyperbolic()
EUC = Curvature.euclidean()

ARCCOSH_2 = 1.3169578969248168
ACOS_2_3 = 0.8410686705679302
PI_3 = 1.0471975511965979
A_OCTANT_HALF = 0.9553166181245093

GEOMETRIES = (SPH, EUC, HYP)
#: the benchmark's solve scales; powers of two, so scaling is exact
SCALES = (0.5, 1.0, 4.0)
#: allowed roundings against the mpmath reference, times (1 + condition)
REFERENCE_ULPS = 64.0
#: longest side, in units of k, that the SAS properties draw
SAS_SIDE_CAPS = {GeometryKind.SPHERICAL: 3.0, GeometryKind.EUCLIDEAN: 6.0,
                 GeometryKind.HYPERBOLIC: 6.0}


def _assert_close(t, u, tol=1e-10):
    for x, y in zip(t.sides() + t.angles(), u.sides() + u.angles()):
        assert abs(x - y) < tol


def _assert_round_trip(t, u, given):
    """u, solved from t's `given` elements, returns them bit for bit and
    the others within _assert_close's tolerance."""
    _assert_close(t, u)
    assert [getattr(u, name) for name in given] == [getattr(t, name) for name in given]


def test_sss_hyperbolic_equilateral():
    t = solve_from_sss(HYP, ARCCOSH_2, ARCCOSH_2, ARCCOSH_2)
    for angle in t.angles():
        assert angle == pytest.approx(ACOS_2_3, abs=1e-12)


def test_sss_spherical_octant():
    t = solve_from_sss(SPH, math.pi / 2.0, math.pi / 2.0, math.pi / 2.0)
    for angle in t.angles():
        assert angle == pytest.approx(math.pi / 2.0, abs=1e-12)


def test_sss_spherical_right_isosceles():
    t = solve_from_sss(SPH, math.pi / 4.0, math.pi / 4.0, PI_3)
    assert t.C == pytest.approx(math.pi / 2.0, abs=1e-12)
    assert t.A == pytest.approx(A_OCTANT_HALF, abs=1e-12)
    assert t.B == pytest.approx(A_OCTANT_HALF, abs=1e-12)


def test_sas_euclidean_345():
    t = solve_from_sas(EUC, 3.0, math.pi / 2.0, 4.0)
    assert t.a == pytest.approx(5.0, abs=1e-14)
    assert t.A == pytest.approx(math.pi / 2.0, abs=1e-14)


def test_aaa_hyperbolic_equilateral():
    t = solve_from_aaa(HYP, ACOS_2_3, ACOS_2_3, ACOS_2_3)
    for side in t.sides():
        assert side == pytest.approx(ARCCOSH_2, abs=1e-12)


@pytest.mark.parametrize("geometry", GEOMETRIES, ids=lambda g: g.kind.value)
def test_sss_round_trip_on_sampled_triangles(geometry):
    for i in range(150):
        t = sample_triangle(geometry, seed=11, index=i, max_side=5.0)
        _assert_round_trip(t, solve_from_sss(geometry, t.a, t.b, t.c), "abc")


@pytest.mark.parametrize("geometry", GEOMETRIES, ids=lambda g: g.kind.value)
def test_sas_round_trip_on_sampled_triangles(geometry):
    for i in range(150):
        t = sample_triangle(geometry, seed=11, index=i, max_side=5.0)
        _assert_round_trip(t, solve_from_sas(geometry, t.b, t.A, t.c), "bAc")


@pytest.mark.parametrize("geometry", GEOMETRIES, ids=lambda g: g.kind.value)
def test_asa_round_trip_on_sampled_triangles(geometry):
    for i in range(150):
        t = sample_triangle(geometry, seed=11, index=i, max_side=5.0)
        _assert_round_trip(t, solve_from_asa(geometry, t.B, t.a, t.C), "BaC")


@pytest.mark.parametrize("geometry", (SPH, HYP), ids=lambda g: g.kind.value)
def test_aaa_round_trip_on_sampled_triangles(geometry):
    for i in range(150):
        t = sample_triangle(geometry, seed=11, index=i, max_side=5.0)
        _assert_round_trip(t, solve_from_aaa(geometry, t.A, t.B, t.C), "ABC")


def test_curvature_scale_consistency():
    t1 = solve_from_sss(Curvature.hyperbolic(3.0), 3.0, 4.5, 6.0)
    t2 = solve_from_sss(HYP, 1.0, 1.5, 2.0)
    for x, y in zip(t1.angles(), t2.angles()):
        assert abs(x - y) < 1e-14


def test_triangle_inequality_violations():
    with pytest.raises(InfeasibleError):
        solve_from_sss(EUC, 1.0, 2.0, 5.0)
    with pytest.raises(InfeasibleError):
        solve_from_sss(HYP, 0.2, 0.2, 0.5)


def test_spherical_perimeter_cap():
    with pytest.raises(InfeasibleError):
        solve_from_sss(SPH, 2.2, 2.2, 2.2)


def test_aaa_rejects_flat_similarity():
    with pytest.raises(SimilarityError):
        solve_from_aaa(EUC, 1.0, 1.0, math.pi - 2.0)


def test_aaa_excess_sign_is_enforced():
    with pytest.raises(DegenerateError):
        solve_from_aaa(HYP, math.pi / 3.0, math.pi / 3.0, math.pi / 3.0)
    with pytest.raises(InfeasibleError):
        solve_from_aaa(SPH, 0.5, 0.5, 0.5)
    with pytest.raises(InfeasibleError):
        solve_from_aaa(HYP, 1.2, 1.2, 1.2)


def test_asa_rejects_flat_angles_that_leave_nothing():
    # on the hyperboloid the two lines still meet, behind the given side
    for geometry in (EUC, HYP):
        with pytest.raises(InfeasibleError):
            solve_from_asa(geometry, 1.6, 0.01, 1.6)


def test_bad_values_raise_domain_errors():
    with pytest.raises(DomainError):
        solve_from_sss(EUC, -1.0, 2.0, 2.0)
    with pytest.raises(DomainError):
        solve_from_sss(SPH, math.pi + 0.2, 1.0, 1.0)
    with pytest.raises(DomainError):
        solve_from_sas(HYP, 1.0, math.pi, 1.0)
    with pytest.raises(DomainError):
        solve_from_asa(HYP, 0.0, 1.0, 0.5)
    with pytest.raises(DomainError):
        solve_from_asa(HYP, 1e-170, 1.0, 1e-170)


def test_near_degenerate_thin_triangle_still_solves():
    t = solve_from_sss(EUC, 1.0, 1.0, 2.0 - 1e-12)
    assert t.C == pytest.approx(math.pi, abs=1e-5)
    assert math.isfinite(t.A) and t.A > 0.0


def test_half_angle_squares_are_correctly_rounded_products():
    # at these inputs C pow, which Python's x ** 2 calls, rounds the
    # square once more than x * x does, and the result moves by an ulp
    b, A, c = 1.1870631200711634, 2.37007769287785, 0.5753820947672985
    d, half = math.sinh(0.5 * (b - c)), math.sin(0.5 * A)
    assert math.pow(d, 2) != d * d
    a = 2.0 * math.asinh(math.sqrt(d * d + math.sinh(b) * math.sinh(c) * half * half))
    assert solve_from_sas(HYP, b, A, c).a == a

    B, a, C = 0.6953412425772116, 0.5146268513145105, 0.6772521776712273
    s_half, c_half = math.sin(0.5 * a), math.cos(0.5 * a)
    c_sum, s_diff = math.cos(0.5 * (B + C)), math.sin(0.5 * (B - C))
    assert (math.pow(s_half, 2), math.pow(c_half, 2), math.pow(c_sum, 2),
            math.pow(s_diff, 2)) != (s_half * s_half, c_half * c_half, c_sum * c_sum,
                                     s_diff * s_diff)
    qm = c_sum * c_sum + math.sin(B) * math.sin(C) * (s_half * s_half)
    qp = s_diff * s_diff + math.sin(B) * math.sin(C) * (c_half * c_half)
    assert solve_from_asa(SPH, B, a, C).A == 2.0 * math.atan2(math.sqrt(qm), math.sqrt(qp))


@pytest.fixture(scope="module")
def mpref():
    """The benchmark's 50-digit mpmath reference, loaded from its file."""
    pytest.importorskip("mpmath")
    path = Path(__file__).resolve().parents[1] / "perfbench" / "mpref.py"
    spec = importlib.util.spec_from_file_location("mpref", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _reference_misses(mpref, geometry, mode, values, solver):
    """The elements of `solver(geometry, *values)` that miss mpmath."""
    kind, k = geometry.kind.value, geometry.k
    t = solver(geometry, *values)
    exact = mpref.solve(kind, k, mode, values)
    kappa = mpref.condition(lambda *v: mpref.solve(kind, k, mode, v), values)
    return [f"{mode} {kind} k={k} {values}: {name} = {got!r}, reference "
            f"{float(ref)!r} (kappa {kap:.3g})"
            for name, got, ref, kap in zip("abcABC", t.sides() + t.angles(), exact, kappa)
            if not mpref.agrees(got, ref, kap, REFERENCE_ULPS)]


def _sliver(rng, kind, needle):
    """Sides in units of k of a needle or a flat triangle, drawn as the
    benchmark's solve-batch draws its slivers."""
    cap = 1.4 if kind is GeometryKind.SPHERICAL else 4.0
    t = 10.0 ** rng.uniform(-6.0, -2.0)
    if needle:
        b = rng.uniform(0.2, cap)
        a = b * t
        return a, b, b + a * rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 0.9)
    b, c = rng.uniform(0.1, cap / 2.0), rng.uniform(0.1, cap / 2.0)
    return (b + c) * (1.0 - t), b, c


@pytest.mark.parametrize("kind", list(GeometryKind), ids=lambda g: g.value)
@pytest.mark.parametrize("mode", ("asa", "sas"))
def test_sliver_solves_agree_with_mpmath(mpref, mode, kind):
    # each sliver's sides and mpmath angles, rounded, give three inputs,
    # one per side (ASA) or per vertex (SAS); every element of every
    # solve is graded
    solver = solve_from_asa if mode == "asa" else solve_from_sas
    rng = random.Random(1301)
    misses = []
    for k in SCALES:
        geometry = Curvature(kind, k)
        for i in range(10):
            sides = tuple(x * k for x in _sliver(rng, kind, needle=i % 2 == 0))
            A, B, C = (float(x) for x in mpref.solve(kind.value, k, "sss", sides)[3:])
            a, b, c = sides
            inputs = {"asa": ((B, a, C), (C, b, A), (A, c, B)),
                      "sas": ((b, A, c), (c, B, a), (a, C, b))}[mode]
            for values in inputs:
                misses += _reference_misses(mpref, geometry, mode, values, solver)
    assert misses == []


def test_spherical_sas_near_pi_agrees_with_mpmath(mpref):
    # a = pi k - O(1e-6 .. 1e-2): the enclosed side's sine is near 0, so
    # an arcsine of it loses most of its digits
    rng = random.Random(1302)
    misses = []
    for k in SCALES:
        for _ in range(20):
            b = rng.uniform(1.0, 2.0)
            c = math.pi - b - 10.0 ** rng.uniform(-6.0, -2.0)
            A = math.pi - 10.0 ** rng.uniform(-6.0, -2.0)
            misses += _reference_misses(mpref, Curvature.spherical(k), "sas",
                                        (b * k, A, c * k), solve_from_sas)
    assert misses == []


@st.composite
def _sas_inputs(draw, scale):
    """(geometry, (b, A, c)): k from `scale`, each side 10^U(-3, log10
    cap) times k, and A at least 1e-3 away from 0 and pi."""
    kind = draw(st.sampled_from(list(GeometryKind)))
    k = draw(scale)
    top = math.log10(SAS_SIDE_CAPS[kind])
    b, c = (10.0 ** draw(st.floats(-3.0, top)) * k for _ in "bc")
    return Curvature(kind, k), (b, draw(st.floats(1e-3, math.pi - 1e-3)), c)


@settings(derandomize=True, database=None, deadline=None, max_examples=600)
@given(_sas_inputs(st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e)))
def test_sas_agrees_with_mpmath_across_scales(mpref, inputs):
    geometry, values = inputs
    assert _reference_misses(mpref, geometry, "sas", values, solve_from_sas) == []


@settings(derandomize=True, database=None, deadline=None, max_examples=600)
@given(_sas_inputs(st.just(1.0)), st.integers(-60, 60))
def test_sas_scales_exactly_with_k(inputs, e):
    # multiplying by 2^e is exact, so the solve at k = 2^e must be the
    # solve at k = 1 with its sides scaled
    geometry, (b, A, c) = inputs
    s = 2.0 ** e
    t = solve_from_sas(geometry, b, A, c)
    u = solve_from_sas(Curvature(geometry.kind, s), b * s, A, c * s)
    assert u.sides() == tuple(x * s for x in t.sides())
    assert u.angles() == t.angles()


def _asa_values(mpref, geometry, sas_values):
    """(B, a, C) of the triangle that the SAS values give, rounded from
    mpmath's solution."""
    a, _, _, _, B, C = mpref.solve(geometry.kind.value, geometry.k, "sas", sas_values)
    return float(B), float(a), float(C)


@settings(derandomize=True, database=None, deadline=None, max_examples=600)
@given(_sas_inputs(st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e)))
def test_asa_agrees_with_mpmath_across_scales(mpref, inputs):
    # one angle near pi: B + C rounded before a sine or cosine loses the
    # digits that angle-addition products keep
    geometry, values = inputs
    values = _asa_values(mpref, geometry, values)
    assert _reference_misses(mpref, geometry, "asa", values, solve_from_asa) == []


@settings(derandomize=True, database=None, deadline=None, max_examples=600)
@given(_sas_inputs(st.just(1.0)), st.integers(-60, 60))
def test_asa_scales_exactly_with_k(mpref, inputs, e):
    geometry, values = inputs
    B, a, C = _asa_values(mpref, geometry, values)
    s = 2.0 ** e
    t = solve_from_asa(geometry, B, a, C)
    u = solve_from_asa(Curvature(geometry.kind, s), B, a * s, C)
    assert u.sides() == tuple(x * s for x in t.sides())
    assert u.angles() == t.angles()


def test_asa_near_pi_keeps_its_digits():
    # B near pi: sin(B + C) and cos((B + C)/2) of the rounded sum left b
    # 2.3e-14 and 3.8e-14 below its exact value, 1.0 in both
    assert solve_from_asa(EUC, 3.133772333349264, 0.9990000305479704,
                          7.820240529099084e-06).b == 1.0
    b = solve_from_asa(HYP, 3.1376812697727376, 0.9990000076394131,
                       3.3282594646722188e-06).b
    assert abs(b - 1.0) <= 2.0 * math.ulp(1.0)


def test_asa_rays_that_diverge_are_infeasible(capsys):
    with pytest.raises(InfeasibleError):
        solve_from_asa(HYP, 0.6, 30.0, 0.6)
    code = main(["solve", "--geometry", "hyperbolic", "--mode", "asa", "0.6", "30", "0.6"])
    err = capsys.readouterr().err
    assert code == 3
    assert json.loads(err.strip().splitlines()[-1])["error"] == "infeasible"


@pytest.mark.parametrize("geometry, values", [
    (SPH, (1e-160, 1.0, 1e-160)), (HYP, (1e-160, 1.0, 1e-160)),
    (EUC, (1e-160, 1.0, 1e-160)), (EUC, (1e160, 1.0, 1e160))],
    ids=("spherical_tiny", "hyperbolic_tiny", "euclidean_tiny", "euclidean_huge"))
def test_sas_keeps_its_digits_at_both_ends_of_the_double_range(mpref, monkeypatch,
                                                                geometry, values):
    # sn(b) sn(c), b c on the plane, is subnormal at 1e-160 and overflows
    # at 1e160. At 50 digits the reference cannot tell cos(1e-160) from
    # 1; at 1,400 it can
    monkeypatch.setattr(mpref, "DIGITS", 1400)
    assert _reference_misses(mpref, geometry, "sas", values, solve_from_sas) == []


def test_flat_sampled_angles_agree_with_mpmath(mpref):
    # every angle of 500 indices on each of two seeds, drawn one index at
    # a time and as a block, graded in roundings times (1 + condition)
    # against the law of cosines on the triangle's own measured sides
    grades = []
    for seed in (1, 2):
        block = sample_triangles(EUC, seed, block_indices(seed, 0, 500))
        assert block.rows.tolist() == list(range(500)) and block.errors == {}
        for i in range(500):
            t = sample_triangle(EUC, seed, i)
            assert tuple(getattr(block.figure, name)[i] for name in "abcABC") == \
                t.sides() + t.angles()
            exact = mpref.solve("euclidean", 1.0, "sss", t.sides())
            kappa = mpref.condition(lambda *s: mpref.solve("euclidean", 1.0, "sss", s),
                                    t.sides())
            for got, ref, kap in zip(t.angles(), exact[3:], kappa[3:]):
                assert mpref.agrees(got, ref, kap, REFERENCE_ULPS)
                with mpref.mp.workdps(mpref.DIGITS):
                    grades.append(float(abs(got - ref) / (mpref.EPS * (1.0 + kap) * abs(ref))))
    assert max(grades) <= 2.0
