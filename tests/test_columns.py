"""The column namespace: every value and every error of the float path."""

import math

import numpy as np
import pytest

from cctrig import (Curvature, DegenerateError, DomainError, GeodesicSphere,
                    Model, ModelPoint, Ray, TriangleData, euclidean_residuals,
                    geodesic_sphere_triangle, hyperbolic_residuals,
                    imaginary_substitution_residuals, model_angle,
                    model_distance, spherical_residuals,
                    spherical_right_residuals)
from cctrig.cevians import _triple, cevian_feet, cevian_residual
from cctrig.columns import FLOATS, Columns
from cctrig.horosphere import horosphere_triangle
from cctrig.models import _edot, _enorm, minkowski_dot
from cctrig.prism import build_prism, parallelism_match, replay_residuals
from cctrig.sampling import _right_triangle

SPH = Curvature.spherical()
HYP = Curvature.hyperbolic()
EUC = Curvature.euclidean()


def _bits(x):
    if isinstance(x, complex):
        return (x.real.hex(), x.imag.hex())
    return float(x).hex()


def _outcome(fn):
    try:
        return fn()
    except Exception as exc:
        return (type(exc), str(exc))


def _flat(value, i=None):
    """The numbers in a result as float.hex strings: row i of columns,
    and constants as they are."""
    if isinstance(value, (tuple, list)):
        return tuple(x for v in value for x in _flat(v, i))
    if hasattr(value, "__dataclass_fields__"):
        return tuple(x for v in vars(value).values() for x in _flat(v, i))
    if type(value) is np.ndarray:
        return (_bits(value[i:i + 1].tolist()[0]),)
    if isinstance(value, (float, complex)):
        return (_bits(value),)
    return ()  # relation ids, kinds, models


def _rowwise(compute, rows):
    """compute(m, *columns) on columns built from `rows` must give, row by
    row, what compute(FLOATS, *row) gives on floats: the same bits or the
    same error."""
    expected = [_outcome(lambda r=r: _flat(compute(FLOATS, *r))) for r in rows]
    columns = [np.array(c) for c in zip(*rows)]
    with Columns(np.arange(len(rows))) as m:
        out = compute(m, *columns)
    # results are aligned with the rows still computed, m.rows
    got = [(type(m.errors[i]), str(m.errors[i])) if i in m.errors
           else _flat(out, int(np.searchsorted(m.rows, i))) for i in range(len(rows))]
    assert got == expected
    return m


def _product_rows(n, count, rng):
    """Rows of two n-vectors, u then v, on which a sum of products is easy
    to round in more than one way: near cancellation, ties broken by a
    tiny last term, wide exponents, subnormals and signed zeros."""
    u, v = rng.normal(size=(2, count, n))
    a = rng.uniform(1.0, 2.0, count)
    near = u.copy()
    near[:, 1] = -a + rng.uniform(-1e-10, 1e-10, count)
    near[:, 0] = a
    tie = u.copy()
    tie[:, 0], tie[:, 1] = a, np.spacing(a) / 2.0 * rng.choice([-1.0, 1.0], count)
    tie[:, -1] *= 2.0 ** rng.integers(-160, -54, count)
    ones = np.ones((count, n))
    wide = u * 2.0 ** rng.integers(-500, 500, (count, n))
    sub = rng.integers(-1000, 1000, (count, n)) * 2.0 ** -1074
    rows = np.concatenate([
        np.concatenate([u, v], axis=1),
        np.concatenate([near, ones], axis=1),
        np.concatenate([tie, ones], axis=1),
        np.concatenate([wide, v], axis=1),
        np.concatenate([sub, ones], axis=1),
    ])
    zeros = [(-0.0,) * n + (1.0,) * n, (-0.0,) * n + (-1.0,) * n, (0.0, -0.0) * n]
    return [tuple(r) for r in rows.tolist()] + zeros


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_edot_on_columns_is_the_float_edot_bit_for_bit(n):
    # both paths add the products left to right, so IEEE 754 rounds every
    # row alike; a zero sum keeps its sign on both, as -0.0 + -0.0 does
    rows = _product_rows(n, 2_000, np.random.default_rng(17 + n))
    m = _rowwise(lambda m, *c: (_edot(c[:n], c[n:], m), _enorm(c[:n], m)), rows)
    assert not m.errors
    assert math.copysign(1.0, _edot((-0.0,) * n, (1.0,) * n)) == -1.0


def test_minkowski_dot_and_the_cevian_triple_on_columns_are_the_float_ones():
    rows4 = _product_rows(4, 2_000, np.random.default_rng(23))
    _rowwise(lambda m, *c: minkowski_dot(c[:4], c[4:], m), rows4)
    rows3 = _product_rows(3, 2_000, np.random.default_rng(29))
    _rowwise(lambda m, *c: minkowski_dot(c[:3], c[3:], m), rows3)
    triples = [r + s[:3] for r, s in zip(rows3, reversed(rows3))]
    m = _rowwise(lambda m, *c: _triple(c[0:3], c[3:6], c[6:9]), triples)
    assert not m.errors


def test_out_of_range_products_give_one_non_finite_value_on_both_paths():
    # no row raises: an overflowing product is inf, and inf - inf is nan
    rows = ((1.0, 2.0, 3.0, 4.0), (1e200, 1e200, 1e200, -1e200),
            (1e300, 1e300, 1e10, 1e10), (math.inf, 1.0, 0.0, 1.0),
            (math.inf, -math.inf, 1.0, 1.0))
    m = _rowwise(lambda m, *c: _edot(c[:2], c[2:], m), rows)
    assert not m.errors
    assert [_edot(r[:2], r[2:]) for r in rows[:1]] == [11.0]
    assert [math.isnan(_edot(r[:2], r[2:])) for r in rows[1:]] == [True, False, True, True]
    assert _edot(rows[2][:2], rows[2][2:]) == math.inf


def test_mapped_functions_record_the_row_that_raises():
    with Columns(np.array([10, 11, 12])) as m:
        out = m.sinh(np.array([1.0, 1000.0, 2.0]))
        root = m.sqrt(np.array([4.0, -1.0, 9.0]))
    assert out[0] == math.sinh(1.0) and out[2] == math.sinh(2.0)
    assert set(m.errors) == {11} and type(m.errors[11]) is OverflowError
    assert root[0] == 2.0 and root[2] == 3.0
    assert m.dead.tolist() == [False, True, False]


def _sin_cos_spread():
    """Inputs on which a vectorized sin or cos most easily misses math's
    bits: signed zeros, subnormals, |x| from 1e-300 to 1e300, and points
    within a few ulps of multiples of pi/2, including the double nearest
    a multiple of pi/2 (6381956970095103 * 2**797, Muller)."""
    rng = np.random.default_rng(19)
    magnitudes = 10.0 ** rng.uniform(-300.0, 300.0, 20_000)
    subnormals = rng.integers(1, 2 ** 52, 200) * 2.0 ** -1074
    multiples = np.concatenate([np.arange(1.0, 2_001.0), 2.0 ** np.arange(11.0, 1000.0, 7.0)])
    near = np.append(multiples * (math.pi / 2.0), 6381956970095103.0 * 2.0 ** 797)
    steps = [near]
    for _ in range(3):
        steps = [np.nextafter(steps[0], -np.inf)] + steps + [np.nextafter(steps[-1], np.inf)]
    spread = np.concatenate([[0.0, 5e-324, 2.0 ** -1022, 1e-300, 1.0, 1e300, 1.7976931348623157e308],
                             magnitudes, subnormals, *steps])
    return np.concatenate([spread, -spread])


@pytest.mark.parametrize("ufunc, fn", ((np.sin, math.sin), (np.cos, math.cos)),
                         ids=("sin", "cos"))
def test_numpy_sin_and_cos_give_math_bits(ufunc, fn):
    # the column rule takes sin and cos from numpy on this premise alone;
    # a numpy build whose bits differ fails here, by name. Offsets and
    # lengths move the inputs across the vector loops' lanes and tails
    x = _sin_cos_spread()
    expected = np.array([fn(v) for v in x.tolist()])
    for start, stop in ((0, None), (1, None), (3, -5), (7, 16)):
        got = ufunc(x[start:stop])
        assert got.tobytes() == expected[start:stop].tobytes()


def test_column_sin_and_cos_are_the_scalar_ones_on_nan_and_inf():
    rows = [(v,) for v in (0.5, -0.0, math.nan, math.inf, 1e300, -math.inf, 2.0, -math.nan)]
    for name in ("sin", "cos"):
        m = _rowwise(lambda m, x: getattr(m, name)(x), rows)
        assert sorted(m.errors) == [3, 5]
    # a column without an infinity goes to numpy, which keeps nan rows
    with Columns(np.arange(3)) as m:
        out = m.sin(np.array([math.nan, 1.0, -0.0]))
    assert not m.errors and math.isnan(out[0]) and _bits(out[2]) == _bits(-0.0)


def test_max_and_min_keep_the_builtins_nan_rule():
    nan = math.nan
    for args in ((nan, 1.0, 2.0), (1.0, nan, 2.0), (2.0, 1.0, nan), (-0.0, 0.0, -0.0)):
        columns = [np.array([x]) for x in args]
        for ours, builtin in ((Columns.max, max), (Columns.min, min)):
            assert _bits(ours(*columns)[0]) == _bits(builtin(*args))


#: one row per invariant validate checks, with a row that passes in between
_TRIANGLE_ROWS = [
    (1.0, 1.1, 1.2, 1.0, 1.0, 1.1),
    (-1.0, 1.1, 1.2, 1.0, 1.0, 1.1),
    (1.0, math.nan, 1.2, 1.0, 1.0, 1.1),
    (1.0, 1.1, math.inf, 1.0, 1.0, 1.1),
    (1.0, 1.1, 1.2, 0.0, 1.0, 1.1),
    (1.0, 1.1, 1.2, 1.0, math.nan, 1.1),
    (1.0, 1.1, 1.2, 1.0, 1.0, math.pi),
    (1.0, 1.1, 3.0, 1.0, 1.0, 1.1),
    (3.1, 3.0, 3.0, 1.0, 1.0, 1.1),
    (2.5, 2.4, 2.3, 1.0, 1.0, 1.1),
    (0.5, 0.6, 0.7, 0.9, 1.0, 1.2),
]


@pytest.mark.parametrize("geometry", (SPH, EUC, HYP), ids=repr)
def test_validate_masks_raise_the_scalar_errors(geometry):
    m = _rowwise(lambda m, *f: TriangleData(*f, geometry).validate(m), _TRIANGLE_ROWS)
    assert len(m.errors) >= 7


@pytest.mark.parametrize("evaluator, geometry", (
    (spherical_residuals, SPH), (euclidean_residuals, EUC),
    (hyperbolic_residuals, HYP), (imaginary_substitution_residuals, HYP),
    (spherical_right_residuals, SPH)), ids=lambda x: getattr(x, "__name__", repr(x)))
def test_evaluators_on_columns_are_the_scalar_evaluators(evaluator, geometry):
    rows = _TRIANGLE_ROWS + [
        (0.0, 1.0, 1.0, 1.0, 1.0, 1.0),                 # the zero-side refusal
        (0.4, 0.5, 0.6, 0.8, 0.9, math.pi / 2.0),       # a right angle at C
        (0.4, 0.5, 0.6, 0.8, 0.9, math.pi / 2.0 + 1e-6),
        (700.0, 700.0, 700.0, 0.5, 0.5, 0.5),           # cosh overflows
        (354.0, 354.0, 354.0, 0.5, 0.5, 0.5),           # products overflow
    ]
    _rowwise(lambda m, *f: evaluator(TriangleData(*f, geometry), m=m), rows)


def _sphere_point(m, x, y, z):
    return ModelPoint.sphere((x, y, z), 2.0, m)


def test_model_helpers_on_columns_are_the_scalar_helpers():
    rng = np.random.default_rng(5)
    rows = [tuple(rng.normal(size=9)) for _ in range(50)]
    rows += [(0.0, 0.0, 0.0) + rows[0][3:],             # cannot project
             rows[1][:3] + rows[1][:3] + rows[1][6:],   # coincident points
             (math.inf, 1.0, 1.0) + rows[2][3:]]

    def measure(m, *c):
        p, q, r = (_sphere_point(m, *c[i:i + 3]) for i in (0, 3, 6))
        return model_distance(p, q, m), model_angle(p, q, r, m)

    _rowwise(measure, rows)

    def plane(m, *c):
        p, q, r = (ModelPoint.plane(c[i], c[i + 1]) for i in (0, 2, 4))
        return model_distance(p, q, m), model_angle(p, q, r, m)

    _rowwise(plane, [row[:6] for row in rows[:50]] + [(1.0, 2.0, 1.0, 2.0, 0.0, 0.0)])


def test_geodesic_sphere_triangles_on_columns_are_the_scalar_ones():
    k = 1.5
    center = ModelPoint(Model.HYPERBOLOID, (k, 0.0, 0.0, 0.0), k)
    sphere = GeodesicSphere(center, 0.7)
    rng = np.random.default_rng(8)
    rows = [tuple(rng.normal(size=9)) for _ in range(40)]
    rows.append(rows[0][:3] + rows[0][:3] + rows[0][6:])   # parallel rays

    def cut(m, *z):
        rays = tuple(Ray.at(center, (0.0, *z[i:i + 3]), m) for i in (0, 3, 6))
        return geodesic_sphere_triangle(sphere, rays, m)

    m = _rowwise(cut, rows)
    assert any(type(e) in (DegenerateError, DomainError) for e in m.errors.values())


@pytest.mark.parametrize("k", (1.0, 0.1, 10.0, 1e-170, 1e300), ids=repr)
def test_prism_figures_on_columns_are_the_scalar_figures(k):
    geometry = Curvature.hyperbolic(k)
    rng = np.random.default_rng(11)
    rows = [tuple(rng.uniform(0.05, 3.0, 2).tolist()) for _ in range(60)]
    rows += [(0.0, 1.0), (1.0, 40.0), (800.0, 1.0), (25.0, 25.0)]

    def erect(m, a, b):
        figure = build_prism(_right_triangle(a, b, m, geometry=geometry), m)
        return figure, parallelism_match(figure, m), replay_residuals(figure, m)

    _rowwise(erect, rows)
    # a base that is not right-angled at C is refused row by row
    _rowwise(lambda m, *f: build_prism(TriangleData(*f, geometry), m),
             [(0.8, 1.1, 1.4, 0.6, 0.9, C) for C in (math.pi / 2.0, 1.5, math.pi / 2.0 + 1e-12)])


@pytest.mark.parametrize("height, k", ((1.0, 1.0), (0.3, 2.0), (1e-170, 1e-170)), ids=repr)
def test_horosphere_triangles_on_columns_are_the_scalar_ones(height, k):
    rng = np.random.default_rng(12)
    rows = [tuple((rng.uniform(-2.0, 2.0, 6) * k).tolist()) for _ in range(60)]
    rows += [(0.0, 0.0, 0.0, 0.0, 1.0, 1.0),        # coincident vertices
             (0.0, 0.0, 1.0, 1.0, 2.0, 2.0),        # collinear vertices
             (0.0, 0.0, 1.0, 0.0, 0.5, 1e-300),     # a needle
             (math.nan, 0.0, 1.0, 0.0, 0.0, 1.0)]

    def cut(m, *c):
        return horosphere_triangle(height, c[0:2], c[2:4], c[4:6], k, m)

    m = _rowwise(cut, rows)
    assert any(type(e) is DegenerateError for e in m.errors.values())


def _cevian_figure(geometry, m, *c):
    if geometry is EUC:
        points = [ModelPoint.plane(c[i], c[i + 1]) for i in (0, 2, 4, 6)]
    elif geometry is HYP:
        points = [ModelPoint(Model.HYPERBOLOID, (m.sqrt(1.0 + x * x + y * y), x, y), 1.0)
                  for x, y in (c[0:2], c[2:4], c[4:6], c[6:8])]
    else:
        points = [ModelPoint.sphere(c[i:i + 3], geometry.k, m) for i in (0, 3, 6, 9)]
    config = cevian_feet(geometry, *points, m)
    return config, cevian_residual(config, m)


@pytest.mark.parametrize("geometry", (EUC, SPH, Curvature.spherical(3.0), HYP), ids=repr)
def test_cevian_feet_on_columns_are_the_scalar_feet(geometry):
    rng = np.random.default_rng(13)
    # sphere points are drawn about one pole, so most triangles are small;
    # plane and sheet points are drawn in (x, y), the sheet's lifted onto it
    center = np.array([0.0, 0.0, 3.0]) if geometry.kind is SPH.kind else np.zeros(2)
    rows = []
    for _ in range(60):
        vertices = rng.normal(size=(3, len(center))) + center
        # O half way between a random point and the centroid: mostly interior
        o = 0.5 * (rng.normal(size=len(center)) + center) + 0.5 * vertices.mean(axis=0)
        rows.append(tuple(np.concatenate([vertices.ravel(), o]).tolist()))
    d = len(center)
    rows += [rows[0][:d] + rows[0][:d] + rows[0][2 * d:],      # coincident vertices
             rows[1][:3 * d] + rows[1][:d]]                     # O at a vertex
    m = _rowwise(lambda m, *c: _cevian_figure(geometry, m, *c), rows)
    assert m.errors and len(m.errors) < len(rows)
