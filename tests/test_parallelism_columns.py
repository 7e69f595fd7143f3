"""The angle of parallelism and its inverse on columns: row by row the
scalar results, bit for bit, or the scalar error."""

import math

import numpy as np
import pytest

from cctrig import Curvature, inverse_parallelism, parallelism_angle
from cctrig.columns import Columns

HALF_PI = math.pi / 2.0
ANGLES = (HALF_PI, math.nextafter(HALF_PI, 0.0), 1e-308, 1e-320, 5e-324, 0.0, -1.0,
          HALF_PI + 0.1, math.nan)


def _outcome(fn, x, curv):
    try:
        return float(fn(x, curv)).hex()
    except Exception as exc:
        return (type(exc), str(exc))


def _lengths(k):
    # p/k = 744 gives a subnormal angle, 746 one that underflows to 0
    return (0.0, -0.0, 5e-324, k, 744.0 * k, 746.0 * k, -0.1, math.inf, math.nan)


@pytest.mark.parametrize("fn, values", ((parallelism_angle, _lengths),
                                        (inverse_parallelism, lambda k: ANGLES)),
                         ids=("angle", "inverse"))
@pytest.mark.parametrize("k", (1.0, 1e-3, 2.5), ids=repr)
def test_parallelism_kernels_on_columns_are_the_scalar_ones(fn, values, k):
    curv = Curvature.hyperbolic(k)
    column = np.array(values(k))
    expected = [_outcome(fn, x, curv) for x in column.tolist()]
    with Columns(np.arange(len(column))) as m:
        out = fn(column, curv, m)
    got = [(type(m.errors[i]), str(m.errors[i])) if i in m.errors else float(out[i]).hex()
           for i in range(len(column))]
    assert got == expected
    assert 0 < len(m.errors) < len(column)
