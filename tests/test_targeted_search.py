"""Targeted worst-case searches over the triangle sampler.

The sampled suites draw uniformly, so a corner of the box that the draws
rarely reach goes unseen. Each search here runs over the same attempt
and bounds as `sample_triangle` at k = 1 and steers `hypothesis` toward
the largest residual of every relation row (`hypothesis.target`), then
holds each row to the suites' tolerance. The searches are derandomized
and keep no example database, so every run explores the same examples.
"""

import pytest
from hypothesis import given, settings, strategies as st, target

from cctrig import (Curvature, euclidean_residuals, hyperbolic_residuals,
                    spherical_residuals)
from cctrig.floats import FLOATS
from cctrig.sampling import (DEFAULT_MAX_SIDE, DEFAULT_MIN_ANGLE, DEFAULT_MIN_SIDE,
                             _triangle_plan)

#: the tolerance of every row of the spherical, hyperbolic and euclidean
#: suites at the default base tolerance
TOLERANCE = 1e-9
#: examples per search: each search takes about 2 s
EXAMPLES = 2000


@pytest.mark.parametrize("geometry, evaluator", (
    (Curvature.hyperbolic(), hyperbolic_residuals),
    (Curvature.spherical(), spherical_residuals),
    (Curvature.euclidean(), euclidean_residuals)), ids=("hyperbolic", "spherical", "euclidean"))
def test_no_targeted_triangle_breaks_a_relation_row(geometry, evaluator):
    bounds, attempt = _triangle_plan(geometry, DEFAULT_MIN_ANGLE, DEFAULT_MAX_SIDE,
                                     DEFAULT_MIN_SIDE)
    draws = st.tuples(*(st.floats(lo, hi, exclude_max=True) for lo, hi in bounds))

    @settings(max_examples=EXAMPLES, derandomize=True, database=None, deadline=None)
    @given(draws)
    def search(draw):
        triangle = attempt(*draw, FLOATS)
        if triangle is None:  # the sampler rejects this draw
            return
        for r in evaluator(triangle):
            target(abs(r.residual), label=r.relation_id)
            assert abs(r.residual) < TOLERANCE, (r.relation_id, draw, r.residual)

    search()
