"""Targeted worst-case searches over the samplers.

The sampled suites draw uniformly, so a corner of the box that the draws
rarely reach goes unseen. Each search here runs over the same attempt
and bounds as `sample_triangle`, `sample_cevian_config` or
`sample_right_triangle` at k = 1 and steers `hypothesis` toward the
largest residual of every relation row (`hypothesis.target`), then
holds each row to its suite's tolerance. The searches are derandomized
and keep no example database, so every run explores the same examples.
"""

import pytest
from hypothesis import given, settings, strategies as st, target

from cctrig import (Curvature, GeometryKind, cevian_residual, euclidean_residuals,
                    hyperbolic_residuals, spherical_residuals,
                    spherical_right_residuals)
from cctrig.cevians import _REJECTED, _cevian_plan
from cctrig.floats import FLOATS
from cctrig.sampling import (DEFAULT_MAX_SIDE, DEFAULT_MIN_ANGLE, DEFAULT_MIN_SIDE,
                             _right_plan, _triangle_plan)

#: the tolerance of every row of the spherical, hyperbolic and euclidean
#: suites, and of the sampled Euclidean and spherical cevian rows, at the
#: default base tolerance
TOLERANCE = 1e-9
#: the tolerance of the spherical suite's right-triangle (sphr_*) rows
RIGHT_TOLERANCE = 1e-10
#: the bound on the hyperbolic cevian residual in units of its rounding
#: scale (test_hyperbolic_euler_residual_is_a_few_roundings)
GRADE_BOUND = 64.0
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


def _grade(cfg, residual):
    """|residual| in units u = 2**-53 of the Euler form's rounding scale,
    as test_hyperbolic_euler_residual_is_a_few_roundings grades it."""
    ra, rb, rc = cfg.ratios()
    form = ra * rb * rc + ra + rb + rc + 2.0
    response = abs(rb * rc - 1.0) * ra + abs(rc * ra - 1.0) * rb + abs(ra * rb - 1.0) * rc
    return abs(residual) / (2.0 ** -53 * (form + response))


@pytest.mark.parametrize("geometry", (
    Curvature.euclidean(), Curvature.spherical(), Curvature.hyperbolic()),
    ids=("euclidean", "spherical", "hyperbolic"))
def test_no_targeted_cevian_configuration_breaks_the_euler_relation(geometry):
    # the sampler's own bounds at its default max_side; the curved rows
    # at their suite tolerance, the hyperbolic one, which the suite only
    # records, at the grade bound of its rounding test
    bounds, attempt = _cevian_plan(geometry, 2.0)
    draws = st.tuples(*(st.floats(lo, hi, exclude_max=True) for lo, hi in bounds))
    hyperbolic = geometry.kind is GeometryKind.HYPERBOLIC

    @settings(max_examples=EXAMPLES, derandomize=True, database=None, deadline=None)
    @given(draws)
    def search(draw):
        try:
            cfg = attempt(*draw, FLOATS)
        except _REJECTED:  # the sampler rejects this draw
            return
        if cfg is None:
            return
        residual = cevian_residual(cfg)
        if hyperbolic:
            target(_grade(cfg, residual), label="grade")
            assert _grade(cfg, residual) <= GRADE_BOUND, (draw, residual)
        else:
            target(abs(residual), label="cev")
            assert abs(residual) < TOLERANCE, (draw, residual)

    search()


def test_no_targeted_right_triangle_breaks_a_relation_row():
    # every leg pair in the sampler's bounds gives a triangle: none is rejected
    bounds, attempt = _right_plan(Curvature.spherical(), DEFAULT_MIN_SIDE, None)
    draws = st.tuples(*(st.floats(lo, hi, exclude_max=True) for lo, hi in bounds))

    @settings(max_examples=EXAMPLES, derandomize=True, database=None, deadline=None)
    @given(draws)
    def search(draw):
        for r in spherical_right_residuals(attempt(*draw, FLOATS)):
            target(abs(r.residual), label=r.relation_id)
            assert abs(r.residual) < RIGHT_TOLERANCE, (r.relation_id, draw, r.residual)

    search()
