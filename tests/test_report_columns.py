"""Report rows from columns, and the integer knobs of a suite run."""

import math

import numpy as np
import pytest

from cctrig import DomainError, SuiteConfig, make_row


def _row_or_error(values):
    try:
        return make_row("demo", values, 1e-9)
    except DomainError as exc:
        return str(exc)


def _floats(n, rng):
    # signed zeros, subnormals and values from 1e-300 to 1e3, with repeats
    pool = np.concatenate([[0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1060],
                           rng.choice((-1.0, 1.0), n) * 10.0 ** rng.uniform(-300, 3, n)])
    return rng.choice(pool, n)


@pytest.mark.parametrize("n", (1, 100, 101))
def test_make_row_on_a_column_is_make_row_on_its_list(n):
    rng = np.random.default_rng(n)
    floats = _floats(n, rng)
    complexes = np.array([complex(x, y) for x, y in zip(floats, _floats(n, rng))], dtype=object)
    for column in (floats, complexes):
        assert make_row("demo", column, 1e-9) == make_row("demo", column.tolist(), 1e-9)
    for bad in (math.inf, -math.inf, math.nan):
        column = floats.copy()
        column[n // 2] = bad
        assert _row_or_error(column) == _row_or_error(column.tolist())
        assert _row_or_error(column) == "non-finite residual in relation demo"
        with_bad = complexes.copy()
        with_bad[n // 2] = complex(1.0, bad)
        assert _row_or_error(with_bad) == _row_or_error(with_bad.tolist())


@pytest.mark.parametrize("knobs", ({"samples": True}, {"seed": False}, {"seed": True}),
                         ids=repr)
def test_suite_config_refuses_bools(knobs):
    # a bool is an int, and the json report would print it as True or False
    with pytest.raises(DomainError):
        SuiteConfig(**knobs)

