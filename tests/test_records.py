"""The records built per solve, per sample and per block are plain
dataclasses that compare by value.

TriangleData, RelationResidual, ModelPoint and Ray are built on every
solve and every relation evaluation, and columns.take/join rebuild them
for every block. A frozen dataclass's __init__ makes one
object.__setattr__ call per field: re-freezing these four costs the
solve-batch benchmark about a fifth of its throughput (BENCH_18).
"""

import dataclasses

import numpy as np
import pytest

from cctrig import Curvature, Model, ModelPoint, Ray, RelationResidual, TriangleData
from cctrig.columns import join, take

HYP = Curvature.hyperbolic()

#: each record built from one column x
RECORDS = {
    TriangleData: lambda x: TriangleData(x, x + 1.0, x + 2.0, x / 4.0, x / 4.0, x / 4.0, HYP),
    RelationResidual: lambda x: RelationResidual("hyp_sine_law", x),
    ModelPoint: lambda x: ModelPoint(Model.SPHERE, (x, x + 1.0, x + 2.0), 2.0),
    Ray: lambda x: Ray(ModelPoint(Model.PLANE, (1.0, x, x + 1.0)), (0.0, x + 2.0, x + 3.0)),
}


def _plain(value):
    """`value` with every column turned into a list, so that records
    compare by their rows."""
    if type(value) is np.ndarray:
        return value.tolist()
    if type(value) is tuple:
        return tuple(_plain(v) for v in value)
    if dataclasses.is_dataclass(value):
        return type(value)(**{name: _plain(v) for name, v in vars(value).items()})
    return value


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: r.__name__)
def test_per_solve_records_are_plain_dataclasses(record):
    assert dataclasses.is_dataclass(record)
    assert record.__dataclass_params__.frozen is False
    # eq without frozen leaves them unhashable
    assert record.__hash__ is None


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: r.__name__)
def test_records_compare_by_value(record):
    make = RECORDS[record]
    assert make(0.5) == make(0.5)
    assert make(0.5) is not make(0.5)
    assert make(0.5) != make(0.25)


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: r.__name__)
def test_take_and_join_rebuild_the_same_record(record):
    make = RECORDS[record]
    x = np.array([0.5, 0.25, 0.125, 0.0625])
    keep = np.array([True, False, True, True])
    taken = take(make(x), keep)
    joined = join([make(x[:1]), make(x[1:])])
    assert type(taken) is record and type(joined) is record
    assert _plain(taken) == _plain(make(x[keep]))
    assert _plain(joined) == _plain(make(x))
