"""The elementary functions the shared kernels are handed.

Each sampler attempt, model measurement and relation evaluator, and the
angle of parallelism, is written once and takes its elementary
functions from a namespace `m`:

* FLOATS runs the code on Python floats with `math`, one sample per
  call, exactly as plain scalar code would. It is defined in floats.py,
  which loads no numpy, and is importable from here too;
* a Columns instance runs the same code on float64 columns, one row per
  sample of a block. This module holds Columns and its helpers take and
  join, and loads numpy: only the block paths (sampling,
  geodesic_sphere, horosphere and suites) import it.

Column rule, which keeps every value bit for bit that of FLOATS: numpy
does + - * / and sqrt, which IEEE 754 rounds correctly, so they give
the bits of the scalar operation, and sin and cos, whose numpy versions
give `math`'s bits (a premise tests/test_columns.py checks on a fixed
spread of inputs; a column holding ±inf maps `math`, which raises
there). Every other function (tan, sinh, cosh, tanh, asinh, atan, atan2,
exp, log, hypot, pow, csin, ccos) maps the `math` or `cmath` function
over the column element by element, a row whose call raises recording
its error; numpy's own versions differ from `math` in the last bit on a
share of inputs. A sum of several terms, a dot product say, is written
as a chain of + and -, rounded left to right on floats and columns
alike; no kernel sums with math.fsum. Complex values stay
Python `complex` in object columns: numpy's complex128 multiply and
divide round differently from Python's. A float division by zero
raises, where numpy gives inf or nan: the kernels divide only by values
their checks keep nonzero, or divide with m.div, which refuses the rows
whose divisor is zero with Python's ZeroDivisionError.

The kernels' control flow goes through `m` as well:

* m.refuse(bad, error, template, *args) raises error(template.format(
  *args)) where `bad` holds. A column records the error for each bad row
  (the first error of a row wins), and the row is dropped at the next
  m.reject or by the caller. A check that passes on floats is the plain
  False, so callers write `if bad is not False: m.refuse(...)`: on
  floats the call is made only to raise, which keeps the scalar
  functions at the cost of their plain `if ...: raise` form;
* m.reject(bad) rejects the attempt where `bad` holds. It returns None
  when nothing is left, else a function that restricts values to the
  rows kept; on floats that function hands its arguments back;
* m.live(value) drops the rows that have raised, before arithmetic that
  can raise on them: Python complex division does, float64 columns
  never do. On floats it hands `value` back.

Comparisons, `abs` and the operators | and & act the same on floats and
columns; m.not_, m.max and m.min stand for `not`, `max` and `min`, with
the builtins' handling of nan (max and min keep the earlier argument
unless a later one compares greater or smaller), and m.where(c, x, y)
for `x if c else y`, which evaluates both x and y. m.isfinite and
m.isinf are `math`'s tests. No function of this package is called row
by row: what a kernel needs beyond these is itself written over `m`.
"""

from __future__ import annotations

import cmath
import itertools
import math

import numpy as np

from .curvature import TRIG, GeometryKind
from .floats import FLOATS  # noqa: F401  (importable from here as well)


#: the errors a mapped call raises for its row alone: math's range and
#: domain errors
_ROW_ERRORS = (ArithmeticError, ValueError)


def _row(value, i):
    """Row i of a column, a tuple of columns, or a constant, as Python
    objects (so messages print the floats the scalar path prints)."""
    if type(value) is np.ndarray:
        return value[i:i + 1].tolist()[0]
    if type(value) is tuple:
        return tuple(_row(v, i) for v in value)
    return value


def take(value, keep):
    """`value` restricted to the rows where `keep` holds: columns are
    indexed, tuples, lists and dataclasses (model points, rays,
    triangles) are rebuilt from their restricted parts, and constants
    pass through."""
    if type(value) is np.ndarray:
        return value[keep]
    if type(value) in (tuple, list):
        return tuple([take(v, keep) for v in value])
    if hasattr(type(value), "__dataclass_fields__"):
        return type(value)(**{name: take(v, keep) for name, v in vars(value).items()})
    return value


def join(parts):
    """The rows of several values of one shape, one part after another:
    columns are concatenated, tuples and dataclasses joined field by
    field, and constants (the same in every part) pass through."""
    first = parts[0]
    if type(first) is np.ndarray:
        return np.concatenate(parts)
    if type(first) in (tuple, list):
        return tuple([join([p[i] for p in parts]) for i in range(len(first))])
    if hasattr(type(first), "__dataclass_fields__"):
        return type(first)(**{name: join([getattr(p, name) for p in parts])
                              for name in vars(first)})
    return first


class Columns:
    """The column namespace over one block of rows.

    `rows` holds the block positions of the rows computed; errors are
    recorded under those positions. Use it as a context manager: numpy's
    floating-point warnings are off inside, since a row that has failed
    is still carried through the arithmetic until it is dropped.
    """

    def __init__(self, rows):
        self.rows = np.asarray(rows, dtype=np.intp)
        #: rows that have raised; their values are no longer meaningful
        self.dead = np.zeros(len(self.rows), dtype=bool)
        #: block position -> the first error its row raised
        self.errors: dict[int, Exception] = {}
        self.trig = {GeometryKind.SPHERICAL: (self.sin, self.cos, 1.0, self.tan),
                     GeometryKind.HYPERBOLIC: (self.sinh, self.cosh, -1.0, self.tanh),
                     GeometryKind.EUCLIDEAN: TRIG[GeometryKind.EUCLIDEAN]}
        self._errstate = np.errstate(all="ignore")

    def __enter__(self) -> Columns:
        self._errstate.__enter__()
        return self

    def __exit__(self, *exc):
        return self._errstate.__exit__(*exc)

    # -- elementwise math -------------------------------------------------

    def _fail(self, i: int, error: Exception) -> None:
        if not self.dead[i]:
            self.errors[int(self.rows[i])] = error
            self.dead[i] = True

    def _map(self, fn, *args, dtype=np.float64):
        """The `math` or `cmath` function fn mapped over the rows;
        constant arguments are repeated.

        A row whose call raises an ArithmeticError or ValueError (math's
        range and domain errors) records it and gets nan, so the error
        surfaces from the row that raised it, as on floats.
        """
        columns = [a for a in args if type(a) is np.ndarray]
        if not columns:
            return fn(*args)
        lists = [a.tolist() if type(a) is np.ndarray else itertools.repeat(a)
                 for a in args]
        try:
            if dtype is np.float64:
                return np.fromiter(map(fn, *lists), np.float64, len(columns[0]))
            return np.array(list(map(fn, *lists)), dtype=dtype)
        except _ROW_ERRORS as first:
            values, raised = [], False
            for i, xs in enumerate(zip(*lists)):
                try:
                    values.append(fn(*xs))
                except _ROW_ERRORS as exc:
                    self._fail(i, exc)
                    values.append(math.nan)
                    raised = True
            if not raised:  # not a row's error: columns of unequal length
                raise first
            return np.array(values, dtype=dtype)

    def _unless_inf(self, ufunc, fn, x):
        # ufunc on a column without ±inf, where it gives fn's bits; fn
        # mapped otherwise, since math raises at ±inf where numpy gives nan
        if type(x) is np.ndarray and not np.isinf(x).any():
            return ufunc(x)
        return self._map(fn, x)

    def sin(self, x): return self._unless_inf(np.sin, math.sin, x)
    def cos(self, x): return self._unless_inf(np.cos, math.cos, x)
    def tan(self, x): return self._map(math.tan, x)
    def sinh(self, x): return self._map(math.sinh, x)
    def cosh(self, x): return self._map(math.cosh, x)
    def tanh(self, x): return self._map(math.tanh, x)
    def asinh(self, x): return self._map(math.asinh, x)
    def atan(self, x): return self._map(math.atan, x)
    def atan2(self, y, x): return self._map(math.atan2, y, x)
    def exp(self, x): return self._map(math.exp, x)
    def log(self, x): return self._map(math.log, x)
    def hypot(self, x, y): return self._map(math.hypot, x, y)
    def pow(self, x, y): return self._map(math.pow, x, y)
    def csin(self, z): return self._map(cmath.sin, z, dtype=object)
    def ccos(self, z): return self._map(cmath.cos, z, dtype=object)
    def cisfinite(self, z): return self._map(cmath.isfinite, z, dtype=bool)

    def sqrt(self, x):
        # math.sqrt raises below zero where numpy gives nan
        if type(x) is np.ndarray and not (x < 0.0).any():
            return np.sqrt(x)
        return self._map(math.sqrt, x)

    def div(self, x, y):
        """x / y, where the rows whose y is zero raise ZeroDivisionError
        as float division does; they get inf or nan."""
        bad = y == 0.0
        if bad is not False:
            self.refuse(bad, ZeroDivisionError, "float division by zero")
        if type(x) is not np.ndarray and type(y) is not np.ndarray:
            return math.nan if y == 0.0 else x / y
        return np.divide(x, y)

    isfinite = staticmethod(np.isfinite)
    isinf = staticmethod(np.isinf)
    not_ = staticmethod(np.logical_not)
    where = staticmethod(np.where)

    # max and min of constants alone stay constants, as the builtins give

    @staticmethod
    def max(first, *rest):
        out = first
        for x in rest:
            if type(x) is np.ndarray or type(out) is np.ndarray:
                out = np.where(x > out, x, out)
            elif x > out:
                out = x
        return out

    @staticmethod
    def min(first, *rest):
        out = first
        for x in rest:
            if type(x) is np.ndarray or type(out) is np.ndarray:
                out = np.where(x < out, x, out)
            elif x < out:
                out = x
        return out

    # -- control flow -------------------------------------------------------

    def _mask(self, flags) -> np.ndarray:
        # a check on constants alone gives one bool for every row
        if type(flags) is np.ndarray:
            return flags
        return np.full(self.dead.shape, bool(flags))

    def refuse(self, bad, error, template, *args) -> None:
        bad = self._mask(bad) & ~self.dead
        if not bad.any():
            return
        for i in np.flatnonzero(bad).tolist():
            self.errors[int(self.rows[i])] = error(
                template.format(*(_row(a, i) for a in args)))
        self.dead = self.dead | bad

    def _keep(self, keep) -> None:
        self.rows = self.rows[keep]
        self.dead = self.dead[keep]

    def reject(self, bad):
        keep = ~(self._mask(bad) | self.dead)
        self._keep(keep)
        if not len(self.rows):
            return None
        return lambda *values: take(values, keep)

    def live(self, value):
        keep = ~self.dead
        self._keep(keep)
        return take(value, keep)
