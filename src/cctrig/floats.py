"""FLOATS, the scalar namespace of the shared kernels: `math` on Python
floats, one sample per call (the namespace contract is set out in
columns.py). It loads no numpy, so the solvers, relation evaluators and
the angle of parallelism, which run on FLOATS alone, do not either.
"""

import cmath
import math
import operator
import types

from .curvature import TRIG


def _refuse(bad, error, template, *args):
    if bad:
        raise error(template.format(*args))


def _keep_all(*values):
    return values


def _reject(bad):
    return None if bad else _keep_all


def _live(value):
    return value


def _where(cond, x, y):
    return x if cond else y


#: the scalar namespace: math on Python floats. It is a module object:
#: Python loads module attributes as fast as math.sin, and those of a
#: SimpleNamespace about 35 ns slower, which the scalar functions would
#: pay on every call
FLOATS = types.ModuleType("FLOATS", "math on Python floats, for the shared kernels")
vars(FLOATS).update(
    sin=math.sin, cos=math.cos, tan=math.tan, sinh=math.sinh,
    cosh=math.cosh, tanh=math.tanh, asinh=math.asinh, atan=math.atan,
    atan2=math.atan2, exp=math.exp, log=math.log, hypot=math.hypot,
    pow=math.pow, sqrt=math.sqrt, isfinite=math.isfinite,
    isinf=math.isinf, csin=cmath.sin, ccos=cmath.cos, cisfinite=cmath.isfinite,
    max=max, min=min, not_=operator.not_, where=_where, div=operator.truediv,
    refuse=_refuse, reject=_reject, live=_live, trig=TRIG)
