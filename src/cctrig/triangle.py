"""Triangle data shared by the relation evaluators and solvers.

TriangleData is a plain dataclass, not a frozen one: every solve builds
one, and columns.take/join rebuild it for every block, where a frozen
dataclass's __init__ would make one object.__setattr__ call per field.
It compares by value and is not hashable. The package never changes a
field of one after building it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .curvature import Curvature, GeometryKind
from .errors import DomainError
from .floats import FLOATS


@dataclass
class TriangleData:
    """Sides a, b, c, opposite angles A, B, C, and the ambient geometry.

    Side a faces angle A, and so on. Lengths share units with the
    curvature scale k; angles are radians.
    """

    a: float
    b: float
    c: float
    A: float
    B: float
    C: float
    geometry: Curvature

    def sides(self) -> tuple[float, float, float]:
        return (self.a, self.b, self.c)

    def angles(self) -> tuple[float, float, float]:
        return (self.A, self.B, self.C)

    def validate(self, m=FLOATS) -> TriangleData:
        """Check the invariants, returning self so calls can chain.

        With a Columns namespace (columns.py) the fields are columns and
        every check runs over all rows at once."""
        a, b, c, A, B, C = self.a, self.b, self.c, self.A, self.B, self.C
        # 0 < x < inf is "finite and positive", nan included
        bad = m.not_((0.0 < a) & (a < math.inf) & (0.0 < b) & (b < math.inf)
                     & (0.0 < c) & (c < math.inf))
        if bad is not False:
            m.refuse(bad, DomainError, "sides must be positive and finite, got {}", (a, b, c))
        bad = m.not_((0.0 < A) & (A < math.pi) & (0.0 < B) & (B < math.pi)
                     & (0.0 < C) & (C < math.pi))
        if bad is not False:
            m.refuse(bad, DomainError, "angles must lie strictly inside (0, pi), got {}",
                     (A, B, C))
        bad = (b + c <= a) | (c + a <= b) | (a + b <= c)
        if bad is not False:
            m.refuse(bad, DomainError, "triangle inequality fails for sides {}", (a, b, c))
        if self.geometry.kind is GeometryKind.SPHERICAL:
            bound = math.pi * self.geometry.k
            bad = m.max(a, b, c) >= bound
            if bad is not False:
                m.refuse(bad, DomainError, "spherical sides must stay below pi*k = {}", bound)
            bad = a + b + c >= 2.0 * bound
            if bad is not False:
                m.refuse(bad, DomainError, "spherical perimeter must stay below 2*pi*k")
        return self


def angle_excess(t: TriangleData) -> float:
    """A + B + C - pi: positive spherical, zero flat, negative hyperbolic."""
    return (t.A + t.B + t.C) - math.pi
