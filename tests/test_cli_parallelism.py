"""`cctrig parallelism` spaces its distances as np.linspace does, bit for
bit, with float arithmetic of its own."""

import math
import random

import numpy as np
import pytest

from cctrig.cli import _linspace, main
from cctrig.curvature import Curvature
from cctrig.parallelism import parallelism_angle


def _random_float(rng: random.Random) -> float:
    """A finite float >= 0 of any binade, subnormals included."""
    return math.ldexp(rng.random(), rng.randrange(-1074, 1000))


def _ranges(rng: random.Random, count: int):
    """`count` (p_min, p_max, steps) with 0 <= p_min < p_max finite: widths
    from one ulp up, subnormal ones among them, and steps from 2 to 500."""
    made = 0
    while made < count:
        p_min = rng.choice((0.0, 0.0, _random_float(rng), math.ldexp(rng.random(), -1060)))
        kind = rng.randrange(3)
        if kind == 0:
            p_max = math.nextafter(p_min, math.inf)
        elif kind == 1:
            p_max = p_min + math.ldexp(rng.random(), rng.randrange(-1074, -1000))
        else:
            p_max = p_min + _random_float(rng)
        if not p_min < p_max < math.inf:
            continue
        made += 1
        yield p_min, p_max, rng.choice((2, 3, rng.randrange(2, 40), rng.randrange(2, 500)))


def test_linspace_matches_numpy_bit_for_bit():
    rng = random.Random(20261019)
    underflowing_steps = subnormal_widths = 0
    for p_min, p_max, steps in _ranges(rng, 10_000):
        ours = _linspace(p_min, p_max, steps)
        theirs = np.linspace(p_min, p_max, steps).tolist()
        first_miss = next((i for i, (x, y) in enumerate(zip(ours, theirs))
                           if x.hex() != y.hex()), None)
        assert len(ours) == steps and first_miss is None, (p_min, p_max, steps, first_miss)
        width = p_max - p_min
        subnormal_widths += width < 2.0 ** -1022
        underflowing_steps += width / (steps - 1) == 0.0
    # both branches, and the subnormal widths, are exercised
    assert subnormal_widths > 1000
    assert underflowing_steps > 100


@pytest.mark.parametrize("p_min, p_max, steps, scale", (
    ("0", "1.3169578969248168", "3", "1"),
    ("0", "5", "101", "1"),
    ("0.25", "300", "37", "0.5"),
    ("1e-300", "1.0000000000000002e-300", "9", "1"),
    ("0", "5e-324", "7", "2"),
    ("0", "1e-310", "1000", "1"),
))
def test_the_table_is_the_numpy_spaced_one(capsys, p_min, p_max, steps, scale):
    assert main(["parallelism", p_min, p_max, steps, "--curvature-scale", scale]) == 0
    geometry = Curvature.hyperbolic(float(scale))
    expected = ["p,parallelism_angle"] + [
        "%.17g,%.17g" % (p, parallelism_angle(p, geometry))
        for p in np.linspace(float(p_min), float(p_max), int(steps)).tolist()]
    assert capsys.readouterr().out == "\n".join(expected) + "\n"
