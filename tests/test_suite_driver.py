"""The sampled suites' one driver, suites._sampled.

The driver runs the streams of one suite in lockstep, each round drawing
the next block of every stream as one stacked column of indices. Each
stream must still use, pass over and raise on exactly the indices it
does when the streams run one after another, and sphere-model's three
spheres must share one block per round.
"""

import numpy as np
import pytest

import cctrig.geodesic_sphere as geodesic_sphere
import cctrig.suites as suites
from cctrig import Curvature, DegenerateError, SamplingError, SuiteConfig, run_suite
from cctrig.sampling import Block


class Fault(Exception):
    """An error the driver passes over on no suite."""


#: (stream, offset from the stream's base) of every index a fake draw
#: gives no figure, a skipped error or a Fault, and of every index whose
#: evaluation raises a Fault; every other index gives its own number
CASES = {
    "clean": {"gaps": {(0, 3), (1, 0), (1, 17), (2, 40)}, "skips": {(0, 5), (2, 2)}},
    "a later stream fails first": {"draw": {(1, 5)}, "skips": {(0, 7)}},
    "an earlier stream fails in a later round": {"eval": {(0, 40)}, "draw": {(1, 3)}},
    "an earlier stream fails in its own evaluation": {"eval": {(1, 2), (1, 9)},
                                                      "gaps": {(0, 1)}},
    "a stream exhausts its draws": {"skips": {(2, i) for i in range(7000)},
                                    "eval": {(1, 30)}},
    "the first stream exhausts its draws": {"gaps": {(0, i) for i in range(7000)},
                                            "draw": {(2, 0)}},
    "a check raises": {"check": {1}, "gaps": {(1, 4)}},
}


def _offsets(case, key, suite):
    base = suites._STREAM_BASE[suite]
    return np.array(sorted(base + s * suites._SUB + i for s, i in case.get(key, ())),
                    dtype=np.uint64)


def _fake(case, suite):
    """draw, evaluate and a logged check over the chosen indices."""
    gaps, skips, faults, bad = (_offsets(case, key, suite)
                                for key in ("gaps", "skips", "draw", "eval"))

    def draw(seed, indices):
        errors = {int(p): DegenerateError(f"skip {indices[p]}")
                  for p in np.flatnonzero(np.isin(indices, skips))}
        errors |= {int(p): Fault(f"draw {indices[p]}")
                   for p in np.flatnonzero(np.isin(indices, faults))}
        rows = np.flatnonzero(~np.isin(indices, np.concatenate([gaps, skips, faults])))
        return Block(rows, indices[rows].astype(float) if len(rows) else None, errors)

    def evaluate(figure, m):
        m.refuse(np.isin(figure, bad.astype(float)), Fault, "evaluate {}", figure)
        figure = m.live(figure)
        return {"v": 2.0 * figure + 1.0, "w": -figure}

    log = []

    def check(s, figure, used):
        log.append((s, [] if figure is None else figure[used].tolist()))
        if s in case.get("check", ()) and sum(entry[0] == s for entry in log) == 2:
            raise Fault(f"check {s}")

    return draw, evaluate, check, log


def _outcome(run):
    try:
        return [{rid: v.tolist() for rid, v in per.items()} for per in run()]
    except Exception as exc:
        return (type(exc), str(exc))


@pytest.mark.parametrize("name", CASES)
def test_lockstep_streams_use_skip_and_raise_as_one_by_one(monkeypatch, name):
    monkeypatch.setattr(suites, "_BLOCK", 16)
    # 50 samples are four blocks of 16 indices; the budget is 6,400 indices
    cfg, streams = SuiteConfig(samples=50, seed=5), (0, 1, 2)
    draw, evaluate, check, together = _fake(CASES[name], "sphere-model")
    got = _outcome(lambda: suites._sampled(cfg, "sphere-model", draw, evaluate, streams,
                                           (DegenerateError,), check))
    draw, evaluate, check, alone = _fake(CASES[name], "sphere-model")
    expected = _outcome(lambda: [
        suites._sampled(cfg, "sphere-model", draw, evaluate, (s,), (DegenerateError,),
                        check)[0] for s in streams])
    assert got == expected
    # every stream up to the one that raises checked the same rows
    assert {s: [e for e in together if e[0] == s] for s in range(alone[-1][0] + 1)} == \
        {s: [e for e in alone if e[0] == s] for s in range(alone[-1][0] + 1)}
    if name == "clean":
        assert type(got) is list and all(len(per["v"]) == 50 for per in got)
    else:
        assert type(got) is tuple and got[0] in (Fault, SamplingError)


def _one_by_one(sampled):
    def run(cfg, suite, draw, evaluate, streams=(0,), skipped=(), check=None):
        return [sampled(cfg, suite, draw, evaluate, (s,), skipped, check)[0]
                for s in streams]
    return run


@pytest.mark.parametrize("k", (0.5, 1.0, 30.0), ids=repr)
def test_sphere_model_rows_are_those_of_the_spheres_one_by_one(monkeypatch, k):
    # past one block of samples, so that every stream runs two rounds
    cfg = SuiteConfig(samples=suites._BLOCK + 100, seed=3, curvature=Curvature.hyperbolic(k))
    together = run_suite("sphere-model", cfg).rows
    monkeypatch.setattr(suites, "_sampled", _one_by_one(suites._sampled))
    assert run_suite("sphere-model", cfg).rows == together


def test_sphere_model_draws_and_evaluates_one_block_for_its_three_spheres(monkeypatch):
    calls = {"center_ray_triangles": [], "geodesic_sphere_triangle": [],
             "spherical_residuals": [], "intrinsic_arc_length": []}

    def counted(module, name, rows):
        original = getattr(module, name)

        def call(*args, **kwargs):
            calls[name].append(rows(args))
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, call)

    counted(suites, "center_ray_triangles", lambda args: len(args[2]))
    counted(geodesic_sphere, "geodesic_sphere_triangle", lambda args: len(args[0][0].direction[1]))
    counted(suites, "spherical_residuals", lambda args: len(args[0].a))
    counted(suites, "intrinsic_arc_length", lambda args: len(args[1].coords[1]))
    run_suite("sphere-model", SuiteConfig(samples=suites._BLOCK + 100, seed=3))
    # one call per round, each over the rows of all three spheres
    rounds = len(calls["center_ray_triangles"])
    assert rounds >= 2 and calls["center_ray_triangles"][0] == 3 * suites._BLOCK
    for name in ("geodesic_sphere_triangle", "spherical_residuals"):
        assert len(calls[name]) == rounds and calls[name][0] > 2 * suites._BLOCK
    assert calls["intrinsic_arc_length"] == [suites._ARC_CHECK_PAIRS] * 3
