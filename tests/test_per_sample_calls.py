"""No Python function of a sampled suite runs once per sample: between
the draw and the report row every per-sample step is a kernel over
columns (columns.py)."""

import cProfile
import pstats

import pytest

from cctrig import SUITE_NAMES, SuiteConfig, run_suite

#: the most calls any function may gain when a suite draws 2000 more samples
_MAX_GAIN = 1000


def _calls(suite, samples):
    """Calls per function in one run of `suite`. horosphere still draws
    its charts from one sample_stream per index: perfbench's traced
    accept ratio counts those streams as its draws, so they stay until
    it counts the samples drawn. There the calls of sample_stream, and
    those made below it, are left out."""
    profile = cProfile.Profile()
    profile.runcall(run_suite, suite, SuiteConfig(samples=samples, seed=1))
    stats = pstats.Stats(profile).stats
    chain = {f for f in stats if suite == "horosphere" and f[2] == "sample_stream"}
    grown = chain
    while grown:
        grown = {f for f, s in stats.items() if f not in chain and s[4].keys() & chain}
        chain |= grown
    calls = {}
    for f, (_, total, _, _, callers) in stats.items():
        if f in chain:
            # callers maps each caller to (primitive calls, calls, ...)
            total = 0 if f[2] == "sample_stream" else sum(
                c[1] for caller, c in callers.items() if caller not in chain)
        calls[f] = total
    return calls


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_no_function_runs_once_per_sample(suite):
    fewer, more = _calls(suite, 2000), _calls(suite, 4000)
    gains = {f"{f[0]}:{f[1]}({f[2]})": n - fewer.get(f, 0) for f, n in more.items()}
    assert {f: g for f, g in gains.items() if g >= _MAX_GAIN} == {}
