"""Per-layer tracing from outside the program.

`Tracer.installed()` replaces every binding of the traced layer functions
in the loaded cctrig modules with a timing wrapper, runs the caller's
block, and puts the original objects back. A function is wrapped where
its callers look it up: `from .models import model_distance` copies the
function into the importing module, so `sampling.model_distance` and
`cevians.model_distance` are wrapped separately and counted under the
one name `models.model_distance`. Suites are reached through the
dispatch table `suites._SUITE_FUNCS`, so their entries are wrapped there.

Self time is a call's duration minus the time of the traced calls made
inside it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time

from cctrig import suites

#: (module, function) of every traced layer function
LAYER_FUNCTIONS = (
    ("sampling", "sample_stream"),
    ("sampling", "sample_triangle"),
    ("sampling", "sample_right_triangle"),
    ("models", "model_distance"),
    ("models", "model_angle"),
    ("cevians", "sample_cevian_config"),
    ("cevians", "cevian_feet"),
    ("geodesic_sphere", "geodesic_sphere_triangle"),
    ("geodesic_sphere", "intrinsic_arc_length"),
    ("horosphere", "horosphere_triangle"),
    ("horosphere", "ambient_polyline_length"),
    ("prism", "build_prism"),
    ("prism", "replay_residuals"),
    ("correspondence", "imaginary_substitution_residual"),
    ("correspondence", "euclidean_limit_slope"),
    ("correspondence", "rescaling_check"),
    ("relations", "spherical_residuals"),
    ("relations", "spherical_right_residuals"),
    ("relations", "hyperbolic_residuals"),
    ("relations", "euclidean_residuals"),
    ("solvers", "solve_from_sss"),
    ("solvers", "solve_from_sas"),
    ("solvers", "solve_from_asa"),
    ("solvers", "solve_from_aaa"),
    ("parallelism", "parallelism_angle"),
    ("parallelism", "inverse_parallelism"),
    ("report", "make_row"),
    ("report", "render"),
    ("cli", "main"),
)
#: suites whose rejection samplers report accepted samples per stream
ACCEPT_SUITES = ("sphere-model", "horosphere")
_STREAM = "sampling.sample_stream"


def layer_metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    return list(Tracer().metrics({}, 0.0))


class Tracer:
    def __init__(self):
        #: name -> [calls, total seconds, seconds in traced children]
        self.stats: dict[str, list] = {}
        #: suite -> sample_stream calls made while it ran
        self.suite_streams: dict[str, int] = {}
        self._child_time: list[float] = []
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._child_time
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = clock() - start
                stats[0] += 1
                stats[1] += spent
                stats[2] += stack.pop()
                if stack:
                    stack[-1] += spent
        return traced

    def _wrap_suite(self, suite: str, fn):
        timed = self._wrap("suites." + suite, fn)
        streams = self.stats.setdefault(_STREAM, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def counted(cfg):
            before = streams[0]
            try:
                return timed(cfg)
            finally:
                self.suite_streams[suite] = (self.suite_streams.get(suite, 0)
                                             + streams[0] - before)
        return counted

    def _install(self) -> None:
        targets = [(f"{m}.{f}", getattr(importlib.import_module("cctrig." + m), f))
                   for m, f in LAYER_FUNCTIONS]
        modules = [m for name, m in list(sys.modules.items())
                   if name == "cctrig" or name.startswith("cctrig.")]
        for name, target in targets:
            wrapper = self._wrap(name, target)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is target:
                        self._saved.append((vars(mod), attr, value))
                        setattr(mod, attr, wrapper)
        table = suites._SUITE_FUNCS
        for suite, fn in list(table.items()):
            self._saved.append((table, suite, fn))
            table[suite] = self._wrap_suite(suite, fn)

    def _restore(self) -> None:
        for namespace, key, original in reversed(self._saved):
            namespace[key] = original
        self._saved.clear()

    @contextlib.contextmanager
    def installed(self):
        """Trace the layer functions for the duration of the block."""
        self._install()
        try:
            yield self
        finally:
            self._restore()

    def metrics(self, accepted: dict[str, int], overhead_s: float) -> dict:
        """Per-layer metrics; `accepted` maps a suite in ACCEPT_SUITES to
        the samples its reports accepted while traced."""
        out = {}
        for mod_name, fn_name in LAYER_FUNCTIONS:
            calls, total, child = self.stats.get(f"{mod_name}.{fn_name}", (0, 0.0, 0.0))
            out[f"{mod_name}.{fn_name}.calls"] = (calls, "count")
            out[f"{mod_name}.{fn_name}.total_s"] = (total, "s")
            out[f"{mod_name}.{fn_name}.self_s"] = (total - child, "s")
        for suite in suites.SUITE_NAMES:
            out[f"suites.{suite}.total_s"] = (self.stats.get("suites." + suite, (0, 0.0))[1], "s")
        for suite in ACCEPT_SUITES:
            streams = self.suite_streams.get(suite, 0)
            ratio = accepted.get(suite, 0) / streams if streams else 0.0
            out[f"suites.{suite}.accept_ratio"] = (ratio, "ratio")
        out["tracing.overhead_s"] = (overhead_s, "s")
        return out
