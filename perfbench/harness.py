"""Timing, child-process and environment helpers shared by the workloads."""

from __future__ import annotations

import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: a set-up child that runs longer than this is killed
CHILD_TIMEOUT_S = 60.0


def use_source_tree() -> None:
    """Make `import cctrig` load the package from this checkout's src/.

    Raises FileNotFoundError when the checkout has no source tree, so the
    benchmark never measures some other installed copy.
    """
    if not (SRC / "cctrig" / "__init__.py").is_file():
        raise FileNotFoundError(f"no cctrig sources under {SRC}")
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for child interpreters: this checkout's src/ first."""
    env = dict(os.environ)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + rest if rest else "")
    return env


def setup_seconds(repeats: int = 11) -> float:
    """Median wall time of a fresh interpreter that imports cctrig and exits."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        try:
            child = subprocess.run([sys.executable, "-c", "import cctrig"],
                                   capture_output=True, env=child_env(), cwd=ROOT,
                                   timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise RuntimeError(f"import cctrig took over {CHILD_TIMEOUT_S} s") from exc
        times.append(time.perf_counter() - start)
        if child.returncode != 0:
            raise RuntimeError("import cctrig failed: "
                               + child.stderr.decode(errors="replace").strip())
    return statistics.median(times)


def self_peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: op_tail_ms takes the highest of these quantiles that has at least ten
#: operations beyond it
TAIL_QUANTILES = (0.999, 0.99, 0.95, 0.9, 0.75)


def tail_quantile(n: int) -> float | None:
    """The quantile behind op_tail_ms for n operations; None below 40,
    where there is no tail."""
    for q in TAIL_QUANTILES:
        if n - math.ceil(q * n) >= 10:
            return q
    return None


def op_time_metrics(times: list[float]) -> dict:
    """op_p50_ms and op_tail_ms over each operation's time at the
    machine's quiet speed. With fewer than 40 operations op_tail_ms is
    the slowest one."""
    times = sorted(times)
    q = tail_quantile(len(times))
    tail = times[math.ceil(q * len(times)) - 1] if q is not None else times[-1]
    return {"op_p50_ms": (statistics.median(times) * 1e3, "ms"),
            "op_tail_ms": (tail * 1e3, "ms")}


#: the reference loop's input; nothing in it comes from cctrig
_REFERENCE_X = numpy.linspace(0.1, 1.0, 16)


def reference_seconds() -> float:
    """Wall time of one pass of a fixed reference loop, about 0.25 ms on
    a quiet machine: small numpy array operations and scalar math, the
    mix of work in one cctrig sample, sharing no code with cctrig.

    The CPU of a shared machine runs up to twice as slow for seconds to
    minutes at a time while its neighbours are busy; a process's CPU time
    grows with its wall time, so it does not help. An operation of a few
    milliseconds or more seldom runs wholly inside a quiet moment, so
    neither its fastest nor its median time is steady from run to run.
    The reference loop, timed right before and after the operation,
    measures how slow the machine was meanwhile: the operation's time at
    the machine's quiet speed is its wall time times the loop's fastest
    time in the run over its time around the operation.
    """
    start = time.perf_counter()
    total = 0.0
    for i in range(60):
        total += float(numpy.cos(_REFERENCE_X * (i + 1)).sum())
        total += math.cosh(i * 0.01) * math.sqrt(i + 1.0)
    return time.perf_counter() - start


def run_info(workload: str, seed: int) -> dict:
    return {"workload": workload, "seed": seed, "cpus": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__}
