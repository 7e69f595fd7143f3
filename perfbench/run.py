"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds nothing: it measures the cctrig sources under src/ of the checkout
it sits in. Prints one json line describing the run (seed, CPU count,
Python and numpy versions), then, as the last line, the result:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones. Problems
found by the output checks go to stderr. Exits 2 without a result when
the checkout has no cctrig sources or set-up fails.
"""

from __future__ import annotations

import argparse
import json
import sys

import harness


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        harness.use_source_tree()
    except FileNotFoundError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of "
                     + ", ".join(workloads.WORKLOADS))
    try:
        setup_s = None if args.trace else harness.setup_seconds()
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(harness.run_info(args.workload, args.seed)))
    outcome = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in outcome.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    metrics = dict(outcome.metrics)
    if setup_s is not None:
        metrics["setup_s"] = (setup_s, "s")
    print(json.dumps({"correct": outcome.correct, "attempted": outcome.attempted,
                      "failed": outcome.failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
