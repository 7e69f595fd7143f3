"""Command-line front end: triangle solving, angle-of-parallelism
tables, and the verification suites.

Exit codes: 0 success (all non-conjecture checks pass for `verify`),
1 verification failure, 2 usage error (including domain errors in the
input values), 3 infeasible input (no such triangle / degenerate or
similarity-underdetermined data). Geometry errors print one JSON line
with the error kind and message on stderr; so do the arithmetic and
value errors of math functions pushed past their range, reported as
domain errors.

`solve` and `parallelism` run on `math` alone, and this module loads no
numpy: `verify` imports the suites, and numpy with them, when it runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .curvature import Curvature
from .errors import (DegenerateError, DomainError, GeometryError,
                     InfeasibleError, SamplingError, SimilarityError)
from .parallelism import parallelism_angle
from .relations import (euclidean_residuals, hyperbolic_residuals,
                        spherical_residuals)
from .report import (SUITE_NAMES, SuiteConfig, _csv_cell, _f17, _finite,
                     _json_scalar, render)
from .solvers import (solve_from_aaa, solve_from_asa, solve_from_sas,
                      solve_from_sss)
from .triangle import TriangleData, angle_excess

_SOLVERS = {"sss": solve_from_sss, "sas": solve_from_sas,
            "asa": solve_from_asa, "aaa": solve_from_aaa}
_VALUE_NAMES = {"sss": "a b c", "sas": "b A c", "asa": "B a C", "aaa": "A B C"}
_RESIDUALS = {"spherical": spherical_residuals,
              "euclidean": euclidean_residuals,
              "hyperbolic": hyperbolic_residuals}
#: most specific first; (exception type, reported kind, exit code)
_ERROR_KINDS = ((SimilarityError, "similarity", 3),
                (DegenerateError, "degenerate", 3),
                (InfeasibleError, "infeasible", 3),
                (SamplingError, "sampling", 3),
                (DomainError, "domain", 2),
                (ArithmeticError, "domain", 2),
                (ValueError, "domain", 2))


def _geometry(name: str, scale: float) -> Curvature:
    if name == "euclidean":
        if scale != 1.0:
            raise DomainError("flat geometry has no curvature scale; "
                              "omit --curvature-scale")
        return Curvature.euclidean()
    if name == "spherical":
        return Curvature.spherical(scale)
    return Curvature.hyperbolic(scale)


def _emit(text: str, out: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _solve_fields(t: TriangleData, mode: str) -> list[tuple[str, object]]:
    return [("kind", t.geometry.kind.value), ("k", t.geometry.k),
            ("mode", mode),
            ("side_a", t.a), ("side_b", t.b), ("side_c", t.c),
            ("angle_a", t.A), ("angle_b", t.B), ("angle_c", t.C),
            ("angle_excess", angle_excess(t))]


def _solve_json(t: TriangleData, mode: str, residuals) -> str:
    parts = ['"schema": 1']
    parts += [f'"{name}": {_json_scalar(value)}' for name, value in _solve_fields(t, mode)]
    inner = ", ".join(f'"{r.relation_id}": {_json_scalar(r.residual)}' for r in residuals)
    parts.append(f'"residuals": {{{inner}}}')
    return "{" + ", ".join(parts) + "}"


def _solve_csv(t: TriangleData, mode: str, residuals) -> str:
    lines = ["field,value"]
    lines += [f"{name},{_csv_cell(value)}" for name, value in _solve_fields(t, mode)]
    lines += [f"{r.relation_id},{_csv_cell(r.residual)}" for r in residuals]
    return "\n".join(lines)


def _solve_human(t: TriangleData, mode: str, residuals) -> str:
    deg = math.degrees
    lines = [f"{t.geometry.kind.value} triangle (k = {_f17(t.geometry.k)}, "
             f"mode {mode})"]
    for name, value in (("a", t.a), ("b", t.b), ("c", t.c)):
        lines.append(f"  side  {name} = {_f17(value)}")
    for name, value in (("A", t.A), ("B", t.B), ("C", t.C)):
        lines.append(f"  angle {name} = {_f17(value)} rad  ({deg(value):.4f} deg)")
    ex = angle_excess(t)
    lines.append(f"  angle excess = {_f17(ex)} rad  ({deg(ex):.4f} deg)")
    lines.append("residuals:")
    width = max(len(r.relation_id) for r in residuals)
    lines += [f"  {r.relation_id:<{width}}  {_finite(r.residual): .3e}" for r in residuals]
    return "\n".join(lines)


def _cmd_solve(args: argparse.Namespace) -> int:
    geometry = _geometry(args.geometry, args.curvature_scale)
    t = _SOLVERS[args.mode](geometry, *args.values)
    residuals = _RESIDUALS[args.geometry](t)
    if args.output_format == "json":
        text = _solve_json(t, args.mode, residuals)
    elif args.output_format == "csv":
        text = _solve_csv(t, args.mode, residuals)
    else:
        text = _solve_human(t, args.mode, residuals)
    _emit(text, args.out)
    return 0


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """np.linspace(start, stop, num) for num >= 2, bit for bit: i * step
    + start, or (i / div) * delta + start where step underflows to 0,
    and stop itself last."""
    div = num - 1
    delta = stop - start
    step = delta / div
    if step == 0.0:
        return [i / div * delta + start for i in range(div)] + [stop]
    return [i * step + start for i in range(div)] + [stop]


def _cmd_parallelism(args: argparse.Namespace) -> int:
    if not (0.0 <= args.p_min < args.p_max) or not math.isfinite(args.p_max):
        raise DomainError(f"need 0 <= p_min < p_max, got "
                          f"({args.p_min}, {args.p_max})")
    if args.steps < 2:
        raise DomainError(f"need at least 2 steps, got {args.steps}")
    geometry = Curvature.hyperbolic(args.curvature_scale)
    lines = ["p,parallelism_angle"]
    for p in _linspace(args.p_min, args.p_max, args.steps):
        lines.append(f"{_f17(p)},{_f17(parallelism_angle(p, geometry))}")
    _emit("\n".join(lines), args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .suites import run_suite  # loads numpy, which solve never needs

    cfg = SuiteConfig(seed=args.seed, samples=args.samples, tolerance=args.tol,
                      curvature=Curvature.hyperbolic(args.curvature_scale))
    report = run_suite(args.suite, cfg)
    _emit(render(report, args.output_format), args.out)
    if args.output_format != "human":
        print(f"# suite {report.suite}: {report.elapsed_seconds:.3f} s elapsed",
              file=sys.stderr)
    return 0 if report.passed else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process: building it
    takes about ten times as long as a parse."""
    parser = argparse.ArgumentParser(
        prog="cctrig",
        description="Constant-curvature triangle trigonometry, verified "
                    "against concrete geometric models.")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser(
        "solve", help="solve a triangle from three given elements",
        description="Solve a triangle and print all six elements, the "
                    "angle excess, and the residuals of the geometry's "
                    "general relations. Value order by mode: "
                    + "; ".join(f"{m}: {v}" for m, v in _VALUE_NAMES.items())
                    + ". Sides are lengths, angles are radians.")
    solve.add_argument("--geometry", required=True,
                       choices=("spherical", "euclidean", "hyperbolic"))
    solve.add_argument("--mode", required=True, choices=tuple(_SOLVERS))
    solve.add_argument("--curvature-scale", type=float, default=1.0,
                       metavar="K", help="curvature scale k (default 1)")
    solve.add_argument("--format", dest="output_format", default="human",
                       choices=("json", "csv", "human"))
    solve.add_argument("--out", metavar="PATH",
                       help="write output to a file instead of stdout")
    solve.add_argument("values", nargs=3, type=float, metavar="VALUE")
    solve.set_defaults(func=_cmd_solve)

    par = sub.add_parser(
        "parallelism", help="tabulate the angle of parallelism",
        description="Emit CSV rows (p, parallelism angle) over an "
                    "inclusive range of distances; the second column is "
                    "strictly decreasing.")
    par.add_argument("p_min", type=float)
    par.add_argument("p_max", type=float)
    par.add_argument("steps", type=int)
    par.add_argument("--curvature-scale", type=float, default=1.0, metavar="K")
    par.add_argument("--out", metavar="PATH")
    par.set_defaults(func=_cmd_parallelism)

    verify = sub.add_parser(
        "verify", help="run a verification suite",
        description="Run one verification suite (or all of them) and "
                    "print the residual report. Exit code 0 means every "
                    "non-conjecture check passed.")
    verify.add_argument("suite", choices=SUITE_NAMES + ("all",))
    verify.add_argument("--seed", type=int, default=42)
    verify.add_argument("--samples", type=int, default=10000)
    verify.add_argument("--tol", type=float, default=1e-9)
    verify.add_argument("--curvature-scale", type=float, default=1.0,
                        metavar="K")
    verify.add_argument("--format", dest="output_format", default="json",
                        choices=("json", "csv", "human"))
    verify.add_argument("--out", metavar="PATH")
    verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GeometryError, ArithmeticError, ValueError) as exc:
        for etype, kind, code in _ERROR_KINDS:
            if isinstance(exc, etype):
                print(json.dumps({"error": kind, "message": str(exc)}),
                      file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
