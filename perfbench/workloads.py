"""The benchmark workloads. Each is a closed loop with one client.

verify-sweep  `cctrig verify <suite> --format json` in process, through
              the command line's own `main`, over every suite and several
              curvature scales and seeds; one operation is one suite run.
solve-batch   in-process solver calls, each followed by its geometry's
              residual evaluator, plus angle-of-parallelism round trips;
              one operation is one solve plus its residuals.

A run repeats whole rounds of a workload's fixed operation list until
`seconds` have passed, so the share of failed operations is the same in
every run. The workload seed drives every generated input; the program
sees only those inputs. Outputs are checked after the measured loop and
after peak memory is read, against the mpmath reference (mpref) or
against properties the method must have (reportcheck).

`run(workload, seed, seconds, trace)` returns an Outcome. Untraced runs
carry the end-to-end metrics, traced runs the per-layer ones.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import harness
import reportcheck
from cctrig import cli, parallelism, relations, sampling, solvers, suites
from cctrig.curvature import Curvature, GeometryKind
from tracing import Tracer

#: sample_triangle indices whose angles are checked against mpmath
ORACLE_INDICES = range(16)
ORACLE_GEOMETRIES = (("euclidean", 1.0), ("spherical", 1.0), ("hyperbolic", 1.0))

SWEEP_SAMPLES = 100
SWEEP_SCALES = (0.1, 0.5, 1.0, 2.0, 10.0, 100.0)
#: (suite, k) pairs that fail on every seed because of a known fault
#: (sample_cevian_config draws radii in absolute units, not units of k);
#: they run at a fixed seed so their failure never depends on --seed
SWEEP_FAULTS = {("cevians", 0.1)}
#: left out: horo_side_cosine carries units of k^2, and at k = 100 it
#: exceeds its tolerance on about one seed in forty
SWEEP_LEFT_OUT = {("horosphere", 100.0)}

SOLVE_SCALES = (0.5, 1.0, 4.0)
SOLVE_TRIANGLES = 16
#: needle and flat triangles per geometry and scale, solved from SSS
SOLVE_SLIVERS = 4
SOLVE_PARALLELISM = 16
#: answers may differ from the mpmath reference by this many roundings,
#: times (1 + condition number)
REFERENCE_ULPS = 64.0
#: no residual of a correctly solved, well-shaped triangle comes near
#: this; near-degenerate triangles are exempt, since the evaluators'
#: residuals of their correctly solved elements reach 3e-5
RESIDUAL_BOUND = 1e-9
#: SSS inputs that solve_from_sss gets wrong. Its sine/sinh products
#: overflow or underflow: wrong angles (pi/2), DomainError, DomainError
#: (the product of sinh overflows, sinh itself does not), OverflowError.
#: Needles with b = c lose digits to cancellation in (c + a - b) / 2:
#: angles off by 2e5 roundings times (1 + condition number).
SOLVE_FAULTS = (("euclidean", 1.0, "sss", (1e160, 1e160, 1e160)),
                ("euclidean", 1.0, "sss", (1e-163, 1e-163, 1e-163)),
                ("hyperbolic", 1.0, "sss", (360.0, 360.0, 360.0)),
                ("hyperbolic", 1.0, "sss", (480.0, 480.0, 480.0)),
                ("euclidean", 1.0, "sss", (1e-6, 1.0, 1.0), True),
                ("spherical", 1.0, "sss", (1e-6, 1.0, 1.0), True),
                ("hyperbolic", 1.0, "sss", (1e-6, 1.0, 1.0), True))


@dataclass
class Outcome:
    attempted: int
    failed: int
    problems: list[str]
    metrics: dict = field(default_factory=dict)  # name -> (value, unit)

    @property
    def correct(self) -> bool:
        return not self.problems


# ---------------------------------------------------------------- rounds

@dataclass
class Rounds:
    rounds: int
    first: list         # outputs of the first round, one per operation
    differs: list[int]  # per operation: later rounds whose output differed
    times: list[float]  # per operation: its time at the machine's quiet speed, s
    overhead_s: float   # traced minus untraced wall time, when tracing


def _same(a, b) -> bool:
    # repr keeps nan equal to nan, which == does not
    return a == b or repr(a) == repr(b)


def run_rounds(run_op, ops: list, *, seconds: float = 0.0, min_rounds: int = 1,
               tracer: Tracer | None = None, scaled: bool = False) -> Rounds:
    """Repeat whole rounds of `ops` until `seconds` have passed and at least
    `min_rounds` are done. `run_op` returns the operation's output and
    turns any exception into an output.

    An operation's time at the machine's quiet speed is its fastest
    repetition, or with `scaled` the median over its repetitions of its
    wall time scaled by the reference loops run just before and just
    after it (harness.reference_seconds).

    With a tracer, rounds alternate between untraced and traced and the
    run ends after a traced one, so that both halves see the same spells
    of a slower machine. The first round, untraced, warms caches up; the
    tracing overhead is the traced rounds' wall time less that of as many
    of the later untraced rounds, at their mean.
    """
    clock = time.perf_counter
    best = [math.inf] * len(ops)
    # per operation: (wall time, mean of the reference times around it)
    seen: list[list[tuple[float, float]]] = [[] for _ in ops]
    reference: list[float] = []
    first: list = []
    differs = [0] * len(ops)
    wall: list[list[float]] = [[], []]  # round wall times: untraced, traced
    if tracer is not None:
        min_rounds = max(min_rounds, 4)
    rounds = 0
    start = clock()
    while True:
        traced = tracer is not None and rounds % 2 == 1
        outs = []
        with tracer.installed() if traced else contextlib.nullcontext():
            round_start = clock()
            before = harness.reference_seconds() if scaled else 0.0
            for i, op in enumerate(ops):
                t0 = clock()
                out = run_op(op)
                spent = clock() - t0
                best[i] = min(best[i], spent)
                if scaled:
                    after = harness.reference_seconds()
                    seen[i].append((spent, 0.5 * (before + after)))
                    reference.append(after)
                    before = after
                outs.append(out)
            if rounds > 0:
                wall[traced].append(clock() - round_start)
        if rounds == 0:
            first = outs
        else:
            for i, (a, b) in enumerate(zip(first, outs)):
                if not _same(a, b):
                    differs[i] += 1
        rounds += 1
        if (rounds >= min_rounds and clock() - start >= seconds
                and (tracer is None or traced)):
            break
    times = best
    if scaled:
        quiet = min(reference)
        times = [statistics.median(t * quiet / around for t, around in op_seen)
                 for op_seen in seen]
    overhead = 0.0
    if tracer is not None:
        overhead = math.fsum(wall[1]) - len(wall[1]) * statistics.mean(wall[0])
    return Rounds(rounds, first, differs, times, overhead)


def _tally(r: Rounds, verdicts: list[str | None], expected_faults: set[int],
           problems: list[str], what) -> int:
    """Failed operations over all rounds. `verdicts[i]` is None when the
    first-round output of operation i is correct, else the reason; a
    failure outside `expected_faults` is a problem, as is any output that
    changed between rounds."""
    failed = 0
    for i, verdict in enumerate(verdicts):
        if verdict is not None:
            failed += r.rounds
            if i not in expected_faults:
                problems.append(f"{what(i)}: {verdict}")
        else:
            failed += r.differs[i]
        if r.differs[i]:
            problems.append(f"{what(i)}: output changed in {r.differs[i]} later rounds")
    return failed


def _in_process(run_op, ops: list, seconds: float, trace: bool, min_rounds: int,
                scaled: bool = False):
    """Rounds of an in-process workload, its tracer (traced runs) and its
    peak memory, read before any check runs (untraced runs). Traced runs
    are never scaled: they report no operation times."""
    tracer = Tracer() if trace else None
    r = run_rounds(run_op, ops, seconds=seconds, min_rounds=min_rounds, tracer=tracer,
                   scaled=scaled and not trace)
    return r, tracer, harness.self_peak_rss_mb()


def _end_to_end(times: list[float], residuals_per_round: int, peak_rss_mb: float) -> dict:
    metrics = harness.op_time_metrics(times)
    # a round with every operation at the machine's quiet speed
    rate = residuals_per_round / math.fsum(times)
    metrics["residuals_per_s"] = (rate, "1/s")
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    return metrics


# ---------------------------------------------------------- verify-sweep

def oracle_spot_check(seed: int) -> list[str]:
    """Angles measured by sample_triangle against the 50-digit law of
    cosines applied to its measured sides."""
    import mpref

    problems = []
    for kind, k in ORACLE_GEOMETRIES:
        geom = Curvature(GeometryKind(kind), k)
        for index in ORACLE_INDICES:
            t = sampling.sample_triangle(geom, seed, index)
            sides = (t.a, t.b, t.c)
            exact = mpref.solve(kind, k, "sss", sides)
            kappa = mpref.condition(lambda *s: mpref.solve(kind, k, "sss", s), sides)
            # hyperboloid coordinates grow like cosh(side/k), and so do the
            # rounding errors of the measured sides
            amp = math.cosh(max(sides) / k) if kind == "hyperbolic" else 1.0
            for name, got, ref, kap in zip("ABC", t.angles(), exact[3:], kappa[3:]):
                if not mpref.agrees(got, ref, kap, REFERENCE_ULPS * amp):
                    problems.append(f"oracle {kind} index {index}: angle {name} = {got!r}, "
                                    f"law of cosines gives {float(ref)!r} (kappa {kap:.3g})")
    return problems


def sweep_ops(seed: int, samples: int, scales) -> list[tuple]:
    """(suite, k, seed, samples) for every suite and scale, each with its
    own seed drawn from the workload seed."""
    rng = random.Random(seed)
    ops = []
    for k in scales:
        for suite in suites.SUITE_NAMES:
            op_seed = rng.randrange(2 ** 32)
            if (suite, k) in SWEEP_LEFT_OUT:
                continue
            if (suite, k) in SWEEP_FAULTS:
                op_seed = 0
            ops.append((suite, k, op_seed, samples))
    return ops


def _sweep_argv(op: tuple) -> list[str]:
    suite, k, seed, samples = op
    return ["verify", suite, "--samples", str(samples), "--seed", str(seed),
            "--curvature-scale", repr(k), "--format", "json"]


def _sweep_op(argv: list[str]):
    """`cctrig verify ...` in process: (exit code, stdout, or stderr when
    the code is not 0). The elapsed time written to stderr is dropped."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:  # an operation that raises is a failed operation
        return (None, f"{type(exc).__name__}: {exc}")
    return (code, out.getvalue() if code == 0 else err.getvalue().strip())


def _check_sweep(op: tuple, output) -> str | None:
    code, text = output
    if code != 0:
        return f"exit code {code}: {text[-300:]}"
    suite, k, seed, samples = op
    found = reportcheck.check_report(text, suite, seed, samples, k)
    return "; ".join(found) if found else None


def verify_sweep(seed: int, seconds: float, trace: bool,
                 samples: int = SWEEP_SAMPLES, scales=SWEEP_SCALES) -> Outcome:
    ops = sweep_ops(seed, samples, scales)
    faults = {i for i, op in enumerate(ops) if (op[0], op[1]) in SWEEP_FAULTS}
    r, tracer, peak = _in_process(_sweep_op, [_sweep_argv(op) for op in ops],
                                  seconds, trace, min_rounds=2, scaled=True)
    verdicts = [_check_sweep(op, output) for op, output in zip(ops, r.first)]
    out = Outcome(r.rounds * len(ops), 0, [])
    out.failed = _tally(r, verdicts, faults, out.problems,
                        lambda i: "{0} k={1} seed={2}".format(*ops[i]))
    out.problems += oracle_spot_check(random.Random(seed).randrange(2 ** 32))
    reports = [output[1] for output, v in zip(r.first, verdicts) if v is None]
    if trace:
        accepted = {"sphere-model": 0, "horosphere": 0}
        for text in reports:
            for suite, n in reportcheck.accepted_samples(text).items():
                accepted[suite] += n * (r.rounds // 2)
        out.metrics = tracer.metrics(accepted, r.overhead_s)
        return out
    residuals = sum(reportcheck.residual_count(t) for t in reports)
    out.metrics = _end_to_end(r.times, residuals, peak)
    return out


# ----------------------------------------------------------- solve-batch

def _triangle(rng: random.Random, kind: str):
    """A well-shaped triangle (a, b, c, A, B, C), sides in units of k.

    Double-precision law of cosines is enough here: the generated values
    only have to describe a valid, well-conditioned triangle, and every
    check is made against the reference for the exact doubles handed to
    the solver.
    """
    cap = 1.4 if kind == "spherical" else 4.0
    while True:
        b, c = rng.uniform(0.1, cap), rng.uniform(0.1, cap)
        A = rng.uniform(0.2, math.pi - 0.2)
        if kind == "euclidean":
            a = math.sqrt(b * b + c * c - 2.0 * b * c * math.cos(A))
            B = math.acos((a * a + c * c - b * b) / (2.0 * a * c))
            C = math.pi - A - B
        elif kind == "spherical":
            a = math.acos(math.cos(b) * math.cos(c) + math.sin(b) * math.sin(c) * math.cos(A))
            B = math.acos((math.cos(b) - math.cos(a) * math.cos(c)) / (math.sin(a) * math.sin(c)))
            C = math.acos((math.cos(c) - math.cos(a) * math.cos(b)) / (math.sin(a) * math.sin(b)))
        else:
            a = math.acosh(math.cosh(b) * math.cosh(c)
                           - math.sinh(b) * math.sinh(c) * math.cos(A))
            B = math.acos((math.cosh(a) * math.cosh(c) - math.cosh(b))
                          / (math.sinh(a) * math.sinh(c)))
            C = math.acos((math.cosh(a) * math.cosh(b) - math.cosh(c))
                          / (math.sinh(a) * math.sinh(b)))
        excess = A + B + C - math.pi
        if (min(A, B, C) >= 0.15 and a >= 0.1
                and (kind == "euclidean" or abs(excess) >= 0.05)):
            return a, b, c, A, B, C


def _sliver(rng: random.Random, kind: str, needle: bool):
    """Sides (a, b, c), in units of k, of a needle (a tiny next to b and
    c) or a flat triangle (a just short of b + c). Some angles are then
    very ill-conditioned in the sides.

    Needles keep |b - c| >= 0.3 a: solve_from_sss loses digits on
    needles with b close to c, which the named faults show at fixed
    inputs (see SOLVE_FAULTS).
    """
    cap = 1.4 if kind == "spherical" else 4.0
    t = 10.0 ** rng.uniform(-6.0, -2.0)
    if needle:
        b = rng.uniform(0.2, cap)
        a = b * t
        return a, b, b + a * rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 0.9)
    b, c = rng.uniform(0.1, cap / 2.0), rng.uniform(0.1, cap / 2.0)
    return (b + c) * (1.0 - t), b, c


class Spec(NamedTuple):
    kind: str
    k: float
    mode: str          # sss, sas, asa, aaa, or par: a parallelism round trip from p
    values: tuple
    sliver: bool = False


def solve_specs(seed: int) -> list[Spec]:
    """Every solve-batch operation, the named faults last."""
    rng = random.Random(seed)
    specs = []
    for kind in ("euclidean", "spherical", "hyperbolic"):
        for k in ((1.0,) if kind == "euclidean" else SOLVE_SCALES):
            for _ in range(SOLVE_TRIANGLES):
                a, b, c, A, B, C = _triangle(rng, kind)
                specs.append(Spec(kind, k, "sss", (a * k, b * k, c * k)))
                specs.append(Spec(kind, k, "sas", (b * k, A, c * k)))
                specs.append(Spec(kind, k, "asa", (B, a * k, C)))
                if kind != "euclidean":
                    specs.append(Spec(kind, k, "aaa", (A, B, C)))
            for i in range(SOLVE_SLIVERS):
                sides = _sliver(rng, kind, needle=i % 2 == 0)
                specs.append(Spec(kind, k, "sss", tuple(x * k for x in sides), sliver=True))
    for k in SOLVE_SCALES:
        for _ in range(SOLVE_PARALLELISM):
            specs.append(Spec("hyperbolic", k, "par", (k * rng.uniform(0.02, 12.0),)))
    return specs + [Spec(*fault) for fault in SOLVE_FAULTS]


def solve_ops(specs: list[Spec]) -> list[tuple]:
    """(solver, residual evaluator or None, geometry, values) per spec. The
    program's functions are looked up by name at each call, so a traced
    round calls the traced wrappers."""
    ops = []
    for spec in specs:
        geom = Curvature(GeometryKind(spec.kind), spec.k)
        if spec.mode == "par":
            ops.append(("parallelism_angle", None, geom, spec.values[0]))
        else:
            ops.append(("solve_from_" + spec.mode, spec.kind + "_residuals", geom,
                        spec.values))
    return ops


def _solve_op(op):
    solver, evaluator, geom, values = op
    try:
        if evaluator is None:
            angle = parallelism.parallelism_angle(values, geom)
            return (angle, parallelism.inverse_parallelism(angle, geom))
        t = getattr(solvers, solver)(geom, *values)
        return (t.a, t.b, t.c, t.A, t.B, t.C) + tuple(
            r.residual for r in getattr(relations, evaluator)(t))
    except Exception as exc:  # an operation that raises is a failed operation
        return f"{type(exc).__name__}: {exc}"


def check_solve(spec: Spec, out) -> str | None:
    """None if one solve-batch output agrees with the mpmath reference,
    else the reason. Residuals must be finite, and below RESIDUAL_BOUND
    unless the triangle is a sliver."""
    import mpref

    if isinstance(out, str):
        return out
    kind, k, mode, values, sliver = spec
    if mode == "par":
        p = values[0]
        angle, back = out
        checks = [("angle", angle, mpref.parallelism_angle(p, k),
                   mpref.condition(lambda x: (mpref.parallelism_angle(x, k),), [p])[0]),
                  ("inverse", back, mpref.inverse_parallelism(angle, k),
                   mpref.condition(lambda x: (mpref.inverse_parallelism(x, k),), [angle])[0])]
    else:
        exact = mpref.solve(kind, k, mode, values)
        kappa = mpref.condition(lambda *v: mpref.solve(kind, k, mode, v), values)
        checks = list(zip(("a", "b", "c", "A", "B", "C"), out[:6], exact, kappa))
        for r in out[6:]:
            if not (math.isfinite(r) and (sliver or abs(r) <= RESIDUAL_BOUND)):
                return f"residual {r!r}"
    for name, got, ref, kap in checks:
        if not mpref.agrees(got, ref, kap, REFERENCE_ULPS):
            return f"{name} = {got!r}, reference {float(ref)!r} (kappa {kap:.3g})"
    return None


def _solve_residuals(out) -> int:
    # a parallelism round trip returns two values and no residuals
    return 0 if len(out) == 2 else len(out) - 6


def solve_batch(seed: int, seconds: float, trace: bool) -> Outcome:
    specs = solve_specs(seed)
    faults = set(range(len(specs) - len(SOLVE_FAULTS), len(specs)))
    r, tracer, peak = _in_process(_solve_op, solve_ops(specs), seconds, trace, min_rounds=1)
    verdicts = [check_solve(spec, o) for spec, o in zip(specs, r.first)]
    out = Outcome(r.rounds * len(specs), 0, [])
    out.failed = _tally(r, verdicts, faults, out.problems,
                        lambda i: "{2} {0} k={1} {3}".format(*specs[i]))
    if trace:
        out.metrics = tracer.metrics({}, r.overhead_s)
        return out
    residuals = sum(_solve_residuals(o) for o, v in zip(r.first, verdicts) if v is None)
    out.metrics = _end_to_end(r.times, residuals, peak)
    return out


WORKLOADS = {"verify-sweep": verify_sweep, "solve-batch": solve_batch}


def run(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    return WORKLOADS[workload](seed, seconds, trace)
