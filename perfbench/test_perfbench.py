"""Tests of the benchmark's own parts: the mpmath reference, the trace
wrappers, and a short run of each workload through its checks."""

import json
import math
from pathlib import Path

import harness

harness.use_source_tree()

import mpref  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_reference_reproduces_the_readme_examples():
    A = mpref.solve("hyperbolic", 1.0, "sss", [1.3169578969248168] * 3)[3]
    assert abs(float(A) - 0.84106867056793023336) < 1e-17
    a = mpref.solve("euclidean", 1.0, "sas", [3.0, math.pi / 2.0, 4.0])[0]
    assert float(a) == 5.0


def test_reference_keeps_tiny_angles_and_parallelism_round_trips():
    # equilateral, side 480: cos A = 1 - 7e-209, so A comes from 1 - cos A
    A = mpref.solve("hyperbolic", 1.0, "sss", [480.0] * 3)[3]
    assert math.isclose(float(A), 1.1758565396490539e-104, rel_tol=1e-15)
    angle = mpref.parallelism_angle(1.0, 1.0)
    assert math.isclose(float(angle), 0.70502684355523804, rel_tol=1e-16)
    assert math.isclose(float(mpref.inverse_parallelism(float(angle), 1.0)), 1.0,
                        rel_tol=1e-15)


def test_condition_number_of_a_sliver_is_large():
    well = mpref.condition(lambda *v: mpref.solve("euclidean", 1.0, "sss", v), (3.0, 4.0, 5.0))
    sliver = mpref.condition(lambda *v: mpref.solve("euclidean", 1.0, "sss", v),
                             (1.0, 1.0, 1.999999))
    # the two small angles of a sliver move by 2e6 relative per relative
    # change of the sides
    assert max(well) < 3.0
    assert 1e6 < sliver[3] == sliver[4]


def _bindings():
    import sys
    from cctrig import suites
    seen = {(name, attr): value for name, mod in sys.modules.items()
            if name == "cctrig" or name.startswith("cctrig.")
            for attr, value in vars(mod).items() if callable(value)}
    seen.update({("_SUITE_FUNCS", k): v for k, v in suites._SUITE_FUNCS.items()})
    return seen


def test_trace_wrappers_restore_every_wrapped_name():
    from cctrig import cevians, cli, sampling  # noqa: F401  (cli: traced too)
    before = _bindings()
    tracer = tracing.Tracer()
    with tracer.installed():
        assert sampling.model_distance is not before[("cctrig.sampling", "model_distance")]
        assert cevians.model_distance is not before[("cctrig.cevians", "model_distance")]
        out = workloads.verify_sweep(3, 0.0, False, samples=5, scales=(1.0,))
    assert out.correct, out.problems
    assert tracer.stats["models.model_distance"][0] > 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


def test_verify_sweep_smoke_fails_only_the_named_fault():
    out = workloads.verify_sweep(5, 0.0, False, samples=10, scales=(0.1, 1.0))
    assert out.correct, out.problems
    # two rounds of nine suites at two scales; cevians at k = 0.1 fails
    assert (out.attempted, out.failed) == (2 * 2 * 9, 2)
    assert set(out.metrics) == {"op_p50_ms", "op_tail_ms", "residuals_per_s", "peak_rss_mb"}
    assert all(value > 0.0 for value, _ in out.metrics.values())


def test_verify_sweep_traced_smoke():
    out = workloads.verify_sweep(5, 0.0, True, samples=10, scales=(1.0,))
    assert out.correct, out.problems
    assert list(out.metrics) == tracing.layer_metric_names()
    # a traced run makes at least four rounds, alternating untraced and
    # traced: two traced rounds of nine suites
    assert out.metrics["cli.main.calls"][0] == 2 * 9
    assert 0.0 < out.metrics["suites.horosphere.accept_ratio"][0] <= 1.0


def test_solve_batch_smoke_fails_only_the_named_faults():
    specs = workloads.solve_specs(5)
    # four random slivers at each of the seven geometry and scale pairs
    random_specs = specs[:-len(workloads.SOLVE_FAULTS)]
    assert sum(spec.sliver for spec in random_specs) == 7 * workloads.SOLVE_SLIVERS
    out = workloads.solve_batch(5, 0.0, False)
    assert out.correct, out.problems
    assert out.failed * len(specs) == len(workloads.SOLVE_FAULTS) * out.attempted


def test_solve_batch_traced_smoke_reports_every_layer_metric():
    out = workloads.solve_batch(5, 0.0, True)
    assert out.correct, out.problems
    assert list(out.metrics) == tracing.layer_metric_names()
    assert out.metrics["sampling.sample_stream.calls"][0] == 0
    assert out.metrics["solvers.solve_from_sss.calls"][0] > 0


def test_benchmark_file_lists_every_metric_the_runs_print():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == tracing.layer_metric_names()
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "op_p50_ms", "op_tail_ms", "residuals_per_s", "peak_rss_mb"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
