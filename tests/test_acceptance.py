"""End-to-end acceptance checks, one printed verdict line per criterion.

Each test prints ``criterion N: PASS/FAIL - <what was measured>`` on the
real stdout (bypassing capture) so a full run always shows ten verdict
lines, then asserts the criterion.
"""

import math
import subprocess
import sys
import time

import numpy as np

from cctrig import (Curvature, DegenerateError, DomainError, GeodesicSphere,
                    InfeasibleError, Model, ModelPoint, Ray, build_prism,
                    cevian_feet, cevian_residual,
                    euclidean_limit_slope, euclidean_residuals,
                    geodesic_sphere_triangle, horosphere_triangle,
                    hyperbolic_residuals, imaginary_substitution_residuals,
                    intrinsic_arc_length, inverse_parallelism,
                    parallelism_angle, perturbed_residual, replay_residuals,
                    sample_cevian_config, sample_right_triangle,
                    sample_stream, sample_triangle, spherical_residuals,
                    spherical_right_residuals, tangent_angle)

HYP = Curvature.hyperbolic()
SPH = Curvature.spherical()
EUC = Curvature.euclidean()


def _verdict(capsys, number: int, ok: bool, description: str) -> None:
    with capsys.disabled():
        print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {description}",
              flush=True)
    assert ok, f"criterion {number}: {description}"


def test_criterion_01_angle_of_parallelism(capsys):
    start = time.perf_counter()
    ok = parallelism_angle(0.0, HYP) == math.pi / 2.0
    for p in np.geomspace(1e-6, 50.0, 400):
        p = float(p)
        angle = parallelism_angle(p, HYP)
        ok &= abs(math.sin(angle) - 1.0 / math.cosh(p)) < 1e-12
        ok &= abs(math.cos(angle) - math.tanh(p)) < 1e-12
        # tan(angle) = 1/sinh(p), cleared of the pole at p -> 0
        ok &= abs(math.sin(angle) * math.sinh(p) - math.cos(angle)) < 1e-12
        again = parallelism_angle(inverse_parallelism(angle, HYP), HYP)
        ok &= abs(again - angle) <= 1e-12 * angle
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    _verdict(capsys, 1, ok, "angle of parallelism: exact right angle at 0, "
                    f"identities and round trip at 1e-12, {elapsed:.2f} s")


def test_criterion_02_hyperbolic_relations(capsys):
    start = time.perf_counter()
    worst = 0.0
    for i in range(10000):
        t = sample_triangle(HYP, 42, i, min_angle=1e-3, max_side=10.0)
        worst = max(worst, max(abs(r.residual)
                               for r in hyperbolic_residuals(t)))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 10.0
    _verdict(capsys, 2, ok, "hyperbolic relations on 10000 hyperboloid triangles, "
                    f"worst residual {worst:.2e} (< 1e-9), {elapsed:.1f} s")


def test_criterion_03_spherical_relations(capsys):
    worst = 0.0
    for i in range(10000):
        t = sample_triangle(SPH, 42, i)
        worst = max(worst, max(abs(r.residual)
                               for r in spherical_residuals(t)))
    worst_right = 0.0
    for i in range(10000):
        t = sample_right_triangle(SPH, 42, i)
        worst_right = max(worst_right, max(abs(r.residual)
                                           for r in spherical_right_residuals(t)))
    ok = worst < 1e-9 and worst_right < 1e-10
    _verdict(capsys, 3, ok, "spherical relations on 10000 hemisphere triangles, "
                    f"worst {worst:.2e} (< 1e-9); right-angle forms "
                    f"worst {worst_right:.2e} (< 1e-10)")


def _ray_triple(g, center):
    """Three well-separated unit rays at the hyperboloid origin."""
    for _ in range(128):
        dirs = g.normal(size=(3, 3))
        norms = np.sqrt((dirs * dirs).sum(axis=1))
        if norms.min() < 1e-6:
            continue
        dirs = dirs / norms[:, None]
        cosines = dirs @ dirs.T
        if max(abs(cosines[0, 1]), abs(cosines[0, 2]),
               abs(cosines[1, 2])) > math.cos(0.05):
            continue
        return tuple(Ray.at(center, (0.0, *map(float, d))) for d in dirs)
    raise DomainError("no acceptable ray triple")


def test_criterion_04_geodesic_sphere_model(capsys):
    center = ModelPoint(Model.HYPERBOLOID, (1.0, 0.0, 0.0, 0.0), 1.0)
    worst = worst_arc = 0.0
    for rho in (0.1, 1.0, 5.0):
        sphere = GeodesicSphere(center, rho)
        produced = index = 0
        while produced < 1000:
            g = sample_stream(42, 900000 + index)
            index += 1
            try:
                rays = _ray_triple(g, center)
                t = geodesic_sphere_triangle(rays)
            except (DomainError, DegenerateError, InfeasibleError):
                continue
            worst = max(worst, max(abs(r.residual)
                                   for r in spherical_residuals(t)))
            if produced < 100:
                p = sphere.point_toward(rays[0].direction)
                q = sphere.point_toward(rays[1].direction)
                angle = tangent_angle(center, rays[0].direction,
                                      rays[1].direction)
                worst_arc = max(worst_arc, abs(
                    intrinsic_arc_length(sphere, p, q)
                    - sphere.effective_radius * angle))
            produced += 1
    ok = worst < 1e-9 and worst_arc < 1e-7
    _verdict(capsys, 4, ok, "geodesic-sphere triangles at radii 0.1/1/5, worst "
                    f"residual {worst:.2e} (< 1e-9); arc length = "
                    f"effective radius x angle, worst {worst_arc:.2e} (< 1e-7)")


def test_criterion_05_horosphere_model(capsys):
    worst_sum = worst_lawcos = 0.0
    produced = index = 0
    while produced < 1000:
        g = sample_stream(42, 950000 + index)
        index += 1
        pts = g.uniform(-2.0, 2.0, size=(3, 2))
        try:
            t = horosphere_triangle(1.0, pts[0], pts[1], pts[2], 1.0)
        except (DomainError, DegenerateError):
            continue
        if min(t.angles()) < 1e-3 or min(t.sides()) < 1e-3:
            continue
        residuals = {r.relation_id: r.residual for r in euclidean_residuals(t)}
        worst_sum = max(worst_sum, abs(residuals["euc_angle_sum"]))
        worst_lawcos = max(worst_lawcos, abs(residuals["euc_side_cosine"]))
        produced += 1
    ok = worst_sum < 1e-9 and worst_lawcos < 1e-10
    _verdict(capsys, 5, ok, "horosphere triangles: angle sum within "
                    f"{worst_sum:.2e} of pi (< 1e-9), flat law of cosines "
                    f"worst {worst_lawcos:.2e} (< 1e-10)")


def test_criterion_06_prism_pipeline(capsys):
    start = time.perf_counter()
    worst_m = worst_horo = worst_replay = 0.0
    for i in range(1000):
        t = sample_right_triangle(HYP, 42, 970000 + i)
        figure = build_prism(t)
        worst_m = max(worst_m, figure.right_angle_defect_at_m)
        worst_horo = max(worst_horo, figure.horospherical_right_angle_defect)
        worst_replay = max(worst_replay, max(abs(r.residual)
                                             for r in replay_residuals(figure)))
    elapsed = time.perf_counter() - start
    ok = (worst_m < 1e-8 and worst_horo < 1e-8 and worst_replay < 1e-8
          and elapsed < 30.0)
    _verdict(capsys, 6, ok, "1000 prisms: spherical right angle defect "
                    f"{worst_m:.2e}, horospherical {worst_horo:.2e}, "
                    f"replayed identities {worst_replay:.2e} (all < 1e-8), "
                    f"{elapsed:.1f} s")


def test_criterion_07_imaginary_substitution(capsys):
    worst = 0.0
    for i in range(1000):
        t = sample_triangle(HYP, 42, 980000 + i, max_side=3.0)
        worst = max(worst, max(r.magnitude
                               for r in imaginary_substitution_residuals(t)))
    ok = worst < 1e-9
    _verdict(capsys, 7, ok, "imaginary-side substitution on 1000 hyperbolic "
                    f"triangles, worst complex residual {worst:.2e} (< 1e-9)")


def test_criterion_08_euclidean_limit(capsys):
    scales = tuple(np.geomspace(1e-1, 1e-3, 7))
    worst = 0.0
    for i in range(5):
        for geometry, max_side in ((HYP, 2.0), (SPH, 1.5)):
            shape = sample_triangle(geometry, 42, 990000 + i,
                                    max_side=max_side)
            fit = euclidean_limit_slope(shape, scales)
            worst = max(worst, abs(fit.slope - 2.0))
    ok = worst <= 0.1
    _verdict(capsys, 8, ok, "log-log excess slope for 10 random shapes over scales "
                    f"1e-1..1e-3, worst |slope - 2| = {worst:.2e} (<= 0.1)")


def test_criterion_09_cevians(capsys):
    medians = cevian_feet(EUC, ModelPoint.plane(0.0, 0.0),
                          ModelPoint.plane(4.0, 0.0), ModelPoint.plane(2.0, 6.0),
                          ModelPoint.plane(2.0, 2.0))
    ok = cevian_residual(medians) == 0.0   # exact 8 = 8
    incenter = cevian_feet(EUC, ModelPoint.plane(0.0, 4.0),
                           ModelPoint.plane(3.0, 0.0), ModelPoint.plane(0.0, 0.0),
                           ModelPoint.plane(1.0, 1.0))
    incenter_residual = abs(cevian_residual(incenter))
    ok &= incenter_residual < 1e-12
    s = 1.0 / math.sqrt(3.0)
    octant = cevian_feet(SPH, ModelPoint(Model.SPHERE, (1.0, 0.0, 0.0), 1.0),
                         ModelPoint(Model.SPHERE, (0.0, 1.0, 0.0), 1.0),
                         ModelPoint(Model.SPHERE, (0.0, 0.0, 1.0), 1.0),
                         ModelPoint(Model.SPHERE, (s, s, s), 1.0))
    ok &= all(abs(r - 2.0) < 1e-9 for r in octant.ratios())
    response = min(abs(perturbed_residual(medians, 1e-3)),
                   abs(perturbed_residual(incenter, 1e-3)))
    ok &= response > 1e-4
    conjecture = 0.0
    for i in range(200):
        value = cevian_residual(sample_cevian_config(HYP, 42, 995000 + i))
        ok &= math.isfinite(value)
        conjecture = max(conjecture, abs(value))
    _verdict(capsys, 9, ok, "cevians: medians exactly 8 = 8, incenter residual "
                    f"{incenter_residual:.1e} (< 1e-12), octant ratios = 2 "
                    "(< 1e-9), perturbation response "
                    f"{response:.1e} (> 1e-4); hyperbolic analogue recorded, "
                    f"max |residual| {conjecture:.1e} (not asserted)")


def test_criterion_10_full_verification_run(capsys, child_env):
    command = [sys.executable, "-m", "cctrig", "verify", "all",
               "--samples", "1000", "--seed", "42"]
    timings = []
    outputs = []
    codes = []
    for _ in range(2):
        start = time.perf_counter()
        result = subprocess.run(command, capture_output=True, env=child_env,
                                timeout=120)
        timings.append(time.perf_counter() - start)
        outputs.append(result.stdout)
        codes.append(result.returncode)
    ok = (codes == [0, 0] and outputs[0] == outputs[1] and len(outputs[0]) > 0
          and max(timings) < 60.0)
    _verdict(capsys, 10, ok, "verify all --samples 1000: exit codes "
                     f"{codes[0]}/{codes[1]}, byte-identical output "
                     f"({len(outputs[0])} bytes), "
                     f"{timings[0]:.1f} s and {timings[1]:.1f} s (< 60 s)")
