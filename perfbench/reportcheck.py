"""Checks a `verify --format json` report against what the method must
produce, without reference to any stored report.

The expected rows follow the suite definitions: which relations each
suite evaluates, in which order, and how many samples each row
aggregates (the configured count for per-sample rows, a fixed count for
the closed-form and spot-check rows).
"""

from __future__ import annotations

import json


def _rows(suite: str, n: int) -> list[tuple[str, int, str]]:
    """(relation_id, samples, comparison) of one suite's rows in order."""
    below = "max_below"
    if suite == "spherical":
        ids = ["sph_sine_law", "sph_side_cosine", "sph_cotangent", "sph_angle_cosine",
               "sphr_sine", "sphr_cos_angle", "sphr_pythagoras"]
        return [(r, n, below) for r in ids]
    if suite == "hyperbolic":
        ids = ["hyp_sine_law", "hyp_side_cosine", "hyp_angle_cosine", "hyp_cotangent"]
        return [(r, n, below) for r in ids]
    if suite == "euclidean":
        return [(r, n, below) for r in ("euc_sine_law", "euc_side_cosine", "euc_angle_sum")]
    if suite == "sphere-model":
        rows = []
        for rho in ("0.1", "1", "5"):
            rows += [(f"gsph_rho{rho}_{r}", n, below)
                     for r in ("sine_law", "side_cosine", "cotangent", "angle_cosine")]
            # the first 16 accepted samples also check the arc length
            rows.append((f"gsph_rho{rho}_effective_radius", min(n, 16), below))
        return rows
    if suite == "horosphere":
        return [("horo_angle_sum", n, below), ("horo_sine_law", n, below),
                ("horo_side_cosine", n, below), ("horo_ambient_vs_intrinsic", 8, below)]
    if suite == "prism":
        ids = ["prism_right_angle_at_m", "prism_horospherical_right", "prism_ideal_alignment",
               "prism_parallelism_match", "replay_hyp_sine_law", "replay_hyp_side_cosine",
               "replay_hyp_angle_cosine", "replay_hyp_cotangent"]
        return [(r, n, below) for r in ids]
    if suite == "substitution":
        return [(f"sub_{r}", n, below)
                for r in ("sine_law", "side_cosine", "cotangent", "angle_cosine")]
    if suite == "limits":
        # ten shapes; three rescaling factors each
        return [("limit_slope_hyperbolic", 10, below), ("limit_slope_spherical", 10, below),
                ("limit_endpoint_excess", 10, below), ("limit_rescaling", 30, below)]
    if suite == "cevians":
        return [("cev_euclidean_medians", 1, below), ("cev_345_incenter", 1, below),
                ("cev_spherical_octant", 3, below), ("cev_euclidean_sampled", n, below),
                ("cev_spherical_sampled", n, below),
                ("cev_hyperbolic_conjecture", n, "recorded"),
                ("cev_perturbation", 3, "min_above")]
    raise ValueError(f"unknown suite {suite!r}")


def _refuse_constant(name: str):
    raise ValueError(f"non-finite number {name} in report")


def check_report(text: str, suite: str, seed: int, samples: int, k: float) -> list[str]:
    """Problems found in one json report; an empty list means it is sound."""
    try:
        doc = json.loads(text, parse_constant=_refuse_constant)
    except ValueError as exc:
        return [f"not strict json: {exc}"]
    problems = []
    head = (doc.get("schema"), doc.get("suite"), doc.get("seed"), doc.get("samples"),
            doc.get("curvature"))
    want = (1, suite, seed, samples, {"kind": "hyperbolic", "k": k})
    if head != want:
        problems.append(f"header {head} != {want}")
    if doc.get("pass") is not True:
        problems.append("report does not pass")
    rows = doc.get("rows", [])
    got = [(r.get("relation_id"), r.get("samples"), r.get("comparison")) for r in rows]
    if got != _rows(suite, samples):
        problems.append(f"row set {got} differs from the suite definition")
    for r in rows:
        rid = r.get("relation_id")
        stats = [r.get(f"{s}_abs_residual") for s in ("min", "mean", "p99", "max")]
        if not all(isinstance(v, (int, float)) for v in stats):
            problems.append(f"{rid}: missing order statistics")
            continue
        lo, mean, p99, hi = stats
        if not (0.0 <= lo <= p99 <= hi and lo <= mean <= hi):
            problems.append(f"{rid}: order statistics out of order")
        if r.get("comparison") == "max_below" and not (hi < r.get("tolerance")
                                                       and r.get("pass") is True):
            problems.append(f"{rid}: max {hi} not below {r.get('tolerance')}")
        if r.get("comparison") == "min_above" and not (lo > r.get("tolerance")
                                                       and r.get("pass") is True):
            problems.append(f"{rid}: min {lo} not above {r.get('tolerance')}")
    return problems


def accepted_samples(text: str) -> dict[str, int]:
    """Samples accepted by the rejection-sampled suites in one report:
    the three geodesic-sphere levels and the horosphere draws."""
    rows = {r["relation_id"]: r["samples"] for r in json.loads(text)["rows"]}
    return {"sphere-model": sum(rows.get(f"gsph_rho{rho}_sine_law", 0)
                                for rho in ("0.1", "1", "5")),
            "horosphere": rows.get("horo_angle_sum", 0)}


def residual_count(text: str) -> int:
    """Residual values behind one report: the sum of its rows' samples."""
    return sum(r["samples"] for r in json.loads(text)["rows"])
