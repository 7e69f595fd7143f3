"""Golden digests of the report bytes.

Each case runs one CLI command in process and compares the sha256 of its
stdout with a digest recorded from a known-good build. A refactor that
claims to keep behaviour must leave every digest unchanged; a change that
moves one on purpose records the new digest once and says why. Never
regenerate these to make a failing run pass.
"""

import hashlib

import pytest

from cctrig.cli import main

ARCCOSH_2 = "1.3169578969248168"
HALF_PI = "1.5707963267948966"
_SEED = ("--seed", "42")

#: README `solve` examples, in every output format
_README_SOLVES = {
    "hyp_sss": ("solve", "--geometry", "hyperbolic", "--mode", "sss",
                ARCCOSH_2, ARCCOSH_2, ARCCOSH_2),
    "euc_sas": ("solve", "--geometry", "euclidean", "--mode", "sas",
                "3", HALF_PI, "4"),
}
#: curved SAS/ASA/AAA solves, which no verify suite reaches
_CURVED_SOLVES = {
    "sph_sas": ("spherical", "sas", "1", ("0.7", "1.1", "1.2")),
    "sph_asa": ("spherical", "asa", "1", ("1.0", "0.8", "1.3")),
    "sph_aaa": ("spherical", "aaa", "2", ("1.2", "1.1", "1.0")),
    "hyp_sas": ("hyperbolic", "sas", "2.5", ("2.0", "0.4", "3.5")),
    "hyp_asa": ("hyperbolic", "asa", "1", ("0.3", "1.5", "0.4")),
    "hyp_asa_long": ("hyperbolic", "asa", "1", ("0.05", "4.0", "0.05")),
    "hyp_aaa": ("hyperbolic", "aaa", "0.5", ("0.5", "0.7", "0.9")),
}
#: suites whose per-k report is pinned: every suite. cevians still draws
#: its radii in absolute units, which breaks it at k = 0.1 and below, but
#: at k = 0.5 and 10 it passes
_SCALED_SUITES = ("spherical", "hyperbolic", "euclidean", "sphere-model",
                  "horosphere", "prism", "substitution", "limits", "cevians")
#: suites pinned at 3000 samples, k = 1: there the samplers' rejection
#: rounds run deeper than the 1000- and 200-sample cases reach
_DEEP_SUITES = ("spherical", "hyperbolic", "euclidean", "substitution",
                "sphere-model", "cevians", "prism", "horosphere")


def _cases():
    cases = {"verify_all_1000_json": ("verify", "all", "--samples", "1000",
                                      *_SEED, "--format", "json")}
    for suite in _SCALED_SUITES:
        for k in ("0.5", "10"):
            cases[f"verify_{suite}_k{k}_csv"] = (
                "verify", suite, "--samples", "200", *_SEED,
                "--curvature-scale", k, "--format", "csv")
    for suite in _DEEP_SUITES:
        cases[f"verify_{suite}_3000_csv"] = ("verify", suite, "--samples", "3000",
                                             "--seed", "7", "--format", "csv")
    for name, argv in _README_SOLVES.items():
        for fmt in ("json", "csv", "human"):
            cases[f"solve_{name}_{fmt}"] = (*argv, "--format", fmt)
    for name, (geometry, mode, k, values) in _CURVED_SOLVES.items():
        cases[f"solve_{name}_json"] = ("solve", "--geometry", geometry,
                                       "--mode", mode, "--curvature-scale", k,
                                       "--format", "json", *values)
    cases["parallelism_k0.5"] = ("parallelism", "0", "40", "81",
                                 "--curvature-scale", "0.5")
    return cases


CASES = _cases()

DIGESTS = {
    "verify_all_1000_json":
        "840e5fe3f91af156a7b742d836592158837f842b8c7cf183106e7fa706d691d0",
    "verify_spherical_k0.5_csv":
        "5c85b2cf8a5912280b19d34777faa76331d00769944aa5fed275620b74af10ec",
    "verify_spherical_k10_csv":
        "022fe524ff30e1f34b95f89523174edd64034bb75fc6d2885e6cd0d0e019bbaa",
    "verify_hyperbolic_k0.5_csv":
        "c87b5f0644d25decf4372b05f5c76eda5edb1187539b5b6efdbfde78016e8aac",
    "verify_hyperbolic_k10_csv":
        "f19d36981390fb3b8b4729921594a03f7446f270b3b91dc7a151acd39135c8be",
    "verify_euclidean_k0.5_csv":
        "f7f3f009cd5b272f0195ab43c52079a3694820fd93dc3b6d3e72f329c9c9d48c",
    "verify_euclidean_k10_csv":
        "f7f3f009cd5b272f0195ab43c52079a3694820fd93dc3b6d3e72f329c9c9d48c",
    "verify_sphere-model_k0.5_csv":
        "8dc298197f82a7f38f01da7759409f990aae756856d012bf37fa0e1555388fdb",
    "verify_sphere-model_k10_csv":
        "f7cef8c56c715caca146a997a8f9cb8e710456048f3399b1c60db32a1440af07",
    "verify_horosphere_k0.5_csv":
        "d1f07e6447e9508b53dd43ee9dbb3c6e868f288e418aafccb3f73a3dac4c46de",
    "verify_horosphere_k10_csv":
        "1c833b7121cb5f046d05a2ca7c033de30d4c1a0a28db8c2ff3e3ee0337b985e4",
    "verify_prism_k0.5_csv":
        "f9024db2ad346a556ce7b46aef2cdb4a5daf3d1b679ad7924f4d209b74d12966",
    "verify_prism_k10_csv":
        "ddebebd555d64deacbe6abd5b659d395bcce60540197ef5db7558dab28f4915a",
    "verify_substitution_k0.5_csv":
        "50defe34851fddc0a893159a9142d98bfc098a5de5776f9e42edf9ae9ce68ade",
    "verify_substitution_k10_csv":
        "dab571c0979710b0f0fe358953b97adaea54ef71033d3ead1f914118c6a9b903",
    "verify_limits_k0.5_csv":
        "90b7f5651f1c8051f5acea7194ceb28ecb62c2219bd6b175ad44af4893b1363c",
    "verify_limits_k10_csv":
        "b6399781a098d9bb84704376ca0c8917a26c9e227e8de1d477e7dae5e06c9845",
    "verify_cevians_k0.5_csv":
        "9b95d9f28016c27f08ea4f72c89c4b837976a8d35e965bd8ac1737a593efb4ac",
    "verify_cevians_k10_csv":
        "8cb9f90c3c9d5df21f90bf717e6db3c53997b57eb2557cc31c640b8e4190aab7",
    "verify_spherical_3000_csv":
        "8501dae4a96ce757eb24acf566b2a84c82aa8bd9256525f078b15bfd4a93fc8d",
    "verify_hyperbolic_3000_csv":
        "8628fda5878c383aa2540736cc883aab8242cabbd93421e413457c2cb628c652",
    "verify_euclidean_3000_csv":
        "34764f8b9d7320ad70519e2e442bfda6037fa43e680b51c58d108d19aa3d9b85",
    "verify_substitution_3000_csv":
        "0953c6e2e13ee26cc145029918a119cdeee7de6b793f0f8eb8d8f6838ece5fc2",
    "verify_sphere-model_3000_csv":
        "5481e10d3e93518817c1e6bc3402ac15ceb4f2fee4d2979d854e5bc7528dc1b2",
    "verify_cevians_3000_csv":
        "18fcfd1e345f241eae7d2bc76ff8e7d55cc619adcfc981633e2c1b176d0c9984",
    "verify_prism_3000_csv":
        "45748737a5fdcb7fd153fa74321b854c654992e245eb3ee86cb93503bb2508a7",
    "verify_horosphere_3000_csv":
        "6c3b2c01cca9b24a689cc2e8e44c3565515d4ff24714f5f223bdff0730839f6b",
    "solve_hyp_sss_json":
        "f9cd9328524b1adfc0fd5885cf8cd4398cc0fa376e282728c8d2ec59f089e7dc",
    "solve_hyp_sss_csv":
        "aac8c40b2654fe08f32e3678b53f76e12fb944715ff022e18d9a65975981d7f9",
    "solve_hyp_sss_human":
        "66c1ce50731eaa697030a650af2a600dbfce1abeba3481d1bc38edb27947c31e",
    "solve_euc_sas_json":
        "a03468709a7625648551e6595156ec3ec4a9d5da844d2f82495ba614abf396a2",
    "solve_euc_sas_csv":
        "a88a166be82f005aab3e17d6db658f4d365e3bacb25b9b10da936672fbda7f6e",
    "solve_euc_sas_human":
        "5ffa657a0c5d23b9838a5935f18b2703c184e4cd2280866cea3d173fd203ff1b",
    "solve_sph_sas_json":
        "06325230bfc4b74548c6ff7eec5f4fbe860cce73ebbc012bb3c23f8cd574e4d7",
    "solve_sph_asa_json":
        "6eef04bb1d477f4da641ab7dd6aefa3652c0d02b2314e78d847d1047c54f8a4b",
    "solve_sph_aaa_json":
        "626e9f37d3d6fafd7aaa5fa6ddbe194b1385513ff5c17b2e0f2fb12fd714058a",
    "solve_hyp_sas_json":
        "9f5bf4cb2a52bc48472bcb4a4bfd610ffc7cbbf0a6edde61c7b584ed1947c072",
    "solve_hyp_asa_json":
        "09b8b58e27a99646b344b6c5c169da9b9dc3a3d62f239c0284e2da1cbc183a08",
    "solve_hyp_asa_long_json":
        "bf904ec3e9dd82ae85f91425b38de26996f3f060fa2970baec1dd1fbc0878868",
    "solve_hyp_aaa_json":
        "a50e250862c50c9a042c3ee26a5bbb2d6103de9aee109783952a0b5a85a288a8",
    "parallelism_k0.5":
        "ab45a2d7cb4f493492bad7d9b4b31c8b90015742826f37daf7d17f311c50e48c",
}


def _stdout_digest(capsys, argv) -> str:
    main(list(argv))
    return hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", list(CASES))
def test_report_bytes_match_the_golden_digest(capsys, name):
    assert _stdout_digest(capsys, CASES[name]) == DIGESTS[name]


def test_every_case_has_a_digest():
    assert set(DIGESTS) == set(CASES)
