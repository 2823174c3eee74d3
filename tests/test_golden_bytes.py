"""Pinned output bytes of the population kernel and of the checks built
on it, for fixed seeds.

The kernel digests were computed before the kernel's scalar fast path
(scalar offspring draws, a libm `logaddexp`, skipped zero counts), and the
engine check digests before thm1/thm2 and lemma-aux2/aux2a were folded into
one shared loop each; the code must reproduce them exactly.  The
marginal-limit and fdd digests pin the limit sampler's draws as they are
since its rounds were cut to 2^14 atoms, so that a later change to the
draws has to show its byte move.  numpy may change
its Generator streams between versions, so the digests are only checked on
the numpy major.minor that made them.
"""

import hashlib
import json

import numpy as np
import pytest

from gwshot import cli, streams
from gwshot.checks import run_check
from gwshot.gw import FluidConfig, simulate_cohort
from gwshot.gwi import GwiRun, run_coupled
from gwshot.immigration import ImmigrationLaw
from gwshot.offspring import OffspringFamily

DIGEST_NUMPY = "2.4"
SEED = 20250809

pytestmark = pytest.mark.skipif(
    ".".join(np.__version__.split(".")[:2]) != DIGEST_NUMPY,
    reason=f"digests were made with numpy {DIGEST_NUMPY}; Generator streams may differ on numpy {np.__version__}",
)


def sha256(*chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


# regime: (offspring, supercritical_correction, CSV digest, JSON digest)
SIMULATE_DIGESTS = {
    "critical": (
        {"family": "binary", "mean": 1.0}, False,
        "c57fdea0e6b9f639dab68bc466e89dce97320d91463c6677b40840904eca0405",
        "250839f205fc1f742eb785ba018498fbf094f6c673c179ffbe7b15f9fcb8b6ff",
    ),
    "subcritical": (
        {"family": "geometric", "mean": 0.5}, False,
        "28af2e561669221bd5aec48a31f409e82ff603dce839eba0f15a5674214913db",
        "992e447ab636b894825d4c09ac23fc3cefef7fc6afa7864100774b5bc32f0202",
    ),
    "supercritical": (
        {"family": "poisson", "mean": 2.0}, True,
        "9f61bb205a8777a8f6d19fa5efb5dcd0d8ac105563cd334ddef3970f7714bc3b",
        "fb86df7438df54adc4c7eb08782ab29ac1315739f9e42f6885e05e9034e9df47",
    ),
}
# y_log then truncated_log of one run_coupled(gamma=0.5, c_n=n), subcritical
TRUNCATED_PAIR_DIGEST = "7265aade99dd518187fd4645846915e1cc3d509a15fbe60c11c3ca69fd803a6d"
# a lone e^30 geometric(0.5) cohort over 300 generations: extinct from generation 44
COHORT_DIGEST = "2f68f5e7de444754dedfc446e64206f81dcb48eaf9ab1c3e62b8e8714c5babcd"
# check: (small-scale overrides, {seed: digest of the sorted-key report JSON}).
# At these cohort scales some family's exceed fraction lies strictly between
# 0 and 1, and every KS and Monte Carlo frequency is a float of the draws,
# so the digests move with the draws.
CHECK_DIGESTS = {
    "marginal-limit": ({"sample_count": 2000}, {
        SEED: "100062da05c8a5a7c60e9a79fd2e2de728a478f484403bc4bbd175c45932dee4",
        1: "f2fe56644f9ab79693b3784b0dd05cf91fa38ae2a8e0d46277cbe64251400af0",
    }),
    "fdd": ({"mc_samples": 2000}, {
        SEED: "abd438240a0765f44b6d0083986ded56d32cf651fdd90bd9e94540b8c5c63cfd",
        1: "d31737f9c88186f00bdc2bad7195a1a8e16097755ee594192a5ad1b5e6011f0f",
    }),
    "marginal-prelimit-thm1": ({"ns": (20, 40, 80), "replicates": 60}, {
        SEED: "8645aeca74a5b0b81bfe7d9594c0fad2077ded3400edfe81a2dbddace7db0f80",
        1: "624cc37c729529517eb20e3273fae612c4e2d9652d0b78a57a816c2e298e5ab8",
    }),
    "marginal-prelimit-thm2": ({"ns": (10, 20), "replicates": 60}, {
        SEED: "67addf9912fd59e344f3ce9df23073081a025ea82f0abc255fe66cc1c8a3f51c",
        1: "6d65809246a658bd9b498e445d094432f13a672f0cc86e1924961ef3fc79b7ab",
    }),
    "lemma-aux2": ({"n": 5, "replicates": 40}, {
        SEED: "c1cda6933cef14700e16a6b591e41feb3cfeec49511237415c690f9c5336ba00",
        1: "4bd14e6e0effcd79781c0e50559a0e02f720f93a0003cb1d3e7c00a7169b97c2",
    }),
    "lemma-aux2a": ({"n": 2, "replicates": 40}, {
        SEED: "a6ac32d3768fcc6b86be5febc2ad3cc1df74737ca0251e70422a189e07a7a5bf",
        1: "05b46c959412ab14188d1a347440afe7addbecb5806154b1e6f386804138af1e",
    }),
}


@pytest.mark.parametrize("regime", list(SIMULATE_DIGESTS))
def test_simulate_bytes(tmp_path, regime):
    offspring, correction, csv_digest, json_digest = SIMULATE_DIGESTS[regime]
    config = {
        "n": 800,
        "horizon": 1.0,
        "offspring": offspring,
        "immigration": {"variant": "reciprocal", "c": 1.0},
        "norm": "n",
        "supercritical_correction": correction,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / regime
    args = ["simulate", "--config", str(path), "--seed", str(SEED), "--replicates", "30", "--out", str(out)]
    assert cli.main(args) == 0
    assert sha256(out.with_suffix(".csv").read_bytes()) == csv_digest
    assert sha256(out.with_suffix(".json").read_bytes()) == json_digest


def test_truncated_pair_bytes():
    run = GwiRun(n=800, horizon=1.0, family=OffspringFamily.geometric(0.5),
                 law=ImmigrationLaw.reciprocal(1.0), seed=SEED)
    bundle = run_coupled(run, gamma=0.5, c_n=800.0)
    assert sha256(bundle.y_log.tobytes(), bundle.truncated_log.tobytes()) == TRUNCATED_PAIR_DIGEST


def test_cohort_bytes():
    rng = streams.substream(SEED, streams.OFFSPRING)
    logs = simulate_cohort(OffspringFamily.geometric(0.5), 30.0, 300, FluidConfig(), rng)
    assert sha256(logs.tobytes()) == COHORT_DIGEST


@pytest.mark.parametrize("check,seed", [(c, s) for c, (_, by_seed) in CHECK_DIGESTS.items() for s in by_seed])
def test_check_report_bytes(check, seed):
    overrides, by_seed = CHECK_DIGESTS[check]
    report = json.dumps(run_check(check, seed=seed, **overrides).to_json(), sort_keys=True)
    assert sha256(report.encode()) == by_seed[seed]
