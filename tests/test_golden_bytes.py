"""Pinned output bytes of the population kernel and of the checks built
on it, for fixed seeds.

The digests of runs without a descending fluid stretch (critical,
supercritical and thm1) were computed before the kernel's scalar fast path
(scalar offspring draws, skipped zero counts) and before thm1/thm2 were
folded into one shared loop; the code must reproduce them exactly.  The
lemma-aux2 digests were re-made when its fractions were keyed by regime,
every fraction kept, and the lemma-aux3 ones when it ran the regime table
in its order, which moved its keys and block seeds, and again when its
cells took the one block-seed rule of `checks._cells`.  The subcritical
ones (simulate, truncated pair, cohort, thm2) were made when a descending fluid stretch became the closed
form `mean_recursion`.  The marginal-limit and fdd digests pin the limit
sampler's draws as they are since its rounds were cut to 2^14 atoms, so
that a later change to the draws has to show its byte move; each of
their rounds fits in one slice of the sampler, so walking rounds in
slices left them as they were.  The thm1 digests were re-made when its
report gained `details.norming` (b_n = n), with every KS value kept to
the bit.  The limit-sample digests pin
`sample_atoms`, `shot_noise_paths` and the CSV and JSON atom writers,
which the marginal sampler does not share; they were re-made when every
limit-sample float took orjson's shortest digits (one time cell below
1e-4 moved each CSV) and each replicate's atom list became one line of
the sidecar, with every float kept to the bit.  numpy may change its
Generator streams between versions, so the digests are only
checked on the numpy major.minor that made them.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from gwshot import cli, streams
from gwshot.checks import CHECK_NAMES, run_check
from gwshot.gw import FluidConfig, population_log_path
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
        "bd1a479afbcb3a17ab22e0de1d8e9edf62e62ab59e0d1cf3a787a8749de75121",
        "992e447ab636b894825d4c09ac23fc3cefef7fc6afa7864100774b5bc32f0202",
    ),
    "supercritical": (
        {"family": "poisson", "mean": 2.0}, True,
        "9f61bb205a8777a8f6d19fa5efb5dcd0d8ac105563cd334ddef3970f7714bc3b",
        "fb86df7438df54adc4c7eb08782ab29ac1315739f9e42f6885e05e9034e9df47",
    ),
}
# y_log then truncated_log of one run_coupled(cutoff=0.5 * n), subcritical
TRUNCATED_PAIR_DIGEST = "7c5b8b6ba09787f97f830aeab62637250006477988515978788d8b8417bb3b6f"
# a lone e^30 geometric(0.5) cohort over 300 generations: extinct from generation 44
COHORT_DIGEST = "e879baefa1ad484f6689f874c041dbfc3c89fdebf920861c2b9af62233acb90e"
# regime: (slope, CSV digest, JSON digest) of limit-sample, a = b = 1,
# horizon 1, delta 0.01, 20 paths
LIMIT_SAMPLE_DIGESTS = {
    "negative": (
        -math.log(2.0),
        "17041e82ccbdce4236bc55d586990f0036c8996ccbcda122d6daafc260747e6a",
        "53287fa1c6572730ef174f597c068c5e8d56b49a51abef1e58c6f92cac187ab4",
    ),
    "extremal": (
        0.0,
        "4445dc894e47a397d837fc773cf33cea7ef5171d299b9beb6c73cf3ecbb4353e",
        "d96d08a48a05dc65a9f1bdd2456a5d07563fe3822e7d72c5554c379452191e16",
    ),
    "positive": (
        math.log(2.0),
        "0fe6a4c433b14ea7ad800aac1ed467bdebf2e27a2a0f5cdf7aebaf5721dc201b",
        "a13f13eb1b6f3a666d1849016a1854041495fc3b225e64f0931e9b7348cdd316",
    ),
}
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
        SEED: "150fcb7b8ca45da24dbaf00c7c0bfda6ba00bddd44a960231b6a7f4e40ede207",
        1: "a814be293ff928e0b53a6b513eed8fe273e0c87acf92b425fc330cc9cbb53b07",
    }),
    "marginal-prelimit-thm2": ({"ns": (10, 20), "replicates": 60}, {
        SEED: "e6605d51d946942cd5f70dab6f93c51ba437a08789921b5fea3ceb15926cffce",
        1: "fa80e5705d825a56237fb422fd61a72b7a6dde5d1521329fae0255f560cf3808",
    }),
    "lemma-aux2": ({"n": 5, "replicates": 40}, {
        SEED: "420b6c9d59ed0910aa8796cc5064103f6a818556e2dfc2bbdf96531a7b7aaa2d",
        1: "6823af2d1ad9d14420d25badf8a903b9b96c85b0f6ee6c02ce82fa515d9b3d94",
    }),
    # at this scale the critical exceed frequencies are not all 0 (0.1/0.375
    # at seed 1), and without the mu^(-k) correction the supercritical ones
    # would read 0.225/1.0 in place of 0.025/0.0, so the correction counts
    "lemma-aux3": ({"ns": (5, 10), "replicates": 40}, {
        SEED: "f6fdef341a0d89d4de009f6c22b0e1fdbf8f76ea14fd1b146a173571c25362ec",
        1: "fd5b9c4797f81f46223c4ff60136be38b788d59e21ddd1a94e5f479537070185",
    }),
    # every q99 is a float of the draws: the envelope's distance, not a frequency
    "functional-coupled": ({"ns": (20, 40), "replicates": 40}, {
        SEED: "5a4a7d2836cc9847bd79aecfe8f1a45c06447ff7b409d03efda7dee5f84903f7",
        1: "6e7a654c05061e02356ad097e8df79d80e3b9fa6c40d8a823360bc4e9e358121",
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


@pytest.mark.parametrize("regime", list(LIMIT_SAMPLE_DIGESTS))
def test_limit_sample_bytes(tmp_path, regime):
    slope, csv_digest, json_digest = LIMIT_SAMPLE_DIGESTS[regime]
    config = {"a": 1.0, "b": 1.0, "slope": slope, "horizon": 1.0, "delta": 0.01}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "limit"
    args = ["limit-sample", "--config", str(path), "--seed", str(SEED), "--replicates", "20", "--out", str(out)]
    assert cli.main(args) == 0
    assert sha256(out.with_suffix(".csv").read_bytes()) == csv_digest
    assert sha256(out.with_suffix(".json").read_bytes()) == json_digest


def test_truncated_pair_bytes():
    run = GwiRun(n=800, horizon=1.0, family=OffspringFamily.geometric(0.5),
                 law=ImmigrationLaw.reciprocal(1.0), seed=SEED)
    bundle = run_coupled(run, cutoff=0.5 * 800.0)
    assert sha256(bundle.y_log.tobytes(), bundle.truncated_log.tobytes()) == TRUNCATED_PAIR_DIGEST


def test_cohort_bytes():
    founders = np.full(301, -math.inf)
    founders[0] = 30.0
    rng = streams.substream(SEED, streams.OFFSPRING)
    logs = population_log_path(OffspringFamily.geometric(0.5), founders, FluidConfig(), rng)
    assert sha256(logs.tobytes()) == COHORT_DIGEST


def test_check_digests_name_registered_checks():
    # a retired check takes its digests with it
    assert set(CHECK_DIGESTS) <= set(CHECK_NAMES)


@pytest.mark.parametrize("check,seed", [(c, s) for c, (_, by_seed) in CHECK_DIGESTS.items() for s in by_seed])
def test_check_report_bytes(check, seed):
    overrides, by_seed = CHECK_DIGESTS[check]
    report = json.dumps(run_check(check, seed=seed, **overrides).to_json(), sort_keys=True)
    assert sha256(report.encode()) == by_seed[seed], report  # on a mismatch, shows which field moved
