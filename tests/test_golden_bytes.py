"""Pinned output bytes of the population kernel, for fixed seeds.

The digests were computed before the kernel's scalar fast path (scalar
offspring draws, a libm `logaddexp`, skipped zero counts), and that path
must reproduce them exactly.  numpy may change its Generator streams
between versions, so the digests are only checked on the numpy major.minor
that made them.
"""

import hashlib
import json

import numpy as np
import pytest

from gwshot import cli, streams
from gwshot.gw import FluidConfig, simulate_cohort
from gwshot.gwi import GwiRun, run_coupled
from gwshot.immigration import ImmigrationLaw
from gwshot.lognum import LogMagnitude
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
    logs = simulate_cohort(OffspringFamily.geometric(0.5), LogMagnitude(30.0), 300, FluidConfig(), rng)
    assert sha256(logs.tobytes()) == COHORT_DIGEST
