import dataclasses
import json

import numpy as np
import pytest

from gwshot import budgets, checks, cli, limit
from gwshot.gwi import GwiRun, conditional_mean_path, run_replicates
from gwshot.immigration import ImmigrationLaw
from gwshot.offspring import OffspringFamily


def test_proxy_zn_fails_for_a_misspecified_mean(monkeypatch):
    # the check must be able to fail: a proxy built with mean 1.8 instead of
    # the process mean 2.0 drifts by 100*log(2/1.8) ~ 10.5 by n = 100
    def misspecified(run, immigrant_logs):
        wrong = dataclasses.replace(run, family=OffspringFamily.poisson(1.8))
        return conditional_mean_path(wrong, immigrant_logs)

    monkeypatch.setattr(checks, "conditional_mean_path", misspecified)
    report = checks.run_check("proxy-zn", seed=42)
    assert report.passed is False


_SMOKE_SCALE = {
    "marginal-limit": {"sample_count": 200},
    "marginal-prelimit-thm1": {"ns": (10, 20), "replicates": 5},
    "marginal-prelimit-thm2": {"ns": (10, 20), "replicates": 5},
    "fdd": {"mc_samples": 1000},
    "lemma-aux2": {"n": 10, "replicates": 5},
    "lemma-aux3": {"ns": (20, 40), "replicates": 5},
    "proxy-zn": {"n": 10, "replicates": 5},
}


def test_smoke_scale_names_every_registered_check():
    # an added check gets a smoke scale; a retired one takes its row with it
    assert set(_SMOKE_SCALE) == set(checks.CHECK_NAMES)


@pytest.mark.parametrize("alias,name", checks._ALIASES.items())
def test_alias_gives_the_registered_report(tmp_path, alias, name):
    reports = []
    for check in (alias, name):
        cfg = tmp_path / f"{check}.json"
        cfg.write_text(json.dumps({"check": check, "overrides": _SMOKE_SCALE[name]}), encoding="utf-8")
        out = tmp_path / f"{check}-report"
        assert cli.main(["verify", "--config", str(cfg), "--seed", "3", "--out", str(out)]) in (0, 4)
        reports.append(out.with_suffix(".json").read_bytes())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["check"] == name


@pytest.mark.parametrize("name", checks.CHECK_NAMES)
def test_every_report_serializes(name):
    report = checks.run_check(name, seed=3, **_SMOKE_SCALE[name])
    payload = json.loads(json.dumps(report.to_json()))
    assert type(payload["pass"]) is bool
    assert isinstance(payload["statistic"], float) and isinstance(payload["threshold"], float)


def test_marginal_limit_fails_for_a_flipped_slope(monkeypatch):
    # the check must be able to fail: with the slope sign flipped, the
    # negative regime draws values >= log 2, where its CDF is only 0.37
    sampler = limit.sample_shot_noise_marginal

    def flipped(a, b, slope, u, count, delta, rng):
        return sampler(a, b, -slope, u, count, delta, rng)

    monkeypatch.setattr(limit, "sample_shot_noise_marginal", flipped)
    report = checks.run_check("marginal-limit", seed=42, sample_count=20_000)
    assert report.passed is False
    assert report.details["ks_by_regime"]["extremal"] <= 0.01 < report.statistic


def test_lemma_aux3_budget_counts_each_branch(monkeypatch):
    # three branches per rung: the default ladder costs 3 x (350 + 3 x 100)
    # budgeted generations per replicate
    monkeypatch.setattr(checks, "run_replicates", lambda *args, **kwargs: iter(()))
    checks.run_check("lemma-aux3")
    bound = budgets.ENGINE_GENERATION_BUDGET // (3 * (50 + 100 + 200 + 3 * budgets.PATH_SETUP_GENERATIONS))
    checks.run_check("lemma-aux3", replicates=bound)
    with pytest.raises(ValueError, match="engine budget"):
        checks.run_check("lemma-aux3", replicates=bound + 1)


# check: (regime row it reads, one-rung scale, mutant row).  At 300
# replicates, over DEFAULT_SEED and seeds 1-7, the default rows read KS
# 0.035-0.065 (thm1) and 0.031-0.073 (thm2); the mutants read 0.243-0.263
# and 0.171-0.266, against the 0.15 threshold.  thm1 cannot see a mildly
# supercritical engine: poisson(1.2) offspring reads 0.060-0.103 here and
# 0.057 at the default scale (ROADMAP Baseline).  Seeing it needs a sharper
# rule than a KS against the limit, not a lower threshold.
_THEOREM_MUTANTS = {
    "marginal-prelimit-thm1": ("critical", (200,),
                               (OffspringFamily.poisson(2.0), ImmigrationLaw.reciprocal(1.0))),
    "marginal-prelimit-thm2": ("subcritical", (100,),
                               (OffspringFamily.geometric(0.5), ImmigrationLaw.reciprocal(1.0))),
}


@pytest.mark.parametrize("check", list(_THEOREM_MUTANTS))
def test_theorem_check_fails_on_a_mutant_regime(monkeypatch, check):
    # the checks read their laws from checks._REGIMES when they run, so a
    # swapped row is the engine they test
    regime, ns, mutant = _THEOREM_MUTANTS[check]
    assert checks.run_check(check, ns=ns, replicates=300).passed is True
    monkeypatch.setitem(checks._REGIMES, regime, mutant)
    assert checks.run_check(check, ns=ns, replicates=300).passed is False


# At their default scales both ladders fail at these seeds on the 0.02
# monotone slack alone, each rung well below the 0.15 threshold:
# thm1 reads KS 0.0273 / 0.0094 / 0.0335 along n = 50 / 200 / 800, thm2
# 0.0241 -> 0.0452 along n = 25 / 100.
@pytest.mark.xfail(strict=True, reason="ROADMAP P: 0.02 monotone slack fails on noise")
@pytest.mark.parametrize("check,seed", [("marginal-prelimit-thm1", 15), ("marginal-prelimit-thm2", 32)])
def test_theorem_check_passes_at_its_default_scale(check, seed):
    assert checks.run_check(check, seed=seed).passed is True


def test_rung_reads_each_replicate_in_order():
    # a tuple reader gives one column per statistic, row r from replicate r
    pairs = checks._rung("critical", 10, 5, 4, lambda run, bundle: (bundle.y_log[-1], bundle.immigrant_log_j[0]))
    run = GwiRun(10, 1.0, *checks._REGIMES["critical"], seed=5)
    want = [(bundle.y_log[-1], bundle.immigrant_log_j[0]) for bundle in run_replicates(run, 4)]
    assert pairs.shape == (4, 2) and np.array_equal(pairs, want)
