import json
import math

import numpy as np
import pytest

from gwshot import budgets, checks, cli, limit
from gwshot.gwi import GwiRun, run_replicates
from gwshot.immigration import ImmigrationLaw
from gwshot.limit import AtomSet, shot_noise_paths
from gwshot.offspring import OffspringFamily


_SMOKE_SCALE = {
    "marginal-limit": {"sample_count": 200},
    "marginal-prelimit-thm1": {"ns": (10, 20), "replicates": 5},
    "marginal-prelimit-thm2": {"ns": (10, 20), "replicates": 5},
    "fdd": {"mc_samples": 1000},
    "lemma-aux2": {"n": 10, "replicates": 5},
    "lemma-aux3": {"ns": (20, 40), "replicates": 5},
    "functional-coupled": {"ns": (10, 20), "replicates": 5},
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


def _verify_functional_coupled(tmp_path, ns):
    """`gwshot verify functional-coupled` at 20 replicates a cell: its exit code and report."""
    cfg = tmp_path / "check.json"
    cfg.write_text(json.dumps({"check": "functional-coupled", "overrides": {"ns": ns, "replicates": 20}}),
                   encoding="utf-8")
    out = tmp_path / "report"
    rc = cli.main(["verify", "--config", str(cfg), "--seed", "3", "--out", str(out)])
    return rc, json.loads(out.with_suffix(".json").read_text(encoding="utf-8"))


def test_functional_coupled_fails_on_a_supercritical_engine_in_the_critical_row(tmp_path, monkeypatch):
    # poisson(1.05) offspring drift from the slope-0 envelope by n log 1.05:
    # at n = 3200 the critical q99 reads about 154 nats against a bound of
    # 34.6, where the correct engine reads 1.8
    assert _verify_functional_coupled(tmp_path, [3200])[0] == 0
    monkeypatch.setitem(checks._REGIMES, "critical", (OffspringFamily.poisson(1.05), ImmigrationLaw.reciprocal(1.0)))
    rc, report = _verify_functional_coupled(tmp_path, [3200])
    assert rc == 4 and report["pass"] is False
    details = report["details"]
    assert details["q99_by_regime"]["critical"]["3200"] > 3 * details["bound_by_regime"]["critical"]["3200"]


def test_functional_coupled_fails_on_an_envelope_of_the_wrong_slope(tmp_path, monkeypatch):
    # with the sign of log mu flipped, the sloped envelopes run away from
    # their paths by 2 n |log mu|; at slope 0 the flip changes nothing
    envelope = checks._envelope
    assert _verify_functional_coupled(tmp_path, [200])[0] == 0
    monkeypatch.setattr(checks, "_envelope", lambda jlog, log_mu: envelope(jlog, -log_mu))
    rc, report = _verify_functional_coupled(tmp_path, [200])
    assert rc == 4 and report["pass"] is False
    q99, bound = report["details"]["q99_by_regime"], report["details"]["bound_by_regime"]
    assert q99["critical"]["200"] <= bound["critical"]["200"]
    assert min(q99["subcritical"]["200"], q99["supercritical"]["200"]) > 5 * bound["subcritical"]["200"]


@pytest.mark.parametrize("regime", list(checks._LOG_MU))
def test_envelope_is_the_shot_noise_path_of_the_run_atoms(regime):
    # the atoms (k/n, log J_k / c_n) with log J_k > 0 and slope n log mu / c_n
    # give the limit path whose value at m/n is e_m⁺ / c_n
    n, log_mu = 50, checks._LOG_MU[regime]
    run = GwiRun(n, 1.0, *checks._REGIMES[regime], seed=11)
    c_n = run.law.norming_bn(n)
    bundles = list(run_replicates(run, 5))
    atom_sets = [AtomSet(np.flatnonzero(b.immigrant_log_j > 0) / n, b.immigrant_log_j[b.immigrant_log_j > 0] / c_n)
                 for b in bundles]
    grid = np.arange(n + 1) / n
    for bundle, path in zip(bundles, shot_noise_paths(atom_sets, 1.0, n * log_mu / c_n)):
        envelope = np.maximum(checks._envelope(bundle.immigrant_log_j, log_mu), 0.0) / c_n
        assert np.max(np.abs(path.value(grid) - envelope) / np.maximum(1.0, envelope)) <= 1e-12


def test_envelope_is_minus_infinity_until_a_batch_above_one():
    # batches of log J <= 0 (J <= 1) found no atom of the limit
    jlog = np.array([-math.inf, 0.0, -0.5, 3.0, -math.inf])
    e = checks._envelope(jlog, 0.0)
    assert np.all(e[:3] == -np.inf)
    np.testing.assert_array_equal(e[3:], [3.0, 3.0])


def test_envelope_keeps_the_larger_of_two_mean_paths():
    # e_m = max(log J_k + (m - k) log mu): a batch of 10 at k = 0 and of 4 at
    # k = 2, mu = 2 and mu = 1/2
    jlog = np.array([10.0, -math.inf, 4.0, -math.inf])
    np.testing.assert_allclose(checks._envelope(jlog, math.log(2.0)), 10.0 + np.arange(4) * math.log(2.0),
                               rtol=1e-15)
    np.testing.assert_allclose(checks._envelope(jlog, -math.log(2.0)),
                               [10.0, 10.0 - math.log(2.0), 10.0 - 2 * math.log(2.0), 10.0 - 3 * math.log(2.0)],
                               rtol=1e-15)
    # the second batch overtakes once the first has decayed below it
    np.testing.assert_allclose(checks._envelope(np.array([5.0, -math.inf, 4.0, -math.inf]), -1.0),
                               [5.0, 4.0, 4.0, 3.0], rtol=1e-15)


def test_functional_coupled_bound_is_the_sum_of_its_terms():
    # log M + log(100 (n + 1)) + log(n + 1) + |log mu|, M = 10^6
    details = checks.run_check("functional-coupled", ns=(7,), replicates=2).details
    for regime, log_mu in checks._LOG_MU.items():
        want = math.log(1e6) + math.log(800) + math.log(8) + abs(log_mu)
        assert details["bound_by_regime"][regime]["7"] == pytest.approx(want, rel=1e-15)
