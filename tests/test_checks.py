import dataclasses
import json
import math
from itertools import product

import numpy as np
import pytest

from gwshot import budgets, checks, cli, limit, streams
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


def test_fdd_fails_when_the_second_window_repeats_the_first(tmp_path, monkeypatch):
    # the check must be able to fail: with w = v(1) in place of an
    # independent window, v(2) = v(1) and the Monte Carlo reads
    # P{v(1) <= 1} = e^-1 ~ 0.368 against e^-1.5 ~ 0.223
    assert _verify(tmp_path, "fdd", {"mc_samples": 20_000})[0] == 0
    sampler, calls = limit.sample_shot_noise_marginal, []

    def second_repeats_first(*args):
        calls.append(calls[-1] if len(calls) % 2 else sampler(*args))
        return calls[-1]

    monkeypatch.setattr(limit, "sample_shot_noise_marginal", second_repeats_first)
    rc, report = _verify(tmp_path, "fdd", {"mc_samples": 20_000})
    details = report["details"]
    assert rc == 4 and report["pass"] is False and len(calls) == 2
    assert abs(details["mc_frequency"] - math.exp(-1.0)) <= 0.01
    assert details["marginal_sweep_max_err"] <= 1e-9 and details["d2_exact_max_err"] <= 1e-9


@pytest.mark.parametrize("check,per_regime", [
    ("lemma-aux3", 50 + 100 + 200 + 3 * budgets.PATH_SETUP_GENERATIONS),  # the default ladder
    ("lemma-aux2", 3 * 200 + budgets.PATH_SETUP_GENERATIONS),  # one cohort of 3n generations
], ids=["lemma-aux3", "lemma-aux2"])
def test_cohort_check_budget_counts_each_regime(monkeypatch, check, per_regime):
    # one path per regime: the defaults cost 3 x `per_regime` budgeted
    # generations per replicate
    monkeypatch.setattr(checks, "run_replicates", lambda *args, **kwargs: iter(()))
    checks.run_check(check)
    bound = budgets.ENGINE_GENERATION_BUDGET // (3 * per_regime)
    checks.run_check(check, replicates=bound)
    with pytest.raises(ValueError, match="engine budget"):
        checks.run_check(check, replicates=bound + 1)


def test_regime_rows_agree_with_their_engine_laws():
    # at the default rows the theorem's constants are the engine's, bit for bit
    for row in checks._REGIMES.values():
        assert math.log(row.family.mean) == row.log_mu
        for n in (1, 25, 800, 3200):
            assert row.law.norming_bn(n) == row.norming(n)


# check: (regime row it reads, one-rung scale, mutant engine law).  At 300
# replicates, over DEFAULT_SEED and seeds 1-7, the default rows read KS
# 0.035-0.065 (thm1) and 0.031-0.073 (thm2); the mutants read 0.243-0.263
# and 0.832-0.919, against the 0.15 threshold.  The thm2 mutant's c_n stays
# the theorem's n^2 = 10^4; while the norming was read from the engine law,
# it moved with the mutant to 100 and the mutant read 0.171-0.266.  thm1
# cannot see a mildly supercritical engine: poisson(1.2) offspring reads
# 0.060-0.103 here and 0.057 at the default scale (ROADMAP Baseline).
# Seeing it needs a sharper rule than a KS against the limit, not a lower
# threshold.
_THEOREM_MUTANTS = {
    "marginal-prelimit-thm1": ("critical", (200,), {"family": OffspringFamily.poisson(2.0)}),
    "marginal-prelimit-thm2": ("subcritical", (100,), {"law": ImmigrationLaw.reciprocal(1.0)}),
}


@pytest.mark.parametrize("check", list(_THEOREM_MUTANTS))
def test_theorem_check_fails_on_a_mutant_regime(monkeypatch, check):
    # the checks read their laws from checks._REGIMES when they run, so a
    # swapped engine law is the engine they test
    regime, ns, mutant = _THEOREM_MUTANTS[check]
    assert checks.run_check(check, ns=ns, replicates=300).passed is True
    monkeypatch.setitem(checks._REGIMES, regime, dataclasses.replace(checks._REGIMES[regime], **mutant))
    assert checks.run_check(check, ns=ns, replicates=300).passed is False


# At their default scales both ladders fail at these seeds on the 0.02
# monotone slack alone, each rung well below the 0.15 threshold:
# thm1 reads KS 0.0273 / 0.0094 / 0.0335 along n = 50 / 200 / 800, thm2
# 0.0241 -> 0.0452 along n = 25 / 100.
@pytest.mark.xfail(strict=True, reason="ROADMAP P: 0.02 monotone slack fails on noise")
@pytest.mark.parametrize("check,seed", [("marginal-prelimit-thm1", 15), ("marginal-prelimit-thm2", 32)])
def test_theorem_check_passes_at_its_default_scale(check, seed):
    assert checks.run_check(check, seed=seed).passed is True


def test_cells_read_each_replicate_in_order():
    # a tuple reader gives one column per statistic, row r from replicate r;
    # each cell is its own run_replicates pass on its block seed
    regimes, ns = ("critical", "supercritical"), (10, 15)
    cells = checks._cells(5, regimes, ns, 4,
                          lambda row, run, bundle: (bundle.y_log[-1], bundle.immigrant_log_j[0] / row.norming(run.n)))
    assert list(cells) == list(regimes)
    seeds = iter(streams.replicate_seeds(5, 0, len(regimes) * len(ns)).tolist())
    for regime in regimes:
        row = checks._REGIMES[regime]
        assert len(cells[regime]) == len(ns)
        for n, pairs in zip(ns, cells[regime]):
            run = GwiRun(n, 1.0, row.family, row.law, seed=next(seeds))
            want = [(bundle.y_log[-1], bundle.immigrant_log_j[0] / row.norming(n)) for bundle in run_replicates(run, 4)]
            assert pairs.shape == (4, 2) and np.array_equal(pairs, want)


# check: its overrides at 11 rungs of small n (lemma-aux2 has one n)
_GRID_SCALE = {
    "marginal-prelimit-thm1": (("critical",), {"ns": tuple(range(2, 13))}),
    "marginal-prelimit-thm2": (("subcritical",), {"ns": tuple(range(2, 13))}),
    "lemma-aux2": (tuple(checks._REGIMES), {"n": 4}),
    "lemma-aux3": (tuple(checks._REGIMES), {"ns": tuple(range(2, 13))}),
    "functional-coupled": (tuple(checks._REGIMES), {"ns": tuple(range(2, 13))}),
}


@pytest.mark.parametrize("check", list(_GRID_SCALE))
def test_each_cell_gets_its_own_block_seed(monkeypatch, check):
    # cell idx of product(regimes, ns) runs on block seed replicate_seed(seed, idx),
    # so no two cells of one check draw the same streams
    regimes, overrides = _GRID_SCALE[check]
    ns = overrides.get("ns", (overrides.get("n"),))
    cells = list(product(regimes, ns))
    seen = []

    def record(run, replicates, **runs):
        seen.append((run.n, run.seed))
        return run_replicates(run, replicates, **runs)

    monkeypatch.setattr(checks, "run_replicates", record)
    checks.run_check(check, seed=7, replicates=1, **overrides)
    assert [n for n, _ in seen] == [n for _, n in cells]
    assert [s for _, s in seen] == streams.replicate_seeds(7, 0, len(cells)).tolist()


def test_grid_scale_names_every_engine_check():
    # marginal-limit and fdd run the limit sampler alone
    assert set(_GRID_SCALE) == set(checks.CHECK_NAMES) - {"marginal-limit", "fdd"}


def _swap_family(monkeypatch, regime, family):
    """Run `regime`'s engine on `family` offspring; the row's theorem constants stay."""
    monkeypatch.setitem(checks._REGIMES, regime, dataclasses.replace(checks._REGIMES[regime], family=family))


def _verify(tmp_path, check, overrides):
    """`gwshot verify <check>` at seed 3: its exit code and report."""
    cfg = tmp_path / "check.json"
    cfg.write_text(json.dumps({"check": check, "overrides": overrides}), encoding="utf-8")
    out = tmp_path / "report"
    rc = cli.main(["verify", "--config", str(cfg), "--seed", "3", "--out", str(out)])
    return rc, json.loads(out.with_suffix(".json").read_text(encoding="utf-8"))


def _verify_functional_coupled(tmp_path, ns):
    """`gwshot verify functional-coupled` at 20 replicates a cell."""
    return _verify(tmp_path, "functional-coupled", {"ns": ns, "replicates": 20})


# regime: its row's engine on a family of the wrong mean.  A cohort of e^50
# drifts from n + m log mu by 3n |log(mu'/mu)| nats over its 3n generations,
# more than the 0.1 n tolerance: 0.146 n and 0.154 n in the critical row,
# and the geometric(0.6) cohort dies about n/|log 0.6| - n/log 2 = 25
# generations late.  Each reads fraction 1.0 at seed 3.
_WRONG_MEAN = [("critical", OffspringFamily.poisson(1.05)), ("critical", OffspringFamily.poisson(0.95)),
               ("subcritical", OffspringFamily.geometric(0.6))]


@pytest.mark.parametrize("regime,family", _WRONG_MEAN, ids=["poisson-1.05", "poisson-0.95", "geometric-0.6"])
def test_cohort_profile_fails_on_an_engine_of_the_wrong_mean(tmp_path, monkeypatch, regime, family):
    # the reference is the row's log mu, not the engine's mean, and a mutant
    # sharing another row's family name keeps all three regimes in the report
    overrides = {"n": 50, "replicates": 20}
    assert _verify(tmp_path, "lemma-aux2", overrides)[0] == 0
    _swap_family(monkeypatch, regime, family)
    rc, report = _verify(tmp_path, "lemma-aux2", overrides)
    fractions = report["details"]["exceed_fraction_by_regime"]
    assert rc == 4 and report["pass"] is False
    assert set(fractions) == set(checks._REGIMES)
    assert fractions[regime] == 1.0 and all(fractions[r] == 0.0 for r in fractions if r != regime)


def test_cohort_profile_cannot_see_an_engine_of_the_right_mean(tmp_path, monkeypatch):
    # geometric(1.0) offspring in the critical row: a cohort of e^50 stays
    # fluid, where only the mean acts, so the check passes; telling laws of
    # one mean apart needs an exact law (ROADMAP J)
    _swap_family(monkeypatch, "critical", OffspringFamily.geometric(1.0))
    assert _verify(tmp_path, "lemma-aux2", {"n": 50, "replicates": 20})[0] == 0


def test_functional_coupled_fails_on_a_supercritical_engine_in_the_critical_row(tmp_path, monkeypatch):
    # poisson(1.05) offspring drift from the slope-0 envelope by n log 1.05:
    # at n = 3200 the critical q99 reads about 154 nats against a bound of
    # 34.6, where the correct engine reads 1.8
    assert _verify_functional_coupled(tmp_path, [3200])[0] == 0
    _swap_family(monkeypatch, "critical", OffspringFamily.poisson(1.05))
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


@pytest.mark.xfail(strict=True, reason="ROADMAP A: a saturated exceed frequency never increases along n")
def test_truncation_check_fails_on_a_supercritical_engine_in_the_critical_row(tmp_path, monkeypatch):
    # poisson(1.5) offspring in the critical row exceed gamma + slack in every
    # replicate at n = 50 and 100 (frequencies 1.0 and 1.0), so the largest
    # increase along n reads 0.0 and the check passes; a level per cell
    # derived from Doob's inequality would fail it
    _swap_family(monkeypatch, "critical", OffspringFamily.poisson(1.5))
    assert _verify(tmp_path, "lemma-aux3", {"ns": [50, 100], "replicates": 40})[0] == 4


@pytest.mark.parametrize("regime", list(checks._REGIMES))
def test_envelope_is_the_shot_noise_path_of_the_run_atoms(regime):
    # the atoms (k/n, log J_k / c_n) with log J_k > 0 and slope n log mu / c_n
    # give the limit path whose value at m/n is e_m⁺ / c_n
    n, row = 50, checks._REGIMES[regime]
    log_mu, c_n = row.log_mu, row.norming(n)
    run = GwiRun(n, 1.0, row.family, row.law, seed=11)
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
    for regime, row in checks._REGIMES.items():
        want = math.log(1e6) + math.log(800) + math.log(8) + abs(row.log_mu)
        assert details["bound_by_regime"][regime]["7"] == pytest.approx(want, rel=1e-15)
