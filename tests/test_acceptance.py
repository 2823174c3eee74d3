"""Acceptance suite: every criterion at its stated scale and tolerance.

Each test prints one pass/fail line (visible with `pytest -v -rA` or `-s`).
The statistical criteria run through the same registered checks the CLI
`verify` command dispatches to, with the fixed default seed, so reported
numbers are reproducible.
"""

import json
import math

import numpy as np
import pytest

from gwshot import checks, cli, streams
from gwshot.checks import DEFAULT_SEED
from gwshot.gwi import GwiRun, run_coupled
from gwshot.gw import FluidConfig, population_log_path
from gwshot.immigration import ImmigrationLaw
from gwshot.offspring import OffspringFamily

LOG2 = math.log(2.0)


def _report(name: str, ok: bool, statistic: float, threshold: float, note: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    extra = f" ({note})" if note else ""
    print(f"{status} {name}: statistic={statistic:.6g} threshold={threshold:.6g}{extra}")
    assert ok, f"{name}: statistic={statistic} exceeds threshold={threshold} {note}"


@pytest.fixture(scope="module")
def marginal_limit_report():
    return checks.check_marginal_limit(DEFAULT_SEED)


def test_criterion_01_limit_marginal_negative_slope(marginal_limit_report):
    ks = marginal_limit_report.details["ks_by_regime"]["negative"]
    _report("criterion-01 limit marginal, slope -log2", ks <= 0.01, ks, 0.01)


def test_criterion_02_limit_marginal_extremal(marginal_limit_report):
    ks = marginal_limit_report.details["ks_by_regime"]["extremal"]
    _report("criterion-02 limit marginal, slope 0", ks <= 0.01, ks, 0.01)


def test_criterion_03_limit_marginal_positive_slope(marginal_limit_report):
    ks = marginal_limit_report.details["ks_by_regime"]["positive"]
    _report("criterion-03 limit marginal, slope +log2", ks <= 0.01, ks, 0.01)


def test_criterion_04_prelimit_marginal_critical():
    report = checks.run_check("marginal-prelimit-thm1", seed=DEFAULT_SEED)
    _report(
        "criterion-04 prelimit marginal (critical, scale n)",
        report.passed,
        report.statistic,
        report.threshold,
        note=f"ks_by_n={report.details['ks_by_n']}",
    )


def test_criterion_05_cohort_growth_profile():
    report = checks.run_check("lemma-aux2", seed=DEFAULT_SEED)
    _report(
        "criterion-05 cohort growth profile",
        report.passed,
        report.statistic,
        report.threshold,
        note=f"exceed={report.details['exceed_fraction_by_family']}",
    )


def test_criterion_06_superexponential_cohort_flatness():
    # from n = 5 on, a cohort of e^(n^2) founders stays above the exactness
    # threshold for all 3n generations in every regime, so its path is the
    # fluid closed form log Y_k = n^2 + k log mu, with no draw, and
    # log⁺Y_k / n^2 stays within 3|log mu|/n of 1 (flat on the n^2 scale)
    worst = 0.0
    for family, _ in checks._REGIMES.values():
        log_mu = math.log(family.mean)
        for n in (5, 10, 100):
            founders = np.full(3 * n + 1, -math.inf)
            founders[0] = n * n
            rng = streams.substream(DEFAULT_SEED, streams.OFFSPRING)
            logs = population_log_path(family, founders, FluidConfig(), rng)
            fluid = n * n + np.arange(3 * n + 1) * log_mu
            worst = max(worst, float(np.max(np.abs(logs - fluid) / fluid)))
            flat = np.max(np.abs(np.maximum(logs, 0.0) / n**2 - 1.0))
            assert flat <= 3 * abs(log_mu) / n + 1e-12, (family.family, n, flat)
    _report("criterion-06 superexponential cohort flatness (fluid identity)", worst <= 1e-12, worst, 1e-12)


def test_criterion_07_survival_ratio_limit():
    worst = 0.0
    for family, mu in [
        (OffspringFamily.poisson(0.9), 0.9),
        (OffspringFamily.geometric(0.9), 0.9),
        (OffspringFamily.binary(0.5), 1.0),
    ]:
        p = family.survival_probability(1001)
        worst = max(worst, abs(p[1000] / p[999] - mu))
    _report("criterion-07 survival-probability ratio limit", worst <= 0.01, worst, 0.01)


def test_criterion_08_norming_solver():
    rel_err = max(
        abs(ImmigrationLaw.reciprocal(2.0).norming_bn(100) - 200.0) / 200.0,
        abs(ImmigrationLaw.pareto_log(0.5).norming_bn(100) - 1e4) / 1e4,
        abs(ImmigrationLaw.reciprocal(0.3).norming_bn(10**6) - 0.3e6) / 0.3e6,
        abs(ImmigrationLaw.pareto_log(0.25).norming_bn(10) - 10.0**4) / 10.0**4,
    )
    _report("criterion-08a norming solver closed forms", rel_err <= 1e-12, rel_err, 1e-12)
    sv = ImmigrationLaw.pareto_log_sv()
    residual = max(abs(n * sv.tail(sv.norming_bn(n)) - 1.0) for n in (10, 10**3, 10**6))
    _report("criterion-08b norming solver residual", residual <= 1e-9, residual, 1e-9)


def test_criterion_09_prelimit_marginal_superexponential():
    report = checks.run_check("marginal-prelimit-thm2", seed=DEFAULT_SEED)
    _report(
        "criterion-09 prelimit marginal (norming b_n)",
        report.passed,
        report.statistic,
        report.threshold,
        note=f"ks_by_n={report.details['ks_by_n']}",
    )


def test_criterion_10_fdd_self_consistency():
    report = checks.run_check("fdd", seed=DEFAULT_SEED)
    d = report.details
    _report(
        "criterion-10a fdd reduces to marginals",
        d["marginal_sweep_max_err"] <= 1e-9,
        d["marginal_sweep_max_err"],
        1e-9,
    )
    _report(
        "criterion-10b fdd two-point hand integration",
        d["d2_exact_max_err"] <= 1e-9,
        d["d2_exact_max_err"],
        1e-9,
    )
    _report(
        "criterion-10c fdd Monte Carlo joint frequency",
        report.statistic <= report.threshold,
        report.statistic,
        report.threshold,
        note=f"freq={d['mc_frequency']:.5f} expected={d['mc_expected']:.5f}",
    )


def test_criterion_11a_log_plus_subadditivity():
    # the log arithmetic behind every output: logs added by np.logaddexp,
    # and log⁺ taken as max(log, 0) (as in normalized_log)
    rng = np.random.default_rng(DEFAULT_SEED)
    lvs = rng.uniform(-700, 700, size=(10_000, 2))
    zero = -math.inf  # the log of an empty population
    violations = 0
    for a, b in lvs.tolist() + [(zero, 3.0), (-5.0, zero), (zero, zero)]:
        s = float(np.logaddexp(a, b))
        if not (max(a, 0.0) <= max(s, 0.0) <= max(a, 0.0) + max(b, 0.0) + 2 * LOG2):
            violations += 1
    _report(
        "criterion-11a log-plus subadditivity (10^4 pairs)",
        violations == 0,
        float(violations),
        0.0,
    )


def test_criterion_11b_truncation_coupling_monotonicity():
    violations = 0
    for rep in range(1000):
        run = GwiRun(
            n=25,
            horizon=1.0,
            family=OffspringFamily.binary(0.5),
            law=ImmigrationLaw.reciprocal(1.0),
            config=FluidConfig(),
            seed=streams.replicate_seed(DEFAULT_SEED, rep),
        )
        bundle = run_coupled(run, cutoff=0.3 * 25.0)
        if not np.all(bundle.truncated_log <= bundle.y_log):
            violations += 1
    _report(
        "criterion-11b truncated-vs-full coupling monotonicity (10^3 runs)",
        violations == 0,
        float(violations),
        0.0,
    )


def test_criterion_11c_command_determinism(tmp_path):
    sim_cfg = {
        "n": 12,
        "horizon": 1.0,
        "offspring": {"family": "poisson", "mean": 0.9},
        "immigration": {"variant": "reciprocal", "c": 0.5},
        "norm": "n",
    }
    lim_cfg = {"a": 1.0, "b": 1.0, "slope": -LOG2, "horizon": 1.0, "delta": 0.01}
    ver_cfg = {"check": "fdd", "overrides": {"mc_samples": 20000}}
    mismatches = 0
    for name, payload, argv in [
        ("simulate", sim_cfg, ["simulate", "--replicates", "3"]),
        ("limit-sample", lim_cfg, ["limit-sample", "--replicates", "2"]),
        ("verify", ver_cfg, ["verify"]),
    ]:
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(payload), encoding="utf-8")
        outs = []
        for tag in ("first", "second"):
            out = tmp_path / f"{name}-{tag}"
            rc = cli.main(argv + ["--config", str(cfg), "--seed", "31415", "--out", str(out)])
            assert rc == 0
            blobs = []
            for ext in (".csv", ".json"):
                p = tmp_path / f"{name}-{tag}{ext}"
                if p.exists():
                    blobs.append(p.read_bytes())
            outs.append(blobs)
        if outs[0] != outs[1]:
            mismatches += 1
    _report(
        "criterion-11c byte-identical reruns on 3 commands",
        mismatches == 0,
        float(mismatches),
        0.0,
    )


def test_criterion_aux_truncation_negligibility_trend():
    report = checks.run_check("lemma-aux3", seed=DEFAULT_SEED)
    _report(
        "invariant lemma-aux3 truncation negligibility trend",
        report.passed,
        report.statistic,
        report.threshold,
        note=f"freq={report.details['exceed_frequency_by_branch']}",
    )


def test_criterion_aux_conditional_mean_proxy():
    # proxy-zn, the conditional-mean proxy, is retired into this check: Z is
    # the fluid Y by construction, so log⁺Y_n - log⁺Z_n read 0 at every seed,
    # while each path against its own max-plus envelope can fail
    report = checks.run_check("functional-coupled", seed=DEFAULT_SEED)
    _report(
        "invariant functional-coupled (retires proxy-zn) path vs. its own envelope",
        report.passed,
        report.statistic,
        report.threshold,
        note=f"q99={report.details['q99_by_regime']}",
    )
