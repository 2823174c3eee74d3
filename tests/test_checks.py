import dataclasses

from gwshot import checks
from gwshot.gwi import conditional_mean_path
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
