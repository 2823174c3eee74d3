import contextlib
import io
import json
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from gwshot import cli

SIM_CONFIG = {
    "n": 10,
    "horizon": 1.0,
    "offspring": {"family": "binary", "mean": 1.0},
    "immigration": {"variant": "reciprocal", "c": 1.0},
    "fluid": {"exactness_threshold": 1000000, "refine_on_descent": True},
    "norm": "n",
}

LIMIT_CONFIG = {"a": 1.0, "b": 1.0, "slope": 0.0, "horizon": 1.0, "delta": 0.05}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestSimulate:
    def test_row_count_and_golden_header(self, tmp_path):
        cfg = write_config(tmp_path, SIM_CONFIG)
        out = str(tmp_path / "run")
        assert cli.main(["simulate", "--config", cfg, "--seed", "7", "--out", out]) == 0
        lines = (tmp_path / "run.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "replicate,t,value"
        assert len(lines) == 1 + 11  # header + [nT]+1 rows for one replicate
        meta = json.loads((tmp_path / "run.json").read_text(encoding="utf-8"))
        assert set(meta) == {"command", "params", "replicate_count", "seed", "version"}
        assert meta["seed"] == 7 and meta["replicate_count"] == 1

    def test_same_seed_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, SIM_CONFIG)
        args = ["simulate", "--config", cfg, "--seed", "99", "--replicates", "3"]
        assert cli.main(args + ["--out", str(tmp_path / "a")]) == 0
        assert cli.main(args + ["--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_jobs_do_not_change_output(self, tmp_path):
        cfg = write_config(tmp_path, SIM_CONFIG)
        base = ["simulate", "--config", cfg, "--seed", "5", "--replicates", "4"]
        assert cli.main(base + ["--out", str(tmp_path / "serial")]) == 0
        assert cli.main(base + ["--jobs", "2", "--out", str(tmp_path / "parallel")]) == 0
        assert (tmp_path / "serial.csv").read_bytes() == (tmp_path / "parallel.csv").read_bytes()

    def test_malformed_config_exits_2_without_output(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        out = tmp_path / "x"
        assert cli.main(["simulate", "--config", str(bad), "--seed", "1", "--out", str(out)]) == 2
        assert not out.with_suffix(".csv").exists() and not out.with_suffix(".json").exists()

    def test_missing_field_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, {"n": 5})
        assert cli.main(["simulate", "--config", cfg, "--seed", "1", "--out", str(tmp_path / "y")]) == 2

    def test_io_failure_exits_3(self, tmp_path):
        cfg = write_config(tmp_path, SIM_CONFIG)
        rc = cli.main(["simulate", "--config", cfg, "--seed", "1", "--out", "/nonexistent-dir/run"])
        assert rc == 3

    def test_ci_mode_requires_seed(self, tmp_path):
        cfg = write_config(tmp_path, SIM_CONFIG)
        assert cli.main(["simulate", "--config", cfg, "--ci", "--out", str(tmp_path / "z")]) == 2

    def test_long_path_runs_in_bounded_memory(self, tmp_path):
        # n = 10^5 is 100001 generations: a per-cohort (L x L) engine would
        # need a 74.5 GiB matrix here
        cfg = write_config(tmp_path, dict(SIM_CONFIG, n=100_000))
        out = tmp_path / "long"
        tracemalloc.start()
        try:
            rc = cli.main(["simulate", "--config", cfg, "--seed", "7", "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak < 256 * 2**20
        rows = np.loadtxt(out.with_suffix(".csv"), delimiter=",", skiprows=1, ndmin=2)
        assert rows.shape == (100_001, 3)
        assert np.all(np.isfinite(rows))

    def test_bn_norm_resolves(self, tmp_path):
        cfg = dict(SIM_CONFIG, norm="bn")
        path = write_config(tmp_path, cfg)
        assert cli.main(["simulate", "--config", path, "--seed", "3", "--out", str(tmp_path / "bn")]) == 0


class TestLimitSample:
    def test_nondecreasing_extremal_path(self, tmp_path):
        cfg = write_config(tmp_path, LIMIT_CONFIG)
        out = str(tmp_path / "lim")
        assert cli.main(["limit-sample", "--config", cfg, "--seed", "11", "--out", out]) == 0
        rows = (tmp_path / "lim.csv").read_text(encoding="utf-8").splitlines()[1:]
        values = [float(r.split(",")[2]) for r in rows]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        meta = json.loads((tmp_path / "lim.json").read_text(encoding="utf-8"))
        assert meta["atom_counts"] and len(meta["atoms"][0]) == meta["atom_counts"][0]

    def test_zero_delta_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, dict(LIMIT_CONFIG, delta=0.0))
        assert cli.main(["limit-sample", "--config", cfg, "--seed", "1", "--out", str(tmp_path / "d")]) == 2

    @pytest.mark.parametrize("key", ["a", "b", "horizon", "delta", "slope"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_parameter_exits_2(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, dict(LIMIT_CONFIG, **{key: value}))
        out = tmp_path / "nf"
        assert cli.main(["limit-sample", "--config", cfg, "--seed", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.with_suffix(".csv").exists() and not out.with_suffix(".json").exists()

    def test_atom_budget_exits_2_before_any_draw(self, tmp_path, capsys):
        # delta = 1e-12 means 1e12 expected atoms: drawing them would need
        # terabytes, so the budget must stop the run up front
        cfg = write_config(tmp_path, dict(LIMIT_CONFIG, delta=1e-12))
        out = tmp_path / "huge"
        tracemalloc.start()
        try:
            rc = cli.main(["limit-sample", "--config", cfg, "--seed", "1", "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2
        assert peak < 16 * 2**20
        assert "atom budget" in capsys.readouterr().err
        assert not out.with_suffix(".csv").exists() and not out.with_suffix(".json").exists()

    def test_atom_budget_counts_replicates(self, tmp_path):
        # 1000 expected atoms per path, one path more than the budget holds
        cfg = write_config(tmp_path, dict(LIMIT_CONFIG, delta=1e-3))
        replicates = cli.LIMIT_ATOM_BUDGET // 1000 + 1
        args = ["limit-sample", "--config", cfg, "--seed", "1", "--replicates", str(replicates)]
        assert cli.main(args + ["--out", str(tmp_path / "b")]) == 2

    def test_atom_count_mean_near_expectation(self, tmp_path):
        # (a,b,T,delta) = (1,1,1,1): atom counts are Poisson(1); check the
        # mean over many replicates of a single invocation within 10%
        cfg = write_config(tmp_path, dict(LIMIT_CONFIG, delta=1.0))
        out = str(tmp_path / "pois")
        assert cli.main(
            ["limit-sample", "--config", cfg, "--seed", "23", "--replicates", "1000", "--out", out]
        ) == 0
        meta = json.loads((tmp_path / "pois.json").read_text(encoding="utf-8"))
        assert abs(np.mean(meta["atom_counts"]) - 1.0) <= 0.1

    @pytest.mark.parametrize(
        "config,replicates,seed,form",
        [
            ({"a": 1.0, "b": 1.0, "slope": -0.693, "horizon": 1.0, "delta": 1e-3}, 3, 11, "e-"),
            (dict(LIMIT_CONFIG, delta=1.0), 40, 3, None),  # mostly 0 or 1 atom
            (dict(LIMIT_CONFIG, horizon=0.0), 3, 3, None),  # every atom list empty
            ({"a": 100.0, "b": 0.1, "slope": 0.5, "horizon": 1.0, "delta": 0.05}, 3, 4, "e+"),
        ],
        ids=["default", "delta-1", "horizon-0", "exponent-marks"],
    )
    def test_sidecar_bytes_match_json_dump(self, tmp_path, config, replicates, seed, form):
        cfg = write_config(tmp_path, config)
        out = tmp_path / "side"
        args = ["limit-sample", "--config", cfg, "--seed", str(seed), "--replicates", str(replicates)]
        assert cli.main(args + ["--out", str(out)]) == 0
        text = out.with_suffix(".json").read_text(encoding="utf-8")
        meta = json.loads(text)
        assert text == json.dumps(meta, indent=2, sort_keys=True) + "\n"
        assert meta["atom_counts"] == [len(a) for a in meta["atoms"]]
        if config["horizon"] == 0.0:
            assert meta["atoms"] == [[]] * replicates
        if config.get("delta") == 1.0:
            assert {0, 1} <= set(meta["atom_counts"])
        if form is not None:  # floats printed in exponent form are covered
            assert form in text

    def test_replicates_are_a_prefix_of_a_longer_run(self, tmp_path):
        cfg = write_config(tmp_path, dict(LIMIT_CONFIG, slope=-0.693))
        runs = {}
        for replicates in (3, 5):
            out = tmp_path / f"r{replicates}"
            args = ["limit-sample", "--config", cfg, "--seed", "17", "--replicates", str(replicates)]
            assert cli.main(args + ["--out", str(out)]) == 0
            meta = json.loads(out.with_suffix(".json").read_text(encoding="utf-8"))
            rows = out.with_suffix(".csv").read_text(encoding="utf-8").splitlines()[1:]
            runs[replicates] = meta["atoms"], [r for r in rows if int(r.split(",")[0]) < 3]
        assert runs[3][0] == runs[5][0][:3]
        assert runs[3][1] == runs[5][1]

    def test_overflowing_marks_exit_2_without_output(self, tmp_path, capsys):
        # b = 0.003 puts marks delta * u^(-1/b) above the float range for
        # about 12% of the atoms; writing them would put inf in the outputs
        cfg = write_config(tmp_path, {"a": 1.0, "b": 0.003, "slope": 0.3, "horizon": 2.0, "delta": 1.0})
        out = tmp_path / "over"
        args = ["limit-sample", "--config", cfg, "--seed", "5", "--replicates", "200"]
        with np.errstate(over="ignore"):
            assert cli.main(args + ["--out", str(out)]) == 2
        assert "overflows the float range" in capsys.readouterr().err
        assert not out.with_suffix(".csv").exists() and not out.with_suffix(".json").exists()


_MISSING = object()
_ODD_VALUES = [0.0, -1.0, -1e300, 1e300, 1.7e308, 5e-324, 10**400,
               math.nan, math.inf, -math.inf, "abc", "0.5", None, _MISSING]


def _limit_param(valid):
    # odd values a quarter of the time, so that about a fifth of the
    # configs run to exit 0
    return st.one_of(valid, valid, valid, st.sampled_from(_ODD_VALUES))


# The valid ranges keep a run at or below 4 * 4 * 0.2^-3 * 5 = 10^4 expected
# atoms; the odd values either fail validation, overflow, exceed the atom
# budget or give a handful of atoms.
_LIMIT_CONFIGS = st.fixed_dictionaries({
    "a": _limit_param(st.floats(0.01, 4.0)),
    "b": _limit_param(st.floats(0.1, 3.0)),
    "horizon": _limit_param(st.floats(0.0, 4.0)),
    "delta": _limit_param(st.floats(0.2, 5.0)),
    "slope": _limit_param(st.floats(-3.0, 3.0)),
})


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_LIMIT_CONFIGS, st.integers(1, 5))
def test_limit_sample_config_fuzz(config, replicates):
    config = {k: v for k, v in config.items() if v is not _MISSING}
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(Path(tmp), config)
        out = Path(tmp) / "fz"
        err = io.StringIO()
        args = ["limit-sample", "--config", cfg, "--seed", "3", "--replicates", str(replicates)]
        with contextlib.redirect_stderr(err), np.errstate(all="ignore"):
            rc = cli.main(args + ["--out", str(out)])
        event(f"exit {rc}")
        if rc == 0:
            rows = np.loadtxt(out.with_suffix(".csv"), delimiter=",", skiprows=1, ndmin=2)
            assert rows.shape[1] == 3 and np.all(np.isfinite(rows))
            meta = json.loads(out.with_suffix(".json").read_text(encoding="utf-8"))
            assert len(meta["atoms"]) == replicates
            assert meta["atom_counts"] == [len(a) for a in meta["atoms"]]
        else:
            assert rc == 2
            assert any(line.startswith("error: ") for line in err.getvalue().splitlines())
            assert not out.with_suffix(".csv").exists() and not out.with_suffix(".json").exists()


class TestVerify:
    def test_unknown_check_exits_2(self, tmp_path):
        assert cli.main(["verify", "foo", "--seed", "1"]) == 2

    def test_passing_check_writes_report(self, tmp_path):
        cfg = write_config(tmp_path, {"check": "fdd", "overrides": {"mc_samples": 20000}})
        out = str(tmp_path / "rep")
        rc = cli.main(["verify", "--config", cfg, "--seed", "8", "--out", out])
        assert rc == 0
        report = json.loads((tmp_path / "rep.json").read_text(encoding="utf-8"))
        assert report["check"] == "fdd" and report["pass"] is True
        assert {"check", "statistic", "threshold", "pass"} <= set(report)

    def test_failing_check_exits_4(self, tmp_path):
        # 200 samples cannot reach KS <= 0.01: deterministic failure
        cfg = write_config(tmp_path, {"check": "marginal-limit", "overrides": {"sample_count": 200}})
        assert cli.main(["verify", "--config", cfg, "--seed", "8"]) == 4

    def test_large_delta_fails_the_check_instead_of_erroring(self, tmp_path, capsys):
        # at delta = 5 most slope-0 values are 0 (no atom above delta); the
        # extremal CDF is 0 there, so the check reports a failure, exit 4
        cfg = write_config(tmp_path, {"check": "marginal-limit",
                                      "overrides": {"sample_count": 1000, "delta": 5.0}})
        assert cli.main(["verify", "--config", cfg, "--seed", "20250809"]) == 4
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is False and report["statistic"] > 0.5

    def test_positional_check_name(self, tmp_path):
        cfg = write_config(tmp_path, {"overrides": {"mc_samples": 5000}})
        assert cli.main(["verify", "fdd", "--config", cfg, "--seed", "2"]) == 0

    @pytest.mark.parametrize(
        "check,overrides",
        [("fdd", {"mc_samples": -5}), ("marginal-limit", {"sample_count": 0})],
    )
    def test_nonpositive_sample_count_exits_2(self, tmp_path, capsys, check, overrides):
        cfg = write_config(tmp_path, {"check": check, "overrides": overrides})
        assert cli.main(["verify", "--config", cfg, "--seed", "1"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_verify_without_name_exits_2(self):
        assert cli.main(["verify", "--seed", "1"]) == 2


@pytest.mark.parametrize("command", ["simulate", "limit-sample", "verify"])
def test_nonpositive_jobs_exits_2(tmp_path, capsys, command):
    config = {"simulate": SIM_CONFIG, "limit-sample": LIMIT_CONFIG,
              "verify": {"check": "fdd", "overrides": {"mc_samples": 1000}}}[command]
    cfg = write_config(tmp_path, config)
    out = tmp_path / "jobs"
    rc = cli.main([command, "--config", cfg, "--seed", "1", "--jobs", "0", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: --jobs")
    assert not out.with_suffix(".csv").exists() and not out.with_suffix(".json").exists()
