import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from gwshot import budgets, checks, cli, gwi, limit, streams
from gwshot.gwi import CoupledPaths, GwiRun, normalized_log, run_replicates
from gwshot.immigration import ImmigrationLaw
from gwshot.offspring import OffspringFamily

SIM_CONFIG = {
    "n": 10,
    "horizon": 1.0,
    "offspring": {"family": "binary", "mean": 1.0},
    "immigration": {"variant": "reciprocal", "c": 1.0},
    "fluid": {"exactness_threshold": 1000000},
    "norm": "n",
}

LIMIT_CONFIG = {"a": 1.0, "b": 1.0, "slope": 0.0, "horizon": 1.0, "delta": 0.05}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def reference_rows(values, n):
    """The CSV rows of simulate as one f-string per row: the reference bytes."""
    times = [repr(k / n) for k in range(len(values[0]))]
    return "".join(f"{r},{t},{v!r}\n" for r, obs in enumerate(values) for t, v in zip(times, obs.tolist()))


def run_cli(args):
    """`cli.main(args)` in a fresh interpreter, so that stderr is what a user sees."""
    code = "import sys; from gwshot import cli; sys.exit(cli.main(sys.argv[1:]))"
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1])))


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

    @pytest.mark.parametrize(
        "offspring,correction",
        [({"family": "binary", "mean": 1.0}, False),
         ({"family": "geometric", "mean": 0.5}, False),
         ({"family": "poisson", "mean": 2.0}, True)],
        ids=["critical", "subcritical", "supercritical"],
    )
    def test_csv_bytes_match_the_engine(self, tmp_path, offspring, correction):
        config = dict(SIM_CONFIG, n=800, offspring=offspring, supercritical_correction=correction)
        out = tmp_path / "ref"
        args = ["simulate", "--config", write_config(tmp_path, config), "--seed", "31", "--replicates", "4"]
        assert cli.main(args + ["--out", str(out)]) == 0
        run = GwiRun(n=800, horizon=1.0, family=OffspringFamily.from_config(offspring),
                     law=ImmigrationLaw.reciprocal(1.0), seed=31)
        mean = offspring["mean"] if correction else None
        values = [normalized_log(b.y_log, 800.0, mean) for b in run_replicates(run, 4)]
        expected = "replicate,t,value\n" + reference_rows(values, 800)
        assert out.with_suffix(".csv").read_bytes() == expected.encode("utf-8")
        runs = sum(1 + np.count_nonzero(np.diff(v.view(np.int64))) for v in values)
        if offspring["family"] == "geometric":  # small exact totals: few repeats
            assert runs > 0.5 * 4 * 801
        else:  # a fluid stretch of the (corrected) path is constant: long runs
            assert runs < 0.5 * 4 * 801

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "change",
        [
            {"horizon": math.inf},
            {"horizon": math.nan},
            {"n": math.inf},  # what JSON reads for 1e400
            {"n": 10**400},
            {"n": 1e308, "horizon": 2.0},  # n x horizon overflows
            {"norm": "NaN"},
            {"norm": "Infinity"},
            {"norm": 10**400},
            {"norm": "bn", "horizon": 0.0, "n": 100_000,
             "immigration": {"variant": "pareto_log", "alpha": 0.01}},  # b_n = n^100
            {"norm": "bn", "horizon": 0.0, "n": 1.7e308,
             "immigration": {"variant": "pareto_log_sv"}},  # b_n beyond the float range
            {"supercritical_correction": math.nan},
            {"supercritical_correction": 0.0},
            {"supercritical_correction": [2.0]},
            {"supercritical_correction": 10**400},
            {"fluid": 1.0},
            {"immigration": {"variant": "reciprocal", "c": 1e308}},  # J above the float range
            {"norm": 1e-320},  # log Y / norm above the float range
            {"offspring": {"family": "poisson", "mean": 1e308}},
            {"n": 25.5},  # these two were truncated by int()
            {"fluid": {"exactness_threshold": 1500.7}},
            {"fluid": {"refine_on_descent": "false"}},  # a removed key is refused, not ignored
            {"horizon": "1.0"},  # these five were read by float()
            {"offspring": {"family": "binary", "mean": "1.0"}},
            {"immigration": {"variant": "reciprocal", "c": True}},
            {"norm": True},
            {"supercritical_correction": "2.0"},
            {"supercritical_corection": True},  # a key no code reads is refused, not ignored
            {"immigration": {"variant": "reciprocal", "c": 1.0, "alpha": 0.5}},
            {"immigration": {"variant": "pareto_log_sv", "c": 1.0}},
            {"offspring": {"family": "binary", "mean": 1.0, "p": 0.5}},
        ],
        ids=["horizon-inf", "horizon-nan", "n-inf", "n-int-1e400", "n-horizon-overflow", "norm-nan",
             "norm-inf", "norm-int-1e400", "bn-overflow", "bn-sv-overflow", "correction-nan",
             "correction-0", "correction-list", "correction-int-1e400", "fluid-number",
             "immigration-overflow", "norm-denormal", "poisson-overflow", "n-float",
             "threshold-float", "refine-string", "horizon-string", "mean-string", "c-bool", "norm-bool",
             "correction-string", "unknown-top-level-key", "alpha-beside-c", "c-beside-sv",
             "unknown-offspring-key"],
    )
    def test_rejected_config_exits_2_without_output(self, tmp_path, capsys, change):
        cfg = write_config(tmp_path, dict(SIM_CONFIG, **change))
        out = tmp_path / "bad"
        args = ["simulate", "--config", cfg, "--seed", "1", "--replicates", "2", "--out", str(out)]
        assert cli.main(args) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert not out.with_suffix(".csv").exists() and not out.with_suffix(".json").exists()

    def test_path_budget_exits_2_before_any_work(self, tmp_path, capsys):
        # 1e18 generations: the engine would ask for exbibytes
        cfg = write_config(tmp_path, dict(SIM_CONFIG, n=10**9, horizon=1e9))
        out = tmp_path / "huge"
        tracemalloc.start()
        try:
            rc = cli.main(["simulate", "--config", cfg, "--seed", "1", "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2
        assert peak < 16 * 2**20
        assert "generations per path" in capsys.readouterr().err
        assert not out.with_suffix(".csv").exists() and not out.with_suffix(".json").exists()

    def test_engine_budget_counts_replicates(self, tmp_path):
        # 10 generations and the set-up per path, one path more than the budget holds
        cfg = write_config(tmp_path, SIM_CONFIG)
        replicates = budgets.ENGINE_GENERATION_BUDGET // (10 + budgets.PATH_SETUP_GENERATIONS) + 1
        args = ["simulate", "--config", cfg, "--seed", "1", "--replicates", str(replicates)]
        assert cli.main(args + ["--out", str(tmp_path / "b")]) == 2

    def test_overflow_prints_only_the_error_line(self, tmp_path):
        # no numpy warning is printed above the error line
        cfg = write_config(tmp_path, dict(SIM_CONFIG, immigration={"variant": "reciprocal", "c": 1e308}))
        out = tmp_path / "over"
        proc = run_cli(["simulate", "--config", cfg, "--seed", "1", "--replicates", "2",
                        "--out", str(out)])
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and "outside the float range" in lines[0], proc.stderr
        assert not out.with_suffix(".csv").exists() and not out.with_suffix(".json").exists()

    @pytest.mark.parametrize("change", [{"horizon": 0.0}, {}], ids=["horizon-0", "n-10"])
    def test_bytes_do_not_depend_on_the_block_sizes(self, tmp_path, change):
        # replicates set up in blocks of one up to all of them write the same bytes
        cfg = write_config(tmp_path, dict(SIM_CONFIG, **change))
        outputs = {}
        for cells, most in [(1, None), (2, None), (7, None), (None, 3), (None, None)]:
            out = tmp_path / f"cap{cells}-{most}"
            with mock.patch.object(gwi, "_BLOCK_CELLS", cells or gwi._BLOCK_CELLS), \
                    mock.patch.object(gwi, "_BLOCK_REPLICATES", most or gwi._BLOCK_REPLICATES):
                args = ["simulate", "--config", cfg, "--seed", "23", "--replicates", "10"]
                assert cli.main(args + ["--out", str(out)]) == 0
            outputs[cells, most] = out.with_suffix(".csv").read_bytes(), out.with_suffix(".json").read_bytes()
        assert len(set(outputs.values())) == 1

    def test_a_later_replicate_out_of_range_exits_2_without_output(self, tmp_path, capsys):
        # the first replicate whose values leave the float range is named,
        # and nothing is written although three replicates were fine
        def bundles(run, replicates):
            for r, bundle in enumerate(run_replicates(run, replicates)):
                if r == 3:
                    bundle = CoupledPaths(bundle.immigrant_log_j, np.full_like(bundle.y_log, math.inf), None)
                yield bundle

        cfg = write_config(tmp_path, SIM_CONFIG)
        out = tmp_path / "late"
        with mock.patch.object(cli, "run_replicates", side_effect=bundles) as runner:
            rc = cli.main(["simulate", "--config", cfg, "--seed", "1", "--replicates", "6", "--out", str(out)])
        assert rc == 2 and runner.call_count == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: replicate 3 has a value outside the float range")
        assert not out.with_suffix(".csv").exists() and not out.with_suffix(".json").exists()


# Equal neighbours, signed zeros, subnormals, exponent forms, nan and
# 17-digit floats, so that a path holds runs of equal values
_WRITER_POOL = [0.0, -0.0, 5e-324, 1e-05, 1e16, 1e22, math.nan, 0.1 + 0.2, 1 / 3, 2 / 3, math.pi * 1e-7]


@st.composite
def _writer_paths(draw):
    size = draw(st.integers(1, 40))
    value = st.one_of(st.sampled_from(_WRITER_POOL), st.floats(allow_nan=False, allow_infinity=False))
    kinds = {
        "pool": st.lists(value, min_size=size, max_size=size),
        "all-equal": value.map(lambda v: [v] * size),
        "no-repeats": st.lists(st.floats(allow_nan=False), min_size=size, max_size=size, unique=True),
    }
    paths = draw(st.lists(st.sampled_from(list(kinds)).flatmap(kinds.get), min_size=1, max_size=4))
    return [np.array(p, dtype=np.float64) for p in paths], draw(st.integers(1, 10**6))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_writer_paths(), st.sampled_from([1, 2, 7, cli._ROW_BLOCK]))
@example(([np.array([0.0, -0.0])], 1), cli._ROW_BLOCK)  # equal under ==, printed apart
@example(([np.array([-0.0, 0.0, 0.0, -0.0])], 3), 2)
@example(([np.array([math.nan] * 3), np.array([1e22] * 3)], 5), 1)
def test_simulate_rows_match_the_per_row_format(paths, block):
    values, n = paths
    with mock.patch.object(cli, "_ROW_BLOCK", block):
        chunks = list(cli._simulate_rows(values, n))
    assert "".join(chunks) == reference_rows(values, n)
    assert all(c.endswith("\n") and c.count("\n") <= block for c in chunks)


def test_simulate_rows_hold_a_block_not_a_path():
    # a critical path of 2e5 rows, 7.8 MiB of CSV: the writer holds its time
    # cells as one string per block and builds one block's rows at a time,
    # so it peaks at 10.4 MiB (a writer holding three object cells per row
    # for the whole path peaks at 21.7 MiB)
    n = 199_999
    run = GwiRun(n=n, horizon=1.0, family=OffspringFamily.binary(0.5), law=ImmigrationLaw.reciprocal(1.0), seed=3)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        values = [normalized_log(next(run_replicates(run, 1)).y_log, float(n))]
    tracemalloc.start()
    try:
        written = sum(map(len, cli._simulate_rows(values, n)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert written > 7 * 2**20
    assert peak < 13 * 2**20


def test_atom_lists_hold_a_chunk_not_a_replicate():
    # one replicate of 6e5 atoms, 43 MiB of sidecar with a few times below
    # 1e-4 to splice: laid out 2^16 pairs per orjson call, the writer
    # peaks at about 30 MiB, a few chunks' text whatever the replicate's
    # size (in one call it peaks at about 220 MiB)
    rng = np.random.default_rng(41)
    times = rng.uniform(0.0, 1.0, 600_000)
    marks = 1e-3 / (1.0 - rng.random(600_000))
    tracemalloc.start()
    try:
        written = sum(map(len, cli._json_atom_lists([(times, marks)])))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert written > 42 * 2**20
    assert peak < 40 * 2**20


def _repr_dumps_inputs():
    rng = np.random.default_rng(19)
    bits = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max, size=100_000, dtype=np.int64,
                        endpoint=True).view(np.float64)
    u = rng.random(20_000)
    edges = [0.0, 1e-4, 1e16]
    boundary = [np.nextafter(e, d) for e in edges[1:] for d in (0.0, np.inf)] + edges
    boundary += [2.0**53, 5e-324, np.finfo(np.float64).max]
    yield "bit-patterns", bits[np.isfinite(bits)]
    yield "uniform", u
    for b in (0.1, 1.0, 3.0):
        yield f"marks-b{b}", 1e-3 * (1.0 - u) ** (-1.0 / b)  # 1 - u: never 0
    yield "boundary", np.array(boundary + [-x for x in boundary])
    yield "strided", (np.arange(30_000.0) / 7.0)[1::3]  # orjson takes no strided view
    yield "empty", np.array([])


@pytest.mark.parametrize("values", [pytest.param(v, id=k) for k, v in _repr_dumps_inputs()])
def test_repr_dumps_gives_repr_digits(values):
    # orjson's shortest digits in repr's layout: the bytes of every
    # limit-sample file rest on this, whatever orjson version is installed
    import orjson

    flat = cli._repr_dumps(lambda v: v, values, 0)
    assert flat == b"[" + b",".join(repr(x).encode() for x in values.tolist()) + b"]"
    pairs = np.column_stack((values, values[::-1]))
    nested = cli._repr_dumps(lambda v: {"": [v]}, pairs, orjson.OPT_INDENT_2)
    assert nested == json.dumps({"": [pairs.tolist()]}, indent=2).encode()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("others", [[], [0.5, 2.0], [1e-5, 1e16]], ids=["alone", "plain", "spliced"])
def test_repr_dumps_refuses_non_finite(bad, others):
    # a NaN or inf is written as null, like a spliced cell, so it must stop
    # the write rather than shift the cells after it
    with pytest.raises(ValueError, match="finite"):
        cli._repr_dumps(lambda v: v, np.array([*others, bad, *others]), 0)


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

    @pytest.mark.parametrize("key", ["a", "b", "horizon", "delta", "slope"])
    @pytest.mark.parametrize("value", ["1", False])  # float() read both
    def test_non_number_parameter_exits_2(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, dict(LIMIT_CONFIG, **{key: value}))
        out = tmp_path / "nn"
        assert cli.main(["limit-sample", "--config", cfg, "--seed", "1", "--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "must be a number" in lines[0]
        assert not out.with_suffix(".csv").exists() and not out.with_suffix(".json").exists()

    @pytest.mark.parametrize("change", [{"detla": 0.5}, {"mu": 2.0}], ids=["misspelt-delta", "unknown-key"])
    def test_unknown_key_exits_2(self, tmp_path, capsys, change):
        # a misspelt delta must not run at the default 1e-3
        config = {k: v for k, v in LIMIT_CONFIG.items() if k != "delta"}
        cfg = write_config(tmp_path, dict(config, **change))
        out = tmp_path / "uk"
        assert cli.main(["limit-sample", "--config", cfg, "--seed", "1", "--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "unknown limit-sample key" in lines[0]
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
        # 1000 expected atoms and the set-up per path, one path more than the budget holds
        cfg = write_config(tmp_path, dict(LIMIT_CONFIG, delta=1e-3))
        replicates = budgets.LIMIT_ATOM_BUDGET // (1000 + budgets.PATH_SETUP_ATOMS) + 1
        args = ["limit-sample", "--config", cfg, "--seed", "1", "--replicates", str(replicates)]
        assert cli.main(args + ["--out", str(tmp_path / "b")]) == 2

    def test_setup_budget_counts_replicates(self, tmp_path):
        # no atoms, only the set-up per path, one path more than the budget holds
        cfg = write_config(tmp_path, dict(LIMIT_CONFIG, horizon=0.0))
        replicates = budgets.LIMIT_ATOM_BUDGET // budgets.PATH_SETUP_ATOMS + 1
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
            ({"a": 100.0, "b": 1.0, "slope": -0.693, "horizon": 1e-3, "delta": 1e-3}, 3, 5, "e-05"),
        ],
        ids=["default", "delta-1", "horizon-0", "exponent-marks", "exponent-times"],
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
        # the CSV against its rows formatted one by one from the same paths
        params, slope = cli._parse_limit_config(config)
        rows = []
        for r in range(replicates):
            atoms = limit.sample_atoms(params, streams.substream(streams.replicate_seed(seed, r), streams.ATOMS))
            path = limit.shot_noise_paths([atoms], params.horizon, slope)[0]
            ts = [*path.breakpoints.tolist(), path.end_time]
            vs = [*path.values.tolist(), path.value(path.end_time)]
            rows += [f"{r},{t!r},{v!r}" for t, v in zip(ts, vs)]
        csv = out.with_suffix(".csv").read_text(encoding="utf-8")
        assert csv.splitlines() == ["replicate,t,value", *rows]
        if form is not None:  # floats printed in exponent form are covered
            assert form in text
        if form == "e-05":  # in the CSV's times too
            assert form in csv

    @pytest.mark.parametrize("slope", [-0.693, 0.0, 0.693])
    @pytest.mark.parametrize("delta", [0.05, 0.5], ids=["20-atoms", "2-atoms"])
    def test_bytes_do_not_depend_on_the_block_sizes(self, tmp_path, slope, delta):
        # blocks of paths and chunks of atom pairs, from one cell or pair
        # up: at 2 atoms a path, caps of 2 and 7 put several paths in a block
        cfg = write_config(tmp_path, dict(LIMIT_CONFIG, slope=slope, delta=delta))
        builder = limit.shot_noise_paths
        outputs, shared = {}, {}
        for size in (1, 2, 7, None):
            cap = cli._PATH_BLOCK_CELLS if size is None else size
            with mock.patch.object(cli, "_PATH_BLOCK_CELLS", cap), \
                    mock.patch.object(cli, "_PAIR_CHUNK", size or cli._PAIR_CHUNK), \
                    mock.patch.object(limit, "shot_noise_paths", side_effect=builder) as build:
                out = tmp_path / f"size{size}"
                args = ["limit-sample", "--config", cfg, "--seed", "29", "--replicates", "12"]
                assert cli.main(args + ["--out", str(out)]) == 0
            blocks = [call.args[0] for call in build.call_args_list]
            shared[size] = any(len(b) > 1 for b in blocks)
            assert all(len(b) * max(1, *map(len, b)) <= cap for b in blocks if len(b) > 1)
            outputs[size] = out.with_suffix(".csv").read_bytes(), out.with_suffix(".json").read_bytes()
        assert outputs[1] == outputs[2] == outputs[7] == outputs[None]
        assert shared[None] and shared[7] == (delta == 0.5)  # the default cap takes all 12 in one block

    @pytest.mark.parametrize("cap", [1, 2, 7, 64])
    def test_a_large_set_among_small_ones_gets_a_block_of_its_own(self, cap):
        # blocks go in replicate order, hold at most `cap` padded cells
        # unless they hold one replicate, and end only where the next
        # replicate would take them over the cap
        sizes = [1, 2, 0, 1, 40, 1, 3, 0, 0, 2, 5, 0]
        draws = [limit.AtomSet(np.linspace(0.0, 1.0, n), np.full(n, 2.0)) for n in sizes]
        params = limit.PrmParams(1.0, 1.0, 1.0, 0.5)
        with mock.patch.object(limit, "sample_atoms", side_effect=draws), \
                mock.patch.object(cli, "_PATH_BLOCK_CELLS", cap):
            blocks = list(cli._limit_blocks(params, 3, len(sizes)))
        assert [len(a) for b in blocks for a in b] == sizes
        def cells(b):
            return len(b) * max(1, *map(len, b))
        assert all(cells(b) <= cap for b in blocks if len(b) > 1)
        assert all(cells(b + nxt[:1]) > cap for b, nxt in zip(blocks, blocks[1:]))
        if cap == 64:
            assert [len(b) for b in blocks] == [4, 1, 7]  # the 40-atom set alone

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

    def test_overflowing_marks_exit_2_without_output(self, tmp_path):
        # b = 0.003 puts marks delta * u^(-1/b) above the float range for
        # about 12% of the atoms; the huge slope overflows s * t instead,
        # and both together give inf - inf.  A fresh interpreter, so that
        # stderr is exactly what a user sees, numpy warnings included
        for i, config in enumerate([
            {"a": 1.0, "b": 0.003, "slope": 0.3, "horizon": 2.0, "delta": 1.0},
            {"a": 1.0, "b": 1.0, "slope": 1.7e308, "horizon": 2.0, "delta": 0.1},
            {"a": 1.0, "b": 0.003, "slope": -1.7e308, "horizon": 2.0, "delta": 1.0},
        ]):
            cfg = write_config(tmp_path, config, name=f"config{i}.json")
            out = tmp_path / f"over{i}"
            args = ["limit-sample", "--config", cfg, "--seed", "5", "--replicates", "200", "--out", str(out)]
            proc = run_cli(args)
            assert proc.returncode == 2
            lines = proc.stderr.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
            assert "overflows the float range" in lines[0]
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


@pytest.mark.filterwarnings("error::RuntimeWarning")  # a numpy warning would print above the error line
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_LIMIT_CONFIGS, st.integers(1, 5))
def test_limit_sample_config_fuzz(config, replicates):
    config = {k: v for k, v in config.items() if v is not _MISSING}
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(Path(tmp), config)
        out = Path(tmp) / "fz"
        err = io.StringIO()
        args = ["limit-sample", "--config", cfg, "--seed", "3", "--replicates", str(replicates)]
        with contextlib.redirect_stderr(err):
            rc = cli.main(args + ["--out", str(out)])
        event(f"exit {rc}")
        if any(isinstance(v, str) for v in config.values()):  # "0.5" is not a number either
            assert rc == 2
        if rc == 0:
            rows = np.loadtxt(out.with_suffix(".csv"), delimiter=",", skiprows=1, ndmin=2)
            assert rows.shape[1] == 3 and np.all(np.isfinite(rows))
            meta = json.loads(out.with_suffix(".json").read_text(encoding="utf-8"))
            assert len(meta["atoms"]) == replicates
            assert meta["atom_counts"] == [len(a) for a in meta["atoms"]]
        else:
            assert rc == 2
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ")
            assert not out.with_suffix(".csv").exists() and not out.with_suffix(".json").exists()


# Every key of the simulate schema, sections included.  The valid ranges
# keep a run at or below 3 replicates x 101 rows.  An immigration variant
# reads one parameter (_VARIANT_PARAMS), and only that one is drawn.
_SIM_KEYS = {
    ("n",): st.integers(1, 50),
    ("horizon",): st.floats(0.0, 2.0),
    ("offspring",): None,
    ("offspring", "family"): st.sampled_from(["poisson", "binary", "geometric"]),
    ("offspring", "mean"): st.floats(0.1, 1.9),
    ("immigration",): None,
    ("immigration", "variant"): st.sampled_from(["reciprocal", "pareto_log", "pareto_log_sv"]),
    ("immigration", "c"): st.floats(0.1, 3.0),
    ("immigration", "alpha"): st.floats(0.2, 0.9),
    ("fluid",): None,
    ("fluid", "exactness_threshold"): st.sampled_from([1_000, 1_000_000]),
    ("norm",): st.one_of(st.sampled_from(["n", "bn"]), st.floats(0.1, 100.0)),
    ("supercritical_correction",): st.one_of(st.booleans(), st.floats(0.5, 2.0)),
}
_VARIANT_PARAMS = {"reciprocal": "c", "pareto_log": "alpha"}


@st.composite
def _sim_configs(draw):
    # Up to two keys take an odd value.  An odd draw for each of these
    # thirteen keys independently, as for limit-sample, would leave almost
    # no config valid; this way about half of the configs exit 0.
    odd = draw(st.sets(st.sampled_from(list(_SIM_KEYS)), max_size=2))
    config = {}
    for key, valid in _SIM_KEYS.items():
        section = config if len(key) == 1 else config.get(key[0])
        if not isinstance(section, dict):
            continue  # a leaf of a section that is itself odd or missing
        if key[-1] in ("c", "alpha") and _VARIANT_PARAMS.get(section.get("variant")) != key[-1]:
            continue  # a parameter the drawn variant does not read
        value = draw(st.sampled_from(_ODD_VALUES)) if key in odd else {} if valid is None else draw(valid)
        if value is not _MISSING:
            section[key[-1]] = value
    return config


@pytest.mark.filterwarnings("error::RuntimeWarning")  # a numpy warning would print above the error line
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_sim_configs(), st.integers(1, 3))
def test_simulate_config_fuzz(config, replicates):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(Path(tmp), config)
        out = Path(tmp) / "fz"
        err = io.StringIO()
        args = ["simulate", "--config", cfg, "--seed", "3", "--replicates", str(replicates)]
        with contextlib.redirect_stderr(err):
            rc = cli.main(args + ["--out", str(out)])
        event(f"exit {rc}")
        if rc == 0:
            rows = np.loadtxt(out.with_suffix(".csv"), delimiter=",", skiprows=1, ndmin=2)
            steps = math.floor(int(config["n"]) * float(config["horizon"]) + 1e-9)
            assert rows.shape == (replicates * (steps + 1), 3)
            assert np.all(np.isfinite(rows))
            meta = json.loads(out.with_suffix(".json").read_text(encoding="utf-8"))
            assert meta["replicate_count"] == replicates
        else:
            assert rc == 2
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ")
            assert not out.with_suffix(".csv").exists() and not out.with_suffix(".json").exists()


# Each check's override keys, with valid values small enough that a run
# takes milliseconds.  Odd values stand in for one key at a time.  For the
# checks whose default scale takes at most 0.1 s (_CHEAP_DEFAULTS) one key may
# be left out instead, which runs its default; the acceptance suite runs the
# others' defaults.
_SMALL_LADDER = st.lists(st.integers(1, 20), min_size=1, max_size=3)
_VERIFY_KEYS = {
    "marginal-limit": {"sample_count": st.integers(1, 300), "delta": st.floats(0.01, 5.0)},
    "marginal-prelimit-thm1": {"ns": _SMALL_LADDER, "replicates": st.integers(1, 4)},
    "marginal-prelimit-thm2": {"ns": _SMALL_LADDER, "replicates": st.integers(1, 4)},
    "fdd": {"mc_samples": st.integers(1, 300)},
    "lemma-aux2": {"n": st.integers(1, 20), "replicates": st.integers(1, 4)},
    "lemma-aux3": {"ns": _SMALL_LADDER, "replicates": st.integers(1, 4)},
    "functional-coupled": {"ns": _SMALL_LADDER, "replicates": st.integers(1, 4)},
}
_CHEAP_DEFAULTS = {"marginal-limit", "fdd", "lemma-aux2"}
_ODD_OVERRIDES = [v for v in _ODD_VALUES if v is not _MISSING] + [True, 2.5, [], [3, 2.5], [10**400], {}]


def test_verify_keys_name_every_registered_check():
    assert set(_VERIFY_KEYS) == set(checks.CHECK_NAMES)


@st.composite
def _verify_configs(draw):
    check = draw(st.sampled_from(list(_VERIFY_KEYS)))
    keys = _VERIFY_KEYS[check]
    odd = draw(st.sampled_from([None, "unknown-key", *keys]))
    missing = draw(st.sampled_from([None, *keys])) if check in _CHEAP_DEFAULTS and odd is None else None
    overrides = {key: draw(st.sampled_from(_ODD_OVERRIDES) if key == odd else valid)
                 for key, valid in keys.items() if key != missing}
    if odd == "unknown-key":
        overrides["unknown"] = 1
    return {"check": check, "overrides": overrides}


@pytest.mark.filterwarnings("error::RuntimeWarning")  # a numpy warning would print above the error line
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_verify_configs())
# an int beyond the float range raised OverflowError with a traceback
@example({"check": "marginal-limit", "overrides": {"sample_count": 10, "delta": 10**400}})
def test_verify_config_fuzz(config):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(Path(tmp), config)
        out = Path(tmp) / "rep"
        stdout, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
            rc = cli.main(["verify", "--config", cfg, "--seed", "3", "--out", str(out)])
        event(f"exit {rc}")
        lines = err.getvalue().splitlines()
        assert len(lines) == 1
        if rc in (0, 4):
            report = json.loads(out.with_suffix(".json").read_text(encoding="utf-8"))
            assert stdout.getvalue() == json.dumps(report, indent=2, sort_keys=True) + "\n"
            assert report["check"] == config["check"] and report["pass"] is (rc == 0)
        else:
            assert rc == 2
            assert lines[0].startswith("error: ") and stdout.getvalue() == ""
            assert not out.with_suffix(".json").exists()


class TestVerify:
    def test_unknown_check_exits_2(self, capsys):
        assert cli.main(["verify", "no-such-check", "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        listed = captured.err.removeprefix("error: unknown check 'no-such-check'; registered checks: ")
        assert listed.rstrip("\n").split(", ") == list(checks.CHECK_NAMES)

    @pytest.mark.parametrize("name", ["lemma-aux2a", "cohort-flatness", "proxy-zn", "conditional-mean-proxy"])
    def test_retired_check_exits_2(self, capsys, name):
        # the e^(n^2) cohort is fluid from n = 5 on: acceptance criterion-06 tests its closed form;
        # Z is the fluid Y by construction: functional-coupled replaces the proxy
        assert cli.main(["verify", name, "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: unknown check {name!r}; registered checks: ")

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

    def test_status_line_reports_elapsed_time_outside_the_report(self, tmp_path, capsys):
        # the time goes to stderr only: stdout and the report file hold the
        # same bytes on every run of a seed
        cfg = write_config(tmp_path, {"check": "fdd", "overrides": {"mc_samples": 20000}})
        outputs = []
        for run in range(2):
            out = tmp_path / f"rep{run}"
            assert cli.main(["verify", "--config", cfg, "--seed", "8", "--out", str(out)]) == 0
            captured = capsys.readouterr()
            report = out.with_suffix(".json").read_text(encoding="utf-8")
            assert captured.out == report and "elapsed" not in report
            outputs.append(report)
            status = captured.err.splitlines()
            assert len(status) == 1
            assert re.fullmatch(r"pass fdd: statistic=\S+ threshold=0\.01 elapsed=\d+\.\d{3}s", status[0])
        assert outputs[0] == outputs[1]

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

    @pytest.mark.parametrize(
        "check,overrides",
        [
            ("lemma-aux2", {"replicates": 0}),  # each of these three divided by zero
            ("lemma-aux3", {"replicates": 0}),
            ("functional-coupled", {"replicates": 0}),
            ("marginal-prelimit-thm1", {"ns": []}),  # these two indexed an empty list
            ("marginal-prelimit-thm2", {"ns": []}),
            ("lemma-aux2", {"n": 0}),  # these two passed on an empty statistic
            ("lemma-aux3", {"ns": []}),
            ("functional-coupled", {"ns": []}),
        ],
    )
    def test_empty_scale_exits_2(self, tmp_path, capsys, check, overrides):
        assert_verify_rejects(tmp_path, capsys, check, overrides)

    @pytest.mark.parametrize(
        "check,overrides",
        [
            ("marginal-limit", {"sample_count": 10**12}),  # these two died on an array allocation
            ("fdd", {"mc_samples": 10**12}),
            ("marginal-limit", {"sample_count": budgets.MARGINAL_SAMPLE_BUDGET + 1}),
            ("marginal-prelimit-thm1", {"ns": [50, 10**12]}),
            ("lemma-aux2", {"n": budgets.PATH_GENERATION_BUDGET // 3 + 1}),  # 3n generations
            ("lemma-aux2", {"n": 10**400}),
            ("lemma-aux3", {"ns": [budgets.PATH_GENERATION_BUDGET + 1]}),
            ("functional-coupled", {"ns": [10**9]}),
            ("marginal-prelimit-thm1", {"replicates": 10**12}),  # these ran without end
            ("marginal-prelimit-thm2", {"ns": [1], "replicates": 10**12}),
            ("lemma-aux2", {"replicates": 10**400}),
            ("lemma-aux2", {"n": 1, "replicates": 10**9}),
            ("lemma-aux3", {"replicates": 10**12}),
            ("functional-coupled", {"replicates": 10**12}),
            # three regimes per rung, each n and the set-up per path: one replicate over
            ("functional-coupled", {"ns": [100], "replicates":
                                    budgets.ENGINE_GENERATION_BUDGET // (3 * (100 + budgets.PATH_SETUP_GENERATIONS)) + 1}),
            # three branches per rung, each n and the set-up for n in 50, 100, 200: one replicate over
            ("lemma-aux3", {"replicates":
                            budgets.ENGINE_GENERATION_BUDGET // (3 * (350 + 3 * budgets.PATH_SETUP_GENERATIONS)) + 1}),
        ],
    )
    def test_scale_over_budget_exits_2(self, tmp_path, capsys, check, overrides):
        assert_verify_rejects(tmp_path, capsys, check, overrides)

    @pytest.mark.parametrize(
        "check,overrides",
        [
            ("marginal-prelimit-thm2", {"ns": [25.5]}),  # ran at n = 25.5
            ("marginal-prelimit-thm1", {"replicates": True}),  # ran one replicate
            ("marginal-prelimit-thm1", {"ns": [50, 2e2]}),
            ("lemma-aux2", {"n": 20.0}),
            ("lemma-aux2", {"replicates": 2.5}),
            ("lemma-aux3", {"ns": [False]}),
            ("functional-coupled", {"ns": ["100"]}),
            ("marginal-limit", {"sample_count": 1000.0}),
            ("fdd", {"mc_samples": True}),
            ("lemma-aux3", {"ns": 5}),  # these three raised TypeError inside the check
            ("marginal-prelimit-thm1", {"ns": 2.5}),
            ("marginal-prelimit-thm2", {"ns": None}),
        ],
    )
    def test_non_integer_count_exits_2(self, tmp_path, capsys, check, overrides):
        assert_verify_rejects(tmp_path, capsys, check, overrides)

    @pytest.mark.parametrize(
        "check,overrides", [("fdd", {"unknown": 1}), ("fdd", {"seed": 5}), ("functional-coupled", {"n": 10, "ns": [10]})]
    )
    def test_override_key_the_check_does_not_take_exits_2(self, tmp_path, capsys, check, overrides):
        assert_verify_rejects(tmp_path, capsys, check, overrides)

    @pytest.mark.parametrize("fault,body", [(KeyError, lambda: {}["x"]), (TypeError, lambda: len(5))],
                             ids=["KeyError", "TypeError"])
    def test_fault_inside_a_check_is_no_config_error(self, tmp_path, monkeypatch, capsys, fault, body):
        # a KeyError inside a check read as "unknown check 'fdd'", and a
        # TypeError as invalid overrides, both with exit 2; a fault propagates
        def faulty(seed, mc_samples=100):
            return body()

        monkeypatch.setitem(checks._REGISTRY, "fdd", faulty)
        cfg = write_config(tmp_path, {"overrides": {"mc_samples": 5}})  # bound before the check runs
        with pytest.raises(fault):
            cli.main(["verify", "fdd", "--config", cfg, "--seed", "1"])
        assert capsys.readouterr().err == ""

    def test_misspelt_overrides_key_exits_2(self, tmp_path, capsys):
        # ran the check at its default scale and exited 0
        assert_verify_rejects(tmp_path, capsys, "fdd", {"mc_samples": 2000}, key="overides")

    @pytest.mark.parametrize("delta", [True, "0.001"])  # True ran at delta = 1
    def test_non_number_delta_exits_2(self, tmp_path, capsys, delta):
        assert_verify_rejects(tmp_path, capsys, "marginal-limit", {"sample_count": 100, "delta": delta})


def assert_verify_rejects(tmp_path, capsys, check, overrides, key="overrides"):
    """`verify` exits 2 at once with one error line, no report on stdout and
    no report file."""
    assert check in checks.CHECK_NAMES  # an unknown check exits 2 as well, whatever the overrides
    cfg = write_config(tmp_path, {"check": check, key: overrides})
    out = tmp_path / "rep"
    start = time.perf_counter()
    assert cli.main(["verify", "--config", cfg, "--seed", "1", "--out", str(out)]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and captured.out == ""
    assert not out.with_suffix(".json").exists()


@pytest.mark.parametrize("jobs", ["1", "3"])
@pytest.mark.parametrize("command", ["simulate", "limit-sample", "verify"])
def test_jobs_is_accepted_and_ignored(tmp_path, command, jobs):
    # every command runs in one process; the flag stays so that a script can
    # pass the same flags to each
    config = {"simulate": SIM_CONFIG, "limit-sample": LIMIT_CONFIG,
              "verify": {"check": "fdd", "overrides": {"mc_samples": 2000}}}[command]
    cfg = write_config(tmp_path, config)
    written = []
    for name, flag in (("plain", []), ("jobs", ["--jobs", jobs])):
        out = tmp_path / name
        args = [command, "--config", cfg, "--seed", "5", "--replicates", "3", *flag, "--out", str(out)]
        assert cli.main(args) == 0
        written.append([path.read_bytes() for path in sorted(tmp_path.glob(f"{name}.*"))])
    assert written[0] and written[1] == written[0]


@pytest.mark.parametrize(
    "command,config,replicates",
    [
        ("simulate", dict(SIM_CONFIG, horizon=0.0), 10**7),  # one row each, so a row budget admitted it
        ("simulate", dict(SIM_CONFIG, horizon=0.0), 10**12),
        ("limit-sample", dict(LIMIT_CONFIG, horizon=0.0), 10**12),  # no atoms
        ("limit-sample", dict(LIMIT_CONFIG, a=1e-300), 10**12),  # 1e-297 expected atoms each
        ("verify", {"check": "functional-coupled", "overrides": {"replicates": 10**12}}, 10**12),
    ],
    ids=["simulate-1e7", "simulate-1e12", "limit-sample-horizon-0", "limit-sample-tiny-a", "verify-functional-coupled"],
)
def test_replicates_without_work_exceed_the_budget_at_once(tmp_path, capsys, command, config, replicates):
    # each path does almost no work of its own, but its set-up counts: the
    # run exits 2 before any work instead of running for hours
    cfg = write_config(tmp_path, config)
    out = tmp_path / "many"
    args = [command, "--config", cfg, "--seed", "1", "--replicates", str(replicates), "--out", str(out)]
    start = time.perf_counter()
    assert cli.main(args) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "budget" in lines[0]
    assert captured.out == ""
    assert not out.with_suffix(".csv").exists() and not out.with_suffix(".json").exists()
