"""Property tests of the process engine's invariants over random laws and seeds."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gwshot import streams
from gwshot.gw import FluidConfig
from gwshot.gwi import GwiRun, run_coupled
from gwshot.immigration import ImmigrationLaw
from gwshot.offspring import OffspringFamily

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)

families = st.builds(
    OffspringFamily,
    st.sampled_from(["poisson", "binary", "geometric"]),
    st.floats(min_value=0.2, max_value=1.9),
)
laws = st.one_of(
    st.builds(ImmigrationLaw.reciprocal, st.floats(min_value=0.1, max_value=3.0)),
    st.builds(ImmigrationLaw.pareto_log, st.floats(min_value=0.2, max_value=0.9)),
)
configs = st.builds(FluidConfig, st.sampled_from([1_000, 1_000_000]))
seeds = st.integers(min_value=0, max_value=2**64 - 1)


def _run(family, law, config, n, seed):
    return GwiRun(n=n, horizon=1.0, family=family, law=law, config=config, seed=seed)


@SETTINGS
@given(families, laws, configs, st.integers(1, 60), seeds,
       st.floats(min_value=0.05, max_value=0.95), st.floats(min_value=0.5, max_value=60.0))
def test_truncated_never_exceeds_full(family, law, config, n, seed, gamma, c_n):
    bundle = run_coupled(_run(family, law, config, n, seed), cutoff=gamma * c_n)
    assert np.all(bundle.truncated_log <= bundle.y_log)


@SETTINGS
@given(families, laws, configs, st.integers(1, 60), seeds, st.floats(min_value=0.0, max_value=1.0))
def test_extinction_is_absorbing_once_immigration_stops(family, law, config, n, seed, stop):
    run = _run(family, law, config, n, seed)
    k = int(stop * n)
    jlog = law.sample_log_j_array([streams.substream(seed, streams.IMMIGRATION)], n + 1)[0]
    jlog[k + 1 :] = -math.inf
    y_log = run_coupled(run, immigrant_log_j=jlog).y_log
    dead = np.nonzero(y_log[k:] == -math.inf)[0]
    if dead.size:
        assert np.all(y_log[k + dead[0] :] == -math.inf)


@SETTINGS
@given(families.filter(lambda f: f.mean >= 1.0), laws, configs, st.integers(1, 60), seeds)
def test_fluid_path_is_mean_scaling_plus_immigrants(family, law, config, n, seed):
    # mu >= 1: once the total exceeds the threshold it never returns, and
    # log Y_m = m log mu + logaddexp.accumulate(log Y_m0 - m0 log mu, log J_k - k log mu)
    bundle = run_coupled(_run(family, law, config, n, seed))
    fluid = np.nonzero(bundle.y_log > math.log(config.exactness_threshold))[0]
    if not fluid.size:
        return
    m0 = fluid[0]
    log_mu = math.log(family.mean)
    steps = np.arange(m0, n + 1) * log_mu
    terms = np.concatenate(([bundle.y_log[m0] - steps[0]], bundle.immigrant_log_j[m0 + 1 :] - steps[1:]))
    expected = steps + np.logaddexp.accumulate(terms)
    np.testing.assert_allclose(bundle.y_log[m0:], expected, rtol=1e-12, atol=1e-12)
