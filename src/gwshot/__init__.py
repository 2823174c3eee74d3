"""Branching processes with very active immigration and their extremal
shot noise limits: prelimit simulation at astronomical population scales,
exact limit sampling up to a controlled truncation error, and statistical
verification of the limiting laws."""

from .gw import FluidConfig, limit_profile, population_log_path
from .gwi import (
    CoupledPaths,
    GwiRun,
    conditional_mean_path,
    immigrant_log_draws,
    normalized_observable,
    run_coupled,
    run_replicates,
)
from .immigration import ImmigrationLaw
from .limit import (
    AtomSet,
    PrmParams,
    fdd_cdf,
    marginal_cdf,
    sample_atoms,
    shot_noise_path,
)
from .offspring import OffspringFamily
from .paths import CadlagPath
from .stats import Sample, dkw_band, ks_distance, uniform_distance

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "OffspringFamily",
    "ImmigrationLaw",
    "FluidConfig", "population_log_path", "limit_profile",
    "GwiRun", "CoupledPaths", "run_coupled", "run_replicates",
    "conditional_mean_path", "immigrant_log_draws", "normalized_observable",
    "PrmParams", "AtomSet", "sample_atoms", "shot_noise_path",
    "marginal_cdf", "fdd_cdf",
    "Sample", "ks_distance", "dkw_band", "uniform_distance",
    "CadlagPath",
]
