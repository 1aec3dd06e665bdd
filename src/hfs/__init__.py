"""Four-level hyperfine atom driven by a single laser field: steady states,
local-field self-consistency, time evolution, and slow/fast-light spectra."""

from .params import (Drive, GammaSet, RabiSet, SystemParams, bare_rabi,
                     derive_epsilon, effective_rabi, gamma_set, sodium_d1,
                     sodium_d1_cyclic_splittings)
from .model import (hamiltonian, rhs_oracle, rhs_verbatim,
                    validate_density_matrix, ground_state)
from .steady import (SingularSystem, SolveOptions, SteadyResult,
                     residual_norm, solve_grid, solve_linear_steady,
                     solve_selfconsistent)
from .dynamics import Trajectory, evolve, relax_to_steady
from .optics import (group_index_profile, population_transfer,
                     refractive_index, susceptibility)
from .sweep import SpectrumTable, SweepSpec, run_sweep, summarize

__version__ = "0.1.0"

__all__ = [
    "Drive", "GammaSet", "RabiSet", "SystemParams", "bare_rabi",
    "derive_epsilon", "effective_rabi", "gamma_set", "sodium_d1",
    "sodium_d1_cyclic_splittings",
    "hamiltonian", "rhs_oracle", "rhs_verbatim", "validate_density_matrix",
    "ground_state", "SingularSystem", "SolveOptions", "SteadyResult",
    "residual_norm", "solve_grid", "solve_linear_steady",
    "solve_selfconsistent",
    "Trajectory", "evolve", "relax_to_steady", "group_index_profile",
    "population_transfer", "refractive_index", "susceptibility",
    "SpectrumTable", "SweepSpec", "run_sweep", "summarize",
]
