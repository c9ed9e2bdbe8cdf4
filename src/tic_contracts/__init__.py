"""Optimal contracting under non-exponential discounting.

Closed-form solvers for the principal's problem against a sophisticated
time-inconsistent agent, Monte Carlo verification of the solved
contracts, and forward Volterra machinery for the admissibility
constraint that ties the time-indexed value processes together.
"""

from .closed_form import ContractSolution, default_grid, solve
from .discounting import DiscountSpec
from .dynamics import (
    McEstimate,
    PathEnsemble,
    agent_value_mc,
    contract_payoff,
    delta_correction_check,
    principal_value_mc,
    simulate,
    spike_deviation_check,
    verify_contract,
)
from .fsvie import (
    ConvergenceError,
    VolterraField,
    diagonal_bsde_check,
    march,
    picard_solve,
    s_constant_family,
    separable_optimal_family,
    target_constraint_residual,
)
from .hamiltonian import HamiltonianResult, maximize, search_max
from .model import (
    InfeasibleError,
    MarketModel,
    Preferences,
    UnboundedLoadingError,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "ContractSolution",
    "ConvergenceError",
    "DiscountSpec",
    "HamiltonianResult",
    "InfeasibleError",
    "MarketModel",
    "McEstimate",
    "PathEnsemble",
    "Preferences",
    "UnboundedLoadingError",
    "VolterraField",
    "agent_value_mc",
    "contract_payoff",
    "default_grid",
    "delta_correction_check",
    "diagonal_bsde_check",
    "march",
    "maximize",
    "picard_solve",
    "principal_value_mc",
    "s_constant_family",
    "search_max",
    "separable_optimal_family",
    "simulate",
    "solve",
    "spike_deviation_check",
    "target_constraint_residual",
    "validate",
    "verify_contract",
    "__version__",
]
