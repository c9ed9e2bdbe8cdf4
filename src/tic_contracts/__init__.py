"""Optimal contracting under non-exponential discounting.

Closed-form solvers for the principal's problem against a sophisticated
time-inconsistent agent, Monte Carlo verification of the solved
contracts, and forward Volterra machinery for the admissibility
constraint that ties the time-indexed value processes together.

The namespace is lazy (PEP 562): each public name imports its submodule
on first access, so ``import tic_contracts.cli`` loads the closed-form
solvers but not the Monte Carlo (``dynamics``) or Volterra (``fsvie``)
modules.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "closed_form": ("ContractSolution", "default_grid", "solve"),
    "discounting": ("DiscountSpec",),
    "dynamics": ("McEstimate", "PathEnsemble", "agent_value_mc", "contract_payoff",
                 "delta_correction_check", "principal_value_mc", "simulate",
                 "spike_deviation_check", "verify_contract"),
    "fsvie": ("ConvergenceError", "VolterraField", "march", "picard_solve",
              "s_constant_family", "separable_optimal_family", "target_constraint_residual"),
    "hamiltonian": ("HamiltonianResult", "maximize", "search_max"),
    "model": ("InfeasibleError", "MarketModel", "Preferences", "validate"),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*sorted(_SUBMODULE), "__version__"]


def __getattr__(name):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
