"""Numerical toolkit for discrete-time mean-field (McKean-Vlasov) optimal control.

Submodules
----------
measure    discrete laws, moment functionals, image measures, pushforwards
model      finite mean-field models, lifted costs, validation, config tags
dpp        exact value recursion on laws, brute-force and factorization oracles
lq         linear-quadratic models, Riccati recursion, policies, closed forms
moments    exact cost evaluation by second-moment propagation
particles  seeded N-particle Monte Carlo evaluation
verify     cross-oracle invariants behind ``mfctrl verify`` and the acceptance tests
cli        scenario runner (``mfctrl`` console script)

Imports are lazy, so ``import mfctrl`` loads no numerical module and the BLAS
thread variables (``OMP_NUM_THREADS`` and the like) can still be set after it.
``mfctrl.cli`` loads ``measure``, ``model`` and ``dpp``, and each other engine
only in the subcommands that run it; SciPy only for Riccati solves
(``scipy.linalg.lapack``) and Gaussian draws (``scipy.special``). So a finite
solve starts without ``lq``, ``particles``, ``moments``, ``verify`` or SciPy.
The engines' numerical failures (``dpp.BudgetExceeded``,
``lq.ConditionsNotMet``, ``lq.NotPositiveDefinite``) are ``ArithmeticError``s,
which the CLI maps to exit code 3.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {name: module for module, names in {
    "measure": ("DiscreteMeasure", "TabularMap", "image_measure", "pushforward"),
    "model": ("FiniteMFModel", "lifted_stage_cost", "lifted_terminal_cost", "validate",
              "finite_model_from_config"),
    "dpp": ("solve", "brute_force_value", "rollforward", "classical_factorization_check",
            "first_order_value_tensors", "first_order_check",
            "SolveResult", "BudgetExceeded"),
    "lq": ("LQModel", "RiccatiSolution", "AffinePolicy", "check_conditions", "solve_riccati",
           "mean_variance_model", "mean_variance_closed_form", "optimal_policy",
           "explicit_control_coefficients", "value_at", "stationarity_residual",
           "ConditionsNotMet", "NotPositiveDefinite"),
    "moments": ("GaussianState", "exact_moment_step", "exact_cost", "exact_trajectory"),
    "particles": ("ParticleCloud", "SimulationResult", "simulate"),
}.items() for name in names}

_SUBMODULES = ("measure", "model", "dpp", "lq", "moments", "particles",
               "fixtures", "verify", "cli")

__all__ = sorted(_EXPORTS) + list(_SUBMODULES)


def __getattr__(name):
    if name in _EXPORTS:
        return getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
