"""Distributions of the maximum and argmax of Brownian motion minus a
parabola, with Airy-function numerics, a verification harness and a Monte
Carlo oracle."""

from .airy import AiryOverflowError, incomplete_hi, scorer_hi, u_lambda
from .densities import (
    StartState,
    chernoff_density,
    g_fun,
    h_density,
    hitting_prob,
    joint_density_one_sided,
    joint_density_two_sided,
    max_density_one_sided,
    max_marginal_two_sided,
    phi,
    psi,
    survival_prob,
    tabulate,
)
from .mcsim import McConfig, PathFunctionals, estimate_hitting_prob, simulate_two_sided
from .quadrature import QuadratureBudgetError, QuadratureResult, QuadratureSpec

__version__ = "1.0.0"

__all__ = [
    "AiryOverflowError", "incomplete_hi", "scorer_hi", "u_lambda",
    "StartState", "chernoff_density", "g_fun", "h_density", "hitting_prob",
    "joint_density_one_sided", "joint_density_two_sided",
    "max_density_one_sided", "max_marginal_two_sided", "phi", "psi",
    "survival_prob", "tabulate", "McConfig", "PathFunctionals",
    "estimate_hitting_prob", "simulate_two_sided", "QuadratureBudgetError",
    "QuadratureResult", "QuadratureSpec", "__version__",
]
