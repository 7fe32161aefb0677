"""Solver library and experiment CLI for the sensor data-trading game."""

from .equilibrium import (
    EmptyFeasibleInterval,
    ExistenceReport,
    SolverOptions,
    best_response,
    check_existence,
    rate_upper_bound,
    solve,
    verify_epsilon_ne,
)
from .model import (
    BlockchainParams,
    EquilibriumResult,
    GameConfig,
    InfeasibilityError,
    InfeasibleRates,
    PowerBoundExceeded,
    RateInversion,
    SensorParams,
    blockchain_power,
    forward_rates,
    invert_rates,
    transaction_fee,
    utility_gradient_analytic,
    utility_power_space,
    utility_rate_space,
    utility_second_derivative,
    wpt_cost,
)
from .oracle import utility_gradient

__version__ = "0.1.0"

__all__ = [
    "BlockchainParams",
    "EmptyFeasibleInterval",
    "EquilibriumResult",
    "ExistenceReport",
    "GameConfig",
    "InfeasibilityError",
    "InfeasibleRates",
    "PowerBoundExceeded",
    "RateInversion",
    "SensorParams",
    "SolverOptions",
    "best_response",
    "blockchain_power",
    "check_existence",
    "forward_rates",
    "invert_rates",
    "rate_upper_bound",
    "solve",
    "transaction_fee",
    "utility_gradient",
    "utility_gradient_analytic",
    "utility_power_space",
    "utility_rate_space",
    "utility_second_derivative",
    "verify_epsilon_ne",
    "wpt_cost",
]
