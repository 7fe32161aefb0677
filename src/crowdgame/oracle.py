"""Brute-force reference implementations used by tests and certification.

The oracle stays independent of the solver's search: `scalar_rate`
re-derives the rate map with plain scalar arithmetic and shares no helpers
with the vectorized implementation, `_upper_bound` finds the feasible
interval by catching the utility's exceptions, and the grid searches certify
optimality by exhaustive evaluation rather than by trusting the solver's line
search.  Each grid row is evaluated by one stacked `model._utility_along`
call; exact tests pin those values to one scalar `utility_rate_space` call
per grid point.
"""

from __future__ import annotations

import math

import numpy as np

from .equilibrium import EmptyFeasibleInterval
from .model import GameConfig, InfeasibilityError, _utility_along, utility_rate_space


def scalar_rate(i: int, powers, cfg: GameConfig) -> float:
    """Rate of sensor i recomputed by literal scalar transcription.

    Kept deliberately free of numpy and of the vectorized code path so it can
    serve as a cross-implementation oracle.
    """
    sensors = cfg.sensors
    if not 0 <= i < len(sensors):
        raise IndexError(f"sensor id {i} out of range")
    interference = 0.0
    for j, s in enumerate(sensors):
        if j == i:
            continue
        tx = powers[j] - s.circuit_power
        if tx < 0.0:
            tx = 0.0
        interference += s.channel_gain * tx / (s.ap_distance ** s.path_loss_exp)
    me = sensors[i]
    tx = powers[i] - me.circuit_power
    if tx < 0.0:
        tx = 0.0
    signal = me.channel_gain * tx / (me.ap_distance ** me.path_loss_exp)
    sinr = signal / (interference + cfg.noise_variance)
    # log2(1 + x) = log1p(x)/ln 2; log1p keeps tiny SINRs fully accurate
    return me.bandwidth * math.log1p(sinr) / math.log(2.0)


def _feasible(i: int, x: float, r: np.ndarray, cfg: GameConfig) -> bool:
    r[i] = x
    try:
        utility_rate_space(i, r, cfg)
        return True
    except InfeasibilityError:
        return False


def _upper_bound(i: int, r: np.ndarray, cfg: GameConfig, min_rate: float) -> float:
    """Feasibility boundary of sensor i's rate, probed through the utility."""
    if not _feasible(i, min_rate, r, cfg):
        raise EmptyFeasibleInterval(i, min_rate)
    lo, hi = min_rate, max(1.0, 2.0 * min_rate)
    for _ in range(200):
        if not _feasible(i, hi, r, cfg):
            break
        lo, hi = hi, 2.0 * hi
    else:
        raise RuntimeError("no infeasible upper rate found")
    while hi - lo > 1e-12 * max(1.0, lo):
        mid = 0.5 * (lo + hi)
        if _feasible(i, mid, r, cfg):
            lo = mid
        else:
            hi = mid
    return lo


def _grid_utilities(i: int, r: np.ndarray, cfg: GameConfig, grid_points: int,
                    min_rate: float):
    """Sensor i's uniform own-rate grid on its feasible interval, and the utilities."""
    grid = np.linspace(min_rate, _upper_bound(i, r, cfg, min_rate), grid_points)
    return grid, _utility_along(i, r, grid, cfg)


def grid_best_response(
    i: int,
    r_others,
    cfg: GameConfig,
    grid_points: int,
    min_rate: float = 0.1,
) -> float:
    """Argmax of sensor i's utility over a uniform grid of own-rates.

    Ties resolve toward the smallest rate.  `r_others` holds the rates of
    every sensor except i, in index order.
    """
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    r = np.insert(np.asarray(r_others, dtype=float), i, min_rate)
    grid, values = _grid_utilities(i, r, cfg, grid_points, min_rate)
    return float(grid[np.argmax(values)])      # the first maximum


def grid_certify_ne(
    r_star,
    cfg: GameConfig,
    grid_points: int,
    min_rate: float = 0.1,
) -> float:
    """Worst unilateral grid-deviation gain at the profile r_star.

    A value <= epsilon certifies an epsilon-Nash equilibrium at the grid's
    resolution.
    """
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    r_star = np.asarray(r_star, dtype=float)
    worst = -math.inf
    for i in range(cfg.n_sensors):
        current = utility_rate_space(i, r_star, cfg)
        _, values = _grid_utilities(i, r_star.copy(), cfg, grid_points, min_rate)
        worst = max(worst, float(values.max()) - current)
    return worst
