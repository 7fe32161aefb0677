"""Reference copies of the rate inversion and the exception-driven searches.

`reference_invert` is the literal inversion arithmetic; the searches below
are built only on the public `invert_rates`, `utility_rate_space` and
`gradient_all`, probe feasibility by catching their exceptions, and evaluate
every grid point one profile at a time.  The solver's kernel-based,
stacked search must match them bit for bit: tests compare with `==`.
"""

from __future__ import annotations

import math

import numpy as np

from crowdgame.equilibrium import _COARSE_GRID, _GOLDEN_WIDTH, EmptyFeasibleInterval, _golden_max
from crowdgame.model import (
    LN2,
    InfeasibilityError,
    gradient_all,
    invert_rates,
    utility_rate_space,
)


def reference_invert(r: np.ndarray, cfg, margin: float = 1e-9):
    """('ok', powers, gamma, beta, beta_sum, load), ('load', load) or ('cap', i, p_i)."""
    x = r / cfg.bandwidths
    t = -np.expm1(-LN2 * x)
    load = float(t.sum())
    if load >= 1.0 - margin:
        return ("load", load)
    with np.errstate(over="ignore"):
        gamma = np.expm1(LN2 * x)
    beta_sum = cfg.noise_variance * load / (1.0 - load)
    beta = t * (beta_sum + cfg.noise_variance)
    p = cfg.circuit_powers + beta * cfg.inv_gain_pathloss
    over = np.nonzero(p > cfg.power_caps)[0]
    if over.size:
        return ("cap", int(over[0]), float(p[over[0]]))
    return ("ok", p, gamma, beta, beta_sum, load)


def _feasible(r: np.ndarray, cfg) -> bool:
    try:
        invert_rates(r, cfg)
        return True
    except InfeasibilityError:
        return False


def rate_upper_bound(i: int, rates, cfg, min_rate: float) -> float:
    r = np.asarray(rates, dtype=float).copy()
    r[i] = min_rate
    if not _feasible(r, cfg):
        raise EmptyFeasibleInterval(i, min_rate)
    lo = min_rate
    hi = max(1.0, 2.0 * min_rate)
    for _ in range(200):
        r[i] = hi
        if not _feasible(r, cfg):
            break
        lo = hi
        hi *= 2.0
    while hi - lo > 1e-12 * max(1.0, lo):
        mid = 0.5 * (lo + hi)
        r[i] = mid
        if _feasible(r, cfg):
            lo = mid
        else:
            hi = mid
    return lo


def best_response(i: int, rates, cfg, min_rate: float) -> float:
    r = np.asarray(rates, dtype=float).copy()
    hi = rate_upper_bound(i, r, cfg, min_rate)
    lo = min_rate
    if hi <= lo:
        return lo

    def u_of(x: float) -> float:
        r[i] = x
        return utility_rate_space(i, r, cfg)

    def g_of(x: float) -> float:
        r[i] = x
        return float(gradient_all(r, cfg)[i])

    grid = np.linspace(lo, hi, _COARSE_GRID)
    values = [u_of(float(x)) for x in grid]
    k = int(np.argmax(values))
    a = float(grid[max(k - 1, 0)])
    b = float(grid[min(k + 1, _COARSE_GRID - 1)])
    best_x, best_u = _golden_max(u_of, a, b)
    pa = max(lo, a - _GOLDEN_WIDTH)
    pb = min(hi, b + _GOLDEN_WIDTH)
    ga, gb = g_of(pa), g_of(pb)
    if ga > 0.0 > gb:
        for _ in range(200):
            pm = 0.5 * (pa + pb)
            if g_of(pm) > 0.0:
                pa = pm
            else:
                pb = pm
            if pb - pa <= 1e-15 * max(1.0, pa):
                break
        root = 0.5 * (pa + pb)
        u_root = u_of(root)
        if u_root > best_u:
            best_x, best_u = root, u_root
    for x in (lo, hi):
        u = u_of(x)
        if u > best_u or (u == best_u and x < best_x):
            best_x, best_u = x, u
    return best_x


def verify_worst_gain(r_star, cfg, grid_points: int, min_rate: float) -> float:
    r_star = np.asarray(r_star, dtype=float)
    worst = -math.inf
    r = r_star.copy()
    for i in range(cfg.n_sensors):
        base = utility_rate_space(i, r_star, cfg)
        hi = rate_upper_bound(i, r_star, cfg, min_rate)
        grid = np.linspace(min_rate, hi, grid_points)

        def u_of(x: float) -> float:
            r[i] = x
            return utility_rate_space(i, r, cfg)

        values = [u_of(float(x)) for x in grid]
        k = int(np.argmax(values))
        a = float(grid[max(k - 1, 0)])
        b = float(grid[min(k + 1, grid_points - 1)])
        _, u_best = _golden_max(u_of, a, b)
        u_best = max(u_best, values[k])
        r[i] = r_star[i]
        worst = max(worst, u_best - base)
    return worst
