"""Reference copies of the rate inversion, the searches and the certifiers.

`reference_invert` and `reference_gradient` are the literal inversion and
gradient arithmetic; the searches below are built only on the public
`invert_rates` and `utility_rate_space` and on `reference_gradient`, probe
feasibility by catching exceptions, and evaluate every grid point and every
golden-section and bisection probe one profile at a time, in the order of
the sequential search.  The same holds for the scalar
copies of the grid oracle and of the existence check's sampling loop, which
reads `reference_curvature`, the literal closed-form own curvature.  The
kernel-based, stacked code must match them bit for bit: tests compare with
`==`.  `utility_second_derivative` is a finite-difference copy that judges
the closed form from outside, to a tolerance.
"""

from __future__ import annotations

import math

import numpy as np

from crowdgame import oracle
from crowdgame.equilibrium import (
    _COARSE_GRID,
    _GOLDEN,
    _GOLDEN_WIDTH,
    EmptyFeasibleInterval,
    _halton,
)
from crowdgame.model import (
    LN2,
    InfeasibilityError,
    InfeasibleRates,
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


GRADIENT_MARGIN = 1e-9      # model.DEFAULT_FEASIBILITY_MARGIN, as _gradient reads it


def reference_gradient(r: np.ndarray, cfg, margin: float | None = None) -> np.ndarray:
    """Every sensor's d u_i / d r_i, by the literal vector arithmetic."""
    margin = GRADIENT_MARGIN if margin is None else margin
    x = r / cfg.bandwidths
    z = np.exp2(-x)
    t = 1.0 - z
    load = float(t.sum())
    if load >= 1.0 - margin:
        raise InfeasibleRates(load)
    eps = 1.0 - load
    tp = (LN2 / cfg.bandwidths) * z
    dbeta = cfg.noise_variance * tp * (eps + t) / (eps * eps)
    dpower_cost = cfg.wpt_factors * cfg.inv_gain_pathloss * dbeta
    bc = cfg.blockchain
    rho = float(r.sum())
    am2 = bc.quad_coeff * bc.compute_coeff**2
    if rho > 0.0:
        dfee = (
            am2 * rho
            + bc.lin_coeff * bc.compute_coeff
            + bc.const_coeff / rho
            + r * (am2 - bc.const_coeff / rho**2)
        )
    else:
        dfee = np.zeros_like(r)
    return cfg.rate_prices - dpower_cost - dfee


def reference_curvature(r: np.ndarray, cfg) -> np.ndarray:
    """Every sensor's d^2 u_i / d r_i^2 at a feasible profile, by the literal
    vector arithmetic."""
    x = r / cfg.bandwidths
    z = np.exp2(-x)
    t = 1.0 - z
    eps = 1.0 - float(t.sum())
    tp = (LN2 / cfg.bandwidths) * z
    tpp = -((LN2 / cfg.bandwidths) ** 2) * z
    kap = cfg.wpt_factors * cfg.inv_gain_pathloss
    big = 2.0 * (t + eps) / eps**3
    d2p = kap * cfg.noise_variance * (tpp * (t + eps) / eps**2 + tp * tp * big)
    bc = cfg.blockchain
    rho = float(r.sum())
    am2 = bc.quad_coeff * bc.compute_coeff**2
    row = am2 - bc.const_coeff / rho**2 + 2.0 * bc.const_coeff * r / rho**3
    return -d2p - (row + am2 - bc.const_coeff / rho**2)


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


def golden_max(f, a: float, b: float) -> tuple[float, float]:
    """The sequential golden section: one probe per step, ties to the left."""
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > _GOLDEN_WIDTH:
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
    mid = 0.5 * (a + b)
    best_x, best_u = a, f(a)
    for x, u in ((mid, f(mid)), (b, f(b))):
        if u > best_u:
            best_x, best_u = x, u
    return best_x, best_u


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
        return float(reference_gradient(r, cfg)[i])

    grid = np.linspace(lo, hi, _COARSE_GRID)
    values = [u_of(float(x)) for x in grid]
    k = int(np.argmax(values))
    a = float(grid[max(k - 1, 0)])
    b = float(grid[min(k + 1, _COARSE_GRID - 1)])
    best_x, best_u = golden_max(u_of, a, b)
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
        _, u_best = golden_max(u_of, a, b)
        u_best = max(u_best, values[k])
        r[i] = r_star[i]
        worst = max(worst, u_best - base)
    return worst


def grid_best_response(i: int, r_others, cfg, grid_points: int,
                       min_rate: float = 0.1) -> float:
    others = np.asarray(r_others, dtype=float)
    r = np.insert(others, i, min_rate)
    hi = oracle._upper_bound(i, r, cfg, min_rate)
    best_x, best_u = min_rate, -math.inf
    for x in np.linspace(min_rate, hi, grid_points):
        r[i] = x
        u = utility_rate_space(i, r, cfg)
        if u > best_u:
            best_x, best_u = float(x), u
    return best_x


def grid_certify_ne(r_star, cfg, grid_points: int, min_rate: float = 0.1) -> float:
    r_star = np.asarray(r_star, dtype=float)
    worst = -math.inf
    r = r_star.copy()
    for i in range(cfg.n_sensors):
        current = utility_rate_space(i, r_star, cfg)
        hi = oracle._upper_bound(i, r, cfg, min_rate)
        r[i] = r_star[i]
        best = -math.inf
        for x in np.linspace(min_rate, hi, grid_points):
            r[i] = x
            u = utility_rate_space(i, r, cfg)
            if u > best:
                best = u
        r[i] = r_star[i]
        worst = max(worst, best - current)
    return worst


def _with_entry(r: np.ndarray, i: int, value: float) -> np.ndarray:
    out = r.copy()
    out[i] = value
    return out


def utility_second_derivative(i: int, rates, cfg) -> float:
    """Second central difference of the inverted power, step max(1e-4, 1e-4 r_i),
    retried once at h/10 where a +-h profile is infeasible."""
    if not 0 <= i < cfg.n_sensors:
        raise IndexError(f"sensor id {i} out of range [0, {cfg.n_sensors})")
    r = np.asarray(rates, dtype=float)
    if r[i] <= 0.0:
        raise ValueError(
            "utility_second_derivative needs a strictly interior r_i > 0"
        )
    h = max(1e-4, 1e-4 * float(r[i]))
    if r[i] - h < 0.0:
        h = 0.5 * float(r[i])
    for attempt in range(2):
        try:
            p0, _ = invert_rates(r, cfg)
            pp, _ = invert_rates(_with_entry(r, i, r[i] + h), cfg)
            pm, _ = invert_rates(_with_entry(r, i, r[i] - h), cfg)
            d2p = (float(pp[i]) - 2.0 * float(p0[i]) + float(pm[i])) / (h * h)
            break
        except InfeasibilityError:
            if attempt == 1:
                raise
            h *= 0.1
    bc = cfg.blockchain
    rho = float(r.sum())
    am2 = bc.quad_coeff * bc.compute_coeff**2
    fee_term = -2.0 * am2
    if rho > 0.0:
        fee_term += 2.0 * bc.const_coeff * (rho - float(r[i])) / rho**3
    return -float(cfg.wpt_factors[i]) * d2p + fee_term


def check_existence_sampling(cfg, region, samples: int):
    """(value, sensor, rates, evaluated, skipped) of the sampling loop."""
    n = cfg.n_sensors
    lower = np.broadcast_to(np.asarray(region[0], dtype=float), (n,)).copy()
    upper = np.broadcast_to(np.asarray(region[1], dtype=float), (n,)).copy()
    invert_rates(lower, cfg)
    worst_value = -math.inf
    worst_sensor = -1
    worst_point = lower.copy()
    evaluated = 0
    skipped = 0
    for k in range(200 * samples):
        if evaluated >= samples:
            break
        if k % 256 == 0:
            batch = lower + _halton(k, 256, n) * (upper - lower)
        point = batch[k % 256]
        try:
            invert_rates(point, cfg)
        except InfeasibilityError:
            skipped += 1
            continue
        values = reference_curvature(point, cfg)
        evaluated += 1
        j = int(np.argmax(values))
        if values[j] > worst_value:
            worst_value = values[j]
            worst_sensor = j
            worst_point = point.copy()
    if evaluated < samples:
        raise RuntimeError(
            f"could only evaluate {evaluated}/{samples} points in the region; "
            "almost all of it is infeasible"
        )
    return worst_value, worst_sensor, worst_point, evaluated, skipped
