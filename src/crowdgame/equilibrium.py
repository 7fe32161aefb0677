"""Equilibrium existence checks, best responses, and equilibrium search.

The game is concave in each player's own rate whenever a*m^2 - c >= 0 and the
total rate stays above 1, so a Nash equilibrium exists and coincides with the
joint fixed point of the per-sensor best responses.  Three dynamics are
offered: sequential (Gauss-Seidel) best response, simultaneous (Jacobi) best
response, and projected gradient ascent.

On interference-limited instances the equilibrium sits in a thin boundary
layer of the feasible rate region (the load T approaches 1), where the
best-response map is near-singular: plain Gauss-Seidel contracts by only
~1e-3 per sweep, Jacobi overshoots into infeasibility, and fixed-step
gradient ascent is unstable.  `solve` therefore runs the requested dynamics
for a few iterations and then refines the iterate with a damped active-set
Newton method on the joint first-order conditions, which share the fixed
point of all three dynamics.  Convergence is always certified by applying
the method's own update map once and checking that the iterate moves by less
than the tolerance, so a `converged=True` result is a genuine fixed point of
the requested dynamics.  Set refine_after=0 for the pure literal dynamics.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from .model import (  # noqa: F401 (bench/tracing.py rebinds utility_rate_space)
    LN2,
    EquilibriumResult,
    GameConfig,
    InfeasibilityError,
    _as_rates,
    _fees_all,
    _invert,
    _second_derivatives,
    _utilities_all,
    _utility,
    _utility_along,
    gradient_all,
    invert_rates,
    utility_rate_space,
    utility_second_derivative,
)

DEFAULT_MIN_RATE = 0.1

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_WIDTH = 1e-10       # target bracket width of the golden-section stage
_COARSE_GRID = 64           # bracketing grid points in best_response
_FOC_TOL = 1e-11            # target residual of the Newton refinement
_REFINE_RETRY = 50          # dynamics iterations between refinement attempts

Method = Literal["gauss_seidel_br", "jacobi_br", "gradient_ascent"]
_METHODS = ("gauss_seidel_br", "jacobi_br", "gradient_ascent")


class EmptyFeasibleInterval(Exception):
    """No feasible own-rate exists for a sensor given the others' rates."""

    def __init__(self, sensor: int, min_rate: float):
        super().__init__(
            f"sensor {sensor}: no feasible rate >= min_rate {min_rate!r}"
        )
        self.sensor = sensor


@dataclass
class SolverOptions:
    """Knobs of the equilibrium search.

    refine_after is the number of dynamics iterations to run before engaging
    the Newton refinement stage; 0 disables refinement entirely and leaves
    the unmodified literal dynamics.
    """

    method: Method = "gauss_seidel_br"
    init_rates: np.ndarray | None = None
    step_size: float = 1e-3
    tol: float = 1e-8
    max_iter: int = 10_000
    min_rate: float = DEFAULT_MIN_RATE
    refine_after: int = 10

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}")
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be finite and > 0")
        if not math.isfinite(self.step_size):
            raise ValueError("step_size must be finite")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.method == "gradient_ascent" and self.step_size <= 0:
            raise ValueError("step_size must be > 0 for gradient ascent")
        if not 0 <= self.min_rate < math.inf:
            raise ValueError("min_rate must be finite and >= 0")
        if self.refine_after < 0:
            raise ValueError("refine_after must be >= 0")


@dataclass
class ConcavityWorstCase:
    """Largest sampled second derivative and where it occurred."""

    value: float
    sensor: int
    rates: np.ndarray
    evaluated: int
    skipped: int


@dataclass
class ExistenceReport:
    """Outcome of the equilibrium-existence check."""

    condition_a: bool        # a*m^2 - c >= 0
    condition_b: bool        # total rate >= 1 on the region's lower corner
    numeric_concavity: bool  # all sampled second derivatives negative
    details: ConcavityWorstCase


# ---------------------------------------------------------------------------
# feasible interval of one sensor's rate
# ---------------------------------------------------------------------------

def _profile_feasible(r: np.ndarray, cfg: GameConfig) -> bool:
    return _invert(r, cfg)[4]


def rate_upper_bound(
    i: int, rates: np.ndarray, cfg: GameConfig, min_rate: float = DEFAULT_MIN_RATE
) -> float:
    """Largest feasible own-rate of sensor i with the others held fixed.

    Located by bisection on the boundary where invert_rates starts failing
    (load reaching 1 or any sensor's power cap being hit).

    Raises:
        EmptyFeasibleInterval: even min_rate is infeasible against `rates`.
    """
    r = np.array(rates, dtype=float)
    r[i] = min_rate
    _as_rates(r, cfg)
    if not _profile_feasible(r, cfg):
        raise EmptyFeasibleInterval(i, min_rate)
    lo = min_rate
    hi = max(1.0, 2.0 * min_rate)
    for _ in range(200):
        r[i] = hi
        if not _profile_feasible(r, cfg):
            break
        lo = hi
        hi *= 2.0
    else:
        raise RuntimeError("no infeasible upper rate found; config degenerate")
    while hi - lo > 1e-12 * max(1.0, lo):
        mid = 0.5 * (lo + hi)
        r[i] = mid
        if _profile_feasible(r, cfg):
            lo = mid
        else:
            hi = mid
    return lo


# ---------------------------------------------------------------------------
# best response
# ---------------------------------------------------------------------------

def _golden_max(
    f: Callable[[float], float], a: float, b: float
) -> tuple[float, float]:
    """Golden-section maximization down to bracket width _GOLDEN_WIDTH.

    Ties between probe values resolve toward the smaller argument.
    """
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > _GOLDEN_WIDTH:
        if f1 >= f2:            # keep the left section on ties
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


def _best_response_full(
    i: int, rates: np.ndarray, cfg: GameConfig, min_rate: float
) -> float:
    """Utility-maximizing rate of sensor i against the full profile `rates`.

    Search contract: 64-point coarse grid to bracket the maximum, golden
    section down to a 1e-10 bracket, then a derivative-sign bisection polish
    inside the final bracket.  The polish pins interior stationary points to
    machine precision, which the downstream fixed-point solve needs.
    """
    r = rates.copy()
    hi = rate_upper_bound(i, r, cfg, min_rate)
    lo = min_rate
    if hi <= lo:
        return lo

    def u_of(x: float) -> float:
        r[i] = x
        return _utility(i, r, cfg)

    def g_of(x: float) -> float:
        r[i] = x
        return float(gradient_all(r, cfg)[i])

    grid = np.linspace(lo, hi, _COARSE_GRID)
    values = _utility_along(i, r, grid, cfg)
    k = int(np.argmax(values))          # first (smallest-rate) maximum on ties
    a = float(grid[max(k - 1, 0)])
    b = float(grid[min(k + 1, _COARSE_GRID - 1)])
    best_x, best_u = _golden_max(u_of, a, b)

    # Polish: the utility is unimodal on the bracket, so a positive gradient
    # at the left edge and a negative one at the right edge pin an interior
    # stationary point.
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

    # Interval endpoints are the only candidates that can tie the interior
    # maximum; ties break toward the smallest rate.
    for x in (lo, hi):
        u = u_of(x)
        if u > best_u or (u == best_u and x < best_x):
            best_x, best_u = x, u
    return best_x


def best_response(
    i: int,
    r_others: np.ndarray,
    cfg: GameConfig,
    opts: SolverOptions | None = None,
) -> float:
    """Best response of sensor i to the other sensors' rates.

    `r_others` holds the rates of every sensor except i, in index order.

    Raises:
        EmptyFeasibleInterval: the opponents already saturate the channel.
    """
    opts = opts or SolverOptions()
    others = np.asarray(r_others, dtype=float)
    if others.shape != (cfg.n_sensors - 1,):
        raise ValueError(
            f"r_others has shape {others.shape}, expected ({cfg.n_sensors - 1},)"
        )
    full = np.insert(others, i, opts.min_rate)
    return _best_response_full(i, full, cfg, opts.min_rate)


# ---------------------------------------------------------------------------
# existence check
# ---------------------------------------------------------------------------

def _halton(start: int, count: int, dim: int) -> np.ndarray:
    """Points start..start+count-1 of the unscrambled Halton sequence in [0,1)^dim.

    Radical inverses in the first dim prime bases, summed digit by digit as
    scipy.stats.qmc.Halton(scramble=False) does, so the two agree to the bit.
    """
    limit = dim * (dim.bit_length() + 4)        # above the dim-th prime
    sieve = np.ones(limit + 1, dtype=bool)
    for k in range(2, math.isqrt(limit) + 1):
        sieve[k * k::k] = False
    bases = np.nonzero(sieve)[0][2:2 + dim]     # past 0 and 1
    q = np.repeat(np.arange(start, start + count)[:, None], dim, axis=1)
    x = np.zeros((count, dim))
    f = 1.0 / bases
    while q.any():
        x += (q % bases) * f
        q //= bases
        f /= bases
    return x


def check_existence(
    cfg: GameConfig,
    region: tuple = (DEFAULT_MIN_RATE, 0.5),
    samples: int = 1000,
) -> ExistenceReport:
    """Check the equilibrium-existence conditions on a rate box.

    condition_a is the analytic coefficient test a*m^2 - c >= 0; condition_b
    checks total rate >= 1 at the region's lower corner; numeric_concavity
    samples the second derivative of every sensor's utility at `samples`
    quasi-random (Halton) interior points of the box, skipping points where
    the game is infeasible.

    Raises:
        InfeasibilityError: the region's lower corner is already infeasible,
            hence the whole region is.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    n = cfg.n_sensors
    lower = np.broadcast_to(np.asarray(region[0], dtype=float), (n,)).copy()
    upper = np.broadcast_to(np.asarray(region[1], dtype=float), (n,)).copy()
    if np.any(lower < 0) or np.any(upper < lower):
        raise ValueError("region must satisfy 0 <= lower <= upper")
    if not np.all(np.isfinite(upper)):
        raise ValueError("region must be finite")
    invert_rates(lower, cfg)   # raises if the whole region is infeasible

    bc = cfg.blockchain
    condition_a = bc.quad_coeff * bc.compute_coeff**2 - bc.const_coeff >= 0.0
    condition_b = float(lower.sum()) >= 1.0

    # Halton points in order until `samples` are evaluated; a point is skipped
    # where any sensor's second derivative is undefined (infeasible).
    worst_value, worst_sensor, worst_point = -math.inf, -1, lower.copy()
    evaluated = skipped = 0
    limit = 200 * samples
    for start in range(0, limit, 256):
        batch = lower + _halton(start, min(256, limit - start), n) * (upper - lower)
        values, ok, _ = _second_derivatives(batch, cfg, np.arange(n))
        fine = ok.all(axis=1)
        used = int(np.searchsorted(np.cumsum(fine), samples - evaluated)) + 1
        batch, values, ok, fine = batch[:used], values[:used], ok[:used], fine[:used]
        first = np.argmin(ok, axis=1)
        zero = ~fine & (batch[np.arange(len(batch)), first] <= 0.0)
        if zero.any():          # a zero rate is outside the domain: raise
            k = int(np.argmax(zero))
            utility_second_derivative(int(first[k]), batch[k], cfg)
        skipped += int((~fine).sum())
        evaluated += int(fine.sum())
        best = np.where(fine, values.max(axis=1), -math.inf)
        k = int(np.argmax(best))            # the first of the largest
        if best[k] > worst_value:
            worst_value, worst_sensor = float(best[k]), int(np.argmax(values[k]))
            worst_point = batch[k].copy()
        if evaluated >= samples:
            break
    if evaluated < samples:
        raise RuntimeError(
            f"could only evaluate {evaluated}/{samples} points in the region; "
            "almost all of it is infeasible"
        )
    details = ConcavityWorstCase(
        value=worst_value,
        sensor=worst_sensor,
        rates=worst_point,
        evaluated=evaluated,
        skipped=skipped,
    )
    return ExistenceReport(
        condition_a=condition_a,
        condition_b=condition_b,
        numeric_concavity=worst_value < 0.0,
        details=details,
    )


# ---------------------------------------------------------------------------
# Newton refinement on the joint first-order conditions
# ---------------------------------------------------------------------------

def _foc_hessian(r: np.ndarray, cfg: GameConfig) -> np.ndarray:
    """Analytic Jacobian H[i, j] = d(du_i/dr_i)/dr_j of the pseudo-gradient."""
    n = cfg.n_sensors
    x = r / cfg.bandwidths
    z = np.exp2(-x)
    t = 1.0 - z
    eps = 1.0 - float(t.sum())
    tp = (LN2 / cfg.bandwidths) * z
    tpp = -((LN2 / cfg.bandwidths) ** 2) * z
    s2 = cfg.noise_variance
    kap = cfg.wpt_factors * cfg.inv_gain_pathloss
    big = 2.0 * (t + eps) / eps**3
    # charging-cost curvature d P'_i / d r_j
    P = (kap * s2 * tp)[:, None] * tp[None, :] * (big[:, None] - 1.0 / eps**2)
    np.fill_diagonal(P, kap * s2 * (tpp * (t + eps) / eps**2 + tp * tp * big))
    # fee curvature; the cross term is constant along each row
    bc = cfg.blockchain
    rho = float(r.sum())
    am2 = bc.quad_coeff * bc.compute_coeff**2
    row = am2 - bc.const_coeff / rho**2 + 2.0 * bc.const_coeff * r / rho**3
    F = np.repeat(row[:, None], n, axis=1)
    np.fill_diagonal(F, row + am2 - bc.const_coeff / rho**2)
    return -P - F


def _foc_residual(r: np.ndarray, cfg: GameConfig, min_rate: float) -> float:
    g = gradient_all(r, cfg)
    free = (r > min_rate + 1e-14) | (g > 0.0)
    return float(np.max(np.abs(np.where(free, g, 0.0)))) if free.any() else 0.0


def _refine_newton(
    r_start: np.ndarray,
    cfg: GameConfig,
    min_rate: float,
    budget: int,
) -> tuple[np.ndarray, int, bool]:
    """Damped active-set Newton on the joint stationarity conditions.

    Moves along the Newton direction of the free sensors (those off the
    min_rate bound or pushing away from it), backtracking until the candidate
    is feasible and shrinks the first-order residual.  Returns the best
    iterate found, the iterations spent, and whether the residual is small
    enough to be worth a fixed-point verification.
    """
    r = np.maximum(r_start.copy(), min_rate)
    if float(r.sum()) <= 0.0 or not _profile_feasible(r, cfg):
        return r_start, 0, False
    used = 0
    for _ in range(min(100, budget)):
        g = gradient_all(r, cfg)
        free = (r > min_rate + 1e-14) | (g > 0.0)
        resid = float(np.max(np.abs(np.where(free, g, 0.0)))) if free.any() else 0.0
        if resid < _FOC_TOL:
            return r, used, True
        used += 1
        H = _foc_hessian(r, cfg)
        idx = np.nonzero(free)[0]
        try:
            step = np.linalg.solve(H[np.ix_(idx, idx)], -g[idx])
        except np.linalg.LinAlgError:
            return r, used, False
        direction = np.zeros_like(r)
        direction[idx] = step
        s = 1.0
        improved = False
        while s > 1e-14:
            cand = np.maximum(r + s * direction, min_rate)
            if _profile_feasible(cand, cfg):
                rc = _foc_residual(cand, cfg, min_rate)
                if rc < resid * (1.0 - 0.25 * s) or rc < _FOC_TOL:
                    r = cand
                    improved = True
                    break
            s *= 0.5
        if not improved:
            # stalled at the floating-point floor of the residual
            return r, used, resid < 1e-6
    return r, used, _foc_residual(r, cfg, min_rate) < 1e-6


# ---------------------------------------------------------------------------
# equilibrium search
# ---------------------------------------------------------------------------

def _gauss_seidel_step(
    r: np.ndarray, cfg: GameConfig, opts: SolverOptions
) -> np.ndarray:
    out = r.copy()
    for i in range(cfg.n_sensors):
        out[i] = _best_response_full(i, out, cfg, opts.min_rate)
    return out


def _jacobi_step(r: np.ndarray, cfg: GameConfig, opts: SolverOptions) -> np.ndarray:
    return np.array(
        [_best_response_full(i, r, cfg, opts.min_rate) for i in range(cfg.n_sensors)]
    )


def _gradient_step(r: np.ndarray, cfg: GameConfig, opts: SolverOptions) -> np.ndarray:
    g = gradient_all(r, cfg)
    upper = np.array(
        [rate_upper_bound(i, r, cfg, opts.min_rate) for i in range(cfg.n_sensors)]
    )
    return np.clip(r + opts.step_size * g, opts.min_rate, upper)


_STEPPERS = {
    "gauss_seidel_br": _gauss_seidel_step,
    "jacobi_br": _jacobi_step,
    "gradient_ascent": _gradient_step,
}


def solve(cfg: GameConfig, opts: SolverOptions | None = None) -> EquilibriumResult:
    """Find the Nash equilibrium via the dynamics selected in `opts`.

    Non-convergence within max_iter is reported through the result's
    `converged` flag, never raised.  An infeasible initial profile raises.
    """
    opts = opts or SolverOptions()
    n = cfg.n_sensors
    bc = cfg.blockchain
    if bc.quad_coeff * bc.compute_coeff**2 - bc.const_coeff < 0.0:
        warnings.warn(
            "existence condition a*m^2 - c >= 0 fails for this config; "
            "the equilibrium search may not converge",
            RuntimeWarning,
            stacklevel=2,
        )
    if opts.init_rates is not None:
        r = np.asarray(opts.init_rates, dtype=float).copy()
        if r.shape != (n,):
            raise ValueError(f"init_rates has shape {r.shape}, expected ({n},)")
    else:
        r = np.full(n, opts.min_rate + 0.1)
        if not _profile_feasible(r, cfg):
            # too many sensors for that start: share half the load equally
            r = np.maximum(-cfg.bandwidths * np.log2(1.0 - 0.5 / n), opts.min_rate)
    invert_rates(r, cfg)       # initial profile must be feasible

    stepper = _STEPPERS[opts.method]
    trace = [r.copy()]
    iterations = 0
    residual = math.inf
    converged = False
    refine_enabled = opts.refine_after > 0
    next_refine = opts.refine_after
    refine_now = False

    while iterations < opts.max_iter and not converged:
        if refine_enabled and (refine_now or iterations >= next_refine):
            refine_now = False
            budget = opts.max_iter - iterations
            refined, used, worth_verifying = _refine_newton(
                r, cfg, opts.min_rate, max(budget - 1, 1)
            )
            iterations += used
            if used == 0 and not worth_verifying:
                break      # refinement cannot move from here either
            if iterations >= opts.max_iter:
                r = refined
                break
            trace.append(refined.copy())
            r = refined
            if worth_verifying:
                try:
                    check = stepper(r, cfg, opts)
                    delta = float(np.max(np.abs(check - r)))
                except (InfeasibilityError, EmptyFeasibleInterval):
                    delta = math.inf
                iterations += 1
                residual = delta
                if delta < opts.tol:
                    converged = True
                    break
                if not math.isfinite(delta):
                    break      # the literal map cannot run even here; stop
            next_refine = iterations + _REFINE_RETRY
            continue

        try:
            r_new = stepper(r, cfg, opts)
        except (InfeasibilityError, EmptyFeasibleInterval):
            if refine_enabled:
                refine_now = True
                continue
            break
        iterations += 1
        residual = float(np.max(np.abs(r_new - r)))
        trace.append(r_new.copy())
        if _profile_feasible(r_new, cfg):
            r = r_new
            if residual < opts.tol:
                converged = True
        else:
            # a simultaneous update overshot into the infeasible region;
            # keep the last feasible iterate as the state
            if refine_enabled:
                refine_now = True
            else:
                break

    powers, _ = invert_rates(r, cfg)
    utilities = _utilities_all(r, cfg, powers)
    fees = _fees_all(r, cfg)
    total = float(r.sum())
    fee_shares = r / total if total > 0 else np.zeros_like(r)
    return EquilibriumResult(
        rates=r,
        powers=powers,
        utilities=utilities,
        fees=fees,
        fee_shares=fee_shares,
        iterations=iterations,
        converged=converged,
        residual=residual,
        trace=np.array(trace),
    )


# ---------------------------------------------------------------------------
# epsilon-Nash verification
# ---------------------------------------------------------------------------

def verify_epsilon_ne(
    r_star: np.ndarray,
    cfg: GameConfig,
    epsilon: float,
    grid_points: int = 2000,
    min_rate: float = DEFAULT_MIN_RATE,
) -> tuple[bool, float]:
    """Check that no sensor can gain more than epsilon by deviating alone.

    Each sensor's unilateral deviations are grid-searched over its feasible
    interval and the best cell is refined by golden section.  Returns the
    verdict and the worst improvement found (negative when r_star is a
    strict best response everywhere).
    """
    r_star = np.asarray(r_star, dtype=float)
    base = _utilities_all(r_star, cfg)
    worst = -math.inf
    r = r_star.copy()
    for i in range(cfg.n_sensors):
        hi = rate_upper_bound(i, r_star, cfg, min_rate)
        grid = np.linspace(min_rate, hi, grid_points)

        def u_of(x: float) -> float:
            r[i] = x
            return _utility(i, r, cfg)

        values = _utility_along(i, r, grid, cfg)
        k = int(np.argmax(values))
        a = float(grid[max(k - 1, 0)])
        b = float(grid[min(k + 1, grid_points - 1)])
        _, u_best = _golden_max(u_of, a, b)
        u_best = max(u_best, float(values[k]))
        r[i] = r_star[i]
        worst = max(worst, u_best - float(base[i]))
    return worst <= epsilon, worst
