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
gradient ascent is unstable.  `solve` therefore keeps one refinement clock:
at iteration refine_after, at once when a dynamics step raises or overshoots
into the infeasible region, and 50 iterations after a refinement that did not
certify, it refines the iterate by damped active-set Newton on the joint
first-order conditions, whose root is the fixed point of all three dynamics.
A `converged=True` result is certified: one application of the method's own
update map moves it by less than `tol`.  With refine_after=0 the clock never
starts, and the pure dynamics stop at the first step that raises or overshoots.

`rate_upper_bound` replays its doubling and bisection search against x < x_hat,
a closed-form estimate of the feasible interval's end, then probes the kernel
at the largest rate judged feasible and the smallest judged infeasible.  The
kernel is monotone in each rate, so if both verdicts hold, every replayed
decision is the literal search's; otherwise the search reruns on real probes.

The best response's golden section and derivative-sign bisection, and the
golden section of `verify_epsilon_ne`, are replayed by speculation.  Each is
the literal sequential loop, run on kernel values read from a table
(`_OwnRate`).  Where the loop needs a value not in the table, it guesses its
coming decisions from x_hat, the estimated stationary point (the bisection:
g > 0 exactly left of x_hat; the golden section: the inner point nearer x_hat
wins), and x, x_hat and every point of that guessed path are evaluated in one
stacked kernel call before the loop reads on.  Every decision thus reads the
real kernel value at the very float the sequential loop computes: the answers
are bit-identical to one probe at a time, and a wrong guess costs one more
stacked call, never a different bit.  Guessed points never leave the search's
bracket.  The polish runs first and passes its root to the golden section as
x_hat, and its gradient error is raised at once: the golden section reads
utilities only on [min_rate, rate_upper_bound], all feasible, so it cannot
raise first.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from .model import (  # noqa: F401 (bench/tracing.py rebinds utility_rate_space)
    DEFAULT_FEASIBILITY_MARGIN,
    LN2,
    EquilibriumResult,
    GameConfig,
    InfeasibilityError,
    _STACK_SIZE,
    _as_profile,
    _as_rates,
    _curvatures,
    _fees_all,
    _invert,
    _jacobian_terms,
    _utilities_all,
    _own_gradients,
    _own_utilities,
    _utility_along,
    _with_entry,
    gradient_all,
    invert_rates,
    utility_rate_space,
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


def _interval_search(feasible: Callable[[float], bool], min_rate: float):
    """rate_upper_bound's search, deciding by `feasible`: the largest rate judged
    feasible or None, and the smallest judged infeasible or inf (none found)."""
    if not feasible(min_rate):
        return None, min_rate
    lo, hi = min_rate, max(1.0, 2.0 * min_rate)
    for _ in range(200):
        if not feasible(hi):
            break
        lo, hi = hi, 2.0 * hi
    else:
        return lo, math.inf
    while hi - lo > 1e-12 * max(1.0, lo):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def _rate_limit_estimate(i: int, r: np.ndarray, cfg: GameConfig) -> float:
    """Closed-form x_hat of sensor i's largest feasible rate, the others at r:
    with F = 1 - T_-i and kappa = d^alpha/g, the least of the caps on t_i (load
    margin F - margin, each cap F - t_k kappa_k s2/(cap_k - c_k), k = i never
    binding, own cap (cap_i - c_i) F/(cap_i - c_i + kappa_i s2)) as a rate."""
    t = -np.expm1(-LN2 * (r / cfg.bandwidths))
    s2k = cfg.noise_variance * cfg.inv_gain_pathloss
    room = cfg.power_caps - cfg.circuit_powers
    free = 1.0 - (float(t.sum()) - float(t[i]))
    need = np.divide(t * s2k, room, out=np.zeros_like(t), where=room > 0.0)
    own = float(room[i] * free / (room[i] + s2k[i]))
    t_hat = min(free - DEFAULT_FEASIBILITY_MARGIN, free - float(need.max()), own)
    return -float(cfg.bandwidths[i]) * math.log2(1.0 - t_hat)


def rate_upper_bound(
    i: int, rates: np.ndarray, cfg: GameConfig, min_rate: float = DEFAULT_MIN_RATE
) -> float:
    """Largest feasible own-rate of sensor i with the others held fixed.

    The float of a doubling and bisection search for the boundary where the
    kernel starts failing (load reaching 1 or any sensor's power cap being
    hit), replayed against x < x_hat; see the module docstring.

    Raises:
        EmptyFeasibleInterval: even min_rate is infeasible against `rates`.
    """
    r = np.array(rates, dtype=float)
    r[i] = min_rate
    _as_rates(r, cfg)
    probe = lambda x: _profile_feasible(_with_entry(r, i, x), cfg)  # noqa: E731
    x_hat = _rate_limit_estimate(i, r, cfg)
    lo, hi = _interval_search(lambda x: x < x_hat, min_rate)
    if not ((lo is None or probe(lo)) and hi < math.inf and not probe(hi)):
        lo, hi = _interval_search(probe, min_rate)
    if lo is None:
        raise EmptyFeasibleInterval(i, min_rate)
    if hi == math.inf:
        raise RuntimeError("no infeasible upper rate found; config degenerate")
    return lo


# ---------------------------------------------------------------------------
# best response
# ---------------------------------------------------------------------------

def _stationary_estimate(
    i: int, r: np.ndarray, cfg: GameConfig, lo: float, hi: float
) -> float:
    """Closed-form x_hat of the root of sensor i's own gradient on [lo, hi],
    the others at r: safeguarded Newton on model._gradient's formula written
    in F = 1 - T_-i and R_-i; lo or hi where the gradient keeps one sign."""
    bw, bc = float(cfg.bandwidths[i]), cfg.blockchain
    t = -np.expm1(-LN2 * (r / cfg.bandwidths))
    free = 1.0 - (float(t.sum()) - float(t[i]))
    rest = float(r.sum()) - float(r[i])
    kap = float(cfg.wpt_factors[i] * cfg.inv_gain_pathloss[i]) * cfg.noise_variance
    am2, c = bc.quad_coeff * bc.compute_coeff**2, bc.const_coeff
    lin = float(cfg.rate_prices[i]) - bc.lin_coeff * bc.compute_coeff

    def grad(x):                    # (g, dg/dx), never raising
        tp = LN2 / bw * 2.0 ** (-x / bw)            # dt_i/dx
        eps = free - 1.0 + tp * bw / LN2            # 1 - T
        if not eps > 0.0:
            return -math.inf, math.nan
        tot = rest + x
        share = bend = 0.0          # c R_-i / R^2 and its slope, 0 where R_-i = 0
        if rest > 0.0:
            share = c * (rest / tot) / tot
            bend = 2.0 * share / tot
        power = kap * free * tp / eps / eps
        g = lin - power - am2 * (tot + x) - share
        return g, power * (LN2 / bw - 2.0 * tp / eps) - 2.0 * am2 + bend

    if not grad(lo)[0] > 0.0:
        return lo
    if not grad(hi)[0] < 0.0:
        return hi
    x = 0.5 * (lo + hi)
    for _ in range(60):
        g, dg = grad(x)
        if g > 0.0:
            lo = x
        else:
            hi = x
        step = x - g / dg if dg < 0.0 else math.nan
        if not lo < step < hi:
            step = 0.5 * (lo + hi)
        if abs(step - x) <= 1e-15 * x:
            break
        x = step
    return x


class _OwnRate:
    """Sensor i's utility and gradient along its own rate, the others fixed at
    r: the kernel values the best-response searches read, a stacked batch at
    a time.

    The constructor evaluates the uniform grid on [lo, hi], keeps the edges
    a, b of the cells around its first maximum `top`, and estimates x_hat, the
    stationary point in [a, b].  A search reads a value by util(x, guess) or
    grad(x, guess): where x is not known yet, x and the points of guess() are
    evaluated in one stacked call.  An infeasible point is kept as NaN and
    raises the scalar kernel's typed error only when read.
    """

    def __init__(self, i, r, lo, hi, points, cfg):
        grid = np.linspace(lo, hi, points)
        values = _utility_along(i, r, grid, cfg)
        k = int(np.argmax(values))
        a, b = max(k - 1, 0), min(k + 1, points - 1)
        self.i, self.r, self.cfg = i, r, cfg
        self.a, self.b, self.top = float(grid[a]), float(grid[b]), float(values[k])
        seen = [0, a, b, points - 1]        # the only grid points searches read
        self.u = dict(zip(grid[seen].tolist(), values[seen].tolist()))
        self.g = {}
        self.x_hat = _stationary_estimate(i, r, cfg, self.a, self.b)

    def util(self, x: float, guess=lambda: ()) -> float:
        return self._read(self.u, _own_utilities, invert_rates, x, guess)

    def grad(self, x: float, guess=lambda: ()) -> float:
        return self._read(self.g, _own_gradients, gradient_all, x, guess)

    def _read(self, table, stacked, scalar, x, guess):
        if x not in table:
            todo = [y for y in dict.fromkeys([x, *guess()]) if y not in table]
            values = stacked(self.i, self.r, np.array(todo), self.cfg)
            table.update(zip(todo, values.tolist()))
        v = table[x]
        if v != v:
            scalar(_with_entry(self.r, self.i, x), self.cfg)     # raises
        return v


def _golden_from(f, a: float, b: float, x1: float, x2: float) -> tuple[float, float]:
    """Golden-section maximization from the bracket (a, b) with inner points
    x1 < x2 down to bracket width _GOLDEN_WIDTH: (argmax, max) of f over the
    last bracket's ends and midpoint.  f(x, a, b, x1, x2) is the value at x,
    read where the bracket is (a, b, x1, x2).

    Ties between probe values resolve toward the smaller argument.
    """
    f1, f2 = f(x1, a, b, x1, x2), f(x2, a, b, x1, x2)
    while b - a > _GOLDEN_WIDTH:
        if f1 >= f2:            # keep the left section on ties
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1, a, b, x1, x2)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2, a, b, x1, x2)
    mid = 0.5 * (a + b)
    best_x, best_u = a, f(a, a, b, x1, x2)
    for x, u in ((mid, f(mid, a, b, x1, x2)), (b, f(b, a, b, x1, x2))):
        if u > best_u:
            best_x, best_u = x, u
    return best_x, best_u


def _bisection(g, pa: float, pb: float) -> float:
    """The polish's bisection of [pa, pb] on the sign of the gradient; g(pm,
    pa, pb) is the gradient at the midpoint pm of (pa, pb).  Returns the root."""
    for _ in range(200):
        pm = 0.5 * (pa + pb)
        if g(pm, pa, pb) > 0.0:
            pa = pm
        else:
            pb = pm
        if pb - pa <= 1e-15 * max(1.0, pa):
            break
    return 0.5 * (pa + pb)


def _path(search, decide, *state) -> list:
    """The points search(f, *state) reads if f decides as decide(x) does:
    the guessed path that a miss evaluates in one stacked call."""
    seen = []
    search(lambda x, *_: seen.append(x) or decide(x), *state)
    return seen


def _golden_max(p: _OwnRate, a: float, b: float, x_hat: float) -> tuple[float, float]:
    """_golden_from on p's utility from [a, b].  Each miss guesses that every
    step keeps the section whose inner point is nearer x_hat, and x_hat itself
    rides in the first stacked call."""
    near = lambda x: -abs(x - x_hat)     # noqa: E731
    return _golden_from(
        lambda x, *at: p.util(x, lambda: [x_hat, *_path(_golden_from, near, *at)]),
        a, b, b - _GOLDEN * (b - a), a + _GOLDEN * (b - a),
    )


def _polish(p: _OwnRate, pa: float, pb: float) -> tuple[float | None, float]:
    """The derivative-sign bisection polish on [pa, pb], guessing that the
    gradient is positive exactly left of p.x_hat.  The utility is unimodal on
    the bracket, so a positive gradient at the left edge and a negative one at
    the right edge pin an interior stationary point.  Returns (root, x_hat
    for the golden section): the root twice, or None and the edge where the
    stationary point then lies."""
    left = lambda x: p.x_hat - x     # noqa: E731
    ga = p.grad(pa, lambda: [pb, *_path(_bisection, left, pa, pb)])
    gb = p.grad(pb)
    if not ga > 0.0 > gb:
        return None, pa if ga <= 0.0 else pb
    root = _bisection(lambda x, *at: p.grad(x, lambda: _path(_bisection, left, *at)), pa, pb)
    return root, root


def _best_response_full(
    i: int, rates: np.ndarray, cfg: GameConfig, min_rate: float
) -> float:
    """Utility-maximizing rate of sensor i against the full profile `rates`.

    Search contract: 64-point coarse grid to bracket the maximum, golden
    section down to a 1e-10 bracket, then a derivative-sign bisection polish
    inside the grid bracket.  The polish pins interior stationary points to
    machine precision, which the downstream fixed-point solve needs.  Both
    searches are replayed; see the module docstring.
    """
    hi = rate_upper_bound(i, rates, cfg, min_rate)
    lo = min_rate
    if hi <= lo:
        return lo
    p = _OwnRate(i, rates, lo, hi, _COARSE_GRID, cfg)
    # The sequential search reads the golden section first; the polish runs
    # first here so that its root steers the golden section's guesses, and
    # its error is raised at once: the golden section reads only [lo, hi],
    # where every utility is feasible, so it cannot raise.
    root, x_hat = _polish(p, max(lo, p.a - _GOLDEN_WIDTH), min(hi, p.b + _GOLDEN_WIDTH))
    best_x, best_u = _golden_max(p, p.a, p.b, x_hat)
    if root is not None:
        u_root = p.util(root)
        if u_root > best_u:
            best_x, best_u = root, u_root

    # Interval endpoints are the only candidates that can tie the interior
    # maximum; ties break toward the smallest rate.
    for x in (lo, hi):
        u = p.util(x)
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
    evaluates every sensor's closed-form utility_second_derivative at the
    first `samples` feasible quasi-random (Halton) points of the box, skipping
    exactly the infeasible ones, in batches of at most _STACK_SIZE rates.

    Raises:
        InfeasibilityError: the region's lower corner is already infeasible,
            hence the whole region is.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    n = cfg.n_sensors
    lower = np.broadcast_to(np.asarray(region[0], dtype=float), (n,)).copy()
    upper = np.broadcast_to(np.asarray(region[1], dtype=float), (n,)).copy()
    if not (np.all(lower > 0) and np.all(upper >= lower)):    # NaN fails too
        raise ValueError("region must satisfy 0 < lower <= upper")
    if not np.all(np.isfinite(upper)):
        raise ValueError("region must be finite")
    invert_rates(lower, cfg)   # raises if the whole region is infeasible

    condition_a = cfg.blockchain.concavity_margin >= 0.0
    condition_b = float(lower.sum()) >= 1.0

    # Halton points in order until `samples` feasible ones are evaluated; the
    # infeasible ones are skipped.  A batch stays within _STACK_SIZE rates.
    worst_value, worst_sensor, worst_point = -math.inf, -1, lower.copy()
    evaluated = skipped = 0
    limit, size = 200 * samples, min(256, max(1, _STACK_SIZE // n))
    for start in range(0, limit, size):
        batch = lower + _halton(start, min(size, limit - start), n) * (upper - lower)
        fine = _invert(batch, cfg)[4]
        used = int(np.searchsorted(np.cumsum(fine), samples - evaluated)) + 1
        batch, fine = batch[:used], fine[:used]
        skipped += int((~fine).sum())
        evaluated += int(fine.sum())
        values = _curvatures(batch[fine], cfg)
        if values.size:
            best = values.max(axis=1)
            k = int(np.argmax(best))            # the first of the largest
            if best[k] > worst_value:
                worst_value, worst_sensor = float(best[k]), int(np.argmax(values[k]))
                worst_point = batch[fine][k]
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
    """Analytic Jacobian H[i, j] = d(du_i/dr_i)/dr_j of the pseudo-gradient;
    its diagonal is the own curvatures, _curvatures(r, cfg)."""
    d2u, a, tp, c, row = _jacobian_terms(r, cfg)
    H = -(a[:, None] * tp[None, :] * c[:, None]) - row[:, None]
    np.fill_diagonal(H, d2u)
    return H


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


def _try_step(stepper, r: np.ndarray, cfg: GameConfig, opts: SolverOptions):
    """One update of the dynamics, or None where it cannot run from r."""
    try:
        return stepper(r, cfg, opts)
    except (InfeasibilityError, EmptyFeasibleInterval):
        return None


def solve(cfg: GameConfig, opts: SolverOptions | None = None) -> EquilibriumResult:
    """Find the Nash equilibrium via the dynamics selected in `opts`.

    Non-convergence within max_iter is reported through the result's
    `converged` flag, never raised.  An infeasible initial profile raises.
    """
    opts = opts or SolverOptions()
    n = cfg.n_sensors
    if cfg.blockchain.concavity_margin < 0.0:
        warnings.warn(
            "existence condition a*m^2 - c >= 0 fails for this config; "
            "the equilibrium search may not converge",
            RuntimeWarning,
            stacklevel=2,
        )
    if opts.init_rates is not None:
        r = _as_profile(opts.init_rates, cfg, "init_rates").copy()
    else:
        # min_rate + 0.1 each; where that is infeasible (too many sensors or a
        # cap), equal shares of the load 0.5, 0.25, ..., 2^-10, then min_rate
        shares = [np.maximum(-cfg.bandwidths * np.log2(1.0 - 0.5**k / n), opts.min_rate)
                  for k in range(1, 11)]
        starts = (np.full(n, opts.min_rate + 0.1), *shares)
        r = next((s for s in starts if _profile_feasible(s, cfg)), np.full(n, opts.min_rate))
    invert_rates(r, cfg)       # initial profile must be feasible

    stepper = _STEPPERS[opts.method]
    trace = [r.copy()]
    iterations = 0
    residual = math.inf
    converged = False
    refine_at = opts.refine_after or math.inf

    while iterations < opts.max_iter and not converged:
        if iterations >= refine_at:
            refined, used, worth_verifying = _refine_newton(
                r, cfg, opts.min_rate, max(opts.max_iter - iterations - 1, 1)
            )
            iterations += used
            if used == 0 and not worth_verifying:
                break      # refinement cannot move from here either
            r = refined
            if iterations >= opts.max_iter:
                break
            trace.append(r.copy())
            if worth_verifying:
                check = _try_step(stepper, r, cfg, opts)
                iterations += 1
                residual = (
                    math.inf if check is None else float(np.max(np.abs(check - r)))
                )
                converged = residual < opts.tol
                if not math.isfinite(residual):
                    break      # the literal map cannot run even here; stop
            refine_at = iterations + _REFINE_RETRY
            continue

        r_new = _try_step(stepper, r, cfg, opts)
        if r_new is not None:
            iterations += 1
            residual = float(np.max(np.abs(r_new - r)))
            trace.append(r_new.copy())
            if _profile_feasible(r_new, cfg):
                converged = residual < opts.tol
                if not converged:       # a certified r stays the answer
                    r = r_new
                continue
        # the step raised or overshot into the infeasible region (the last
        # feasible iterate stays the state): refine, or stop the pure dynamics
        if refine_at == math.inf:
            break
        refine_at = iterations

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
    for i in range(cfg.n_sensors):
        hi = rate_upper_bound(i, r_star, cfg, min_rate)
        p = _OwnRate(i, r_star, min_rate, hi, grid_points, cfg)
        u_best = max(_golden_max(p, p.a, p.b, p.x_hat)[1], p.top)
        worst = max(worst, u_best - float(base[i]))
    return worst <= epsilon, worst
