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
A root where a free sensor's own curvature is >= 0 is no own maximum: the
refinement then returns its start unverified.  A `converged=True` result is
certified: one application of the method's own update map moves it by less
than `tol`.  With refine_after=0 the clock never starts, and the pure
dynamics stop at the first step that raises or overshoots.

Every own-rate search reads its caller's evaluation of the profile
(`model._Aggregates`): one a Gauss-Seidel best response, a simultaneous step,
a `verify` and a `rate_upper_bound`.  `rate_upper_bound` replays its doubling
and bisection search against x < x_hat, a closed-form estimate of the
feasible interval's end, then probes the kernel on full profiles at the
largest rate judged feasible and the smallest judged infeasible.  The kernel
is monotone in each rate, so if both verdicts hold, every replayed decision
is the literal search's; otherwise the search reruns on real probes.  x_hat
only steers, so whatever the evaluation holds at entry i, no bit moves.

A Jacobi step and a gradient step take every sensor's interval end in closed
form (`_interval_ends`), 1e-12 inside the boundary, checked in one pass of
aggregate rows; an end that fails the check or lies past the search's last
doubling falls back to the replayed search, so every method raises on a
degenerate config.  `_best_responses` answers from the grid and the
stationary point in each best cell, within 1e-12 of the exact maximizers, on
the rows its caller names: a Jacobi step's aggregate rows, or one sensor's
full-profile rows in verify, whose grid is the oracle's, so its worst gain is
never below the oracle's.  Gauss-Seidel keeps the replayed searches, whose
floats `solve`, `sweep` and `br-curve` print.
A Newton iterate is evaluated once: the line search's evaluation of the
accepted candidate builds the next Jacobian.  The line search is the literal
halving loop, one profile a halving; it stops at the first candidate that
rounds back to the iterate, as every smaller halving would.

The best response's golden section and derivative-sign bisection are
replayed by speculation: the literal loop on kernel values read from a table
(`_OwnRate`).  A miss evaluates the point and the path guessed from x_hat, the
estimated stationary point, in one stacked call: g > 0 exactly left of x_hat,
the inner point nearer x_hat wins, but both golden sections over the last
_GOLDEN_TAIL steps, whose values differ by round-off.  Its widths are
relative, times max(1, a): above 2^19 an ulp of a exceeds _GOLDEN_WIDTH.
One step function serves loop and guess; each decision reads the real value
at the loop's own float, so a wrong guess costs a call, never a bit.
Without the golden tail, x_hat riding in its first call or the scan's grid
seeding the table, sec4-family Gauss-Seidel solves take about 3%, 9% and 13%
longer; a bisection tail saved about 1%.  Guesses stay in the bracket.  The
polish runs first and passes its root to the golden section as x_hat; the
golden section reads only the feasible [min_rate, rate_upper_bound], so the
polish's error raises at once.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

# bench/tracing.py rebinds utility_rate_space
from .model import (  # noqa: F401
    DEFAULT_FEASIBILITY_MARGIN,
    LN2,
    EquilibriumResult,
    GameConfig,
    InfeasibilityError,
    _NOT_BOOL,
    _STACK_SIZE,
    _Aggregates,
    _as_profile,
    _as_rates,
    _check_count,
    _check_nonnegative,
    _check_sensor_id,
    _curvatures,
    _fees_all,
    _gradient,
    _invert,
    _jacobian_terms,
    _own_gradients,
    _own_utilities,
    _row_powers,
    _row_utilities,
    _terms,
    _utilities_all,
    _with_entry,
    gradient_all,
    invert_rates,
    utility_rate_space,
)

DEFAULT_MIN_RATE = 0.1

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_WIDTH = 1e-10       # target bracket width of the golden-section stage, times max(1, a)
_COARSE_GRID = 64           # bracketing grid points in best_response
_FOC_TOL = 1e-11            # target residual of the Newton refinement
_REFINE_RETRY = 50          # dynamics iterations between refinement attempts
_DOUBLINGS = 200            # interval search doublings before it calls a config degenerate
_GOLDEN_TAIL = 4            # last golden-section steps speculated on both sections

Method = Literal["gauss_seidel_br", "jacobi_br", "gradient_ascent"]
_METHODS = ("gauss_seidel_br", "jacobi_br", "gradient_ascent")


class EmptyFeasibleInterval(InfeasibilityError):
    """No feasible own-rate exists for a sensor given the others' rates."""

    def __init__(self, sensor: int, min_rate: float):
        super().__init__(
            f"sensor {sensor}: no feasible rate >= min_rate {min_rate!r}"
        )
        self.sensor = sensor


class DegenerateConfig(ValueError):
    """A sensor's own rate stays feasible past the interval search's last doubling."""

    def __init__(self, sensor: int):
        super().__init__(f"sensor {sensor}: no infeasible upper rate found; config degenerate")
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
        for name in ("step_size", "tol", "max_iter", "refine_after"):
            if isinstance(getattr(self, name), (bool, np.bool_)):
                raise ValueError(f"{name}: {_NOT_BOOL}")
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be finite and > 0")
        if not math.isfinite(self.step_size):
            raise ValueError("step_size must be finite")
        _check_count(self.max_iter, "max_iter", 1)
        if self.method == "gradient_ascent" and self.step_size <= 0:
            raise ValueError("step_size must be > 0 for gradient ascent")
        _check_nonnegative(self.min_rate, "min_rate")
        _check_count(self.refine_after, "refine_after", 0)


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
    for _ in range(_DOUBLINGS):
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


def _rate_limit_estimate(i, a: _Aggregates, cfg: GameConfig):
    """Closed-form x_hat of sensor i's largest feasible rate, the others at the
    profile a.r: with F = 1 - T_-i and kappa = d^alpha/g, the least of the caps
    on t_i (load margin F - margin, each cap F - t_k kappa_k s2/(cap_k - c_k),
    k = i never binding where r_i meets its own cap, own cap (cap_i - c_i) F/
    (cap_i - c_i + kappa_i s2)) as a rate; -inf where an infinite cap term
    leaves no rate.  i is one sensor, or an index array of sensors."""
    s2k, room = cfg.noise_pathloss[i], cfg.power_rooms[i]
    free = 1.0 - a.load_others[i]
    own = room * free / (room + s2k)
    top = a.cap_terms.max()
    t_hat = np.minimum(np.minimum(free - DEFAULT_FEASIBILITY_MARGIN, free - top), own)
    return -cfg.bandwidths[i] * np.log2(1.0 - t_hat)


def rate_upper_bound(
    i: int, rates: np.ndarray, cfg: GameConfig, min_rate: float = DEFAULT_MIN_RATE
) -> float:
    """Largest feasible own-rate of sensor i with the others held fixed.

    The float of a doubling and bisection search for the boundary where the
    kernel starts failing (load reaching 1 or any sensor's power cap being
    hit), replayed against x < x_hat; see the module docstring.

    Raises:
        EmptyFeasibleInterval: even min_rate is infeasible against `rates`.
        DegenerateConfig: a degenerate config, feasible at every doubling to ~2^200.
        ValueError: a bad min_rate, or `rates` not n finite rates >= 0.
    """
    _check_nonnegative(min_rate, "min_rate")
    _check_sensor_id(i, cfg)
    r = _with_entry(_as_profile(rates, cfg, "rates"), i, min_rate)
    return _bound_search(i, _Aggregates(_as_rates(r, cfg), cfg), cfg, min_rate)


def _interval_ends(a: _Aggregates, cfg: GameConfig, min_rate: float) -> np.ndarray:
    """rate_upper_bound of every sensor at the profile a.r, checked in closed
    form: e = x_hat - 1e-12 max(1, x_hat), x_hat = _rate_limit_estimate,
    clamped at min_rate where one pass of aggregate rows finds min_rate and e
    feasible and e + 2e-12 max(1, e) not; _bound_search elsewhere, in sensor
    order, so the first failing sensor raises.  The slack keeps a simultaneous
    step off the coupled boundary, which exact ends would cross by round-off."""
    x_hat = _rate_limit_estimate(np.arange(cfg.n_sensors), a, cfg)
    inside = (-np.inf < x_hat) & (x_hat < 2.0 ** (_DOUBLINGS - 1))   # the search's reach
    e = np.where(inside, x_hat, min_rate)
    e = e - 1e-12 * np.maximum(1.0, e)
    x = np.column_stack([np.full(cfg.n_sensors, min_rate), e, e + 2e-12 * np.maximum(1.0, e)])
    ok = _row_powers(a, (slice(None), None), x, cfg)[1]     # sensor i's row i of x
    ends = np.maximum(e, min_rate)
    for i in np.flatnonzero(~(inside & ok[:, 0] & ok[:, 1] & ~ok[:, 2])).tolist():
        ends[i] = _bound_search(i, a, cfg, min_rate)
    return ends


def _bound_search(i: int, a: _Aggregates, cfg: GameConfig, min_rate: float):
    """rate_upper_bound at the profile a.r, whatever its entry i: the replay,
    its two verdicts probed, or the literal search where one fails."""
    x_hat = float(_rate_limit_estimate(i, a, cfg))
    feasible = lambda x: _profile_feasible(_with_entry(a.r, i, x), cfg)
    lo, hi = _interval_search(lambda x: x < x_hat, min_rate)
    if not (hi < math.inf and not feasible(hi) and (lo is None or feasible(lo))):
        lo, hi = _interval_search(feasible, min_rate)      # the replay does not hold
    if lo is None:
        raise EmptyFeasibleInterval(i, min_rate)
    if hi == math.inf:
        raise DegenerateConfig(i)
    return lo


# ---------------------------------------------------------------------------
# best response
# ---------------------------------------------------------------------------

def _stationary_estimate(
    i: int, a: _Aggregates, cfg: GameConfig, lo: float, hi: float
) -> float:
    """Closed-form x_hat of the root of sensor i's own gradient on [lo, hi],
    the others at the profile a.r: safeguarded Newton on model._own_gradient's
    formula written in F = 1 - T_-i and R_-i, stopped where its step or its
    bracket stops shrinking; lo or hi where the gradient keeps one sign."""
    bw, bc = float(cfg.bandwidths[i]), cfg.blockchain
    free = 1.0 - float(a.load_others[i])
    rest = float(a.total_others[i])
    kap = float(cfg.beta_cost_factors[i]) * cfg.noise_variance
    am2, c = bc.quad_coeff * bc.compute_coeff**2, bc.const_coeff
    lin = float(cfg.rate_prices[i]) - bc.lin_coeff * bc.compute_coeff
    lb, kf, f1, am2x2 = LN2 / bw, kap * free, free - 1.0, 2.0 * am2     # hoisted, same floats

    def grad(x):                    # (g, dg/dx), never raising
        tp = lb * 2.0 ** (-x / bw)              # dt_i/dx
        eps = f1 + tp * bw / LN2                # 1 - T
        if not eps > 0.0:
            return -math.inf, math.nan
        tot = rest + x
        share = bend = 0.0          # c R_-i / R^2 and its slope, 0 where R_-i = 0
        if rest > 0.0:
            share = c * (rest / tot) / tot
            bend = 2.0 * share / tot
        power = kf * tp / eps / eps
        g = lin - power - am2 * (tot + x) - share
        return g, power * (lb - 2.0 * tp / eps) - am2x2 + bend

    def split(lo, hi):      # geometric across decades, where 60 midpoints cannot reach a low root
        lo = lo if lo > 0.0 else hi * 2.0**-1000        # a zero low end, anchored
        return math.sqrt(lo) * math.sqrt(hi) if hi > 1e3 * lo > 0.0 else 0.5 * (lo + hi)

    if not grad(lo)[0] > 0.0:
        return lo
    if not grad(hi)[0] < 0.0:
        return hi
    x = split(lo, hi)
    for _ in range(60):
        g, dg = grad(x)
        if g > 0.0:
            lo = x
        else:
            hi = x
        step = x - g / dg if dg < 0.0 else math.nan
        # the step also lands on an end by round-off; the bracket stops
        # shrinking where the gradient's round-off makes Newton jitter
        if abs(step - x) <= 1e-15 * x or hi - lo <= 2.0 * math.ulp(hi):
            break
        if not lo < step < hi:
            step = split(lo, hi)
        x = step
    return x


def _best_responses(sensors: np.ndarray, a: _Aggregates, cfg: GameConfig, min_rate: float,
                    ends: np.ndarray, points: int, utilities: Callable[[np.ndarray], np.ndarray]):
    """(rates, utilities) of the best responses of `sensors` to the profile
    a.r, sensors[q] on [min_rate, ends[q]]: a `points`-point grid,
    _stationary_estimate in its best cell, and the best of that root,
    min_rate, the end and the best grid point, the last three read from the
    grid (np.linspace keeps its ends exact); ties go to the smaller rate and a
    NaN never wins.  utilities(x) are the caller's rows: sensors[q]'s utility
    at each own rate x[q, :], NaN where infeasible."""
    grid = np.linspace(min_rate, ends, points, axis=1)
    u = utilities(grid)
    rows, k = np.arange(sensors.size), np.argmax(u, axis=1)
    cell = np.clip(k[:, None] + [-1, 0, 1], 0, points - 1)
    lo, top, hi = grid[rows[:, None], cell].T
    roots = np.array([_stationary_estimate(i, a, cfg, left, right) for i, left, right
                      in zip(sensors.tolist(), lo.tolist(), hi.tolist())], dtype=float)
    x = np.column_stack([roots, np.full(sensors.size, min_rate), ends, top])
    u = np.column_stack([utilities(roots[:, None])[:, 0], u[:, 0], u[:, -1], u[rows, k]])
    u = np.where(np.isnan(u), -np.inf, u)
    best = u.max(axis=1)
    return np.where(u == best[:, None], x, np.inf).min(axis=1), best


class _OwnRate:
    """Sensor i's utility and gradient along its own rate, the others fixed at
    the profile of the evaluation `at`: the kernel values the best-response
    searches read, a stacked call at a time.

    scan(lo, hi) evaluates the _COARSE_GRID-point grid on [lo, hi], keeps the
    edges a, b of the cells around its first maximum, and estimates x_hat,
    the stationary point in [a, b].  The tables u and g hold the values
    known so far.  read(x, guess, gradient) reads one; a miss evaluates x and
    the points of `guess` in one call.  An infeasible point is kept as NaN
    and raises the scalar kernel's typed error only when read.
    """

    def __init__(self, i, at: _Aggregates, cfg):
        self.i, self.at, self.r, self.cfg = i, at, at.r, cfg
        self.u, self.g = {}, {}

    def scan(self, lo, hi):
        grid = np.linspace(lo, hi, _COARSE_GRID)
        # all feasible: hi is, and the kernel is monotone
        values = _own_utilities(self.i, self.r, grid, self.cfg)
        k = int(np.argmax(values))
        a, b = max(k - 1, 0), min(k + 1, _COARSE_GRID - 1)
        self.a, self.b = float(grid[a]), float(grid[b])
        seen = [0, a, b, _COARSE_GRID - 1]      # the only grid points searches read
        self.u = dict(zip(grid[seen].tolist(), values[seen].tolist()))
        self.x_hat = _stationary_estimate(self.i, self.at, self.cfg, self.a, self.b)

    def read(self, x: float, guess=(), gradient=False):
        table, kernel, scalar = ((self.g, _own_gradients, gradient_all) if gradient
                                 else (self.u, _own_utilities, invert_rates))
        if x not in table:
            todo = [x, *[y for y in guess if y not in table]]
            table.update(zip(todo, kernel(self.i, self.r, np.array(todo), self.cfg).tolist()))
        v = table[x]
        if v != v:              # the scalar kernel raises the typed error
            scalar(_with_entry(self.r, self.i, x), self.cfg)
        return v


def _golden_step(a, b, x1, x2, left):
    """One golden-section step from the bracket (a, b) with inner points
    x1 < x2: the next (a, b, x1, x2), keeping the left section if `left`.
    Its new point, x1 if left else x2, is the one read next."""
    if left:
        return a, x2, x2 - _GOLDEN * (x2 - a), x1
    return x1, b, x2, x1 + _GOLDEN * (b - x1)


def _bisect_step(pa, pb, pm, positive):
    """One step of the polish's bisection of (pa, pb) on the gradient sign at
    its midpoint pm: the kept half, its midpoint (read next, or the root), and
    whether the step was the last."""
    pa, pb = (pm, pb) if positive else (pa, pm)
    return pa, pb, 0.5 * (pa + pb), pb - pa <= 1e-15 * max(1.0, pa)


def _golden_guess(a, b, x1, x2, x_hat) -> list:
    """The points the golden section reads after the bracket (a, b, x1, x2):
    the new point of the section whose inner point is nearer x_hat, of both
    sections from width _GOLDEN_WIDTH / _GOLDEN**_GOLDEN_TAIL on, and each
    final bracket's midpoint; both widths relative, as in _golden_max."""
    points, stack, tail = [], [(a, b, x1, x2)], _GOLDEN_WIDTH / _GOLDEN**_GOLDEN_TAIL
    while stack:
        a, b, x1, x2 = stack.pop()
        scale = a if a > 1.0 else 1.0       # max(1.0, a), at a tenth of max()'s cost
        if b - a > tail * scale:
            left = abs(x1 - x_hat) <= abs(x2 - x_hat)
            stack.append(_golden_step(a, b, x1, x2, left))
            points.append(stack[-1][2 if left else 3])
        elif b - a > _GOLDEN_WIDTH * scale:
            kept = _golden_step(a, b, x1, x2, True), _golden_step(a, b, x1, x2, False)
            points += kept[0][2], kept[1][3]
            stack += kept
        else:
            points.append(0.5 * (a + b))
    return points


def _bisect_guess(pa, pb, pm, x_hat) -> list:
    """The midpoints the bisection reads after pm, if the gradient is positive
    exactly left of x_hat."""
    points, done = [], False
    while not done:
        pa, pb, pm, done = _bisect_step(pa, pb, pm, pm < x_hat)
        points.append(pm)
    return points[:-1]          # the last is the root, never read


def _golden_max(p: _OwnRate, a: float, b: float, x_hat: float):
    """Golden-section maximization of p's utility from the bracket [a, b] down
    to width _GOLDEN_WIDTH * max(1, a): (argmax, max) over the last bracket's
    ends and midpoint.  Ties keep the left section and the smaller rate.  A
    miss evaluates _golden_guess's points with it, and x_hat rides in the first."""
    u = p.u
    x1, x2 = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    first = [x2, x_hat, *_golden_guess(a, b, x1, x2, x_hat)]
    f1, f2 = p.read(x1, first), p.read(x2, first)
    while b - a > _GOLDEN_WIDTH * (a if a > 1.0 else 1.0):
        left = f1 >= f2
        a, b, x1, x2 = _golden_step(a, b, x1, x2, left)
        x = x1 if left else x2
        f = u.get(x)
        if f is None or f != f:
            f = p.read(x, _golden_guess(a, b, x1, x2, x_hat))
        f1, f2 = (f, f1) if left else (f2, f)
    ends = [(p.read(x), x) for x in (a, 0.5 * (a + b), b)]
    return max(ends, key=lambda end: end[0])[::-1]      # the first of the largest


def _polish(p: _OwnRate, pa: float, pb: float):
    """The derivative-sign bisection polish on [pa, pb], at most 200 steps; a
    miss evaluates _bisect_guess's points from p.x_hat with it.  The utility
    is unimodal on the bracket, so g(pa) > 0 > g(pb) pins an interior
    stationary point.  Returns (root, x_hat for the golden section): the root
    twice, or None and the edge where the stationary point then lies."""
    g, x_hat, pm = p.g, p.x_hat, 0.5 * (pa + pb)
    ga = p.read(pa, [pb, pm, *_bisect_guess(pa, pb, pm, x_hat)], gradient=True)
    gb = p.read(pb, gradient=True)
    if not ga > 0.0 > gb:
        return None, pa if ga <= 0.0 else pb
    for _ in range(200):
        gm = g.get(pm)
        if gm is None or gm != gm:
            gm = p.read(pm, _bisect_guess(pa, pb, pm, x_hat), gradient=True)
        pa, pb, pm, done = _bisect_step(pa, pb, pm, gm > 0.0)
        if done:
            break
    return pm, pm


def _best_response_full(
    i: int, rates: np.ndarray, cfg: GameConfig, min_rate: float
) -> float:
    """Utility-maximizing rate of sensor i against the full profile `rates`.

    Search contract: 64-point coarse grid to bracket the maximum, golden
    section down to a 1e-10 max(1, a) bracket, then a derivative-sign
    bisection polish inside the grid bracket.  The polish pins interior
    stationary points to machine precision, which the downstream fixed-point
    solve needs.  Both searches are replayed on one evaluation of `rates`;
    see the module docstring.
    """
    a = _Aggregates(_with_entry(rates, i, min_rate), cfg)
    hi = _bound_search(i, a, cfg, min_rate)
    lo = min_rate
    if hi <= lo:
        return lo
    p = _OwnRate(i, a, cfg)
    p.scan(lo, hi)
    root, x_hat = _polish(p, max(lo, p.a - _GOLDEN_WIDTH), min(hi, p.b + _GOLDEN_WIDTH))
    best_x, best_u = _golden_max(p, p.a, p.b, x_hat)
    if root is not None:
        u_root = p.read(root)
        if u_root > best_u:
            best_x, best_u = root, u_root

    # Interval endpoints are the only candidates that can tie the interior
    # maximum; ties break toward the smallest rate.
    for x in (lo, hi):
        u = p.read(x)
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
        DegenerateConfig: a degenerate config, feasible at every doubling to ~2^200.
        ValueError: `r_others` is not n - 1 finite rates >= 0.
    """
    opts = opts or SolverOptions()
    full = _full_profile(i, r_others, cfg, opts.min_rate)
    return _best_response_full(i, full, cfg, opts.min_rate)


def _full_profile(i: int, r_others, cfg: GameConfig, min_rate: float) -> np.ndarray:
    """The rates of every sensor but i, in index order, with min_rate at i."""
    _check_sensor_id(i, cfg)
    others = np.asarray(r_others, dtype=float)
    if others.shape != (cfg.n_sensors - 1,):
        raise ValueError(f"r_others has shape {others.shape}, expected ({cfg.n_sensors - 1},)")
    return _as_rates(np.insert(others, i, min_rate), cfg)


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
        ValueError: a bad count or region (one not a pair, or a bound neither
            a scalar nor n values, too), or fewer than `samples` feasible
            points among the first 200 * samples.
    """
    try:
        low, high = region
    except (TypeError, ValueError):
        raise ValueError(f"region must be a (lower, upper) pair, not {region!r}") from None
    _check_count(samples, "samples", 1)
    n = cfg.n_sensors
    bounds = [np.asarray(v, dtype=float) for v in (low, high)]
    for v in bounds:
        if v.shape not in ((), (n,)):
            raise ValueError(
                f"each region bound must be a scalar or {n} values, not shape {v.shape}"
            )
    lower, upper = (np.broadcast_to(v, (n,)).copy() for v in bounds)
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
        raise ValueError(
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

def _foc_hessian(r: np.ndarray, cfg: GameConfig, terms=None, free=slice(None)) -> np.ndarray:
    """Analytic Jacobian H[i, j] = d(du_i/dr_i)/dr_j of the pseudo-gradient
    over the sensors of the mask `free` (every sensor by default), from r's
    model._terms where given.  Each entry is the full matrix's expression, so
    a block equals the full matrix's rows and columns of `free`.  Its
    diagonal is the own curvatures, _curvatures(r, cfg)."""
    d2u, a, tp, c, row = (v[free] for v in _jacobian_terms(r, cfg, terms))
    H = -(a[:, None] * tp[None, :] * c[:, None]) - row[:, None]
    H.flat[::d2u.size + 1] = d2u        # the diagonal
    return H


def _foc_residual(r: np.ndarray, cfg: GameConfig, min_rate: float):
    """(residual, gradient, free sensors, model._terms) of the first-order
    conditions at a profile r, the terms being what _foc_hessian reads;
    raises where the gradient does."""
    terms = _terms(r, cfg)
    g = _gradient(r, terms, cfg)
    free = (r > min_rate + 1e-14) | (g > 0.0)
    resid = float(np.abs(np.where(free, g, 0.0)).max())     # 0 where nothing is free
    return resid, g, free, terms


def _refine_newton(
    r_start: np.ndarray,
    cfg: GameConfig,
    min_rate: float,
    budget: int,
) -> tuple[np.ndarray, int, bool]:
    """Damped active-set Newton on the joint stationarity conditions.

    Moves along the Newton direction of the free sensors (those off the
    min_rate bound or pushing away from it), backtracking until the candidate
    is feasible and shrinks the first-order residual: s = 1, 1/2, ... while
    s > 1e-14, evaluating each feasible candidate.  A candidate equal to the
    iterate r ends the search: it has r's residual, which fails the test, and
    every smaller halving rounds back to r too.  The accepted candidate's
    evaluation, its _terms and gradient, builds the next step's Jacobian
    block over the free sensors, one linear solve a step.  Returns the best
    iterate found, the iterations spent, and whether the residual is small
    enough to be worth a fixed-point verification.  A root where a free
    sensor's own curvature is >= 0 is no own maximum: Newton then returns
    r_start unverified, so that no dynamics step starts at it either.
    """
    r = np.maximum(r_start.copy(), min_rate)
    if float(r.sum()) <= 0.0 or not _profile_feasible(r, cfg):
        return r_start, 0, False
    used = 0
    resid, g, free, terms = _foc_residual(r, cfg, min_rate)
    for _ in range(min(100, budget)):
        if resid < _FOC_TOL:
            break
        used += 1
        direction = np.zeros(r.size)
        try:
            direction[free] = np.linalg.solve(_foc_hessian(r, cfg, terms, free), -g[free])
        except np.linalg.LinAlgError:
            return r, used, False
        s = 1.0
        while s > 1e-14:
            cand = np.maximum(r + s * direction, min_rate)
            if np.array_equal(cand, r):
                break       # so is every later halving, and r fails the test
            if _profile_feasible(cand, cfg):
                rc, gc, fc, tc = _foc_residual(cand, cfg, min_rate)
                if rc < resid * (1.0 - 0.25 * s) or rc < _FOC_TOL:
                    r, resid, g, free, terms = cand, rc, gc, fc, tc
                    break
            s *= 0.5
        if r is not cand:       # none accepted: stalled at the residual's floating-point floor
            break
    if resid < 1e-6 and not (_jacobian_terms(r, cfg, terms)[0][free] < 0.0).all():
        return r_start, used, False     # an own curvature >= 0: no own maximum
    return r, used, resid < 1e-6


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
    """Every sensor's best response to r on its closed-form interval."""
    a = _Aggregates(r, cfg)
    ends = _interval_ends(a, cfg, opts.min_rate)
    return _best_responses(np.arange(cfg.n_sensors), a, cfg, opts.min_rate, ends, _COARSE_GRID,
                           lambda x: _row_utilities(a, (slice(None), None), x, cfg))[0]


def _gradient_step(r: np.ndarray, cfg: GameConfig, opts: SolverOptions) -> np.ndarray:
    g = gradient_all(r, cfg)
    upper = _interval_ends(_Aggregates(r, cfg), cfg, opts.min_rate)
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
    except InfeasibilityError:
        return None


def solve(cfg: GameConfig, opts: SolverOptions | None = None) -> EquilibriumResult:
    """Find the Nash equilibrium via the dynamics selected in `opts`.

    Non-convergence within max_iter is reported through the result's
    `converged` flag, never raised.  An infeasible initial profile raises
    InfeasibilityError; a degenerate config raises DegenerateConfig, in any method.
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
        starts = (np.full(n, opts.min_rate + 0.1) if k == 0 else
                  np.maximum(-cfg.bandwidths * np.log2(1.0 - 0.5**k / n), opts.min_rate)
                  for k in range(11))
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
    interval and the best cell is refined to its stationary point, one sensor
    at a time, so the first sensor with no feasible rate raises.  Returns the
    verdict and the worst improvement found (negative when r_star is a strict
    best response everywhere).
    """
    _check_count(grid_points, "grid_points", 2)
    _check_nonnegative(epsilon, "epsilon")
    _check_nonnegative(min_rate, "min_rate")
    r_star = np.asarray(r_star, dtype=float)
    base, a = _utilities_all(r_star, cfg), _Aggregates(r_star, cfg)
    best = [_best_responses(np.array([i]), a, cfg, min_rate,
                            np.array([_bound_search(i, a, cfg, min_rate)]), grid_points,
                            lambda x: _own_utilities(i, r_star, x.ravel(), cfg)[None])[1].item()
            for i in range(cfg.n_sensors)]
    worst = max(u - float(u0) for u, u0 in zip(best, base))   # the first of the largest
    return worst <= epsilon, worst
