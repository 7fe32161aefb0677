"""Domain types and closed-form evaluations for the sensor data-trading game.

A cloud of RF-powered sensors shares an uplink to a single access point.
Sensor i receives wireless power p_i, spends a fixed circuit power c_i, and
transmits with the remainder.  Its achievable rate is the interference-coupled
Shannon map

    r_i = b_i * log2(1 + beta_i / (sum_{j != i} beta_j + sigma^2)),
    beta_i = g_i * max(p_i - c_i, 0) / d_i^alpha_i.

The map is injective on the feasible power box, so rates can be used as the
strategy variable.  The constructive inverse works through the SINR
decomposition: with gamma_i = 2^(r_i/b_i) - 1 and t_i = gamma_i/(1+gamma_i),

    T = sum_j t_j  (must stay below 1),
    S = sigma^2 * T / (1 - T),
    beta_i = t_i * (S + sigma^2),
    p_i = c_i + beta_i * d_i^alpha_i / g_i.

Sensors earn lambda_i per unit rate, pay phi * p_i * (d^t_i)^eta for the
wireless power transfer, and proportionally share the blockchain's quadratic
power bill a*(m*R)^2 + b*(m*R) + c, where R is the total admitted rate.

Everything in this module is a pure function of its arguments; GameConfig is
treated as immutable after construction.

One arithmetic: `_sinr` is the one body of S, beta and p.  The private kernel
`_invert` maps a profile (n,) or a stack (k, n) to powers by it, never raising
or evaluating gamma.  The solvers call it directly; the public wrappers check
input and raise the typed errors on its verdict: the same bits on every path.

One formula per quantity: the fee (`_fee`), the utility (`_own_utility`) and
the own gradient (`_own_gradient`) each have one body, taking a sensor
selector (one sensor, an index array or slice(None)) and the own column's
inputs, Python floats for one sensor and arrays for a profile or a stack.
Every evaluation calls it, the power-space utility too.  The one exception is
`equilibrium._stationary_estimate`'s scalar Newton: NumPy made it 9x slower at n = 10.

A full-profile own row copies the profile with one entry replaced and
evaluates it whole (`_own_utilities` by `_invert`, `_own_gradients` by
`_terms`); an aggregate row (`_row_powers`, `_row_utilities`) costs O(1),
reading T_-i, R_-i and the largest other cap term from one `_Aggregates`.
The two differ only in how `_sinr`'s T is summed and agree to its rounding.
Every own-rate search reads its caller's evaluation, on the rows its caller
names.  The derivatives read one `_terms` evaluation, the one array formula
of 2^(-r/b), which a Newton iterate carries to its Jacobian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

LN2 = math.log(2.0)

#: Feasibility margin on the load T = sum_j gamma_j/(1+gamma_j); rate vectors
#: with T >= 1 - margin are rejected (powers would blow up).
DEFAULT_FEASIBILITY_MARGIN = 1e-9

_STACK_SIZE = 1 << 16   # rates per stacked kernel call, bounding its memory

# Rate and power profiles are plain float arrays indexed by sensor id.
RateVector = np.ndarray
PowerVector = np.ndarray


class InfeasibilityError(Exception):
    """Base class for rate vectors outside the image of the power box, and
    for a sensor with no feasible own rate (equilibrium.EmptyFeasibleInterval)."""


class InfeasibleRates(InfeasibilityError):
    """Requested rates need load T >= 1; no finite powers achieve them."""

    def __init__(self, load: float):
        super().__init__(f"rate vector infeasible: load T={load!r} >= 1")
        self.load = load


class PowerBoundExceeded(InfeasibilityError):
    """Inverting the rates pushes some sensor past its power cap."""

    def __init__(self, sensor: int, power: float, cap: float):
        super().__init__(
            f"sensor {sensor}: required power {power!r} exceeds cap {cap!r}"
        )
        self.sensor = sensor
        self.power = power
        self.cap = cap


_NOT_BOOL = "must be a number, not a bool"


def _require(cond: bool, name: str, msg: str):
    if not cond:
        raise ValueError(f"{name}: {msg}")


def _check_nonnegative(value: float, name: str):
    _require(not isinstance(value, (bool, np.bool_)), name, _NOT_BOOL)
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and >= 0")


def _check_count(value, name: str, least: int):
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}")


@dataclass(frozen=True)
class SensorParams:
    """Physical and economic constants of one sensor."""

    bandwidth: float          # b_i, uplink bandwidth
    channel_gain: float       # g_i
    ap_distance: float        # d_i, sensor to access point
    path_loss_exp: float      # alpha_i, uplink path-loss exponent
    circuit_power: float      # c_i, fixed sensing/circuit drain
    unit_rate_price: float    # lambda_i, revenue per unit rate
    beacon_distance: float    # d^t_i, sensor to RF-energy beacon
    max_received_power: float = 10.0   # p^u_i, the cap where none is given

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            _require(not isinstance(v, (bool, np.bool_)), f.name, _NOT_BOOL)
            _require(math.isfinite(v), f.name, "must be finite")
        _require(self.bandwidth > 0, "bandwidth", "must be > 0")
        _require(self.channel_gain > 0, "channel_gain", "must be > 0")
        _require(self.ap_distance > 0, "ap_distance", "must be > 0")
        _require(self.path_loss_exp > 0, "path_loss_exp", "must be > 0")
        _require(self.beacon_distance > 0, "beacon_distance", "must be > 0")
        _require(self.circuit_power >= 0, "circuit_power", "must be >= 0")
        _require(self.unit_rate_price >= 0, "unit_rate_price", "must be >= 0")
        _require(
            self.max_received_power >= self.circuit_power,
            "max_received_power",
            "must be >= circuit_power (sensor could never transmit)",
        )


@dataclass(frozen=True)
class BlockchainParams:
    """Coefficients of the blockchain power bill a*(m*R)^2 + b*(m*R) + c."""

    quad_coeff: float      # a
    lin_coeff: float       # b
    const_coeff: float     # c
    compute_coeff: float   # m, computational power per unit rate

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            _require(not isinstance(v, (bool, np.bool_)), f.name, _NOT_BOOL)
            _require(math.isfinite(v), f.name, "must be finite")
            _require(v >= 0, f.name, "must be >= 0")
        _require(self.compute_coeff > 0, "compute_coeff", "must be > 0")
        m = self.compute_coeff
        _require(math.isfinite(m * m), "compute_coeff", "m^2 overflows")
        _require(math.isfinite(self.quad_coeff * (m * m)), "quad_coeff", "a*m^2 overflows")
        _require(math.isfinite(self.lin_coeff * m), "lin_coeff", "b*m overflows")
        _require(math.isfinite(_bill(1.0, self)), "compute_coeff",
                 "the bill at total rate 1 overflows")

    @property
    def concavity_margin(self) -> float:
        """a*m^2 - c; the game is concave in each own rate when it is >= 0."""
        return self.quad_coeff * self.compute_coeff**2 - self.const_coeff


@dataclass
class GameConfig:
    """One game instance: the sensor list plus the shared environment.

    The per-sensor constants the kernels read are mirrored into numpy arrays
    at construction, d^alpha/g as one array for both directions of the rate
    map.  Treat instances as immutable; they are safe to share across threads.
    """

    sensors: list[SensorParams]
    noise_variance: float      # sigma^2
    power_price: float         # phi, price per unit transferred power
    wpt_path_loss_exp: float   # eta
    blockchain: BlockchainParams

    # cached per-sensor arrays (derived, excluded from comparisons)
    bandwidths: np.ndarray = field(init=False, repr=False, compare=False)
    circuit_powers: np.ndarray = field(init=False, repr=False, compare=False)
    rate_prices: np.ndarray = field(init=False, repr=False, compare=False)
    power_caps: np.ndarray = field(init=False, repr=False, compare=False)
    power_rooms: np.ndarray = field(init=False, repr=False, compare=False)
    inv_gain_pathloss: np.ndarray = field(init=False, repr=False, compare=False)
    wpt_factors: np.ndarray = field(init=False, repr=False, compare=False)
    ln2_per_bandwidth: np.ndarray = field(init=False, repr=False, compare=False)
    beta_cost_factors: np.ndarray = field(init=False, repr=False, compare=False)
    noise_pathloss: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _require(len(self.sensors) >= 1, "sensors", "need at least one sensor")
        for name in ("noise_variance", "power_price", "wpt_path_loss_exp"):
            _require(not isinstance(getattr(self, name), (bool, np.bool_)), name, _NOT_BOOL)
        _require(
            math.isfinite(self.noise_variance) and self.noise_variance > 0,
            "noise_variance", "must be finite and > 0",
        )
        # eta = 0 is allowed: charging cost then ignores beacon distance
        for name in ("power_price", "wpt_path_loss_exp"):
            _require(0 <= getattr(self, name) < math.inf, name, "must be finite and >= 0")
        grab = lambda name: np.array([getattr(s, name) for s in self.sensors], dtype=float)
        self.bandwidths = grab("bandwidth")
        self.circuit_powers = grab("circuit_power")
        self.rate_prices = grab("unit_rate_price")
        self.power_caps = grab("max_received_power")
        self.power_rooms = self.power_caps - self.circuit_powers
        with np.errstate(over="ignore", invalid="ignore"):     # checked below
            # d_i^alpha_i / g_i converts beta_i back to transmit power
            self.inv_gain_pathloss = (grab("ap_distance")**grab("path_loss_exp")
                                      / grab("channel_gain"))
            # phi * (d^t_i)^eta converts received power to charging cost
            self.wpt_factors = self.power_price * grab("beacon_distance")**self.wpt_path_loss_exp
            # dt_i/dr_i = ln2/b_i * 2^(-r_i/b_i), and the charging cost per unit beta_i
            self.ln2_per_bandwidth = LN2 / self.bandwidths
            self.beta_cost_factors = self.wpt_factors * self.inv_gain_pathloss
            self.noise_pathloss = self.noise_variance * self.inv_gain_pathloss    # of cap terms
        inv, wpt = ("ap_distance**path_loss_exp / channel_gain",
                    "power_price * beacon_distance**wpt_path_loss_exp")
        for name, formula in (("inv_gain_pathloss", inv), ("wpt_factors", wpt),
                              ("beta_cost_factors", f"{wpt} * {inv}"),
                              ("ln2_per_bandwidth", "ln2 / bandwidth")):
            finite = np.isfinite(getattr(self, name))
            _require(finite.all(), f"sensors[{np.argmin(finite)}]", f"{formula} is not finite")

    @property
    def n_sensors(self) -> int:
        return len(self.sensors)


@dataclass(frozen=True)
class RateInversion:
    """SINR decomposition produced while inverting the rate map.

    gamma[i] = 2^(r_i/b_i) - 1 is the per-sensor SINR, beta[i] the received
    interference-normalized power, beta_sum their total S, and load the
    feasibility load T = sum_j gamma_j/(1+gamma_j) which must stay below 1.
    """

    gamma: np.ndarray
    beta: np.ndarray
    beta_sum: float
    load: float


@dataclass
class EquilibriumResult:
    """Converged (or best-effort) strategy profile with per-sensor accounts."""

    rates: np.ndarray
    powers: np.ndarray
    utilities: np.ndarray
    fees: np.ndarray
    fee_shares: np.ndarray
    iterations: int
    converged: bool
    residual: float
    trace: np.ndarray  # iterate history, shape (k, n_sensors), trace[0] = init


def _as_profile(values, cfg: GameConfig, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.shape != (cfg.n_sensors,):
        raise ValueError(
            f"{name} has shape {arr.shape}, expected ({cfg.n_sensors},)"
        )
    return arr


def _check_sensor_id(i: int, cfg: GameConfig):
    if isinstance(i, bool) or not isinstance(i, (int, np.integer)):
        raise TypeError(f"sensor id {i!r} is not an integer")
    if not 0 <= i < cfg.n_sensors:
        raise IndexError(f"sensor id {i} out of range [0, {cfg.n_sensors})")


# ---------------------------------------------------------------------------
# forward map, inverse map
# ---------------------------------------------------------------------------

def forward_rates(powers: PowerVector, cfg: GameConfig) -> RateVector:
    """Rates achieved by a received-power profile.

    Sensors at or below circuit power transmit nothing (their transmit power
    is clamped at zero), so the map stays total on the whole power box.
    Non-finite powers, and powers that overflow the map, raise ValueError.
    """
    p = _as_profile(powers, cfg, "powers")
    with np.errstate(all="ignore"):     # a zero d^alpha/g divides by zero
        beta = np.maximum(p - cfg.circuit_powers, 0.0) / cfg.inv_gain_pathloss
        interference = beta.sum() - beta + cfg.noise_variance
        r = cfg.bandwidths * np.log1p(beta / interference) / LN2
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(r))):
        raise ValueError("powers must be finite and give finite rates")
    return r


def _load_shares(r, b):
    """t = gamma/(1+gamma) = 1 - 2^(-r/b) of rates r on bandwidths b, computed stably."""
    return -np.expm1(-LN2 * (r / b))


def _invert(r: np.ndarray, cfg: GameConfig):
    """(load, beta_sum, beta, powers, ok) of a profile (n,) or of each row of (k, n).

    `ok` is False where T >= 1 - DEFAULT_FEASIBILITY_MARGIN, a power exceeds its
    cap or a rate is NaN; one profile with infeasible load returns None for the arrays.
    """
    t = _load_shares(r, cfg.bandwidths)
    c, k, s2 = cfg.circuit_powers, cfg.inv_gain_pathloss, cfg.noise_variance
    if r.ndim == 1:
        load = float(t.sum())
        if not load < 1.0 - DEFAULT_FEASIBILITY_MARGIN:
            return load, None, None, None, False
        beta_sum, beta, p = _sinr(t, load, c, k, s2)
        return load, beta_sum, beta, p, bool((p <= cfg.power_caps).all())
    load = t.sum(axis=1)
    ok = load < 1.0 - DEFAULT_FEASIBILITY_MARGIN
    beta_sum, beta, p = _sinr(t, np.where(ok, load, 0.0)[:, None], c, k, s2)
    return load, beta_sum[:, 0], beta, p, ok & (p <= cfg.power_caps).all(axis=1)


def _sinr(t, load, c, k, s2):
    """The module docstring's (S, beta, p) at shares t, load T, k = d^alpha/g, s2 = sigma^2."""
    beta_sum = s2 * load / (1.0 - load)
    beta = t * (beta_sum + s2)
    return beta_sum, beta, c + beta * k


def _as_rates(values, cfg: GameConfig) -> np.ndarray:
    r = _as_profile(values, cfg, "rates")
    if not np.all(np.isfinite(r)) or np.any(r < 0):
        raise ValueError("rates must be finite and >= 0")
    return r


def invert_rates(rates: RateVector, cfg: GameConfig) -> tuple[PowerVector, RateInversion]:
    """Received powers that realize a rate profile exactly.

    Closed form: the per-sensor SINRs gamma_i determine the load
    T = sum gamma_i/(1+gamma_i); the aggregate S = sigma^2*T/(1-T) then fixes
    every beta_i = (gamma_i/(1+gamma_i))*(S+sigma^2) and hence every power.
    forward_rates reproduces the input to round-trip precision.

    Raises:
        InfeasibleRates: T >= 1 - DEFAULT_FEASIBILITY_MARGIN, the rates lie
            outside the image of any finite power profile.
        PowerBoundExceeded: some sensor would need more than its power cap.
    """
    r = _as_rates(rates, cfg)
    load, beta_sum, beta, p, ok = _invert(r, cfg)
    if p is None:
        raise InfeasibleRates(load)
    if not ok:
        i = int(np.nonzero(p > cfg.power_caps)[0][0])
        raise PowerBoundExceeded(i, float(p[i]), float(cfg.power_caps[i]))
    gamma = np.expm1(LN2 * (r / cfg.bandwidths))
    return p, RateInversion(gamma=gamma, beta=beta, beta_sum=beta_sum, load=load)


# ---------------------------------------------------------------------------
# blockchain cost sharing, charging cost
# ---------------------------------------------------------------------------

def blockchain_power(total_rate: float, bc: BlockchainParams) -> float:
    """Power bill of the blockchain at a total admitted rate, finite and >= 0."""
    _check_nonnegative(total_rate, "total_rate")
    return _bill(total_rate, bc)


def _bill(total_rate, bc: BlockchainParams):
    """blockchain_power of a float or of each entry of an array, unchecked."""
    x = bc.compute_coeff * total_rate
    return bc.quad_coeff * x * x + bc.lin_coeff * x + bc.const_coeff


def transaction_fee(i: int, rates: RateVector, cfg: GameConfig) -> float:
    """Sensor i's proportional share of the blockchain power bill.

    When the total rate is zero there is no service to bill; every share is
    zero and the fixed cost stays unallocated.  Rates that are not finite
    and >= 0 raise ValueError.
    """
    _check_sensor_id(i, cfg)
    r = _as_rates(rates, cfg)
    return _fee(float(r[i]), float(r.sum()), cfg)


def _fee(own, total, cfg: GameConfig):
    """own/total of the blockchain bill; 0 at a zero total, whose rates are all 0."""
    safe = _where(total > 0.0, total, 1.0)
    return own / safe * _bill(safe, cfg.blockchain)


def wpt_cost(i: int, p_i: float, cfg: GameConfig) -> float:
    """Charging cost phi * p_i * (d^t_i)^eta for sensor i, p_i finite and >= 0."""
    _check_sensor_id(i, cfg)
    _check_nonnegative(p_i, "p_i")
    return float(cfg.wpt_factors[i]) * p_i


# ---------------------------------------------------------------------------
# utilities
# ---------------------------------------------------------------------------

def _fees_all(r: np.ndarray, cfg: GameConfig) -> np.ndarray:
    """Every sensor's fee, for one profile (n,) or each row of a stack (k, n)."""
    return _fee(r, r.sum(axis=-1, keepdims=True), cfg)


def _utilities_all(
    r: np.ndarray, cfg: GameConfig, powers: np.ndarray | None = None
) -> np.ndarray:
    """Per-sensor utilities of a profile, or of a stack given its powers."""
    if powers is None:
        powers, _ = invert_rates(r, cfg)
    return _own_utility(slice(None), r, powers, r.sum(axis=-1, keepdims=True), cfg)


def utility_rate_space(i: int, rates: RateVector, cfg: GameConfig) -> float:
    """Utility of sensor i with rates as the strategy variable.

    Equals utility_power_space evaluated at the inverted powers; infeasible
    rate profiles propagate InfeasibleRates / PowerBoundExceeded.
    """
    _check_sensor_id(i, cfg)
    r = _as_rates(rates, cfg)
    *_, p, ok = _invert(r, cfg)
    if not ok:
        invert_rates(r, cfg)        # raises the typed error
    return float(_own_utility(i, float(r[i]), float(p[i]), float(r.sum()), cfg))


def _own_utility(j, x, p, total, cfg: GameConfig):
    """lambda x - phi (d^t)^eta p - fee of the sensors j at own rate x, own power
    p and total rate; j is one sensor, an index array or slice(None)."""
    return cfg.rate_prices[j] * x - cfg.wpt_factors[j] * p - _fee(x, total, cfg)


def _utility_along(
    i: int, r: np.ndarray, grid: np.ndarray, cfg: GameConfig
) -> np.ndarray:
    """utility_rate_space at each own-rate of `grid`, the others fixed at r, stacked."""
    u = _own_utilities(i, r, grid, cfg)
    bad = np.isnan(u)
    if bad.any():               # raise for the first infeasible own-rate
        invert_rates(_with_entry(r, i, grid[np.argmax(bad)]), cfg)
    return u


def _own_utilities(i: int, r: np.ndarray, x: np.ndarray, cfg: GameConfig) -> np.ndarray:
    """utility_rate_space of sensor i at each own-rate x[q], the others fixed
    at r, on full-profile rows; NaN where it would raise.  Never raises."""
    u = np.empty(x.size)
    for q, Q in _own_rows(r, i, x):
        *_, p, ok = _invert(Q, cfg)
        u[q] = np.where(ok, _own_utility(i, x[q], p[:, i], Q.sum(axis=1), cfg), np.nan)
    return u


class _Aggregates:
    """One evaluation of a fixed profile r for its own rows: along its own
    rate, sensor i's load, power, verdict and total depend on the others only
    through T_-i, R_-i and the largest other cap term.  Sensor j's cap term
    t_j kappa_j s2/(cap_j - c_j) is <= 1 - T exactly where p_j <= cap_j; it is
    infinite where cap_j = c_j and t_j > 0.  r is finite and >= 0, as the API
    edge checks; the largest other cap term is made when first read."""

    def __init__(self, r: np.ndarray, cfg: GameConfig):
        self.r = r
        self.t = t = _load_shares(r, cfg.bandwidths)
        load, total = float(t.sum()), float(r.sum())    # T, R
        self.load_others, self.total_others = load - t, total - r   # T_-i, R_-i
        self.cap_terms = np.divide(t * cfg.noise_pathloss, cfg.power_rooms,
                                   out=np.where(t > 0.0, np.inf, 0.0), where=cfg.power_rooms > 0.0)

    @cached_property
    def cap_others(self) -> np.ndarray:
        """The largest cap term of the sensors j != i, for each i."""
        caps = self.cap_terms.copy()
        first = caps.argmax()
        out = np.full(caps.size, caps[first])
        caps[first] = -np.inf
        out[first] = caps[caps.argmax()]        # -inf for one sensor
        return out


def _row_powers(a: _Aggregates, i, x: np.ndarray, cfg: GameConfig):
    """(p, ok, total) of the rows of the profile a.r with entry i set to x, in
    O(1) a row: sensor i's power by _sinr on the load T_-i + t(x),
    the verdict of _invert (the load, i's cap and the largest other cap term)
    and the total rate.  i indexes the per-sensor arrays so that the result
    broadcasts against x: one sensor, an index array, or (slice(None), None)
    for x of shape (n, k).  A row of NaN rates is infeasible.  Never raises."""
    t = _load_shares(x, cfg.bandwidths[i])
    load = a.load_others[i] + t
    ok = load < 1.0 - DEFAULT_FEASIBILITY_MARGIN
    safe = np.where(ok, load, 0.0)
    _, _, p = _sinr(t, safe, cfg.circuit_powers[i], cfg.inv_gain_pathloss[i], cfg.noise_variance)
    ok &= (p <= cfg.power_caps[i]) & (a.cap_others[i] <= 1.0 - safe)
    return p, ok, a.total_others[i] + x


def _row_utilities(a: _Aggregates, i, x: np.ndarray, cfg: GameConfig) -> np.ndarray:
    """utility_rate_space on the rows of _row_powers; NaN where infeasible."""
    p, ok, total = _row_powers(a, i, x, cfg)
    return np.where(ok, _own_utility(i, x, p, total, cfg), np.nan)


def utility_power_space(i: int, powers: PowerVector, cfg: GameConfig) -> float:
    """Utility of sensor i evaluated entirely in power space."""
    _check_sensor_id(i, cfg)
    p = _as_profile(powers, cfg, "powers")
    r = forward_rates(p, cfg)
    return float(_own_utility(i, float(r[i]), float(p[i]), float(r.sum()), cfg))


# ---------------------------------------------------------------------------
# derivatives in rate space
# ---------------------------------------------------------------------------

def utility_gradient_analytic(i: int, rates: RateVector, cfg: GameConfig) -> float:
    """Closed-form d u_i / d r_i from the SINR decomposition.

    Must agree with the central difference oracle.utility_gradient to 1e-5
    relative (enforced by the test suite).
    """
    _check_sensor_id(i, cfg)
    return float(gradient_all(_as_rates(rates, cfg), cfg)[i])


def gradient_all(r: np.ndarray, cfg: GameConfig) -> np.ndarray:
    """Analytic gradients d u_i / d r_i for every sensor at once."""
    return _gradient(r, _terms(r, cfg), cfg)


def _gradient(r: np.ndarray, terms, cfg: GameConfig) -> np.ndarray:
    """gradient_all at a profile r from its _terms, raising as it does."""
    z, t, load, eps, rho = terms
    if load >= 1.0 - DEFAULT_FEASIBILITY_MARGIN:
        raise InfeasibleRates(load)
    return _own_gradient(slice(None), r, z, t, eps, rho, cfg)


def _terms(R: np.ndarray, cfg: GameConfig):
    """(z, t, T, eps, rho) of a profile (n,) or of each row of a stack (k, n):
    z = 2^(-r/b), t = 1 - z, the load T, its margin eps = 1 - T and the total
    rate rho, the last three floats for a profile and (k, 1) columns for a
    stack.  The derivatives read these; a Newton iterate is evaluated once."""
    z = np.exp2(-(R / cfg.bandwidths))
    t = 1.0 - z
    if R.ndim == 1:
        load = float(t.sum())
        return z, t, load, 1.0 - load, float(R.sum())
    load = t.sum(axis=1, keepdims=True)
    return z, t, load, 1.0 - load, R.sum(axis=1, keepdims=True)


def _own_gradient(j, x, z, t, eps, total, cfg: GameConfig):
    """d u / d r_own of the sensors j at own rate x, from z = 2^(-x/b), t = 1 - z,
    the load margin eps = 1 - T and the total rate; j as for _own_utility."""
    tp = cfg.ln2_per_bandwidth[j] * z     # dt/dr
    dbeta = cfg.noise_variance * tp * (eps + t) / (eps * eps)
    dpower_cost = cfg.beta_cost_factors[j] * dbeta
    bc = cfg.blockchain
    am2 = bc.quad_coeff * bc.compute_coeff**2
    billed = total > 0.0
    rho = _where(billed, total, 1.0)       # a zero total has no fees
    dfee = (
        am2 * rho
        + bc.lin_coeff * bc.compute_coeff
        + bc.const_coeff / rho
        + x * (am2 - bc.const_coeff / _pow(rho, 2))
    )
    return cfg.rate_prices[j] - dpower_cost - _where(billed, dfee, 0.0)


def _own_gradients(i: int, r: np.ndarray, x: np.ndarray, cfg: GameConfig) -> np.ndarray:
    """gradient_all(r, cfg)[i] with r_i = x[q], the others fixed at r, on
    full-profile rows; NaN where gradient_all raises.  Never raises."""
    g = np.empty(x.size)
    for q, Q in _own_rows(r, i, x):
        z, t, load, eps, rho = _terms(Q, cfg)
        ok = load[:, 0] < 1.0 - DEFAULT_FEASIBILITY_MARGIN
        eps = np.where(ok, eps[:, 0], 1.0)
        g[q] = np.where(ok, _own_gradient(i, x[q], z[:, i], t[:, i], eps, rho[:, 0], cfg), np.nan)
    return g


def utility_second_derivative(i: int, rates: RateVector, cfg: GameConfig) -> float:
    """d^2 u_i / d r_i^2 at an interior rate profile, in closed form: the
    diagonal of the pseudo-gradient Jacobian (_jacobian_terms).

    Raises ValueError where r_i <= 0 or a rate is not finite and >= 0, and
    InfeasibleRates or PowerBoundExceeded where the profile is infeasible.
    """
    _check_sensor_id(i, cfg)
    r = _as_profile(rates, cfg, "rates")
    if r[i] <= 0.0:
        raise ValueError(
            "utility_second_derivative needs a strictly interior r_i > 0"
        )
    invert_rates(r, cfg)        # validates, and raises if r is infeasible
    return float(_curvatures(r, cfg)[i])


def _curvatures(R: np.ndarray, cfg: GameConfig) -> np.ndarray:
    """d^2 u_i / d r_i^2 of every sensor at a feasible profile (n,) or at each
    row of a stack (k, n)."""
    return _jacobian_terms(R, cfg)[0]


def _jacobian_terms(R: np.ndarray, cfg: GameConfig, terms=None):
    """(d2u, a, tp, c, row) of the pseudo-gradient Jacobian H[i, j] =
    d(du_i/dr_i)/dr_j at a feasible profile (n,) or at each row of (k, n),
    from its _terms (evaluated here where not given): H[i, i] = d2u_i and,
    off the diagonal, H[i, j] = -a_i tp_j c_i - row_i.  The fee terms are 0
    at a zero total, as in _own_gradient.  Powers of eps and rho go through
    _pow, so a profile and each row of a stack give the same floats."""
    z, t, _, eps, rho = _terms(R, cfg) if terms is None else terms
    billed = rho > 0.0
    rho = _where(billed, rho, 1.0)
    e2, rho2 = _pow(eps, 2), _pow(rho, 2)
    lb = cfg.ln2_per_bandwidth
    tp, tpp = lb * z, -(lb**2) * z          # dt/dr, d^2t/dr^2
    ks2 = cfg.beta_cost_factors * cfg.noise_variance
    te = t + eps
    big = 2.0 * te / _pow(eps, 3)
    d2p = ks2 * (tpp * te / e2 + tp * tp * big)     # of the charging cost
    bc = cfg.blockchain
    am2 = bc.quad_coeff * bc.compute_coeff**2
    row = _where(billed, am2 - bc.const_coeff / rho2 + 2.0 * bc.const_coeff * R / _pow(rho, 3),
                 np.zeros_like(R))
    d2u = -d2p - _where(billed, row + am2 - bc.const_coeff / rho2, 0.0)
    return d2u, ks2 * tp, tp, big - 1.0 / e2, row


def _pow(a, k: int):
    """a**k by Python's pow, of a float or each entry; numpy's power can round apart."""
    if isinstance(a, float):
        return a**k
    return np.array([v**k for v in a.ravel().tolist()]).reshape(a.shape)


def _where(cond, a, b):
    """np.where, or an if on a Python bool: NumPy's scalars are slower."""
    return (a if cond else b) if isinstance(cond, bool) else np.where(cond, a, b)


def _own_rows(r: np.ndarray, i: int, x: np.ndarray):
    """Chunks (q, Q) of the profiles r with entry i set to x[q], at most
    _STACK_SIZE rates each."""
    step = max(1, _STACK_SIZE // r.size)
    for s in range(0, x.size, step):
        q = slice(s, min(s + step, x.size))
        Q = np.repeat(r[None], q.stop - s, axis=0)
        Q[:, i] = x[q]
        yield q, Q


def _with_entry(r: np.ndarray, i: int, value: float) -> np.ndarray:
    out = r.copy()
    out[i] = value
    return out
