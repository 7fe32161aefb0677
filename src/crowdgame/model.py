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

One arithmetic: the private kernel `_invert` maps a profile (n,) or a stack
(k, n) to powers, never raises and never evaluates gamma.  The solvers call it
directly; the public wrappers validate their input and raise the typed errors
after the kernel reports infeasibility, so every path gives the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

LN2 = math.log(2.0)

#: Feasibility margin on the load T = sum_j gamma_j/(1+gamma_j); rate vectors
#: with T >= 1 - margin are rejected (powers would blow up).
DEFAULT_FEASIBILITY_MARGIN = 1e-9

#: Power cap applied when a sensor does not specify max_received_power.
DEFAULT_POWER_CAP = 10.0

_STACK_SIZE = 1 << 16   # rates per stacked kernel call, bounding its memory

# Rate and power profiles are plain float arrays indexed by sensor id.
RateVector = np.ndarray
PowerVector = np.ndarray


class InfeasibilityError(Exception):
    """Base class for rate vectors outside the image of the power box."""


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


def _require(cond: bool, name: str, msg: str):
    if not cond:
        raise ValueError(f"{name}: {msg}")


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
    max_received_power: float = DEFAULT_POWER_CAP  # p^u_i

    def __post_init__(self):
        for name in (
            "bandwidth", "channel_gain", "ap_distance", "path_loss_exp",
            "circuit_power", "unit_rate_price", "beacon_distance",
            "max_received_power",
        ):
            _require(math.isfinite(getattr(self, name)), name, "must be finite")
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
        for name in ("quad_coeff", "lin_coeff", "const_coeff", "compute_coeff"):
            v = getattr(self, name)
            _require(math.isfinite(v), name, "must be finite")
            _require(v >= 0, name, "must be >= 0")
        _require(self.compute_coeff > 0, "compute_coeff", "must be > 0")


@dataclass
class GameConfig:
    """One game instance: the sensor list plus the shared environment.

    The per-sensor constants are mirrored into numpy arrays at construction
    so that the hot evaluation paths avoid per-call list traversal.  Treat
    instances as immutable; they are safe to share across threads.
    """

    sensors: list[SensorParams]
    noise_variance: float      # sigma^2
    power_price: float         # phi, price per unit transferred power
    wpt_path_loss_exp: float   # eta
    blockchain: BlockchainParams

    # cached per-sensor arrays (derived, excluded from comparisons)
    bandwidths: np.ndarray = field(init=False, repr=False, compare=False)
    gains: np.ndarray = field(init=False, repr=False, compare=False)
    ap_distances: np.ndarray = field(init=False, repr=False, compare=False)
    path_loss_exps: np.ndarray = field(init=False, repr=False, compare=False)
    circuit_powers: np.ndarray = field(init=False, repr=False, compare=False)
    rate_prices: np.ndarray = field(init=False, repr=False, compare=False)
    beacon_distances: np.ndarray = field(init=False, repr=False, compare=False)
    power_caps: np.ndarray = field(init=False, repr=False, compare=False)
    inv_gain_pathloss: np.ndarray = field(init=False, repr=False, compare=False)
    wpt_factors: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _require(len(self.sensors) >= 1, "sensors", "need at least one sensor")
        _require(
            math.isfinite(self.noise_variance) and self.noise_variance > 0,
            "noise_variance", "must be finite and > 0",
        )
        # eta = 0 is allowed: charging cost then ignores beacon distance
        for name in ("power_price", "wpt_path_loss_exp"):
            _require(0 <= getattr(self, name) < math.inf, name, "must be finite and >= 0")
        grab = lambda name: np.array([getattr(s, name) for s in self.sensors])
        self.bandwidths = grab("bandwidth")
        self.gains = grab("channel_gain")
        self.ap_distances = grab("ap_distance")
        self.path_loss_exps = grab("path_loss_exp")
        self.circuit_powers = grab("circuit_power")
        self.rate_prices = grab("unit_rate_price")
        self.beacon_distances = grab("beacon_distance")
        self.power_caps = grab("max_received_power")
        # d_i^alpha_i / g_i converts beta_i back to transmit power
        self.inv_gain_pathloss = self.ap_distances**self.path_loss_exps / self.gains
        # phi * (d^t_i)^eta converts received power to charging cost
        self.wpt_factors = self.power_price * self.beacon_distances**self.wpt_path_loss_exp

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
    if not 0 <= i < cfg.n_sensors:
        raise IndexError(f"sensor id {i} out of range [0, {cfg.n_sensors})")


# ---------------------------------------------------------------------------
# forward map, inverse map
# ---------------------------------------------------------------------------

def forward_rates(powers: PowerVector, cfg: GameConfig) -> RateVector:
    """Rates achieved by a received-power profile.

    Sensors at or below circuit power transmit nothing (their transmit power
    is clamped at zero), so the map stays total on the whole power box.
    """
    p = _as_profile(powers, cfg, "powers")
    beta = cfg.gains * np.maximum(p - cfg.circuit_powers, 0.0) / (
        cfg.ap_distances**cfg.path_loss_exps
    )
    interference = beta.sum() - beta + cfg.noise_variance
    return cfg.bandwidths * np.log1p(beta / interference) / LN2


def _invert(r: np.ndarray, cfg: GameConfig, margin: float = DEFAULT_FEASIBILITY_MARGIN):
    """(load, beta_sum, beta, powers, ok) of a profile (n,) or of each row of (k, n).

    `ok` is False where T >= 1 - margin, a power exceeds its cap or a rate is
    NaN; one profile with infeasible load returns None for the arrays.
    """
    t = -np.expm1(-LN2 * (r / cfg.bandwidths))  # gamma/(1+gamma), computed stably
    s2 = cfg.noise_variance
    if r.ndim == 1:
        load = float(t.sum())
        if not load < 1.0 - margin:
            return load, None, None, None, False
        beta_sum = s2 * load / (1.0 - load)
        beta = t * (beta_sum + s2)
        p = cfg.circuit_powers + beta * cfg.inv_gain_pathloss
        return load, beta_sum, beta, p, bool((p <= cfg.power_caps).all())
    load = t.sum(axis=1)
    ok = load < 1.0 - margin
    safe = np.where(ok, load, 0.0)
    beta_sum = s2 * safe / (1.0 - safe)
    beta = t * (beta_sum + s2)[:, None]
    p = cfg.circuit_powers + beta * cfg.inv_gain_pathloss
    return load, beta_sum, beta, p, ok & (p <= cfg.power_caps).all(axis=1)


def _as_rates(values, cfg: GameConfig) -> np.ndarray:
    r = _as_profile(values, cfg, "rates")
    if not np.all(np.isfinite(r)) or np.any(r < 0):
        raise ValueError("rates must be finite and >= 0")
    return r


def invert_rates(
    rates: RateVector,
    cfg: GameConfig,
    feasibility_margin: float = DEFAULT_FEASIBILITY_MARGIN,
) -> tuple[PowerVector, RateInversion]:
    """Received powers that realize a rate profile exactly.

    Closed form: the per-sensor SINRs gamma_i determine the load
    T = sum gamma_i/(1+gamma_i); the aggregate S = sigma^2*T/(1-T) then fixes
    every beta_i = (gamma_i/(1+gamma_i))*(S+sigma^2) and hence every power.
    forward_rates reproduces the input to round-trip precision.

    Raises:
        InfeasibleRates: T >= 1 - feasibility_margin, the rates lie outside
            the image of any finite power profile.
        PowerBoundExceeded: some sensor would need more than its power cap.
    """
    r = _as_rates(rates, cfg)
    load, beta_sum, beta, p, ok = _invert(r, cfg, feasibility_margin)
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
    """Power bill of the blockchain at a given total admitted rate."""
    x = bc.compute_coeff * total_rate
    return bc.quad_coeff * x * x + bc.lin_coeff * x + bc.const_coeff


def transaction_fee(i: int, rates: RateVector, cfg: GameConfig) -> float:
    """Sensor i's proportional share of the blockchain power bill.

    When the total rate is zero there is no service to bill; every share is
    zero and the fixed cost stays unallocated.
    """
    _check_sensor_id(i, cfg)
    r = _as_profile(rates, cfg, "rates")
    total = float(r.sum())
    if total <= 0.0:
        return 0.0
    return float(r[i]) / total * blockchain_power(total, cfg.blockchain)


def wpt_cost(i: int, p_i: float, cfg: GameConfig) -> float:
    """Charging cost phi * p_i * (d^t_i)^eta for sensor i."""
    _check_sensor_id(i, cfg)
    return float(cfg.wpt_factors[i]) * p_i


# ---------------------------------------------------------------------------
# utilities
# ---------------------------------------------------------------------------

def _fees_all(r: np.ndarray, cfg: GameConfig) -> np.ndarray:
    """Every sensor's fee, for one profile (n,) or each row of a stack (k, n)."""
    total = r.sum(axis=-1, keepdims=True)
    safe = np.where(total > 0.0, total, 1.0)   # a zero total has zero fees
    return r / safe * blockchain_power(safe, cfg.blockchain)


def _utilities_all(
    r: np.ndarray, cfg: GameConfig, powers: np.ndarray | None = None
) -> np.ndarray:
    """Per-sensor utilities of a profile, or of a stack given its powers."""
    if powers is None:
        powers, _ = invert_rates(r, cfg)
    return cfg.rate_prices * r - cfg.wpt_factors * powers - _fees_all(r, cfg)


def utility_rate_space(i: int, rates: RateVector, cfg: GameConfig) -> float:
    """Utility of sensor i with rates as the strategy variable.

    Equals utility_power_space evaluated at the inverted powers; infeasible
    rate profiles propagate InfeasibleRates / PowerBoundExceeded.
    """
    _check_sensor_id(i, cfg)
    return _utility(i, _as_rates(rates, cfg), cfg)


def _utility(i: int, r: np.ndarray, cfg: GameConfig) -> float:
    """utility_rate_space on a valid profile, without the validation."""
    *_, p, ok = _invert(r, cfg)
    if not ok:
        invert_rates(r, cfg)        # raises the typed error
    total = float(r.sum())
    fee = 0.0
    if total > 0.0:
        fee = float(r[i]) / total * blockchain_power(total, cfg.blockchain)
    return (float(cfg.rate_prices[i]) * float(r[i])
            - float(cfg.wpt_factors[i]) * float(p[i]) - fee)


def _utility_along(
    i: int, r: np.ndarray, grid: np.ndarray, cfg: GameConfig
) -> np.ndarray:
    """_utility at each own-rate of `grid`, the others fixed at r, stacked."""
    m = grid.size
    p, total, ok = _own_powers(r[None], np.zeros(m, dtype=int), np.full(m, i), grid, cfg)
    if not ok.all():            # raise for the first infeasible own-rate
        invert_rates(_with_entry(r, i, grid[np.argmin(ok)]), cfg)
    safe = np.where(total > 0.0, total, 1.0)   # a zero total has zero fees
    fee = grid / safe * blockchain_power(safe, cfg.blockchain)
    return cfg.rate_prices[i] * grid - cfg.wpt_factors[i] * p - fee


def utility_power_space(i: int, powers: PowerVector, cfg: GameConfig) -> float:
    """Utility of sensor i evaluated entirely in power space."""
    _check_sensor_id(i, cfg)
    p = _as_profile(powers, cfg, "powers")
    r = forward_rates(p, cfg)
    return (
        float(cfg.rate_prices[i]) * float(r[i])
        - wpt_cost(i, float(p[i]), cfg)
        - transaction_fee(i, r, cfg)
    )


# ---------------------------------------------------------------------------
# derivatives in rate space
# ---------------------------------------------------------------------------

def utility_gradient(i: int, rates: RateVector, cfg: GameConfig) -> float:
    """d u_i / d r_i by central difference (the normative implementation).

    Relative step h = max(1e-6, 1e-6 * r_i).  If a perturbed point leaves the
    feasible region the step is shrunk once by 10x before giving up.
    """
    _check_sensor_id(i, cfg)
    r = _as_profile(rates, cfg, "rates")
    if r[i] <= 0.0:
        raise ValueError("utility_gradient needs a strictly interior r_i > 0")
    h = max(1e-6, 1e-6 * float(r[i]))
    if r[i] - h < 0.0:
        h = 0.5 * float(r[i])
    for attempt in range(2):
        try:
            up = utility_rate_space(i, _with_entry(r, i, r[i] + h), cfg)
            dn = utility_rate_space(i, _with_entry(r, i, r[i] - h), cfg)
            return (up - dn) / (2.0 * h)
        except InfeasibilityError:
            if attempt == 1:
                raise
            h *= 0.1
    raise AssertionError("unreachable")


def utility_gradient_analytic(i: int, rates: RateVector, cfg: GameConfig) -> float:
    """Closed-form d u_i / d r_i from the SINR decomposition.

    Optional accelerator; must agree with utility_gradient to 1e-5 relative
    (enforced by the test suite).
    """
    _check_sensor_id(i, cfg)
    r = _as_profile(rates, cfg, "rates")
    return float(gradient_all(r, cfg)[i])


def gradient_all(r: np.ndarray, cfg: GameConfig) -> np.ndarray:
    """Analytic gradients d u_i / d r_i for every sensor at once."""
    x = r / cfg.bandwidths
    z = np.exp2(-x)                 # 2^(-r/b)
    t = 1.0 - z
    load = float(t.sum())
    if load >= 1.0 - DEFAULT_FEASIBILITY_MARGIN:
        raise InfeasibleRates(load)
    eps = 1.0 - load
    tp = (LN2 / cfg.bandwidths) * z     # dt/dr
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


def utility_second_derivative(i: int, rates: RateVector, cfg: GameConfig) -> float:
    """d^2 u_i / d r_i^2 at an interior rate profile.

    The charging-cost term is evaluated by a second central difference of the
    inverted power p_i(r_i); the fee term has the closed form
    -2*a*m^2 + 2*c*sum_{j != i} r_j / (sum_j r_j)^3.
    """
    _check_sensor_id(i, cfg)
    r = _as_profile(rates, cfg, "rates")
    if r[i] <= 0.0:
        raise ValueError(
            "utility_second_derivative needs a strictly interior r_i > 0"
        )
    invert_rates(r, cfg)        # validates, and raises if r is infeasible
    d2u, ok, h = _second_derivatives(r[None], cfg, np.array([i]))
    if not ok[0, 0]:            # both steps left the region: raise for the last
        invert_rates(_with_entry(r, i, r[i] + h[0, 0]), cfg)
        invert_rates(_with_entry(r, i, r[i] - h[0, 0]), cfg)
    return float(d2u[0, 0])


def _second_derivatives(R: np.ndarray, cfg: GameConfig, sensors: np.ndarray):
    """utility_second_derivative of each of `sensors` at every row of R (k, n).

    Returns (d2u, ok, h), each (k, len(sensors)), and never raises: ok is
    False where r_i <= 0, the row is infeasible, or its +-h rows are still
    infeasible after the retry at h/10 (h is then that last step).
    """
    k, m = R.shape[0], sensors.size
    rows, own = np.repeat(np.arange(k), m), np.tile(sensors, k)
    x = R[rows, own]
    h = np.maximum(1e-4, 1e-4 * x)
    h = np.where(x - h < 0.0, 0.5 * x, h)
    p0, rho, todo = _own_powers(R, rows, own, x, cfg)
    todo &= x > 0.0
    ok = todo.copy()
    d2p = np.zeros(x.size)
    for shrink in (1.0, 0.1):   # step h, then h/10 where a +-h row is infeasible
        h[todo] *= shrink
        q = np.nonzero(todo)[0]
        pp, _, ok_p = _own_powers(R, rows[q], own[q], x[q] + h[q], cfg)
        pm, _, ok_m = _own_powers(R, rows[q], own[q], x[q] - h[q], cfg)
        good = ok_p & ok_m
        q = q[good]
        d2p[q] = (pp[good] - 2.0 * p0[q] + pm[good]) / (h[q] * h[q])
        todo[q] = False
    ok &= ~todo
    bc = cfg.blockchain
    am2 = bc.quad_coeff * bc.compute_coeff**2
    rho = rho[ok]
    rho3 = np.array([v**3 for v in rho.tolist()])   # Python's pow; numpy's cube differs
    fee_term = -2.0 * am2 + 2.0 * bc.const_coeff * (rho - x[ok]) / rho3
    d2u = np.full(x.size, np.nan)
    d2u[ok] = -cfg.wpt_factors[own[ok]] * d2p[ok] + fee_term
    return d2u.reshape(k, m), ok.reshape(k, m), h.reshape(k, m)


def _own_powers(R, rows, own, x, cfg: GameConfig):
    """p_i, total rate and feasibility of each profile R[rows[q]] with its
    entry i = own[q] set to x[q], inverted in stacks of at most _STACK_SIZE rates."""
    p, total, ok = np.empty(x.size), np.empty(x.size), np.empty(x.size, dtype=bool)
    step = max(1, _STACK_SIZE // R.shape[1])
    for s in range(0, x.size, step):
        q = np.arange(s, min(s + step, x.size))
        Q = R[rows[q]]
        Q[q - s, own[q]] = x[q]
        *_, P, ok[q] = _invert(Q, cfg)
        p[q], total[q] = P[q - s, own[q]], Q.sum(axis=1)
    return p, total, ok


def _with_entry(r: np.ndarray, i: int, value: float) -> np.ndarray:
    out = r.copy()
    out[i] = value
    return out
