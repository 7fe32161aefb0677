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
from dataclasses import dataclass, field, fields

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


_NOT_BOOL = "must be a number, not a bool"


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

    @property
    def concavity_margin(self) -> float:
        """a*m^2 - c; the game is concave in each own rate when it is >= 0."""
        return self.quad_coeff * self.compute_coeff**2 - self.const_coeff


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
    u = _own_utilities(i, r, grid, cfg)
    bad = np.isnan(u)
    if bad.any():               # raise for the first infeasible own-rate
        invert_rates(_with_entry(r, i, grid[np.argmax(bad)]), cfg)
    return u


def _own_utilities(i: int, r: np.ndarray, x: np.ndarray, cfg: GameConfig) -> np.ndarray:
    """_utility of sensor i at each own-rate x[q], the others fixed at r;
    NaN where _utility would raise.  Never raises."""
    u = np.empty(x.size)
    for q, Q in _own_rows(r, i, x):
        *_, p, ok = _invert(Q, cfg)
        total = Q.sum(axis=1)
        safe = np.where(total > 0.0, total, 1.0)   # a zero total has zero fees
        fee = x[q] / safe * blockchain_power(safe, cfg.blockchain)
        u[q] = np.where(ok, cfg.rate_prices[i] * x[q] - cfg.wpt_factors[i] * p[:, i] - fee,
                        np.nan)
    return u


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
    return float(gradient_all(_as_profile(rates, cfg, "rates"), cfg)[i])


def gradient_all(r: np.ndarray, cfg: GameConfig) -> np.ndarray:
    """Analytic gradients d u_i / d r_i for every sensor at once."""
    return _gradient(r, cfg)


def _gradient(r: np.ndarray, cfg: GameConfig) -> np.ndarray:
    """d u_i / d r_i of every sensor; each sum runs over the whole profile."""
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
    dfee = 0.0
    if rho > 0.0:
        dfee = (
            am2 * rho
            + bc.lin_coeff * bc.compute_coeff
            + bc.const_coeff / rho
            + r * (am2 - bc.const_coeff / rho**2)
        )
    return cfg.rate_prices - dpower_cost - dfee


def _own_gradients(i: int, r: np.ndarray, x: np.ndarray, cfg: GameConfig) -> np.ndarray:
    """gradient_all(r, cfg)[i] with r_i = x[q], the others fixed at r; NaN
    where gradient_all raises.  Never raises."""
    g = np.empty(x.size)
    bc = cfg.blockchain
    am2 = bc.quad_coeff * bc.compute_coeff**2
    for q, Q in _own_rows(r, i, x):
        z = np.exp2(-(Q / cfg.bandwidths))
        t = 1.0 - z
        load = t.sum(axis=1)
        ok = load < 1.0 - DEFAULT_FEASIBILITY_MARGIN
        eps = np.where(ok, 1.0 - load, 1.0)
        tp = (LN2 / cfg.bandwidths[i]) * z[:, i]
        dbeta = cfg.noise_variance * tp * (eps + t[:, i]) / (eps * eps)
        dpower_cost = cfg.wpt_factors[i] * cfg.inv_gain_pathloss[i] * dbeta
        rho = Q.sum(axis=1)
        safe = np.where(rho > 0.0, rho, 1.0)    # a zero total has no fees
        dfee = (
            am2 * safe
            + bc.lin_coeff * bc.compute_coeff
            + bc.const_coeff / safe
            + x[q] * (am2 - bc.const_coeff / _pow(safe, 2))
        )
        g[q] = np.where(ok, cfg.rate_prices[i] - dpower_cost
                        - np.where(rho > 0.0, dfee, 0.0), np.nan)
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


def _jacobian_terms(R: np.ndarray, cfg: GameConfig):
    """(d2u, a, tp, c, row) of the pseudo-gradient Jacobian H[i, j] =
    d(du_i/dr_i)/dr_j at a feasible profile (n,) or at each row of (k, n):
    H[i, i] = d2u_i and, off the diagonal, H[i, j] = -a_i tp_j c_i - row_i.
    Powers of the load margin eps and of the total rate rho go through _pow,
    so a profile and each row of a stack give the same floats."""
    z = np.exp2(-(R / cfg.bandwidths))
    t = 1.0 - z
    eps = 1.0 - t.sum(axis=-1, keepdims=True)
    rho = R.sum(axis=-1, keepdims=True)
    e2, rho2 = _pow(eps, 2), _pow(rho, 2)
    lb = LN2 / cfg.bandwidths
    tp, tpp = lb * z, -(lb**2) * z          # dt/dr, d^2t/dr^2
    ks2 = cfg.wpt_factors * cfg.inv_gain_pathloss * cfg.noise_variance
    te = t + eps
    big = 2.0 * te / _pow(eps, 3)
    d2p = ks2 * (tpp * te / e2 + tp * tp * big)     # of the charging cost
    bc = cfg.blockchain
    am2 = bc.quad_coeff * bc.compute_coeff**2
    row = am2 - bc.const_coeff / rho2 + 2.0 * bc.const_coeff * R / _pow(rho, 3)
    d2u = -d2p - (row + am2 - bc.const_coeff / rho2)
    return d2u, ks2 * tp, tp, big - 1.0 / e2, row


def _pow(a: np.ndarray, k: int) -> np.ndarray:
    """a**k by Python's pow, entry by entry; numpy's power can round apart."""
    return np.array([v**k for v in a.ravel().tolist()]).reshape(a.shape)


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
