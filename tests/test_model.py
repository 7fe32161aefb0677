import math
from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SEC4_BLOCKCHAIN, make_config, make_sensor, random_feasible_rates
from crowdgame.model import (
    BlockchainParams,
    InfeasibleRates,
    PowerBoundExceeded,
    SensorParams,
    blockchain_power,
    forward_rates,
    gradient_all,
    invert_rates,
    transaction_fee,
    utility_gradient_analytic,
    utility_power_space,
    utility_rate_space,
    utility_second_derivative,
    wpt_cost,
)
from crowdgame.oracle import utility_gradient


# ---------------------------------------------------------------------------
# type invariants
# ---------------------------------------------------------------------------

def test_sensor_params_reject_nonpositive_gain():
    with pytest.raises(ValueError, match="channel_gain"):
        make_sensor(channel_gain=-1.0)


def test_sensor_params_reject_cap_below_circuit_power():
    with pytest.raises(ValueError, match="max_received_power"):
        make_sensor(circuit_power=5.0, max_received_power=4.0)


def test_blockchain_params_reject_zero_compute_coeff():
    with pytest.raises(ValueError, match="compute_coeff"):
        BlockchainParams(0.1, 0.1, 0.1, 0.0)


def test_game_config_rejects_zero_noise():
    with pytest.raises(ValueError, match="noise_variance"):
        make_config([make_sensor()], noise_variance=0.0)


@pytest.mark.parametrize("name", ["power_price", "wpt_path_loss_exp"])
def test_game_config_rejects_infinite_prices(name):
    with pytest.raises(ValueError, match=name):
        make_config([make_sensor()], **{name: float("inf")})


def test_game_config_rejects_empty_sensor_list():
    with pytest.raises(ValueError, match="sensors"):
        make_config([])


def test_game_config_mirrors_integer_constants_as_floats():
    cfg = make_config([make_sensor(bandwidth=2, circuit_power=1)])
    assert cfg.bandwidths.dtype == cfg.circuit_powers.dtype == np.float64
    assert cfg.bandwidths[0] == 2.0 and cfg.circuit_powers[0] == 1.0


@pytest.mark.parametrize("coeffs, message", [
    ((0.1, 0.1, 0.1, 1e200), "compute_coeff: m^2 overflows"),
    ((1e308, 0.1, 0.1, 3.0), "quad_coeff: a*m^2 overflows"),
    ((0.1, 1e308, 0.1, 3.0), "lin_coeff: b*m overflows"),
    ((1e308, 1e308, 0.1, 1.0), "compute_coeff: the bill at total rate 1 overflows"),
])
def test_blockchain_params_reject_an_overflowing_bill_naming_the_field(coeffs, message):
    with pytest.raises(ValueError) as e:
        BlockchainParams(*coeffs)
    assert str(e.value) == message


@pytest.mark.parametrize("sensor, game, message", [
    (dict(ap_distance=10.0, path_loss_exp=400.0), {},
     "ap_distance**path_loss_exp / channel_gain is not finite"),
    (dict(beacon_distance=10.0), dict(wpt_path_loss_exp=400.0),
     "power_price * beacon_distance**wpt_path_loss_exp is not finite"),
    (dict(beacon_distance=10.0, ap_distance=10.0, path_loss_exp=200.0),
     dict(wpt_path_loss_exp=200.0, power_price=1.0),
     "power_price * beacon_distance**wpt_path_loss_exp * ap_distance**path_loss_exp"
     " / channel_gain is not finite"),
    (dict(bandwidth=1e-310), {}, "ln2 / bandwidth is not finite"),
])
def test_game_config_rejects_overflowing_constants_naming_the_sensor(sensor, game, message):
    with pytest.raises(ValueError) as e:
        make_config([make_sensor(), make_sensor(**sensor)], **game)
    assert str(e.value) == f"sensors[1]: {message}"


def test_constants_that_underflow_to_zero_stay_legal():
    bc = BlockchainParams(0.1, 0.1, 0.1, 1e-200)
    assert bc.concavity_margin == -0.1
    cfg = make_config([make_sensor(ap_distance=0.1, path_loss_exp=400.0, beacon_distance=0.1)],
                      wpt_path_loss_exp=400.0, blockchain=bc)
    assert cfg.inv_gain_pathloss[0] == cfg.wpt_factors[0] == cfg.beta_cost_factors[0] == 0.0
    assert transaction_fee(0, [0.0], cfg) == 0.0


def _build(kind, **values):
    """A sensor, blockchain or game of the conftest defaults, with `values`."""
    if kind == "sensor":
        return make_sensor(**values)
    if kind == "blockchain":
        return BlockchainParams(**{**asdict(SEC4_BLOCKCHAIN), **values})
    return make_config([make_sensor()], **values)


_SCALAR_FIELDS = (
    [("sensor", f.name) for f in fields(SensorParams)]
    + [("blockchain", f.name) for f in fields(BlockchainParams)]
    + [("game", name) for name in ("noise_variance", "power_price", "wpt_path_loss_exp")]
)


@pytest.mark.parametrize("kind, name", _SCALAR_FIELDS)
def test_bools_are_rejected_naming_the_field(kind, name):
    for flag in (True, False, np.True_):
        with pytest.raises(ValueError) as e:
            _build(kind, **{name: flag})
        assert str(e.value) == f"{name}: must be a number, not a bool"
    value = int(getattr(_build(kind), name))       # an int is still a number
    assert getattr(_build(kind, **{name: value}), name) == value


# ---------------------------------------------------------------------------
# forward rate map
# ---------------------------------------------------------------------------

def test_forward_single_active_sensor():
    # worked example: the active sensor sees only noise, r = 2*log2(2) = 2
    cfg = make_config([make_sensor(), make_sensor(circuit_power=1.5)])
    r = forward_rates([2.0, 1.5], cfg)
    np.testing.assert_allclose(r, [2.0, 0.0], rtol=1e-14, atol=0.0)


def test_forward_all_at_circuit_power(sec4_cfg):
    r = forward_rates(sec4_cfg.circuit_powers, sec4_cfg)
    assert np.all(r == 0.0)


def test_forward_clamps_below_circuit_power():
    cfg = make_config([make_sensor(), make_sensor()])
    r = forward_rates([0.0, 2.0], cfg)   # sensor 0 below its circuit power
    assert r[0] == 0.0
    assert r[1] == pytest.approx(2.0, rel=1e-14)


def test_forward_dimension_mismatch(sec4_cfg):
    with pytest.raises(ValueError, match="shape"):
        forward_rates([1.0, 2.0], sec4_cfg)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_forward_rates_and_power_space_utility_reject_non_finite_powers(sec4_cfg, bad):
    p = sec4_cfg.circuit_powers + 0.5
    p[3] = bad
    with pytest.raises(ValueError, match="powers must be finite"):
        forward_rates(p, sec4_cfg)
    with pytest.raises(ValueError, match="powers must be finite"):
        utility_power_space(0, p, sec4_cfg)


@pytest.mark.parametrize("powers", [[1e308] * 10, [1.5] * 9 + [1e308]])
def test_forward_rates_and_power_space_utility_reject_overflowing_powers(sec4_cfg, powers):
    # finite powers whose received signal or interference overflows, warning-free
    for call in (forward_rates, lambda p, cfg: utility_power_space(0, p, cfg)):
        with pytest.raises(ValueError) as e:
            call(powers, sec4_cfg)
        assert str(e.value) == "powers must be finite and give finite rates"


def test_monotonic_interference(sec4_cfg):
    rng = np.random.default_rng(7)
    for _ in range(25):
        p = sec4_cfg.circuit_powers + rng.uniform(0.1, 2.0, 10)
        i, j = rng.choice(10, size=2, replace=False)
        bumped = p.copy()
        bumped[j] += rng.uniform(0.05, 1.0)
        assert forward_rates(bumped, sec4_cfg)[i] < forward_rates(p, sec4_cfg)[i]


def test_injectivity_witness(sec4_cfg):
    rng = np.random.default_rng(11)
    for _ in range(50):
        p = sec4_cfg.circuit_powers + rng.uniform(0.1, 2.0, 10)
        q = sec4_cfg.circuit_powers + rng.uniform(0.1, 2.0, 10)
        if np.max(np.abs(p - q)) <= 1e-6:
            continue
        assert not np.array_equal(forward_rates(p, sec4_cfg), forward_rates(q, sec4_cfg))


# ---------------------------------------------------------------------------
# inverse rate map
# ---------------------------------------------------------------------------

def test_invert_zero_rates(sec4_cfg):
    p, inv = invert_rates(np.zeros(10), sec4_cfg)
    np.testing.assert_array_equal(p, sec4_cfg.circuit_powers)
    assert inv.load == 0.0
    assert inv.beta_sum == 0.0
    assert np.all(inv.gamma == 0.0)


def test_invert_worked_example(single_cfg):
    p, inv = invert_rates([2.0], single_cfg)
    assert inv.gamma[0] == pytest.approx(1.0, rel=1e-12)
    assert inv.load == pytest.approx(0.5, rel=1e-12)
    assert inv.beta_sum == pytest.approx(1.0, rel=1e-12)
    assert inv.beta[0] == pytest.approx(1.0, rel=1e-12)
    assert p[0] == pytest.approx(2.0, rel=1e-12)


def test_invert_matches_forward_example(single_cfg):
    p, _ = invert_rates([2.0], single_cfg)
    np.testing.assert_allclose(forward_rates(p, single_cfg), [2.0], rtol=1e-12)


def test_invert_rejects_infeasible_load(sec4_cfg):
    with pytest.raises(InfeasibleRates):
        invert_rates(np.full(10, 0.5), sec4_cfg)


def test_gradient_and_inversion_share_the_feasibility_margin(sec4_cfg):
    # load 1 - 5e-10 lies between the margin's edge 1 - 1e-9 and 1
    t = (1.0 - 5e-10) / 10.0
    r = -sec4_cfg.bandwidths * np.log2(1.0 - t)
    with pytest.raises(InfeasibleRates) as inv:
        invert_rates(r, sec4_cfg)
    with pytest.raises(InfeasibleRates) as grad:
        gradient_all(r, sec4_cfg)
    for e in (inv, grad):
        assert 1.0 - 1e-9 < e.value.load < 1.0


def test_invert_rejects_negative_rates(sec4_cfg):
    with pytest.raises(ValueError):
        invert_rates(np.full(10, -0.1), sec4_cfg)


def test_invert_power_cap_exceeded(sec4_cfg):
    # load just inside the margin, but the implied powers blow past the cap
    t = (1.0 - 1e-5) / 10.0
    r = -sec4_cfg.bandwidths * np.log2(1.0 - t)
    with pytest.raises(PowerBoundExceeded) as exc_info:
        invert_rates(r, sec4_cfg)
    assert 0 <= exc_info.value.sensor < 10


def test_invert_beta_identity(sec4_cfg):
    # beta_i = (gamma_i/(1+gamma_i)) * (S + sigma^2) for every sensor
    rng = np.random.default_rng(3)
    for r in random_feasible_rates(rng, sec4_cfg, 20):
        _, inv = invert_rates(r, sec4_cfg)
        expected = inv.gamma / (1.0 + inv.gamma) * (
            inv.beta_sum + sec4_cfg.noise_variance
        )
        np.testing.assert_allclose(inv.beta, expected, rtol=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    rates=st.lists(st.floats(min_value=0.0, max_value=0.45), min_size=10, max_size=10)
)
def test_invert_roundtrip_property(sec4_cfg, rates):
    r = np.array(rates)
    try:
        p, inv = invert_rates(r, sec4_cfg)
    except InfeasibleRates:
        return
    if inv.load >= 0.99:
        return
    back = forward_rates(p, sec4_cfg)
    assert np.max(np.abs(back - r)) < 1e-9 * (1.0 + np.max(np.abs(r)))


# ---------------------------------------------------------------------------
# blockchain power and fee sharing
# ---------------------------------------------------------------------------

def test_blockchain_power_zero_rate():
    assert blockchain_power(0.0, BlockchainParams(0.1, 0.1, 0.1, 3.0)) == 0.1


def test_blockchain_power_worked_example():
    bc = BlockchainParams(0.1, 0.1, 0.1, 3.0)
    assert blockchain_power(1.0, bc) == pytest.approx(1.3, rel=1e-15)


def test_blockchain_power_degenerate_coeffs():
    bc = BlockchainParams(0.0, 0.0, 0.7, 2.0)
    for x in (0.0, 1.0, 17.3):
        assert blockchain_power(x, bc) == 0.7


_BAD_SCALARS = [math.nan, math.inf, -math.inf, -1.0, True, np.True_]


@pytest.mark.parametrize("bad", _BAD_SCALARS)
def test_blockchain_power_rejects_a_bad_total_rate(bad):
    # -1.0 gave 0.7 and nan gave nan
    with pytest.raises(ValueError, match="total_rate"):
        blockchain_power(bad, BlockchainParams(0.0, 0.0, 0.7, 2.0))


def test_transaction_fee_two_sensors():
    cfg = make_config([make_sensor(), make_sensor()])
    # p_b(2) = 0.1*36 + 0.1*6 + 0.1 = 4.3, split evenly
    assert transaction_fee(0, [1.0, 1.0], cfg) == pytest.approx(2.15, rel=1e-14)


def test_transaction_fee_zero_share():
    cfg = make_config([make_sensor(), make_sensor()])
    assert transaction_fee(0, [0.0, 1.5], cfg) == 0.0


def test_transaction_fee_zero_total():
    cfg = make_config([make_sensor(), make_sensor()])
    assert transaction_fee(0, [0.0, 0.0], cfg) == 0.0


def test_transaction_fee_out_of_range(sec4_cfg):
    with pytest.raises(IndexError):
        transaction_fee(10, np.full(10, 0.2), sec4_cfg)


@pytest.mark.parametrize("bad", [-0.1, math.inf, math.nan])
def test_transaction_fee_rejects_a_negative_or_non_finite_rate(sec4_cfg, bad):
    r = np.full(10, 0.2)
    r[0] = bad
    with pytest.raises(ValueError, match=r"rates must be finite and >= 0"):
        transaction_fee(1, r, sec4_cfg)


@pytest.mark.parametrize("bad", [-0.1, math.inf, math.nan])
def test_analytic_gradient_rejects_a_negative_or_non_finite_rate(sec4_cfg, bad):
    # all-NaN rates gave nan and rates of -0.1 gave 19.99998962919084
    with pytest.raises(ValueError) as e:
        utility_gradient_analytic(0, np.full(10, bad), sec4_cfg)
    assert str(e.value) == "rates must be finite and >= 0"


def test_fee_conservation(sec4_cfg):
    rng = np.random.default_rng(5)
    for r in random_feasible_rates(rng, sec4_cfg, 50):
        if r.sum() <= 0:
            continue
        fees = sum(transaction_fee(i, r, sec4_cfg) for i in range(10))
        total = blockchain_power(float(r.sum()), sec4_cfg.blockchain)
        assert fees == pytest.approx(total, rel=1e-12)


# ---------------------------------------------------------------------------
# charging cost
# ---------------------------------------------------------------------------

def test_wpt_cost_zero_power(sec4_cfg):
    assert wpt_cost(0, 0.0, sec4_cfg) == 0.0


def test_wpt_cost_worked_example():
    cfg = make_config([make_sensor(beacon_distance=1.001)])
    assert wpt_cost(0, 1.0, cfg) == pytest.approx(0.01 * 1.001**2, rel=1e-14)


def test_wpt_cost_degenerate_exponent():
    cfg = make_config([make_sensor(beacon_distance=5.0)], wpt_path_loss_exp=0.0)
    assert wpt_cost(0, 3.0, cfg) == pytest.approx(0.01 * 3.0, rel=1e-14)


@pytest.mark.parametrize("bad", _BAD_SCALARS)
def test_wpt_cost_rejects_a_bad_power(sec4_cfg, bad):
    # nan gave nan, -1.0 gave -0.01002 and True gave 0.01002
    with pytest.raises(ValueError, match="p_i"):
        wpt_cost(0, bad, sec4_cfg)


# ---------------------------------------------------------------------------
# utilities
# ---------------------------------------------------------------------------

def test_utility_rate_space_zero_rate(sec4_cfg):
    r = np.full(10, 0.2)
    r[4] = 0.0
    s = sec4_cfg.sensors[4]
    expected = -0.01 * s.circuit_power * s.beacon_distance**2
    assert utility_rate_space(4, r, sec4_cfg) == pytest.approx(expected, rel=1e-12)


def test_utility_worked_example(single_cfg):
    # 20*2 - 0.01*2 - (0.1*36 + 0.1*6 + 0.1) = 35.68
    assert utility_rate_space(0, [2.0], single_cfg) == pytest.approx(35.68, rel=1e-12)
    assert utility_power_space(0, [2.0], single_cfg) == pytest.approx(35.68, rel=1e-12)


def test_utility_power_space_circuit_only(sec4_cfg):
    for i in range(10):
        s = sec4_cfg.sensors[i]
        expected = -0.01 * s.circuit_power * s.beacon_distance**2
        u = utility_power_space(i, sec4_cfg.circuit_powers, sec4_cfg)
        assert u == pytest.approx(expected, rel=1e-12)


def test_utility_power_space_pure_cost():
    cfg = make_config(
        [make_sensor(unit_rate_price=0.0), make_sensor(unit_rate_price=0.0)],
        power_price=0.0,
    )
    for i in range(2):
        u = utility_power_space(i, [2.0, 2.0], cfg)
        fee = transaction_fee(i, forward_rates([2.0, 2.0], cfg), cfg)
        assert u == pytest.approx(-fee, rel=1e-12)
        assert u <= 0.0


def test_utility_coordinate_consistency(sec4_cfg):
    rng = np.random.default_rng(13)
    for r in random_feasible_rates(rng, sec4_cfg, 30):
        p, _ = invert_rates(r, sec4_cfg)
        for i in (0, 4, 9):
            a = utility_rate_space(i, r, sec4_cfg)
            b = utility_power_space(i, p, sec4_cfg)
            assert a == pytest.approx(b, rel=1e-9, abs=1e-12)


def test_utility_propagates_infeasibility(sec4_cfg):
    with pytest.raises(InfeasibleRates):
        utility_rate_space(0, np.full(10, 0.5), sec4_cfg)


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------

def test_gradient_positive_when_revenue_dominates():
    cfg = make_config([make_sensor(unit_rate_price=1e6), make_sensor()])
    assert utility_gradient(0, np.array([0.05, 0.2]), cfg) > 0.0


def test_gradient_negative_when_cost_dominates():
    cfg = make_config(
        [make_sensor(unit_rate_price=0.0), make_sensor()], power_price=50.0
    )
    assert utility_gradient(0, np.array([0.3, 0.2]), cfg) < 0.0


def _uniform_rates_at_load(cfg, slack):
    # uniform profile whose load T equals 1 - slack
    t = (1.0 - slack) / cfg.n_sensors
    return -cfg.bandwidths * np.log2(1.0 - t)


def test_gradient_shrinks_step_near_boundary():
    # huge caps put the feasibility boundary at the load wall; the default
    # step crosses it and the retry with a 10x smaller step must succeed
    cfg = make_config(
        [make_sensor(max_received_power=1e12) for _ in range(10)]
    )
    r = _uniform_rates_at_load(cfg, 2e-7)
    g = utility_gradient(0, r, cfg)
    assert np.isfinite(g)


def test_gradient_fails_hard_on_boundary():
    cfg = make_config(
        [make_sensor(max_received_power=1e12) for _ in range(10)]
    )
    r = _uniform_rates_at_load(cfg, 2e-8)
    with pytest.raises(InfeasibleRates):
        utility_gradient(0, r, cfg)


def test_gradient_analytic_matches_fd(sec4_cfg):
    rng = np.random.default_rng(17)
    for r in random_feasible_rates(rng, sec4_cfg, 20, high=0.35, max_load=0.97):
        r = np.maximum(r, 0.05)
        for i in (0, 5):
            fd = utility_gradient(i, r, sec4_cfg)
            an = utility_gradient_analytic(i, r, sec4_cfg)
            assert an == pytest.approx(fd, rel=1e-5)


def test_second_derivative_negative_on_sec4(sec4_cfg):
    r = np.full(10, 0.3)
    for i in range(10):
        assert utility_second_derivative(i, r, sec4_cfg) < 0.0


def test_second_derivative_single_sensor_no_charging_cost():
    cfg = make_config([make_sensor()], power_price=0.0)
    # fee curvature is exactly -2*a*m^2 when no one else transmits
    assert utility_second_derivative(0, [1.7], cfg) == -2.0 * 0.1 * 9.0


def test_second_derivative_matches_fd_oracle(sec4_cfg):
    rng = np.random.default_rng(19)
    for r in random_feasible_rates(rng, sec4_cfg, 10, high=0.3, max_load=0.95):
        r = np.maximum(r, 0.1)
        for i in (2, 7):
            h = max(1e-4, 1e-4 * r[i])
            up = r.copy(); up[i] += h
            dn = r.copy(); dn[i] -= h
            fd = (
                utility_rate_space(i, up, sec4_cfg)
                - 2.0 * utility_rate_space(i, r, sec4_cfg)
                + utility_rate_space(i, dn, sec4_cfg)
            ) / (h * h)
            val = utility_second_derivative(i, r, sec4_cfg)
            assert val == pytest.approx(fd, rel=1e-4)
