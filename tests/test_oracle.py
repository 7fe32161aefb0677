import numpy as np
import pytest

from conftest import make_config, make_sensor
from crowdgame import equilibrium, oracle
from crowdgame.equilibrium import EmptyFeasibleInterval, SolverOptions
from crowdgame.model import forward_rates, utility_gradient_analytic, utility_rate_space


def test_scalar_rate_matches_forward_rates(sec4_cfg):
    rng = np.random.default_rng(23)
    for _ in range(200):
        p = rng.uniform(0.0, sec4_cfg.power_caps)
        vec = forward_rates(p, sec4_cfg)
        for i in range(10):
            assert oracle.scalar_rate(i, p, sec4_cfg) == pytest.approx(
                vec[i], rel=1e-12, abs=1e-15
            )


def test_scalar_rate_at_circuit_power(sec4_cfg):
    assert oracle.scalar_rate(3, sec4_cfg.circuit_powers, sec4_cfg) == 0.0


def test_scalar_rate_unit_transmit_power(sec4_cfg):
    # every sensor one power unit above its circuit drain
    p = sec4_cfg.circuit_powers + 1.0
    vec = forward_rates(p, sec4_cfg)
    for i in range(10):
        assert vec[i] == pytest.approx(
            oracle.scalar_rate(i, p, sec4_cfg), rel=1e-12
        )


def test_scalar_rate_worked_example():
    cfg = make_config([make_sensor(), make_sensor(circuit_power=1.5)])
    assert oracle.scalar_rate(0, [2.0, 1.5], cfg) == pytest.approx(2.0, rel=1e-14)


def test_scalar_rate_rejects_a_sensor_out_of_range(sec4_cfg):
    for i in (-1, 10):
        with pytest.raises(IndexError) as e:
            oracle.scalar_rate(i, sec4_cfg.circuit_powers, sec4_cfg)
        assert str(e.value) == f"sensor id {i} out of range"


def test_utility_gradient_needs_an_interior_rate(sec4_cfg):
    r = np.full(10, 0.2)
    r[0] = 0.0
    with pytest.raises(ValueError) as e:
        oracle.utility_gradient(0, r, sec4_cfg)
    assert str(e.value) == "utility_gradient needs a strictly interior r_i > 0"


def test_utility_gradient_halves_the_step_below_a_small_rate(sec4_cfg, monkeypatch):
    # r_i = 1e-8 is below the step 1e-6, so the step is r_i / 2
    r = np.full(10, 0.2)
    r[0] = 1e-8
    seen = []

    def spy(i, rates, cfg):
        seen.append(float(rates[i]))
        return utility_rate_space(i, rates, cfg)

    monkeypatch.setattr(oracle, "utility_rate_space", spy)
    got = oracle.utility_gradient(0, r, sec4_cfg)
    assert seen == [1e-8 + 0.5e-8, 1e-8 - 0.5e-8]
    assert got == pytest.approx(utility_gradient_analytic(0, r, sec4_cfg), rel=1e-9)


def test_grid_best_response_zero_price():
    cfg = make_config([make_sensor(unit_rate_price=0.0), make_sensor()])
    assert oracle.grid_best_response(0, [0.3], cfg, 500) == 0.1


def test_grid_best_response_monotone_refinement(sec4_cfg):
    # nested grids (n -> 2n-1) can only improve the best utility found
    others = np.full(9, 0.25)
    best_utils = []
    for grid_points in (11, 21, 41, 81):
        x = oracle.grid_best_response(1, others, sec4_cfg, grid_points)
        r = np.insert(others, 1, x)
        best_utils.append(utility_rate_space(1, r, sec4_cfg))
    assert all(b >= a - 1e-15 for a, b in zip(best_utils, best_utils[1:]))


def test_grid_best_response_agrees_with_solver(sec4_cfg):
    rng = np.random.default_rng(29)
    opts = SolverOptions()
    for _ in range(5):
        others = rng.uniform(0.15, 0.3, size=9)
        i = int(rng.integers(0, 10))
        fine = oracle.grid_best_response(i, others, sec4_cfg, 10_000)
        refined = equilibrium.best_response(i, others, sec4_cfg, opts)
        hi = equilibrium.rate_upper_bound(
            i, np.insert(others, i, 0.1), sec4_cfg, 0.1
        )
        cell = (hi - 0.1) / (10_000 - 1)
        assert abs(fine - refined) <= cell


def test_grid_best_response_requires_two_points(sec4_cfg):
    with pytest.raises(ValueError):
        oracle.grid_best_response(0, np.full(9, 0.2), sec4_cfg, 1)


def test_grid_best_response_checks_the_sensor_first(sec4_cfg):
    # NumPy's "index 10 is out of bounds for axis 0 with size 9" before
    others = np.full(9, 0.2)
    for call in (equilibrium.best_response, oracle.grid_best_response):
        with pytest.raises(IndexError) as e:
            call(10, others, sec4_cfg, *([100] if call is oracle.grid_best_response else []))
        assert str(e.value) == "sensor id 10 out of range [0, 10)"


def test_grid_best_response_checks_the_others_shape(sec4_cfg):
    # "rates has shape (11,)" before: the full profile took one rate too many
    rates = np.full(10, 0.2)
    for call in (equilibrium.best_response, oracle.grid_best_response):
        with pytest.raises(ValueError) as e:
            call(3, rates, sec4_cfg, *([100] if call is oracle.grid_best_response else []))
        assert str(e.value) == "r_others has shape (10,), expected (9,)"


def test_grid_best_response_empty_interval():
    cfg = make_config([make_sensor(), make_sensor()])
    # the opponent swamps the channel: t_1 = 1 - 2^-6 leaves nothing feasible
    with pytest.raises(EmptyFeasibleInterval):
        oracle.grid_best_response(0, [12.0], cfg, 100)


def test_grid_certify_single_sensor_optimum(single_interior_cfg):
    res = equilibrium.solve(single_interior_cfg)
    assert res.converged
    worst = oracle.grid_certify_ne(res.rates, single_interior_cfg, 4000)
    assert worst <= 1e-12


def test_grid_certify_flags_wasteful_rate():
    # a sensor with zero data price sitting above min_rate is throwing money away
    cfg = make_config([make_sensor(unit_rate_price=0.0), make_sensor()])
    worst = oracle.grid_certify_ne(np.array([0.4, 0.3]), cfg, 2000)
    assert worst > 0.0


def test_grid_certify_solved_sec4(sec4_cfg):
    res = equilibrium.solve(sec4_cfg)
    assert res.converged
    assert oracle.grid_certify_ne(res.rates, sec4_cfg, 2000) <= 1e-6
