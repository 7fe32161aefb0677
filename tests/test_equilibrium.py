from dataclasses import replace

import numpy as np
import pytest

from conftest import make_config, make_sensor
from crowdgame import equilibrium
from crowdgame.equilibrium import (
    EmptyFeasibleInterval,
    SolverOptions,
    best_response,
    check_existence,
    rate_upper_bound,
    solve,
    verify_epsilon_ne,
)
from crowdgame.model import (
    BlockchainParams,
    InfeasibleRates,
    blockchain_power,
    invert_rates,
    utility_rate_space,
)


@pytest.fixture(scope="module")
def sec4_solution(sec4_cfg):
    res = solve(sec4_cfg)
    assert res.converged
    return res


# ---------------------------------------------------------------------------
# options and existence checking
# ---------------------------------------------------------------------------

def test_solver_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(method="fictitious_play")
    with pytest.raises(ValueError):
        SolverOptions(tol=0.0)
    with pytest.raises(ValueError):
        SolverOptions(max_iter=0)
    with pytest.raises(ValueError):
        SolverOptions(method="gradient_ascent", step_size=0.0)
    for name in ("tol", "min_rate", "step_size"):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=name):
                SolverOptions(**{name: bad})


def test_check_existence_sec4(sec4_cfg):
    report = check_existence(sec4_cfg, region=(0.1, 0.5), samples=200)
    assert report.condition_a        # 0.1*9 - 0.1 = 0.8 >= 0
    assert report.condition_b        # 10 * 0.1 >= 1
    assert report.numeric_concavity
    assert report.details.value < 0.0
    assert report.details.evaluated == 200


def test_check_existence_condition_a_flips():
    cfg = make_config(
        [make_sensor(), make_sensor()],
        blockchain=BlockchainParams(0.0, 0.1, 0.1, 1.0),
    )
    report = check_existence(cfg, region=(0.1, 0.4), samples=20)
    assert not report.condition_a


def test_check_existence_single_sensor_condition_b(single_interior_cfg):
    report = check_existence(single_interior_cfg, region=(0.1, 0.5), samples=20)
    assert not report.condition_b     # lower-corner total rate 0.1 < 1


def test_check_existence_infeasible_region(sec4_cfg):
    with pytest.raises(InfeasibleRates):
        check_existence(sec4_cfg, region=(0.5, 0.6), samples=10)


def test_check_existence_rejects_bad_arguments(sec4_cfg):
    with pytest.raises(ValueError):
        check_existence(sec4_cfg, region=(0.1, 0.5), samples=0)
    with pytest.raises(ValueError):
        check_existence(sec4_cfg, region=(0.5, 0.1), samples=5)


# ---------------------------------------------------------------------------
# best response
# ---------------------------------------------------------------------------

def test_best_response_zero_price_returns_min_rate():
    cfg = make_config([make_sensor(unit_rate_price=0.0), make_sensor()])
    assert best_response(0, np.array([0.3]), cfg) == 0.1


def test_best_response_empty_interval():
    cfg = make_config([make_sensor(), make_sensor()])
    with pytest.raises(EmptyFeasibleInterval):
        best_response(0, np.array([12.0]), cfg)


def test_best_response_wrong_shape(sec4_cfg):
    with pytest.raises(ValueError):
        best_response(0, np.full(10, 0.2), sec4_cfg)


def test_best_response_interior_stationary(sec4_cfg):
    # the polished response should zero the own-gradient to high precision
    from crowdgame.model import utility_gradient_analytic

    others = np.full(9, 0.25)
    x = best_response(2, others, sec4_cfg)
    r = np.insert(others, 2, x)
    assert abs(utility_gradient_analytic(2, r, sec4_cfg)) < 1e-6


def test_best_response_beats_dense_grid(sec4_cfg):
    # oracle equivalence: 50 random draws against a 10000-point grid
    from crowdgame import oracle

    rng = np.random.default_rng(31)
    opts = SolverOptions()
    for _ in range(50):
        others = rng.uniform(0.18, 0.28, size=9)
        i = int(rng.integers(0, 10))
        x = best_response(i, others, sec4_cfg, opts)
        r = np.insert(others, i, x)
        u_star = utility_rate_space(i, r, sec4_cfg)
        g = oracle.grid_best_response(i, others, sec4_cfg, 10_000)
        r[i] = g
        assert u_star >= utility_rate_space(i, r, sec4_cfg) - 1e-8


def test_rate_upper_bound_is_boundary(sec4_cfg):
    r = np.full(10, 0.25)
    hi = rate_upper_bound(3, r, sec4_cfg)
    r[3] = hi
    invert_rates(r, sec4_cfg)          # feasible at the bound
    r[3] = hi * (1.0 + 1e-9) + 1e-9
    with pytest.raises(Exception):
        invert_rates(r, sec4_cfg)      # infeasible just past it


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_single_sensor_solve_equals_best_response(single_interior_cfg):
    res = solve(single_interior_cfg)
    br = best_response(0, np.array([]), single_interior_cfg)
    assert res.converged
    assert res.rates[0] == pytest.approx(br, abs=1e-12)


def test_single_sensor_cap_binding(single_cfg):
    # with lambda = 20 the lone sensor climbs to its power cap
    res = solve(single_cfg)
    assert res.converged
    assert res.powers[0] == pytest.approx(10.0, rel=1e-9)


def test_methods_agree(sec4_cfg, sec4_solution):
    ja = solve(sec4_cfg, SolverOptions(method="jacobi_br"))
    assert ja.converged
    assert np.max(np.abs(ja.rates - sec4_solution.rates)) < 1e-6


def test_sec4_equilibrium_frozen_values(sec4_solution):
    # stationary-point rates verified against an independent 50-digit Newton
    # solve of the three-class reduced system (classes repeat with period 3)
    expected = np.array(
        [0.30414407484425729, 0.30400358242052918, 0.30353156129338013] * 3
        + [0.30414407484425729]
    )
    np.testing.assert_allclose(sec4_solution.rates, expected, rtol=1e-12)


def test_fixed_point_property(sec4_cfg, sec4_solution):
    opts = SolverOptions()
    r = sec4_solution.rates
    for i in range(10):
        br = best_response(i, np.delete(r, i), sec4_cfg, opts)
        assert abs(br - r[i]) < opts.tol


def test_gauss_seidel_monotone_improvement(sec4_cfg):
    # pure dynamics: every in-place best response helps its own sensor
    r = np.full(10, 0.2)
    for _ in range(2):
        for i in range(10):
            before = utility_rate_space(i, r, sec4_cfg)
            r[i] = equilibrium._best_response_full(i, r, sec4_cfg, 0.1)
            after = utility_rate_space(i, r, sec4_cfg)
            # small slack for float noise between search and re-evaluation
            assert after >= before - 1e-9


def test_determinism(sec4_cfg):
    a = solve(sec4_cfg)
    b = solve(sec4_cfg)
    assert np.array_equal(a.trace, b.trace)
    assert a.iterations == b.iterations
    assert a.residual == b.residual


def test_concurrent_solves_share_config(sec4_cfg):
    # independent runs against one immutable GameConfig are safe and identical
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(lambda _: solve(sec4_cfg), range(4)))
    for res in results[1:]:
        assert np.array_equal(res.rates, results[0].rates)
        assert np.array_equal(res.trace, results[0].trace)


def test_nonconvergence_reported_not_raised(sec4_cfg):
    res = solve(sec4_cfg, SolverOptions(max_iter=3, refine_after=0))
    assert not res.converged
    assert res.iterations == 3


def test_pure_dynamics_converges_on_easy_game(single_interior_cfg):
    res = solve(single_interior_cfg, SolverOptions(refine_after=0))
    assert res.converged
    assert res.iterations <= 3


def test_solve_result_accounting(sec4_cfg, sec4_solution):
    res = sec4_solution
    assert res.fee_shares.sum() == pytest.approx(1.0, rel=1e-12)
    assert res.fees.sum() == pytest.approx(
        blockchain_power(float(res.rates.sum()), sec4_cfg.blockchain), rel=1e-12
    )
    assert res.trace.shape[1] == 10
    assert np.array_equal(res.trace[0], np.full(10, 0.2))


def _tiled(cfg, n):
    return replace(cfg, sensors=[cfg.sensors[i % cfg.n_sensors] for i in range(n)])


def test_default_start_falls_back_to_an_equal_load_share(sec4_cfg):
    for n in (15, 20):      # the uniform start min_rate + 0.1 is infeasible
        cfg = _tiled(sec4_cfg, n)
        with pytest.raises(InfeasibleRates):
            invert_rates(np.full(n, 0.2), cfg)
        res = solve(cfg)
        assert res.converged
        share = -cfg.bandwidths * np.log2(1 - 0.5 / n)     # rate of load 0.5/n
        assert np.array_equal(res.trace[0], np.maximum(share, 0.1))
    # 40 sensors at min_rate 0.1 already load T = 1.36: nothing is feasible
    with pytest.raises(InfeasibleRates):
        solve(_tiled(sec4_cfg, 40))


def test_solve_custom_init(sec4_cfg, sec4_solution):
    res = solve(sec4_cfg, SolverOptions(init_rates=np.full(10, 0.15)))
    assert res.converged
    assert np.max(np.abs(res.rates - sec4_solution.rates)) < 1e-8


def test_solve_warns_without_existence_condition():
    cfg = make_config(
        [make_sensor(), make_sensor()],
        blockchain=BlockchainParams(0.0, 0.1, 0.1, 1.0),
    )
    with pytest.warns(RuntimeWarning, match="existence"):
        solve(cfg, SolverOptions(max_iter=5, refine_after=0))


def test_gradient_ascent_single_sensor(single_interior_cfg):
    res = solve(single_interior_cfg, SolverOptions(method="gradient_ascent"))
    br = best_response(0, np.array([]), single_interior_cfg)
    assert res.converged
    assert res.rates[0] == pytest.approx(br, abs=1e-7)


def test_pure_jacobi_reports_overshoot(sec4_cfg):
    # simultaneous best responses overshoot the channel; without refinement
    # the solver must stop and report, never raise
    res = solve(sec4_cfg, SolverOptions(method="jacobi_br", refine_after=0, max_iter=50))
    assert not res.converged
    invert_rates(res.rates, sec4_cfg)   # reported profile stays feasible


def test_pure_gradient_ascent_reports(sec4_cfg):
    res = solve(
        sec4_cfg,
        SolverOptions(method="gradient_ascent", refine_after=0, max_iter=50),
    )
    assert not res.converged
    invert_rates(res.rates, sec4_cfg)


@pytest.mark.parametrize("method", ["gauss_seidel_br", "jacobi_br", "gradient_ascent"])
def test_solve_never_raises_on_random_games(method):
    rng = np.random.default_rng(37)
    for _ in range(8):
        n = int(rng.integers(1, 5))
        sensors = [
            make_sensor(
                bandwidth=float(rng.uniform(0.5, 3.0)),
                channel_gain=float(rng.uniform(0.5, 3.0)),
                ap_distance=float(rng.uniform(0.1, 1.0)),
                path_loss_exp=float(rng.uniform(2.0, 4.0)),
                circuit_power=float(rng.uniform(0.0, 2.0)),
                unit_rate_price=float(rng.uniform(0.0, 30.0)),
                beacon_distance=float(rng.uniform(0.5, 3.0)),
                max_received_power=float(rng.uniform(4.0, 12.0)),
            )
            for _ in range(n)
        ]
        cfg = make_config(sensors, noise_variance=float(rng.uniform(0.5, 2.0)))
        opts = SolverOptions(method=method, max_iter=300)
        try:
            invert_rates(np.full(n, opts.min_rate + 0.1), cfg)
        except Exception:
            continue   # default init infeasible: solve is allowed to raise
        res = solve(cfg, opts)
        assert res.rates.shape == (n,)
        invert_rates(res.rates, cfg)


# ---------------------------------------------------------------------------
# epsilon-NE verification
# ---------------------------------------------------------------------------

def test_verify_solved_profile(sec4_cfg, sec4_solution):
    ok, worst = verify_epsilon_ne(sec4_solution.rates, sec4_cfg, 1e-6, 2000)
    assert ok
    assert worst <= 1e-6


def test_verify_rejects_perturbed_profile(single_interior_cfg):
    res = solve(single_interior_cfg)
    ok, worst = verify_epsilon_ne(res.rates, single_interior_cfg, 1e-9, 2000)
    assert ok
    perturbed = res.rates + 0.05
    ok, worst = verify_epsilon_ne(perturbed, single_interior_cfg, 1e-9, 2000)
    assert not ok
    assert worst > 0.0


def test_verify_single_sensor_best_response(single_interior_cfg):
    br = best_response(0, np.array([]), single_interior_cfg)
    ok, worst = verify_epsilon_ne(np.array([br]), single_interior_cfg, 1e-9, 2000)
    assert ok
    assert worst <= 1e-9
