import contextlib
import functools
import math
import re
import signal
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import REPO_ROOT, make_config, make_sensor, own_rate_50_digits
from crowdgame import equilibrium, model, oracle
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
    InfeasibilityError,
    InfeasibleRates,
    PowerBoundExceeded,
    blockchain_power,
    invert_rates,
    transaction_fee,
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


@pytest.mark.parametrize("flag", [True, False, np.True_])
@pytest.mark.parametrize("name", ["tol", "step_size", "max_iter", "min_rate", "refine_after"])
def test_solver_options_reject_bools(name, flag):
    # tol=True used to solve sec4 to converged=True after 2 iterations
    with pytest.raises(ValueError) as e:
        SolverOptions(**{name: flag})
    assert str(e.value) == f"{name}: must be a number, not a bool"


def test_solver_options_accept_ints():
    opts = SolverOptions(tol=1, step_size=1, max_iter=3, min_rate=0, refine_after=0)
    assert (opts.tol, opts.step_size, opts.max_iter, opts.min_rate) == (1, 1, 3, 0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 2.5])
@pytest.mark.parametrize("name", ["max_iter", "refine_after"])
def test_solver_options_reject_a_non_integer_count(name, value):
    # refine_after=nan never refined, max_iter=nan ran no iteration and
    # max_iter=2.5 ran 3
    with pytest.raises(ValueError) as e:
        SolverOptions(**{name: value})
    assert str(e.value) == f"{name} must be an integer, not {value!r}"


@pytest.mark.parametrize("count", [True, np.True_, 2.5, 3.0])
def test_counts_reject_a_bool_or_a_non_integer(sec4_cfg, count):
    # samples=True evaluated one point; 2.5 raised a bare TypeError
    r = np.full(10, 0.2)
    calls = [
        ("samples", lambda: check_existence(sec4_cfg, samples=count)),
        ("grid_points", lambda: verify_epsilon_ne(r, sec4_cfg, 1e-6, count)),
        ("grid_points", lambda: oracle.grid_best_response(0, r[1:], sec4_cfg, count)),
        ("grid_points", lambda: oracle.grid_certify_ne(r, sec4_cfg, count)),
    ]
    for name, call in calls:
        with pytest.raises(ValueError) as e:
            call()
        assert str(e.value) == f"{name} must be an integer, not {count!r}"


@pytest.mark.parametrize("call, sensor", [
    (best_response, True),          # raised AttributeError: 'bool' object ...
    (best_response, 1.5),           # raised TypeError: slice indices must be ...
    (rate_upper_bound, 2.0),        # these raised NumPy's IndexError
    (transaction_fee, 2.5),
    (utility_rate_space, 2.5),
])
def test_public_calls_reject_a_non_integer_sensor_id(sec4_cfg, call, sensor):
    rates = np.full(9 if call is best_response else 10, 0.2)
    with pytest.raises(TypeError) as e:
        call(sensor, rates, sec4_cfg)
    assert str(e.value) == f"sensor id {sensor!r} is not an integer"


def test_rate_upper_bound_checks_the_shape_before_it_sets_the_entry(sec4_cfg):
    # a 0-d profile raised NumPy's IndexError: entry i was set before the check
    for rates, shape in ((5.0, ()), (np.float64(5.0), ()), (np.full(1, 0.1), (1,)),
                         (np.full((2, 10), 0.1), (2, 10))):
        with pytest.raises(ValueError) as e:
            rate_upper_bound(3, rates, sec4_cfg)
        assert str(e.value) == f"rates has shape {shape}, expected (10,)"
    # the values are checked after entry i is replaced, as before
    r = np.full(10, 0.2)
    assert rate_upper_bound(3, model._with_entry(r, 3, np.nan), sec4_cfg) == rate_upper_bound(
        3, r, sec4_cfg)
    with pytest.raises(ValueError) as e:
        rate_upper_bound(3, model._with_entry(r, 4, -1.0), sec4_cfg)
    assert str(e.value) == "rates must be finite and >= 0"


def test_numpy_integer_sensor_ids_stay_accepted(sec4_cfg):
    r = np.full(10, 0.2)
    for k in (np.int64(3), np.int32(3), np.uint8(3)):
        assert transaction_fee(k, r, sec4_cfg) == transaction_fee(3, r, sec4_cfg)
        assert best_response(k, r[1:], sec4_cfg) == best_response(3, r[1:], sec4_cfg)


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
    # (0.1,) raised IndexError, 0.3 TypeError, and the triple dropped 0.9;
    # samples=0 shows the shape is checked first
    for region in [(0.1,), 0.3, np.array(0.3), (0.1, 0.5, 0.9)]:
        with pytest.raises(ValueError, match=r"region must be a \(lower, upper\) pair"):
            check_existence(sec4_cfg, region=region, samples=0)
    # a bound of another shape raised NumPy's broadcasting error
    for shape in [(3,), (2, 10)]:
        for region in [(np.full(shape, 0.1), 0.5), (0.1, np.full(shape, 0.5))]:
            with pytest.raises(ValueError, match=re.escape(
                    f"each region bound must be a scalar or 10 values, not shape {shape}")):
                check_existence(sec4_cfg, region=region, samples=5)


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


@pytest.mark.parametrize("i", [-1, -10, 10, 11])
def test_searches_reject_a_sensor_id_out_of_range(sec4_cfg, i):
    # -1 used to answer for sensor 9 against a shifted profile, and 10 raised
    # NumPy's own IndexError
    message = f"sensor id {i} out of range [0, 10)"
    calls = (lambda: best_response(i, np.full(9, 0.2), sec4_cfg),
             lambda: rate_upper_bound(i, np.full(10, 0.2), sec4_cfg),
             lambda: utility_rate_space(i, np.full(10, 0.2), sec4_cfg))
    for call in calls:
        with pytest.raises(IndexError) as e:
            call()
        assert str(e.value) == message


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


def test_pinned_solve_csv_is_within_one_unit_of_the_50_digit_equilibrium(sec4_cfg):
    mp = pytest.importorskip("mpmath")
    cfg, bc = sec4_cfg, sec4_cfg.blockchain
    rows = (REPO_ROOT / "bench" / "expected" / "solve.csv").read_text().splitlines()
    with mp.workdps(50):
        f = mp.mpf
        a, lin = f(bc.quad_coeff), f(bc.lin_coeff)
        c, m = f(bc.const_coeff), f(bc.compute_coeff)
        s2, am2 = f(cfg.noise_variance), f(bc.quad_coeff) * f(bc.compute_coeff) ** 2
        # sensor k is of class k % 3; the classes hold 4, 3 and 3 sensors
        per = [cfg.sensors[k] for k in range(3)]
        band = [f(s.bandwidth) for s in per]
        kappa = [f(s.ap_distance) ** f(s.path_loss_exp) / f(s.channel_gain) for s in per]
        wpt = [f(cfg.power_price) * f(s.beacon_distance) ** f(cfg.wpt_path_loss_exp)
               for s in per]
        price = [f(s.unit_rate_price) for s in per]

        def aggregates(r):
            t = [1 - mp.power(2, -r[k] / band[k]) for k in range(3)]
            return t, 4 * t[0] + 3 * t[1] + 3 * t[2], 4 * r[0] + 3 * r[1] + 3 * r[2]

        def gradients(*r):
            t, load, total = aggregates(r)
            eps = 1 - load
            out = []
            for k in range(3):
                dt = mp.log(2) / band[k] * (1 - t[k])
                dpower = wpt[k] * kappa[k] * s2 * dt * (eps + t[k]) / eps**2
                dfee = am2 * total + lin * m + c / total + r[k] * (am2 - c / total**2)
                out.append(price[k] - dpower - dfee)
            return out

        r = list(mp.findroot(gradients, (f("0.304"), f("0.304"), f("0.3035"))))
        t, load, total = aggregates(r)
        checked = 0
        for row in rows[1:11]:
            sensor, *fields = row.split(",")
            k = (int(sensor) - 1) % 3
            power = f(per[k].circuit_power) + t[k] * s2 / (1 - load) * kappa[k]
            fee = r[k] / total * (a * (m * total) ** 2 + lin * m * total + c)
            utility = price[k] * r[k] - wpt[k] * power - fee
            exact = [r[k], power, fee, r[k] / total, utility]
            for text, value in zip(fields, exact):
                unit = mp.power(10, mp.floor(mp.log10(abs(value))) - 11)
                off = mp.nint(f(text) / unit) - mp.nint(value / unit)
                assert abs(off) <= 1, (row, text)
                checked += 1
    assert checked == 50


def test_pinned_br_curve_is_within_one_unit_of_50_digit_utilities(sec4_cfg, sec4_solution):
    mp = pytest.importorskip("mpmath")
    cfg, i = sec4_cfg, 1       # the CLI's --sensor 2
    rows = (REPO_ROOT / "bench" / "expected" / "br-curve.csv").read_text().splitlines()
    rows = [row.split(",") for row in rows[1:]]
    r = sec4_solution.rates.copy()
    grid = np.linspace(0.1, rate_upper_bound(i, r, cfg, 0.1), 512)
    br = equilibrium._best_response_full(i, r, cfg, 0.1)
    assert [x for x, _, flag in rows if flag == "0"] == [f"{x:.12g}" for x in grid]
    assert [x for x, _, flag in rows if flag == "1"] == [f"{br:.12g}"]
    with mp.workdps(50):
        f = mp.mpf
        own = own_rate_50_digits(mp, cfg, r)(i)
        checked = 0
        for (text, utility, _), x in zip(sorted(rows, key=lambda row: row[2]),
                                         [*grid.tolist(), br]):
            value = own(f(x))[0]
            unit = mp.power(10, mp.floor(mp.log10(abs(value))) - 11)
            assert abs(mp.nint(f(utility) / unit) - mp.nint(value / unit)) <= 1, text
            checked += 1
        best = mp.findroot(lambda x: own(x)[1], f(br))
        # 1.46e-10 off today: the polish bisects the float gradient, whose
        # round-off hides the root's last digits; a Newton best response
        # on the closed form is expected to tighten this
        assert abs(f(rows[[flag for *_, flag in rows].index("1")][0]) - best) <= 1e-9
    assert checked == 513


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


def test_default_start_halves_the_load_share_below_a_binding_cap():
    # the load-0.5 share needs power 1.140625 of sensor 15, past its cap 1.1
    cfg = make_config([make_sensor()] * 15 + [make_sensor(ap_distance=1.5,
                                                          max_received_power=1.1)])
    with pytest.raises(PowerBoundExceeded):
        invert_rates(-cfg.bandwidths * np.log2(1 - 0.5 / 16), cfg)
    for min_rate in (0.05, 0.01):       # the load-0.25 share at and above the floor
        res = solve(cfg, SolverOptions(min_rate=min_rate))
        share = np.maximum(-cfg.bandwidths * np.log2(1 - 0.25 / 16), min_rate)
        assert res.converged and np.array_equal(res.trace[0], share)
    # a sensor whose cap is its circuit power can only start at rate 0
    cfg = make_config([make_sensor(), make_sensor(max_received_power=1.0)])
    res = solve(cfg, SolverOptions(min_rate=0.0))
    assert np.array_equal(res.trace[0], [0.0, 0.0]) and res.converged
    with pytest.raises(PowerBoundExceeded):
        solve(cfg, SolverOptions(min_rate=1e-3))


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


@pytest.mark.parametrize(
    "options, expected",
    [
        # the pure dynamics stop at their first overshoot (step 1 and step 7)
        (dict(method="jacobi_br", refine_after=0, max_iter=50), (1, 2, False)),
        (dict(method="gradient_ascent", refine_after=0, max_iter=50), (7, 8, False)),
        # an overshoot starts the refinement at once; it certifies
        (dict(method="jacobi_br", max_iter=60), (12, 3, True)),
        # the budget runs out inside the refinement
        (dict(refine_after=3, max_iter=4), (4, 4, False)),
        # 10 steps, a refinement that spends all but one iteration of the
        # budget without certifying, then one more step
        (dict(max_iter=40, min_rate=0.01), (40, 13, False)),
    ],
)
def test_solve_stop_accounting(sec4_cfg, options, expected):
    res = solve(sec4_cfg, SolverOptions(**options))
    assert (res.iterations, len(res.trace), res.converged) == expected


@pytest.mark.parametrize("refine_after", [0, 10])
@pytest.mark.parametrize("method", ["gauss_seidel_br", "jacobi_br", "gradient_ascent"])
def test_solve_stops_where_neither_dynamics_nor_refinement_can_start(
    sec4_cfg, method, refine_after
):
    # sensor 0 at 0, the others just under the load limit: raising sensor 0
    # to min_rate 0.1 is infeasible, so the first step raises and the
    # refinement, which starts from the profile floored at min_rate, cannot
    start = np.full(10, 0.335)
    start[0] = 0.0
    assert 0.98 < invert_rates(start, sec4_cfg)[1].load < 1.0
    with pytest.raises(EmptyFeasibleInterval):
        rate_upper_bound(0, start, sec4_cfg)
    opts = SolverOptions(method=method, refine_after=refine_after, init_rates=start)
    res = solve(sec4_cfg, opts)
    assert (res.iterations, len(res.trace), res.converged) == (0, 1, False)
    assert res.residual == math.inf
    assert np.array_equal(res.rates, start)


def test_newton_stops_where_its_system_is_singular(sec4_cfg, monkeypatch):
    monkeypatch.setattr(equilibrium, "_foc_hessian", lambda r, cfg, terms, free: np.zeros((10, 10)))
    start = np.full(10, 0.2)
    r, used, worth_verifying = equilibrium._refine_newton(start, sec4_cfg, 0.1, 10)
    assert np.array_equal(r, start) and (used, worth_verifying) == (1, False)


def test_solve_stops_unconverged_where_the_certificate_cannot_run(sec4_cfg, sec4_solution,
                                                                  monkeypatch):
    # every dynamics step raises: refine at once, then the certifying step
    # raises too, so the refined answer stays unconverged with residual inf
    def raising(r, cfg, opts):
        raise EmptyFeasibleInterval(0, opts.min_rate)

    monkeypatch.setitem(equilibrium._STEPPERS, "gauss_seidel_br", raising)
    res = solve(sec4_cfg)
    assert (res.converged, res.residual, len(res.trace)) == (False, math.inf, 2)
    assert np.allclose(res.rates, sec4_solution.rates, rtol=0.0, atol=1e-9)


def _sec4_with_bandwidth(cfg, bandwidth):
    """cfg with sensor 0's bandwidth at `bandwidth`."""
    return replace(cfg, sensors=[replace(cfg.sensors[0], bandwidth=bandwidth), *cfg.sensors[1:]])


def test_a_degenerate_config_raises_value_error(sec4_cfg):
    # at bandwidth 1e61 sensor 0's interval end, 7.3e60, lies past the search's
    # last doubling, 2^200: a RuntimeError before
    cfg, r = _sec4_with_bandwidth(sec4_cfg, 1e61), np.full(10, 0.2)
    with pytest.raises(ValueError) as e:
        rate_upper_bound(0, r, cfg)
    assert str(e.value) == "sensor 0: no infeasible upper rate found; config degenerate"
    with pytest.raises(equilibrium.DegenerateConfig) as e:     # a bare ValueError before
        oracle.grid_best_response(0, r[1:], cfg, 100)
    assert e.value.sensor == 0
    assert str(e.value) == "sensor 0: no infeasible upper rate found; config degenerate"
    assert rate_upper_bound(1, r, cfg) < 2.0
    below = _sec4_with_bandwidth(sec4_cfg, 1e60)      # its end is 7.3e59 < 2^200
    assert rate_upper_bound(0, r, below) == pytest.approx(7.3006e59, rel=1e-4)


@pytest.mark.parametrize("method", equilibrium._METHODS)
def test_a_degenerate_config_raises_the_same_error_under_every_method(sec4_cfg, method):
    # Jacobi ran 10 000 iterations (6.4 s) to an unconverged answer, and
    # gradient ascent converged, where Gauss-Seidel raised at once
    cfg = _sec4_with_bandwidth(sec4_cfg, 1e61)
    start = time.perf_counter()
    with pytest.raises(equilibrium.DegenerateConfig) as e:
        solve(cfg, SolverOptions(method=method))
    assert time.perf_counter() - start < 1.0
    assert isinstance(e.value, ValueError) and e.value.sensor == 0     # 0-based, as str(e)
    assert str(e.value) == "sensor 0: no infeasible upper rate found; config degenerate"
    # at 1e60 the end, 7.3e59, lies inside the search's reach
    below = _sec4_with_bandwidth(sec4_cfg, 1e60)
    assert solve(below, SolverOptions(method=method, max_iter=50)).converged


def test_the_stationary_estimate_finds_a_root_deep_in_a_wide_cell(sec4_cfg):
    # at bandwidth 1e50 the 64-point grid's first cell is [0.1, 8.0e44]; 60
    # midpoint bisections ended at 3.5e26, and the best response at min_rate
    cfg = _sec4_with_bandwidth(sec4_cfg, 1e50)
    gs = solve(cfg)
    assert gs.converged and gs.rates[0] == pytest.approx(9.4147, rel=1e-4)
    at = model._Aggregates(gs.rates, cfg)
    end = equilibrium._interval_ends(at, cfg, 0.1)[0]
    cell = np.linspace(0.1, end, equilibrium._COARSE_GRID)[:2]
    x = equilibrium._stationary_estimate(0, at, cfg, *cell)
    assert x == pytest.approx(gs.rates[0], rel=1e-12)
    best, u = equilibrium._best_responses(np.array([0]), at, cfg, 0.1, np.array([end]),
                                          equilibrium._COARSE_GRID,
                                          lambda x: model._row_utilities(at, 0, x, cfg))
    assert best[0] == pytest.approx(gs.rates[0], rel=1e-12) and u[0] > 79.0


def test_the_stationary_estimate_stops_where_its_bracket_stops_shrinking(sec4_cfg, monkeypatch):
    # at the answers of the README's sweep the own gradient's round-off made
    # Newton jitter to the 60-step cap, 62 gradient calls, in 12 of the 80
    # calls of a Jacobi and a Gauss-Seidel step
    mp = pytest.importorskip("mpmath")
    cfgs = [replace(sec4_cfg, blockchain=replace(sec4_cfg.blockchain, compute_coeff=m))
            for m in (2.4, 2.7, 3.0, 3.3)]
    answers = [solve(cfg).rates for cfg in cfgs]
    estimate, calls, roots = equilibrium._stationary_estimate, [], []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "grad":
            calls[-1] += 1

    def counted(i, at, cfg, lo, hi):
        calls.append(0)
        sys.setprofile(profile)
        try:
            x = estimate(i, at, cfg, lo, hi)
        finally:
            sys.setprofile(None)
        roots.append((cfg, at.r, i, x))
        return x

    monkeypatch.setattr(equilibrium, "_stationary_estimate", counted)
    for cfg, r in zip(cfgs, answers):
        for step in (equilibrium._jacobi_step, equilibrium._gauss_seidel_step):
            step(r, cfg, SolverOptions())
    assert len(calls) == 80 and max(calls) <= 15, calls
    with mp.workdps(50):    # each an interior root, within 1e-12 of 50 digits
        for cfg, r, i, x in roots:
            own = own_rate_50_digits(mp, cfg, r)(i)
            root = mp.findroot(lambda t: own(t)[1], mp.mpf(x))
            assert abs(x - root) <= 1e-12 * root, (i, x)


def test_jacobi_converges_where_an_interval_spans_decades(sec4_cfg):
    # Jacobi stopped unconverged after 2000 of 2000 iterations here
    cfg = _sec4_with_bandwidth(sec4_cfg, 1e50)
    gs = solve(cfg)
    for method in ("jacobi_br", "gradient_ascent"):
        res = solve(cfg, SolverOptions(method=method, max_iter=50))
        assert res.converged, method
        assert np.max(np.abs(res.rates - gs.rates)) < 1e-8, method


def test_jacobi_converges_from_a_zero_floor_where_an_interval_spans_decades(sec4_cfg):
    # at min_rate 0 the best cell starts at 0, which the geometric split
    # anchors at 2^-1000 of its top; Jacobi stopped unconverged after 300
    # of 300 iterations here, at r_1 = 9.414694727608278
    cfg = _sec4_with_bandwidth(sec4_cfg, 1e50)
    ascent = solve(cfg, SolverOptions(method="gradient_ascent", min_rate=0.0, max_iter=300))
    jacobi = solve(cfg, SolverOptions(method="jacobi_br", min_rate=0.0, max_iter=50))
    assert ascent.converged and jacobi.converged
    assert abs(jacobi.rates[0] - ascent.rates[0]) <= 1e-8


def test_the_stationary_estimate_reads_a_bracket_past_the_load_limit(sec4_cfg):
    # on [0.1, 3 end] the load T passes 1, where the own gradient reads -inf;
    # no other test reaches that return
    r = np.full(10, 0.2)
    at = model._Aggregates(model._with_entry(r, 1, 0.1), sec4_cfg)
    end = rate_upper_bound(1, r, sec4_cfg, 0.1)
    assert model._invert(model._with_entry(r, 1, 3.0 * end), sec4_cfg)[0] > 1.0
    wide = equilibrium._stationary_estimate(1, at, sec4_cfg, 0.1, 3.0 * end)
    x = equilibrium._stationary_estimate(1, at, sec4_cfg, 0.1, end)
    assert abs(wide - x) <= 2.0 * math.ulp(x)


@contextlib.contextmanager
def _alarm(seconds: int):
    """Raise TimeoutError in the body once `seconds` have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_the_golden_section_ends_where_an_ulp_exceeds_an_absolute_width():
    # the best response lies near 9.4e5, where an ulp of the bracket's left
    # end exceeds 1e-10: an absolute golden width stopped the bracket
    # shrinking, and the guessed golden path grew until memory ran out
    mp = pytest.importorskip("mpmath")
    chain = BlockchainParams(quad_coeff=1e-7, lin_coeff=0.1, const_coeff=1e-7, compute_coeff=3.0)
    cfg = make_config([make_sensor(unit_rate_price=2.0, bandwidth=1e7)], blockchain=chain)
    with _alarm(1):
        x = best_response(0, np.array([]), cfg)
        res = solve(cfg)
    assert res.converged and res.rates[0] == x
    with mp.workdps(50):
        own = own_rate_50_digits(mp, cfg, np.array([0.1]))(0)
        root = mp.findroot(lambda t: own(t)[1], mp.mpf(x))
        assert abs(x - root) <= 1e-14 * root


def _own_minimum_config():
    """Two sensors whose pseudo-gradient vanishes near (4.62e-5, 3.72e-4),
    where both own curvatures are positive (ROADMAP item 12, case A, rounded
    to 4 digits)."""
    columns = dict(
        bandwidth=[3.369, 0.03398], channel_gain=[35.59, 180.6], ap_distance=[0.2785, 0.3428],
        path_loss_exp=[3.973, 3.420], circuit_power=[0.8361, 4.021],
        unit_rate_price=[307.3, 38.42], beacon_distance=[0.6431, 1.705],
        max_received_power=[260.3, 298.9],
    )
    sensors = [make_sensor(**{k: v[j] for k, v in columns.items()}) for j in range(2)]
    chain = BlockchainParams(quad_coeff=0.04393, lin_coeff=0.09349, const_coeff=0.1444,
                             compute_coeff=3.511)
    return make_config(sensors, noise_variance=0.1453, power_price=0.1521, blockchain=chain)


def test_newton_returns_its_start_from_a_root_that_is_no_own_maximum():
    # one Newton step from `near` reaches the root, where both own
    # curvatures are positive: an own minimum, which was reported worth verifying
    cfg, near = _own_minimum_config(), np.array([4.61950323e-05, 3.72279706e-04])
    assert (model._curvatures(near, cfg) > 0.0).all()
    r, used, worth_verifying = equilibrium._refine_newton(near, cfg, 0.0, 10)
    assert np.array_equal(r, near) and (used, worth_verifying) == (1, False)


@pytest.mark.parametrize("method", equilibrium._METHODS)
def test_a_converged_answer_at_an_own_minimum_config_passes_verify(method):
    # gradient ascent's refinement ran to the root above and certified it
    # after 13 iterations; verify's gain there is 6981
    cfg = _own_minimum_config()
    res = solve(cfg, SolverOptions(method=method, min_rate=0.0, max_iter=400))
    assert res.converged or method != "gauss_seidel_br"
    if res.converged:
        assert verify_epsilon_ne(res.rates, cfg, 1e-6, 500, 0.0)[0]


def _fee_free_corner_config():
    """Two sensors whose answer at min_rate 0 is the all-zero profile, where
    every fee vanishes (ROADMAP item 12, case C, rounded to 4 digits)."""
    columns = dict(
        bandwidth=[9.224, 8.581], channel_gain=[25.82, 4.548], ap_distance=[0.09746, 0.8208],
        path_loss_exp=[3.035, 3.44], circuit_power=[2.056, 1.189],
        unit_rate_price=[0.5566, 0.1957], beacon_distance=[6.703, 1.275],
        max_received_power=[445.1, 31.46],
    )
    sensors = [make_sensor(**{k: v[j] for k, v in columns.items()}) for j in range(2)]
    chain = BlockchainParams(quad_coeff=0.004032, lin_coeff=0.5136, const_coeff=1.268,
                             compute_coeff=64.44)
    return make_config(sensors, noise_variance=0.02714, power_price=0.02884, blockchain=chain)


@pytest.mark.parametrize("method", equilibrium._METHODS)
def test_a_newton_step_onto_the_zero_profile_warns_nothing(method):
    # gradient ascent's line search accepted the all-zero profile, and its
    # Jacobian divided the fixed fee by the zero total rate squared
    res = solve(_fee_free_corner_config(), SolverOptions(method=method, min_rate=0.0,
                                                         max_iter=400))
    if method != "gradient_ascent":
        assert res.converged and np.array_equal(res.rates, [0.0, 0.0])


def test_the_jacobian_has_no_fee_terms_at_a_zero_total(sec4_cfg):
    # as the fee and the own gradient: fees vanish where every rate is 0
    zero = np.zeros(10)
    d2u, a, tp, c, row = model._jacobian_terms(zero, sec4_cfg)
    assert np.array_equal(row, zero) and np.all(np.isfinite(d2u))
    some = np.full(10, 0.1)                 # a stack row at a zero total, too
    stacked = model._curvatures(np.array([zero, some]), sec4_cfg)
    assert np.array_equal(stacked, [d2u, model._curvatures(some, sec4_cfg)])


@pytest.mark.parametrize("flag", [True, False, np.True_])
def test_public_checks_reject_a_bool_epsilon_or_min_rate(sec4_cfg, flag):
    # verify_epsilon_ne(r, cfg, True, 50) passed, and min_rate=True ran as 1.0
    r = np.full(10, 0.2)
    calls = {
        "epsilon": [lambda: verify_epsilon_ne(r, sec4_cfg, flag, 50)],
        "min_rate": [lambda: verify_epsilon_ne(r, sec4_cfg, 1e-6, 50, flag),
                     lambda: rate_upper_bound(0, r, sec4_cfg, flag),
                     lambda: oracle.grid_certify_ne(r, sec4_cfg, 50, flag),
                     lambda: oracle.grid_best_response(0, r[1:], sec4_cfg, 50, flag)],
    }
    for name, tries in calls.items():
        for call in tries:
            with pytest.raises(ValueError) as e:
                call()
            assert str(e.value) == f"{name}: must be a number, not a bool"


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


def _seeded_game(seed, n=10):
    """The seeded random game of the converged-answer certificate survey."""
    rng = np.random.default_rng(seed)

    def draw(lo, hi):
        return [float(x) for x in rng.uniform(lo, hi, n)]

    cols = dict(bandwidth=draw(0.5, 3), channel_gain=draw(0.5, 3),
                ap_distance=draw(0.1, 1), path_loss_exp=draw(2, 4),
                circuit_power=draw(0, 2), unit_rate_price=draw(0, 30),
                beacon_distance=draw(0.5, 3), max_received_power=draw(4, 12))
    sensors = [make_sensor(**{k: v[j] for k, v in cols.items()}) for j in range(n)]
    return make_config(sensors, noise_variance=float(rng.uniform(0.5, 2)))


@pytest.mark.parametrize("seed, method", [(362, "jacobi_br"), (293, "gauss_seidel_br")])
def test_a_converged_answer_passes_its_own_certificate(seed, method):
    # near a binding power cap one more step can move the iterate by 100x
    # the residual that certified the one before it
    cfg = _seeded_game(seed)
    opts = SolverOptions(method=method, min_rate=0.0, max_iter=300)
    res = solve(cfg, opts)
    assert res.converged
    step = equilibrium._STEPPERS[method](res.rates, cfg, opts)
    assert np.max(np.abs(step - res.rates)) < opts.tol
    assert verify_epsilon_ne(res.rates, cfg, 1e-6, 2000, 0.0)[0]


@functools.cache
def _converged_answers(rng_seed, games, sizes, max_iter):
    """(cfg, opts, result, case) of every converged solve of `games` seeded
    games, n drawn from `sizes`, by every method at min_rate 0, 1e-3 and 0.1."""
    rng = np.random.default_rng(rng_seed)
    answers = []
    for _ in range(games):
        n, seed = int(rng.integers(*sizes)), int(rng.integers(0, 10**6))
        cfg = _seeded_game(seed, n)
        for min_rate in (0.0, 1e-3, 0.1):
            for method in equilibrium._METHODS:
                opts = SolverOptions(method=method, min_rate=min_rate, max_iter=max_iter)
                try:
                    res = solve(cfg, opts)
                except InfeasibilityError:
                    continue        # an infeasible start raises by contract
                if res.converged:
                    answers.append((cfg, opts, res, (seed, min_rate, method)))
    return answers


def _certify_converged_answers(rng_seed, games, sizes, max_iter):
    """Check every one of _converged_answers against its own certificate and
    the grid oracle, and return how many were checked."""
    checked = 0
    for cfg, opts, res, case in _converged_answers(rng_seed, games, sizes, max_iter):
        step = equilibrium._STEPPERS[opts.method](res.rates, cfg, opts)
        assert np.max(np.abs(step - res.rates)) < opts.tol, case
        assert oracle.grid_certify_ne(res.rates, cfg, 256, opts.min_rate) <= 1e-6, case
        checked += 1
    return checked


def test_every_converged_answer_passes_its_own_certificate():
    assert _certify_converged_answers(5, 12, (1, 9), 300) >= 90


def test_every_converged_answer_passes_its_own_certificate_up_to_20_sensors():
    # n = 20, 17 and 15; a short budget, since Gauss-Seidel at n = 20 can
    # take seconds a solve
    assert _certify_converged_answers(7, 3, (9, 21), 60) >= 15


def test_simultaneous_steps_from_an_answer_at_its_interval_end_stay_feasible():
    # the interval ends sit 1e-12 max(1, x) inside the boundary; at the
    # boundary itself such a step crossed it by round-off, an overshoot
    at_end = 0
    for args in ((5, 12, (1, 9), 300), (7, 3, (9, 21), 60)):
        for cfg, opts, res, case in _converged_answers(*args):
            ends = equilibrium._interval_ends(model._Aggregates(res.rates, cfg), cfg,
                                              opts.min_rate)
            if np.any(np.abs(res.rates - ends) <= opts.tol):
                for step in (equilibrium._jacobi_step, equilibrium._gradient_step):
                    assert equilibrium._profile_feasible(step(res.rates, cfg, opts), cfg), case
                at_end += 1
    assert at_end >= 100


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


@pytest.mark.parametrize("grid_points", [1, 0, -3])
def test_verify_rejects_fewer_than_two_grid_points(single_interior_cfg, grid_points):
    with pytest.raises(ValueError) as e:
        verify_epsilon_ne(np.array([0.5]), single_interior_cfg, 1e-6, grid_points)
    assert str(e.value) == "grid_points must be >= 2"


@pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf, -1e-12])
def test_verify_rejects_a_nan_infinite_or_negative_epsilon(single_interior_cfg, epsilon):
    with pytest.raises(ValueError) as e:
        verify_epsilon_ne(np.array([0.5]), single_interior_cfg, epsilon)
    assert str(e.value) == "epsilon must be finite and >= 0"


@pytest.mark.parametrize("min_rate", [math.nan, math.inf, -math.inf, -1.0])
def test_verify_rejects_a_nan_infinite_or_negative_min_rate(sec4_cfg, monkeypatch, min_rate):
    # before any search: a negative floor would grid-search negative rates
    monkeypatch.setattr(equilibrium, "_bound_search", None)
    with pytest.raises(ValueError) as e:
        verify_epsilon_ne(np.full(10, 0.3), sec4_cfg, 1e-6, min_rate=min_rate)
    assert str(e.value) == "min_rate must be finite and >= 0"


@pytest.mark.parametrize("min_rate", [math.nan, math.inf, -math.inf, -1.0])
def test_interval_searches_reject_a_nan_infinite_or_negative_min_rate(sec4_cfg, min_rate):
    # named as min_rate, not as the profile entry the search would set to it
    r = np.full(10, 0.3)
    calls = {
        "rate_upper_bound": lambda: rate_upper_bound(2, r, sec4_cfg, min_rate),
        "grid_best_response":
            lambda: oracle.grid_best_response(2, np.delete(r, 2), sec4_cfg, 64, min_rate),
        "grid_certify_ne": lambda: oracle.grid_certify_ne(r, sec4_cfg, 64, min_rate),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError) as e:
            call()
        assert str(e.value) == "min_rate must be finite and >= 0", name


def test_verify_accepts_a_zero_epsilon_and_two_grid_points(single_interior_cfg):
    br = best_response(0, np.array([]), single_interior_cfg)
    ok, worst = verify_epsilon_ne(np.array([br]), single_interior_cfg, 0.0, 2)
    assert ok == (worst <= 0.0) and math.isfinite(worst)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-12])
def test_public_searches_reject_a_bad_opponent_rate(sec4_cfg, bad):
    # the searches themselves no longer validate; the public edges do
    r = np.full(10, 0.1)
    r[6] = bad
    calls = {
        "best_response": lambda: best_response(2, np.delete(r, 2), sec4_cfg),
        "rate_upper_bound": lambda: rate_upper_bound(2, r, sec4_cfg),
        "verify_epsilon_ne": lambda: verify_epsilon_ne(r, sec4_cfg, 1e-6, 64),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError) as e:
            call()
        assert str(e.value) == "rates must be finite and >= 0", name
