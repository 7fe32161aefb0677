import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import REPO_ROOT, make_config, make_sensor
from crowdgame import equilibrium, oracle
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
    cfg, bc, i = sec4_cfg, sec4_cfg.blockchain, 1       # the CLI's --sensor 2
    rows = (REPO_ROOT / "bench" / "expected" / "br-curve.csv").read_text().splitlines()
    rows = [row.split(",") for row in rows[1:]]
    r = sec4_solution.rates.copy()
    grid = np.linspace(0.1, rate_upper_bound(i, r, cfg, 0.1), 512)
    br = equilibrium._best_response_full(i, r, cfg, 0.1)
    assert [x for x, _, flag in rows if flag == "0"] == [f"{x:.12g}" for x in grid]
    assert [x for x, _, flag in rows if flag == "1"] == [f"{br:.12g}"]
    with mp.workdps(50):
        f = mp.mpf
        a, lin, c, m = (f(v) for v in (bc.quad_coeff, bc.lin_coeff, bc.const_coeff,
                                       bc.compute_coeff))
        s2, ln2 = f(cfg.noise_variance), mp.log(2)
        band = [f(s.bandwidth) for s in cfg.sensors]
        kappa = [f(s.ap_distance) ** f(s.path_loss_exp) / f(s.channel_gain)
                 for s in cfg.sensors]
        wpt = f(cfg.power_price) * f(cfg.sensors[i].beacon_distance) ** f(cfg.wpt_path_loss_exp)
        price, circuit = f(cfg.sensors[i].unit_rate_price), f(cfg.sensors[i].circuit_power)
        others = [f(float(v)) for v in r]

        def own(x):         # (utility, own gradient) at r_i = x, the others at r
            p = others[:i] + [x] + others[i + 1:]
            t = [1 - mp.power(2, -p[k] / band[k]) for k in range(len(p))]
            eps, total = 1 - mp.fsum(t), mp.fsum(p)
            power = circuit + t[i] * s2 / eps * kappa[i]
            fee = x / total * (a * (m * total) ** 2 + lin * m * total + c)
            am2 = a * m**2
            dpower = wpt * kappa[i] * s2 * ln2 / band[i] * (1 - t[i]) * (eps + t[i]) / eps**2
            dfee = am2 * total + lin * m + c / total + x * (am2 - c / total**2)
            return price * x - wpt * power - fee, price - dpower - dfee

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


def _certify_converged_answers(rng_seed, games, sizes, max_iter):
    """Solve `games` seeded games, n drawn from `sizes`, by every method at
    min_rate 0, 1e-3 and 0.1; check every converged answer against its own
    certificate and the grid oracle, and return how many were checked."""
    rng = np.random.default_rng(rng_seed)
    checked = 0
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
                if not res.converged:
                    continue
                step = equilibrium._STEPPERS[method](res.rates, cfg, opts)
                case = (seed, min_rate, method)
                assert np.max(np.abs(step - res.rates)) < opts.tol, case
                assert oracle.grid_certify_ne(res.rates, cfg, 256, min_rate) <= 1e-6, case
                checked += 1
    return checked


def test_every_converged_answer_passes_its_own_certificate():
    assert _certify_converged_answers(5, 12, (1, 9), 300) >= 90


def test_every_converged_answer_passes_its_own_certificate_up_to_20_sensors():
    # n = 20, 17 and 15; a short budget, since Gauss-Seidel at n = 20 can
    # take seconds a solve
    assert _certify_converged_answers(7, 3, (9, 21), 60) >= 15


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
