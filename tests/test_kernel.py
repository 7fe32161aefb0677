"""Bit-identity of the profile kernel and the searches built on it.

Every comparison here is exact (`==` / `array_equal`): the kernel keeps the
arithmetic of the reference inversion, and the stacked, exception-free
searches must return the very floats of the reference searches.  The
simultaneous steps and the one-sensor array best response run no search;
they are checked against 50-digit maximizers and the feasibility boundary
instead.
"""

import math
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

import reference_search as ref
from conftest import make_config, make_sensor, own_rate_50_digits, random_feasible_rates
from crowdgame import equilibrium, model, oracle
from crowdgame.equilibrium import (
    SolverOptions,
    _best_response_full,
    _foc_hessian,
    _halton,
    _profile_feasible,
    check_existence,
    rate_upper_bound,
    solve,
    verify_epsilon_ne,
)
from crowdgame.model import (
    BlockchainParams,
    InfeasibleRates,
    PowerBoundExceeded,
    _curvatures,
    _invert,
    _own_gradients,
    _utility_along,
    _with_entry,
    gradient_all,
    invert_rates,
    utility_gradient_analytic,
    utility_rate_space,
    utility_second_derivative,
)


def _boundary_profiles(cfg, rng, count):
    """Profiles scattered around the load limit and every sensor's power cap."""
    out = []
    n = cfg.n_sensors
    for k in range(count):
        # quiet opponents leave sensor i's own cap as the first one hit
        r = rng.uniform(0.0, 0.3 if k % 2 else 0.01, size=n)
        i = (k // 2) % n
        # push one sensor across its feasible boundary, by a random amount
        r[i] = rate_upper_bound(i, r, cfg, 0.0) * rng.uniform(0.98, 1.02)
        out.append(r)
    out += [rng.uniform(0.0, 0.6, size=n) for _ in range(count)]
    return out


def test_kernel_matches_reference_inversion(sec4_cfg):
    rng = np.random.default_rng(11)
    verdicts = set()
    for r in _boundary_profiles(sec4_cfg, rng, 400):
        want = ref.reference_invert(r, sec4_cfg)
        load, beta_sum, beta, p, ok = _invert(r, sec4_cfg)
        assert ok == (want[0] == "ok")
        verdicts.add(want[:2] if want[0] == "cap" else want[0])
        if want[0] == "load":
            assert p is None and load == want[1]
            with pytest.raises(InfeasibleRates) as e:
                invert_rates(r, sec4_cfg)
            assert e.value.load == want[1]
        elif want[0] == "cap":
            assert p[want[1]] == want[2]
            with pytest.raises(PowerBoundExceeded) as e:
                invert_rates(r, sec4_cfg)
            assert (e.value.sensor, e.value.power) == want[1:]
        else:
            _, p_ref, gamma, beta_ref, beta_sum_ref, load_ref = want
            assert np.array_equal(p, p_ref)
            powers, inv = invert_rates(r, sec4_cfg)
            assert np.array_equal(powers, p_ref)
            assert np.array_equal(inv.gamma, gamma)
            assert np.array_equal(inv.beta, beta_ref)
            assert (inv.beta_sum, inv.load) == (beta_sum_ref, load_ref)
    # the profiles reach the load limit and every sensor's cap
    assert verdicts >= {"ok", "load"} | {("cap", i) for i in range(10)}


def test_kernel_rows_match_single_profiles(sec4_cfg):
    rng = np.random.default_rng(12)
    R = np.array(_boundary_profiles(sec4_cfg, rng, 100))
    load, beta_sum, _, P, ok = _invert(R, sec4_cfg)
    assert 0 < ok.sum() < len(R)
    for k, r in enumerate(R):
        load_k, beta_sum_k, _, p_k, ok_k = _invert(r, sec4_cfg)
        assert (load[k], ok[k]) == (load_k, ok_k)
        if p_k is not None:
            assert beta_sum[k] == beta_sum_k
            assert np.array_equal(P[k], p_k)


def test_stacked_utilities_match_single_profiles(sec4_cfg, single_interior_cfg):
    grid = np.linspace(0.0, 0.5, 5)     # starts at a zero total rate
    want = [utility_rate_space(0, np.array([x]), single_interior_cfg) for x in grid]
    assert np.array_equal(_utility_along(0, np.zeros(1), grid, single_interior_cfg), want)
    rng = np.random.default_rng(14)
    for i, points in ((0, 64), (4, 7000), (9, 2)):   # 7000 x 10 spans two chunks
        r = rng.uniform(0.05, 0.25, size=10)
        hi = rate_upper_bound(i, r, sec4_cfg, 0.0)
        grid = np.linspace(0.0, hi, points)
        want = []
        for x in grid:
            r[i] = x
            want.append(utility_rate_space(i, r, sec4_cfg))
        assert np.array_equal(_utility_along(i, r, grid, sec4_cfg), want)
        with pytest.raises((InfeasibleRates, PowerBoundExceeded)):
            _utility_along(i, r, grid * 1.01, sec4_cfg)


def _random_game(rng, n):
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
    return make_config(sensors, noise_variance=float(rng.uniform(0.5, 2.0)))


def _search_cases(sec4):
    """(cfg, rates, min_rate): sec4 around its equilibrium and random games."""
    rng = np.random.default_rng(13)
    cases = [(sec4, rng.uniform(0.1, 0.3, size=10), m) for m in (0.0, 0.01, 0.1)
             for _ in range(10)]
    while len(cases) < 60:
        cfg = _random_game(rng, int(rng.integers(1, 6)))
        r = rng.uniform(0.0, 0.4, size=cfg.n_sensors)
        if _profile_feasible(r, cfg):
            cases.append((cfg, r, float(rng.choice([0.0, 0.05, 0.1]))))
    return cases


def test_best_response_matches_reference_search(sec4_cfg):
    compared = 0
    for cfg, r, min_rate in _search_cases(sec4_cfg):
        for i in range(cfg.n_sensors):
            try:
                want = ref.best_response(i, r, cfg, min_rate)
            except equilibrium.EmptyFeasibleInterval:
                with pytest.raises(equilibrium.EmptyFeasibleInterval):
                    _best_response_full(i, r, cfg, min_rate)
                continue
            assert rate_upper_bound(i, r, cfg, min_rate) == ref.rate_upper_bound(
                i, r, cfg, min_rate
            )
            assert _best_response_full(i, r, cfg, min_rate) == want
            compared += 1
    assert compared >= 50


def test_far_infeasible_probes_emit_no_warnings(sec4_cfg):
    r = np.full(10, 1e4)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(InfeasibleRates):
            invert_rates(r, sec4_cfg)
        assert not _profile_feasible(r, sec4_cfg)
        assert rate_upper_bound(0, np.full(10, 0.1), sec4_cfg, 0.0) > 0.0


def test_kernel_treats_nan_as_infeasible(sec4_cfg):
    r = np.full(10, 0.1)
    r[3] = np.nan
    assert not _profile_feasible(r, sec4_cfg)
    with pytest.raises(ValueError, match="finite"):
        invert_rates(r, sec4_cfg)


def test_halton_matches_scipy():
    qmc = pytest.importorskip("scipy.stats.qmc")
    for dim in (1, 3, 10):
        sampler = qmc.Halton(d=dim, scramble=False)
        want = np.vstack([sampler.random(256) for _ in range(8)])
        got = np.vstack([_halton(256 * b, 256, dim) for b in range(8)])
        assert np.array_equal(got, want)


def _outcome(f, *args):
    """f's value, or the type and message of what it raised."""
    try:
        return f(*args)
    except Exception as e:      # compared by type and message below
        return type(e), str(e)


def test_stacked_calls_stay_within_the_stack_size(sec4_cfg, monkeypatch):
    sizes = []

    def recording(kernel):
        def recorded(R, cfg, *args):
            if R.ndim == 2:
                sizes.append(R.size)
            return kernel(R, cfg, *args)
        return recorded

    monkeypatch.setattr(model, "_invert", recording(_invert))
    r = np.full(10, 0.2)
    grid = np.linspace(0.1, rate_upper_bound(3, r, sec4_cfg), 10_000)
    _utility_along(3, r, grid, sec4_cfg)        # the verify grid: 10^5 rates
    assert sizes and max(sizes) <= model._STACK_SIZE
    want_u = _utility_along(3, r, grid[:37], sec4_cfg)
    want_check = _report_tuple(check_existence(sec4_cfg, (0.1, 0.5), 1000))
    monkeypatch.setattr(equilibrium, "_invert", recording(_invert))
    monkeypatch.setattr(equilibrium, "_curvatures", recording(_curvatures))
    monkeypatch.setattr(model, "_STACK_SIZE", 50)
    monkeypatch.setattr(equilibrium, "_STACK_SIZE", 50)
    sizes.clear()
    assert np.array_equal(_utility_along(3, r, grid[:37], sec4_cfg), want_u)
    assert sizes == [50] * 7 + [20]     # 37 profiles, five a call
    sizes.clear()
    # 1757 points, five a batch, each batch one _invert and one _curvatures
    # call; the report does not depend on the batch size
    assert _report_tuple(check_existence(sec4_cfg, (0.1, 0.5), 1000)) == want_check
    assert len(sizes) == 2 * 352 and max(sizes) <= 50


def test_grid_oracle_matches_scalar_reference(sec4_cfg):
    res = solve(sec4_cfg)
    for r, points in ((res.rates, 2000), (res.rates * 0.97, 301)):
        assert oracle.grid_certify_ne(r, sec4_cfg, points) == ref.grid_certify_ne(
            r, sec4_cfg, points
        )
    compared = 0
    for cfg, r, min_rate in _search_cases(sec4_cfg)[::3]:
        assert _outcome(oracle.grid_certify_ne, r, cfg, 200, min_rate) == _outcome(
            ref.grid_certify_ne, r, cfg, 200, min_rate
        )
        for i in range(cfg.n_sensors):
            others = np.delete(r, i)
            got = _outcome(oracle.grid_best_response, i, others, cfg, 150, min_rate)
            assert got == _outcome(ref.grid_best_response, i, others, cfg, 150, min_rate)
            compared += isinstance(got, float)
    assert compared >= 30


def test_grid_oracle_raises_like_the_reference_on_an_infeasible_point(
    sec4_cfg, monkeypatch
):
    bound = oracle._upper_bound
    monkeypatch.setattr(
        oracle, "_upper_bound", lambda i, r, cfg, m: 1.05 * bound(i, r, cfg, m)
    )
    for cfg, r in ((sec4_cfg, np.full(10, 0.12)), (sec4_cfg, np.full(10, 0.01))):
        for grid_points in (100, 1000):
            got = _outcome(oracle.grid_certify_ne, r, cfg, grid_points, 0.0)
            want = _outcome(ref.grid_certify_ne, r, cfg, grid_points, 0.0)
            assert got == want and got[0] in (InfeasibleRates, PowerBoundExceeded)
            others = np.delete(r, 4)
            got = _outcome(oracle.grid_best_response, 4, others, cfg, grid_points)
            assert got == _outcome(ref.grid_best_response, 4, others, cfg, grid_points)
            assert got[0] in (InfeasibleRates, PowerBoundExceeded)


def _report_tuple(report):
    d = report.details
    return d.value, d.sensor, d.rates.tolist(), d.evaluated, d.skipped


def test_check_existence_matches_scalar_reference(sec4_cfg, single_interior_cfg):
    flip = make_config(
        [make_sensor(), make_sensor(bandwidth=2.0)],
        blockchain=BlockchainParams(0.0, 0.1, 0.1, 1.0),
    )
    cases = [
        (sec4_cfg, (0.1, 0.5), 1000),       # the `check` command: 757 skipped
        (single_interior_cfg, (0.1, 0.5), 50),
        (flip, (0.1, 0.4), 30),
        (sec4_cfg, (0.05, 0.9), 40),        # heavy skipping, many batches
        (sec4_cfg, (0.3, 0.6), 3),          # runs out of points
        (sec4_cfg, (0.3, 0.3), 5),
    ]
    for cfg, region, samples in cases:
        want = _outcome(ref.check_existence_sampling, cfg, region, samples)
        got = _outcome(check_existence, cfg, region, samples)
        if isinstance(want, tuple) and isinstance(want[0], type):
            assert got == want
        else:
            got = _report_tuple(got)
            assert got[:2] == want[:2] and got[3:] == want[3:]
            assert got[2] == want[2].tolist()
            assert got[0] == utility_second_derivative(got[1], np.array(got[2]), cfg)
    report = check_existence(sec4_cfg, (0.1, 0.5), 1000)
    assert (report.details.evaluated, report.details.skipped) == (1000, 757)
    # a zero lower corner is rejected at the edge, before any sampling
    with pytest.raises(ValueError, match=r"region must satisfy 0 < lower <= upper"):
        check_existence(sec4_cfg, (0.0, 0.5), 10)


def test_second_derivative_matches_scalar_reference(sec4_cfg):
    rng = np.random.default_rng(15)
    profiles = _boundary_profiles(sec4_cfg, rng, 40)
    # just inside each sensor's feasible boundary
    for k, i in enumerate(rng.integers(0, 10, size=40)):
        r = rng.uniform(0.05, 0.2, size=10)
        hi = rate_upper_bound(i, r, sec4_cfg, 0.0)
        r[i] = hi - (0.5e-4 if k % 2 else 1e-7) * max(1.0, hi)
        profiles.append(r)
    rest = np.full(9, 0.1)
    profiles += [np.r_[x, rest] for x in (0.0, -0.1, np.nan, np.inf)]
    seen = set()
    for r in profiles:
        valid = bool(np.isfinite(r).all() and (r >= 0.0).all())
        verdict = ref.reference_invert(r, sec4_cfg)[0] if valid else None
        for i in range(10):
            got = _outcome(utility_second_derivative, i, r, sec4_cfg)
            if r[i] <= 0.0:
                assert got == (ValueError, "utility_second_derivative needs a "
                                           "strictly interior r_i > 0")
            elif not valid:
                assert got == (ValueError, "rates must be finite and >= 0")
            elif verdict != "ok":
                assert got == _outcome(invert_rates, r, sec4_cfg)
                assert got[0] is {"load": InfeasibleRates, "cap": PowerBoundExceeded}[verdict]
            else:
                assert got == ref.reference_curvature(r, sec4_cfg)[i]
            seen.add(got[0] if isinstance(got, tuple) else float)
    assert seen == {float, InfeasibleRates, PowerBoundExceeded, ValueError}


def _within_float_range_of(got, exact) -> bool:
    """got is exact to 1e-13 relative, or exact's signed infinity where
    |exact| lies past the largest float."""
    if abs(exact) > sys.float_info.max:
        return got == math.copysign(math.inf, exact)
    return abs(got - exact) <= 1e-13 * abs(exact)


@pytest.mark.parametrize("rate, const_coeff", [
    (1e-160, 0.1), (1e-170, 0.1), (1e-200, 0.1), (1e-300, 0.1), (1e-110, 0.1), (1e-100, 0.1),
    (1e-60, 1e300), (1e-3, 1e300),
])
def test_derivatives_at_tiny_totals_meet_50_digits(sec4_cfg, rate, const_coeff):
    # sec4 with every rate equal: below the total BlockchainParams.tiny_total
    # the fee's c/rho^2 and c R/rho^3 overflowed, or rho^2 underflowed to 0.
    # The gradient read +inf at 1e-160 and divided by zero from 1e-170 on;
    # the curvature read -inf at 1e-110, where the utility is convex; both
    # read NaN at 1e-60 with c = 1e300.  The last case is past the floor.
    mp = pytest.importorskip("mpmath")
    cfg = replace(sec4_cfg, blockchain=replace(sec4_cfg.blockchain, const_coeff=const_coeff))
    r = np.full(10, rate)
    g, d2u = gradient_all(r, cfg), _curvatures(r, cfg)
    for i in range(10):
        assert utility_gradient_analytic(i, r, cfg) == g[i]
        assert utility_second_derivative(i, r, cfg) == d2u[i]
        x = mp.mpf(rate)
        with mp.workdps(50):
            assert _within_float_range_of(g[i], own_rate_50_digits(mp, cfg, r)(i)(x)[1]), i
        with mp.workdps(80):
            slope = lambda y: own_rate_50_digits(mp, cfg, r)(i)(y)[1]
            assert _within_float_range_of(d2u[i], mp.diff(slope, x, h=x * 1e-30)), i
    # a stack mixing tiny and ordinary totals takes each row's own arrangement
    wide = _with_entry(r, 3, 0.2)
    assert np.array_equal(_curvatures(np.array([r, wide]), cfg), [d2u, _curvatures(wide, cfg)])
    x = np.array([rate, 0.2])
    assert _own_gradients(3, r, x, cfg).tolist() == [g[3], gradient_all(wide, cfg)[3]]


def test_curvatures_are_the_jacobian_diagonal(sec4_cfg):
    rng = np.random.default_rng(22)
    cases = [(sec4_cfg, r) for r in _boundary_profiles(sec4_cfg, rng, 100)]
    for method in equilibrium._METHODS:
        res = solve(sec4_cfg, SolverOptions(method=method, max_iter=40))
        cases += [(sec4_cfg, r) for r in res.trace]
    while len(cases) < 600:
        cfg = _random_game(rng, int(rng.integers(1, 21)))
        cases.append((cfg, rng.uniform(0.0, 0.4, size=cfg.n_sensors)))
    compared = 0
    for cfg, r in cases:
        if ref.reference_invert(r, cfg)[0] != "ok" or not r.sum() > 0.0:
            continue
        d2u = _curvatures(r, cfg)
        assert np.array_equal(d2u, np.diagonal(_foc_hessian(r, cfg)))
        assert np.array_equal(d2u, ref.reference_curvature(r, cfg))
        assert np.array_equal(_curvatures(np.array([r, r]), cfg), [d2u, d2u])
        compared += 1
    assert compared >= 300


def test_curvature_is_within_1e_11_of_50_digits(sec4_cfg):
    mp = pytest.importorskip("mpmath")
    cfg, bc = sec4_cfg, sec4_cfg.blockchain
    rng = np.random.default_rng(23)
    profiles = [solve(sec4_cfg).rates]        # the equilibrium, at load 0.99973
    for r in random_feasible_rates(rng, cfg, 30, high=0.35, max_load=0.99):
        profiles.append(np.maximum(r, 0.05))
    judged = 0
    with mp.workdps(50):
        f = mp.mpf
        a, lin, c, m = (f(v) for v in (bc.quad_coeff, bc.lin_coeff, bc.const_coeff,
                                       bc.compute_coeff))
        s2 = f(cfg.noise_variance)
        band = [f(s.bandwidth) for s in cfg.sensors]
        kappa = [f(s.ap_distance) ** f(s.path_loss_exp) / f(s.channel_gain)
                 for s in cfg.sensors]
        wpt = [f(cfg.power_price) * f(s.beacon_distance) ** f(cfg.wpt_path_loss_exp)
               for s in cfg.sensors]
        price = [f(s.unit_rate_price) for s in cfg.sensors]

        def utility(i, rates, x):       # u_i at r_i = x, the others at rates
            p = [f(float(v)) for v in rates]
            p[i] = x
            t = [1 - mp.power(2, -p[k] / band[k]) for k in range(len(p))]
            eps, total = 1 - mp.fsum(t), mp.fsum(p)
            fee = x / total * (a * (m * total) ** 2 + lin * m * total + c)
            return price[i] * x - wpt[i] * t[i] * s2 / eps * kappa[i] - fee

        for k, r in enumerate(profiles):
            load = invert_rates(r, cfg)[1].load
            for i in (range(10) if k == 0 else (k % 10, (k + 5) % 10)):
                exact = mp.diff(lambda x: utility(i, r, x), f(float(r[i])), 2)
                closed = utility_second_derivative(i, r, cfg)
                assert abs(closed - exact) <= 1e-11 * abs(exact), (k, i)
                if load <= 0.95:        # the finite difference as a judge
                    fd = ref.utility_second_derivative(i, r, cfg)
                    assert abs(fd - exact) <= 1e-4 * abs(exact), (k, i)
                    judged += 1
    assert judged >= 20


def test_gradient_of_one_sensor_matches_the_vector_formula(sec4_cfg):
    rng = np.random.default_rng(16)
    cases = [(sec4_cfg, r) for r in _boundary_profiles(sec4_cfg, rng, 100)]
    while len(cases) < 400:
        cfg = _random_game(rng, int(rng.integers(1, 8)))
        cases.append((cfg, rng.uniform(0.0, 0.4, size=cfg.n_sensors)))
    cases.append((sec4_cfg, np.zeros(10)))     # a zero total rate has no fees
    compared = 0
    for cfg, r in cases:
        if ref.reference_invert(r, cfg)[0] != "ok":
            continue
        g = gradient_all(r, cfg)
        assert np.array_equal(g, ref.reference_gradient(r, cfg))
        for i in range(cfg.n_sensors):
            assert utility_gradient_analytic(i, r, cfg) == g[i]
            compared += 1
    assert compared >= 1000


def _bound_outcomes(cases, bound=rate_upper_bound):
    return [_outcome(bound, i, r, cfg, m) for cfg, r, i, m in cases]


def _boundary_bound_cases(sec4):
    """(cfg, rates, sensor, min_rate) on the boundary profiles: the pushed
    sensor (its own cap or the load binds) and the next (another cap binds)."""
    rng = np.random.default_rng(17)
    cases = []
    for k, r in enumerate(_boundary_profiles(sec4, rng, 400)):
        i = (k // 2) % 10 if k < 400 else k % 10
        for m in (0.0, 0.1):
            cases += [(sec4, r, i, m), (sec4, r, (i + 1) % 10, m)]
    return cases


def test_rate_upper_bound_replay_matches_the_literal_search(sec4_cfg):
    cases = _boundary_bound_cases(sec4_cfg)
    got, want = _bound_outcomes(cases), _bound_outcomes(cases, ref.rate_upper_bound)
    assert got == want
    kinds = {type(w) if isinstance(w, float) else w[0] for w in want}
    assert kinds == {float, equilibrium.EmptyFeasibleInterval}


def test_rate_upper_bound_replay_at_zero_opponents_and_a_zero_power_margin(sec4_cfg):
    stuck = make_sensor(circuit_power=1.0, max_received_power=1.0)
    cfgs = [
        sec4_cfg,
        make_config([stuck, make_sensor(), make_sensor(bandwidth=1.0)]),
        make_config([make_sensor(), stuck]),
        make_config([stuck]),
    ]
    cases = []
    for cfg in cfgs:
        n = cfg.n_sensors
        for r in (np.zeros(n), np.full(n, 0.05), np.full(n, 1e-9)):
            for i in range(n):
                cases += [(cfg, r, i, m) for m in (0.0, 1e-12, 0.1)]
    got, want = _bound_outcomes(cases), _bound_outcomes(cases, ref.rate_upper_bound)
    assert got == want
    assert any(isinstance(w, float) and w > 0 for w in want)
    assert any(isinstance(w, tuple) for w in want)


@pytest.mark.parametrize(
    "forced",
    [lambda x: x * (1 - 1e-6), lambda x: x * (1 + 1e-6), lambda x: 0.0,
     lambda x: np.inf],
    ids=["low", "high", "zero", "inf"],
)
def test_rate_upper_bound_falls_back_on_a_wrong_estimate(sec4_cfg, monkeypatch, forced):
    cases = _boundary_bound_cases(sec4_cfg)[::8]
    want = _bound_outcomes(cases, ref.rate_upper_bound)
    estimate = equilibrium._rate_limit_estimate
    monkeypatch.setattr(
        equilibrium, "_rate_limit_estimate", lambda *a: forced(estimate(*a))
    )
    probes = []
    monkeypatch.setattr(equilibrium, "_invert", lambda *a: probes.append(1) or _invert(*a))
    assert _bound_outcomes(cases) == want
    assert len(probes) > 20 * len(cases)    # most calls reran on real probes


def test_the_interval_search_reads_any_evaluation_of_its_profile(sec4_cfg):
    # _bound_search returns the literal search's float whatever entry i of its
    # evaluation holds: min_rate (a best response), the profile's own rate
    # (verify, a simultaneous step's fallback) or a rate past the interval's
    # end, infeasible with the others (a Gauss-Seidel sweep's old rate)
    rng = np.random.default_rng(52)
    cases = [(sec4_cfg, r) for r in _boundary_profiles(sec4_cfg, rng, 60)]
    for _ in range(60):
        cfg = _random_game(rng, int(rng.integers(1, 8)))
        cases.append((cfg, rng.uniform(0.0, 0.6, size=cfg.n_sensors)))
    kinds, past = set(), 0
    for cfg, r in cases:
        for i in sorted({0, cfg.n_sensors // 2, cfg.n_sensors - 1}):
            for m in (0.0, 0.1):
                want = _outcome(ref.rate_upper_bound, i, r, cfg, m)
                entries = [m, r[i], 2.0 * r[i] + 5.0]
                if isinstance(want, float):
                    entries.append(want * (1.0 + rng.uniform(1e-9, 0.1)))
                for x in entries:
                    at = model._Aggregates(_with_entry(r, i, x), cfg)
                    assert _outcome(equilibrium._bound_search, i, at, cfg, m) == want
                    past += x > m and not _profile_feasible(at.r, cfg)
                kinds.add(float if isinstance(want, float) else want[0])
    assert kinds == {float, equilibrium.EmptyFeasibleInterval} and past > 500


def test_each_search_makes_one_evaluation_of_its_profile(sec4_cfg, monkeypatch):
    # one model._Aggregates a Gauss-Seidel best response (two before), a
    # rate_upper_bound and a verify (n + 1 before), shared by its searches
    res = solve(sec4_cfg, SolverOptions(max_iter=40))
    built = []

    class Counted(model._Aggregates):
        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    def evaluations(call, *args):
        built.clear()
        _outcome(call, *args)
        return len(built)

    monkeypatch.setattr(equilibrium, "_Aggregates", Counted)
    answered = 0
    for r in res.trace:
        for i in range(10):
            for m in (0.0, 0.1):
                assert evaluations(_best_response_full, i, r, sec4_cfg, m) == 1
                assert evaluations(rate_upper_bound, i, r, sec4_cfg, m) == 1
                answered += isinstance(_outcome(rate_upper_bound, i, r, sec4_cfg, m), float)
        opts = SolverOptions(min_rate=0.1)     # a sweep answered: one a sensor
        if isinstance(_outcome(equilibrium._gauss_seidel_step, r, sec4_cfg, opts), np.ndarray):
            assert evaluations(equilibrium._gauss_seidel_step, r, sec4_cfg, opts) == 10
    assert answered > 100
    for points in (2, 500):
        assert evaluations(verify_epsilon_ne, res.rates, sec4_cfg, 1e-6, points) == 1


def test_rate_upper_bound_probes_the_kernel_at_most_three_times(sec4_cfg, monkeypatch):
    rng = np.random.default_rng(18)
    profiles = [rng.uniform(0.05, 0.35, size=10) for _ in range(60)]
    for method in equilibrium._METHODS:
        res = solve(sec4_cfg, SolverOptions(method=method, max_iter=40))
        profiles += list(res.trace)
    counts = []

    def counting(*args):
        counts[-1] += 1
        return _invert(*args)

    monkeypatch.setattr(equilibrium, "_invert", counting)
    for r in profiles:
        for i in range(10):
            for m in (0.0, 0.1):
                counts.append(0)
                _outcome(rate_upper_bound, i, r, sec4_cfg, m)
    assert len(counts) > 1000 and max(counts) <= 3


def _tiled(cfg, n):
    """cfg's sensors repeated to n sensors."""
    return replace(cfg, sensors=[cfg.sensors[k % cfg.n_sensors] for k in range(n)])


def _hard_search_cases(sec4):
    """(cfg, rates, sensor, min_rate) where the speculation guesses worst: the
    800 boundary profiles at min_rate 0 (load near 1, each cap binding), each
    for its pushed sensor or one of the others, and sec4 tiled to 160 sensors."""
    rng = np.random.default_rng(19)
    cases = [(sec4, r, (k // 2) % 10 if k < 400 else k % 10, 0.0)
             for k, r in enumerate(_boundary_profiles(sec4, rng, 400))]
    cheap = make_sensor(unit_rate_price=0.01)      # its best response is 0
    for cfg in (make_config([make_sensor()]), make_config([cheap]),
                make_config([cheap, make_sensor()])):
        r = np.zeros(cfg.n_sensors)     # no opponents' rates: a zero fee base
        cases += [(cfg, r, 0, m) for m in (0.0, 1e-12)]
    big = _tiled(sec4, 160)
    for load in (0.5, 0.9, 0.999):
        r = -big.bandwidths * np.log2(1.0 - load / 160) * rng.uniform(0.97, 1.03, 160)
        cases += [(big, r, i, m) for i in (0, 41, 159) for m in (0.0, 0.0025)]
    return cases


@pytest.fixture(scope="module")
def hard_reference(sec4_cfg):
    """_hard_search_cases with the reference search's best-response outcomes."""
    cases = _hard_search_cases(sec4_cfg)
    return cases, [_outcome(ref.best_response, i, r, cfg, m) for cfg, r, i, m in cases]


def test_best_response_matches_reference_on_boundary_and_tiled_profiles(hard_reference):
    cases, want = hard_reference
    got = [_outcome(_best_response_full, i, r, cfg, m) for cfg, r, i, m in cases]
    assert got == want
    assert sum(isinstance(w, float) for w in want) > 600
    assert sum(isinstance(w, float) for w in want[800:]) == 24
    assert 0.0 in want[800:]


def test_best_response_evaluates_only_finite_utilities(sec4_cfg, monkeypatch):
    # the golden section can never raise, so the polish's error is raised at
    # once instead of after it, as the literal search reads them
    outputs = []

    def spying(kernel):
        def spied(*args):
            outputs.append(kernel(*args))
            return outputs[-1]
        return spied

    monkeypatch.setattr(equilibrium, "_own_utilities", spying(equilibrium._own_utilities))
    for cfg, r, i, m in _hard_search_cases(sec4_cfg):
        _outcome(_best_response_full, i, r, cfg, m)
    values = np.concatenate(outputs)
    assert values.size > 50_000 and np.isfinite(values).all()


@pytest.mark.parametrize("tails", [0, 6])
def test_speculated_tail_depth_changes_no_answer(hard_reference, monkeypatch, tails):
    # 0: the guessed path alone; 6: both sections from width ~1e-9 down
    monkeypatch.setattr(equilibrium, "_GOLDEN_TAIL", tails)
    cases, want = hard_reference
    assert [_outcome(_best_response_full, i, r, cfg, m) for cfg, r, i, m in cases] == want


@pytest.mark.parametrize("far", [-1.0, 1e3])
def test_a_far_off_stationary_estimate_changes_no_answer(hard_reference, monkeypatch, far):
    # every guess then goes the same way, and the polish root never steers
    golden_max = equilibrium._golden_max
    monkeypatch.setattr(equilibrium, "_stationary_estimate", lambda *args: far)
    monkeypatch.setattr(equilibrium, "_golden_max",
                        lambda p, a, b, x_hat: golden_max(p, a, b, far))
    cases, want = hard_reference
    assert [_outcome(_best_response_full, i, r, cfg, m) for cfg, r, i, m in cases] == want


def test_one_sensor_array_best_response_on_aggregate_rows_meets_50_digits(sec4_cfg):
    # the call that can answer a Gauss-Seidel best response once the replay
    # goes (ROADMAP item 1): one sensor, its _bound_search end, 64 points and
    # aggregate rows; the replay's == pins above stay until then
    mp = pytest.importorskip("mpmath")
    cases = [(sec4_cfg, r, i, 0.1) for r in solve(sec4_cfg).trace for i in range(10)]
    cases += _hard_search_cases(sec4_cfg)[::2]
    counts = dict.fromkeys(("interior", "end", "low", "error"), 0)
    for cfg, r, i, m in cases:
        at = model._Aggregates(r, cfg)
        end = _outcome(equilibrium._bound_search, i, at, cfg, m)
        assert end == _outcome(rate_upper_bound, i, r, cfg, m)     # the float, or the error
        if isinstance(end, tuple):
            counts["error"] += 1
            continue
        rows = lambda x: model._row_utilities(at, i, x, cfg)
        x = equilibrium._best_responses(np.array([i]), at, cfg, m, np.array([end]), 64,
                                        rows)[0].item()
        with mp.workdps(50):
            own = own_rate_50_digits(mp, cfg, r)(i)
            if m < x < end:     # the 50-digit maximizer, where the own gradient is 0
                root = mp.findroot(lambda t: own(t)[1], mp.mpf(x))
                assert abs(x - root) <= 1e-12 * root and abs(own(mp.mpf(x))[1]) <= 1e-9
                counts["interior"] += 1
            elif x == end:      # the utility still rises there
                assert own(mp.mpf(x))[1] > 0.0
                counts["end"] += 1
            else:               # it falls from min_rate; at 0 without opponents, 0 wins
                assert x == m and (m == 0.0 or own(mp.mpf(m))[1] < 0.0)
                counts["low"] += 1
    assert counts["interior"] > 400 and counts["error"] > 30
    assert counts["end"] > 0 and counts["low"] > 0


def test_the_gauss_seidel_replay_reads_its_evaluation_only_to_steer(sec4_cfg, monkeypatch):
    # only a.r reaches the full-profile rows and the two interval probes, so
    # estimates 1e-9 off move no float, and running aggregates (ROADMAP item
    # 4(b)) can replace the evaluation without moving a byte
    profiles = [r for method in equilibrium._METHODS
                for r in solve(sec4_cfg, SolverOptions(method=method)).trace]
    opts, probes, invert = SolverOptions(), [], equilibrium._invert

    def steps():
        return [_outcome(lambda: equilibrium._gauss_seidel_step(r, sec4_cfg, opts).tolist())
                for r in profiles]

    monkeypatch.setattr(equilibrium, "_invert", lambda *args: probes.append(1) or invert(*args))
    want, replayed = steps(), len(probes)
    for name in ("_rate_limit_estimate", "_stationary_estimate"):
        estimate = getattr(equilibrium, name)
        monkeypatch.setattr(equilibrium, name, lambda *args, f=estimate: f(*args) * (1.0 + 1e-9))
    assert steps() == want
    # most replays failed their probes, and the literal searches answered
    assert len(profiles) > 20 and sum(isinstance(w, list) for w in want) > 20
    assert len(probes) - replayed > 10 * replayed


def _own_gradient(i, r, cfg):
    return gradient_all(r, cfg)[i]


def _gradient_outcomes(cfg, r, i, x):
    """The stacked own-rate gradients at x, each as _outcome(_own_gradient)
    gives it: where one is NaN, what gradient_all raises there, as
    _OwnRate.grad does."""
    g = _own_gradients(i, r, x, cfg)
    return [_outcome(gradient_all, _with_entry(r, i, xq), cfg) if gq != gq else gq
            for gq, xq in zip(g.tolist(), x.tolist())]


def test_stacked_gradients_equal_the_scalar_gradient(sec4_cfg, monkeypatch):
    rng = np.random.default_rng(21)
    cases = [(sec4_cfg, r) for r in _boundary_profiles(sec4_cfg, rng, 60)]
    while len(cases) < 200:
        cfg = _random_game(rng, int(rng.integers(1, 8)))
        cases.append((cfg, rng.uniform(0.0, 0.4, size=cfg.n_sensors)))
    big = _tiled(sec4_cfg, 160)
    cases += [(big, np.full(160, 0.0025)), (big, rng.uniform(0.0, 0.006, 160))]
    kinds = set()
    for cfg, r in cases:
        for i in sorted({0, cfg.n_sensors // 2, cfg.n_sensors - 1}):
            x = np.linspace(0.0, 3.0, 41)   # crosses the load limit in most cases
            want = [_outcome(_own_gradient, i, _with_entry(r, i, xq), cfg) for xq in x]
            assert _gradient_outcomes(cfg, r, i, x) == want
            kinds |= {float if isinstance(w, float) else w[0] for w in want}
    assert kinds == {float, InfeasibleRates}
    # across chunk boundaries: 3 rows of 10 rates a stacked call
    r, x = cases[5][1], np.linspace(0.0, 1.0, 37)
    want = _gradient_outcomes(sec4_cfg, r, 4, x)
    monkeypatch.setattr(model, "_STACK_SIZE", 30)
    assert _gradient_outcomes(sec4_cfg, r, 4, x) == want


def test_each_quantity_has_one_value_on_every_path(sec4_cfg, monkeypatch):
    # the fee, the utility and the own gradient by their one-sensor calls,
    # their profile calls and the full-profile own-row kernels at x = r_i, at
    # the default stack size and at 25 rates a stacked call; an own row is NaN
    # where the one-sensor call raises.  The aggregate rows are pinned to
    # these within round-off by test_aggregate_rows_equal_the_full_profile_rows
    rng = np.random.default_rng(31)
    games = [(sec4_cfg, 0.3), (_tiled(sec4_cfg, 160), 0.005)]
    games += [(_random_game(rng, int(rng.integers(1, 8))), 0.4) for _ in range(12)]
    u_kinds, g_kinds = set(), set()
    for stack in (model._STACK_SIZE, 25):
        monkeypatch.setattr(model, "_STACK_SIZE", stack)
        for cfg, hi in games:
            n = cfg.n_sensors
            profiles = [np.zeros(n)] + [rng.uniform(0.0, s * hi, n) for s in (0.5, 1, 2, 4)]
            if cfg is sec4_cfg:     # across the load limit and a power cap
                profiles += _boundary_profiles(cfg, rng, 4)
            for r in profiles:
                fees = model._fees_all(r, cfg)
                utilities = _outcome(model._utilities_all, r, cfg)
                gradients = _outcome(gradient_all, r, cfg)
                for i in sorted({0, n // 2, n - 1}):
                    assert model.transaction_fee(i, r, cfg) == fees[i]
                    u = _outcome(utility_rate_space, i, r, cfg)
                    u_own = model._own_utilities(i, r, r[[i]], cfg)[0]
                    if isinstance(u, float):
                        assert utilities[i] == u_own == u
                    else:
                        assert utilities == u and np.isnan(u_own)
                    g_own = _own_gradients(i, r, r[[i]], cfg)[0]
                    if isinstance(gradients, np.ndarray):
                        assert g_own == gradients[i]
                    else:
                        assert np.isnan(g_own)
                    u_kinds.add(float if isinstance(u, float) else u[0])
                    g_kinds.add(float if isinstance(gradients, np.ndarray) else gradients[0])
    assert u_kinds == {float, InfeasibleRates, PowerBoundExceeded}
    assert g_kinds == {float, InfeasibleRates}


def test_replay_table_reads_raise_the_scalar_kernels_errors(sec4_cfg):
    kinds = set()
    for others in (0.01, 0.12):     # quiet opponents: sensor 4's own cap binds first
        r, i = np.full(10, others), 4
        hi = rate_upper_bound(i, r, sec4_cfg, 0.0)
        p = equilibrium._OwnRate(i, model._Aggregates(r, sec4_cfg), sec4_cfg)
        p.scan(0.0, hi)
        for x in (hi, hi * 1.001, hi * 1.5, 3.0):   # past the interval, then the load
            want = _outcome(utility_rate_space, i, _with_entry(r, i, x), sec4_cfg)
            assert _outcome(p.read, x) == want
            kinds.add(want[0] if isinstance(want, tuple) else float)
            want = _outcome(_own_gradient, i, _with_entry(r, i, x), sec4_cfg)
            assert _outcome(lambda x: p.read(x, gradient=True), x) == want
            kinds.add(want[0] if isinstance(want, tuple) else float)
    assert kinds == {float, PowerBoundExceeded, InfeasibleRates}


@pytest.mark.parametrize("margin", [1e-4, 1e-3])
def test_best_response_raises_where_the_literal_search_reads_an_infeasible_gradient(
    sec4_cfg, monkeypatch, margin
):
    # a wider margin for the gradient only: near the load limit the polish
    # reads gradients the utility kernel still accepts
    default = model.DEFAULT_FEASIBILITY_MARGIN
    monkeypatch.setattr(model, "DEFAULT_FEASIBILITY_MARGIN", margin)
    monkeypatch.setattr(ref, "GRADIENT_MARGIN", margin)

    def at_the_default_margin(*args):       # _invert, the utility's kernel, reads it too
        model.DEFAULT_FEASIBILITY_MARGIN = default
        try:
            return _invert(*args)
        finally:
            model.DEFAULT_FEASIBILITY_MARGIN = margin

    for module in (model, equilibrium):
        monkeypatch.setattr(module, "_invert", at_the_default_margin)
    cases = _boundary_bound_cases(sec4_cfg)[::40]
    want = [_outcome(ref.best_response, i, r, cfg, m) for cfg, r, i, m in cases]
    got = [_outcome(_best_response_full, i, r, cfg, m) for cfg, r, i, m in cases]
    assert got == want
    assert any(isinstance(w, tuple) and w[0] is InfeasibleRates for w in want)


def test_best_response_makes_few_stacked_kernel_calls(sec4_cfg, monkeypatch):
    rng = np.random.default_rng(18)
    profiles = [rng.uniform(0.05, 0.35, size=10) for _ in range(60)]
    for method in equilibrium._METHODS:
        res = solve(sec4_cfg, SolverOptions(method=method, max_iter=40))
        profiles += list(res.trace)
    counts = []

    def counting(kernel):
        def counted(*args):
            counts[-1] += 1
            return kernel(*args)
        return counted

    def stacked_only(formula):
        def checked(*args):
            if isinstance(args[-2], float):     # the total rate of one profile
                raise AssertionError("a scalar kernel call inside a search")
            return formula(*args)
        return checked

    for name in ("_own_utilities", "_own_gradients"):
        monkeypatch.setattr(equilibrium, name, counting(getattr(equilibrium, name)))
    # every utility, gradient and fee evaluation runs one of these formulas
    for name in ("_fee", "_own_utility", "_own_gradient"):
        monkeypatch.setattr(model, name, stacked_only(getattr(model, name)))
    answered = []
    for r in profiles:
        for i in range(10):
            for m in (0.0, 0.1):
                counts.append(0)
                if isinstance(_outcome(_best_response_full, i, r, sec4_cfg, m), float):
                    answered.append(counts[-1])
    # about 88 scalar probes a call before the searches were replayed, and
    # mean 6.6, max 11 before the round-off tails were speculated
    assert len(counts) > 1000 and np.mean(counts) <= 4.9 and max(counts) <= 8
    # every answer read the counted kernels: no search bypasses them
    assert len(answered) > 1000 and min(answered) >= 1
    counts.append(0)
    verify_epsilon_ne(profiles[-1], sec4_cfg, 1e-6, 500)
    # 20, one sensor at a time: the grid and the root a sensor; 33 when it
    # replayed the golden section, and 54 before its round-off tails were
    # speculated
    assert 1 <= counts[-1] <= 36


def _two_empty_intervals(sec4):
    """(cfg, r, min_rate) where sensors 3 and 7 have no feasible rate >= min_rate
    and every other sensor has one."""
    r = np.full(10, 0.35)
    r[[3, 7]] = 0.0
    m = 0.5 * (0.35 + max(rate_upper_bound(i, r, sec4, 0.0) for i in (3, 7)))
    assert 0.25 < m < 0.35
    return sec4, r, m


def _step_cases(sec4):
    """_two_empty_intervals and the distinct (cfg, profile, min_rate) of
    _hard_search_cases."""
    cases = {(id(r), m): (cfg, r, m) for cfg, r, _, m in _hard_search_cases(sec4)}
    return [_two_empty_intervals(sec4), *cases.values()]


def _one_by_one(outcome, n):
    """outcome(i) for i = 0..n-1 as a loop over the sensors gives them: every
    value, or the first error."""
    values = []
    for i in range(n):
        v = outcome(i)
        if isinstance(v, tuple):
            return v
        values.append(v)
    return values


def _simultaneous_step_cases(sec4):
    """(cfg, profile, min_rate): the sec4 traces of every method, and every
    fourth of _step_cases."""
    cases = [(sec4, r, 0.1) for method in equilibrium._METHODS
             for r in solve(sec4, SolverOptions(method=method, max_iter=40)).trace]
    return cases + _step_cases(sec4)[::4]


def test_simultaneous_steps_answer_within_1e_12_of_50_digits(sec4_cfg):
    mp = pytest.importorskip("mpmath")
    interior = at_end = errors = 0
    for k, (cfg, r, m) in enumerate(_simultaneous_step_cases(sec4_cfg)):
        n, opts = cfg.n_sensors, SolverOptions(min_rate=m, step_size=0.05)
        jacobi = _outcome(equilibrium._jacobi_step, r, cfg, opts)
        ends = _outcome(equilibrium._interval_ends, model._Aggregates(r, cfg), cfg, m)
        if isinstance(ends, tuple):     # the first sensor with no interval raises
            assert ends == _one_by_one(lambda i: _outcome(rate_upper_bound, i, r, cfg, m), n)
            assert jacobi == ends
            errors += 1
        else:
            for i, x in enumerate(ends.tolist()):
                delta = 1e-12 * max(1.0, x)
                assert _profile_feasible(_with_entry(r, i, x), cfg)
                assert not _profile_feasible(_with_entry(r, i, x + 2.0 * delta), cfg)
                if i % 4 == k % 4:      # the oracle's bisection takes 45 probes an end
                    assert abs(x - oracle._upper_bound(i, r.copy(), cfg, m)) <= 2.0 * delta
            with mp.workdps(50):    # a 50-digit maximizer within 1e-12 relative:
                own = own_rate_50_digits(mp, cfg, r)    # the own gradient falls through 0
                for i in np.flatnonzero((jacobi > m) & (jacobi < ends)).tolist():
                    x = mp.mpf(jacobi[i])
                    assert own(i)(x * (1 - 1e-12))[1] > 0 > own(i)(x * (1 + 1e-12))[1], (i, m)
                    interior += 1
            at_end += int(np.sum(jacobi == ends))
        g = _outcome(gradient_all, r, cfg)
        want = g if isinstance(g, tuple) else ends
        if not isinstance(want, tuple):
            want = np.clip(r + opts.step_size * g, m, ends).tolist()
        assert _outcome(lambda: equilibrium._gradient_step(r, cfg, opts).tolist()) == want
    assert interior > 1000 and at_end > 500 and errors > 40
    cfg, r, m = _two_empty_intervals(sec4_cfg)  # sensors 3 and 7 fail: sensor 3 raises
    want = (equilibrium.EmptyFeasibleInterval, f"sensor 3: no feasible rate >= min_rate {m!r}")
    assert _outcome(rate_upper_bound, 7, r, cfg, m)[0] is want[0]
    for step in (equilibrium._jacobi_step, equilibrium._gradient_step):
        assert _outcome(step, r, cfg, SolverOptions(min_rate=m)) == want


def _verify_against_the_oracle(mp, cases, monkeypatch):
    """For each (cfg, profile, min_rate, grid_points): verify's worst gain is
    no lower than the grid oracle's, it is the largest gain of the utilities
    verify answers with, and each interior answer is within 1e-12 relative of
    the sensor's 50-digit maximum; where the oracle raises, verify raises the
    same error. Returns the numbers of interior answers and of errors."""
    answers = []        # each sensor's (sensor, rate, end, utility) in verify
    best_responses = equilibrium._best_responses

    def recording(sensors, r, cfg, m, ends, points, utilities):
        x, u = best_responses(sensors, r, cfg, m, ends, points, utilities)
        answers.extend(zip(sensors.tolist(), x.tolist(), ends.tolist(), u.tolist()))
        return x, u

    monkeypatch.setattr(equilibrium, "_best_responses", recording)
    interior = errors = 0
    for cfg, r, m, points in cases:
        answers.clear()
        got = _outcome(lambda: verify_epsilon_ne(r, cfg, 1e-6, points, m)[1])
        want = _outcome(oracle.grid_certify_ne, r, cfg, points, m)
        if isinstance(want, tuple):     # the lowest failing sensor raises
            assert got == want
            errors += 1
            continue
        assert got >= want      # the oracle's grid, and a refined best cell
        assert [i for i, *_ in answers] == list(range(cfg.n_sensors))
        base = [utility_rate_space(i, r, cfg) for i in range(cfg.n_sensors)]
        assert got == max(u - u0 for (*_, u), u0 in zip(answers, base))
        with mp.workdps(50):    # the 50-digit maximum, where the own gradient is 0
            own = own_rate_50_digits(mp, cfg, r)
            for i, x, end, u in answers:
                if m < x < end:
                    f = own(i)
                    root = mp.findroot(lambda t: f(t)[1], (x * (1 - 1e-10), x * (1 + 1e-10)))
                    top = f(root)[0]
                    assert abs(u - top) <= 1e-12 * abs(top), (i, m)
                    interior += 1
    return interior, errors


def test_verify_worst_gain_matches_reference(sec4_cfg, monkeypatch):
    # the references are the grid oracle and the 50-digit maxima, on the sec4
    # solution at 2000 and 500 points and on every method's sec4 trace
    mp = pytest.importorskip("mpmath")
    rates = solve(sec4_cfg).rates
    cases = [(sec4_cfg, rates, 0.1, 2000), (sec4_cfg, rates * 0.98, 0.1, 500)]
    cases += [(sec4_cfg, r, 0.1, 64) for method in equilibrium._METHODS
              for r in solve(sec4_cfg, SolverOptions(method=method, max_iter=40)).trace]
    interior, errors = _verify_against_the_oracle(mp, cases, monkeypatch)
    assert interior > 200


def test_verify_worst_gain_matches_reference_on_boundary_and_tiled_profiles(
    sec4_cfg, monkeypatch
):
    # the same references on every fourth of _step_cases: empty intervals,
    # profiles on the feasibility boundary and sec4 tiled to n = 160
    mp = pytest.importorskip("mpmath")
    cases = [(cfg, r, m, 64) for cfg, r, m in _step_cases(sec4_cfg)[::4]]
    interior, errors = _verify_against_the_oracle(mp, cases, monkeypatch)
    assert interior > 800 and errors > 40


def _sequential_gradient_step(r, cfg, opts):
    g = gradient_all(r, cfg)
    upper = _one_by_one(lambda i: _outcome(rate_upper_bound, i, r, cfg, opts.min_rate),
                        cfg.n_sensors)
    if isinstance(upper, tuple):
        return upper
    return np.clip(r + opts.step_size * g, opts.min_rate, np.array(upper)).tolist()


@pytest.mark.parametrize("estimate", [np.inf, np.nan], ids=["inf", "nan"])
def test_steps_without_a_finite_estimate_equal_a_loop_over_the_sensors(sec4_cfg, monkeypatch, estimate):
    # a non-finite estimate sends every interval end to rate_upper_bound on
    # scalar probes, in sensor order: the ends, the errors and the gradient
    # step are those of a loop over the sensors
    monkeypatch.setattr(equilibrium, "_rate_limit_estimate",
                        lambda i, r, cfg: np.full(np.shape(i), estimate))
    cases = _step_cases(sec4_cfg)
    cases = cases[:801:4] + cases[801:807] + cases[808::2]    # n = 160: min_rate 0.0025
    cases = cases[::4] + cases[-1:]
    answered = errors = 0
    for cfg, r, m in cases:
        opts = SolverOptions(method="jacobi_br", min_rate=m, step_size=0.05)
        ends = _one_by_one(lambda i: _outcome(rate_upper_bound, i, r, cfg, m), cfg.n_sensors)
        at = model._Aggregates(r, cfg)
        assert _outcome(lambda: equilibrium._interval_ends(at, cfg, m).tolist()) == ends
        jacobi = _outcome(lambda: equilibrium._jacobi_step(r, cfg, opts).tolist())
        if isinstance(ends, tuple):
            assert jacobi == ends
            errors += 1
        else:
            assert all(m <= x <= e for x, e in zip(jacobi, ends))
            answered += 1
        want = _outcome(_sequential_gradient_step, r, cfg, opts)
        assert _outcome(lambda: equilibrium._gradient_step(r, cfg, opts).tolist()) == want
    assert answered > len(cases) // 2 and errors > len(cases) // 10
    cfg, r, m = cases[0]    # sensors 3 and 7 fail: the step raises sensor 3's error
    want = (equilibrium.EmptyFeasibleInterval, f"sensor 3: no feasible rate >= min_rate {m!r}")
    assert _outcome(rate_upper_bound, 7, r, cfg, m)[0] is want[0]
    assert _outcome(equilibrium._jacobi_step, r, cfg, SolverOptions(min_rate=m)) == want


def test_verify_equals_the_reference_loop_where_sensors_fail(sec4_cfg):
    cfg, r, m = _two_empty_intervals(sec4_cfg)
    want = (equilibrium.EmptyFeasibleInterval, f"sensor 3: no feasible rate >= min_rate {m!r}")
    assert _outcome(oracle.grid_certify_ne, r, cfg, 64, m) == want
    assert _outcome(lambda: verify_epsilon_ne(r, cfg, 1e-6, 64, m)[1]) == want
    # at min_rate 0 every interval is feasible
    assert verify_epsilon_ne(r, cfg, 1e-6, 64, 0.0)[1] >= oracle.grid_certify_ne(r, cfg, 64, 0.0)


def test_per_row_kernels_equal_the_one_sensor_kernels(sec4_cfg, monkeypatch):
    # the full-profile own rows of one sensor: the utility and the gradient of
    # the one-sensor kernels at each row, NaN exactly where those raise
    rng = np.random.default_rng(23)
    big = _tiled(sec4_cfg, 160)
    cases = [(sec4_cfg, r) for r in _boundary_profiles(sec4_cfg, rng, 20)]
    cases += [(big, rng.uniform(0.0, 0.006, 160))]
    verdicts = []
    for size in (model._STACK_SIZE, 70):        # 70: a few rows per chunk
        monkeypatch.setattr(model, "_STACK_SIZE", size)
        for cfg, r in cases:
            for i in sorted({0, cfg.n_sensors // 2, cfg.n_sensors - 1}):
                x = rng.uniform(0.0, 0.5, size=37)      # crosses the load limit
                rows = [_with_entry(r, i, xq) for xq in x]
                u = [_outcome(utility_rate_space, i, q, cfg) for q in rows]
                g = [_outcome(_own_gradient, i, q, cfg) for q in rows]
                nan = lambda v: v if isinstance(v, float) else math.nan
                assert np.array_equal(model._own_utilities(i, r, x, cfg), [nan(v) for v in u],
                                      equal_nan=True)
                assert np.array_equal(_own_gradients(i, r, x, cfg), [nan(v) for v in g],
                                      equal_nan=True)
                verdicts += [_profile_feasible(q, cfg) for q in rows]
    assert 0.1 < np.mean(verdicts) < 0.9


def _full_rows(cfg, r, i, x):
    """(own power, verdict, total rate, load) of _invert on each full profile
    r with entry i[q] set to x[q]."""
    rows = np.arange(x.size)
    Q = np.repeat(r[None], x.size, axis=0)
    Q[rows, i] = x
    load, _, _, P, ok = _invert(Q, cfg)
    return P[rows, i], ok, Q.sum(axis=1), load


def _aggregate_row_cases(sec4):
    """(cfg, profile): sec4's boundary profiles, seeded random games, sec4
    tiled to 160 sensors, and sensor 3's cap at its circuit power with r_3 > 0
    and r_3 = 0.  A profile is finite, as the API edge checks."""
    rng = np.random.default_rng(41)
    cases = [(sec4, r) for r in _boundary_profiles(sec4, rng, 30)]
    for _ in range(30):
        cfg = _random_game(rng, int(rng.integers(1, 9)))
        cases.append((cfg, rng.uniform(0.0, 0.6, size=cfg.n_sensors)))
    big = _tiled(sec4, 160)
    cases += [(big, rng.uniform(0.0, 0.006, 160)),
              (big, -big.bandwidths * np.log2(1.0 - 0.999 / 160) * rng.uniform(0.97, 1.0, 160))]
    stuck = sec4.sensors[3]
    capped = replace(sec4, sensors=[replace(stuck, max_received_power=stuck.circuit_power)
                                    if k == 3 else s for k, s in enumerate(sec4.sensors)])
    cases += [(capped, np.full(10, 0.1)), (capped, _with_entry(np.full(10, 0.1), 3, 0.0))]
    return cases


def test_aggregate_rows_equal_the_full_profile_rows(sec4_cfg):
    # the O(1) rows of model._Aggregates against _invert on the full profile:
    # the verdict is the same except within 1e-12 relative of a boundary, and
    # the values agree within the rounding of the load margin eps = 1 - T,
    # whose relative error is about n eps_64/eps, so no flat ulp bound holds
    ulp = np.finfo(float).eps
    rng = np.random.default_rng(42)
    rows = near = flipped = 0
    verdicts = set()
    for cfg, r in _aggregate_row_cases(sec4_cfg):
        n, at = cfg.n_sensors, model._Aggregates(r, cfg)
        sensors = np.repeat(np.arange(n), 12)
        x = rng.uniform(0.0, 0.6, size=sensors.size)
        x[::12] = r                                     # the profile itself
        around = 1.0 + np.array([-1e-9, -1e-13, 0.0, 1e-13, 1e-9])
        for k in range(n):                              # around each interval end
            end = _outcome(rate_upper_bound, k, r, cfg, 0.0)
            if isinstance(end, float):
                x[12 * k + 1:12 * k + 6] = end * around
        x[-1] = np.nan
        p, ok, total = model._row_powers(at, sensors, x, cfg)
        u = model._row_utilities(at, sensors, x, cfg)
        assert np.array_equal(np.isnan(u), ~ok)
        # every index form gives the same rows: one sensor, and (n, k) own rates
        for k in range(n):
            one = model._row_powers(at, k, x[sensors == k], cfg)
            assert all(np.array_equal(a, b[sensors == k], equal_nan=True)
                       for a, b in zip(one, (p, ok, total)))
        grid = x.reshape(n, 12)
        each = model._row_utilities(at, (slice(None), None), grid, cfg)
        assert np.array_equal(each, u.reshape(n, 12), equal_nan=True)

        p_full, ok_full, total_full, load = _full_rows(cfg, r, sensors, x)
        delta = 1e-12 * np.maximum(1.0, x)
        edge = (_full_rows(cfg, r, sensors, x - delta)[1]
                != _full_rows(cfg, r, sensors, x + delta)[1])
        assert np.all((ok == ok_full) | edge)
        rows, near, flipped = rows + x.size, near + edge.sum(), flipped + (ok != ok_full).sum()
        verdicts |= set(ok.tolist())

        both = ok & ok_full
        eps = 1.0 - load[both]
        drift = (n + 4) * ulp * (np.nansum(at.t) + 1.0)     # of T, and of 1 - T: drift/eps
        c, i = cfg.circuit_powers[sensors[both]], sensors[both]
        bound_p = (p_full[both] - c) * (drift / eps + 8 * ulp) + 4 * ulp * p_full[both]
        assert np.all(np.abs(p[both] - p_full[both]) <= bound_p)
        # R_-i = R - r_i cancels where r_i dominates R
        bound_total = (n + 2) * ulp * (np.nansum(r) + total_full[both])
        assert np.all(np.abs(total[both] - total_full[both]) <= bound_total)
        u_full = model._own_utilities
        want = np.array([u_full(int(j), r, x[q:q + 1], cfg)[0]
                         for q, j in enumerate(sensors) if both[q]])
        bc, rho = cfg.blockchain, total_full[both]
        fee = model._fee(x[both], rho, cfg)
        dfee = x[both] * (bc.quad_coeff * bc.compute_coeff**2 + bc.const_coeff / rho**2)
        price, wpt = cfg.rate_prices[i] * x[both], cfg.wpt_factors[i] * p_full[both]
        bound_u = (cfg.wpt_factors[i] * bound_p + dfee * bound_total
                   + 8 * ulp * (price + wpt + fee))
        assert np.all(np.abs(u[both] - want) <= bound_u)
    assert verdicts == {True, False} and rows > 10_000
    # rows within 1e-12 of a boundary are common, and the verdicts part at few
    assert near > 300 and flipped < near // 4


def test_a_jacobi_step_makes_one_feasibility_and_few_stacked_passes(sec4_cfg, monkeypatch):
    profiles = []
    for method in equilibrium._METHODS:
        profiles += list(solve(sec4_cfg, SolverOptions(method=method, max_iter=40)).trace)
    names = ("_row_utilities", "_row_powers", "_own_utilities", "_invert", "_bound_search")
    counts = []

    def counting(name):
        kernel = getattr(equilibrium, name)

        def counted(*args):
            counts[-1][name] += 1
            return kernel(*args)
        return counted

    def passes(step):       # the counts of each step, and its outcomes
        outcomes = []
        for r in profiles:
            counts.append(dict.fromkeys(names, 0))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                outcomes.append(_outcome(step, r, sec4_cfg, SolverOptions(min_rate=0.1)))
        return [tuple(c.values()) for c in counts[-len(profiles):]], outcomes

    for name in names:
        monkeypatch.setattr(equilibrium, name, counting(name))
    jacobi, gradient = equilibrium._jacobi_step, equilibrium._gradient_step
    # a Jacobi step reads two passes of aggregate utility rows and one of
    # aggregate feasibility rows, and no full-profile row; ten best responses
    # in lockstep made 6.84 stacked passes a step, and ten sequential ones
    # about 44 stacked calls and 20 scalar probes
    for step, want in ((jacobi, (2, 1, 0, 0, 0)), (gradient, (0, 1, 0, 0, 0))):
        got, outcomes = passes(step)
        assert passes(step)[0] == got          # the counts repeat exactly
        closed = [c for c, o in zip(got, outcomes)    # answered, and no end fell back
                  if isinstance(o, np.ndarray) and c[-1] == 0]
        assert len(closed) > 20 and set(closed) == {want}
    # every end falls back where the estimate is not finite, warning-free
    monkeypatch.setattr(equilibrium, "_rate_limit_estimate",
                        lambda i, r, cfg: np.full(np.shape(i), np.inf))
    for step in (jacobi, gradient):
        got, outcomes = passes(step)
        answered = [c for c, o in zip(got, outcomes) if isinstance(o, np.ndarray)]
        assert len(answered) > 20 and all(c[-1] == 10 for c in answered)


def test_verify_reads_each_sensors_grid_with_a_scalar_index(sec4_cfg, monkeypatch):
    # one sensor's grid reads that sensor's full-profile rows, whose floats
    # are the grid oracle's; aggregate rows serve only the Jacobi step
    kernel, seen = equilibrium._own_utilities, []

    def spy(i, r, x, cfg):
        seen.append((np.ndim(i), x.size))
        return kernel(i, r, x, cfg)

    r = solve(sec4_cfg).rates
    want = verify_epsilon_ne(r, sec4_cfg, 1e-6, 500)
    monkeypatch.setattr(equilibrium, "_own_utilities", spy)
    assert verify_epsilon_ne(r, sec4_cfg, 1e-6, 500) == want
    assert [d for d, size in seen if size == 500] == [0] * 10


@pytest.fixture(scope="module")
def newton_calls(sec4_cfg):
    """(r_start, cfg, min_rate, budget) of every _refine_newton call in the
    sec4 solves of every method and in sec4 tiled to 160 sensors at min_rate
    0.0025, from the equal load share 0.5, 50 iterations at most."""
    sec4, calls, refine = sec4_cfg, [], equilibrium._refine_newton

    def spy(*args):
        calls.append(args)
        return refine(*args)

    big = _tiled(sec4, 160)
    start = np.maximum(-big.bandwidths * np.log2(1.0 - 0.5 / 160), 0.0025)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(equilibrium, "_refine_newton", spy)
        for method in equilibrium._METHODS:
            solve(sec4, SolverOptions(method=method))
            solve(big, SolverOptions(method=method, min_rate=0.0025, init_rates=start,
                                     max_iter=50))
    return calls


def _halving_log(call):
    """ref.refine_newton's (step, s, feasible, accepted, at_iterate) probes on
    call, grouped by Newton step."""
    log = []
    used = ref.refine_newton(*call, halvings=log)[1]
    return [[h for h in log if h[0] == step] for step in range(1, used + 1)]


def _halving_kinds(call):
    """The kind of each Newton step of ref.refine_newton on call: 'none
    feasible', 'first passes' (the first feasible halving passes the residual
    test), 'first fails' (a later one passes) or 'none passes'."""
    kinds = []
    for probes in _halving_log(call):
        passed = [accepted for _, _, feasible, accepted, _ in probes if feasible]
        kinds.append("none feasible" if not passed else "first passes" if passed[0]
                     else "first fails" if passed[-1] else "none passes")
    return kinds


def _pinned(call):
    want = ref.refine_newton(*call)
    got = equilibrium._refine_newton(*call)
    assert (got[0].tolist(), *got[1:]) == (want[0].tolist(), *want[1:])
    return got


def test_newton_line_search_equals_the_halving_loop(newton_calls):
    kinds = []
    for call in newton_calls:
        rates, used, _ = _pinned(call)
        assert used == 0 or rates.base is None      # an owned array, not a view
        kinds += _halving_kinds(call)
    assert len(newton_calls) == 6 and len(kinds) > 60     # 76 Newton steps
    # 'none passes' steps stop where a halving rounds back to the iterate
    assert {"none feasible", "first fails", "first passes", "none passes"} <= set(kinds)


def test_a_stalled_newton_step_stops_at_the_first_halving_equal_to_the_iterate(
        newton_calls, monkeypatch):
    # it evaluates the iterate and each feasible halving before that one, not
    # the 47 feasible halvings the literal loop reads to its end
    evaluated, residual = [], equilibrium._foc_residual

    def spy(r, *args):
        evaluated[-1] += len(np.atleast_2d(r))      # profiles, a stack's rows too
        return residual(r, *args)

    monkeypatch.setattr(equilibrium, "_foc_residual", spy)
    want = []
    for call in newton_calls:
        r_start, cfg, m, _ = call
        for step, probes in enumerate(_halving_log(call), 1):
            if any(p[3] for p in probes) or not any(p[2] for p in probes):
                continue
            first = next(k for k, p in enumerate(probes) if p[4])
            want.append(1 + sum(p[2] for p in probes[:first]))
            before = ref.refine_newton(r_start, cfg, m, step - 1)[0]
            evaluated.append(0)
            rates, used, _ = _pinned((before, cfg, m, 1))
            assert used == 1 and np.array_equal(rates, before)
    assert evaluated == want == [5, 9, 5, 9]      # two at n = 10, two at n = 160


def test_newton_raises_where_the_halving_loop_reads_an_infeasible_gradient(sec4_cfg, monkeypatch):
    # a wider margin for the gradient only, as in the best-response test: the
    # start lies inside it and the Newton step past it, so the literal loop
    # raises at the step, and the line search does too
    start = solve(sec4_cfg).rates * 0.97
    default = model.DEFAULT_FEASIBILITY_MARGIN
    monkeypatch.setattr(model, "DEFAULT_FEASIBILITY_MARGIN", 1e-3)

    def at_the_default_margin(*args):       # _invert, the feasibility kernel, reads it too
        model.DEFAULT_FEASIBILITY_MARGIN = default
        try:
            return _invert(*args)
        finally:
            model.DEFAULT_FEASIBILITY_MARGIN = 1e-3

    for module in (model, equilibrium):
        monkeypatch.setattr(module, "_invert", at_the_default_margin)
    assert gradient_all(start, sec4_cfg).shape == (10,)
    want = _outcome(ref.refine_newton, start, sec4_cfg, 0.1, 20)
    assert want[0] is InfeasibleRates
    assert _outcome(equilibrium._refine_newton, start, sec4_cfg, 0.1, 20) == want


@pytest.mark.parametrize("kind", ["none feasible", "first fails"])
def test_newton_steps_with_no_feasible_halving_or_a_failing_first_one(newton_calls, kind):
    # the iterate before the first such step, refined by that one step
    call, step = next((c, k) for c in newton_calls
                      for k, found in enumerate(_halving_kinds(c), 1) if found == kind)
    r_start, cfg, m, _ = call
    before = ref.refine_newton(r_start, cfg, m, step - 1)[0]
    one = (before, cfg, m, 1)
    assert _halving_kinds(one) == [kind]
    rates, used, _ = _pinned(one)
    assert used == 1
    assert np.array_equal(rates, before) == (kind == "none feasible")


def test_a_free_sets_jacobian_block_is_the_full_jacobians(sec4_cfg):
    # the Newton step's block equals the full matrix's rows and columns of its
    # free set under ==: on every iterate of the sec4 traces, at min_rate 0.1
    # and at 0.3, where the dynamics pin sensors at the floor, and on
    # _step_cases with every third sensor pinned at min_rate
    cases = [(sec4_cfg, r, m) for method in equilibrium._METHODS for m in (0.1, 0.3)
             for r in solve(sec4_cfg, SolverOptions(method=method, min_rate=m)).trace]
    for cfg, r, m in _step_cases(sec4_cfg):
        pinned = np.maximum(r, m)
        pinned[::3] = m
        cases.append((cfg, pinned, m))
    partial = full = 0
    for cfg, r, m in cases:
        if not _profile_feasible(r, cfg):
            continue
        _, _, free, terms = equilibrium._foc_residual(r, cfg, m)
        idx = np.flatnonzero(free)
        block = _foc_hessian(r, cfg, terms, free)
        assert np.array_equal(block, _foc_hessian(r, cfg, terms)[np.ix_(idx, idx)])
        partial += 0 < idx.size < r.size
        full += idx.size == r.size
    assert partial >= 10 and full > 800     # 10 and 838
