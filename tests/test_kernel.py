"""Bit-identity of the profile kernel and the searches built on it.

Every comparison here is exact (`==` / `array_equal`): the kernel keeps the
arithmetic of the reference inversion, and the stacked, exception-free
searches must return the very floats of the reference searches.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest

import reference_search as ref
from conftest import make_config, make_sensor, random_feasible_rates
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
    _utility,
    _utility_along,
    _with_entry,
    gradient_all,
    invert_rates,
    utility_gradient_analytic,
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
    want = [_utility(0, np.array([x]), single_interior_cfg) for x in grid]
    assert np.array_equal(_utility_along(0, np.zeros(1), grid, single_interior_cfg), want)
    rng = np.random.default_rng(14)
    for i, points in ((0, 64), (4, 7000), (9, 2)):   # 7000 x 10 spans two chunks
        r = rng.uniform(0.05, 0.25, size=10)
        hi = rate_upper_bound(i, r, sec4_cfg, 0.0)
        grid = np.linspace(0.0, hi, points)
        want = []
        for x in grid:
            r[i] = x
            want.append(_utility(i, r, sec4_cfg))
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


def test_verify_worst_gain_matches_reference(sec4_cfg):
    res = solve(sec4_cfg)
    for r, grid_points in ((res.rates, 2000), (res.rates * 0.98, 500)):
        _, worst = verify_epsilon_ne(r, sec4_cfg, 1e-6, grid_points)
        assert worst == ref.verify_worst_gain(r, sec4_cfg, grid_points, 0.1)


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


def test_best_response_matches_reference_on_boundary_and_tiled_profiles(sec4_cfg):
    cases = _hard_search_cases(sec4_cfg)
    got = [_outcome(_best_response_full, i, r, cfg, m) for cfg, r, i, m in cases]
    want = [_outcome(ref.best_response, i, r, cfg, m) for cfg, r, i, m in cases]
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

    for name in ("_utility_along", "_own_utilities"):
        monkeypatch.setattr(equilibrium, name, spying(getattr(equilibrium, name)))
    for cfg, r, i, m in _hard_search_cases(sec4_cfg):
        _outcome(_best_response_full, i, r, cfg, m)
    values = np.concatenate(outputs)
    assert values.size > 50_000 and np.isfinite(values).all()


def test_verify_worst_gain_matches_reference_on_boundary_and_tiled_profiles(sec4_cfg):
    cases = [(cfg, r) for cfg, r, i, m in _hard_search_cases(sec4_cfg)[::20]]
    compared = 0
    for cfg, r in cases:
        got = _outcome(lambda r: verify_epsilon_ne(r, cfg, 1e-6, 64, 0.0)[1], r)
        assert got == _outcome(ref.verify_worst_gain, r, cfg, 64, 0.0)
        compared += isinstance(got, float)
    assert compared >= 15 and cases[-1][0].n_sensors == 160


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


def test_replay_table_reads_raise_the_scalar_kernels_errors(sec4_cfg):
    kinds = set()
    for others in (0.01, 0.12):     # quiet opponents: sensor 4's own cap binds first
        r, i = np.full(10, others), 4
        hi = rate_upper_bound(i, r, sec4_cfg, 0.0)
        p = equilibrium._OwnRate(i, r, 0.0, hi, 64, sec4_cfg)
        for x in (hi, hi * 1.001, hi * 1.5, 3.0):   # past the interval, then the load
            want = _outcome(_utility, i, _with_entry(r, i, x), sec4_cfg)
            assert _outcome(p.util, x) == want
            kinds.add(want[0] if isinstance(want, tuple) else float)
            want = _outcome(_own_gradient, i, _with_entry(r, i, x), sec4_cfg)
            assert _outcome(p.grad, x) == want
            kinds.add(want[0] if isinstance(want, tuple) else float)
    assert kinds == {float, PowerBoundExceeded, InfeasibleRates}


@pytest.mark.parametrize("margin", [1e-4, 1e-3])
def test_best_response_raises_where_the_literal_search_reads_an_infeasible_gradient(
    sec4_cfg, monkeypatch, margin
):
    # a wider margin for the gradient only: near the load limit the polish
    # reads gradients the utility kernel still accepts
    monkeypatch.setattr(model, "DEFAULT_FEASIBILITY_MARGIN", margin)
    monkeypatch.setattr(ref, "GRADIENT_MARGIN", margin)
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

    def scalar(*args):
        raise AssertionError("a scalar kernel call inside a search")

    for name in ("_utility_along", "_own_utilities", "_own_gradients"):
        monkeypatch.setattr(equilibrium, name, counting(getattr(equilibrium, name)))
    monkeypatch.setattr(model, "_utility", scalar)
    monkeypatch.setattr(model, "_gradient", scalar)
    for r in profiles:
        for i in range(10):
            for m in (0.0, 0.1):
                counts.append(0)
                _outcome(_best_response_full, i, r, sec4_cfg, m)
    # about 88 scalar probes a call before the searches were replayed
    assert len(counts) > 1000 and np.mean(counts) <= 7.0 and max(counts) <= 12
    counts.append(0)
    verify_epsilon_ne(profiles[-1], sec4_cfg, 1e-6, 500)
    assert counts[-1] <= 10 * 12
