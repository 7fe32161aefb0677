"""Bit-identity of the profile kernel and the searches built on it.

Every comparison here is exact (`==` / `array_equal`): the kernel keeps the
arithmetic of the reference inversion, and the stacked, exception-free
searches must return the very floats of the reference searches.
"""

import warnings

import numpy as np
import pytest

import reference_search as ref
from conftest import make_config, make_sensor
from crowdgame import equilibrium, model, oracle
from crowdgame.equilibrium import (
    _best_response_full,
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
    _invert,
    _second_derivatives,
    _utility,
    _utility_along,
    invert_rates,
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

    def recording(R, cfg, *args):
        if R.ndim == 2:
            sizes.append(R.size)
        return _invert(R, cfg, *args)

    monkeypatch.setattr(model, "_invert", recording)
    r = np.full(10, 0.2)
    grid = np.linspace(0.1, rate_upper_bound(3, r, sec4_cfg), 10_000)
    _utility_along(3, r, grid, sec4_cfg)        # the verify grid: 10^5 rates
    assert sizes and max(sizes) <= model._STACK_SIZE
    R = 0.1 + 0.2 * _halton(0, 40, 10)
    want_u = _utility_along(3, r, grid[:37], sec4_cfg)
    want_d2 = _second_derivatives(R, sec4_cfg, np.arange(10))
    monkeypatch.setattr(model, "_STACK_SIZE", 50)
    sizes.clear()
    assert np.array_equal(_utility_along(3, r, grid[:37], sec4_cfg), want_u)
    got_d2 = _second_derivatives(R, sec4_cfg, np.arange(10))
    assert len(sizes) > 10 and max(sizes) <= 50
    for got, want in zip(got_d2, want_d2):
        assert np.array_equal(got, want, equal_nan=True)


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
        (sec4_cfg, (0.0, 0.5), 10),         # a zero rate at the first point
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
    report = check_existence(sec4_cfg, (0.1, 0.5), 1000)
    assert (report.details.evaluated, report.details.skipped) == (1000, 757)


def test_second_derivative_matches_scalar_reference(sec4_cfg):
    rng = np.random.default_rng(15)
    profiles = _boundary_profiles(sec4_cfg, rng, 40)
    # steps that leave the region at h and come back at h/10, or never do
    for k, i in enumerate(rng.integers(0, 10, size=40)):
        r = rng.uniform(0.05, 0.2, size=10)
        hi = rate_upper_bound(i, r, sec4_cfg, 0.0)
        r[i] = hi - (0.5e-4 if k % 2 else 1e-7) * max(1.0, hi)
        profiles.append(r)
    profiles += [np.r_[0.0, np.full(9, 0.1)], np.r_[np.nan, np.full(9, 0.1)]]
    seen = set()
    for r in profiles:
        for i in range(10):
            want = _outcome(ref.utility_second_derivative, i, r, sec4_cfg)
            assert _outcome(utility_second_derivative, i, r, sec4_cfg) == want
            seen.add(want[0] if isinstance(want, tuple) else float)
    assert seen == {float, InfeasibleRates, PowerBoundExceeded, ValueError}
    with pytest.raises(ValueError, match="finite"):    # the copy warns here
        utility_second_derivative(0, np.r_[0.1, np.full(9, np.inf)], sec4_cfg)
