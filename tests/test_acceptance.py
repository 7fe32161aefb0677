"""Acceptance suite: one test per release criterion, each printing a verdict.

Every criterion runs at its stated tolerance against the ten-sensor study
config shipped in configs/paper_sec4.cfg.
"""

import csv
import time

import numpy as np
import pytest

from conftest import SEC4_CONFIG_PATH
from crowdgame import expcli, oracle
from crowdgame.equilibrium import SolverOptions, check_existence, solve
from crowdgame.model import (
    blockchain_power,
    forward_rates,
    invert_rates,
    transaction_fee,
    utility_gradient_analytic,
    utility_rate_space,
    utility_second_derivative,
)
from crowdgame.oracle import utility_gradient


def report(number: int, description: str, ok: bool):
    verdict = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number:2d} [{verdict}] {description}")
    assert ok, f"criterion {number}: {description}"


@pytest.fixture(scope="module")
def cfg():
    return expcli.load_config(str(SEC4_CONFIG_PATH))


@pytest.fixture(scope="module")
def gs_result(cfg):
    return solve(cfg, SolverOptions(method="gauss_seidel_br", tol=1e-8))


def sample_feasible_rates(cfg, rng, count, high=0.45, max_load=0.99):
    out = []
    while len(out) < count:
        r = rng.uniform(0.0, high, size=cfg.n_sensors)
        try:
            _, inv = invert_rates(r, cfg)
        except Exception:
            continue
        if inv.load < max_load:
            out.append(r)
    return out


def test_criterion_1_roundtrip_inverse(cfg):
    rng = np.random.default_rng(1001)
    vectors = sample_feasible_rates(cfg, rng, 1000)
    start = time.perf_counter()
    worst = 0.0
    for r in vectors:
        p, _ = invert_rates(r, cfg)
        err = np.max(np.abs(forward_rates(p, cfg) - r))
        worst = max(worst, err / (1.0 + np.max(np.abs(r))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 1.0
    report(
        1,
        f"round-trip inverse on 1000 rate vectors "
        f"(worst rel err {worst:.2e}, {elapsed:.2f}s)",
        ok,
    )


def test_criterion_2_scalar_rate_cross_check(cfg):
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(1000):
        p = rng.uniform(0.0, cfg.power_caps)
        vec = forward_rates(p, cfg)
        for i in range(cfg.n_sensors):
            ref = oracle.scalar_rate(i, p, cfg)
            worst = max(worst, abs(vec[i] - ref) / max(abs(ref), 1e-300))
    ok = worst <= 1e-12
    report(
        2,
        f"forward_rates vs scalar oracle on 1000 power vectors "
        f"(worst rel err {worst:.2e})",
        ok,
    )


def test_criterion_3_fee_conservation(cfg):
    rng = np.random.default_rng(1003)
    worst = 0.0
    for r in sample_feasible_rates(cfg, rng, 1000):
        total_rate = float(r.sum())
        if total_rate <= 0.0:
            continue
        fees = sum(transaction_fee(i, r, cfg) for i in range(cfg.n_sensors))
        bill = blockchain_power(total_rate, cfg.blockchain)
        worst = max(worst, abs(fees - bill) / bill)
    ok = worst <= 1e-12
    report(
        3,
        f"fee conservation on 1000 feasible profiles (worst rel err {worst:.2e})",
        ok,
    )


def test_criterion_4_concavity(cfg):
    start = time.perf_counter()
    rep = check_existence(cfg, region=(0.1, 0.5), samples=1000)
    elapsed = time.perf_counter() - start
    bc = cfg.blockchain
    margin = bc.quad_coeff * bc.compute_coeff**2 - bc.const_coeff
    ok = (
        rep.condition_a
        and margin == pytest.approx(0.8, rel=1e-12)
        and rep.numeric_concavity
        and rep.details.evaluated == 1000
        and elapsed < 5.0
    )
    report(
        4,
        f"a*m^2 - c = {margin:.3f} >= 0 and all 1000 sampled second "
        f"derivatives negative (worst {rep.details.value:.3e}, {elapsed:.2f}s)",
        ok,
    )


def test_criterion_5_equilibrium_certification(cfg, gs_result):
    start = time.perf_counter()
    res = solve(cfg, SolverOptions(method="gauss_seidel_br", tol=1e-8))
    worst_gain = oracle.grid_certify_ne(res.rates, cfg, 10_000)
    elapsed = time.perf_counter() - start
    ok = (
        res.converged
        and res.iterations <= 10_000
        and worst_gain <= 1e-6
        and elapsed < 20.0
    )
    report(
        5,
        f"Gauss-Seidel converged in {res.iterations} iterations; grid "
        f"certification worst gain {worst_gain:.2e} at 10000 points "
        f"({elapsed:.1f}s)",
        ok,
    )


def test_criterion_6_method_agreement(cfg, gs_result):
    ja = solve(cfg, SolverOptions(method="jacobi_br", tol=1e-8))
    ga = solve(cfg, SolverOptions(method="gradient_ascent", step_size=1e-3, tol=1e-8))
    d1 = float(np.max(np.abs(gs_result.rates - ja.rates)))
    d2 = float(np.max(np.abs(gs_result.rates - ga.rates)))
    d3 = float(np.max(np.abs(ja.rates - ga.rates)))
    ok = (
        ja.converged and ga.converged and max(d1, d2, d3) <= 1e-4
    )
    report(
        6,
        f"method agreement: GS-Jacobi {d1:.2e}, GS-gradient {d2:.2e}, "
        f"Jacobi-gradient {d3:.2e} (all <= 1e-4)",
        ok,
    )


def test_criterion_7_compute_coeff_sweep_trend(cfg, tmp_path):
    out = tmp_path / "sweep.csv"
    code = expcli.main(
        [
            "sweep", "--config", str(SEC4_CONFIG_PATH), "--out", str(out),
            "--sweep-param", "blockchain.compute_coeff",
            "--sweep-values", "2.4,2.7,3.0,3.3",
        ]
    )
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    r2 = [float(row["r_2"]) for row in rows]
    r3 = [float(row["r_3"]) for row in rows]
    dec = all(a > b for a, b in zip(r2, r2[1:]))
    inc = all(a < b for a, b in zip(r3, r3[1:]))
    ok = code == 0 and len(rows) == 4 and dec and inc
    report(
        7,
        f"compute-coefficient sweep: r_2 strictly decreasing ({dec}), "
        f"r_3 strictly increasing ({inc})",
        ok,
    )


def test_criterion_8_best_response_curve_unimodal(cfg, gs_result, tmp_path):
    out = tmp_path / "curve.csv"
    code = expcli.main(
        [
            "br-curve", "--config", str(SEC4_CONFIG_PATH), "--out", str(out),
            "--sensor", "2", "--points", "512",
        ]
    )
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    curve = [r for r in rows if r["is_best_response"] == "0"]
    marker = [r for r in rows if r["is_best_response"] == "1"]
    u = np.array([float(r["utility"]) for r in curve])
    x = np.array([float(r["rate"]) for r in curve])
    peaks = 0
    for j in range(len(u)):
        left_ok = j == 0 or u[j] > u[j - 1]
        right_ok = j == len(u) - 1 or u[j] > u[j + 1]
        if left_ok and right_ok:
            peaks += 1
    cell = x[1] - x[0]
    br_rate = float(marker[0]["rate"])
    argmax_rate = x[int(np.argmax(u))]
    near = abs(br_rate - argmax_rate) <= cell
    ok = code == 0 and len(curve) == 512 and len(marker) == 1 and peaks == 1 and near
    report(
        8,
        f"512-point best-response curve has exactly {peaks} local maximum; "
        f"solver response within one cell of the curve argmax ({near})",
        ok,
    )


def test_criterion_9_equilibrium_structure(cfg, gs_result):
    r = gs_result.rates
    u = gs_result.utilities
    top4 = set(np.argsort(-r)[:4])
    structure = top4 == {0, 3, 6, 9}
    gap = u[0] / u[1] > r[0] / r[1]
    ok = structure and gap
    report(
        9,
        f"sensors 1,4,7,10 hold the four largest rates ({structure}); "
        f"u1/u2 = {u[0]/u[1]:.6f} > r1/r2 = {r[0]/r[1]:.6f} ({gap})",
        ok,
    )


def test_criterion_10_derivative_fidelity(cfg):
    rng = np.random.default_rng(1010)
    points = sample_feasible_rates(cfg, rng, 100, high=0.35, max_load=0.97)
    worst_g = 0.0
    worst_h = 0.0
    for r in points:
        r = np.maximum(r, 0.05)
        i = int(rng.integers(0, cfg.n_sensors))
        fd = utility_gradient(i, r, cfg)
        an = utility_gradient_analytic(i, r, cfg)
        worst_g = max(worst_g, abs(an - fd) / max(abs(fd), 1e-12))
        h = max(1e-4, 1e-4 * r[i])
        up = r.copy(); up[i] += h
        dn = r.copy(); dn[i] -= h
        fd2 = (
            utility_rate_space(i, up, cfg)
            - 2.0 * utility_rate_space(i, r, cfg)
            + utility_rate_space(i, dn, cfg)
        ) / (h * h)
        val = utility_second_derivative(i, r, cfg)
        worst_h = max(worst_h, abs(val - fd2) / max(abs(fd2), 1e-12))
    ok = worst_g <= 1e-5 and worst_h <= 1e-4
    report(
        10,
        f"derivative fidelity at 100 interior points: gradient rel err "
        f"{worst_g:.2e} (<= 1e-5), second-derivative rel err {worst_h:.2e} "
        f"(<= 1e-4)",
        ok,
    )
