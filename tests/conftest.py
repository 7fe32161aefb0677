from pathlib import Path

import numpy as np
import pytest

from crowdgame import expcli
from crowdgame.model import BlockchainParams, GameConfig, SensorParams

REPO_ROOT = Path(__file__).resolve().parent.parent
SEC4_CONFIG_PATH = REPO_ROOT / "configs" / "paper_sec4.cfg"

SEC4_BLOCKCHAIN = BlockchainParams(
    quad_coeff=0.1, lin_coeff=0.1, const_coeff=0.1, compute_coeff=3.0
)


def make_sensor(**overrides) -> SensorParams:
    """Sensor from the worked single-sensor example, with overrides."""
    params = dict(
        bandwidth=2.0,
        channel_gain=1.0,
        ap_distance=1.0,
        path_loss_exp=2.0,
        circuit_power=1.0,
        unit_rate_price=20.0,
        beacon_distance=1.0,
        max_received_power=10.0,
    )
    params.update(overrides)
    return SensorParams(**params)


def make_config(sensors, **overrides) -> GameConfig:
    params = dict(
        sensors=list(sensors),
        noise_variance=1.0,
        power_price=0.01,
        wpt_path_loss_exp=2.0,
        blockchain=SEC4_BLOCKCHAIN,
    )
    params.update(overrides)
    return GameConfig(**params)


@pytest.fixture(scope="session")
def sec4_cfg() -> GameConfig:
    return expcli.load_config(str(SEC4_CONFIG_PATH))


@pytest.fixture(scope="session")
def single_cfg() -> GameConfig:
    """One sensor with the worked-example constants (power cap binds)."""
    return make_config([make_sensor()])


@pytest.fixture(scope="session")
def single_interior_cfg() -> GameConfig:
    """One sensor with a small data price, so its optimum is interior."""
    return make_config([make_sensor(unit_rate_price=2.0)])


def random_feasible_rates(
    rng: np.random.Generator,
    cfg: GameConfig,
    n_vectors: int,
    high: float = 0.45,
    max_load: float = 0.99,
) -> list[np.ndarray]:
    """Rejection-sample rate profiles with load T below max_load."""
    from crowdgame.model import invert_rates

    out = []
    while len(out) < n_vectors:
        r = rng.uniform(0.0, high, size=cfg.n_sensors)
        try:
            _, inv = invert_rates(r, cfg)
        except Exception:
            continue
        if inv.load < max_load:
            out.append(r)
    return out


def own_rate_50_digits(mp, cfg: GameConfig, r: np.ndarray):
    """own(i)(x) = (utility, own gradient) of sensor i at r_i = x, the others
    at r, in mpmath at its working precision; build and call it there."""
    f = mp.mpf
    bc = cfg.blockchain
    a, lin, c, m = (f(v) for v in (bc.quad_coeff, bc.lin_coeff, bc.const_coeff,
                                   bc.compute_coeff))
    s2, am2 = f(cfg.noise_variance), f(bc.quad_coeff) * f(bc.compute_coeff) ** 2
    rates = [f(float(v)) for v in r]
    loads = [1 - mp.power(2, -v / f(s.bandwidth)) for v, s in zip(rates, cfg.sensors)]
    load, total_rate = mp.fsum(loads), mp.fsum(rates)

    def own(i):
        s = cfg.sensors[i]
        band, price, circuit = f(s.bandwidth), f(s.unit_rate_price), f(s.circuit_power)
        kappa = f(s.ap_distance) ** f(s.path_loss_exp) / f(s.channel_gain)
        wpt = f(cfg.power_price) * f(s.beacon_distance) ** f(cfg.wpt_path_loss_exp)
        others, rest = load - loads[i], total_rate - rates[i]

        def at(x):
            t = 1 - mp.power(2, -x / band)
            eps, total = 1 - others - t, rest + x
            power = circuit + t * s2 / eps * kappa
            fee = x / total * (a * (m * total) ** 2 + lin * m * total + c)
            dpower = wpt * kappa * s2 * mp.log(2) / band * (1 - t) * (eps + t) / eps**2
            dfee = am2 * total + lin * m + c / total + x * (am2 - c / total**2)
            return price * x - wpt * power - fee, price - dpower - dfee
        return at
    return own
