"""Seeded random games around the bundled sec4 config (ROADMAP item 12's
recipe), for properties that every solve must keep on any config.

The sec4 sensors, resized cyclically to n in SIZES, each constant scaled by
e^N(0, s): s = 4 for bandwidth, price and channel gain, s = 1 for the rest.
Path-loss exponents are drawn from U(2, 4) and each cap is the circuit power
plus e^N(2, 3).  Each blockchain coefficient, the power price and the noise
variance are scaled by e^N(0, 3), and min_rate is drawn from MIN_RATES.
"""

import math
from dataclasses import replace

import numpy as np

from crowdgame.model import BlockchainParams, GameConfig, SensorParams

SIZES = (1, 2, 3, 5, 10, 20)
MIN_RATES = (0.0, 0.01, 0.1)
_SPREAD = {"bandwidth": 4.0, "unit_rate_price": 4.0, "channel_gain": 4.0,
           "ap_distance": 1.0, "circuit_power": 1.0, "beacon_distance": 1.0}


def draw_game(rng: np.random.Generator, base: GameConfig) -> tuple[GameConfig, float]:
    """(config, min_rate) of one draw around `base`."""
    sensors = []
    for j in range(int(rng.choice(SIZES))):
        s = base.sensors[j % base.n_sensors]
        values = {name: getattr(s, name) * math.exp(rng.normal(0.0, spread))
                  for name, spread in _SPREAD.items()}
        values["path_loss_exp"] = rng.uniform(2.0, 4.0)
        values["max_received_power"] = values["circuit_power"] + math.exp(rng.normal(2.0, 3.0))
        sensors.append(SensorParams(**values))
    scale = lambda v: v * math.exp(rng.normal(0.0, 3.0))
    bc = base.blockchain
    chain = BlockchainParams(scale(bc.quad_coeff), scale(bc.lin_coeff),
                             scale(bc.const_coeff), scale(bc.compute_coeff))
    cfg = replace(base, sensors=sensors, blockchain=chain,
                  power_price=scale(base.power_price), noise_variance=scale(base.noise_variance))
    return cfg, float(rng.choice(MIN_RATES))
