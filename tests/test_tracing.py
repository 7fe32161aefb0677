"""bench/tracing.py rebinds crowdgame's layer entry points by name.

A renamed or re-plumbed layer would silently drop out of the benchmark's
per-layer metrics, so this checks, from the tier-1 suite, that a traced solve
and a traced epsilon-NE check still see every layer and still give the same
answers as untraced ones.  The tracing module is imported by path and only
read, never changed.
"""

import importlib.util

import numpy as np

from conftest import REPO_ROOT
from crowdgame import equilibrium


def _load_tracing():
    path = REPO_ROOT / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("crowdgame_bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_solve_and_verify_see_every_layer(sec4_cfg):
    tracing = _load_tracing()
    plain = equilibrium.solve(sec4_cfg)
    plain_check = equilibrium.verify_epsilon_ne(plain.rates, sec4_cfg, 1e-6, 500)
    untraced_solve = equilibrium.solve

    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert equilibrium.solve is not untraced_solve
        traced = equilibrium.solve(sec4_cfg)
        traced_check = equilibrium.verify_epsilon_ne(traced.rates, sec4_cfg, 1e-6, 500)
    assert equilibrium.solve is untraced_solve

    assert np.array_equal(traced.rates, plain.rates)
    assert traced.iterations == plain.iterations
    assert traced_check == plain_check
    stats = tracing.layer_stats(tracer)
    for layer in (
        "equilibrium.sweep",
        "equilibrium.newton",
        "equilibrium.foc_residual",
        "equilibrium.best_response",
        "equilibrium.verify_epsilon_ne",
    ):
        assert stats[f"{layer}.calls"] > 0, layer
    assert stats["equilibrium.newton.steps"] > 0
    assert stats["equilibrium.newton.accept_frac"] > 0
    assert stats["equilibrium.solve.iterations"] == plain.iterations
