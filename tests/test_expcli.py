import csv
import json

import numpy as np
import pytest

from conftest import SEC4_CONFIG_PATH
from crowdgame import expcli
from crowdgame.expcli import (
    EXIT_CONFIG,
    EXIT_EXISTENCE,
    EXIT_INFEASIBLE,
    EXIT_NONCONVERGENCE,
    EXIT_OK,
    ConfigError,
    ExperimentSpec,
    config_to_dict,
    load_config,
    main,
    run_sweep,
    save_config,
)

SINGLE_DOC = {
    "sensors": {
        "bandwidth": [2.0],
        "channel_gain": 1.0,
        "ap_distance": 1.0,
        "path_loss_exp": 2.0,
        "circuit_power": 1.0,
        "unit_rate_price": 2.0,
        "beacon_distance": 1.0,
        "max_received_power": 10.0,
    },
    "noise_variance": 1.0,
    "power_price": 0.01,
    "wpt_path_loss_exp": 2.0,
    "blockchain": {
        "quad_coeff": 0.1,
        "lin_coeff": 0.1,
        "const_coeff": 0.1,
        "compute_coeff": 3.0,
    },
}


def write_doc(tmp_path, doc, name="game.cfg"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        lines = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


# ---------------------------------------------------------------------------
# config loading
# ---------------------------------------------------------------------------

def test_load_bundled_config():
    cfg = load_config(str(SEC4_CONFIG_PATH))
    assert cfg.n_sensors == 10
    bc = cfg.blockchain
    assert (bc.quad_coeff, bc.lin_coeff, bc.const_coeff, bc.compute_coeff) == (
        0.1, 0.1, 0.1, 3.0,
    )
    np.testing.assert_array_equal(cfg.bandwidths, np.full(10, 2.0))
    np.testing.assert_array_equal(
        cfg.circuit_powers, [1, 2, 3, 1, 2, 3, 1, 2, 3, 1]
    )
    np.testing.assert_allclose(
        cfg.beacon_distances,
        1.0 + np.array([1, 2, 3, 1, 2, 3, 1, 2, 3, 1]) * 1e-3,
    )


def test_missing_noise_variance_names_field(tmp_path):
    doc = json.loads(json.dumps(SINGLE_DOC))
    del doc["noise_variance"]
    with pytest.raises(ConfigError, match="noise_variance"):
        load_config(write_doc(tmp_path, doc))


def test_negative_gain_names_field(tmp_path):
    doc = json.loads(json.dumps(SINGLE_DOC))
    doc["sensors"]["channel_gain"] = -1.0
    with pytest.raises(ConfigError, match="channel_gain"):
        load_config(write_doc(tmp_path, doc))


def test_parse_error_reports_location(tmp_path):
    path = tmp_path / "broken.cfg"
    path.write_text('{"sensors": }')
    with pytest.raises(ConfigError, match="line 1"):
        load_config(str(path))


def test_unknown_field_rejected(tmp_path):
    doc = json.loads(json.dumps(SINGLE_DOC))
    doc["frequency"] = 5.0
    with pytest.raises(ConfigError, match="frequency"):
        load_config(write_doc(tmp_path, doc))


def test_array_length_mismatch(tmp_path):
    doc = json.loads(json.dumps(SINGLE_DOC))
    doc["sensors"]["bandwidth"] = [2.0, 2.0]
    doc["sensors"]["channel_gain"] = [1.0, 1.0, 1.0]
    with pytest.raises(ConfigError, match="length"):
        load_config(write_doc(tmp_path, doc))


def test_all_scalar_sensors_rejected(tmp_path):
    doc = json.loads(json.dumps(SINGLE_DOC))
    doc["sensors"]["bandwidth"] = 2.0
    with pytest.raises(ConfigError, match="array"):
        load_config(write_doc(tmp_path, doc))


def test_power_cap_defaults(tmp_path):
    doc = json.loads(json.dumps(SINGLE_DOC))
    del doc["sensors"]["max_received_power"]
    cfg = load_config(write_doc(tmp_path, doc))
    assert cfg.sensors[0].max_received_power == 10.0


def test_config_round_trip(tmp_path):
    cfg = load_config(str(SEC4_CONFIG_PATH))
    out = tmp_path / "round.cfg"
    save_config(cfg, str(out))
    again = load_config(str(out))
    assert again == cfg
    assert config_to_dict(again) == config_to_dict(cfg)


def test_experiment_spec_invariants(tmp_path):
    from crowdgame.expcli import ExperimentSpec

    cfg_path = write_doc(tmp_path, SINGLE_DOC)
    with pytest.raises(ConfigError, match="sweep"):
        ExperimentSpec(config_path=cfg_path, command="sweep")
    with pytest.raises(ConfigError, match="sweep_param"):
        ExperimentSpec(
            config_path=cfg_path, command="solve", sweep_param="noise_variance",
            sweep_values=[1.0],
        )
    with pytest.raises(ConfigError, match="curve_sensor"):
        ExperimentSpec(config_path=cfg_path, command="br-curve")
    with pytest.raises(ConfigError, match="curve_sensor"):
        ExperimentSpec(config_path=cfg_path, command="solve", curve_sensor=0)


def test_set_param_paths():
    doc = json.loads(json.dumps(SINGLE_DOC))
    expcli._set_param(doc, "blockchain.compute_coeff", 2.5)
    assert doc["blockchain"]["compute_coeff"] == 2.5
    expcli._set_param(doc, "noise_variance", 2.0)
    assert doc["noise_variance"] == 2.0
    expcli._set_param(doc, "sensors.unit_rate_price", 0.0)
    assert doc["sensors"]["unit_rate_price"] == 0.0
    with pytest.raises(ConfigError):
        expcli._set_param(doc, "sensors.favourite_colour", 1.0)
    with pytest.raises(ConfigError):
        expcli._set_param(doc, "nope", 1.0)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def test_solve_single_sensor_csv(tmp_path):
    cfg_path = write_doc(tmp_path, SINGLE_DOC)
    out = tmp_path / "solve.csv"
    code = main(["solve", "--config", cfg_path, "--out", str(out)])
    assert code == EXIT_OK
    text = out.read_text()
    rows = read_csv(out)
    assert len(rows) == 1
    assert rows[0]["sensor_id"] == "1"
    footer = [ln for ln in text.splitlines() if ln.startswith("#")]
    assert len(footer) == 1
    assert "converged=true" in footer[0]
    # a one-sensor game needs at most two sweeps
    iters = int(footer[0].split("iterations=")[1].split()[0])
    assert iters <= 2


def test_solve_csv_deterministic(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for out in (out1, out2):
        code = main(["solve", "--config", str(SEC4_CONFIG_PATH), "--out", str(out)])
        assert code == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_records_failures_in_row(tmp_path):
    cfg_path = write_doc(tmp_path, SINGLE_DOC)
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep", "--config", cfg_path, "--out", str(out),
            "--sweep-param", "noise_variance", "--sweep-values", "1.0,-1.0,2.0",
        ]
    )
    assert code == EXIT_NONCONVERGENCE
    rows = read_csv(out)
    assert len(rows) == 3
    assert rows[0]["status"] == "ok"
    assert rows[1]["status"].startswith("error")
    assert rows[2]["status"] == "ok"


def test_sweep_passes_options_but_not_the_start(tmp_path):
    from dataclasses import replace

    from crowdgame.equilibrium import SolverOptions, solve

    opts = SolverOptions(max_iter=2, refine_after=0)
    out = tmp_path / "sweep.csv"
    spec = ExperimentSpec(
        config_path=str(SEC4_CONFIG_PATH), command="sweep",
        solver=replace(opts, init_rates=np.full(10, 0.3)), output_path=str(out),
        sweep_param="power_price", sweep_values=[0.01],   # sec4's own value
    )
    assert run_sweep(spec) == EXIT_NONCONVERGENCE
    row = out.read_text().splitlines()[1].split(",")
    res = solve(load_config(str(SEC4_CONFIG_PATH)), opts)
    assert row[:13] == ["0.01", "non-convergence", "2"] + [f"{x:.12g}" for x in res.rates]


def test_sweep_empty_values_is_config_error(tmp_path):
    cfg_path = write_doc(tmp_path, SINGLE_DOC)
    code = main(
        [
            "sweep", "--config", cfg_path,
            "--sweep-param", "noise_variance", "--sweep-values", ",",
        ]
    )
    assert code == EXIT_CONFIG


def test_sweep_zero_price_pins_rates_to_min_rate(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep", "--config", str(SEC4_CONFIG_PATH), "--out", str(out),
            "--sweep-param", "sensors.unit_rate_price", "--sweep-values", "0",
        ]
    )
    assert code == EXIT_OK
    row = read_csv(out)[0]
    for i in range(10):
        assert float(row[f"r_{i + 1}"]) == 0.1


def test_br_curve_zero_price_peaks_at_left_endpoint(tmp_path):
    doc = json.loads(json.dumps(SINGLE_DOC))
    doc["sensors"]["bandwidth"] = [2.0, 2.0]
    doc["sensors"]["unit_rate_price"] = [20.0, 0.0]
    doc["sensors"]["circuit_power"] = [1.0, 2.0]
    cfg_path = write_doc(tmp_path, doc)
    out = tmp_path / "curve.csv"
    code = main(
        ["br-curve", "--config", cfg_path, "--sensor", "2", "--out", str(out),
         "--points", "128"]
    )
    assert code == EXIT_OK
    rows = read_csv(out)
    assert len(rows) == 129          # 128 curve points plus the marker row
    utilities = [float(r["utility"]) for r in rows]
    assert np.argmax(utilities) == 0
    marker = [r for r in rows if r["is_best_response"] == "1"]
    assert len(marker) == 1
    assert float(marker[0]["rate"]) == 0.1


def test_check_exit_codes(tmp_path, capsys):
    code = main(
        ["check", "--config", str(SEC4_CONFIG_PATH), "--samples", "30"]
    )
    assert code == EXIT_OK
    captured = capsys.readouterr()
    assert "condition_a" in captured.out

    doc = json.loads(json.dumps(SINGLE_DOC))
    doc["blockchain"]["quad_coeff"] = 0.0
    doc["blockchain"]["compute_coeff"] = 1.0
    code = main(["check", "--config", write_doc(tmp_path, doc), "--samples", "5"])
    assert code == EXIT_EXISTENCE


def test_check_infeasible_region_exit_code():
    code = main(
        [
            "check", "--config", str(SEC4_CONFIG_PATH),
            "--region-low", "0.5", "--region-high", "0.6", "--samples", "5",
        ]
    )
    assert code == EXIT_INFEASIBLE


def test_config_error_exit_code(tmp_path):
    missing = tmp_path / "nope.cfg"
    assert main(["solve", "--config", str(missing)]) == EXIT_CONFIG

    doc = json.loads(json.dumps(SINGLE_DOC))
    doc["sensors"]["channel_gain"] = -1.0
    assert main(["solve", "--config", write_doc(tmp_path, doc)]) == EXIT_CONFIG


def test_bad_solver_option_exit_code(tmp_path):
    cfg_path = write_doc(tmp_path, SINGLE_DOC)
    assert main(["solve", "--config", cfg_path, "--tol", "0"]) == EXIT_CONFIG
    assert main(["solve", "--config", cfg_path, "--tol", "nan"]) == EXIT_CONFIG
    assert (
        main(
            ["check", "--config", cfg_path, "--region-low", "0.5",
             "--region-high", "0.2", "--samples", "5"]
        )
        == EXIT_CONFIG
    )


def test_text_reports_go_to_out_and_stdout(tmp_path, capsys):
    cfg_path = write_doc(tmp_path, SINGLE_DOC)
    for cmd in (["check", "--samples", "5"], ["verify", "--grid-points", "200"]):
        out = tmp_path / f"{cmd[0]}.txt"
        assert main([cmd[0], "--config", cfg_path, "--out", str(out), *cmd[1:]]) == EXIT_OK
        assert out.read_text() == capsys.readouterr().out
        assert out.read_text().count("\n") in (4, 5)


def test_check_rejects_an_infinite_region(tmp_path, capsys):
    cfg_path = write_doc(tmp_path, SINGLE_DOC)
    code = main(["check", "--config", cfg_path, "--region-high", "inf"])
    assert code == EXIT_CONFIG
    assert "region must be finite" in capsys.readouterr().err


def test_verify_command(tmp_path, capsys):
    cfg_path = write_doc(tmp_path, SINGLE_DOC)
    code = main(
        ["verify", "--config", cfg_path, "--epsilon", "1e-6",
         "--grid-points", "2000"]
    )
    assert code == EXIT_OK
    assert "verified: True" in capsys.readouterr().out


def test_module_invocation_end_to_end(tmp_path):
    import subprocess
    import sys

    out = tmp_path / "solve.csv"
    proc = subprocess.run(
        [
            sys.executable, "-m", "crowdgame.expcli",
            "solve", "--config", str(SEC4_CONFIG_PATH), "--out", str(out),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_OK
    assert out.read_text().startswith("sensor_id,rate,power")
    # determinism holds across processes, not just within one
    inproc = tmp_path / "solve_inproc.csv"
    assert main(
        ["solve", "--config", str(SEC4_CONFIG_PATH), "--out", str(inproc)]
    ) == EXIT_OK
    assert out.read_bytes() == inproc.read_bytes()


def test_nonconvergence_exit_code(tmp_path):
    out = tmp_path / "solve.csv"
    code = main(
        [
            "solve", "--config", str(SEC4_CONFIG_PATH), "--out", str(out),
            "--max-iter", "3", "--refine-after", "0",
        ]
    )
    assert code == EXIT_NONCONVERGENCE
    assert "converged=false" in out.read_text()
