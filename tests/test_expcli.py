import argparse
import csv
import json
import re

import numpy as np
import pytest

from conftest import REPO_ROOT, SEC4_CONFIG_PATH
from crowdgame import expcli
from crowdgame.equilibrium import EmptyFeasibleInterval
from crowdgame.expcli import (
    EXIT_CONFIG,
    EXIT_EXISTENCE,
    EXIT_INFEASIBLE,
    EXIT_NONCONVERGENCE,
    EXIT_OK,
    EXIT_VERIFY,
    ConfigError,
    ExperimentSpec,
    config_to_dict,
    load_config,
    main,
    run_sweep,
    save_config,
)
from crowdgame.model import InfeasibilityError

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
        [s.beacon_distance for s in cfg.sensors],
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


def _doc_paths(doc):
    """Every field path of a config document: 'sensors.<f>', 'blockchain.<f>'
    and the top-level names."""
    return [f"{key}.{sub}" if isinstance(value, dict) else key
            for key, value in doc.items()
            for sub in (value if isinstance(value, dict) else [None])]


def _without(doc, path):
    doc = json.loads(json.dumps(doc))
    head, _, key = path.partition(".")
    del (doc[head] if key else doc)[key or head]
    return doc


def test_config_schema_is_the_dataclass_fields(tmp_path):
    from dataclasses import fields

    from crowdgame.model import BlockchainParams, GameConfig, SensorParams

    init = lambda cls: [f.name for f in fields(cls) if f.init]      # noqa: E731
    schema = (init(GameConfig) + [f"sensors.{k}" for k in init(SensorParams)]
              + [f"blockchain.{k}" for k in init(BlockchainParams)])
    paths = _doc_paths(SINGLE_DOC)
    assert sorted(paths + ["sensors", "blockchain"]) == sorted(schema)
    # every field is required, except the power cap, which defaults to 10
    for path in paths + ["sensors", "blockchain"]:
        doc = _without(SINGLE_DOC, path)
        if path == "sensors.max_received_power":
            assert load_config(write_doc(tmp_path, doc)).sensors[0].max_received_power == 10.0
            continue
        with pytest.raises(ConfigError) as info:
            load_config(write_doc(tmp_path, doc))
        assert str(info.value) == f"missing required field '{path}'"
    # an unknown field, alone and then next to a missing one: only the sensor
    # object names the unknown field first
    for where, lost, want in (
        (None, "power_price", "unknown field 'colour'"),
        ("sensors", "sensors.channel_gain", "unknown sensor field 'sensors.colour'"),
        ("blockchain", "blockchain.lin_coeff", "unknown field 'blockchain.colour'"),
    ):
        doc = json.loads(json.dumps(SINGLE_DOC))
        (doc[where] if where else doc)["colour"] = 1.0
        both = want if where == "sensors" else f"missing required field '{lost}'"
        for case, first in ((doc, want), (_without(doc, lost), both)):
            with pytest.raises(ConfigError) as info:
                load_config(write_doc(tmp_path, case))
            assert str(info.value) == first
    # every number can be swept, and lands in its field (two sensor arrays: a
    # swept sensor field turns scalar, and one array must fix the count)
    for path in paths:
        doc = json.loads(json.dumps(SINGLE_DOC))
        doc["sensors"]["channel_gain"] = [1.0]
        expcli._set_param(doc, path, 1.5)
        cfg = expcli._build_config(doc)
        head, _, key = path.partition(".")
        owner = {"sensors": cfg.sensors[0], "blockchain": cfg.blockchain}.get(head, cfg)
        assert getattr(owner, key or head) == 1.5
    for path in ("sensors", "blockchain", "sensors.colour", "blockchain.colour", "colour"):
        with pytest.raises(ConfigError, match="unknown sweep parameter path"):
            expcli._set_param(json.loads(json.dumps(SINGLE_DOC)), path, 1.0)
    # a config with a defaulted power cap survives a save and a load
    cfg = load_config(write_doc(tmp_path, _without(SINGLE_DOC, "sensors.max_received_power")))
    save_config(cfg, str(tmp_path / "again.cfg"))
    assert load_config(str(tmp_path / "again.cfg")) == cfg


@pytest.mark.parametrize("value", [None, [[1.0]], {"value": 1.0}, "wide", True])
@pytest.mark.parametrize("path", ["sensors.channel_gain", "blockchain.lin_coeff",
                                  "power_price"])
def test_non_numeric_config_values_exit_3_naming_the_field(tmp_path, capsys, path, value):
    doc = json.loads(json.dumps(SINGLE_DOC))
    expcli._set_param(doc, path, value)
    kind = "a number or an array of numbers" if path.startswith("sensors.") else "a number"
    assert main(["solve", "--config", write_doc(tmp_path, doc)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: field '{path}' must be {kind}\n"


def test_a_huge_integer_reads_as_inf(tmp_path, capsys):
    path = tmp_path / "huge.cfg"
    text = json.dumps(SINGLE_DOC).replace('"power_price": 0.01', '"power_price": 1' + "0" * 400)
    path.write_text(text)
    assert main(["solve", "--config", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: power_price: must be finite and >= 0\n"


@pytest.mark.parametrize("edits, message", [
    ({"blockchain.compute_coeff": 1e200}, "blockchain: compute_coeff: m^2 overflows"),
    ({"sensors.ap_distance": 10.0, "sensors.path_loss_exp": 400.0},
     "sensors[0]: ap_distance**path_loss_exp / channel_gain is not finite"),
    ({"sensors.beacon_distance": 10.0, "wpt_path_loss_exp": 400.0},
     "sensors[0]: power_price * beacon_distance**wpt_path_loss_exp is not finite"),
])
def test_overflowing_sec4_constants_exit_3_naming_the_field(tmp_path, capsys, edits, message):
    doc = json.loads(SEC4_CONFIG_PATH.read_text())
    for path, value in edits.items():
        expcli._set_param(doc, path, value)
    with pytest.raises(ConfigError) as e:
        load_config(write_doc(tmp_path, doc))
    assert str(e.value) == message and isinstance(e.value.__cause__, ValueError)
    for command in ("solve", "check"):
        assert main([command, "--config", write_doc(tmp_path, doc)]) == EXIT_CONFIG
        assert capsys.readouterr() == ("", f"config error: {message}\n")


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


@pytest.mark.parametrize("command", ["solve", "check"])
def test_an_unwritable_out_exits_3_naming_the_path(tmp_path, capsys, command):
    out = str(tmp_path / "missing" / "out.txt")
    argv = [command, "--config", str(SEC4_CONFIG_PATH), "--out", out]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: cannot write {out!r}: ")


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


def test_an_empty_feasible_interval_exits_4(monkeypatch, capsys):
    assert issubclass(EmptyFeasibleInterval, InfeasibilityError)

    def empty(cfg, opts):
        raise EmptyFeasibleInterval(3, 0.5)

    monkeypatch.setattr(expcli.equilibrium, "solve", empty)
    assert main(["solve", "--config", str(SEC4_CONFIG_PATH)]) == EXIT_INFEASIBLE
    # the config's sensor 4 is the library's sensor 3
    assert capsys.readouterr() == ("", "infeasible: sensor 4: no feasible rate >= min_rate 0.5\n")


def test_a_power_cap_exceeded_names_the_sensor_1_based(tmp_path, capsys):
    # the library's PowerBoundExceeded counts from 0; the CLI from 1
    path = write_doc(tmp_path, SINGLE_DOC)      # one sensor: rate 7 needs power 11.3
    assert main(["check", "--config", path, "--region-low", "7", "--region-high", "8"]) \
        == EXIT_INFEASIBLE
    assert re.fullmatch(r"infeasible: sensor 1: required power \S+ exceeds cap 10\.0\n",
                        capsys.readouterr().err)


def test_verify_exits_7_when_a_gain_exceeds_epsilon(tmp_path, monkeypatch, capsys):
    def gaining(r_star, cfg, epsilon, *args):
        return False, 10.0 * epsilon

    monkeypatch.setattr(expcli.equilibrium, "verify_epsilon_ne", gaining)
    argv = ["verify", "--config", write_doc(tmp_path, SINGLE_DOC), "--grid-points", "50"]
    assert main(argv) == EXIT_VERIFY
    out = capsys.readouterr().out
    assert "worst unilateral gain (refined search): 1e-05\n" in out
    assert out.endswith("verified: False\n")


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


@pytest.mark.parametrize("argv, message", [
    (["verify", "--grid-points", "0"], "grid_points must be >= 2"),
    (["verify", "--grid-points", "1"], "grid_points must be >= 2"),
    (["verify", "--epsilon", "nan"], "epsilon must be finite and >= 0"),
    (["verify", "--epsilon", "inf"], "epsilon must be finite and >= 0"),
    (["verify", "--epsilon=-1e-9"], "epsilon must be finite and >= 0"),
    (["br-curve", "--sensor", "1", "--points", "0"], "points must be >= 2"),
    (["br-curve", "--sensor", "1", "--points", "1"], "points must be >= 2"),
    (["br-curve", "--sensor", "1", "--points", "-3"], "points must be >= 2"),
])
def test_bad_certifier_sizes_exit_3_with_the_message(tmp_path, capsys, argv, message):
    out = tmp_path / "out.txt"
    args = [argv[0], "--config", write_doc(tmp_path, SINGLE_DOC), "--out", str(out)]
    assert main(args + argv[1:]) == EXIT_CONFIG
    assert capsys.readouterr() == ("", f"config error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("argv", [["--grid-points", "1"], ["--epsilon", "nan"],
                                  ["--epsilon", "inf"], ["--epsilon=-1e-9"]])
def test_verify_rejects_bad_certifier_sizes_before_solving(monkeypatch, argv):
    def solve(*args):
        raise AssertionError("solved before the options were checked")

    monkeypatch.setattr(expcli.equilibrium, "solve", solve)
    assert main(["verify", "--config", str(SEC4_CONFIG_PATH), *argv]) == EXIT_CONFIG


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


def test_check_rejects_a_zero_region_low(capsys):
    code = main(["check", "--config", str(SEC4_CONFIG_PATH), "--region-low", "0"])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == "config error: region must satisfy 0 < lower <= upper\n"


def test_check_rejects_a_nan_region_low(capsys):
    code = main(["check", "--config", str(SEC4_CONFIG_PATH), "--region-low", "nan"])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == "config error: region must satisfy 0 < lower <= upper\n"


def test_check_exits_3_when_too_few_region_points_are_feasible(capsys):
    # a RuntimeError traceback and exit 1 before
    code = main(["check", "--config", str(SEC4_CONFIG_PATH), "--region-high", "5"])
    assert code == EXIT_CONFIG
    assert capsys.readouterr() == ("", "config error: could only evaluate 1/1000 points "
                                       "in the region; almost all of it is infeasible\n")


def _sec4_with_bandwidth(tmp_path, bandwidth):
    """sec4 with sensor 1's bandwidth at `bandwidth`.  At 1e61 its closed-form
    interval end, 7.3e60, lies past the interval search's last doubling,
    2^200 (about 1.6e60), so the search finds no infeasible rate."""
    doc = json.loads(SEC4_CONFIG_PATH.read_text())
    doc["sensors"]["bandwidth"] = [bandwidth] + [2.0] * 9
    return write_doc(tmp_path, doc)


def test_the_cli_errors_are_the_library_families():
    assert issubclass(ConfigError, ValueError)


@pytest.mark.parametrize("argv", [["solve"], ["verify"], ["br-curve", "--sensor", "2"],
                                  ["solve", "--method", "jacobi_br"],
                                  ["solve", "--method", "gradient_ascent"]])
def test_a_degenerate_config_exits_3_with_one_line(tmp_path, capsys, argv):
    # a RuntimeError traceback and exit 1 before; Jacobi exited 5 after 6.4 s
    # and gradient ascent 0; the message named the config's sensor 1 as 0
    path = _sec4_with_bandwidth(tmp_path, 1e61)
    assert main([argv[0], "--config", path, *argv[1:]]) == EXIT_CONFIG
    assert capsys.readouterr() == (
        "", "config error: sensor 1: no infeasible upper rate found; config degenerate\n")


def test_a_bandwidth_below_the_search_cap_still_solves(tmp_path, capsys):
    assert main(["solve", "--config", _sec4_with_bandwidth(tmp_path, 1e60)]) == EXIT_OK
    assert capsys.readouterr().out.endswith("method=gauss_seidel_br\n")


def test_a_degenerate_sweep_value_keeps_the_good_rows(tmp_path):
    # the sweep lost its good row to a RuntimeError traceback before
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--config", str(SEC4_CONFIG_PATH), "--out", str(out),
            "--sweep-param", "sensors.bandwidth", "--sweep-values", "2,1e61"]
    assert main(argv) == EXIT_NONCONVERGENCE
    good, bad = read_csv(out)
    assert (good["value"], good["status"]) == ("2", "ok")
    pinned = read_csv(REPO_ROOT / "bench" / "expected" / "solve.csv")   # sec4 itself
    assert [good[f"r_{i + 1}"] for i in range(10)] == [row["rate"] for row in pinned]
    assert bad == {
        "value": "1e+61", "iterations": "0",
        "status": "error: sensor 1: no infeasible upper rate found; config degenerate",
        **{f"{x}_{i + 1}": "" for x in "ru" for i in range(10)},
    }


@pytest.mark.parametrize("edit, message", [
    (lambda doc: [1.0], "{path}: top level must be an object"),
    (lambda doc: {**doc, "sensors": [1.0]}, "'sensors' must be an object of per-sensor fields"),
    (lambda doc: {**doc, "blockchain": 1.0}, "'blockchain' must be an object"),
    (lambda doc: {**doc, "sensors": {**doc["sensors"], "bandwidth": []}},
     "sensor arrays must not be empty"),
])
def test_malformed_documents_exit_3_with_the_message(tmp_path, capsys, edit, message):
    path = write_doc(tmp_path, edit(json.loads(json.dumps(SINGLE_DOC))))
    assert main(["solve", "--config", path]) == EXIT_CONFIG
    assert capsys.readouterr() == ("", f"config error: {message.format(path=path)}\n")


def test_an_unknown_command_is_a_config_error():
    with pytest.raises(ConfigError) as e:
        ExperimentSpec(config_path=str(SEC4_CONFIG_PATH), command="nope")
    assert str(e.value) == "unknown command 'nope'"


@pytest.mark.parametrize("sensor", ["0", "11"])
def test_br_curve_rejects_a_sensor_out_of_range(capsys, sensor):
    argv = ["br-curve", "--config", str(SEC4_CONFIG_PATH), "--sensor", sensor]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr() == ("", f"config error: curve sensor {sensor} out of range 1..10\n")


def test_a_bad_sweep_value_exits_3(capsys):
    argv = ["sweep", "--config", str(SEC4_CONFIG_PATH), "--sweep-param", "power_price",
            "--sweep-values", "0.01,abc"]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr() == (
        "", "config error: bad sweep value: could not convert string to float: 'abc'\n")


def test_verify_of_an_unconverged_solve_exits_5(capsys):
    assert main(["verify", "--config", str(SEC4_CONFIG_PATH), "--max-iter", "1"]) == EXIT_NONCONVERGENCE
    out = capsys.readouterr().out
    assert out.startswith("converged: False after 1 iterations")
    assert out.endswith("verified: False\n")


# The README's five commands, and the masks bench/run.py applies to solver
# effort (iterations, residual) and to round-off-level diagnostics before
# comparing with bench/expected/: files for the commands with --out, stdout
# for check and verify.
_PINNED_COMMANDS = {
    "solve": (["solve"], [(r"iterations=\d+ residual=\S+", "iterations=* residual=*")]),
    "sweep": (
        ["sweep", "--sweep-param", "blockchain.compute_coeff",
         "--sweep-values", "2.4,2.7,3.0,3.3"],
        [(r"(?m)^([^,\n]*,[^,\n]*,)\d+,", r"\1*,")],
    ),
    "br-curve": (["br-curve", "--sensor", "2"], []),
    "check": (["check"], [(r"worst second derivative: \S+", "worst second derivative: *")]),
    "verify": (["verify"], [(r"after \d+ iterations \(residual [^)\n]*\)", "after * (residual *)"),
                            (r"(refined search\)|points\)): \S+", r"\1: *")]),
}
_STDOUT_COMMANDS = ("check", "verify")

# The masked diagnostics, range-checked as bench/run.py does: (pattern, how
# many, the range).  Both gains are within its epsilon 1e-6, and the worst
# second derivative is negative.
_MASKED_VALUES = {
    "verify": (r"(?:refined search\)|points\)): (\S+)", 2, lambda v: v <= 1e-6),
    "check": (r"worst second derivative: (\S+)", 1, lambda v: v < 0.0),
}


@pytest.mark.parametrize("command", sorted(_PINNED_COMMANDS))
def test_cli_answers_match_the_benchmark_expected_files(command, tmp_path, capsys):
    argv, masks = _PINNED_COMMANDS[command]
    to_stdout = command in _STDOUT_COMMANDS
    out = tmp_path / f"{command}.csv"
    args = [argv[0], "--config", str(SEC4_CONFIG_PATH), *argv[1:]]
    code = main(args if to_stdout else args + ["--out", str(out)])
    assert code == EXIT_OK
    text = capsys.readouterr().out if to_stdout else out.read_text()
    name = f"{command}.txt" if to_stdout else f"{command}.csv"
    want = (REPO_ROOT / "bench" / "expected" / name).read_text()
    got = text
    for pattern, repl in masks:
        got, want = re.sub(pattern, repl, got), re.sub(pattern, repl, want)
    assert got == want
    if command in _MASKED_VALUES:
        pattern, count, in_range = _MASKED_VALUES[command]
        values = [float(v) for v in re.findall(pattern, text)]
        assert len(values) == count and all(in_range(v) for v in values)


def test_verify_command(tmp_path, capsys):
    cfg_path = write_doc(tmp_path, SINGLE_DOC)
    code = main(
        ["verify", "--config", cfg_path, "--epsilon", "1e-6",
         "--grid-points", "2000"]
    )
    assert code == EXIT_OK
    assert "verified: True" in capsys.readouterr().out


def test_module_invocation_end_to_end(tmp_path):
    import os
    import subprocess
    import sys

    out = tmp_path / "solve.csv"
    # the checkout's package, whether or not the caller set PYTHONPATH
    path = os.pathsep.join([str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [
            sys.executable, "-m", "crowdgame.expcli",
            "solve", "--config", str(SEC4_CONFIG_PATH), "--out", str(out),
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
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


# ---------------------------------------------------------------------------
# one set of defaults
# ---------------------------------------------------------------------------

REQUIRED_FLAGS = {
    "solve": ([], {}),
    "sweep": (
        ["--sweep-param", "power_price", "--sweep-values", "0.01,0.02"],
        dict(sweep_param="power_price", sweep_values=[0.01, 0.02]),
    ),
    "br-curve": (["--sensor", "2"], dict(curve_sensor=1)),
    "verify": ([], {}),
    "check": ([], {}),
}


def _spec(argv):
    return expcli._spec_from_args(expcli._build_parser().parse_args(argv))


def test_cli_defaults_are_the_dataclass_defaults():
    for command, (flags, fields) in REQUIRED_FLAGS.items():
        spec = _spec([command, "--config", "game.cfg", *flags])
        assert spec == ExperimentSpec(config_path="game.cfg", command=command, **fields)
    spec = _spec(["check", "--config", "game.cfg", "--region-low", "0.2"])
    assert spec.region == (0.2, 0.5)
    spec = _spec(["br-curve", "--config", "game.cfg", "--sensor", "1", "--points", "9"])
    assert spec.curve_points == 9


def _reference_parser():
    """The CLI as plain argparse flags with their own names, for --help text."""
    parser = argparse.ArgumentParser(
        prog="crowdgame",
        description="Equilibrium experiments for the sensor data-trading game",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    extra = {
        "solve": ("solve one instance", []),
        "sweep": ("re-solve over a parameter list", [
            ("--sweep-param", dict(required=True, help="e.g. blockchain.compute_coeff")),
            ("--sweep-values", dict(required=True, help="comma-separated values")),
        ]),
        "br-curve": ("tabulate one sensor's utility curve", [
            ("--sensor", dict(type=int, required=True, help="sensor id (1-based)")),
            ("--points", dict(type=int)),
        ]),
        "verify": ("solve and certify an epsilon-NE", [
            ("--epsilon", dict(type=float)),
            ("--grid-points", dict(type=int)),
        ]),
        "check": ("equilibrium existence report", [
            ("--region-low", dict(type=float)),
            ("--region-high", dict(type=float)),
            ("--samples", dict(type=int)),
        ]),
    }
    for name, (summary, flags) in extra.items():
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", required=True, help="game config document")
        p.add_argument("--out", help="output file (default stdout)")
        p.add_argument("--method",
                       choices=("gauss_seidel_br", "jacobi_br", "gradient_ascent"))
        for flag in ("--tol", "--max-iter", "--min-rate", "--step-size"):
            p.add_argument(flag)
        p.add_argument("--refine-after",
                       help="dynamics iterations before Newton refinement (0 disables)")
        for flag, kwargs in flags:
            p.add_argument(flag, **kwargs)
    return parser


def _help_text(parser, argv, capsys):
    with pytest.raises(SystemExit) as stop:
        parser.parse_args(argv)
    assert stop.value.code == 0
    return capsys.readouterr().out


def test_cli_help_is_unchanged_by_the_suppressed_defaults(capsys):
    reference = _reference_parser()
    for argv in [["--help"]] + [[command, "--help"] for command in REQUIRED_FLAGS]:
        want = _help_text(reference, argv, capsys)
        assert _help_text(expcli._build_parser(), argv, capsys) == want
