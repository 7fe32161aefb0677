"""Config ingestion, experiment orchestration, and CSV emission.

Config files are JSON documents whose field names mirror the domain types;
per-sensor constants are given as arrays ordered by sensor index (scalars
broadcast to every sensor), which keeps a config visually checkable against
a parameter table.  `configs/paper_sec4.cfg` ships the ten-sensor study
instance used throughout the test suite.

Command surface (also exposed as the `crowdgame` console script):

    solve     equilibrium profile, one CSV row per sensor
    sweep     re-solve over a list of values for one parameter path
    br-curve  utility of one sensor against its own rate, opponents fixed
    verify    solve, then certify the result as an epsilon-Nash equilibrium
    check     equilibrium existence report

Sensor ids are 1-based on the CLI and in CSV output, matching the order of
the config arrays; the Python API stays 0-based.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from . import equilibrium, model, oracle
from .equilibrium import SolverOptions
from .model import BlockchainParams, GameConfig, InfeasibilityError, SensorParams

EXIT_OK = 0
EXIT_CONFIG = 3
EXIT_INFEASIBLE = 4
EXIT_NONCONVERGENCE = 5
EXIT_EXISTENCE = 6
EXIT_VERIFY = 7

# The objects of a config document, by key prefix, and the types they build;
# each object's fields are its type's init fields.
_OBJECTS = {"": GameConfig, "sensors.": SensorParams, "blockchain.": BlockchainParams}


class ConfigError(ValueError):
    """A config document failed to parse or violated a type invariant; like
    every bad or degenerate input the library rejects, a ValueError (exit 3)."""


# ---------------------------------------------------------------------------
# config I/O
# ---------------------------------------------------------------------------

def _read_doc(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read config {path!r}: {e}") from e
    try:
        doc = json.loads(text, parse_int=float)   # a huge integer reads as inf
    except json.JSONDecodeError as e:
        raise ConfigError(
            f"{path}: parse error at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from e
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return doc


def _init_fields(cls) -> dict:
    """The fields of one of _OBJECTS, name -> default (MISSING if required)."""
    return {f.name: f.default for f in fields(cls) if f.init}


# every number of a document; a sensor field's broadcasts to all sensors
_SCALAR_PATHS = [prefix + key for prefix, cls in _OBJECTS.items()
                 for key in _init_fields(cls) if f"{prefix}{key}." not in _OBJECTS]


def _check_fields(doc: dict, prefix: str) -> dict:
    """The fields of _OBJECTS[prefix], once doc has every required one and
    no other; the sensor object is checked for unknown fields first."""
    known = _init_fields(_OBJECTS[prefix])
    missing = [key for key, default in known.items()
               if key not in doc and default is MISSING]
    unknown = [key for key in doc if key not in known]
    if unknown and prefix == "sensors.":
        raise ConfigError(f"unknown sensor field 'sensors.{unknown[0]}'")
    if missing:
        raise ConfigError(f"missing required field '{prefix}{missing[0]}'")
    if unknown:
        raise ConfigError(f"unknown field '{prefix}{unknown[0]}'")
    return known


def _number(value, path: str, kind: str = "a number") -> float:
    """A JSON number (not a bool) as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"field '{path}' must be {kind}")
    return float(value)


def _build_config(doc: dict) -> GameConfig:
    top = _check_fields(doc, "")

    sensors_doc = doc["sensors"]
    if not isinstance(sensors_doc, dict):
        raise ConfigError("'sensors' must be an object of per-sensor fields")
    sensor_fields = _check_fields(sensors_doc, "sensors.")

    n = None
    for key, value in sensors_doc.items():
        if isinstance(value, list):
            if n is None:
                n = len(value)
            elif len(value) != n:
                raise ConfigError(
                    f"sensor field 'sensors.{key}' has length {len(value)}, "
                    f"expected {n}"
                )
    if n is None:
        raise ConfigError(
            "at least one sensor field must be an array (it fixes the "
            "sensor count)"
        )
    if n == 0:
        raise ConfigError("sensor arrays must not be empty")

    columns = {}
    for key, default in sensor_fields.items():
        value = sensors_doc.get(key, default)
        columns[key] = [_number(v, f"sensors.{key}", "a number or an array of numbers")
                        for v in (value if isinstance(value, list) else [value] * n)]
    sensors = []
    for i in range(n):
        try:
            sensors.append(SensorParams(**{key: col[i] for key, col in columns.items()}))
        except ValueError as e:
            raise ConfigError(f"sensor {i + 1}: {e}") from e

    bc_doc = doc["blockchain"]
    if not isinstance(bc_doc, dict):
        raise ConfigError("'blockchain' must be an object")
    bc = {key: _number(bc_doc[key], f"blockchain.{key}")   # its message stays unprefixed
          for key in _check_fields(bc_doc, "blockchain.")}
    try:
        blockchain = BlockchainParams(**bc)
    except ValueError as e:
        raise ConfigError(f"blockchain: {e}") from e

    scalars = {key: _number(doc[key], key) for key in top if key in _SCALAR_PATHS}
    try:
        return GameConfig(sensors=sensors, blockchain=blockchain, **scalars)
    except ValueError as e:
        raise ConfigError(str(e)) from e


def load_config(path: str) -> GameConfig:
    """Load and validate a game config document."""
    return _build_config(_read_doc(path))


def config_to_dict(cfg: GameConfig) -> dict:
    """Serialize a GameConfig back into its document form."""
    doc = {key: getattr(cfg, key) for key in _init_fields(GameConfig)}
    doc["sensors"] = {key: [getattr(s, key) for s in cfg.sensors]
                      for key in _init_fields(SensorParams)}
    doc["blockchain"] = {key: getattr(cfg.blockchain, key)
                         for key in _init_fields(BlockchainParams)}
    return doc


def save_config(cfg: GameConfig, path: str):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(config_to_dict(cfg), fh, indent=2)
        fh.write("\n")


def _set_param(doc: dict, path: str, value: float):
    """Assign one sweep value into a config document, in place."""
    if path not in _SCALAR_PATHS:
        raise ConfigError(f"unknown sweep parameter path '{path}'")
    head, _, key = path.partition(".")
    if key:
        doc[head][key] = value      # a sensor field is a scalar broadcast to all
    else:
        doc[head] = value


# ---------------------------------------------------------------------------
# experiment spec
# ---------------------------------------------------------------------------

@dataclass
class ExperimentSpec:
    """One fully-specified experiment run."""

    config_path: str
    command: str
    solver: SolverOptions = field(default_factory=SolverOptions)
    output_path: str | None = None
    sweep_param: str | None = None
    sweep_values: list[float] | None = None
    curve_sensor: int | None = None      # 0-based
    curve_points: int = 512
    epsilon: float = 1e-6
    grid_points: int = 10_000
    region: tuple[float, float] = (equilibrium.DEFAULT_MIN_RATE, 0.5)
    samples: int = 1000

    def __post_init__(self):
        if self.command not in _RUNNERS:
            raise ConfigError(f"unknown command '{self.command}'")
        if self.command == "sweep":
            if not self.sweep_param or not self.sweep_values:
                raise ConfigError("sweep requires sweep_param and sweep_values")
        elif self.sweep_param or self.sweep_values:
            raise ConfigError("sweep_param is only valid for the sweep command")
        if self.command == "br-curve":
            if self.curve_sensor is None:
                raise ConfigError("br-curve requires curve_sensor")
            model._check_count(self.curve_points, "points", 2)
        elif self.curve_sensor is not None:
            raise ConfigError("curve_sensor is only valid for br-curve")
        model._check_count(self.grid_points, "grid_points", 2)
        model._check_nonnegative(self.epsilon, "epsilon")


# ---------------------------------------------------------------------------
# CSV helpers
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.12g}"
    return str(x)


def _emit(spec: ExperimentSpec, header: list[str], rows, footer: str | None = None):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(x) for x in row])
    if footer is not None:
        buf.write(footer + "\n")
    _write(spec, buf.getvalue(), echo=False)


def _write(spec: ExperimentSpec, text: str, echo: bool):
    """Write text to --out if given; to stdout as well when echo is set."""
    if spec.output_path:
        try:
            with open(spec.output_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as e:
            raise ConfigError(f"cannot write {spec.output_path!r}: {e}") from e
    if echo or not spec.output_path:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def run_solve(spec: ExperimentSpec) -> int:
    """Solve one instance and emit per-sensor equilibrium accounts."""
    cfg = load_config(spec.config_path)
    res = equilibrium.solve(cfg, spec.solver)
    rows = [
        (
            i + 1,
            res.rates[i],
            res.powers[i],
            res.fees[i],
            res.fee_shares[i],
            res.utilities[i],
        )
        for i in range(cfg.n_sensors)
    ]
    footer = (
        f"# converged={str(res.converged).lower()} iterations={res.iterations} "
        f"residual={_fmt(res.residual)} method={spec.solver.method}"
    )
    _emit(
        spec,
        ["sensor_id", "rate", "power", "fee", "fee_share", "utility"],
        rows,
        footer,
    )
    return EXIT_OK if res.converged else EXIT_NONCONVERGENCE


def run_sweep(spec: ExperimentSpec) -> int:
    """Re-solve from the default initialization for each sweep value."""
    base_doc = _read_doc(spec.config_path)
    n = _build_config(base_doc).n_sensors   # fail fast on a broken base config
    rows = []
    for value in spec.sweep_values:
        doc = json.loads(json.dumps(base_doc))
        status = "ok"
        rates = utils = None
        iterations = 0
        try:
            _set_param(doc, spec.sweep_param, value)
            cfg = _build_config(doc)
            # no warm start, for reproducibility
            res = equilibrium.solve(cfg, replace(spec.solver, init_rates=None))
            iterations = res.iterations
            if not res.converged:
                status = "non-convergence"
            rates, utils = res.rates, res.utilities
        except (ValueError, InfeasibilityError) as e:
            status = f"error: {_message(e)}"
        cells = [""] * (2 * n) if rates is None else list(rates) + list(utils)
        rows.append([value, status, iterations] + cells)
    header = (
        ["value", "status", "iterations"]
        + [f"r_{i + 1}" for i in range(n)]
        + [f"u_{i + 1}" for i in range(n)]
    )
    _emit(spec, header, rows)
    return EXIT_OK if all(row[1] == "ok" for row in rows) else EXIT_NONCONVERGENCE


def run_br_curve(spec: ExperimentSpec) -> int:
    """Tabulate one sensor's utility along its own rate at the equilibrium."""
    cfg = load_config(spec.config_path)
    i = spec.curve_sensor
    if not 0 <= i < cfg.n_sensors:
        raise ConfigError(
            f"curve sensor {i + 1} out of range 1..{cfg.n_sensors}"
        )
    res = equilibrium.solve(cfg, spec.solver)
    r = res.rates.copy()
    hi = equilibrium.rate_upper_bound(i, r, cfg, spec.solver.min_rate)
    grid = np.linspace(spec.solver.min_rate, hi, spec.curve_points)
    utils = model._utility_along(i, r, grid, cfg)
    points = [(float(x), float(u), 0) for x, u in zip(grid, utils)]
    br = equilibrium._best_response_full(i, r, cfg, spec.solver.min_rate)
    r[i] = br
    points.append((br, model.utility_rate_space(i, r, cfg), 1))
    points.sort(key=lambda row: (row[0], row[2]))
    _emit(spec, ["rate", "utility", "is_best_response"], points)
    return EXIT_OK if res.converged else EXIT_NONCONVERGENCE


def run_check(spec: ExperimentSpec) -> int:
    """Print the equilibrium-existence report."""
    cfg = load_config(spec.config_path)
    report = equilibrium.check_existence(cfg, spec.region, spec.samples)
    lines = [
        f"condition_a (a*m^2 - c >= 0): {report.condition_a} "
        f"(a*m^2 - c = {_fmt(cfg.blockchain.concavity_margin)})",
        f"condition_b (total rate >= 1 at region lower corner): "
        f"{report.condition_b}",
        f"numeric_concavity: {report.numeric_concavity} "
        f"({report.details.evaluated} points evaluated, "
        f"{report.details.skipped} infeasible points skipped)",
        f"worst second derivative: {_fmt(report.details.value)} "
        f"at sensor {report.details.sensor + 1}",
    ]
    _write(spec, "\n".join(lines) + "\n", echo=True)
    ok = report.condition_a and report.numeric_concavity
    return EXIT_OK if ok else EXIT_EXISTENCE


def run_verify(spec: ExperimentSpec) -> int:
    """Solve, then certify the profile as an epsilon-Nash equilibrium."""
    cfg = load_config(spec.config_path)
    res = equilibrium.solve(cfg, spec.solver)
    verified, worst = equilibrium.verify_epsilon_ne(
        res.rates, cfg, spec.epsilon, spec.grid_points, spec.solver.min_rate
    )
    grid_worst = oracle.grid_certify_ne(
        res.rates, cfg, spec.grid_points, spec.solver.min_rate
    )
    lines = [
        f"converged: {res.converged} after {res.iterations} iterations "
        f"(residual {_fmt(res.residual)})",
        f"epsilon: {_fmt(spec.epsilon)}",
        f"worst unilateral gain (refined search): {_fmt(worst)}",
        f"worst unilateral gain (grid oracle, {spec.grid_points} points): "
        f"{_fmt(grid_worst)}",
        f"verified: {verified}",
    ]
    _write(spec, "\n".join(lines) + "\n", echo=True)
    if not res.converged:
        return EXIT_NONCONVERGENCE
    return EXIT_OK if verified else EXIT_VERIFY


_RUNNERS = {
    "solve": run_solve,
    "sweep": run_sweep,
    "br-curve": run_br_curve,
    "verify": run_verify,
    "check": run_check,
}


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crowdgame",
        description="Equilibrium experiments for the sensor data-trading game",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str) -> argparse.ArgumentParser:
        # absent flags stay unset: SolverOptions and ExperimentSpec hold the defaults
        p = sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
        p.add_argument("--config", dest="config_path", metavar="CONFIG",
                       required=True, help="game config document")
        p.add_argument("--out", dest="output_path", metavar="OUT",
                       help="output file (default stdout)")
        p.add_argument("--method", choices=equilibrium._METHODS)
        p.add_argument("--tol", type=float)
        p.add_argument("--max-iter", type=int)
        p.add_argument("--min-rate", type=float)
        p.add_argument("--step-size", type=float)
        p.add_argument(
            "--refine-after",
            type=int,
            help="dynamics iterations before Newton refinement (0 disables)",
        )
        return p

    command("solve", "solve one instance")

    p = command("sweep", "re-solve over a parameter list")
    p.add_argument("--sweep-param", required=True, help="e.g. blockchain.compute_coeff")
    p.add_argument("--sweep-values", required=True, help="comma-separated values")

    p = command("br-curve", "tabulate one sensor's utility curve")
    p.add_argument("--sensor", dest="curve_sensor", metavar="SENSOR", type=int,
                   required=True, help="sensor id (1-based)")
    p.add_argument("--points", dest="curve_points", metavar="POINTS", type=int)

    p = command("verify", "solve and certify an epsilon-NE")
    p.add_argument("--epsilon", type=float)
    p.add_argument("--grid-points", type=int)

    p = command("check", "equilibrium existence report")
    p.add_argument("--region-low", type=float)
    p.add_argument("--region-high", type=float)
    p.add_argument("--samples", type=int)
    return parser


def _spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    kwargs = dict(vars(args))
    solver = SolverOptions(
        **{f.name: kwargs.pop(f.name) for f in fields(SolverOptions) if f.name in kwargs}
    )
    if "sweep_values" in kwargs:
        values = [v for v in kwargs["sweep_values"].split(",") if v.strip()]
        if not values:
            raise ConfigError("sweep value list is empty")
        try:
            kwargs["sweep_values"] = [float(v) for v in values]
        except ValueError as e:
            raise ConfigError(f"bad sweep value: {e}") from e
    if "curve_sensor" in kwargs:
        kwargs["curve_sensor"] -= 1
    low, high = ExperimentSpec.region
    kwargs["region"] = (kwargs.pop("region_low", low), kwargs.pop("region_high", high))
    return ExperimentSpec(solver=solver, **kwargs)


def _message(e: Exception) -> str:
    """str(e) with the sensor it names, e.sensor, 1-based; the library counts from 0."""
    i = getattr(e, "sensor", None)
    return str(e) if i is None else str(e).replace(f"sensor {i}:", f"sensor {i + 1}:", 1)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        spec = _spec_from_args(args)
        return _RUNNERS[spec.command](spec)
    except ValueError as e:
        print(f"config error: {_message(e)}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibilityError as e:
        print(f"infeasible: {_message(e)}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
