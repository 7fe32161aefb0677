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
from dataclasses import dataclass, field, replace

import numpy as np

from . import equilibrium, model, oracle
from .equilibrium import EmptyFeasibleInterval, SolverOptions
from .model import BlockchainParams, GameConfig, InfeasibilityError, SensorParams

EXIT_OK = 0
EXIT_CONFIG = 3
EXIT_INFEASIBLE = 4
EXIT_NONCONVERGENCE = 5
EXIT_EXISTENCE = 6
EXIT_VERIFY = 7

_SENSOR_FIELDS = (
    "bandwidth",
    "channel_gain",
    "ap_distance",
    "path_loss_exp",
    "circuit_power",
    "unit_rate_price",
    "beacon_distance",
    "max_received_power",
)
_OPTIONAL_SENSOR_FIELDS = ("max_received_power",)
_BLOCKCHAIN_FIELDS = ("quad_coeff", "lin_coeff", "const_coeff", "compute_coeff")
_TOP_FIELDS = ("sensors", "noise_variance", "power_price", "wpt_path_loss_exp", "blockchain")


class ConfigError(Exception):
    """A config document failed to parse or violated a type invariant."""


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
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(
            f"{path}: parse error at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from e
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return doc


def _check_fields(doc: dict, fields: tuple, prefix: str):
    for key in fields:
        if key not in doc:
            raise ConfigError(f"missing required field '{prefix}{key}'")
    for key in doc:
        if key not in fields:
            raise ConfigError(f"unknown field '{prefix}{key}'")


def _build_config(doc: dict) -> GameConfig:
    _check_fields(doc, _TOP_FIELDS, "")

    sensors_doc = doc["sensors"]
    if not isinstance(sensors_doc, dict):
        raise ConfigError("'sensors' must be an object of per-sensor fields")
    for key in sensors_doc:
        if key not in _SENSOR_FIELDS:
            raise ConfigError(f"unknown sensor field 'sensors.{key}'")
    for key in _SENSOR_FIELDS:
        if key not in sensors_doc and key not in _OPTIONAL_SENSOR_FIELDS:
            raise ConfigError(f"missing required field 'sensors.{key}'")

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

    def sensor_column(key: str) -> list[float]:
        if key not in sensors_doc:
            return [model.DEFAULT_POWER_CAP] * n
        value = sensors_doc[key]
        if isinstance(value, list):
            return [float(v) for v in value]
        return [float(value)] * n

    columns = {key: sensor_column(key) for key in _SENSOR_FIELDS}
    sensors = []
    for i in range(n):
        try:
            sensors.append(
                SensorParams(**{key: columns[key][i] for key in _SENSOR_FIELDS})
            )
        except (TypeError, ValueError) as e:
            raise ConfigError(f"sensor {i + 1}: {e}") from e

    bc_doc = doc["blockchain"]
    if not isinstance(bc_doc, dict):
        raise ConfigError("'blockchain' must be an object")
    _check_fields(bc_doc, _BLOCKCHAIN_FIELDS, "blockchain.")
    try:
        blockchain = BlockchainParams(
            **{key: float(bc_doc[key]) for key in _BLOCKCHAIN_FIELDS}
        )
    except (TypeError, ValueError) as e:
        raise ConfigError(f"blockchain: {e}") from e

    try:
        return GameConfig(
            sensors=sensors,
            noise_variance=float(doc["noise_variance"]),
            power_price=float(doc["power_price"]),
            wpt_path_loss_exp=float(doc["wpt_path_loss_exp"]),
            blockchain=blockchain,
        )
    except (TypeError, ValueError) as e:
        raise ConfigError(str(e)) from e


def load_config(path: str) -> GameConfig:
    """Load and validate a game config document."""
    return _build_config(_read_doc(path))


def config_to_dict(cfg: GameConfig) -> dict:
    """Serialize a GameConfig back into its document form."""
    return {
        "sensors": {
            key: [getattr(s, key) for s in cfg.sensors] for key in _SENSOR_FIELDS
        },
        "noise_variance": cfg.noise_variance,
        "power_price": cfg.power_price,
        "wpt_path_loss_exp": cfg.wpt_path_loss_exp,
        "blockchain": {
            key: getattr(cfg.blockchain, key) for key in _BLOCKCHAIN_FIELDS
        },
    }


def save_config(cfg: GameConfig, path: str):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(config_to_dict(cfg), fh, indent=2)
        fh.write("\n")


def _set_param(doc: dict, path: str, value: float):
    """Assign one sweep value into a config document, in place."""
    head, _, key = path.partition(".")
    if not key and head in ("noise_variance", "power_price", "wpt_path_loss_exp"):
        doc[head] = value
    elif key in {"blockchain": _BLOCKCHAIN_FIELDS, "sensors": _SENSOR_FIELDS}.get(head, ()):
        doc[head][key] = value      # a sensor field is a scalar broadcast to all
    else:
        raise ConfigError(f"unknown sweep parameter path '{path}'")


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
        elif self.curve_sensor is not None:
            raise ConfigError("curve_sensor is only valid for br-curve")


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
        with open(spec.output_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
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
    all_ok = True
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
                all_ok = False
            rates, utils = res.rates, res.utilities
        except (ConfigError, InfeasibilityError, EmptyFeasibleInterval, ValueError) as e:
            status = f"error: {e}"
            all_ok = False
        if rates is None:
            rows.append([value, status, iterations] + [""] * (2 * n))
        else:
            rows.append(
                [value, status, iterations] + list(rates) + list(utils)
            )
    header = (
        ["value", "status", "iterations"]
        + [f"r_{i + 1}" for i in range(n)]
        + [f"u_{i + 1}" for i in range(n)]
    )
    _emit(spec, header, rows)
    return EXIT_OK if all_ok else EXIT_NONCONVERGENCE


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
    bc = cfg.blockchain
    margin = bc.quad_coeff * bc.compute_coeff**2 - bc.const_coeff
    lines = [
        f"condition_a (a*m^2 - c >= 0): {report.condition_a} "
        f"(a*m^2 - c = {_fmt(margin)})",
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

    def common(p: argparse.ArgumentParser):
        p.add_argument("--config", required=True, help="game config document")
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.add_argument(
            "--method",
            default="gauss_seidel_br",
            choices=equilibrium._METHODS,
        )
        p.add_argument("--tol", type=float, default=1e-8)
        p.add_argument("--max-iter", type=int, default=10_000)
        p.add_argument("--min-rate", type=float, default=equilibrium.DEFAULT_MIN_RATE)
        p.add_argument("--step-size", type=float, default=1e-3)
        p.add_argument(
            "--refine-after",
            type=int,
            default=10,
            help="dynamics iterations before Newton refinement (0 disables)",
        )

    common(sub.add_parser("solve", help="solve one instance"))

    p = sub.add_parser("sweep", help="re-solve over a parameter list")
    common(p)
    p.add_argument("--sweep-param", required=True, help="e.g. blockchain.compute_coeff")
    p.add_argument("--sweep-values", required=True, help="comma-separated values")

    p = sub.add_parser("br-curve", help="tabulate one sensor's utility curve")
    common(p)
    p.add_argument("--sensor", type=int, required=True, help="sensor id (1-based)")
    p.add_argument("--points", type=int, default=512)

    p = sub.add_parser("verify", help="solve and certify an epsilon-NE")
    common(p)
    p.add_argument("--epsilon", type=float, default=1e-6)
    p.add_argument("--grid-points", type=int, default=10_000)

    p = sub.add_parser("check", help="equilibrium existence report")
    common(p)
    p.add_argument("--region-low", type=float, default=equilibrium.DEFAULT_MIN_RATE)
    p.add_argument("--region-high", type=float, default=0.5)
    p.add_argument("--samples", type=int, default=1000)
    return parser


def _spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    solver = SolverOptions(
        method=args.method,
        tol=args.tol,
        max_iter=args.max_iter,
        min_rate=args.min_rate,
        step_size=args.step_size,
        refine_after=args.refine_after,
    )
    kwargs = dict(
        config_path=args.config,
        command=args.command,
        solver=solver,
        output_path=args.out,
    )
    if args.command == "sweep":
        values = [v for v in args.sweep_values.split(",") if v.strip()]
        if not values:
            raise ConfigError("sweep value list is empty")
        try:
            kwargs["sweep_values"] = [float(v) for v in values]
        except ValueError as e:
            raise ConfigError(f"bad sweep value: {e}") from e
        kwargs["sweep_param"] = args.sweep_param
    elif args.command == "br-curve":
        kwargs["curve_sensor"] = args.sensor - 1
        kwargs["curve_points"] = args.points
    elif args.command == "verify":
        kwargs["epsilon"] = args.epsilon
        kwargs["grid_points"] = args.grid_points
    elif args.command == "check":
        kwargs["region"] = (args.region_low, args.region_high)
        kwargs["samples"] = args.samples
    return ExperimentSpec(**kwargs)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        spec = _spec_from_args(args)
        return _RUNNERS[spec.command](spec)
    except (ConfigError, ValueError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (InfeasibilityError, EmptyFeasibleInterval) as e:
        print(f"infeasible: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
