#!/usr/bin/env python3
"""crowdgame benchmark: seeded closed-loop workloads over the library and CLI.

    python3 bench/run.py --workload {sec4-family,boundary-scale,cli}
                         --seed N --seconds S --trace {0,1} [--smoke]

Run from anywhere; the program under test is ``src/crowdgame`` next to this
directory.  One client issues one operation at a time (a closed loop) from
this single process: an operation is one library ``solve`` call on the
library workloads and one CLI command, run as a subprocess, on ``cli``.  The
loop repeats the workload's operations for at least S seconds and at least
two whole rounds (every operation twice), so every run measures the same
mix.  Correctness checks run outside the timed region, and a run fails on
any mismatch.

With ``--trace 0`` the last stdout line is the JSON result with the
end-to-end metrics of BENCHMARK.json.  With ``--trace 1`` one untraced round
runs, then the same round with the layer wrappers of ``tracing.py``
installed, and the result carries the per-layer metrics instead.  Lines before it are a readable report that
names all eleven end-to-end metrics of the design, marking the ones a
workload does not exercise.  Results and spans are also written under
``.bench_out/`` in the checkout.
"""

import time

_ENTERED = time.time()

import os  # noqa: E402

# One BLAS thread in this process and in every child it starts, so the
# single client never runs on more than one core.
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
EXPECTED = BENCH / "expected"
# CLI outputs and side files of this process; removed at exit.
WORK = ROOT / ".bench_work" / str(os.getpid())
OUT = ROOT / ".bench_out"        # result and span files of each run
BASE_CONFIG = "configs/paper_sec4.cfg"

WORKLOADS = ("sec4-family", "boundary-scale", "cli")
SETUP_REPEATS = 5
MIN_ROUNDS = 2     # traced runs time one untraced round, for the overhead only
TAIL_MIN_ROUND = 50  # two rounds of 50 put ten samples beyond p90

# sec4-family: games drawn around the bundled ten-sensor study instance,
# spread over the ranges by a Latin hypercube.  Twenty rather than ten, so
# the family a seed draws moves the medians less from seed to seed.
SEC4_GAMES = 20
SEC4_RANGES = {
    "blockchain.compute_coeff": (2.4, 3.3),   # the README's sweep range
    "power_price": (0.005, 0.02),
    "noise_variance": (0.8, 1.25),
}
METHODS = ("gauss_seidel_br", "jacobi_br", "gradient_ascent")

# boundary-scale: (sensor count, min_rate), sec4 tiled to the count and
# solved by Gauss-Seidel from an equal load-share start, capped at
# BOUNDARY_MAX_ITER iterations: the iteration budget ROADMAP item 3 sets for
# these equilibria, and short enough for two rounds per run.  The cases are
# fixed and the seed only orders them: whether a capped solve converges flips
# under 1% jitter of the sensor constants, which moved one run's solve times
# by up to 2.5x.
BOUNDARY_CASES = ((10, 0.0), (10, 0.01), (40, 0.01), (80, 0.01), (160, 0.0025))
BOUNDARY_MAX_ITER = 50
BOUNDARY_START_LOAD = 0.5

# Correctness: grid oracle at this resolution and epsilon on every converged
# answer; methods on one game agree to AGREE_TOL (acceptance criteria 5, 6).
CERT_GRID = 256
CERT_EPSILON = 1e-6
AGREE_TOL = 1e-4

# cli: the README's five commands on the bundled config.  Commands with
# --out are compared by file, the others by stdout; all must exit 0.
CLI_COMMANDS = {
    "solve": ["solve", "--config", BASE_CONFIG, "--out", "{work}/solve.csv"],
    "sweep": ["sweep", "--config", BASE_CONFIG,
              "--sweep-param", "blockchain.compute_coeff",
              "--sweep-values", "2.4,2.7,3.0,3.3", "--out", "{work}/sweep.csv"],
    "check": ["check", "--config", BASE_CONFIG],
    "verify": ["verify", "--config", BASE_CONFIG],
    "br-curve": ["br-curve", "--config", BASE_CONFIG, "--sensor", "2",
                 "--out", "{work}/br-curve.csv"],
}
EXPECTED_FILES = {
    "solve": "solve.csv", "sweep": "sweep.csv", "check": "check.txt",
    "verify": "verify.txt", "br-curve": "br-curve.csv",
}
CLI_TIMEOUT_S = 170

# Output fields that report solver effort or round-off-level diagnostics
# rather than the answer; they are masked before the byte comparison, and
# the diagnostics are range-checked instead.
MASKS = {
    "solve": [(r"iterations=\d+ residual=\S+", "iterations=* residual=*")],
    "sweep": [(r"(?m)^([^,\n]*,[^,\n]*,)\d+,", r"\1*,")],
    "verify": [(r"after \d+ iterations \(residual [^)\n]*\)", "after * (residual *)"),
               (r"(refined search\)|points\)): \S+", r"\1: *")],
    "check": [(r"worst second derivative: \S+", "worst second derivative: *")],
    "br-curve": [],
}

def _fail(msg: str):
    print(f"bench: {msg}", file=sys.stderr)
    raise SystemExit(2)


def import_crowdgame():
    """Import the checkout's crowdgame, never an installed copy."""
    if not (SRC / "crowdgame" / "__init__.py").is_file():
        _fail(f"no program under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    try:
        import crowdgame.expcli     # imports every other module of the package
    except ImportError as e:
        _fail(f"cannot import crowdgame: {e}")
    import_s = time.perf_counter() - t0
    if Path(crowdgame.__file__).resolve().parent != SRC / "crowdgame":
        _fail(f"imported crowdgame from {crowdgame.__file__}, not {SRC}")
    return import_s


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

@dataclass
class Job:
    label: str
    cfg: object           # crowdgame GameConfig
    opts: object          # crowdgame SolverOptions


def _base_config():
    from crowdgame import expcli
    if not (ROOT / BASE_CONFIG).is_file():
        _fail(f"missing {BASE_CONFIG}")
    return expcli.load_config(str(ROOT / BASE_CONFIG))


def latin_hypercube(rng: random.Random, lo: float, hi: float,
                    k: int) -> list[float]:
    """k draws from [lo, hi], one in each of k equal strata, in random order.

    Every seed then covers each range evenly, which keeps the family's total
    work within about 1% from seed to seed.
    """
    strata = list(range(k))
    rng.shuffle(strata)
    return [lo + (hi - lo) * (j + rng.random()) / k for j in strata]


def sec4_family_jobs(seed: int, games: int = SEC4_GAMES) -> list[list[Job]]:
    """`games` draws around the sec4 config, each solved by every method."""
    from crowdgame.equilibrium import SolverOptions
    base = _base_config()
    rng = random.Random(f"sec4-family:{seed}")
    draws = {key: latin_hypercube(rng, lo, hi, games)
             for key, (lo, hi) in SEC4_RANGES.items()}
    units = []
    for g in range(games):
        m = draws["blockchain.compute_coeff"][g]
        price = draws["power_price"][g]
        noise = draws["noise_variance"][g]
        cfg = replace(
            base,
            power_price=price,
            noise_variance=noise,
            blockchain=replace(base.blockchain, compute_coeff=m),
        )
        units.append([Job(f"game{g}/{method}", cfg, SolverOptions(method=method))
                      for method in METHODS])
    return units


def equal_load_start(cfg, min_rate: float, load: float = BOUNDARY_START_LOAD):
    """Rates giving every sensor the same share of `load`, floored at min_rate."""
    import numpy as np
    t = load / cfg.n_sensors
    return np.maximum(-cfg.bandwidths * np.log2(1.0 - t), min_rate)


def boundary_scale_jobs(seed: int, cases=BOUNDARY_CASES) -> list[list[Job]]:
    """sec4 tiled to each case's sensor count, in an order fixed by the seed."""
    from crowdgame.equilibrium import SolverOptions
    base = _base_config()
    cases = list(cases)
    random.Random(f"boundary-scale:{seed}").shuffle(cases)
    jobs = []
    for n, min_rate in cases:
        sensors = [base.sensors[i % base.n_sensors] for i in range(n)]
        cfg = replace(base, sensors=sensors)
        opts = SolverOptions(
            method="gauss_seidel_br",
            init_rates=equal_load_start(cfg, min_rate),
            max_iter=BOUNDARY_MAX_ITER,
            min_rate=min_rate,
        )
        jobs.append(Job(f"n{n}/min_rate={min_rate}", cfg, opts))
    return [jobs]          # one unit: every run measures the whole set


def instance_bytes(units: list[list[Job]]) -> bytes:
    """Canonical serialization of a generated instance set."""
    from crowdgame import expcli
    doc = []
    for unit in units:
        for job in unit:
            o = job.opts
            doc.append({
                "label": job.label,
                "config": expcli.config_to_dict(job.cfg),
                "options": {
                    "method": o.method, "tol": o.tol, "max_iter": o.max_iter,
                    "min_rate": o.min_rate, "step_size": o.step_size,
                    "refine_after": o.refine_after,
                    "init_rates": None if o.init_rates is None
                    else [float(x) for x in o.init_rates],
                },
            })
    return json.dumps(doc, sort_keys=True).encode()


def cli_order(seed: int, smoke: bool) -> list[str]:
    """The seed fixes the order in which the five commands run."""
    names = ["solve"] if smoke else list(CLI_COMMANDS)
    random.Random(f"cli:{seed}").shuffle(names)
    return names


def setup(workload: str, seed: int, smoke: bool):
    """Everything a run does before timing starts, minus the import."""
    if workload == "cli":
        _base_config()
        return [cli_order(seed, smoke)]    # one unit: whole rounds only
    from crowdgame import equilibrium
    if workload == "sec4-family":
        units = sec4_family_jobs(seed, 1 if smoke else SEC4_GAMES)
    else:
        units = boundary_scale_jobs(
            seed, BOUNDARY_CASES[1:2] if smoke else BOUNDARY_CASES)
    first = units[0][0]
    equilibrium.solve(first.cfg, replace(first.opts, max_iter=1))   # warm-up
    return units


def setup_probe(workload: str, seed: int, smoke: bool):
    """Child side of a set-up measurement: report start-up facts as JSON."""
    spawn = float(os.environ["BENCH_SPAWN_TIME"])
    import_s = import_crowdgame()
    setup(workload, seed, smoke)
    print(json.dumps({"interp_start_s": _ENTERED - spawn, "import_s": import_s}))


def measure_setup(args) -> tuple[list[float], list[dict]]:
    """Wall time of SETUP_REPEATS fresh set-ups, each in its own interpreter."""
    walls, facts = [], []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    for _ in range(1 if args.smoke else SETUP_REPEATS):
        env = dict(os.environ, BENCH_SPAWN_TIME=repr(time.time()))
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, env=env, cwd=ROOT,
                              timeout=CLI_TIMEOUT_S)
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            _fail(f"set-up probe failed: {proc.stderr.decode()[-2000:]}")
        facts.append(json.loads(proc.stdout.decode().strip().splitlines()[-1]))
    return walls, facts


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

@dataclass
class Op:
    key: str              # job label or command name
    seconds: float
    result: object = None  # EquilibriumResult, or (rc, bytes, side) for cli
    error: str | None = None
    warnings: int = 0


@dataclass
class Outcome:
    window: list[Op]      # the timed operations
    wall: float           # seconds the timed window took
    attempted: int        # every operation run, traced round included
    ok: int
    unconverged: int      # converged=False within the cap; not a failed check
    failed: int
    failures: dict[str, str]
    layers: dict | None   # per-layer metrics of the traced round


def closed_loop(units, run_op, seconds: float,
                min_rounds: int) -> tuple[list[Op], float]:
    """Run units in order, round after round, until `seconds` have passed.

    The loop stops at the first unit boundary after the deadline, but never
    before `min_rounds` whole rounds, so a slow round cannot shrink the sample.
    """
    ops = []
    t_start = time.perf_counter()
    deadline = t_start + seconds
    rounds = 0
    while True:
        for unit in units:
            for item in unit:
                ops.append(run_op(item))
            if rounds >= min_rounds and time.perf_counter() >= deadline:
                return ops, time.perf_counter() - t_start
        rounds += 1
        if rounds >= min_rounds and time.perf_counter() >= deadline:
            return ops, time.perf_counter() - t_start


def solve_op(job: Job) -> Op:
    from crowdgame import equilibrium
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        try:
            res = equilibrium.solve(job.cfg, job.opts)
            err = None
        except Exception as e:     # counted as a failed operation
            res, err = None, f"{type(e).__name__}: {e}"
        dt = time.perf_counter() - t0
    n_warn = sum(issubclass(w.category, RuntimeWarning) for w in caught)
    return Op(job.label, dt, res, err, n_warn)


def cli_op(name: str, trace: bool = False) -> Op:
    side = WORK / f"{name}.side.json"
    for stale in (side, WORK / f"{name}.side.json.spans.tsv"):
        stale.unlink(missing_ok=True)
    work = WORK.relative_to(ROOT).as_posix()
    argv = [a.format(work=work) for a in CLI_COMMANDS[name]]
    cmd = [sys.executable, str(BENCH / "cli_driver.py"), str(side),
           repr(time.time()), "1" if trace else "0", "--", *argv]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                              timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return Op(name, time.perf_counter() - t0, error="timeout")
    dt = time.perf_counter() - t0
    out_arg = [a for a in argv if a.startswith(work + "/")]
    if out_arg:
        out_path = ROOT / out_arg[0]
        output = out_path.read_bytes() if out_path.exists() else b""
        out_path.unlink(missing_ok=True)
        if proc.stdout:
            output += b"\n[unexpected stdout]\n" + proc.stdout
    else:
        output = proc.stdout
    side_doc = json.loads(side.read_text()) if side.exists() else {}
    return Op(name, dt, (proc.returncode, output, side_doc),
              warnings=side_doc.get("runtime_warnings", 0))


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------

def normalize(name: str, data: bytes) -> bytes:
    text = data.decode("utf-8", errors="replace")
    for pattern, repl in MASKS[name]:
        text = re.sub(pattern, repl, text)
    return text.encode()


def _masked_values_ok(name: str, data: bytes) -> bool:
    text = data.decode("utf-8", errors="replace")
    if name == "verify":
        gains = re.findall(r"(?:refined search\)|points\)): (\S+)", text)
        return len(gains) == 2 and all(float(g) <= CERT_EPSILON for g in gains)
    if name == "check":
        m = re.search(r"worst second derivative: (\S+)", text)
        return m is not None and float(m.group(1)) < 0.0
    return True


def check_cli_op(op: Op) -> str | None:
    """None when the command's exit code and output match the expected ones."""
    if op.error:
        return op.error
    rc, output, _ = op.result
    if rc != 0:
        return f"exit code {rc}, expected 0"
    expected = (EXPECTED / EXPECTED_FILES[op.key]).read_bytes()
    if normalize(op.key, output) != normalize(op.key, expected):
        return "output bytes differ from the expected file"
    if not _masked_values_ok(op.key, output):
        return "masked diagnostic out of range"
    return None


def check_library(ops: list[Op], jobs: dict[str, Job], workload: str):
    """Classify every solve as ok, unconverged or failed.

    Returns (ok, unconverged, failures) where failures maps a job label to
    the reason.  A converged answer must pass the grid oracle; repeated
    solves of one job must return identical answers; on sec4-family the
    converged methods of one game must agree.
    """
    from crowdgame import oracle
    first: dict[str, object] = {}
    failures: dict[str, str] = {}
    for op in ops:
        if op.error:
            failures[op.key] = op.error
            continue
        ref = first.setdefault(op.key, op.result)
        if (ref.converged != op.result.converged
                or not (ref.rates == op.result.rates).all()):
            failures[op.key] = "repeated solve returned a different answer"
    for label, res in first.items():
        if label in failures or not res.converged:
            continue
        job = jobs[label]
        gain = oracle.grid_certify_ne(res.rates, job.cfg, CERT_GRID,
                                      job.opts.min_rate)
        if not gain <= CERT_EPSILON:
            failures[label] = f"grid oracle gain {gain!r} > {CERT_EPSILON}"
    if workload == "sec4-family":
        for label, res in first.items():
            game, method = label.split("/")
            ref = first.get(f"{game}/{METHODS[0]}")
            if (method != METHODS[0] and ref is not None and ref.converged
                    and res.converged
                    and float(abs(ref.rates - res.rates).max()) > AGREE_TOL):
                failures.setdefault(label, f"disagrees with {METHODS[0]}")
    ok = unconverged = 0
    for op in ops:
        if op.key in failures:
            continue
        if op.result.converged:
            ok += 1
        else:
            unconverged += 1
    return ok, unconverged, failures


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tail(ops: list[Op], round_size: int) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it, and its rank.

    A run holds at least two rounds, so with TAIL_MIN_ROUND operations or
    more in a round (sec4-family: 60) that percentile is p90 or above.  With
    smaller rounds (boundary-scale and cli: five) it can be as low as p33,
    so the slowest operation's median time over the rounds stands in for
    it.  The choice rests on the round, never on how many rounds a run
    happened to fit, so a workload always reports the same statistic.
    """
    if round_size < TAIL_MIN_ROUND:
        by_key = {}
        for op in ops:
            by_key.setdefault(op.key, []).append(op.seconds)
        return max(statistics.median(v) for v in by_key.values()), "slowest op"
    s = sorted(op.seconds for op in ops)
    n = len(s)
    k = n - 11
    return s[k], f"p{100.0 * (k + 1) / n:.1f}"


def peak_rss_mb(children: bool) -> float:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        rss = max(rss, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return rss / 1024.0


def machine_facts() -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "blas_env": BLAS_ENV,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unresolved ({name})"


def workload_params(workload: str, seed: int, smoke: bool) -> dict:
    if workload == "sec4-family":
        return {"games": 1 if smoke else SEC4_GAMES, "ranges": SEC4_RANGES,
                "methods": METHODS, "options": "SolverOptions() defaults",
                "cert_grid": CERT_GRID, "cert_epsilon": CERT_EPSILON,
                "agree_tol": AGREE_TOL}
    if workload == "boundary-scale":
        return {"cases": BOUNDARY_CASES[1:2] if smoke else BOUNDARY_CASES,
                "method": "gauss_seidel_br", "max_iter": BOUNDARY_MAX_ITER,
                "start": f"equal load share T={BOUNDARY_START_LOAD}",
                "cert_grid": CERT_GRID, "cert_epsilon": CERT_EPSILON}
    return {"commands": {k: CLI_COMMANDS[k] for k in cli_order(seed, smoke)},
            "config": BASE_CONFIG}


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def overhead(traced: list[Op], untraced: list[Op]) -> dict:
    """Traced round wall time against the untraced median of the same ops."""
    by_key = {}
    for op in untraced:
        by_key.setdefault(op.key, []).append(op.seconds)
    base = sum(statistics.median(by_key[o.key]) for o in traced)
    traced_s = sum(o.seconds for o in traced)
    return {"trace.overhead_frac": traced_s / base - 1.0,
            "trace.traced_round_s": traced_s, "trace.untraced_round_s": base}


def window_of(args, units, run_op) -> tuple[list[Op], float]:
    """The timed window; a traced run only needs one untraced round."""
    if args.trace:
        return closed_loop(units, run_op, 0.0, 1)
    return closed_loop(units, run_op, args.seconds, MIN_ROUNDS)


def run_library(args, units) -> Outcome:
    jobs = {job.label: job for unit in units for job in unit}
    window, wall = window_of(args, units, solve_op)
    if not args.trace:
        ok, unconverged, failures = check_library(window, jobs, args.workload)
        failed = sum(op.key in failures for op in window)
        return Outcome(window, wall, len(window), ok, unconverged, failed,
                       failures, None)
    tracer, check_tracer = tracing.Tracer(), tracing.Tracer()
    traced = []
    with tracing.installed(tracer):
        for op_id, job in enumerate(jobs.values()):
            tracer.op_id = op_id
            traced.append(solve_op(job))
    tracer.dump(OUT / f"{args.workload}-seed{args.seed}.spans.tsv")
    ops = window + traced
    with tracing.installed(check_tracer):
        ok, unconverged, failures = check_library(ops, jobs, args.workload)
    layers = tracing.layer_stats(tracer)
    layers["oracle.grid_certify_ne.self_s"] = tracing.layer_stats(
        check_tracer)["oracle.grid_certify_ne.self_s"]
    layers["equilibrium.runtime_warnings"] = sum(o.warnings for o in traced)
    layers.update(overhead(traced, window))
    failed = sum(op.key in failures for op in ops)
    return Outcome(window, wall, len(ops), ok, unconverged, failed, failures,
                   layers)


def run_cli(args, units) -> Outcome:
    if not EXPECTED.is_dir():
        _fail(f"missing expected outputs in {EXPECTED}")
    window, wall = window_of(args, units, cli_op)
    ops, layers = list(window), None
    if args.trace:
        traced = [cli_op(name, trace=True) for unit in units for name in unit]
        sides = [o.result[2] for o in traced if o.result and o.result[2]]
        layers = tracing.merge_stats([s["layers"] for s in sides])
        layers["equilibrium.runtime_warnings"] = sum(o.warnings for o in traced)
        for key in ("import_s", "interp_start_s"):
            layers["expcli." + key] = statistics.median(s[key] for s in sides)
        layers.update(overhead(traced, window))
        for name in CLI_COMMANDS:
            spans = WORK / f"{name}.side.json.spans.tsv"
            if spans.exists():
                shutil.move(spans, OUT / f"cli-seed{args.seed}-{name}.spans.tsv")
        ops += traced
    reasons = [(op.key, check_cli_op(op)) for op in ops]
    failures = {}
    for key, reason in reasons:
        if reason is not None:
            failures.setdefault(key, reason)
    failed = sum(reason is not None for _, reason in reasons)
    return Outcome(window, wall, len(ops), len(ops) - failed, 0, failed,
                   failures, layers)


def report(args, facts, params, setup_walls, out: Outcome, e2e: dict,
           tail_rank: str):
    """Readable report naming every end-to-end metric of the design."""
    lib = args.workload != "cli"
    n = len(out.window)
    per_cmd = {}
    for op in out.window:
        per_cmd.setdefault(op.key, []).append(op.seconds)
    lines = [
        f"crowdgame benchmark: workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds} trace={args.trace} smoke={args.smoke}",
        "machine: " + " ".join(f"{k}={v}" for k, v in facts.items()),
        f"params: {json.dumps(params, default=str)}",
        f"samples: ops={n} window_s={out.wall:.3f} "
        f"setup_repeats={len(setup_walls)}",
        "end-to-end (solve_* apply to the library workloads, cmd_* to cli):",
    ]

    def row(name, value, unit, note=""):
        shown = "n/a (not exercised by this workload)" if value is None \
            else f"{value:.6g} {unit}  {note}"
        lines.append(f"  {name:<16} {shown}")

    row("setup_s", e2e["setup_s"], "s", f"(median of {len(setup_walls)} set-ups)")
    row("solve_s_p50", e2e["op_s_p50"] if lib else None, "s", f"(n={n})")
    row("solve_s_tail", e2e["op_s_tail"] if lib else None, "s",
        f"({tail_rank}, n={n})")
    row("solves_per_s", e2e["ops_per_s"] if lib else None, "1/s")
    row("fail_frac", 1.0 - e2e["ok_frac"], "frac",
        f"({out.attempted - out.ok} of {out.attempted}: {out.failed} failed "
        f"checks, {out.unconverged} unconverged within the cap)")
    for name in CLI_COMMANDS:
        times = per_cmd.get(name) if not lib else None
        row(cmd_metric(name), statistics.median(times) if times else None, "s",
            f"(median of {len(times)})" if times else "")
    row("peak_rss_mb", e2e["peak_rss_mb"], "MB",
        "(this process)" if lib else "(this process and its children)")
    lines.append("runtime warnings in the window: "
                 f"{sum(op.warnings for op in out.window)}")
    if out.failures:
        lines.append("failures: " + json.dumps(out.failures))
    if out.layers:
        lines.append("per-layer (traced round):")
        for k, v in out.layers.items():
            lines.append(f"  {k:<46} {v:.6g}")
    print("\n".join(lines))


def cmd_metric(name: str) -> str:
    return "cmd_" + name.replace("-", "_") + "_s"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="each workload once at minimal size")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.smoke)
        return 0

    import_s = import_crowdgame()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lib = args.workload != "cli"
    OUT.mkdir(exist_ok=True)
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        setup_walls, probe_facts = measure_setup(args)
        units = setup(args.workload, args.seed, args.smoke)
        facts = machine_facts()
        params = workload_params(args.workload, args.seed, args.smoke)
        out = run_library(args, units) if lib else run_cli(args, units)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            WORK.parent.rmdir()
        except OSError:
            pass           # another run still uses it

    if out.layers is not None and lib:
        for key in ("import_s", "interp_start_s"):
            out.layers["expcli." + key] = statistics.median(
                f[key] for f in probe_facts)
    times = [op.seconds for op in out.window]
    tail_s, tail_rank = tail(out.window, sum(len(unit) for unit in units))
    e2e = {
        "setup_s": statistics.median(setup_walls),
        "op_s_p50": statistics.median(times),
        "op_s_tail": tail_s,
        "ops_per_s": len(times) / out.wall,
        "ok_frac": out.ok / out.attempted,
        "peak_rss_mb": peak_rss_mb(children=not lib),
    }
    report(args, facts, params, setup_walls, out, e2e, tail_rank)

    section, values = ("per_layer", out.layers) if args.trace else ("end_to_end", e2e)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[section]}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "facts": facts,
        "params": params, "import_s": import_s, "setup_walls": setup_walls,
        "setup_probes": probe_facts, "window_s": out.wall,
        "ops": [[op.key, op.seconds] for op in out.window],
        "attempted": out.attempted, "ok": out.ok, "failed": out.failed,
        "unconverged": out.unconverged, "failures": out.failures,
        "end_to_end": e2e,
        "per_layer": out.layers,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
