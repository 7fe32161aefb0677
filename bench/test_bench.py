"""Tests of the benchmark itself: inputs, span arithmetic, smoke runs.

    python3 -m pytest bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402

run.import_crowdgame()
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("make", [run.sec4_family_jobs, run.boundary_scale_jobs])
def test_instances_depend_only_on_seed(make):
    a, b, c = make(7), make(7), make(8)
    assert run.instance_bytes(a) == run.instance_bytes(b)
    assert run.instance_bytes(a) != run.instance_bytes(c)


def test_boundary_starts_are_feasible():
    from crowdgame import model
    for job in run.boundary_scale_jobs(3)[0]:
        assert job.opts.init_rates.min() >= job.opts.min_rate
        model.invert_rates(job.opts.init_rates, job.cfg)


def test_cli_order_is_a_seeded_permutation():
    assert run.cli_order(4, False) == run.cli_order(4, False)
    assert sorted(run.cli_order(4, False)) == sorted(run.CLI_COMMANDS)
    orders = {tuple(run.cli_order(s, False)) for s in range(10)}
    assert len(orders) > 1


def test_self_time_on_synthetic_tree():
    # 0: [0, 10] root; 1: [1, 4] and 2: [3, 6] overlap inside it, 3: [8, 12]
    # sticks out past its end; 4: [2, 3] is a grandchild under 1.
    start = [0.0, 1.0, 3.0, 8.0, 2.0]
    end = [10.0, 4.0, 6.0, 12.0, 3.0]
    parent = [-1, 0, 0, 0, 1]
    got = tracing.self_times(start, end, parent)
    # children of 0 cover [1, 6] and [8, 10]: 7 of its 10 seconds
    assert got == pytest.approx([3.0, 2.0, 3.0, 4.0, 1.0])


def test_layer_stats_from_recorded_spans():
    tr = tracing.Tracer()
    calls = []

    def leaf(x):
        calls.append(x)
        if x < 0:
            raise ValueError(x)
        return x

    inv = tr.wrap("model.invert_rates", leaf)
    rub = tr.wrap("equilibrium.rate_upper_bound", lambda: [inv(1), inv(2)])
    rub()
    with pytest.raises(ValueError):
        inv(-1)
    stats = tracing.layer_stats(tr)
    assert stats["model.invert_rates.calls"] == 3
    assert stats["model.invert_rates.infeasible_frac"] == pytest.approx(1 / 3)
    assert stats["equilibrium.rate_upper_bound.probes_per_call"] == 2
    assert list(tr.parent) == [-1, 0, 0, -1]
    total = sum(tracing.self_times(tr.start, tr.end, tr.parent))
    assert total == pytest.approx(tr.end[0] - tr.start[0] + tr.end[3] - tr.start[3])


def test_tail_has_ten_samples_beyond_it():
    ops = [run.Op(f"k{k}", float(k)) for k in range(100)]
    value, rank = run.tail(ops, 50)
    assert sum(op.seconds > value for op in ops) == 10
    assert rank == "p90.0"
    few = [run.Op("a", 1.0), run.Op("b", 4.0), run.Op("b", 6.0), run.Op("a", 9.0)]
    assert run.tail(few, 2) == (5.0, "slowest op")
    # three rounds of five: still the slowest operation, not p33
    rounds = [run.Op(k, t + r) for r in range(3)
              for k, t in zip("abcde", (1.0, 2.0, 3.0, 4.0, 8.0))]
    assert run.tail(rounds, 5) == (9.0, "slowest op")


def test_cli_masks_keep_answers_and_hide_effort():
    solve = (run.EXPECTED / "solve.csv").read_bytes()
    effort = solve.replace(b"iterations=26", b"iterations=31")
    answer = solve.replace(b"0.304144074844", b"0.304144074845", 1)
    assert run.normalize("solve", effort) == run.normalize("solve", solve)
    assert run.normalize("solve", answer) != run.normalize("solve", solve)
    verify = (run.EXPECTED / "verify.txt").read_bytes()
    assert run._masked_values_ok("verify", verify)
    assert not run._masked_values_ok(
        "verify", verify.replace(b"-2.08228314591e-08", b"0.5"))


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", trace, "--smoke"],
        capture_output=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr.decode()[-2000:]
    result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    section = "per_layer" if trace == "1" else "end_to_end"
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sec4-family",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == b""
