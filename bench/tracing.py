"""Spans around the crowdgame layers, recorded from outside the library.

A traced process rebinds the module-level names that crowdgame's own callers
look up at call time (``equilibrium.invert_rates``, ``expcli._emit``, the
``_STEPPERS`` table, ...) to thin wrappers that record one span per call:
name, start, end, parent span, operation id and whether the call raised.
Nothing under ``src/`` changes, and an untraced process never imports this
module's wrappers.

Spans live in flat typed arrays, so a traced ``verify`` command (about 400k
spans) stays within a few tens of MB, and are written out once at exit.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

import numpy as np

# Span names, in code order; a span stores the index into this tuple.
NAMES = (
    "model.invert_rates",
    "model.gradient_all",
    "model.utility_rate_space",
    "equilibrium.solve",
    "equilibrium.sweep",
    "equilibrium.best_response",
    "equilibrium.rate_upper_bound",
    "equilibrium.newton",
    "equilibrium.foc_residual",
    "equilibrium.foc_hessian",
    "equilibrium.check_existence",
    "equilibrium.verify_epsilon_ne",
    "oracle.grid_certify_ne",
    "expcli.load_config",
    "expcli.emit",
)
CODE = {name: k for k, name in enumerate(NAMES)}


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.name = array("B")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.err = array("b")
        self.op_id = 0            # set by the caller before each operation
        self.extra: dict[int, object] = {}
        self._stack: list[int] = []
        self._newton_probe: dict[int, list] = {}

    def wrap(self, span_name: str, fn, on_call=None, on_return=None):
        code = CODE[span_name]
        names, starts, ends = self.name, self.start, self.end
        parents, ops, errs, stack = self.parent, self.op, self.err, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            parent = stack[-1] if stack else -1
            names.append(code)
            parents.append(parent)
            ops.append(self.op_id)
            errs.append(0)
            ends.append(0.0)
            if on_call is not None:
                on_call(parent, args)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                errs[idx] = 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_return is not None:
                self.extra[idx] = on_return(idx, out)
            return out

        traced.__wrapped__ = fn
        return traced

    # -- Newton step acceptance -------------------------------------------
    # _refine_newton evaluates gradient_all once at the top of every loop
    # pass (line-search residuals go through the separately traced
    # _foc_residual).  With U steps taken and L loop-top evaluations, the
    # loop either stopped on a small residual (L == U + 1), ran out of budget
    # after an accepted step (the returned iterate differs from the last
    # loop-top one), or stopped on a step whose line search found nothing.

    def _gradient_call(self, parent: int, args):
        if parent >= 0 and self.name[parent] == CODE["equilibrium.newton"]:
            probe = self._newton_probe.setdefault(parent, [0, None])
            probe[0] += 1
            probe[1] = np.array(args[0], dtype=float)

    def _newton_return(self, idx: int, out):
        rates, used, _ = out
        loop_tops, last = self._newton_probe.pop(idx, (0, None))
        if used == 0:
            return (0, 0)
        moved = last is not None and not np.array_equal(rates, last)
        accepted = used if (loop_tops == used + 1 or moved) else used - 1
        return (used, accepted)

    def dump(self, path):
        """Write every span as one tab-separated line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\top\traised\n")
            for k in range(len(self.start)):
                fh.write(
                    f"{NAMES[self.name[k]]}\t{self.start[k]:.9f}\t"
                    f"{self.end[k]:.9f}\t{self.parent[k]}\t{self.op[k]}\t"
                    f"{self.err[k]}\n"
                )


@contextmanager
def installed(tracer: Tracer):
    """Rebind crowdgame's layer entry points to traced wrappers, then restore."""
    from crowdgame import equilibrium, expcli, model, oracle

    saved = []

    def rebind(modules, attr, wrapper):
        for mod in modules:
            saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, wrapper)

    rebind((model, equilibrium), "invert_rates",
           tracer.wrap("model.invert_rates", model.invert_rates))
    rebind((model, equilibrium), "gradient_all",
           tracer.wrap("model.gradient_all", model.gradient_all,
                       on_call=tracer._gradient_call))
    rebind((model, equilibrium, oracle), "utility_rate_space",
           tracer.wrap("model.utility_rate_space", model.utility_rate_space))
    rebind((equilibrium,), "solve",
           tracer.wrap("equilibrium.solve", equilibrium.solve,
                       on_return=lambda idx, res: res.iterations))
    rebind((equilibrium,), "_best_response_full",
           tracer.wrap("equilibrium.best_response",
                       equilibrium._best_response_full))
    rebind((equilibrium,), "rate_upper_bound",
           tracer.wrap("equilibrium.rate_upper_bound",
                       equilibrium.rate_upper_bound))
    rebind((equilibrium,), "_refine_newton",
           tracer.wrap("equilibrium.newton", equilibrium._refine_newton,
                       on_return=tracer._newton_return))
    rebind((equilibrium,), "_foc_residual",
           tracer.wrap("equilibrium.foc_residual", equilibrium._foc_residual))
    rebind((equilibrium,), "_foc_hessian",
           tracer.wrap("equilibrium.foc_hessian", equilibrium._foc_hessian))
    rebind((equilibrium,), "check_existence",
           tracer.wrap("equilibrium.check_existence",
                       equilibrium.check_existence))
    rebind((equilibrium,), "verify_epsilon_ne",
           tracer.wrap("equilibrium.verify_epsilon_ne",
                       equilibrium.verify_epsilon_ne))
    rebind((oracle,), "grid_certify_ne",
           tracer.wrap("oracle.grid_certify_ne", oracle.grid_certify_ne))
    rebind((expcli,), "load_config",
           tracer.wrap("expcli.load_config", expcli.load_config))
    rebind((expcli,), "_emit", tracer.wrap("expcli.emit", expcli._emit))
    steppers = dict(equilibrium._STEPPERS)
    for method, step in steppers.items():
        equilibrium._STEPPERS[method] = tracer.wrap("equilibrium.sweep", step)
    try:
        yield tracer
    finally:
        equilibrium._STEPPERS.update(steppers)
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def self_times(start, end, parent) -> list[float]:
    """Duration of each span minus the part of it its direct children cover."""
    n = len(start)
    children: list[list[int]] = [[] for _ in range(n)]
    for k in range(n):
        if parent[k] >= 0:
            children[parent[k]].append(k)
    out = []
    for k in range(n):
        lo, hi = start[k], end[k]
        covered = 0.0
        run_lo = run_hi = None
        for c in sorted(children[k], key=lambda c: start[c]):
            a, b = max(start[c], lo), min(end[c], hi)
            if b <= a:
                continue
            if run_hi is None or a > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = a, b
            else:
                run_hi = max(run_hi, b)
        if run_hi is not None:
            covered += run_hi - run_lo
        out.append((hi - lo) - covered)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_stats(tracer: Tracer) -> dict:
    """Calls, self time and per-layer ratios of one tracer's spans."""
    names = tracer.name
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    calls = [0] * len(NAMES)
    self_s = [0.0] * len(NAMES)
    raised = [0] * len(NAMES)
    child_count: dict[tuple[int, int], int] = {}
    for k in range(len(names)):
        code = names[k]
        calls[code] += 1
        self_s[code] += selfs[k]
        raised[code] += tracer.err[k]
        p = tracer.parent[k]
        if p >= 0:
            key = (names[p], code)
            child_count[key] = child_count.get(key, 0) + 1
    c = CODE
    steps = accepted = iterations = 0
    for idx, value in tracer.extra.items():
        if names[idx] == c["equilibrium.newton"]:
            steps += value[0]
            accepted += value[1]
        elif names[idx] == c["equilibrium.solve"]:
            iterations += value
    br, rub = c["equilibrium.best_response"], c["equilibrium.rate_upper_bound"]
    evals = (child_count.get((br, c["model.utility_rate_space"]), 0)
             + child_count.get((br, c["model.gradient_all"]), 0))
    probes = child_count.get((rub, c["model.invert_rates"]), 0)
    inv = c["model.invert_rates"]
    out = {}
    for k, name in enumerate(NAMES):
        out[f"{name}.calls"] = calls[k]
        out[f"{name}.self_s"] = self_s[k]
    out.update({
        "model.invert_rates.infeasible_frac": _ratio(raised[inv], calls[inv]),
        "equilibrium.rate_upper_bound.probes_per_call": _ratio(probes, calls[rub]),
        "equilibrium.best_response.evals_per_call": _ratio(evals, calls[br]),
        "equilibrium.sweep.count": calls[c["equilibrium.sweep"]],
        "equilibrium.newton.steps": steps,
        "equilibrium.newton.accept_frac": _ratio(accepted, steps),
        "equilibrium.solve.iterations": iterations,
    })
    return out


# The ratio metrics, each with its denominator; merge_stats recomputes them
# from summed numerators and denominators and adds every other metric.
_RATIOS = {
    "model.invert_rates.infeasible_frac": "model.invert_rates.calls",
    "equilibrium.rate_upper_bound.probes_per_call":
        "equilibrium.rate_upper_bound.calls",
    "equilibrium.best_response.evals_per_call":
        "equilibrium.best_response.calls",
    "equilibrium.newton.accept_frac": "equilibrium.newton.steps",
}


def merge_stats(parts: list[dict]) -> dict:
    """Sum layer_stats of several tracers (one per CLI command)."""
    if not parts:
        return layer_stats(Tracer())
    merged = {}
    for key in parts[0]:
        if key in _RATIOS:
            den = _RATIOS[key]
            num = sum(p[key] * p[den] for p in parts)
            merged[key] = _ratio(num, sum(p[den] for p in parts))
        else:
            merged[key] = sum(p[key] for p in parts)
    return merged
