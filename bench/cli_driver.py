"""Run one crowdgame CLI command the way the console script does.

    python3 bench/cli_driver.py SIDE.json SPAWN_TIME TRACE -- ARGV...

Calls ``expcli.main(ARGV)`` and exits with its return code, leaving stdout to
the command.  Facts about the run go to SIDE.json: the seconds from the
parent's SPAWN_TIME (a ``time.time()`` stamp) to this interpreter's first
statement, the import time of ``crowdgame.expcli``, and the RuntimeWarnings
the command raised, which are recorded instead of printed.  With TRACE=1 the
layer wrappers of ``tracing.py`` are installed, and SIDE.json also gets the
per-layer statistics; the spans themselves go to SIDE.json's name with a
``.spans.tsv`` suffix.
"""

import time

_ENTERED = time.time()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    side_path, spawn_time, trace, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: cli_driver.py SIDE SPAWN_TIME TRACE -- ARGV...")
    side = {"interp_start_s": _ENTERED - float(spawn_time)}
    sys.path.insert(0, os.path.join(ROOT, "src"))
    t0 = time.perf_counter()
    from crowdgame import expcli
    side["import_s"] = time.perf_counter() - t0

    tracer = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if trace == "1":
            import tracing
            tracer = tracing.Tracer()
            with tracing.installed(tracer):
                rc = expcli.main(argv)
        else:
            rc = expcli.main(argv)
    sys.stdout.flush()
    side["rc"] = rc
    side["runtime_warnings"] = sum(
        issubclass(w.category, RuntimeWarning) for w in caught
    )
    if tracer is not None:
        side["layers"] = tracing.layer_stats(tracer)
        tracer.dump(side_path + ".spans.tsv")
    with open(side_path, "w", encoding="utf-8") as fh:
        json.dump(side, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
