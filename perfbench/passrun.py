"""One pass of a benchmark workload, in a fresh process.

Usage (``run.py`` starts these; by hand only for debugging)::

    python3 perfbench/passrun.py WORKLOAD [--trace]
    python3 perfbench/passrun.py WORKLOAD --setup-only
    python3 perfbench/passrun.py --warm

A pass times its set-up (importing ``repro``, loading the artifact
registry, resolving the kernel backend and building the workload's
points), then evaluates every point of the workload once through
``repro.runner.spec.evaluate_point``, serially, in registry order and
without a result cache.  Each payload is digested after its
point's timer stops.  Times are CPU seconds (``calib.clock``), and the
calibration loop (``calib.py``) is timed around set-up and between
points, so ``run.py`` can report them at the reference host speed.  With ``--trace`` the span recorder is installed
after set-up and removed before the process reports.  ``--warm`` only
resolves (and, in a cold checkout, compiles) the C kernel and reports
its build seconds.

The last line of standard output is one JSON object.
"""

import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import calib  # noqa: E402

# Set-up is bracketed by calibration loops, like every point.
calib.warm()
_LOOP_BEFORE_SETUP = calib.sample()
_T0 = calib.clock()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def _setup(workload: str | None):
    """Import the program and resolve what every point needs."""
    import repro
    from repro.dram.kernel import backend_info
    from repro.runner import registry

    source = Path(repro.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise ImportError(f"repro imported from {source}, not from {ROOT}")
    registry.all_specs()
    info = backend_info()
    points = None
    if workload is not None:
        from perfbench import workloads
        points = workloads.points(workload)
    return info, points


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", nargs="?")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--warm", action="store_true")
    args = parser.parse_args(argv)
    if not args.warm and args.workload is None:
        parser.error("a workload is required")

    info, points = _setup(None if args.warm else args.workload)
    setup_s = calib.clock() - _T0
    calib.warm()
    report = {"setup_s": setup_s, "backend": info,
              "setup_calib_s": (_LOOP_BEFORE_SETUP + calib.sample()) / 2}
    if args.warm or args.setup_only:
        print(json.dumps(report))
        return 0

    from perfbench import workloads
    from perfbench.digest import digest
    from repro.runner.spec import evaluate_point

    recorder = None
    if args.trace:
        from perfbench.tracer import Recorder
        recorder = Recorder()
        recorder.install()
    clock = calib.clock
    results = []
    timescale_errs = []
    loops = [calib.measure()]
    try:
        for point in points:
            start = clock()
            error = None
            try:
                if recorder is None:
                    payload = evaluate_point(point)
                else:
                    payload = recorder.run_point(evaluate_point, point)
            except Exception:  # a failed point is counted, not fatal
                error = traceback.format_exc()
            seconds = clock() - start
            loops += [calib.measure()
                      for _ in range(calib.runs_after(seconds))]
            results.append({"key": workloads.key(point), "seconds": seconds,
                            "digest": None if error else digest(payload),
                            "error": error})
            if point.artifact == "sec6" and error is None:
                timescale_errs.append(
                    max(payload["exec_err"], payload["lat_err"]))
    finally:
        if recorder is not None:
            recorder.restore()
    report["points"] = results
    report["calib_s"] = statistics.mean(loops)
    report["cpu_s"] = sum(r["seconds"] for r in results)
    report["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if timescale_errs:
        report["timescale_err_max_pct"] = max(timescale_errs)
    if recorder is not None:
        report["layers"] = recorder.layer_totals()
        report["counts"] = recorder.counts()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
