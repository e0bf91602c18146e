"""The repo benchmark: host time to regenerate paper artifacts, checked.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-single-core --seed 1 \\
        --seconds 42 --trace 0

One run first resolves the C kernel in a fresh process (compiling it in
a cold checkout, reported as ``dram.kernel.build_s``, not timed), then runs
passes of the workload, each in a fresh process (``passrun.py``), until
the next pass would overrun ``--seconds``.  The workloads are fixed sets
of paper-default points whose payloads are locked, so ``--seed`` changes
nothing that is evaluated; it is accepted and printed.  With
``--trace 1`` untraced and traced passes alternate.  Every payload is checked against the
digest lock (``lock.json``); every ``REPRO_*`` variable is removed from
the passes' environment, so each knob is at its default.  Times are CPU
seconds at a reference host speed (``calib.py``): each is scaled by the
time a fixed calibration loop took during the same pass (for set-up,
just before and after it), so most of the host's speed drift cancels.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` (point evaluations, all passes) and
``metrics`` — the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  See ``README.md`` for what each one means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench import calib  # noqa: E402

#: A run never takes longer than this, whatever ``--seconds`` says.
HARD_LIMIT_S = 170.0
#: Set-up-only processes per untraced run, inside its ``--seconds``; each
#: pass's own set-up is sampled too.
SETUP_SAMPLES = 3


class ChildFailed(RuntimeError):
    pass


def child_env() -> tuple[dict, list[str]]:
    """The passes' environment (no ``REPRO_*`` knobs) and what it dropped."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    return env, sorted(set(os.environ) - set(env))


def spawn(args: list[str], env: dict, timeout: float) -> dict:
    """Run ``passrun.py`` with ``args``; its last stdout line, parsed."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "passrun.py"), *args], cwd=ROOT,
            env=env, capture_output=True, text=True,
            timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"passrun {' '.join(args)} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise ChildFailed(f"passrun {' '.join(args)} exited"
                          f" {proc.returncode}:\n{tail}")
    return json.loads(lines[-1])


def _value(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _point_medians(passes: list[dict]) -> dict[str, float]:
    """Each point's seconds at the reference speed, median over passes."""
    by_key: dict[str, list[float]] = {}
    for report in passes:
        for point in report["points"]:
            by_key.setdefault(point["key"], []).append(
                calib.scaled(point["seconds"], report["calib_s"]))
    return {key: statistics.median(times) for key, times in by_key.items()}


def setup_seconds(report: dict) -> float:
    """A process's set-up seconds at the reference speed."""
    return calib.scaled(report["setup_s"], report["setup_calib_s"])


def end_to_end(untraced: list[dict], setups: list[float],
               model: dict) -> dict:
    cpu = sum(_point_medians(untraced).values())
    return {
        "cpu_ref_s": _value(cpu, "s"),
        "setup_s": _value(statistics.median(setups), "s"),
        "peak_rss_mb": _value(
            statistics.median(r["rss_mb"] for r in untraced), "MB"),
        "accesses_per_ref_s": _value(model["accesses"] / cpu, "1/s"),
    }


def per_layer(untraced: list[dict], traced: list[dict],
              build_s: float) -> dict:
    from perfbench.tracer import MODEL_COUNTS, REPORTED_LAYERS, ROOT_LAYER

    first = traced[0]
    counts = first["counts"]
    commands = max(1, counts["dram_commands"])
    metrics = {}
    for layer in REPORTED_LAYERS:
        self_s = statistics.median(r["layers"][layer]["self_s"]
                                   for r in traced)
        metrics[f"{layer}.self_s"] = _value(self_s, "s")
        metrics[f"{layer}.calls"] = _value(
            first["layers"][layer]["calls"], "count")
        metrics[f"{layer}.us_per_command"] = _value(
            self_s * 1e6 / commands, "us")
    for name, count in counts.items():
        if name not in MODEL_COUNTS:
            metrics[name] = _value(count, "count")
    metrics["cpu.processor.accesses"] = _value(counts["accesses"], "count")
    metrics["cpu.processor.llc_misses"] = _value(counts["llc_misses"],
                                                 "count")
    metrics["cpu.cache.l2_misses"] = _value(counts["l2_misses"], "count")
    metrics["dram.device.commands"] = _value(counts["dram_commands"],
                                             "count")
    metrics["unattributed_share"] = _value(statistics.median(
        r["layers"][ROOT_LAYER]["self_s"]
        / sum(v["self_s"] for k, v in r["layers"].items() if k != "core.smc")
        for r in traced), "ratio")
    traced_cpu = statistics.median(r["cpu_s"] for r in traced)
    metrics["trace_overhead"] = _value(
        traced_cpu / statistics.median(r["cpu_s"] for r in untraced),
        "ratio")
    metrics["dram.kernel.build_s"] = _value(build_s, "s")
    return metrics


def check(workload: str, passes: list[dict], traced: list[dict],
          lock: dict) -> tuple[int, int, list[str]]:
    """``(attempted, failed, problems)`` over every pass of the run."""
    from perfbench.workloads import WORKLOADS

    locked = lock["points"]
    attempted = failed = 0
    problems = []
    for report in passes:
        keys = {point["key"] for point in report["points"]}
        if keys != set(locked):
            problems.append("pass points differ from the lock:"
                            f" {sorted(keys ^ set(locked))}")
        backend_ok = report["backend"].get("backend") == "c"
        if not backend_ok:
            problems.append(f"C kernel not loaded: {report['backend']}")
        for point in report["points"]:
            attempted += 1
            if point["error"] is not None:
                failed += 1
                problems.append(f"{point['key']} raised:\n{point['error']}")
            elif point["digest"] != locked.get(point["key"]):
                failed += 1
                problems.append(f"{point['key']} payload digest"
                                f" {point['digest']} != lock")
            elif not backend_ok:
                failed += 1
    expected = WORKLOADS[workload].expected_layers
    for report in traced:
        for layer in expected:
            if not report["layers"][layer]["calls"]:
                problems.append(f"layer {layer} recorded no calls")
        for name, count in lock["model"].items():
            if report["counts"][name] != count:
                problems.append(f"modelled {name} {report['counts'][name]}"
                                f" != locked {count}")
        if report["counts"] != traced[0]["counts"]:
            problems.append("kernel/model counts differ between traced"
                            " passes")
    return attempted, failed, problems


def measure(workload: str, seconds: float, trace: bool, env: dict,
            started: float) -> tuple[list, list, list, dict]:
    """Run passes until the budget is spent; returns all reports."""
    warm = spawn(["--warm"], env, HARD_LIMIT_S)
    begin = time.perf_counter()
    setups = [setup_seconds(spawn([workload, "--setup-only"], env,
                                  HARD_LIMIT_S))
              for _ in range(0 if trace else SETUP_SAMPLES)]
    untraced: list[dict] = []
    traced: list[dict] = []
    durations: dict[bool, list[float]] = {False: [], True: []}
    while True:
        traced_pass = trace and len(traced) < len(untraced)
        remaining = HARD_LIMIT_S - (time.perf_counter() - started)
        pass_start = time.perf_counter()
        report = spawn([workload] + (["--trace"] if traced_pass else []),
                       env, remaining)
        durations[traced_pass].append(time.perf_counter() - pass_start)
        (traced if traced_pass else untraced).append(report)
        if trace and not traced:
            continue
        following = trace and len(traced) < len(untraced)
        estimate = statistics.median(durations[following]
                                     or durations[False])
        now = time.perf_counter()
        if (now - begin + estimate > seconds
                or now - started + estimate > HARD_LIMIT_S - 10):
            break
    setups += [setup_seconds(r) for r in untraced + traced]
    return untraced, traced, setups, warm


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument(
        "--seed", type=int, required=True,
        help="recorded only: the points and their own seeds are the"
             " paper defaults, locked by digest")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (ROOT / "src" / "repro", ROOT / "tools" /
                   "compare_results.py"):
        if not needed.exists():
            print(f"error: {needed.relative_to(ROOT)} is missing; run from"
                  " a checkout of the repository", file=sys.stderr)
            return 2
    from perfbench.lock import load_lock
    from perfbench.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}"
                     f" (known: {', '.join(WORKLOADS)})")
    lock = load_lock()[args.workload]

    env, removed = child_env()
    print(f"workload {args.workload}: seed {args.seed}, {args.seconds:g} s,"
          f" trace {args.trace}; REPRO_* knobs unset"
          f" (removed from the environment: {', '.join(removed) or 'none'})")
    try:
        untraced, traced, setups, warm = measure(
            args.workload, args.seconds, bool(args.trace), env, started)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    backend = warm["backend"]
    build_s = backend.get("build_seconds", 0.0)
    print(f"kernel backend {backend.get('backend')}"
          f" ({backend.get('compiler', backend.get('reason'))});"
          f" build {build_s:.3f} s, not timed")
    attempted, failed, problems = check(
        args.workload, untraced + traced, traced, lock)
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(f"{len(untraced)} untraced and {len(traced)} traced passes of"
          f" {len(lock['points'])} points; {failed} of {attempted} point"
          " evaluations failed")
    medians = _point_medians(untraced)
    slowest = max(medians, key=medians.get)
    print(f"slowest point {slowest}: {medians[slowest]:.3f} s (median,"
          " reference speed)")
    raw = statistics.median(r["cpu_s"] for r in untraced)
    print(f"points took {raw:.3f} CPU s per untraced pass (median), "
          f"{sum(medians.values()):.3f} s at the reference speed")
    errs = [r["timescale_err_max_pct"] for r in untraced
            if "timescale_err_max_pct" in r]
    if errs:
        print(f"sec6 time-scaled vs 1 GHz reference error: max {errs[0]:.4f} %")
    if args.trace:
        metrics = per_layer(untraced, traced, build_s)
    else:
        metrics = end_to_end(untraced, setups, lock["model"])
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
