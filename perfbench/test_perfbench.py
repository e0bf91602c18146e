"""Tests of the benchmark's own machinery (run: pytest perfbench).

They cover the span recorder (every patched attribute is restored, the
root and layer spans are recorded), the digest (a one-bit float change
is caught, and the encoding keeps every distinction the repo's strict
comparator makes), the lock (it names exactly each workload's points)
and the reference-speed scaling of the end-to-end times.
"""

from __future__ import annotations

import json
import math
import struct
import sys
from pathlib import Path

import pytest

from perfbench import digest as digest_mod
from perfbench import calib, run, tracer, workloads
from perfbench.lock import load_lock


def _flip_low_bit(value: float) -> float:
    (bits,) = struct.unpack("<Q", struct.pack("<d", value))
    return struct.unpack("<d", struct.pack("<Q", bits ^ 1))[0]


def _entry_points() -> dict[tuple[int, str], object]:
    """Every attribute the recorder may patch, keyed by (owner id, name)."""
    from repro.dram.kernel import cbackend

    owners = [tracer._resolve(entry) for entries in tracer.LAYERS.values()
              for entry in entries]
    kernel, _reason = cbackend.load()
    if kernel is not None:
        owners += [(kernel, name) for name in tracer.KERNEL_ENTRIES]
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro."):
            owners += [(module, name) for name, value in vars(module).items()
                       if callable(value)]
    return {(id(owner), name): owner.__dict__[name]
            for owner, name in owners}


def test_recorder_restores_every_patched_attribute():
    from repro.runner import registry

    registry.all_specs()
    before = _entry_points()
    recorder = tracer.Recorder()
    recorder.install()
    try:
        patched = {(id(owner), name): owner.__dict__[name]
                   for owner, name, _original in recorder._patches}
        assert patched, "install patched nothing"
        assert all(patched[key] is not before[key]
                   for key in patched if key in before)
    finally:
        recorder.restore()
    assert recorder._patches == []
    after = _entry_points()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


def test_recorder_attributes_a_point_to_layers():
    from repro.runner import registry
    from repro.runner.spec import evaluate_point

    point = registry.get("fig02").build_points()[0]
    recorder = tracer.Recorder()
    recorder.install()
    try:
        recorder.run_point(evaluate_point, point)
    finally:
        recorder.restore()
    layers = recorder.layer_totals()
    assert layers[tracer.ROOT_LAYER]["calls"] == 1
    for layer in ("workloads", "cpu.processor", "core.engine"):
        assert layers[layer]["calls"] > 0, layer
    total = sum(v["self_s"] for k, v in layers.items() if k != "core.smc")
    assert total > 0
    assert recorder.counts()["accesses"] > 0


def test_one_bit_float_change_fails_the_digest_check():
    payload = {"speedup": 1.2345, "rows": [1, 2.5, {"x": -0.0}]}
    flipped = {"speedup": _flip_low_bit(1.2345),
               "rows": [1, 2.5, {"x": -0.0}]}
    assert flipped["speedup"] != payload["speedup"]
    locked = digest_mod.digest(payload)
    assert digest_mod.digest(flipped) != locked
    report = {"backend": {"backend": "c"}, "points": [
        {"key": "fig99/p", "seconds": 1.0, "error": None,
         "digest": digest_mod.digest(flipped)}]}
    lock = {"points": {"fig99/p": locked}, "model": {}}
    attempted, failed, problems = run.check(
        "rowclone-writes", [report], [], lock)
    assert (attempted, failed) == (1, 1)
    assert any("digest" in problem for problem in problems)


def test_kernel_guard_fails_every_point_without_the_c_backend():
    payload = {"v": 1}
    report = {"backend": {"backend": "none", "reason": "no C compiler"},
              "points": [{"key": "fig99/p", "seconds": 1.0, "error": None,
                          "digest": digest_mod.digest(payload)}]}
    lock = {"points": {"fig99/p": digest_mod.digest(payload)}, "model": {}}
    attempted, failed, problems = run.check(
        "rowclone-writes", [report], [], lock)
    assert (attempted, failed) == (1, 1)
    assert problems


@pytest.mark.parametrize("a, b", [
    (1, 1.0), (True, 1), (0.0, -0.0), ({"a": 1}, {"a": 1, "b": None}),
    ([1, 2], [2, 1]), ("1", 1), (None, 0),
])
def test_digest_separates_what_the_comparator_separates(a, b):
    payloads_equal = digest_mod.compare_results().payloads_equal
    assert not payloads_equal(a, b)
    assert digest_mod.digest(a) != digest_mod.digest(b)


def test_digest_ignores_key_order_and_keeps_nan():
    a = {"x": 1.0, "y": [math.nan]}
    b = {"y": [math.nan], "x": 1.0}
    assert digest_mod.compare_results().payloads_equal(a, b)
    assert digest_mod.digest(a) == digest_mod.digest(b)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_lock_names_exactly_each_workloads_points(name):
    lock = load_lock()[name]
    keys = [workloads.key(point) for point in workloads.points(name)]
    assert len(keys) == len(set(keys))
    assert set(keys) == set(lock["points"])
    assert set(lock["model"]) == set(tracer.MODEL_COUNTS)


def test_decline_reasons_map_to_fixed_slugs():
    assert tracer.decline_slug(
        "stateful scheduler (ATLAS)") == "stateful_scheduler"
    assert tracer.decline_slug(
        "kernel compile failed: boom") == "backend_unavailable"
    assert tracer.decline_slug(None) == "other"
    assert set(tracer.DECLINE_SLUGS) >= {
        slug for _prefix, slug in tracer.DECLINE_REASONS}


def _benchmark_json() -> dict:
    return json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


def test_reported_metrics_match_benchmark_json():
    layers = {layer: {"self_s": 0.5, "calls": 3}
              for layer in tracer.REPORTED_LAYERS}
    counts = {name: 1 for name in tracer.MODEL_COUNTS}
    counts["dram.kernel.engaged"] = 1
    counts.update({f"dram.kernel.declined.{slug}": 0
                   for slug in tracer.DECLINE_SLUGS})
    traced = [{"layers": layers, "counts": counts, "cpu_s": 2.0}]
    untraced = [{"cpu_s": 1.0, "rss_mb": 100.0, "calib_s": 0.005,
                 "points": [{"key": "a/b", "seconds": 1.0}]}]
    bench = _benchmark_json()
    layer_metrics = run.per_layer(untraced, traced, 0.0)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        (name, value["unit"]) for name, value in layer_metrics.items()]
    e2e = run.end_to_end(untraced, [0.4] * 5, {"accesses": 10})
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == [
        (name, value["unit"]) for name, value in e2e.items()]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_host_slowdown_cancels_in_reference_times():
    def untraced(loop_slowdown: float) -> list[dict]:
        passes = []
        for extra in (1.0, 2.0):
            slow = (loop_slowdown * extra) ** calib.SENSITIVITY
            passes.append({
                "rss_mb": 100.0,
                "calib_s": calib.REFERENCE_S * loop_slowdown * extra,
                "points": [{"key": "a/b", "seconds": 0.3 * slow},
                           {"key": "a/c", "seconds": 0.7 * slow}]})
        return passes

    def setup(loop_slowdown: float) -> float:
        return run.setup_seconds({
            "setup_s": 0.4 * loop_slowdown ** calib.SENSITIVITY,
            "setup_calib_s": calib.REFERENCE_S * loop_slowdown})

    quiet = run.end_to_end(untraced(1.0), [setup(1.0)], {"accesses": 10})
    busy = run.end_to_end(untraced(2.5), [setup(2.5)], {"accesses": 10})
    assert quiet["cpu_ref_s"]["value"] == pytest.approx(1.0)
    assert quiet["setup_s"]["value"] == pytest.approx(0.4)
    for name, metric in quiet.items():
        assert busy[name]["value"] == pytest.approx(metric["value"]), name
