"""Kernel differential suite: kernel == flat == object, bit for bit.

``REPRO_KERNEL`` adds a fourth serve path (and a whole-trace block
replay) that must be a pure host-time optimization, exactly like the
fastpath before it.  This suite drives *random* request streams —
hypothesis-generated access blocks across topologies, schedulers, and
interference knobs — through three serve configurations:

* **kernel** — fastpath on, ``REPRO_KERNEL`` forced to the compiled
  backend (or the pure-Python mirror when no C compiler exists);
* **flat**   — fastpath on, kernel disabled (the PR 3 closures);
* **object** — fastpath off (the staged-program reference pipeline);

and asserts the complete observable artifact — ``RunResult`` (including
per-core slices), per-request latencies, ``SmcStats``, device stats, and
every channel's scheduler state (ATLAS attained service, BLISS
blacklist and streak, batch marks) — is identical across all three.
Prefetch-tagged batches, refresh storms, multi-core contention under
every scheduler, and every channel interleave get dedicated cases on
top of the randomized cross.
"""

from __future__ import annotations

import dataclasses
import os
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import (ControllerConfig, InterferenceConfig,
                               jetson_nano_time_scaling)
from repro.core.schedulers import ATLAS, BLISS, SCHEDULERS, BatchScheduler
from repro.core.system import EasyDRAMSystem
from repro.cpu.blocks import AccessBlock, BlockTrace
from repro.cpu.memtrace import FLAG_DEPENDENT, FLAG_WRITE
from repro.cpu.prefetch import PrefetchConfig
from repro.dram.kernel import cbackend

LINE = 64

#: The kernel leg: the compiled backend when a C compiler exists, the
#: pure-Python mirror otherwise (batch entry only, still differential).
KERNEL_MODE = "c" if cbackend.load()[0] is not None else "py"

MODES = (
    ("kernel", "1", KERNEL_MODE),
    ("flat", "1", "0"),
    ("object", "0", "0"),
)


@contextmanager
def serve_mode(fastpath: str, kernel: str):
    saved = {k: os.environ.get(k) for k in ("REPRO_FASTPATH", "REPRO_KERNEL")}
    os.environ["REPRO_FASTPATH"] = fastpath
    os.environ["REPRO_KERNEL"] = kernel
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def _trace(stream: list[tuple[int, int, int]], split: int) -> BlockTrace:
    """The drawn stream as (up to) two access blocks."""
    chunks = [stream[:split], stream[split:]]
    return BlockTrace(
        AccessBlock([a for a, _, _ in chunk], [f for _, f, _ in chunk],
                    [g for _, _, g in chunk])
        for chunk in chunks if chunk)


def _observables(system, session) -> dict:
    """Every observable of a finished session, as a dict."""
    artifact = dataclasses.asdict(session.finish())
    artifact.pop("wall_seconds")
    artifact["latencies"] = [list(core.processor.stats.request_latencies)
                             for core in session.cores]
    artifact["smc"] = [dataclasses.asdict(smc.stats)
                       for smc in system.smcs]
    artifact["device"] = [dataclasses.asdict(c.tile.device.stats)
                          for c in system.channels]
    artifact["engine"] = dataclasses.asdict(session.engine.stats)
    artifact["counters"] = dataclasses.asdict(system.counters)
    # The full ranking state, so a kernel that served in the right order
    # but left the scheduler behind (or ahead) still fails.
    artifact["scheduler"] = [vars(smc.scheduler) for smc in system.smcs]
    for smc in system.smcs:
        if isinstance(smc.scheduler, BatchScheduler):
            assert not smc.scheduler.marked, "batch marks outlived a batch"
    return artifact


def _run_artifact(config, stream: list, split: int,
                  prefetch: PrefetchConfig | None = None) -> dict:
    """One full session over the stream; every observable, as a dict."""
    system = EasyDRAMSystem(config)
    session = system.session("kernel-diff")
    if prefetch is not None:
        session.set_prefetcher(0, prefetch)
    session.run_trace(_trace(stream, split))
    return _observables(system, session)


def assert_modes_identical(make_config, stream: list, split: int,
                           prefetch: PrefetchConfig | None = None) -> None:
    artifacts = {}
    for name, fastpath, kernel in MODES:
        with serve_mode(fastpath, kernel):
            artifacts[name] = _run_artifact(make_config(), stream, split,
                                            prefetch)
    assert artifacts["kernel"] == artifacts["flat"], \
        "kernel serve path changed the artifact"
    assert artifacts["flat"] == artifacts["object"], \
        "flat serve path changed the artifact"


# -- randomized cross: topology x scheduler x interference -------------------

access = st.tuples(
    st.integers(min_value=0, max_value=(8 * 1024 * 1024) // LINE - 1)
    .map(lambda line: line * LINE),
    st.sampled_from((0, FLAG_WRITE, FLAG_DEPENDENT,
                     FLAG_WRITE | FLAG_DEPENDENT)),
    st.integers(min_value=0, max_value=40),
)

stream_st = st.lists(access, min_size=20, max_size=120)


@pytest.mark.slow  # 20 randomized full-cross examples; on CI's `slow` leg
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(stream=stream_st, split=st.integers(min_value=0, max_value=120),
       topology=st.sampled_from(("ddr4-1ch", "ddr4-2ch")),
       scheduler=st.sampled_from(sorted(SCHEDULERS)),
       storm=st.sampled_from((1, 4)))
def test_random_streams_identical(stream, split, topology, scheduler, storm):
    assert_modes_identical(
        lambda: jetson_nano_time_scaling(
            controller=ControllerConfig(scheduler=scheduler),
            interference=InterferenceConfig(refresh_storm_factor=storm),
        ).with_topology(topology),
        stream, split)


# -- dedicated corners -------------------------------------------------------


def _dense_mixed_stream(n: int = 200) -> list[tuple[int, int, int]]:
    """Row-hit/miss/conflict mix with writebacks: strided rows + reuse."""
    stream = []
    for i in range(n):
        line = (i * 37 + (i % 5) * 4096) % (4 * 1024 * 1024 // LINE)
        flags = FLAG_WRITE if i % 3 == 0 else 0
        if i % 11 == 0:
            flags |= FLAG_DEPENDENT
        stream.append((line * LINE, flags, i % 7))
    return stream


def test_prefetch_tagged_batches_identical():
    """A stream prefetcher adds prefetch-tagged fills to every gate."""
    assert_modes_identical(
        jetson_nano_time_scaling, _dense_mixed_stream(), 120,
        prefetch=PrefetchConfig(degree=2, distance=4, streams=8))


def test_refresh_storm_batches_identical():
    """A 8x refresh storm interleaves REF bursts through the episodes."""
    stream = [(addr, flags, gap + 50) for addr, flags, gap
              in _dense_mixed_stream(120)]
    assert_modes_identical(
        lambda: jetson_nano_time_scaling(
            interference=InterferenceConfig(refresh_storm_factor=8)),
        stream, 60)


def test_multirank_topology_identical():
    """Multi-rank forces the kernel's structural fallback; still equal."""
    assert_modes_identical(
        lambda: jetson_nano_time_scaling().with_topology("ddr4-1ch-2rk"),
        _dense_mixed_stream(120), 60)


def test_multicore_coreresults_identical():
    """Contended mix: per-core slices and fairness stay bit-identical."""
    from repro.core.workload_mix import WorkloadMix, run_mix

    mix = WorkloadMix(("stream", "pointer_chase"))
    artifacts = {}
    for name, fastpath, kernel in MODES:
        with serve_mode(fastpath, kernel):
            run = run_mix(jetson_nano_time_scaling(), mix, solo=True)
        artifact = dataclasses.asdict(run.result)
        artifact.pop("wall_seconds")
        artifact["core_cycles"] = run.core_cycles
        artifact["solo_cycles"] = run.solo_cycles
        artifacts[name] = artifact
    assert artifacts["kernel"] == artifacts["flat"]
    assert artifacts["flat"] == artifacts["object"]


#: Ranked schedulers with knobs small enough that a short run crosses
#: ATLAS quantum halvings, BLISS blacklists and clears, and many batches.
TIGHT_SCHEDULERS = {
    "atlas": lambda: ATLAS(quantum=16),
    "bliss": lambda: BLISS(threshold=2, clear_interval=24),
    "batch": lambda: BatchScheduler(batch_cap=2),
    "atlas-capped": lambda: ATLAS(age_cap=6, quantum=16),
}


def _run_cores_artifact(config, streams: list, make_scheduler) -> dict:
    """``len(streams)`` cores under one scheduler object per channel."""
    system = EasyDRAMSystem(config)
    for smc in system.smcs:
        smc.scheduler = make_scheduler()
    session = system.session("kernel-diff-cores")
    for _ in streams[1:]:
        session.add_core()
    session.run_cores([_trace(stream, len(stream) // 2)
                       for stream in streams])
    return _observables(system, session)


def _core_streams(cores: int) -> list:
    """One dense mixed stream per core, in disjoint 4 MiB regions."""
    region = 4 * 1024 * 1024
    return [[(addr + core * region, flags, gap) for addr, flags, gap
             in _dense_mixed_stream(160 - 30 * core)]
            for core in range(cores)]


@pytest.mark.parametrize("topology", ("ddr4-1ch", "ddr4-2ch"))
@pytest.mark.parametrize("scheduler", sorted(TIGHT_SCHEDULERS))
@pytest.mark.parametrize("cores", (1, 3))
def test_ranked_schedulers_identical(cores, scheduler, topology):
    """Per-gate (3 cores) and resident (1 core) ranking, state included."""
    streams = _core_streams(cores)
    artifacts = {}
    for name, fastpath, kernel in MODES:
        with serve_mode(fastpath, kernel):
            artifacts[name] = _run_cores_artifact(
                jetson_nano_time_scaling().with_topology(topology),
                streams, TIGHT_SCHEDULERS[scheduler])
    assert artifacts["kernel"] == artifacts["flat"]
    assert artifacts["flat"] == artifacts["object"]


@pytest.mark.slow  # randomized multi-core cross; on CI's `slow` leg
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(stream=st.lists(access, min_size=30, max_size=150),
       cores=st.integers(min_value=2, max_value=4),
       topology=st.sampled_from(("ddr4-1ch", "ddr4-2ch")),
       scheduler=st.sampled_from(sorted(TIGHT_SCHEDULERS)))
def test_random_multicore_ranked_identical(stream, cores, topology,
                                           scheduler):
    """Random streams dealt round-robin to cores, per-gate ranking."""
    region = 8 * 1024 * 1024
    streams = [[(addr + core * region, flags, gap) for addr, flags, gap
                in stream[core::cores]] for core in range(cores)]
    artifacts = {}
    for name, fastpath, kernel in MODES:
        with serve_mode(fastpath, kernel):
            artifacts[name] = _run_cores_artifact(
                jetson_nano_time_scaling().with_topology(topology),
                streams, TIGHT_SCHEDULERS[scheduler])
    assert artifacts["kernel"] == artifacts["flat"]
    assert artifacts["flat"] == artifacts["object"]


@pytest.mark.parametrize("scheme,channels", (
    ("row-bank-col", 2),      # legacy scheme: channel-major slabs
    ("channel-line", 2),
    ("channel-row", 2),
    ("channel-xor", 4),       # power of two: XOR hash
    ("channel-xor", 3),       # otherwise: additive skew
))
def test_channel_interleaves_identical(scheme, channels):
    """Resident multi-channel routing matches every channel interleave."""
    stream = [(addr * 7 % (8 * 1024 * 1024), flags, gap)
              for addr, flags, gap in _dense_mixed_stream(200)]
    assert_modes_identical(
        lambda: jetson_nano_time_scaling().with_topology(
            "ddr4-2ch", mapping_scheme=scheme, channels=channels),
        stream, 90)


def test_shared_stateful_scheduler_declines_resident_replay():
    """One ranked scheduler object across channels: per-gate kernel only.

    The resident replay keeps one scheduler state per channel table, so
    a shared object must decline it (with the reason on the façade);
    the per-gate batches still engage and load/store the one object.
    """
    artifacts = {}
    reasons = {}
    for name, fastpath, kernel in MODES:
        with serve_mode(fastpath, kernel):
            system = EasyDRAMSystem(
                jetson_nano_time_scaling().with_topology("ddr4-2ch"))
            system.smc.scheduler = ATLAS(quantum=16)  # one object, 2 channels
            session = system.session("shared-scheduler")
            session.run_trace(_trace(_dense_mixed_stream(), 120))
            artifacts[name] = _observables(system, session)
            reasons[name] = system.smc.kernel_fallback_reason
    assert artifacts["kernel"] == artifacts["flat"] == artifacts["object"]
    if KERNEL_MODE == "c":
        assert reasons["kernel"] == "stateful scheduler shared across channels"


def test_kernel_actually_engages():
    """Guard: on the eligible config the kernel serves, not the closures.

    Without this, a silent structural fallback would turn the whole
    suite into flat-vs-flat and prove nothing about the kernel.
    """
    if KERNEL_MODE != "c":
        pytest.skip("no C compiler; block replay needs the compiled backend")
    from repro.dram.kernel import blockrun

    engaged = []
    original = blockrun.run_gated_kernel

    def counting(engine, session, proc, smc):
        ok = original(engine, session, proc, smc)
        engaged.append(ok)
        return ok

    blockrun.run_gated_kernel = counting
    try:
        with serve_mode("1", KERNEL_MODE):
            _run_artifact(jetson_nano_time_scaling(),
                          _dense_mixed_stream(), 120)
    finally:
        blockrun.run_gated_kernel = original
    assert engaged and all(engaged), \
        "block-replay kernel never engaged on the eligible config"


# -- cache residency across traces -------------------------------------------

#: The interleavings run on a small-cache system over the first few DRAM
#: rows, so traces, CLFLUSH ranges and RowClone episodes keep hitting
#: the same resident lines and evicting each other's.
RESIDENT_ROWS = 6


def _small_cache_config():
    base = jetson_nano_time_scaling()
    return jetson_nano_time_scaling(
        l1=dataclasses.replace(base.l1, size_bytes=4 * 1024),
        l2=dataclasses.replace(base.l2, size_bytes=32 * 1024))


def _row_bytes() -> int:
    return _small_cache_config().geometry.row_bytes


def _resident_op():
    lines = RESIDENT_ROWS * _row_bytes() // LINE
    line = st.integers(min_value=0, max_value=lines - 1)
    near = st.tuples(line.map(lambda n: n * LINE),
                     st.sampled_from((0, FLAG_WRITE, FLAG_DEPENDENT)),
                     st.integers(min_value=0, max_value=20))
    row = st.integers(min_value=0, max_value=RESIDENT_ROWS - 1)
    return st.one_of(
        st.tuples(st.just("trace"), st.lists(near, min_size=1,
                                             max_size=80)),
        st.tuples(st.just("clflush"), line,
                  st.integers(min_value=1, max_value=40)),
        st.tuples(st.just("copy"), row, st.booleans()),
        st.tuples(st.just("init"), row, st.booleans()),
        st.tuples(st.just("probe"), line),
    )


def _cache_observables(hier) -> dict:
    """Stats, then the materialized per-set state, of both levels."""
    return {level.name: (dataclasses.asdict(level.stats), level._tags,
                         level._dirty, level._stamps, level._mru,
                         level._tick)
            for level in (hier.l1, hier.l2)}


def _run_interleaving(ops: list) -> dict:
    """One session through ``ops``; every observable, step by step."""
    from repro.core.techniques.rowclone import RowCloneTechnique

    system = EasyDRAMSystem(_small_cache_config())
    session = system.session("residency")
    tech = RowCloneTechnique(session)
    hier = session.hierarchy
    row_bytes = _row_bytes()
    steps = []
    for op in ops:
        kind = op[0]
        if kind == "trace":
            session.run_trace(_trace(op[1], len(op[1]) // 2))
        elif kind == "clflush":
            steps.append(session.clflush_range(op[1] * LINE, op[2] * LINE))
        elif kind == "copy":
            tech.execute_copy(tech.plan_copy(row_bytes, op[1] * row_bytes),
                              clflush=op[2])
        elif kind == "init":
            tech.execute_init(tech.plan_init(row_bytes, op[1] * row_bytes),
                              clflush=op[2], include_source_setup=False)
        else:
            steps.append((hier.l1.contains(op[1]), hier.l2.contains(op[1]),
                          hier.l1.resident_lines(),
                          hier.l2.resident_lines()))
        # Stats are read between operations without touching the lists:
        # a kernel that left them stale would show here.
        steps.append([dataclasses.asdict(level.stats)
                      for level in (hier.l1, hier.l2)])
        steps.append(session.processor.cycles)
    artifact = _observables(system, session)
    artifact["steps"] = steps
    artifact["cache"] = _cache_observables(hier)
    artifact["rowclone"] = dataclasses.asdict(tech.stats)
    return artifact


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(_resident_op(), min_size=2, max_size=8))
def test_cache_residency_across_traces_identical(ops):
    """Traces, CLFLUSH, RowClone episodes and direct cache probes interleave.

    The kernel keeps the cache resident between traces and evicts in
    place on CLFLUSH; the flat path keeps Python's per-set lists
    throughout.  Every observable must agree, including the lists the
    kernel leg materializes only when the probes and this check read
    them.
    """
    artifacts = {}
    for name, kernel in (("kernel", KERNEL_MODE), ("flat", "0")):
        with serve_mode("1", kernel):
            artifacts[name] = _run_interleaving(ops)
    assert artifacts["kernel"] == artifacts["flat"]


class _ScanCountingSets(list):
    """A level's per-set list that counts full scans (iterations)."""

    def __init__(self, sets) -> None:
        super().__init__(sets)
        self.scans = 0

    def __iter__(self):
        self.scans += 1
        return super().__iter__()


def test_trace_after_trace_episode_or_clflush_skips_full_cache_load():
    """Only the first replay copies the per-set lists into the kernel.

    A trace that follows a trace, a RowClone episode or a CLFLUSH range
    must find the cache still resident: no scan of the levels' per-set
    lists, and no rebuilt lists in between.
    """
    if KERNEL_MODE != "c":
        pytest.skip("no C compiler; block replay needs the compiled backend")
    from repro.core.techniques.rowclone import RowCloneTechnique

    row_bytes = _row_bytes()
    stream = [(line * LINE, FLAG_WRITE if line % 3 else 0, 2)
              for line in range(0, 2 * row_bytes // LINE, 3)]
    with serve_mode("1", KERNEL_MODE):
        system = EasyDRAMSystem(_small_cache_config())
        session = system.session("residency-spy")
        tech = RowCloneTechnique(session)
        levels = (session.hierarchy.l1, session.hierarchy.l2)
        spies = []
        for level in levels:
            spies.append(_ScanCountingSets(level._tags))
            level._tags = spies[-1]
        session.run_trace(_trace(stream, 40))
        first = [spy.scans for spy in spies]
        assert all(first), "the first replay did not load the cache"
        session.run_trace(_trace(stream[::-1], 40))            # trace
        tech.execute_copy(tech.plan_copy(row_bytes, 0))         # episode
        session.run_trace(_trace(stream, 40))
        session.clflush_range(0, row_bytes)                     # CLFLUSH
        session.run_trace(_trace(stream, 40))
        rebuilt = [level.__dict__.get("_tags", spy) is not spy
                   for level, spy in zip(levels, spies)]
        assert [spy.scans for spy in spies] == first, \
            "a later replay re-copied the per-set lists"
        assert not any(rebuilt), "the per-set lists were rebuilt between traces"
    assert session.hierarchy.l1.stats.flushes > 0
