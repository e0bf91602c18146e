"""Span recorder for the traced benchmark pass.

:class:`Recorder` wraps the entry points of every layer listed in
:data:`LAYERS` with a timing span, runs the pass, and restores every
wrapped attribute afterwards.  It must be installed *before* any system
is constructed: the controller, processor and engine hoist bound methods
into closures at construction time, and a class-level patch is only
seen by objects built after it.  Module-level functions are patched in
their defining module *and* in every loaded ``repro`` module that
imported them by name, so ``from x import f`` call sites are covered
too.

Spans nest.  A layer's self time is the duration of its spans minus the
part covered by child spans; the ``experiments`` root span (the whole
point body) keeps whatever no layer claimed, which is the unattributed
share.  Counts are recorded at the same boundaries: kernel engagement
and decline reasons at the two kernel entries, and the modelled counts
(accesses, LLC and L2 misses, DRAM commands) from every session the
pass created.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter

#: Layer -> entry points (``module:function`` or ``module:Class.method``).
#: The ``core.techniques`` layer also holds the Bender engine, which
#: only technique and reference episodes drive.  The C kernel's entry
#: points are instance attributes of the loaded backend and are added
#: by :meth:`Recorder.install`.
LAYERS: dict[str, tuple[str, ...]] = {
    "workloads": (
        "repro.workloads.lmbench:pointer_chase_blocks",
        "repro.workloads.lmbench:pointer_chase",
        "repro.workloads.microbench:cpu_copy_blocks",
        "repro.workloads.microbench:cpu_copy_trace",
        "repro.workloads.microbench:cpu_init_blocks",
        "repro.workloads.microbench:cpu_init_trace",
        "repro.workloads.microbench:touch_blocks",
        "repro.workloads.microbench:touch_trace",
        "repro.workloads.microbench:channel_stream_blocks",
        "repro.workloads.polybench:trace",
        "repro.workloads.polybench:trace_blocks",
    ),
    "cpu.cache": (
        "repro.cpu.cache:CacheHierarchy.access",
        "repro.cpu.cache:CacheHierarchy.access_block",
        "repro.cpu.cache:CacheHierarchy.flush_line",
        "repro.cpu.cache:ReferenceCacheHierarchy.access",
        "repro.cpu.cache:ReferenceCacheHierarchy.flush_line",
    ),
    "cpu.processor": (
        "repro.cpu.processor:Processor.feed",
        "repro.cpu.processor:Processor.execute_burst",
        "repro.cpu.processor:Processor.execute_gated",
        "repro.cpu.processor:Processor.clflush",
    ),
    "core.engine": (
        "repro.core.engine:CycleEngine.run_trace",
        "repro.core.engine:CycleEngine.run_cores",
        "repro.core.engine:EventEngine.run_trace",
        "repro.core.engine:EventEngine.run_cores",
    ),
    "core.schedulers": (
        "repro.core.schedulers:FCFS.select",
        "repro.core.schedulers:FCFS.select_flat",
        "repro.core.schedulers:FCFS.decision_cost",
        "repro.core.schedulers:FRFCFS.select",
        "repro.core.schedulers:FRFCFS.select_flat",
        "repro.core.schedulers:FRFCFS.decision_cost",
        "repro.core.schedulers:_RankedScheduler.select",
        "repro.core.schedulers:_RankedScheduler.select_flat",
        "repro.core.schedulers:ATLAS.decision_cost",
        "repro.core.schedulers:BLISS.decision_cost",
        "repro.core.schedulers:BatchScheduler.decision_cost",
    ),
    "core.smc.flat": (
        "repro.core.smc:SoftwareMemoryController.service_pending_batched",
    ),
    "core.smc.reference": (
        "repro.core.smc:SoftwareMemoryController.service_pending",
    ),
    "core.smc.technique": (
        "repro.core.smc:SoftwareMemoryController.technique_episode",
    ),
    "core.smc.kernel": (
        "repro.core.smc:SoftwareMemoryController.service_pending_kernel",
    ),
    "dram.kernel": (
        "repro.dram.kernel.blockrun:run_gated_kernel",
    ),
    "dram.device": (
        "repro.dram.device:DramDevice.issue",
        "repro.dram.device:DramDevice.issue_discard",
        "repro.dram.device:DramDevice.issue_fast",
        "repro.dram.device:DramDevice.issue_col",
        "repro.dram.device:DramDevice.issue_plan",
    ),
    "core.techniques": (
        "repro.core.techniques.trcd:TrcdReductionTechnique.install",
        "repro.core.techniques.trcd:TrcdReductionTechnique.trcd_for",
        "repro.core.techniques.trcd:TrcdReductionTechnique._serve",
        "repro.core.techniques.rowclone:RowCloneTechnique.pair_is_clonable",
        "repro.core.techniques.rowclone:RowCloneTechnique.test_pair_emulated",
        "repro.core.techniques.rowclone:RowCloneTechnique.plan_copy",
        "repro.core.techniques.rowclone:RowCloneTechnique.plan_init",
        "repro.core.techniques.rowclone:RowCloneTechnique.execute_copy",
        "repro.core.techniques.rowclone:RowCloneTechnique.execute_init",
        "repro.core.techniques.rowclone:RowCloneTechnique.copy_is_correct",
        "repro.bender.engine:BenderEngine.execute",
    ),
    "baselines.ramulator": (
        "repro.baselines.ramulator.sim:RamulatorSim.run",
    ),
}

#: The root span: the whole point body, as the runner evaluates it.
ROOT_LAYER = "experiments"

#: Every layer that reports ``self_s``/``calls`` (the SMC also as a sum).
SMC_PATHS = ("core.smc.flat", "core.smc.reference", "core.smc.technique",
             "core.smc.kernel")
REPORTED_LAYERS = (*LAYERS, "core.smc", ROOT_LAYER)

#: The C backend's entry points (attributes of the loaded kernel object).
KERNEL_ENTRIES = ("serve_batch", "run_block", "finish_trace")

#: Kernel decline reason prefix -> metric slug.  Backend load failures
#: all count as ``backend_unavailable``; anything unknown as ``other``.
DECLINE_REASONS = (
    ("fastpath disabled", "fastpath_disabled"),
    ("stateful scheduler", "stateful_scheduler"),
    ("strict timing mode", "strict_timing"),
    ("retention modeling", "retention_modeling"),
    ("row-activation tracking", "row_activation_tracking"),
    ("non-uniform bank-group timing", "bank_group_timing"),
    ("multi-rank channel", "multi_rank"),
    ("per-rank refresh", "per_rank_refresh"),
    ("cell tRCD margins", "cell_trcd_margins"),
    ("technique episode", "technique_episode"),
    ("staged tile state", "staged_tile_state"),
    ("multi-channel topology", "multi_channel_topology"),
    ("multi-channel request routing", "multi_channel_routing"),
    ("pure-Python backend", "python_backend"),
    ("stream prefetcher", "stream_prefetcher"),
    ("MLP window not drained", "mlp_window_not_drained"),
    ("disabled (REPRO_KERNEL", "backend_unavailable"),
    ("no C compiler", "backend_unavailable"),
    ("kernel ", "backend_unavailable"),
)
DECLINE_SLUGS = tuple(dict.fromkeys(
    [slug for _prefix, slug in DECLINE_REASONS] + ["other"]))

#: Modelled counts summed over every session of a pass.
MODEL_COUNTS = ("accesses", "llc_misses", "l2_misses", "dram_commands")


def decline_slug(reason: str | None) -> str:
    """The metric slug of a kernel decline reason."""
    for prefix, slug in DECLINE_REASONS:
        if reason and reason.startswith(prefix):
            return slug
    return "other"


def _resolve(entry: str):
    """``(owner, attribute name)`` of a ``module:qualname`` entry point."""
    module_name, _, qualname = entry.partition(":")
    owner = importlib.import_module(module_name)
    *path, name = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Recorder:
    """Layer spans and counts for one traced pass (see module docstring)."""

    def __init__(self) -> None:
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.declined: Counter = Counter()
        self.engaged = 0
        self.model: Counter = Counter()
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []
        self._sessions: list = []

    # -- spans ---------------------------------------------------------------

    def wrap(self, layer: str, fn, count: bool = True):
        """``fn`` timed as a span of ``layer``."""
        perf = time.perf_counter
        stack = self._stack
        self_s = self.self_s
        calls = self.calls

        def span(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                self_s[layer] += elapsed - frame[0]
                if count:
                    calls[layer] += 1
                if stack:
                    stack[-1][0] += elapsed

        span.__wrapped__ = fn
        return span

    def _timed_stream(self, layer: str, stream):
        """Time each step of a lazily generated trace under ``layer``."""
        step = self.wrap(layer, stream.__next__, count=False)
        while True:
            try:
                item = step()
            except StopIteration:
                return
            yield item

    def _generator_fn(self, layer: str, fn):
        """A workload function whose returned trace is timed as it is consumed."""
        from repro.cpu.blocks import BlockTrace

        timed = self.wrap(layer, fn)

        def generate(*args, **kwargs):
            trace = timed(*args, **kwargs)
            if isinstance(trace, BlockTrace):
                return BlockTrace(self._timed_stream(layer, iter(trace)))
            if hasattr(trace, "__next__"):
                return self._timed_stream(layer, trace)
            return trace

        generate.__wrapped__ = fn
        return generate

    # -- patching --------------------------------------------------------------

    def _set(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _patch_function(self, module, name: str, wrapped) -> None:
        original = getattr(module, name)
        for other in list(sys.modules.values()):
            if (other is not module
                    and getattr(other, "__name__", "").startswith("repro.")
                    and vars(other).get(name) is original):
                self._set(other, name, wrapped)
        self._set(module, name, wrapped)

    def _patch(self, layer: str, entry: str) -> None:
        owner, name = _resolve(entry)
        original = owner.__dict__[name]
        if isinstance(owner, type):
            self._set(owner, name, self.wrap(layer, original))
        elif layer == "workloads":
            self._patch_function(owner, name,
                                 self._generator_fn(layer, original))
        else:
            self._patch_function(owner, name, self.wrap(layer, original))

    def install(self) -> None:
        """Wrap every layer entry point and the counting hooks."""
        from repro.core.smc import SoftwareMemoryController
        from repro.core.system import Session
        from repro.dram.kernel import blockrun, cbackend

        for layer, entries in LAYERS.items():
            for entry in entries:
                self._patch(layer, entry)
        kernel, _reason = cbackend.load()
        if kernel is not None:
            for name in KERNEL_ENTRIES:
                self._set(kernel, name, self.wrap("dram.kernel",
                                                  getattr(kernel, name)))

        self._set(SoftwareMemoryController, "service_pending_kernel",
                  self._counting(SoftwareMemoryController
                                 .service_pending_kernel, smc_arg=0))
        self._patch_function(blockrun, "run_gated_kernel", self._counting(
            blockrun.run_gated_kernel, smc_arg=3))

        sessions = self._sessions
        session_init = Session.__init__

        def init(session, *args, **kwargs):
            session_init(session, *args, **kwargs)
            sessions.append(session)

        self._set(Session, "__init__", init)

    def _counting(self, fn, smc_arg: int):
        """A kernel entry that also counts engagement and decline reasons."""
        def entry(*args, **kwargs):
            engaged = fn(*args, **kwargs)
            if engaged:
                self.engaged += 1
            else:
                # Only the multi-channel facade lacks the attribute, and
                # the block-replay entry declines it for exactly that.
                reason = getattr(args[smc_arg], "kernel_fallback_reason",
                                 "multi-channel topology")
                self.declined[decline_slug(reason)] += 1
            return engaged

        entry.__wrapped__ = fn
        return entry

    def restore(self) -> None:
        """Put back every patched attribute, last patch first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- per point -----------------------------------------------------------

    def run_point(self, fn, *args):
        """Evaluate one point under the root span; collect its sessions."""
        try:
            return self.wrap(ROOT_LAYER, fn)(*args)
        finally:
            self._collect_sessions()

    def _collect_sessions(self) -> None:
        systems = {}
        for session in self._sessions:
            systems[id(session.system)] = session.system
            for core in session.cores:
                stats = core.processor.stats
                self.model["accesses"] += stats.accesses
                self.model["llc_misses"] += stats.llc_miss_requests
                self.model["l2_misses"] += core.hierarchy.l2.stats.misses
        for system in systems.values():
            self.model["dram_commands"] += sum(
                channel.tile.device.stats.total_commands()
                for channel in system.channels)
        self._sessions.clear()

    # -- report ----------------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """``{layer: {"self_s", "calls"}}`` for every reported layer."""
        out = {layer: {"self_s": self.self_s[layer],
                       "calls": self.calls[layer]}
               for layer in REPORTED_LAYERS if layer != "core.smc"}
        out["core.smc"] = {
            "self_s": sum(self.self_s[p] for p in SMC_PATHS),
            "calls": sum(self.calls[p] for p in SMC_PATHS)}
        return {layer: out[layer] for layer in REPORTED_LAYERS}

    def counts(self) -> dict[str, int]:
        """Kernel engagement, decline reasons and modelled counts."""
        out = {"dram.kernel.engaged": self.engaged}
        for slug in DECLINE_SLUGS:
            out[f"dram.kernel.declined.{slug}"] = self.declined[slug]
        for name in MODEL_COUNTS:
            out[name] = self.model[name]
        return out
