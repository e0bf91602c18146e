"""The benchmark's workloads: fixed sets of registered sweep points.

Each workload names paper artifacts and a filter over their default
(CI-scale) sweep points.  The points, their parameters and their own
seeds are the paper-default ones, so every payload can be checked
against a locked digest.  A pass evaluates them in registry order, the
order ``repro run`` uses: peak RSS and one-time costs such as fig13's
memoized characterization depend on the order, and a fixed one keeps
them comparable between runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

#: The fig17 points kept in the scheduler zoo (copy-chase mix): ATLAS on
#: one channel, BLISS and batch on two.  FCFS and FR-FCFS come from the
#: fig16 4-core points, so all five schedulers and both topologies run
#: while a pass stays short enough for four or five passes per run: a
#: per-point median over fewer passes did not hold the spread under the
#: bound on a noisy host.
_ZOO_FIG17 = frozenset((
    "ddr4-1ch-copy-chase-atlas",
    "ddr4-2ch-copy-chase-bliss",
    "ddr4-2ch-copy-chase-batch",
))


#: The fig13 points kept in the paper workload: gemver, first in registry
#: order, pays the memoized tRCD characterization, and the four shortest
#: kernels add their EasyDRAM and Ramulator legs.  The six longest are
#: left out so a pass takes about 8 s and a run holds four passes: with
#: all eleven (13 s a pass, two or three per run) the per-point medians
#: spread past a third of the bound.
_PAPER_FIG13 = frozenset((
    "gemver", "syrk", "correlation", "covariance", "trisolv",
))


@dataclass(frozen=True)
class Workload:
    name: str
    artifacts: tuple[str, ...]
    keep: Callable[[object], bool]
    #: Layers whose entry points must be called at least once in a
    #: traced pass; a zero there means the recorder missed a call site.
    expected_layers: tuple[str, ...]


WORKLOADS = {
    workload.name: workload for workload in (
        Workload(
            name="paper-single-core",
            artifacts=("fig08", "sec6", "fig13"),
            keep=lambda point: (point.artifact != "fig13"
                                or point.point_id in _PAPER_FIG13),
            expected_layers=(
                "workloads", "cpu.cache", "cpu.processor", "core.engine",
                "core.schedulers", "core.smc.flat", "core.smc.reference",
                "core.smc.kernel", "dram.kernel", "dram.device",
                "core.techniques", "baselines.ramulator"),
        ),
        Workload(
            name="multicore-scheduler-zoo",
            artifacts=("fig16", "fig17"),
            keep=lambda point: (
                point.point_id in _ZOO_FIG17
                if point.artifact == "fig17"
                else point.params["cores"] == 4),
            expected_layers=(
                "workloads", "cpu.cache", "cpu.processor", "core.engine",
                "core.schedulers", "core.smc.flat", "core.smc.kernel",
                "dram.kernel", "dram.device"),
        ),
        Workload(
            name="rowclone-writes",
            artifacts=("fig10", "fig11"),
            keep=lambda point: point.params["series"] != "ramulator",
            expected_layers=(
                "workloads", "cpu.cache", "cpu.processor", "core.engine",
                "core.smc.reference", "core.smc.technique", "dram.device",
                "core.techniques"),
        ),
    )
}


def points(name: str) -> list:
    """The workload's sweep points, in registry build order."""
    from repro.runner import registry

    workload = WORKLOADS[name]
    return [point for artifact in workload.artifacts
            for point in registry.get(artifact).build_points()
            if workload.keep(point)]


def key(point) -> str:
    """A point's name in the digest lock."""
    return f"{point.artifact}/{point.point_id}"
