"""Batch serve kernel: the SMC inner loop out of Python-per-command.

The kernel compiles :class:`~repro.dram.flat_timing.FlatTimingState` and
the memoized command plans into struct-of-arrays int64 tables
(:mod:`~repro.dram.kernel.state`) and executes an entire drained request
batch — plan offsets, earliest-time resolution, issue, row-state
transitions, refresh interleave, and per-core/prefetch stat attribution
— in one compiled call (:mod:`~repro.dram.kernel.cbackend`), or a whole
block-replay burst when the event engine runs single-core block traces.
A pure-Python mirror (:mod:`~repro.dram.kernel.pykernel`) is the
executable spec and the ``REPRO_KERNEL=py`` backend.

``REPRO_KERNEL``
    ``0``/``false``/``off`` disables the kernel entirely (the fastpath
    closures serve every batch).  ``py`` forces the pure-Python mirror
    (batch entry and FCFS/FR-FCFS only — useful for differential
    debugging; slower than the closures).  ``c`` requires the compiled
    backend and disengages with a recorded reason when it cannot load.
    Default (``auto``): use the compiled backend when a C compiler is
    available, otherwise disengage — results are bit-identical either
    way, which the equivalence suites enforce.

Resolution happens per *call site* via :func:`resolve_backend`; the
serve path records why the kernel disengaged (custom scheduler,
technique episode, backend unavailable, ...) so ``repro profile`` can
report it.
"""

from __future__ import annotations

import os

_FALSE = ("0", "false", "no", "off")


class PyKernel:
    """Backend facade over the pure-Python mirror (batch entry only)."""

    info = {"backend": "py", "compiler": "pure-python",
            "build_seconds": 0.0, "compiled_this_process": False}
    run_block = None
    finish_trace = None

    def serve_batch(self, table) -> int:  # pragma: no cover - thin shim
        raise TypeError("PyKernel.serve_batch takes a KernelState; "
                        "use serve_batch_state")

    @staticmethod
    def serve_batch_state(ks) -> int:
        from repro.dram.kernel import pykernel
        return pykernel.serve_batch(ks)


_PY_KERNEL = PyKernel()


def kernel_mode() -> str:
    """The requested kernel mode: ``off``, ``py``, ``c``, or ``auto``."""
    raw = os.environ.get("REPRO_KERNEL", "").strip().lower()
    if raw in _FALSE:
        return "off"
    if raw in ("py", "python", "pure"):
        return "py"
    if raw == "c":
        return "c"
    return "auto"


def resolve_backend() -> tuple[object | None, str]:
    """The active kernel backend and a reason string.

    Returns ``(backend, "ok")`` when engaged; ``(None, reason)`` when
    the kernel should disengage and let the fastpath closures serve.
    """
    mode = kernel_mode()
    if mode == "off":
        return None, "disabled (REPRO_KERNEL=0)"
    if mode == "py":
        return _PY_KERNEL, "ok"
    from repro.dram.kernel import cbackend
    kernel, reason = cbackend.load()
    if kernel is None:
        return None, reason
    return kernel, "ok"


def backend_info() -> dict:
    """Provenance for the bench harness (compiler, warm-up seconds)."""
    backend, reason = resolve_backend()
    if backend is None:
        return {"backend": "none", "reason": reason}
    info = dict(backend.info)
    info["reason"] = reason
    return info
