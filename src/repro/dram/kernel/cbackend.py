"""Compile and load the C batch kernel (gcc + ctypes).

The container bakes in a C toolchain but no numba/Cython, so the
compiled backend is plain C: :func:`load` renders the layout
``#define`` header from :mod:`repro.dram.kernel.state`, prepends it to
``kernel.c``, and builds a shared object with ``cc -O2 -shared -fPIC``
into a source-hash-keyed cache under ``_cache/`` (gitignored).  A warm
cache makes load a single ``dlopen``.  When the package's ``_cache/``
cannot be created or written (a read-only install), the build goes to
the per-user cache directory instead: ``$XDG_CACHE_HOME/repro/kernel``,
else ``~/.cache/repro/kernel``.

Concurrent cold loads (``repro run --jobs N``, CI shards, serve workers
on a fresh checkout) are safe: the build holds an exclusive ``flock`` on
a per-key lock file, compiles to per-process temporary names, and
``os.replace``-s the finished files into place, so no process can ever
``dlopen`` a half-written object.

Everything degrades: no compiler, a failed compile, or a stale ABI all
surface as ``(None, reason)`` so the caller can fall back to the flat
Python path.  A compiler that exists but whose build does not load is a
broken installation, not a configuration, so that case also warns with
its reason: a silent fallback would only show up as a run 10-40x slower.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import time
import warnings
from pathlib import Path

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX hosts build unlocked
    fcntl = None

from repro.dram.kernel import state

#: Bumped when the entry-point contract changes; checked against the
#: compiled object's ``repro_abi_version`` so a stale cached build from
#: an older checkout can never be called with the wrong layout.
ABI_VERSION = 4

_HERE = Path(__file__).resolve().parent
_SOURCE = _HERE / "kernel.c"
_CACHE_DIR = _HERE / "_cache"

#: Load outcome, memoized for the process: (lib or None, reason string,
#: info dict for the bench/profile layers).
_loaded: tuple | None = None


class CKernel:
    """The loaded shared object with typed entry points."""

    def __init__(self, lib: ctypes.CDLL, info: dict) -> None:
        self.lib = lib
        self.info = info
        p64 = ctypes.POINTER(ctypes.c_int64)
        table_t = ctypes.POINTER(p64)
        for name in ("repro_serve_batch", "repro_run_block",
                     "repro_finish_trace"):
            fn = getattr(lib, name)
            fn.argtypes = [table_t]
            fn.restype = ctypes.c_int64
        self.serve_batch = lib.repro_serve_batch
        self.run_block = lib.repro_run_block
        self.finish_trace = lib.repro_finish_trace
        self.cache_flush = lib.repro_cache_flush
        # The slot table's address as a plain int: the per-line CLFLUSH
        # path skips ctypes' pointer-array conversion.
        self.cache_flush.argtypes = [ctypes.c_void_p, ctypes.c_int64]
        self.cache_flush.restype = ctypes.c_int64


def compiler() -> list[str] | None:
    """The C compiler command, or ``None`` when unavailable."""
    override = os.environ.get("REPRO_CC", "")
    candidates = [override] if override else ["cc", "gcc", "clang"]
    for cand in candidates:
        try:
            subprocess.run([cand, "--version"], capture_output=True,
                           check=True, timeout=30)
            return [cand]
        except (OSError, subprocess.SubprocessError):
            continue
    return None


def compiler_version(cmd: list[str] | None = None) -> str:
    """First line of ``cc --version`` (bench provenance)."""
    cmd = cmd if cmd is not None else compiler()
    if cmd is None:
        return "unavailable"
    try:
        out = subprocess.run(cmd + ["--version"], capture_output=True,
                             check=True, timeout=30, text=True).stdout
        return out.splitlines()[0].strip() if out else cmd[0]
    except (OSError, subprocess.SubprocessError):
        return cmd[0]


def _render_source() -> str:
    return state.render_defines() + "\n" + _SOURCE.read_text()


def load() -> tuple[CKernel | None, str]:
    """Build (or reuse) and load the kernel; ``(None, reason)`` on failure.

    The result is memoized per process — the serve path asks on every
    eligibility check.
    """
    global _loaded
    if _loaded is not None:
        return _loaded[0], _loaded[1]
    kernel, reason = _load_uncached()
    _loaded = (kernel, reason)
    return kernel, reason


def _cache_dirs() -> tuple[Path, Path]:
    """Where a build is looked for, in order: the package, then the user."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return _CACHE_DIR, Path(base) / "repro" / "kernel"


def _writable(directory: Path) -> bool:
    """Create ``directory`` if needed; can this process write into it?"""
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError:
        return False
    return os.access(directory, os.W_OK)


def _build(cmd: list[str], source: str, c_path: Path,
           so_path: Path) -> str | None:
    """Compile ``source`` into ``so_path`` unless another process did.

    Returns ``None`` on success, else the failure reason.  Holds the
    key's lock file for the whole build and publishes both files with
    ``os.replace``, so a concurrent loader sees no object or a whole one.
    """
    # The compiler picks the language by extension: keep it last.
    tmp = f".{os.getpid()}.tmp"
    tmp_c = c_path.with_name(c_path.stem + tmp + c_path.suffix)
    tmp_so = so_path.with_name(so_path.stem + tmp + so_path.suffix)
    with open(so_path.with_suffix(".lock"), "a") as lock:
        if fcntl is not None:
            fcntl.flock(lock, fcntl.LOCK_EX)
        try:
            if so_path.exists():   # built while this process waited
                return None
            tmp_c.write_text(source)
            proc = subprocess.run(
                cmd + ["-O2", "-shared", "-fPIC", "-o", str(tmp_so),
                       str(tmp_c)],
                capture_output=True, text=True, timeout=300)
            if proc.returncode != 0:
                tail = (proc.stderr or "").strip().splitlines()[-3:]
                return "kernel compile failed: " + " | ".join(tail)
            os.replace(tmp_c, c_path)
            os.replace(tmp_so, so_path)
            return None
        finally:
            for tmp in (tmp_c, tmp_so):
                tmp.unlink(missing_ok=True)
            if fcntl is not None:
                fcntl.flock(lock, fcntl.LOCK_UN)


def _load_uncached() -> tuple[CKernel | None, str]:
    try:
        source = _render_source()
    except OSError as exc:
        return None, f"kernel source unreadable: {exc}"
    cmd = compiler()
    version = compiler_version(cmd)
    key = hashlib.sha256(
        f"{version}\n{ABI_VERSION}\n{source}".encode()).hexdigest()[:16]
    name = f"kernel-{key}"
    dirs = _cache_dirs()
    so_path = next((d / f"{name}.so" for d in dirs
                    if (d / f"{name}.so").exists()), None)
    build_seconds = 0.0
    built = False
    if so_path is None:
        if cmd is None:
            return None, "no C compiler available (cc/gcc/clang)"
        cache_dir = next((d for d in dirs if _writable(d)), None)
        if cache_dir is None:
            return _loud("kernel cache not writable (tried "
                         + ", ".join(str(d) for d in dirs) + ")")
        so_path = cache_dir / f"{name}.so"
        begin = time.perf_counter()
        try:
            failure = _build(cmd, source, cache_dir / f"{name}.c", so_path)
        except (OSError, subprocess.SubprocessError) as exc:
            failure = f"kernel compile failed: {exc}"
        if failure is not None:
            return _loud(failure)
        build_seconds = time.perf_counter() - begin
        built = True
    try:
        lib = ctypes.CDLL(str(so_path))
        fn = lib.repro_abi_version
        fn.restype = ctypes.c_int64
        fn.argtypes = []
        got = int(fn())
    except (OSError, AttributeError) as exc:
        return _loud(f"kernel load failed: {exc}")
    if got != ABI_VERSION:
        return _loud(
            f"kernel ABI mismatch (built {got}, want {ABI_VERSION})")
    info = {
        "backend": "c",
        "compiler": version,
        "build_seconds": round(build_seconds, 6),
        "compiled_this_process": built,
        "cache_path": str(so_path),
    }
    return CKernel(lib, info), "ok"


def _loud(reason: str) -> tuple[None, str]:
    """A failed build or load: warn with the reason, then fall back."""
    warnings.warn(f"C serve kernel unavailable, serving on the flat Python"
                  f" path: {reason}", RuntimeWarning, stacklevel=4)
    return None, reason


def reset_for_tests() -> None:
    """Drop the memoized load result (tests poke REPRO_CC)."""
    global _loaded
    _loaded = None
