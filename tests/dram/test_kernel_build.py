"""Kernel build robustness: concurrent cold caches and loud load failures.

``repro run --jobs N``, CI shards and serve workers all resolve the C
kernel at once on a fresh checkout.  Every one of them must end up on
the compiled backend: a process that silently fell back would serve on
the flat path, 10-40x slower, with nothing in its output to say so.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.dram.kernel import cbackend

SRC = str(Path(__file__).resolve().parents[2] / "src")

#: Resolve the kernel against the cache directory in argv[1]; print
#: ``ok`` or the decline reason (warnings go to stderr).
LOAD = """
import sys
from pathlib import Path
from repro.dram.kernel import cbackend
cbackend._CACHE_DIR = Path(sys.argv[1])
kernel, reason = cbackend.load()
print("ok" if kernel is not None else reason)
"""

needs_cc = pytest.mark.skipif(cbackend.compiler() is None,
                              reason="no C compiler")


def _spawn(cache: Path) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.Popen([sys.executable, "-c", LOAD, str(cache)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env)


@needs_cc
def test_concurrent_cold_loads_all_get_the_c_backend(tmp_path):
    cache = tmp_path / "cache"
    procs = [_spawn(cache) for _ in range(8)]
    outs = [proc.communicate(timeout=300) for proc in procs]
    assert [out.strip() for out, _err in outs] == ["ok"] * len(procs), outs
    # One published object and source; no temporary left behind.
    names = sorted(path.suffix for path in cache.iterdir())
    assert names == [".c", ".lock", ".so"], sorted(cache.iterdir())


@needs_cc
def test_load_failure_after_build_warns_with_reason(tmp_path):
    cache = tmp_path / "cache"
    assert _spawn(cache).communicate(timeout=300)[0].strip() == "ok"
    (so_path,) = cache.glob("*.so")
    so_path.write_bytes(b"not an object")
    out, err = _spawn(cache).communicate(timeout=300)
    assert out.startswith("kernel load failed"), out
    assert "RuntimeWarning" in err and "kernel load failed" in err, err


@needs_cc
def test_read_only_package_cache_builds_into_the_user_cache(tmp_path):
    """An unwritable package ``_cache/`` falls back to the user cache.

    ``chmod`` does not stop root, so the package directory is placed
    under a regular file, where it can never be created.
    """
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file, not a directory")
    xdg = tmp_path / "xdg"
    env = dict(os.environ, PYTHONPATH=SRC, XDG_CACHE_HOME=str(xdg))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", LOAD,
         str(blocker / "_cache")],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.stdout.strip() == "ok", (proc.stdout, proc.stderr)
    assert "RuntimeWarning" not in proc.stderr, proc.stderr
    built = xdg / "repro" / "kernel"
    assert sorted(path.suffix for path in built.iterdir()) == \
        [".c", ".lock", ".so"], sorted(built.iterdir())
