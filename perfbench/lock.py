"""The digest lock: every point's payload digest, plus modelled counts.

``lock.json`` holds, per workload, the sha256 of each point's canonical
payload (:mod:`perfbench.digest`) and the exact modelled counts of one
pass (emulated accesses, LLC and L2 misses, DRAM commands).  Every run
checks its payloads against the digests; traced runs also check the
counts.  The paper-default payloads must not move, so the lock changes
only when a result is meant to change, and ``CHANGES.md`` says why.

Regenerate it (one traced pass per workload) with::

    python3 perfbench/lock.py [WORKLOAD ...]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

LOCK_PATH = Path(__file__).resolve().with_name("lock.json")


def load_lock() -> dict:
    return json.loads(LOCK_PATH.read_text())["workloads"]


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(LOCK_PATH.parent.parent))
    from perfbench.run import HARD_LIMIT_S, child_env, spawn
    from perfbench.tracer import MODEL_COUNTS
    from perfbench.workloads import WORKLOADS

    names = argv or list(WORKLOADS)
    locked = load_lock() if LOCK_PATH.exists() else {}
    env, _removed = child_env()
    for name in names:
        report = spawn([name, "--trace"], env, 10 * HARD_LIMIT_S)
        errors = [p["key"] for p in report["points"] if p["error"]]
        if errors:
            print(f"error: {name}: points raised: {errors}", file=sys.stderr)
            return 1
        locked[name] = {
            "points": {p["key"]: p["digest"]
                       for p in sorted(report["points"],
                                       key=lambda p: p["key"])},
            "model": {key: report["counts"][key] for key in MODEL_COUNTS},
        }
        print(f"{name}: {len(report['points'])} points locked")
    ordered = {name: locked[name] for name in WORKLOADS if name in locked}
    LOCK_PATH.write_text(json.dumps({"workloads": ordered}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
