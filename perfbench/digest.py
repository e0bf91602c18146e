"""Payload digests under the strict comparison semantics of the repo.

``tools/compare_results.py`` decides when two JSON-normalized result
payloads are the same: types must match (``1`` is not ``1.0``, ``True``
is not ``1``), floats must match bit for bit (``-0.0`` is not ``0.0``)
and dict key order does not matter.  :func:`canonical` encodes a payload
so that exactly those distinctions survive, and :func:`digest` hashes
the encoding.  Every digest is checked against the comparator itself: the
encoding is decoded again and must compare equal to the payload under
``payloads_equal``, so an encoding that dropped a distinction the
comparator makes fails loudly instead of hiding a change.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import struct
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@cache
def compare_results():
    """The repo's ``tools/compare_results.py``, imported by path."""
    path = ROOT / "tools" / "compare_results.py"
    spec = importlib.util.spec_from_file_location("compare_results", path)
    if spec is None or spec.loader is None:
        raise ImportError(f"cannot import {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def canonical(value):
    """A type-tagged, key-sorted, bit-exact JSON-ready form of ``value``."""
    if value is None:
        return ["n"]
    if isinstance(value, bool):
        return ["b", value]
    if isinstance(value, int):
        return ["i", str(value)]
    if isinstance(value, float):
        return ["f", struct.pack("<d", value).hex()]
    if isinstance(value, str):
        return ["s", value]
    if isinstance(value, list):
        return ["l", [canonical(item) for item in value]]
    if isinstance(value, dict):
        return ["d", [[key, canonical(value[key])] for key in sorted(value)]]
    raise TypeError(f"not a JSON-normalized payload value: {type(value)!r}")


def decode(form):
    """Invert :func:`canonical`."""
    tag = form[0]
    if tag == "n":
        return None
    if tag == "b":
        return form[1]
    if tag == "i":
        return int(form[1])
    if tag == "f":
        return struct.unpack("<d", bytes.fromhex(form[1]))[0]
    if tag == "s":
        return form[1]
    if tag == "l":
        return [decode(item) for item in form[1]]
    if tag == "d":
        return {key: decode(item) for key, item in form[1]}
    raise ValueError(f"unknown canonical tag {tag!r}")


def digest(payload) -> str:
    """sha256 of the canonical payload (checked against the comparator)."""
    form = canonical(payload)
    if not compare_results().payloads_equal(decode(form), payload):
        raise ValueError("canonical encoding lost a distinction that"
                         " compare_results.payloads_equal makes")
    text = json.dumps(form, separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(text.encode()).hexdigest()
