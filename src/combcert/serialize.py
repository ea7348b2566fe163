"""Wire format for complex matrices, plus canonical JSON and content hashing.

Matrices serialize as row-major nested lists of the real and imaginary parts.
Canonical JSON (sorted keys, compact separators, no NaN/Inf) makes content
hashes and report digests stable across runs and platforms.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

__all__ = [
    "canonical_json",
    "content_hash",
    "matrix_from_wire",
    "matrix_to_wire",
]


def matrix_to_wire(x: np.ndarray) -> dict:
    """Complex matrix -> {"rows", "cols", "re", "im"} with row-major lists."""
    x = np.asarray(x, dtype=complex)
    if x.ndim != 2:
        raise ValueError(f"need a 2-d array, got shape {x.shape}")
    return {
        "rows": int(x.shape[0]),
        "cols": int(x.shape[1]),
        "re": [[float(v) for v in row] for row in x.real],
        "im": [[float(v) for v in row] for row in x.imag],
    }


def matrix_from_wire(d: dict) -> np.ndarray:
    re = np.asarray(d["re"], dtype=float)
    im = np.asarray(d["im"], dtype=float)
    if re.shape != (d["rows"], d["cols"]) or im.shape != re.shape:
        raise ValueError("wire matrix parts do not match the declared shape")
    return re + 1j * im


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, compact separators, finite floats only."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def content_hash(obj) -> str:
    """sha256 hex digest of the canonical JSON of ``obj`` (e.g. a wire form)."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()
