"""Tests for wire formats, canonical JSON, and content hashing."""

import json

import numpy as np
import pytest

from combcert.serialize import (
    canonical_json,
    content_hash,
    matrix_from_wire,
    matrix_to_wire,
)


def test_matrix_wire_round_trip():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    wire = matrix_to_wire(x)
    assert wire["rows"] == 3 and wire["cols"] == 5
    assert np.array_equal(matrix_from_wire(wire), x)


def test_matrix_wire_rejects_bad_shapes():
    with pytest.raises(ValueError):
        matrix_to_wire(np.zeros(4))
    wire = matrix_to_wire(np.eye(2))
    wire["cols"] = 3
    with pytest.raises(ValueError):
        matrix_from_wire(wire)


def test_canonical_json_is_sorted_and_compact():
    s = canonical_json({"b": 1, "a": [1.5, 2]})
    assert s == '{"a":[1.5,2],"b":1}'
    with pytest.raises(ValueError):
        canonical_json({"x": float("nan")})


def test_content_hash_tracks_content():
    wire = matrix_to_wire(np.eye(2, dtype=complex))
    h1 = content_hash(wire)
    assert h1 == content_hash(json.loads(json.dumps(wire)))
    wire2 = matrix_to_wire(2 * np.eye(2, dtype=complex))
    assert content_hash(wire2) != h1
    assert len(h1) == 64 and all(c in "0123456789abcdef" for c in h1)
