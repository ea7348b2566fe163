import numpy as np
import pytest

from combcert.channels import (
    Channel,
    channel_from_isometry,
    choi_distance_lb,
    choi_from_kraus,
    choi_operator,
    kraus_rank,
    random_channel,
)
from combcert.linalg import haar_isometry, haar_unitary, partial_trace, psd_check, random_psd, vectorize

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _random_state(d, rng):
    rho = random_psd(d, rng)
    return rho / np.trace(rho)


def test_identity_channel_choi():
    c = choi_from_kraus([np.eye(2)])
    v = vectorize(np.eye(2))
    assert np.abs(c - np.outer(v, v.conj())).max() == 0.0
    assert abs(np.trace(c) - 2.0) < 1e-14


def test_depolarizing_choi_closed_form():
    # E(rho) = (1-p) rho + p tr(rho) I/2 has Choi (1-p)|I>><<I| + (p/2) I (x) I
    p = 0.3
    kraus = [
        np.sqrt(1 - 3 * p / 4) * PAULI["I"],
        np.sqrt(p / 4) * PAULI["X"],
        np.sqrt(p / 4) * PAULI["Y"],
        np.sqrt(p / 4) * PAULI["Z"],
    ]
    v = vectorize(np.eye(2))
    expected = (1 - p) * np.outer(v, v.conj()) + (p / 2) * np.eye(4)
    assert np.abs(choi_from_kraus(kraus) - expected).max() < 1e-12


def test_choi_marginal_and_trace():
    rng = np.random.default_rng(31)
    for _ in range(10):
        d_in, d_out = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        r = max(int(rng.integers(1, 4)), -(-d_in // d_out))
        ch = random_channel(d_in, d_out, r, rng)
        c = choi_from_kraus(ch)
        assert abs(np.trace(c) - d_in) < 1e-10
        marg = partial_trace(c, (d_out, d_in), [0])
        assert np.abs(marg - np.eye(d_in)).max() < 1e-10
        assert psd_check(c).ok


def test_channel_rejects_incomplete_kraus():
    with pytest.raises(ValueError):
        Channel((0.5 * np.eye(2),))


def test_kraus_rank():
    rng = np.random.default_rng(34)
    u = haar_unitary(3, rng)
    assert kraus_rank(choi_from_kraus([u])) == 1
    for r in (1, 2, 4):
        ch = random_channel(2, 2, r, rng)
        assert kraus_rank(choi_from_kraus(ch)) == min(r, 4)


def test_stinespring_dilation():
    rng = np.random.default_rng(35)
    ch = random_channel(3, 2, 3, rng)
    v = np.vstack(ch.kraus)
    r = len(ch.kraus)
    assert v.shape == (r * 2, 3)
    assert np.abs(v.conj().T @ v - np.eye(3)).max() < 1e-10
    # tr_anc(V rho V^dagger) equals the Kraus action
    rho = _random_state(3, rng)
    big = v @ rho @ v.conj().T
    out = partial_trace(big, (r, 2), [0])
    assert np.abs(out - sum(k @ rho @ k.conj().T for k in ch.kraus)).max() < 1e-12
    # roundtrip through channel_from_isometry preserves the Choi
    ch2 = channel_from_isometry(v, r)
    assert np.abs(choi_from_kraus(ch) - choi_from_kraus(ch2)).max() < 1e-12


def test_dilations_differ_by_ancilla_unitary():
    rng = np.random.default_rng(36)
    ch = random_channel(2, 3, 2, rng)
    v = np.vstack(ch.kraus)
    w = haar_unitary(2, rng)
    v2 = np.kron(w, np.eye(3)) @ v
    ch2 = channel_from_isometry(v2, 2)
    assert np.abs(choi_from_kraus(ch) - choi_from_kraus(ch2)).max() < 1e-10


def test_channel_from_isometry_validates():
    rng = np.random.default_rng(37)
    v = rng.normal(size=(6, 3))
    with pytest.raises(ValueError):
        channel_from_isometry(v, 2)
    with pytest.raises(ValueError):
        channel_from_isometry(np.eye(6)[:, :3], 4)


def test_choi_kraus_rank_and_distance_stack_like_single_channels():
    rng = np.random.default_rng(35)
    channels = [random_channel(2, 3, 2, rng) for _ in range(4)]
    channels[1] = Channel((haar_isometry(2, 3, rng), np.zeros((3, 2))))  # rank one
    chois = choi_from_kraus([np.stack([ch.kraus[k] for ch in channels]) for k in range(2)])
    assert chois.shape == (4, 6, 6)
    ranks = kraus_rank(chois)
    dists = choi_distance_lb(chois, chois[::-1], 2)
    for i, ch in enumerate(channels):
        assert np.array_equal(chois[i], choi_from_kraus(ch))
        assert ranks[i] == kraus_rank(chois[i]) == (1 if i == 1 else 2)
        assert dists[i] == choi_distance_lb(chois[i], chois[3 - i], 2)


def test_choi_distance_lb_orthogonal_unitaries():
    # orthogonal-support rank-one Chois of trace d each: ||C1 - C2||_1 = 2d
    c1 = choi_from_kraus([PAULI["I"]])
    c2 = choi_from_kraus([PAULI["X"]])
    assert abs(choi_distance_lb(c1, c2, 2) - 2.0) < 1e-10
    assert choi_distance_lb(c1, c1, 2) == 0.0


def test_choi_operator_labels():
    rng = np.random.default_rng(39)
    ch = random_channel(3, 2, 2, rng)
    op = choi_operator(ch)
    assert op.spaces == (("B", 2), ("A", 3))
    red = op.partial_trace(["B"])
    assert np.abs(red.mat - np.eye(3)).max() < 1e-10
