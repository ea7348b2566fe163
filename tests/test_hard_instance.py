"""Tests for the hard isometry family, its gamma vectors and the slot-wise kernels."""

import tracemalloc
from itertools import combinations
from math import comb

import numpy as np
import pytest

from combcert.combs import certify_comb
from combcert.hard import (
    HardInstanceSpec,
    gamma_outer,
    gamma_recursion_residual,
    gamma_state,
    hard_vector_expansion,
)
from combcert.hard.instance import (
    comb_sequence,
    kron_power,
    on_each_slot,
    outer_modes,
    slot_spaces,
    subset_sum,
)
from combcert.hard.modes import comb_certificate
from combcert.linalg import LabeledOperator, haar_isometry, haar_unitary, haar_unitary_batch, vectorize

GRID = [(1, 2), (1, 3), (2, 4), (2, 5)]


def random_spec(d1, d2, rng):
    """A Haar-random orthogonal-image pair (V0, Delta)."""
    w = haar_isometry(2 * d1, d2, rng)
    return HardInstanceSpec(w[:, :d1], w[:, d1:])


def test_concrete_spec_validates():
    for d1, d2 in GRID:
        spec = HardInstanceSpec.concrete(d1, d2)
        assert spec.d1 == d1 and spec.d2 == d2
        assert spec.rotor_dim == d2 - d1
        np.testing.assert_allclose(spec.v0.conj().T @ spec.v0, np.eye(d1), atol=1e-12)
        np.testing.assert_allclose(spec.delta.conj().T @ spec.delta, np.eye(d1), atol=1e-12)
        np.testing.assert_allclose(spec.v0.conj().T @ spec.delta, 0, atol=1e-12)


def test_concrete_specs_and_gamma_states_are_shared_and_read_only():
    spec = HardInstanceSpec.concrete(2, 5)
    assert HardInstanceSpec.concrete(2, 5) is spec
    gamma = gamma_state(spec, 2, 1)
    assert gamma_state(spec, 2, 1) is gamma
    for arr in (spec.v0, spec.delta, spec.iota, gamma):
        with pytest.raises(ValueError):
            arr[0] = 1
    # a spec keeps copies: the caller's arrays stay writable
    v0 = np.eye(4, 2, dtype=complex)
    delta = np.eye(4, 2, k=-2, dtype=complex)
    HardInstanceSpec(v0, delta)
    v0[0, 0] = delta[2, 0] = 1


def test_spec_rejects_bad_inputs():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        HardInstanceSpec.concrete(2, 3)  # d2 < 2*d1
    v0 = haar_isometry(3, 6, rng)
    with pytest.raises(ValueError):
        HardInstanceSpec(v0=v0 * 1.01, delta=haar_isometry(3, 6, rng))
    with pytest.raises(ValueError):
        HardInstanceSpec(v0=v0, delta=v0)  # images overlap


def test_member_is_isometry_and_interpolates():
    rng = np.random.default_rng(1)
    for d1, d2 in GRID:
        spec = random_spec(d1, d2, rng)
        k = spec.rotor_dim
        for eps in (0.0, 0.3, 0.9):
            u = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))[0]
            v = spec.member(eps, u)
            np.testing.assert_allclose(v.conj().T @ v, np.eye(d1), atol=1e-10)
            if eps == 0.0:
                np.testing.assert_allclose(v, spec.v0, atol=1e-12)


def test_rotor_is_unitary_and_fixes_reference_image():
    rng = np.random.default_rng(2)
    spec = random_spec(2, 5, rng)
    k = spec.rotor_dim
    u = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))[0]
    r = spec.rotor(u)
    np.testing.assert_allclose(r.conj().T @ r, np.eye(spec.d2), atol=1e-10)
    np.testing.assert_allclose(r @ spec.v0, spec.v0, atol=1e-10)


def test_gamma_gram_is_diagonal():
    # <gamma_i | gamma_j> = delta_ij * d1^n
    rng = np.random.default_rng(3)
    for d1, d2 in GRID:
        for n in (1, 2, 3):
            spec = random_spec(d1, d2, rng)
            gammas = np.stack([gamma_state(spec, n, i) for i in range(n + 1)], axis=1)
            gram = gammas.conj().T @ gammas
            np.testing.assert_allclose(gram, np.eye(n + 1) * d1**n, atol=1e-9)


def test_gamma_norm_and_slot_layout():
    spec = HardInstanceSpec.concrete(1, 2)
    g0 = gamma_state(spec, 2, 0)
    np.testing.assert_allclose(g0, kron_power(vectorize(spec.v0), 2), atol=1e-14)
    g2 = gamma_state(spec, 2, 2)
    np.testing.assert_allclose(g2, kron_power(vectorize(spec.delta), 2), atol=1e-14)


def test_expansion_reconstructs_member_power():
    rng = np.random.default_rng(4)
    for d1, d2 in GRID:
        for n in (1, 2, 3):
            spec = random_spec(d1, d2, rng)
            k = spec.rotor_dim
            u = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))[0]
            assert hard_vector_expansion(spec, n, 0.35, u) <= 1e-10


def test_gamma_recursion_two_term_mixture():
    rng = np.random.default_rng(5)
    for d1, d2 in GRID:
        for n in (2, 3):
            spec = random_spec(d1, d2, rng)
            for i in range(n + 1):
                assert gamma_recursion_residual(spec, n, i) <= 1e-9


def test_gamma_recursion_at_n4_forms_no_square_marginal():
    # both sides are read on Sym^3(M) (x) A_4: at (2,5) with n = 4 that is
    # 168-square, where the slot-space traced side is 2000-square and the
    # mixture 1000-square (16 MB complex) when dense
    spec = HardInstanceSpec.concrete(2, 5)
    for i in range(5):
        gamma_state(spec, 4, i)
        gamma_state(spec, 3, min(i, 3))
    tracemalloc.start()
    try:
        worst = max(gamma_recursion_residual(spec, 4, i) for i in range(5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert worst <= 1e-9
    assert peak < 4 * 2**20, peak


def test_gamma_outer_is_comb():
    rng = np.random.default_rng(6)
    for d1, d2 in [(1, 2), (1, 3), (2, 4)]:
        for n in (1, 2):
            spec = random_spec(d1, d2, rng)
            for i in range(n + 1):
                dense = LabeledOperator(gamma_outer(spec, n, i), slot_spaces(spec, n))
                cert = certify_comb(dense, comb_sequence(n), psd_tol=1e-8, chain_tol=1e-8)
                assert cert.ok, (d1, d2, n, i, cert)
                # the mode walk reads the same comb through the spec's own J
                cert = comb_certificate(spec, outer_modes(spec, n, i))
                assert cert.ok, (d1, d2, n, i, cert)
                g = gamma_state(spec, n, i)
                np.testing.assert_allclose(np.vdot(g, g).real, d1**n, atol=1e-9)


def test_kron_power_zero_is_the_unit():
    v = np.array([1.0, 2.0j])
    unit = kron_power(v, 0)
    assert unit.shape == (1,) and unit.dtype == v.dtype and unit[0] == 1
    m = np.arange(6.0).reshape(2, 3)
    unit = kron_power(m, 0)
    assert unit.shape == (1, 1) and unit.dtype == m.dtype and unit[0, 0] == 1
    np.testing.assert_array_equal(kron_power(m, 1), m)
    np.testing.assert_array_equal(kron_power(v, 3), np.kron(np.kron(v, v), v))


def _dense_on_each_slot(op, y, n, d1):
    """The full (op (x) I_{d1})^{(x) n} times y, formed densely."""
    return kron_power(np.kron(op, np.eye(d1)), n) @ y


@pytest.mark.parametrize("d1,d2,n", [(1, 3, 3), (2, 4, 2), (2, 5, 2)])
def test_on_each_slot_matches_the_dense_operator(d1, d2, n):
    rng = np.random.default_rng(10 * d2 + n)
    spec = random_spec(d1, d2, rng)
    rotor = spec.rotor(haar_unitary(spec.rotor_dim, rng))
    for op in (rotor, spec.iota):  # square, and d2 x k
        cols = (op.shape[1] * d1) ** n
        y = rng.standard_normal((cols, 3)) + 1j * rng.standard_normal((cols, 3))
        np.testing.assert_allclose(
            on_each_slot(op, y, n, d1), _dense_on_each_slot(op, y, n, d1), rtol=0, atol=1e-13
        )
    # a stack with one rotor per column
    u = haar_unitary_batch(spec.rotor_dim, 4, rng)
    stack = np.stack([spec.rotor(w) for w in u], axis=-1)
    y = rng.standard_normal(((d1 * d2) ** n, 4)) + 0j
    expected = np.stack(
        [_dense_on_each_slot(stack[..., m], y[:, m], n, d1) for m in range(4)], axis=1
    )
    np.testing.assert_allclose(on_each_slot(stack, y, n, d1), expected, rtol=0, atol=1e-13)


def _gamma_state_reference(spec, n, i):
    """gamma_i as one Kronecker chain per size-i subset, in slot order."""
    v0v, dv = vectorize(spec.v0), vectorize(spec.delta)
    acc = np.zeros((spec.d1 * spec.d2) ** n, dtype=complex)
    for subset in combinations(range(n), i):
        vec = np.ones(1, dtype=complex)
        for j in range(n):
            vec = np.kron(vec, dv if j in subset else v0v)
        acc += vec
    return acc / np.sqrt(comb(n, i))


def test_gamma_state_matches_the_per_subset_kron_loop():
    rng = np.random.default_rng(12)
    for d1, d2 in GRID:
        for n in (1, 2, 3):
            concrete = HardInstanceSpec.concrete(d1, d2)
            spec = random_spec(d1, d2, rng)
            for i in range(n + 1):
                np.testing.assert_array_equal(
                    gamma_state(concrete, n, i), _gamma_state_reference(concrete, n, i)
                )
                np.testing.assert_allclose(
                    gamma_state(spec, n, i), _gamma_state_reference(spec, n, i),
                    rtol=0, atol=1e-14,
                )


@pytest.mark.parametrize("n,i", [(1, 0), (1, 1), (3, 1), (3, 2), (4, 2), (4, 4)])
def test_subset_sum_places_each_column_on_every_subset(n, i):
    slot = 3
    rng = np.random.default_rng(10 * n + i)
    block = rng.standard_normal((slot**i, 4)) + 1j * rng.standard_normal((slot**i, 4))
    rest = rng.standard_normal(slot ** (n - i)) + 0j
    expected = np.zeros((slot**n, 4), dtype=complex)
    for subset in combinations(range(n), i):
        others = [j for j in range(n) if j not in subset]
        axes = [subset.index(j) if j in subset else i + others.index(j) for j in range(n)]
        for m in range(4):
            t = np.kron(block[:, m], rest).reshape((slot,) * n)
            expected[:, m] += t.transpose(axes).reshape(-1)
    np.testing.assert_array_equal(subset_sum(block, rest, n, i, slot), expected)


def test_subset_sum_at_i_equal_n_returns_the_block():
    # one subset, no other slots: the largest twirl factor is not copied
    block = np.arange(27 * 2, dtype=complex).reshape(27, 2)
    assert subset_sum(block, np.ones(1, dtype=complex), 3, 3, 3) is block
    np.testing.assert_array_equal(subset_sum(block, np.array([2j]), 3, 3, 3), 2j * block)
