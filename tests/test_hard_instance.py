"""Tests for the hard isometry family and its gamma vectors."""

import numpy as np
import pytest

from combcert.combs import certify_comb
from combcert.hard import (
    GammaFamily,
    HardInstanceSpec,
    gamma_recursion_residual,
    gamma_state,
    hard_vector_expansion,
)
from combcert.hard.instance import comb_sequence, gamma_outer, kron_power
from combcert.linalg import haar_isometry, vectorize

GRID = [(1, 2), (1, 3), (2, 4), (2, 5)]


def random_spec(d1, d2, rng):
    return HardInstanceSpec.random(d1, d2, rng)


def test_concrete_spec_validates():
    for d1, d2 in GRID:
        spec = HardInstanceSpec.concrete(d1, d2)
        assert spec.d1 == d1 and spec.d2 == d2
        assert spec.rotor_dim == d2 - d1
        np.testing.assert_allclose(spec.v0.conj().T @ spec.v0, np.eye(d1), atol=1e-12)
        np.testing.assert_allclose(spec.delta.conj().T @ spec.delta, np.eye(d1), atol=1e-12)
        np.testing.assert_allclose(spec.v0.conj().T @ spec.delta, 0, atol=1e-12)


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
            fam = GammaFamily(spec=spec, n=n)
            gram = fam.gram()
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
            check = hard_vector_expansion(spec, n, 0.35, u)
            assert check.residual <= 1e-10
            coeffs = np.asarray(check.coefficients)
            np.testing.assert_allclose(np.sum(coeffs**2), 1.0, atol=1e-12)


def test_gamma_recursion_two_term_mixture():
    rng = np.random.default_rng(5)
    for d1, d2 in GRID:
        for n in (2, 3):
            spec = random_spec(d1, d2, rng)
            for i in range(n + 1):
                assert gamma_recursion_residual(spec, n, i) <= 1e-9


def test_gamma_outer_is_comb():
    rng = np.random.default_rng(6)
    for d1, d2 in [(1, 2), (1, 3), (2, 4)]:
        for n in (1, 2):
            spec = random_spec(d1, d2, rng)
            for i in range(n + 1):
                cert = certify_comb(
                    gamma_outer(spec, n, i), comb_sequence(n), psd_tol=1e-8, chain_tol=1e-8
                )
                assert cert.ok, (d1, d2, n, i, cert)
                np.testing.assert_allclose(cert.trace_value, d1**n, atol=1e-9)
