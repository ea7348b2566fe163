"""Tests for the three twirl routes and their mutual agreement."""

from functools import partial
from itertools import permutations
from math import comb

import numpy as np
import pytest

import combcert.hard.twirl as twirl
from combcert.combs import certify_comb
from combcert.hard import (
    HardInstanceSpec,
    commutant_projector,
    gamma_twirl,
    gamma_twirl_exact_commutant,
    gamma_twirl_monte_carlo,
    gamma_twirl_weingarten,
)
from combcert.hard.instance import (
    comb_sequence,
    gamma_state,
    kron_power,
    on_each_slot,
    outer_modes,
    slot_spaces,
)
from combcert.hard.modes import comb_certificate, gamma_modes, sector_slice, sym_basis
from combcert.linalg import (
    LabeledOperator,
    haar_isometry,
    haar_unitary,
    haar_unitary_batch,
    psd_check,
)
from combcert.suites import DEFAULT_CONFIG
from combcert.suites import GAMMA_COMB_TOL as COMB_TOL

GAMMA_CELLS = DEFAULT_CONFIG["hard"]["gamma_cells"]


def random_spec(d1, d2, rng):
    """A Haar-random orthogonal-image pair (V0, Delta)."""
    w = haar_isometry(2 * d1, d2, rng)
    return HardInstanceSpec(w[:, :d1], w[:, d1:])


def _dense_rho(spec, n, u):
    """rho(U) = (R(U) (x) I_{d1})^{(x) n} formed densely on all n slots."""
    return kron_power(np.kron(spec.rotor(u), np.eye(spec.d1)), n)


def test_rho_action_is_a_representation():
    # rho(U) rho(W) = rho(UW), applied slot by slot
    rng = np.random.default_rng(0)
    spec = random_spec(2, 5, rng)
    k = spec.rotor_dim
    u, w = haar_unitary(k, rng), haar_unitary(k, rng)
    y = rng.standard_normal((100, 3)) + 1j * rng.standard_normal((100, 3))
    lhs = on_each_slot(spec.rotor(u), on_each_slot(spec.rotor(w), y, 2, 2), 2, 2)
    np.testing.assert_allclose(lhs, on_each_slot(spec.rotor(u @ w), y, 2, 2), atol=1e-12)


def test_commutant_projector_is_projection_onto_commutant():
    rng = np.random.default_rng(1)
    spec = random_spec(1, 3, rng)
    proj = commutant_projector(spec, 2, seed=7)
    dim = (spec.d1 * spec.d2) ** 2
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    tw = proj.twirl(x)
    # idempotent
    np.testing.assert_allclose(proj.twirl(tw), tw, atol=1e-10)
    # output commutes with a fresh group element
    g = _dense_rho(spec, 2, haar_unitary(spec.rotor_dim, rng))
    np.testing.assert_allclose(tw @ g, g @ tw, atol=1e-9)
    # the identity lies in the commutant and is fixed
    eye = np.eye(dim, dtype=complex)
    np.testing.assert_allclose(proj.twirl(eye), eye, atol=1e-10)
    # twirl output of a Hermitian input stays Hermitian
    h = (x + x.conj().T) / 2
    th = proj.twirl(h)
    np.testing.assert_allclose(th, th.conj().T, atol=1e-10)


def test_commutant_projector_dimension_cap():
    spec = HardInstanceSpec.concrete(2, 4)
    with pytest.raises(ValueError):
        commutant_projector(spec, 3)  # dim 512 > 48


def test_weingarten_matches_commutant_on_grid():
    # includes rotor_dim = 1 and 2 cells where the permutation Gram matrix is
    # singular for i >= 2 and i >= 3 respectively
    rng = np.random.default_rng(2)
    cells = [(1, 2, 3), (1, 3, 3), (2, 4, 1), (2, 5, 1)]
    for d1, d2, n_max in cells:
        spec = random_spec(d1, d2, rng)
        for n in range(1, n_max + 1):
            proj = commutant_projector(spec, n, seed=11)
            for i in range(n + 1):
                gw = gamma_twirl_weingarten(spec, n, i)
                gc = gamma_twirl_exact_commutant(spec, n, i, projector=proj)
                assert np.linalg.norm(gw - gc) <= 1e-8, (d1, d2, n, i)


def test_twirl_output_invariances():
    rng = np.random.default_rng(3)
    for d1, d2, n in [(1, 2, 3), (1, 3, 2), (2, 4, 2)]:
        spec = random_spec(d1, d2, rng)
        for i in range(n + 1):
            g = gamma_twirl_weingarten(spec, n, i)
            # trace d1^n, PSD, commutes with fresh rho(U)
            np.testing.assert_allclose(np.trace(g).real, d1**n, atol=1e-9)
            assert psd_check(g, tol=1e-10).ok
            r = _dense_rho(spec, n, haar_unitary(spec.rotor_dim, rng))
            assert np.linalg.norm(g @ r - r @ g) <= 1e-9


def test_twirled_gamma_is_comb():
    rng = np.random.default_rng(4)
    for d1, d2 in [(1, 2), (1, 3), (2, 4), (2, 5)]:
        for n in (1, 2):
            spec = random_spec(d1, d2, rng)
            for i in range(n + 1):
                g = gamma_twirl_weingarten(spec, n, i)
                op = LabeledOperator(mat=g, spaces=slot_spaces(spec, n))
                cert = certify_comb(op, comb_sequence(n), psd_tol=1e-7, chain_tol=1e-7)
                assert cert.ok, (d1, d2, n, i, cert)


def test_monte_carlo_agrees_with_exact():
    rng_seed = 5
    spec = HardInstanceSpec.concrete(1, 3)
    n, i, samples = 2, 1, 20_000
    est, se = gamma_twirl_monte_carlo(spec, n, i, samples=samples, seed=rng_seed)
    exact = gamma_twirl_weingarten(spec, n, i)
    assert np.max(np.abs(est - exact)) <= 5 * se
    assert se == pytest.approx(1.0 / np.sqrt(samples))


def test_gamma_twirl_dispatcher():
    spec = HardInstanceSpec.concrete(1, 2)
    g_auto = gamma_twirl(spec, 2, 1)
    np.testing.assert_allclose(g_auto, gamma_twirl_weingarten(spec, 2, 1), atol=1e-12)
    # i above the permutation cap with dimension above the commutant cap must
    # refuse rather than silently sample
    big = HardInstanceSpec.concrete(2, 4)
    with pytest.raises(ValueError):
        gamma_twirl(big, 5, 5)


def test_gamma_twirl_takes_the_exact_commutant_above_the_permutation_cap():
    spec = HardInstanceSpec.concrete(1, 2)  # dimension 2**5 = 32 fits the commutant cap
    # the commutant projection comes back as it is
    g = gamma_twirl(spec, 5, 5, seed=3)
    np.testing.assert_array_equal(g, gamma_twirl_exact_commutant(spec, 5, 5, seed=3))
    # the mode route pulls the same projection back onto sector 5 of Sym^5(M)
    m = twirl.gamma_twirl_modes(spec, 5, 5, seed=3)
    b = twirl.embedding(spec, 5, 5) @ m.vecs
    np.testing.assert_allclose((b * m.vals) @ b.conj().T, g, rtol=0, atol=1e-12)
    for route in (gamma_twirl, twirl.gamma_twirl_modes):
        with pytest.raises(ValueError):
            route(HardInstanceSpec.concrete(2, 4), 5, 5)


def test_weingarten_rejects_large_order():
    spec = HardInstanceSpec.concrete(1, 2)
    with pytest.raises(ValueError):
        gamma_twirl_weingarten(spec, 6, 5)


@pytest.mark.parametrize("d1,d2", GAMMA_CELLS)
def test_factored_certificates_match_the_dense_ones(d1, d2):
    # the mode walk on Sym^n(M) against the dense slot-space walk
    spec = HardInstanceSpec.concrete(d1, d2)
    for n in (1, 2, 3):
        seq = comb_sequence(n)
        spaces = slot_spaces(spec, n)
        for i in range(n + 1):
            g = gamma_state(spec, n, i)
            pairs = [
                (outer_modes(spec, n, i), LabeledOperator(np.outer(g, g.conj()), spaces)),
                (twirl.gamma_twirl_modes(spec, n, i), LabeledOperator(gamma_twirl(spec, n, i), spaces)),
            ]
            for modes, dense in pairs:
                a = comb_certificate(spec, modes)
                b = certify_comb(dense, seq, psd_tol=COMB_TOL, chain_tol=COMB_TOL)
                assert a.ok == b.ok, (d1, d2, n, i)
                assert a.max_chain_residual <= COMB_TOL, (d1, d2, n, i)
                assert a.min_eig == 0.0  # rank below dim: the null directions count exactly
                # a Frobenius residual in mode coordinates bounds the slot max-entry one
                for x, y in zip(a.chain_residuals[:-1], b.chain_residuals[:-1], strict=True):
                    assert y <= x + 1e-15, (d1, d2, n, i)
                # the last residual |X^(0) - 1| holds tr X to the input dimensions
                assert abs(a.chain_residuals[-1] - b.chain_residuals[-1]) <= 1e-12, (d1, d2, n, i)


@pytest.mark.parametrize("d1,d2,n", [(d1, d2, n) for d1, d2 in GAMMA_CELLS for n in (1, 2, 3)]
                         + [(2, 5, 4)])
def test_mode_twirls_embed_onto_the_slot_space_factors(d1, d2, n):
    # E_n is an isometry that takes the mode gamma_i to the slot gamma_i, and
    # E_n (mode Gamma_i) E_n^dagger has trace d1^n and commutes with rho(U)
    spec = HardInstanceSpec.concrete(d1, d2)
    e = np.hstack([twirl.embedding(spec, n, i) for i in range(n + 1)])
    assert np.abs(e.conj().T @ e - np.eye(e.shape[1])).max() <= 1e-12
    modes = spec.rotor_dim * d1 + 1
    assert e.shape == ((d1 * d2) ** n, comb(modes + n - 1, n))
    rng = np.random.default_rng(n)
    rho = partial(on_each_slot, spec.rotor(haar_unitary(spec.rotor_dim, rng)), n=n, d1=d1)
    x = rng.standard_normal((e.shape[0], 3))
    for i in range(n + 1):
        rows = sector_slice(modes, n, i)
        slot_gamma = e[:, rows] @ gamma_modes(spec, n, i)
        assert np.abs(slot_gamma - gamma_state(spec, n, i)).max() <= 1e-12, i
        m = twirl.gamma_twirl_modes(spec, n, i)
        assert abs(m.vals.sum() - d1**n) <= 1e-12 * d1**n, i
        b = e[:, rows] @ m.vecs
        # both sides applied to random probes, never the D^n-square operators
        lhs = b @ (m.vals[:, None] * (b.conj().T @ rho(x)))
        rhs = rho(b @ (m.vals[:, None] * (b.conj().T @ x)))
        assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(rhs).max()), i


@pytest.mark.parametrize("d1,d2", GAMMA_CELLS)
def test_twirl_factor_agrees_with_the_dense_twirl_on_random_probes(d1, d2):
    # the slot-space Gamma_i that twirl-routes and twirl-mc compare is the
    # sector operator the comb and domination records certify, mapped by E_n
    rng = np.random.default_rng(31)
    spec = HardInstanceSpec.concrete(d1, d2)
    for n in (1, 2, 3):
        for i in range(n + 1):
            m = twirl.gamma_twirl_modes(spec, n, i)
            b = twirl.embedding(spec, n, i) @ m.vecs
            dense = gamma_twirl(spec, n, i)
            x = rng.standard_normal((len(b), 3)) + 1j * rng.standard_normal((len(b), 3))
            lhs = b @ (m.vals[:, None] * (b.conj().T @ x))
            rhs = dense @ x
            assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(rhs).max()), (n, i)


def _dense_commutant_basis(spec, n, seed):
    """The nullspace of the dense sum_g C_g^dagger C_g over the four Haar
    generators commutant_projector draws from ``seed``, C_g the commutator
    map X -> gX - Xg; the block route must reproduce its span."""
    rng = np.random.default_rng(seed)
    dim = (spec.d1 * spec.d2) ** n
    eye = np.eye(dim)
    h = np.zeros((dim * dim, dim * dim), dtype=complex)
    for _ in range(4):
        g = _dense_rho(spec, n, haar_unitary(spec.rotor_dim, rng))
        c = np.kron(g, eye) - np.kron(eye, g.T)
        h += c.conj().T @ c
    vals, vecs = np.linalg.eigh(h)
    return vecs[:, vals <= 1e-10 * max(1.0, float(vals[-1]))]


@pytest.mark.parametrize(
    "d1,d2,n",
    [(1, 2, 1), (1, 2, 2), (1, 2, 3), (1, 3, 1), (1, 3, 2), (1, 3, 3), (2, 4, 1), (2, 5, 1)],
)
def test_block_commutant_matches_the_dense_nullspace(d1, d2, n):
    rng = np.random.default_rng(100 * d1 + 10 * d2 + n)
    spec = random_spec(d1, d2, rng)
    proj = commutant_projector(spec, n, seed=9)
    dense = _dense_commutant_basis(spec, n, seed=9)
    assert proj.basis.shape == dense.shape
    np.testing.assert_allclose(
        proj.basis @ proj.basis.conj().T, dense @ dense.conj().T, rtol=0, atol=1e-10
    )
    shape = (proj.dim, proj.dim)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    tw = proj.twirl(x)
    g = _dense_rho(spec, n, haar_unitary(spec.rotor_dim, rng))
    assert np.abs(tw @ g - g @ tw).max() <= 1e-10 * max(1.0, np.abs(tw).max())


def test_block_commutant_refuses_a_rotor_that_moves_im_v0(monkeypatch):
    spec = HardInstanceSpec.concrete(1, 3)
    scrambled = haar_unitary(3, np.random.default_rng(0))
    monkeypatch.setattr(HardInstanceSpec, "rotor", lambda self, u: scrambled)
    with pytest.raises(ValueError, match="does not fix"):
        commutant_projector(spec, 2)


def _monte_carlo_reference(spec, n, i, samples, seed):
    """The sample-first Monte Carlo loop (moveaxis, then a batched einsum per
    slot) that gamma_twirl_monte_carlo's sample-last loop replaced."""
    rng = np.random.default_rng(seed)
    d1, d2 = spec.d1, spec.d2
    iota = spec.iota
    p0 = spec.v0 @ spec.v0.conj().T
    g = gamma_state(spec, n, i)
    dim = g.size
    acc = np.zeros((dim, dim), dtype=complex)
    done = 0
    while done < samples:
        nb = min(2000, samples - done)
        u = haar_unitary_batch(spec.rotor_dim, nb, rng)
        rot = p0[None, :, :] + np.einsum("ak,nkl,bl->nab", iota, u, iota.conj(), optimize=True)
        y = np.broadcast_to(g, (nb, dim)).reshape((nb,) + (d2, d1) * n).copy()
        for j in range(n):
            axis = 1 + 2 * j
            moved = np.moveaxis(y, axis, 1)
            moved = np.einsum("nxy,ny...->nx...", rot, moved, optimize=True)
            y = np.moveaxis(moved, 1, axis)
        yf = y.reshape(nb, dim)
        # the same sample sum as the library's: einsum's loop, not BLAS
        acc += np.einsum("ki,kj->ij", yf, yf.conj())
        done += nb
    est = acc / samples
    return (est + est.conj().T) / 2


def test_monte_carlo_matches_the_sample_first_loop_at_the_default_cell():
    d1, d2, n, i = DEFAULT_CONFIG["hard"]["mc_cells"][0]
    samples = DEFAULT_CONFIG["hard"]["mc_samples"]
    spec = HardInstanceSpec.concrete(d1, d2)
    est, _ = gamma_twirl_monte_carlo(spec, n, i, samples=samples, seed=7)
    np.testing.assert_array_equal(est, _monte_carlo_reference(spec, n, i, samples, seed=7))


@pytest.mark.parametrize("d1,d2,n,i", [(1, 3, 3, 2), (2, 4, 2, 2)])
def test_monte_carlo_matches_the_sample_first_loop(d1, d2, n, i):
    spec = HardInstanceSpec.concrete(d1, d2)
    est, _ = gamma_twirl_monte_carlo(spec, n, i, samples=4500, seed=3)  # two full batches and a part
    ref = _monte_carlo_reference(spec, n, i, 4500, seed=3)
    assert np.abs(est - ref).max() <= 1e-15


def _dense_frame_core(delta_coords, i):
    """The Delta-dependent frame formula the Sym^i solve replaced, formed
    densely: N = sum_{s,t} (G^+)_{st} p(s) (x) tr_W[(p(t)^dg (x) I) |psi><psi|]
    with psi = vec(D)^{(x) i} in the grouped order (w_1..w_i, a_1..a_i),
    returned in the slot order (w_1, a_1, ..., w_i, a_i)."""
    k, d1 = delta_coords.shape
    digits = np.indices((k,) * i).reshape(i, -1)
    mats = []
    for sigma in permutations(range(i)):  # factor t receives factor sigma^{-1}(t)
        p = np.zeros((k**i, k**i))
        p[np.ravel_multi_index(tuple(digits[np.argsort(sigma)]), (k,) * i), np.arange(k**i)] = 1
        mats.append(p)
    flat = np.array([p.reshape(-1) for p in mats])
    gram_pinv = np.linalg.pinv(flat @ flat.T, rcond=1e-12, hermitian=True)
    psi = kron_power(delta_coords, i)  # psi as a k^i x d1^i matrix
    partials = [(p.T @ psi).T @ psi.conj() for p in mats]
    core = sum(np.kron(p, sum(g * b for g, b in zip(row, partials)))
               for p, row in zip(mats, gram_pinv))
    order = [ax for j in range(i) for ax in (j, i + j)]
    t = core.reshape((k,) * i + (d1,) * i + (k,) * i + (d1,) * i)
    return t.transpose(order + [2 * i + ax for ax in order]).reshape(core.shape)


@pytest.mark.parametrize("d1,d2,i", [(2, 4, 4), (2, 5, 3)])
def test_sym_core_matches_the_dense_frame_formula(d1, d2, i):
    # the dense formula depends on Delta; the core must not, so random specs
    # are compared against the same (k, d1, i) core
    rng = np.random.default_rng(10 * d2 + i)
    vals, vecs = twirl._twirled_core(d2 - d1, d1, i)
    cols = sym_basis((d2 - d1) * d1, i) @ vecs
    core = (cols * vals) @ cols.conj().T
    for spec in (HardInstanceSpec.concrete(d1, d2), random_spec(d1, d2, rng),
                 random_spec(d1, d2, rng)):
        dense = _dense_frame_core(spec.iota.conj().T @ spec.delta, i)
        assert np.abs(core - dense).max() <= 1e-14


CORE_CELLS = [(k, d1, i) for k, d1 in [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3)]
              for i in (1, 2, 3, 4)]


def test_twirled_core_is_solved_once_and_read_only():
    vals, vecs = twirl._twirled_core(3, 2, 2)
    assert twirl._twirled_core(3, 2, 2)[1] is vecs
    for arr in (vals, vecs):
        with pytest.raises(ValueError):
            arr[0] = 1


@pytest.mark.parametrize("k,d1,i", CORE_CELLS)
def test_sym_core_rank_is_the_symmetric_dimension(k, d1, i):
    vals, vecs = twirl._twirled_core(k, d1, i)
    assert len(vals) == vecs.shape[0] == vecs.shape[1] == comb(k * d1 + i - 1, i)
    np.testing.assert_allclose(vals.sum(), d1**i, rtol=1e-12)  # tr N = |vec(D)|^{2i}


def _partitions(i, most=None):
    """Partitions of i as non-increasing tuples."""
    if i == 0:
        return [()]
    most = i if most is None else most
    return [(p,) + rest for p in range(min(i, most), 0, -1) for rest in _partitions(i - p, p)]


def _schur_dim(lam, n):
    """dim S_lam(C^n) by the hook-content formula."""
    cols = [sum(1 for row in lam if row > c) for c in range(lam[0])] if lam else []
    out = 1.0
    for r, row in enumerate(lam):
        for c in range(row):
            out *= (n + c - r) / (row - c + cols[c] - r - 1)
    return round(out)


@pytest.mark.parametrize("k,d1,i", CORE_CELLS)
def test_sym_core_multiplicities_follow_the_cauchy_decomposition(k, d1, i):
    # Sym^i(C^k (x) C^{d1}) = sum_lam S_lam(C^k) (x) S_lam(C^{d1}), N a scalar on each
    vals, _ = twirl._twirled_core(k, d1, i)
    breaks = np.flatnonzero(np.diff(vals) > 1e-9 * vals[-1])
    sizes = np.diff(np.concatenate([[0], breaks + 1, [len(vals)]]))
    dims = [_schur_dim(lam, k) * _schur_dim(lam, d1) for lam in _partitions(i)]
    assert sorted(sizes) == sorted(d for d in dims if d)


def test_permutation_frame_solves_only_on_the_symmetric_subspace(monkeypatch):
    # a core solved earlier in the process is cached and would hide the solve
    twirl._twirled_core.cache_clear()
    seen = []
    real = twirl.herm_eig

    def recording(x, *args, **kwargs):
        seen.append(x.shape[-1])
        return real(x, *args, **kwargs)

    monkeypatch.setattr(twirl, "herm_eig", recording)
    spec = HardInstanceSpec.concrete(2, 5)
    for i in range(1, 5):
        seen.clear()
        twirl.gamma_twirl_modes(spec, 4, i)
        assert seen and max(seen) <= comb(spec.rotor_dim * spec.d1 + i - 1, i), (i, seen)
