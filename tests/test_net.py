"""Tests for the packing-net channel family: parameter windows, block
constructions, member isometries, the overlap operator, and the three
sampled audits."""

from dataclasses import replace
from math import sqrt

import numpy as np
import pytest

from combcert import linalg, net
from combcert.channels import choi_from_kraus, kraus_rank
from combcert.linalg import haar_unitary, haar_unitary_batch, herm_eig, psd_sqrt, trace_norm
from combcert.net import (
    GRAM_REJECTION_BUDGET,
    SEPARATION_MAX_EPS,
    NetParams,
    build_block_isometry,
    build_net_isometry,
    f_operator,
    lipschitz_audit,
    moment_audit,
    separation_audit,
)
from combcert.net import (
    _block_gram,
    _branch_difference,
    _cross_operator,
    _gram_moments,
    _lipschitz_trial_bytes,
    _moment_pair_bytes,
    _overlap_norm,
    _rotor_part,
    _separation_pair_bytes,
    rotated_branch,
)


def test_mode_resolution():
    assert NetParams(2, 4, 2, 0.005).mode == "even"
    assert NetParams(4, 3, 3, 0.005).mode == "odd"
    assert NetParams(6, 3, 4, 0.005).mode == "odd"
    # odd d2 but enough ancillas to pave with half-space pairs -> even
    assert NetParams(1, 3, 2, 0.005).mode == "even"
    # explicit even works whenever its window holds
    assert NetParams(4, 3, 3, 0.005, mode="even").mode == "even"


def test_parameter_window_errors():
    with pytest.raises(ValueError):
        NetParams(1, 2, 3, 0.005)  # r > d1*d2
    with pytest.raises(ValueError):
        NetParams(4, 2, 1, 0.005)  # r*d2 < d1
    with pytest.raises(ValueError):
        NetParams(5, 3, 3, 0.005)  # auto -> odd but r*d2 < 2*d1
    with pytest.raises(ValueError):
        NetParams(2, 4, 2, 0.005, mode="odd")  # even d2 in odd mode
    with pytest.raises(ValueError):
        NetParams(2, 4, 2, -0.1)
    with pytest.raises(ValueError):
        NetParams(2, 4, 2, 1.0)
    with pytest.raises(ValueError):
        NetParams(2, 4, 2, 0.005, mode="weird")


def test_dimension_properties():
    p = NetParams(4, 3, 3, 0.005)
    assert (p.out_dim, p.u_dim, p.half_dim, p.eta) == (3, 3, 1, 1)
    q = NetParams(6, 3, 4, 0.005)
    assert (q.u_dim, q.eta) == (4, 2)
    e = NetParams(2, 4, 2, 0.005)
    assert (e.out_dim, e.u_dim) == (8, 8)


def test_even_blocks_meet_gram_ceiling():
    rng = np.random.default_rng(0)
    p = NetParams(2, 4, 2, 0.005)
    b = build_block_isometry(p, rng)
    g = b.gram
    off = g - np.diag(np.diag(g))
    assert np.max(np.abs(off)) <= 1e-9
    assert np.max(np.diag(g).real) <= 2 * p.d1 / p.r + 1e-9
    # diagonal sums to d1 because the assembled columns are orthonormal
    assert np.trace(g).real == pytest.approx(p.d1, abs=1e-10)
    assert 0 <= b.rejections < GRAM_REJECTION_BUDGET


def test_single_block_case_is_trivial():
    rng = np.random.default_rng(1)
    p = NetParams(1, 2, 1, 0.005)
    b = build_block_isometry(p, rng)
    assert b.gram.shape == (1, 1)
    assert b.gram[0, 0].real == pytest.approx(p.d1, abs=1e-12)


def _embedding_from_rows(blocks):
    """J with one unit column per rotor row, and Delta_canon = J eye(u_dim, d1)."""
    p = blocks.params
    j = np.eye(p.r * p.d2, dtype=complex)[:, blocks.rotor_rows]
    return j, j @ np.eye(p.u_dim, p.d1)


def test_odd_blocks_structure():
    rng = np.random.default_rng(2)
    p = NetParams(4, 3, 3, 0.005)
    b = build_block_isometry(p, rng)
    assert b.subspace_dims == {
        "input_rotated": 3,
        "input_middle": 1,
        "output_lower": 1,
        "output_upper": 1,
        "output_middle": 1,
        "middle_reference_slots": 1,
        "middle_rotated_slots": 2,
    }
    # core Gram is exactly half_dim * I; middle legs add 1 to the first eta
    diag = np.sort(np.diag(b.gram).real)[::-1]
    expected = np.array([p.half_dim + (1 if i < p.eta else 0) for i in range(p.r)], float)
    assert np.allclose(np.sort(expected)[::-1], diag, atol=1e-12)
    assert np.max(np.abs(b.gram - np.diag(np.diag(b.gram)))) <= 1e-12
    assert np.max(diag) <= 3 * p.d1 / p.r + 1e-9
    # branch rows are disjoint from the reference rows, for every rotation
    j, delta_canon = _embedding_from_rows(b)
    assert np.linalg.norm(b.v0_full.conj().T @ j) <= 1e-12
    assert np.linalg.norm(b.v0_full.conj().T @ (delta_canon + b.delta_prime)) <= 1e-12


@pytest.mark.parametrize("d1,d2,r", [(2, 4, 2), (4, 3, 3), (6, 3, 4), (1, 2, 1)])
def test_member_isometry_and_kraus_rank(d1, d2, r):
    rng = np.random.default_rng(3)
    p = NetParams(d1, d2, r, 0.005)
    b = build_block_isometry(p, rng)
    for _ in range(3):
        u = haar_unitary(p.u_dim, rng)
        v, ch = build_net_isometry(p, u, b)
        assert np.linalg.norm(v.conj().T @ v - np.eye(d1)) <= 1e-10
        assert ch.d_out == p.out_dim
        assert kraus_rank(choi_from_kraus(ch)) <= r


def test_zero_eps_channel_ignores_rotation():
    rng = np.random.default_rng(4)
    for dims in ((4, 3, 3), (2, 4, 2)):
        p = NetParams(*dims, 0.0)
        b = build_block_isometry(p, rng)
        c1 = choi_from_kraus(build_net_isometry(p, haar_unitary(p.u_dim, rng), b)[1])
        c2 = choi_from_kraus(build_net_isometry(p, haar_unitary(p.u_dim, rng), b)[1])
        assert np.linalg.norm(c1 - c2) <= 1e-12


def test_build_rejects_mismatched_inputs():
    rng = np.random.default_rng(5)
    p = NetParams(4, 3, 3, 0.005)
    b = build_block_isometry(p, rng)
    other = NetParams(4, 3, 3, 0.002)
    with pytest.raises(ValueError):
        build_net_isometry(other, haar_unitary(p.u_dim, rng), b)
    with pytest.raises(ValueError):
        build_net_isometry(p, haar_unitary(p.u_dim + 1, rng), b)


@pytest.mark.parametrize("d1,d2,r", [(2, 4, 2), (4, 3, 3)])
def test_f_operator_matches_blockwise_route(d1, d2, r):
    rng = np.random.default_rng(6)
    p = NetParams(d1, d2, r, 0.005)
    b = build_block_isometry(p, rng)
    ux, uy = haar_unitary(p.u_dim, rng), haar_unitary(p.u_dim, rng)
    f = f_operator(b, ux, uy)
    assert f.shape == (d2 * d1, d2 * d1)
    # independent route: per-ancilla outer products of vectorized blocks
    j, delta_canon = _embedding_from_rows(b)
    kx = (j @ (ux @ (j.conj().T @ delta_canon))).reshape(r, d2, d1)
    ky = (j @ (uy @ (j.conj().T @ delta_canon))).reshape(r, d2, d1)
    k0 = b.v0_full.reshape(r, d2, d1)
    f2 = sum(
        np.outer(k0[i].reshape(-1), (kx[i] - ky[i]).reshape(-1).conj()) for i in range(r)
    ) / d1
    assert np.linalg.norm(f - f2) <= 1e-10
    assert np.linalg.norm(f_operator(b, ux, ux)) <= 1e-14


@pytest.mark.parametrize("d1,d2,r", [(4, 3, 3), (6, 3, 4), (2, 4, 2), (1, 2, 1)])
def test_overlap_norm_from_the_factor_matches_the_dense_svd(d1, d2, r):
    # odd and even mode: tr|F| from the r-row factor against the singular
    # values of the (d2*d1)-square F, for a stack of pairs and for one pair
    rng = np.random.default_rng(12)
    b = build_block_isometry(NetParams(d1, d2, r, 0.005), rng)
    u = haar_unitary_batch(b.params.u_dim, 40, rng)
    ux, uy = u[:20], u[20:]
    dense = trace_norm(f_operator(b, ux, uy))
    assert np.abs(_overlap_norm(b, ux, uy) - dense).max() <= 1e-13 * dense.max()
    assert abs(_overlap_norm(b, ux[0], uy[0]) - dense[0]) <= 1e-13 * dense[0]


@pytest.mark.parametrize("d1,d2,r", [(4, 3, 3), (6, 3, 4)])
def test_moment_audit_hits_exact_second_moment(d1, d2, r):
    rng = np.random.default_rng(7)
    p = NetParams(d1, d2, r, 0.005)
    b = build_block_isometry(p, rng)
    m = moment_audit(b, 10_000, rng)
    assert m.ok
    assert abs(m.m2_mean - (d2 - 1) / d1) <= 4 * m.m2_stderr
    assert m.m4_mean <= 288.0 / r**3 * (1 + 4 * m.m4_stderr / m.m4_mean)


def test_moment_audit_preconditions():
    rng = np.random.default_rng(8)
    p = NetParams(2, 4, 2, 0.005)
    b = build_block_isometry(p, rng)
    with pytest.raises(ValueError):
        moment_audit(b, 10_000, rng)  # even template has no moment identity
    p_odd = NetParams(4, 3, 3, 0.005)
    b_odd = build_block_isometry(p_odd, rng)
    with pytest.raises(ValueError):
        moment_audit(b_odd, 999, rng)


@pytest.mark.parametrize("d1,d2,r", [(4, 3, 3), (2, 4, 2)])
def test_lipschitz_audit_sees_no_violations(d1, d2, r):
    rng = np.random.default_rng(9)
    p = NetParams(d1, d2, r, 0.005)
    b = build_block_isometry(p, rng)
    a = lipschitz_audit(b, 500, rng)
    assert a.ok and a.violations == 0
    assert a.max_ratio <= a.lipschitz_constant + 1e-8
    with pytest.raises(ValueError):
        lipschitz_audit(b, 99, rng)


@pytest.mark.parametrize("d1,d2,r", [(4, 3, 3), (2, 4, 2)])
def test_separation_audit_thresholds(d1, d2, r):
    rng = np.random.default_rng(10)
    p = NetParams(d1, d2, r, 0.005)
    b = build_block_isometry(p, rng)
    s = separation_audit(b, 50, rng)
    assert s.separated and s.identities_hold
    assert s.min_choi_distance >= 0.07 * p.eps
    assert s.min_overlap_norm >= 0.05
    assert s.max_kraus_rank <= r
    assert s.branch_trace_residual <= 1e-8
    assert s.nilpotency_residual <= 1e-10
    assert s.symmetrized_norm_residual <= 1e-8
    assert s.cross_route_residual <= 1e-8
    assert s.choi_floor_violation <= 1e-8
    # the assembled arithmetic floor is itself above the target threshold
    assert s.derived_choi_floor >= 0.07 * p.eps


def test_separation_audit_preconditions():
    rng = np.random.default_rng(11)
    p = NetParams(2, 4, 2, 0.05)
    b = build_block_isometry(p, rng)
    with pytest.raises(ValueError):
        separation_audit(b, 50, rng)  # eps above the arithmetic regime
    p2 = NetParams(2, 4, 2, SEPARATION_MAX_EPS)
    b2 = build_block_isometry(p2, rng)
    with pytest.raises(ValueError):
        separation_audit(b2, 49, rng)


def test_block_build_is_deterministic_per_seed():
    p = NetParams(4, 3, 3, 0.005)
    b1 = build_block_isometry(p, np.random.default_rng(12))
    b2 = build_block_isometry(p, np.random.default_rng(12))
    assert np.array_equal(b1.v0_full, b2.v0_full)
    assert np.array_equal(b1.gram, b2.gram)


def test_rotated_branch_is_isometry_for_any_rotation():
    rng = np.random.default_rng(13)
    for dims in ((4, 3, 3), (2, 4, 2)):
        p = NetParams(*dims, 0.005)
        b = build_block_isometry(p, rng)
        u = haar_unitary(p.u_dim, rng)
        br = rotated_branch(b, u)
        assert np.linalg.norm(br.conj().T @ br - np.eye(p.d1)) <= 1e-10
        # in odd mode the rotated branch also stays orthogonal to the reference
        if p.mode == "odd":
            assert np.linalg.norm(b.v0_full.conj().T @ br) <= 1e-12


# ---------------------------------------------------------------------------
# The batched audits against the one-trial-at-a-time loops they replaced.
# The loops are kept here as the reference: the Lipschitz and separation
# audits must reproduce them bit for bit, RNG end state included.


def _loop_unitary_step(dim, theta, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (g + g.conj().T) / 2
    h /= np.linalg.norm(h)
    vals, vecs = herm_eig(h)
    return (vecs * np.exp(1j * theta * vals)) @ vecs.conj().T


def _loop_overlap_norm(blocks, ux, uy):
    """tr|F| of one pair from F's r-row factor: the singular values of
    A^{1/2} conj(W) / d1, W the r row blocks of (ux - uy) eye(u_dim, d1)."""
    p = blocks.params
    w = _rotor_part(blocks, ux - uy).reshape(p.r, -1)
    return trace_norm(psd_sqrt(blocks.gram) @ w.conj()) / p.d1


def _loop_lipschitz(blocks, trials, rng):
    p = blocks.params
    lip = sqrt(2.0 / p.d1)
    max_ratio = 0.0
    violations = 0
    for _ in range(trials):
        ux = haar_unitary(p.u_dim, rng)
        uy = haar_unitary(p.u_dim, rng)
        theta_x, theta_y = np.exp(rng.uniform(np.log(1e-3), np.log(0.3), size=2))
        ux2 = ux @ _loop_unitary_step(p.u_dim, float(theta_x), rng)
        uy2 = uy @ _loop_unitary_step(p.u_dim, float(theta_y), rng)
        dist = sqrt(np.linalg.norm(ux2 - ux) ** 2 + np.linalg.norm(uy2 - uy) ** 2)
        f0 = _loop_overlap_norm(blocks, ux, uy)
        f1 = _loop_overlap_norm(blocks, ux2, uy2)
        delta = abs(f1 - f0)
        if dist > 0:
            max_ratio = max(max_ratio, delta / dist)
        if delta > lip * dist + 1e-8:
            violations += 1
    return max_ratio, violations


def _loop_separation(blocks, pairs, rng):
    p = blocks.params
    d1, r = p.d1, p.r
    amp = 2 * p.eps * sqrt(1 - p.eps**2)
    min_dist = min_f = np.inf
    max_rank = 0
    branch_res = nilp_res = symm_res = route_res = floor_viol = 0.0
    for _ in range(pairs):
        u1 = haar_unitary(p.u_dim, rng)
        u2 = haar_unitary(p.u_dim, rng)
        while np.linalg.norm(u1 - u2) < 1e-12:
            u2 = haar_unitary(p.u_dim, rng)
        _, ch1 = build_net_isometry(p, u1, blocks)
        _, ch2 = build_net_isometry(p, u2, blocks)
        choi1 = choi_from_kraus(ch1)
        dist = trace_norm(choi1 - choi_from_kraus(ch2)) / d1
        min_dist = min(min_dist, dist)
        max_rank = max(max_rank, kraus_rank(choi1))
        f_val = _loop_overlap_norm(blocks, u1, u2)
        min_f = min(min_f, f_val)
        b1 = rotated_branch(blocks, u1)
        branch_overlap = _cross_operator(b1, b1, r, d1)
        branch_res = max(branch_res, abs(trace_norm(branch_overlap) - d1) / d1)
        if p.mode == "even":
            ref = np.zeros((r, 2, p.d2, d1), dtype=complex)
            ref[:, 0] = blocks.v0_full.reshape(r, p.d2, d1)
            diff = np.zeros((r, 2, p.d2, d1), dtype=complex)
            j, delta_canon = _embedding_from_rows(blocks)
            diff[:, 1] = (j @ ((u1 - u2) @ (j.conj().T @ delta_canon))).reshape(r, p.d2, d1)
            x = _cross_operator(ref.reshape(r * 2 * p.d2, d1), diff.reshape(r * 2 * p.d2, d1), r, d1)
        else:
            x = d1 * f_operator(blocks, u1, u2)
        x_norm = trace_norm(x)
        scale = max(1.0, x_norm)
        nilp_res = max(nilp_res, float(np.linalg.norm(x @ x)) / scale**2)
        symm_res = max(symm_res, abs(trace_norm(x + x.conj().T) - 2 * x_norm) / scale)
        route_res = max(route_res, abs(x_norm - d1 * f_val) / scale)
        floor = amp * x_norm - 2 * p.eps**2 * d1
        floor_viol = max(floor_viol, (floor - dist * d1) / d1)
    return {
        "min_choi_distance": float(min_dist),
        "min_overlap_norm": float(min_f),
        "max_kraus_rank": max_rank,
        "derived_choi_floor": amp * min_f - 2 * p.eps**2,
        "branch_trace_residual": branch_res,
        "nilpotency_residual": nilp_res,
        "symmetrized_norm_residual": symm_res,
        "cross_route_residual": route_res,
        "choi_floor_violation": floor_viol,
    }


def _loop_moments(blocks, ux, uy):
    """m2 = ||F||_F^2 and m4 = ||F^dagger F||_F^2 from the dense F stack."""
    p = blocks.params
    f = f_operator(blocks, ux, uy)
    g = np.einsum("nab,nac->nbc", f.conj(), f)
    return np.einsum("nab,nab->n", f, f.conj()).real, np.einsum("nbc,nbc->n", g, g.conj()).real


def _twin_rngs(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


@pytest.mark.parametrize("d1,d2,r", [(4, 3, 3), (2, 4, 2)])
def test_lipschitz_audit_equals_the_per_trial_loop(d1, d2, r):
    blocks = build_block_isometry(NetParams(d1, d2, r, 0.005), np.random.default_rng(20))
    rng_loop, rng_batch = _twin_rngs(21)
    max_ratio, violations = _loop_lipschitz(blocks, 500, rng_loop)
    a = lipschitz_audit(blocks, 500, rng_batch)
    assert a.max_ratio == max_ratio and a.violations == violations
    assert rng_batch.bit_generator.state == rng_loop.bit_generator.state


@pytest.mark.parametrize("d1,d2,r", [(4, 3, 3), (2, 4, 2)])
def test_lipschitz_audit_chunks_like_the_loop(monkeypatch, d1, d2, r):
    # two full runs of 150 trials and a remainder
    blocks = build_block_isometry(NetParams(d1, d2, r, 0.005), np.random.default_rng(22))
    monkeypatch.setattr(linalg, "STACK_BYTES", 150 * _lipschitz_trial_bytes(blocks.params))
    rng_loop, rng_batch = _twin_rngs(23)
    max_ratio, violations = _loop_lipschitz(blocks, 2 * 150 + 37, rng_loop)
    a = lipschitz_audit(blocks, 2 * 150 + 37, rng_batch)
    assert a.max_ratio == max_ratio and a.violations == violations
    assert rng_batch.bit_generator.state == rng_loop.bit_generator.state


@pytest.mark.parametrize("batch", [2000, 40])  # pairs per run: one run, or runs of 40, 40 and 20
@pytest.mark.parametrize("d1,d2,r", [(4, 3, 3), (2, 4, 2)])
def test_separation_audit_equals_the_per_pair_loop(monkeypatch, d1, d2, r, batch):
    blocks = build_block_isometry(NetParams(d1, d2, r, 0.005), np.random.default_rng(24))
    monkeypatch.setattr(linalg, "STACK_BYTES", batch * _separation_pair_bytes(blocks.params))
    rng_loop, rng_batch = _twin_rngs(25)
    expected = _loop_separation(blocks, 100, rng_loop)
    audit = separation_audit(blocks, 100, rng_batch)._asdict()
    for key, value in expected.items():
        assert audit[key] == value, key
    assert rng_batch.bit_generator.state == rng_loop.bit_generator.state


@pytest.mark.parametrize("d1,d2,r", [(4, 3, 3), (2, 4, 2)])
def test_audits_equal_the_loops_at_a_one_byte_and_the_default_budget(monkeypatch, d1, d2, r):
    # a one-byte budget runs every trial and pair alone; the default, in runs
    blocks = build_block_isometry(NetParams(d1, d2, r, 0.005), np.random.default_rng(33))
    rng_loop = np.random.default_rng(34)
    lipschitz = _loop_lipschitz(blocks, 300, rng_loop)
    separation = _loop_separation(blocks, 100, rng_loop)
    for budget in (1, linalg.STACK_BYTES):
        monkeypatch.setattr(linalg, "STACK_BYTES", budget)
        rng = np.random.default_rng(34)
        a = lipschitz_audit(blocks, 300, rng)
        assert (a.max_ratio, a.violations) == lipschitz, budget
        audit = separation_audit(blocks, 100, rng)._asdict()
        assert {key: audit[key] for key in separation} == separation, budget
        assert rng.bit_generator.state == rng_loop.bit_generator.state, budget


@pytest.mark.parametrize("d1,d2,r", [(4, 3, 3), (6, 3, 4)])
def test_gram_moments_match_the_dense_operator(d1, d2, r):
    blocks = build_block_isometry(NetParams(d1, d2, r, 0.005), np.random.default_rng(26))
    rng = np.random.default_rng(27)
    ux, uy = haar_unitary_batch(blocks.params.u_dim, 500, rng), haar_unitary_batch(blocks.params.u_dim, 500, rng)
    m2, m4 = _gram_moments(blocks, ux, uy)
    m2_dense, m4_dense = _loop_moments(blocks, ux, uy)
    assert np.max(np.abs(m2 - m2_dense) / m2_dense) <= 1e-13
    assert np.max(np.abs(m4 - m4_dense) / m4_dense) <= 1e-13


def _dense_embedding(blocks):
    """The rotation-space embedding J and canonical branch Delta_canon as
    dense (r*d2) x u_dim and (r*d2) x d1 matrices, from the builders'
    per-entry formulas rather than from ``rotor_rows``."""
    p = blocks.params
    rows = p.r * p.d2
    if p.mode == "even":
        return np.eye(rows, dtype=complex), np.eye(rows, p.d1, dtype=complex)
    hb = p.half_dim
    j = np.zeros((rows, p.u_dim), dtype=complex)
    delta_canon = np.zeros((rows, p.d1), dtype=complex)
    for s in range(p.u_dim):
        row = (s // hb) * p.d2 + hb + 1 + s % hb
        j[row, s] = delta_canon[row, s] = 1.0
    return j, delta_canon


@pytest.mark.parametrize("d1,d2,r", [(4, 3, 3), (2, 4, 2)])
def test_rotor_rows_equal_the_dense_embedding(d1, d2, r):
    blocks = build_block_isometry(NetParams(d1, d2, r, 0.005), np.random.default_rng(30))
    rng = np.random.default_rng(31)
    d = blocks.params.u_dim
    ux, uy = haar_unitary_batch(d, 50, rng), haar_unitary_batch(d, 50, rng)
    j, delta_canon = _dense_embedding(blocks)
    canon = j.conj().T @ delta_canon
    diff = j @ ((ux - uy) @ canon)
    assert np.array_equal(rotated_branch(blocks, ux), j @ (ux @ canon) + blocks.delta_prime)
    assert np.array_equal(_branch_difference(blocks, ux, uy), diff)
    assert np.array_equal(f_operator(blocks, ux, uy), _cross_operator(blocks.v0_full, diff, r, d1) / d1)
    # the Gram route as it read the rows back out of J: in (ancilla, level)
    # order of the global rows each column selects
    anc, level = np.divmod(np.argmax(np.abs(j), axis=0), d2)
    w = np.take((ux - uy) @ canon, np.lexsort((level, anc)), axis=1)
    m = blocks.gram @ _block_gram(w, r) / d1**2
    want = np.einsum("nii->n", m).real, np.einsum("nij,nji->n", m, m).real
    for got, expected in zip(_gram_moments(blocks, ux, uy), want):
        assert np.array_equal(got, expected)


@pytest.mark.parametrize(
    "rows,match",
    [
        ([3, 4, 8], "must hold 4 rows"),
        ([3, 3, 8, 8], "distinct output levels"),
        ([4, 3, 9, 8], "increasing order"),
        ([4, 5, 9, 10], "distinct output levels"),  # row 5 is level 0 of ancilla 1
        ([3, 4, 7, 9], "same output levels"),
        ([0, 1, 5, 6], "not orthogonal"),  # the reference's lower half-space
    ],
)
def test_block_isometry_rejects_bad_rotor_rows(rows, match):
    # odd mode, two ancillas, half-spaces of two levels: rotor rows 3, 4, 8, 9
    blocks = build_block_isometry(NetParams(5, 5, 2, 0.005), np.random.default_rng(32))
    assert blocks.rotor_rows.tolist() == [3, 4, 8, 9]
    with pytest.raises(ValueError, match=match):
        replace(blocks, rotor_rows=np.array(rows))


@pytest.mark.parametrize("d1,d2,r", [(4, 3, 3), (6, 3, 4)])
def test_moment_audit_matches_the_dense_route(d1, d2, r):
    blocks = build_block_isometry(NetParams(d1, d2, r, 0.005), np.random.default_rng(28))
    rng_dense, rng_gram = _twin_rngs(29)
    m2, m4 = [], []
    for _ in range(5):  # the audit's stacks of 2000 Haar pairs
        ux = haar_unitary_batch(blocks.params.u_dim, 2000, rng_dense)
        uy = haar_unitary_batch(blocks.params.u_dim, 2000, rng_dense)
        for vals, new in zip((m2, m4), _loop_moments(blocks, ux, uy)):
            vals.append(new)
    m2, m4 = np.concatenate(m2), np.concatenate(m4)
    audit = moment_audit(blocks, 10_000, rng_gram)
    assert rng_gram.bit_generator.state == rng_dense.bit_generator.state
    for got, want in (
        (audit.m2_mean, np.mean(m2)),
        (audit.m4_mean, np.mean(m4)),
        (audit.m2_stderr, np.std(m2, ddof=1) / np.sqrt(10_000)),
        (audit.m4_stderr, np.std(m4, ddof=1) / np.sqrt(10_000)),
    ):
        assert abs(got - want) <= 1e-13 * want


@pytest.mark.parametrize("d1,d2,r", [(4, 3, 3), (6, 3, 4)])
def test_moment_audit_runs_give_the_whole_block_values(monkeypatch, d1, d2, r):
    # the reference: each block of MOMENT_BLOCK Haar pairs drawn, orthonormalized
    # and reduced whole, the last block partial
    blocks = build_block_isometry(NetParams(d1, d2, r, 0.005), np.random.default_rng(30))
    samples = 2 * net.MOMENT_BLOCK + 500
    rng_whole = np.random.default_rng(31)
    m2, m4 = np.empty(samples), np.empty(samples)
    for done in range(0, samples, net.MOMENT_BLOCK):
        nb = min(net.MOMENT_BLOCK, samples - done)
        ux = haar_unitary_batch(blocks.params.u_dim, nb, rng_whole)
        uy = haar_unitary_batch(blocks.params.u_dim, nb, rng_whole)
        m2[done : done + nb], m4[done : done + nb] = _gram_moments(blocks, ux, uy)
    pair = _moment_pair_bytes(blocks.params)
    # one pair per run, uneven runs of 700 pairs, and the default budget
    for budget in (1, 700 * pair, linalg.STACK_BYTES):
        monkeypatch.setattr(linalg, "STACK_BYTES", budget)
        rng = np.random.default_rng(31)
        audit = moment_audit(blocks, samples, rng)
        assert rng.bit_generator.state == rng_whole.bit_generator.state, budget
        assert audit.m2_mean == float(np.mean(m2)), budget
        assert audit.m4_mean == float(np.mean(m4)), budget
        assert audit.m2_stderr == float(np.std(m2, ddof=1) / np.sqrt(samples)), budget
        assert audit.m4_stderr == float(np.std(m4, ddof=1) / np.sqrt(samples)), budget
