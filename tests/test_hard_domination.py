"""Tests for the weight schedule and the weighted-twirl domination check."""

from math import comb, exp, sqrt

import numpy as np
import pytest

from combcert.hard import (
    HardInstanceSpec,
    commutant_projector,
    domination_check,
    lambda_schedule,
    symmetric_span_dim,
    twirl_trace_bound,
)
from combcert.hard import domination
from combcert.hard.instance import gamma_state, kron_power
from combcert.hard.twirl import (
    PERMUTATION_ORDER_CAP,
    embedding,
    gamma_twirl_exact_commutant,
    gamma_twirl_modes,
    gamma_twirl_weingarten,
)
from combcert.linalg import (
    RANK_TOL,
    haar_isometry,
    haar_unitary,
    herm_eigvals,
    pseudo_inverse,
    random_psd,
    vectorize,
)


def random_spec(d1, d2, rng):
    """A Haar-random orthogonal-image pair (V0, Delta)."""
    w = haar_isometry(2 * d1, d2, rng)
    return HardInstanceSpec(w[:, :d1], w[:, d1:])


def test_lambda_schedule_oracle_values():
    # d1*d2 = 8: head weight for i < 8, exact exp(-i) tail beyond
    sched = lambda_schedule(2, 4, 10, 0.01)
    head = 2 * 8 * exp(sqrt(8 * 10 * 0.01**2 * 8))
    assert sched.weights[0] == pytest.approx(head, rel=1e-14)
    assert sched.weights[7] == pytest.approx(head, rel=1e-14)
    assert sched.weights[8] == pytest.approx(exp(-8), rel=1e-14)
    assert sched.weights[10] == pytest.approx(exp(-10), rel=1e-14)
    assert len(sched.weights) == 11
    assert sched.total <= sched.sum_bound
    assert sched.sum_bound == pytest.approx(3 * 2**2 * 4**2 * exp(sqrt(8 * 10 * 1e-4 * 8)))


def test_lambda_schedule_log_weights_survive_deep_tails():
    sched = lambda_schedule(3, 6, 6_000, 0.005)
    assert sched.log_weights[5_999] == pytest.approx(-5_999.0)
    assert sched.weights[5_999] == 0.0  # underflow is expected and harmless
    assert sched.total <= sched.sum_bound


def test_lambda_schedule_rejects_out_of_window_parameters():
    with pytest.raises(ValueError):
        lambda_schedule(1, 1, 1, 0.01)  # d1*d2 < 2
    with pytest.raises(ValueError):
        lambda_schedule(1, 2, 1, 0.0)
    with pytest.raises(ValueError):
        lambda_schedule(1, 2, 1, 1.0)
    with pytest.raises(ValueError):
        lambda_schedule(1, 2, 0, 0.01)  # n below 1
    # window: n <= d/(2 e^4 eps^2) = 2/(2 e^4 * 0.09) approx 0.2 -> even n=1 fails
    with pytest.raises(ValueError):
        lambda_schedule(1, 2, 1, 0.3)


def test_twirl_trace_bound_full_group_conjugation():
    # averaging over the full unitary group sends X to tr(X) I / d, so the
    # bound value is exactly d for every nonzero PSD X
    rng = np.random.default_rng(0)
    for d in (2, 3, 4, 6):
        for _ in range(10):
            x = random_psd(d, rng)
            twirled = np.trace(x) / d * np.eye(d)
            val = twirl_trace_bound(x, twirled)
            assert abs(val - d) <= 1e-6 * d


def test_twirl_trace_bound_pure_state_equality():
    rng = np.random.default_rng(1)
    for d in (2, 4, 6):
        psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        psi /= np.linalg.norm(psi)
        x = np.outer(psi, psi.conj())
        twirled = np.eye(d) / d
        assert abs(twirl_trace_bound(x, twirled) - d) <= 1e-6


def test_twirl_trace_bound_rotor_twirl_counts_support():
    # under any projection-twirl the value equals the rank of the twirled
    # operator, hence is bounded by the total dimension
    rng = np.random.default_rng(2)
    for d1, d2, n in [(1, 2, 2), (1, 3, 1), (1, 3, 2)]:
        spec = random_spec(d1, d2, rng)
        proj = commutant_projector(spec, n, seed=13)
        dim = (d1 * d2) ** n
        for _ in range(5):
            x = random_psd(dim, rng)  # full rank
            tw = proj.twirl(x)
            val = twirl_trace_bound(x, tw)
            assert val <= dim * (1 + 1e-6)
            assert abs(val - dim) <= 1e-6 * dim  # equality at full rank
        # rank-deficient input stays at the twirled support dimension
        x_low = random_psd(dim, rng, rank=1)
        tw = proj.twirl(x_low)
        rank = int(np.linalg.matrix_rank(tw, tol=1e-10))
        assert abs(twirl_trace_bound(x_low, tw) - rank) <= 1e-6 * dim


def test_symmetric_span_dimension_closed_form():
    rng = np.random.default_rng(3)
    for d in (1, 2, 3, 4):
        for m in (1, 2, 3, 4, 5):
            assert symmetric_span_dim(d, m, rng) == comb(d + m - 1, m)


def test_symmetric_span_dim_draws_the_per_vector_stream(monkeypatch):
    # the Gram matrix equals the one built from per-vector real-then-imaginary
    # draws and kron_power calls, and the generator ends in the same state
    grams = []
    monkeypatch.setattr(domination, "herm_eigvals", lambda g: grams.append(g) or np.zeros(1))
    for d, m in [(1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (2, 1), (3, 2), (4, 5)]:
        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        symmetric_span_dim(d, m, rng)
        vecs = []
        for _ in range(comb(d + m - 1, m) + 5):
            phi = ref.standard_normal(d) + 1j * ref.standard_normal(d)
            vecs.append(kron_power(phi / np.linalg.norm(phi), m))
        vecs = np.array(vecs)
        assert np.abs(grams[-1] - vecs @ vecs.conj().T).max() <= 1e-14
        assert rng.bit_generator.state == ref.bit_generator.state


def test_domination_certificate_small_cells():
    rng_seed = 0
    for d1, d2 in [(1, 2), (1, 3)]:
        for eps in (0.01, 0.05):
            window = d1 * d2 / (2 * exp(4) * eps**2)
            n_top = min(3, int(window))
            for n in range(1, n_top + 1):
                res = domination_check(
                    HardInstanceSpec.concrete(d1, d2), n, eps,
                    n_samples=10, seed=rng_seed,
                )
                assert res.ok, (d1, d2, eps, n, res)
                assert res.max_quadratic_form <= 1.0 + 1e-9
                assert res.max_support_residual <= 1e-9
                assert res.min_eig_ratio >= -1e-8
                assert res.trace_bound_margin <= 1e-6
                # the quadratic form is a group invariant: samples must agree
                spread = max(res.quadratic_forms) - min(res.quadratic_forms)
                assert spread <= 1e-9


def _slot_twirl(spec, n, i, seed):
    """The slot-space Gamma_i by the route gamma_twirl_modes takes: the
    permutation frame within its cap, else the exact commutant."""
    if i <= PERMUTATION_ORDER_CAP:
        return gamma_twirl_weingarten(spec, n, i)
    return gamma_twirl_exact_commutant(spec, n, i, seed=seed)


def _per_sample_domination(spec, n, eps, n_samples, seed):
    """domination_check on the dense route, one Haar matrix at a time: dense
    Gamma_i, their pseudo-inverses, the support projector of the weighted sum
    and the least eigenvalue of each D^n-square difference operator, over the
    whole space and on the support. Returns the quadratic forms, the largest
    support residual, min_eig_ratio, the trace-bound margin, the verdict and
    support_margin."""
    sched = lambda_schedule(spec.d1, spec.d2, n, eps)
    rng = np.random.default_rng(seed)
    gammas = [_slot_twirl(spec, n, i, seed) for i in range(n + 1)]
    pinvs = [pseudo_inverse(g) for g in gammas]
    weights = sched.weights.tolist()
    weighted = sum(w * g for w, g in zip(weights, gammas))
    # the projector onto the eigenvectors above RANK_TOL of the largest eigenvalue
    vals, vecs = np.linalg.eigh(weighted)
    support = vecs[:, vals > RANK_TOL * vals[-1]]
    joint_support = support @ support.conj().T
    trace_margin = -np.inf
    for i, pinv in enumerate(pinvs):
        g = gamma_state(spec, n, i)
        val = float((g.conj() @ (pinv @ g)).real)
        trace_margin = max(trace_margin, val - comb(spec.d1 * spec.d2 + i - 2, i))
    q_values, max_residual, min_ratio, support_ratio = [], 0.0, np.inf, np.inf
    for _ in range(n_samples):
        u = haar_unitary(spec.rotor_dim, rng)
        v = kron_power(vectorize(spec.member(eps, u)), n)
        q = 0.0
        for pinv, w in zip(pinvs, weights):
            q += float((v.conj() @ (pinv @ v)).real) / w
        q_values.append(q)
        residual = float(np.linalg.norm(v - joint_support @ v)) / np.linalg.norm(v)
        max_residual = max(max_residual, residual)
        difference = weighted - np.outer(v, v.conj())
        min_eig = float(herm_eigvals(difference, check_tol=1e-8)[0])
        min_ratio = min(min_ratio, min_eig / sched.total)
        on_support = support.conj().T @ difference @ support
        support_ratio = min(support_ratio, float(herm_eigvals(on_support, check_tol=1e-8)[0]) / sched.total)
    closed = _closed_form(spec, n, eps)
    ok = (
        max(q_values) <= domination.Q_BOUND
        and abs(max(q_values) - closed) <= domination.Q_CLOSED_FORM_TOL * closed
        and max_residual <= domination.SUPPORT_TOL
        and min_ratio >= -domination.EIG_TOL
        and trace_margin <= domination.TRACE_MARGIN_TOL
    )
    return q_values, max_residual, min_ratio, trace_margin, ok, support_ratio


def _closed_form(spec, n, eps):
    """q(U) = sum_i C(n,i) (1-eps^2)^(n-i) eps^(2i) t_i / lambda_i, with
    t_i = gamma_i^dagger Gamma_i^+ gamma_i = C(k*d1 + i - 1, i), k = d2 - d1."""
    weights = lambda_schedule(spec.d1, spec.d2, n, eps).weights
    t = [comb(spec.rotor_dim * spec.d1 + i - 1, i) for i in range(n + 1)]
    return sum(
        comb(n, i) * (1 - eps**2) ** (n - i) * eps ** (2 * i) * t[i] / weights[i]
        for i in range(n + 1)
    )


def test_domination_batch_equals_the_per_sample_loop():
    # the factored route against the dense one: the default cells, (2,4) at
    # D^n = 512, and (1,2) at n = 5, where Gamma_5 comes from the commutant
    cases = [((1, 2), (1, 2, 3)), ((1, 3), (1, 2, 3)), ((2, 4), (1, 2, 3)), ((1, 2), (5,))]
    for (d1, d2), rounds in cases:
        spec = HardInstanceSpec.concrete(d1, d2)
        for n in rounds:
            # F = [E_n B_0 ... E_n B_n] is orthonormal: the Gamma_i sit on orthogonal sectors
            frame = np.hstack([embedding(spec, n, i) @ gamma_twirl_modes(spec, n, i, seed=11).vecs
                               for i in range(n + 1)])
            assert np.abs(frame.conj().T @ frame - np.eye(frame.shape[1])).max() <= 1e-12
            for eps in (0.01, 0.05):
                q_values, max_residual, min_ratio, trace_margin, ok, support_ratio = (
                    _per_sample_domination(spec, n, eps, 20, 11))
                res = domination_check(spec, n, eps, n_samples=20, seed=11)
                case = (d1, d2, eps, n)
                assert res.ok == ok, case
                for q, ref in zip(res.quadratic_forms, q_values, strict=True):
                    assert abs(q - ref) <= 1e-12 * ref, case
                assert abs(res.max_support_residual - max_residual) <= 1e-12, case
                assert abs(res.min_eig_ratio - min_ratio) <= 1e-12, case
                assert abs(res.support_margin - support_ratio) <= 1e-12, case
                assert abs(res.trace_bound_margin - trace_margin) <= 1e-12, case


def test_domination_check_draws_the_per_sample_stream(monkeypatch):
    # the Ginibre stack is the per-sample real-then-imaginary draws, in order
    stacks = []
    real = domination.haar_from_ginibre
    monkeypatch.setattr(domination, "haar_from_ginibre", lambda g: stacks.append(g) or real(g))
    spec = HardInstanceSpec.concrete(1, 3)
    domination_check(spec, 2, 0.05, n_samples=7, seed=4)
    ref = np.random.default_rng(4)
    k = spec.rotor_dim
    draws = [ref.standard_normal((k, k)) + 1j * ref.standard_normal((k, k)) for _ in range(7)]
    assert len(stacks) == 1
    np.testing.assert_array_equal(stacks[0], np.array(draws))


def test_domination_rejects_inadmissible_round_count():
    spec = HardInstanceSpec.concrete(1, 2)
    with pytest.raises(ValueError):
        domination_check(spec, 12, 0.05)  # window is ~7.3 rounds


def test_domination_quadratic_form_strictly_inside_budget():
    # the scalar certificate must sit strictly inside the unit budget, with a
    # real gap, for parameters well inside the admissible window
    spec = HardInstanceSpec.concrete(1, 2)
    for eps in (0.01, 0.05):
        q = domination_check(spec, 2, eps, n_samples=3, seed=1).max_quadratic_form
        assert 0.0 < q < 0.9


@pytest.mark.parametrize("d1, d2, max_n", [(1, 2, 3), (1, 3, 3), (2, 4, 4), (2, 5, 4)])
def test_every_sampled_quadratic_form_equals_its_closed_form(d1, d2, max_n):
    spec = HardInstanceSpec.concrete(d1, d2)
    for eps in (0.01, 0.05):
        for n in range(1, max_n + 1):
            closed = _closed_form(spec, n, eps)
            res = domination_check(spec, n, eps, seed=n)
            assert len(res.quadratic_forms) == 20
            for q in res.quadratic_forms:
                assert abs(q - closed) <= 1e-12 * closed, (eps, n, q, closed)
