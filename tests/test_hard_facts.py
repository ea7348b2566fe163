"""Tests for the scalar facts: entropies, envelopes, PSD domination, and the
four-step summand bound chain."""

from math import comb, exp, floor, log, sqrt

import numpy as np
import pytest

from combcert.hard import (
    binary_entropy,
    kl_binary,
    lambda_schedule,
    log_binom,
    psd_domination_equiv,
    summand_chain,
    summand_chains,
    xlog_bound_values,
)
from combcert.hard.domination import WEIGHT_BUDGET_CONSTANT
from combcert.linalg import pseudo_inverse, random_psd
from combcert.suites import DEFAULT_CONFIG


def test_binary_entropy_oracle_points():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(log(2), rel=1e-15)
    # symmetry
    for p in (0.1, 0.25, 0.4):
        assert binary_entropy(p) == pytest.approx(binary_entropy(1 - p), rel=1e-14)
    with pytest.raises(ValueError):
        binary_entropy(1.5)


def test_kl_binary_oracle_points():
    assert kl_binary(0.3, 0.3) == 0.0
    assert kl_binary(0.0, 0.25) == pytest.approx(-log(0.75), rel=1e-14)
    assert kl_binary(1.0, 0.25) == pytest.approx(-log(0.25), rel=1e-14)
    assert kl_binary(0.7, 0.2) > 0.0
    with pytest.raises(ValueError):
        kl_binary(0.5, 0.0)


def test_log_binom_matches_exact_combinatorics():
    for n in (0, 1, 5, 20, 60):
        for k in range(0, n + 1, max(1, n // 5)):
            assert log_binom(n, k) == pytest.approx(log(comb(n, k)), rel=1e-12, abs=1e-12)
    with pytest.raises(ValueError):
        log_binom(3, 4)


def test_binomial_tail_entropy_bound_with_endpoint_equality():
    # C(n,k) p^k (1-p)^(n-k) <= exp(-n D(k/n || p)), equality at k = 0 and k = n
    for n in (1, 3, 10, 40):
        for p in (0.01, 0.2, 0.5, 0.9):
            for k in range(n + 1):
                lhs = log_binom(n, k) + k * log(p) + (n - k) * log(1 - p)
                rhs = -n * kl_binary(k / n, p)
                assert lhs <= rhs + 1e-12
                if k in (0, n):
                    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_xlog_envelope():
    for budget in (0.5, 1.0, 7.3, 100.0):
        xs = np.linspace(0.0, budget, 257)
        vals, env = xlog_bound_values(budget, xs)
        assert env == pytest.approx(budget / exp(1), rel=1e-15)
        assert np.all(vals <= env + 1e-12)
        peak, _ = xlog_bound_values(budget, [budget / exp(1)])
        assert peak[0] == pytest.approx(env, abs=1e-12)
    with pytest.raises(ValueError):
        xlog_bound_values(1.0, [2.0])


def test_psd_domination_equivalence_both_directions():
    # scale a vector inside the support so the quadratic form hits chosen
    # values on both sides of 1, and confront with the direct PSD check
    rng = np.random.default_rng(0)
    for dim in (3, 5, 8):
        m = random_psd(dim, rng, rank=dim - 1)
        raw = m @ (rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        q0 = float((raw.conj() @ pseudo_inverse(m) @ raw).real)
        for target in (0.5, 0.999, 1.001, 2.0):
            psi = raw * np.sqrt(target / q0)
            wit = psd_domination_equiv(m, psi)
            assert wit.quadratic_form == pytest.approx(target, rel=1e-9)
            assert wit.support_residual <= 1e-9
            assert wit.dominates == (target <= 1.0)


def test_psd_domination_fails_off_support():
    rng = np.random.default_rng(1)
    dim = 5
    m = random_psd(dim, rng, rank=3)
    vals, vecs = np.linalg.eigh(m)
    psi = 1e-3 * vecs[:, 0]  # kernel direction, tiny amplitude
    wit = psd_domination_equiv(m, psi)
    assert wit.support_residual > 0.9
    assert not wit.dominates
    # a support and a kernel part: the residual is the kernel part's share of the norm
    mixed = 3.0 * vecs[:, -1] + 4.0 * vecs[:, 1]
    assert psd_domination_equiv(m, mixed).support_residual == pytest.approx(0.8, abs=1e-12)


def test_summand_chain_holds_across_admissible_grid():
    for d1, d2 in [(1, 2), (1, 3), (2, 4), (2, 5), (3, 6)]:
        d = d1 * d2
        for eps in (0.005, 0.01, 0.05, 0.1):
            n_max = floor(d / (WEIGHT_BUDGET_CONSTANT * eps**2))
            ns = sorted({x for x in (1, 2, 3, 17, n_max) if 1 <= x <= n_max})
            for n in ns:
                sched = lambda_schedule(d1, d2, n, eps)
                total = 0.0
                for i in range(n + 1):
                    c = summand_chain(d1, d2, n, eps, i)
                    assert c.chain_ok(), (d1, d2, eps, n, i)
                    total += exp(c.t_exact - sched.log_weights[i])
                assert total <= 1.0, (d1, d2, eps, n, total)


def test_summand_chain_zero_branch_identities():
    c = summand_chain(2, 4, 10, 0.01, 0)
    assert c.t_exact == pytest.approx(10 * log(1 - 0.01**2), abs=1e-15)
    assert c.t_entropy == pytest.approx(c.t_exact, abs=1e-12)
    assert c.t_simplified == 0.0
    assert c.t_budget >= 0.0


def test_summand_chain_rejects_out_of_window():
    with pytest.raises(ValueError):
        summand_chain(1, 2, 50, 0.1, 3)
    with pytest.raises(ValueError):
        summand_chain(1, 2, 2, 0.05, 3)  # i > n


def _summand_terms_reference(d, n, eps, i):
    """The per-summand formulas as summand_chain evaluated them before the
    constants of (d1, d2, n, eps) were hoisted out of the loop over i."""
    t_exact = (
        log_binom(n, i)
        + (n - i) * log(1.0 - eps**2)
        + 2.0 * i * log(eps)
        + log_binom(d + i - 2, i)
    )
    t_entropy = -n * kl_binary(i / n, eps**2) + (d + i) * binary_entropy(i / (d + i))
    if i == 0:
        t_simplified = 0.0
    else:
        t_simplified = -i * log(i / (n * eps**2)) + i * log(1.0 + d / i) + 2.0 * i
    t_budget = sqrt(8.0 * n * eps**2 * d) if i < d else -2.0 * i
    return t_exact, t_entropy, t_simplified, t_budget


def test_summand_chains_are_bit_identical_to_the_per_summand_formulas():
    facts = DEFAULT_CONFIG["hard"]["facts"]
    for d1, d2 in facts["dim_pairs"]:
        for eps in facts["eps"]:
            n_max = floor(d1 * d2 / (WEIGHT_BUDGET_CONSTANT * eps**2))
            for n in sorted({x for x in (1, 2, 3, 17, n_max) if 1 <= x <= n_max}):
                chains = summand_chains(d1, d2, n, eps)
                assert chains.i.tolist() == list(range(n + 1))
                columns = (chains.t_exact, chains.t_entropy, chains.t_simplified, chains.t_budget)
                for i in range(n + 1):
                    terms = tuple(float(col[i]) for col in columns)
                    one = summand_chain(d1, d2, n, eps, i)
                    assert terms == tuple(float(t) for t in (
                        one.t_exact, one.t_entropy, one.t_simplified, one.t_budget))
                    ref = _summand_terms_reference(d1 * d2, n, eps, i)
                    assert terms == ref, (d1, d2, eps, n, i)
    with pytest.raises(ValueError):
        summand_chains(1, 2, 50, 0.1)
