"""Acceptance suite: the ten headline certification criteria.

Each test is one criterion, exercised at its stated grid, tolerance, and
runtime budget, so ``pytest -v tests/test_acceptance.py`` prints one
pass/fail line per criterion. Every test also prints its measured
residuals, visible with ``-s`` or on failure.
"""

import time
from math import comb as binom
from math import exp, log, sqrt

import numpy as np

from combcert.channels import Channel, choi_from_kraus, choi_operator, kraus_rank, random_channel
from combcert.combs import (
    certify_comb,
    link_product,
    random_tester,
    success_probability,
    validate_tester,
)
from combcert.hard import (
    HardInstanceSpec,
    commutant_projector,
    domination_check,
    gamma_recursion_residual,
    gamma_twirl_exact_commutant,
    gamma_twirl_monte_carlo,
    gamma_twirl_weingarten,
    kl_binary,
    lambda_schedule,
    log_binom,
    psd_domination_equiv,
    summand_chain,
    symmetric_span_dim,
    twirl_trace_bound,
    xlog_bound_values,
)
from combcert.hard.instance import comb_sequence, outer_modes, slot_spaces
from combcert.hard.modes import comb_certificate
from combcert.hard.twirl import COMMUTANT_DIM_CAP, PERMUTATION_ORDER_CAP, embedding
from combcert.linalg import LabeledOperator, haar_unitary, psd_sqrt, random_psd
from combcert.net import (
    NetParams,
    build_block_isometry,
    build_net_isometry,
    lipschitz_audit,
    moment_audit,
    separation_audit,
)
from combcert.report import canonical_body
from combcert.suites import run_combs_suite, run_hard_suite, run_net_suite

SEED = 20260819
GAMMA_CELLS = [(1, 2), (1, 3), (2, 4), (2, 5)]  # d1 in {1,2}, d2 in {2d1, 2d1+1}


def _rng(tag):
    return np.random.default_rng([SEED, sum(map(ord, tag))])


def _small_channel(d_in, d_out, rng):
    """A Haar-random channel of Kraus rank 1 or 2, raised to the least rank a
    d_in -> d_out channel needs."""
    return random_channel(d_in, d_out, max(int(rng.integers(1, 3)), -(-d_in // d_out)), rng)


def _finish(num, name, elapsed, budget, **measured):
    detail = " ".join(f"{k}={v:.3e}" if isinstance(v, float) else f"{k}={v}"
                      for k, v in measured.items())
    print(f"criterion {num:02d} {name}: PASS {detail} elapsed={elapsed:.1f}s")
    assert elapsed < budget, f"criterion {num} exceeded {budget}s budget: {elapsed:.1f}s"


def test_criterion_01_comb_calculus():
    t0 = time.perf_counter()
    rng = _rng("combs")

    comb_res = 0.0
    for _ in range(50):
        d_in = int(rng.integers(2, 5))
        d_out = int(rng.integers(2, 5))
        cert = certify_comb(
            choi_operator(_small_channel(d_in, d_out, rng)),
            ("A", "B"), psd_tol=1e-8, chain_tol=1e-8,
        )
        assert cert.ok
        comb_res = max(comb_res, cert.max_chain_residual, -cert.min_eig)
    assert comb_res <= 1e-8

    link_res = 0.0
    for _ in range(50):
        d_a, d_m, d_b = (int(rng.integers(2, 5)) for _ in range(3))
        ch1 = _small_channel(d_a, d_m, rng)
        ch2 = _small_channel(d_m, d_b, rng)
        composed = Channel(tuple(f @ e for e in ch1.kraus for f in ch2.kraus))
        direct = choi_operator(composed, out_label="B", in_label="A")
        linked = link_product(
            choi_operator(ch1, out_label="M", in_label="A"),
            choi_operator(ch2, out_label="B", in_label="M"),
        ).reorder(direct.labels)
        link_res = max(link_res, float(np.abs(linked.mat - direct.mat).max()))
    assert link_res <= 1e-9

    contraction_res = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 3))
        pair_dims = [(int(rng.integers(2, 4)), int(rng.integers(2, 4))) for _ in range(n)]
        tester = random_tester(pair_dims, int(rng.integers(2, 4)), rng)
        assert validate_tester(tester).ok
        chans = [_small_channel(a, b, rng) for a, b in pair_dims]
        probs = success_probability(tester, chans)
        contraction_res = max(contraction_res, abs(float(probs.sum()) - 1.0))
    assert contraction_res <= 1e-8

    _finish(1, "comb-calculus", time.perf_counter() - t0, 60.0,
            comb_residual=comb_res, link_residual=link_res,
            contraction_residual=contraction_res)


def test_criterion_02_gamma_states_and_twirls_are_combs():
    t0 = time.perf_counter()
    comb_res = 0.0
    recursion_res = 0.0
    for d1, d2 in GAMMA_CELLS:
        spec = HardInstanceSpec.concrete(d1, d2)
        for n in range(1, 4):
            spaces = slot_spaces(spec, n)
            seq = comb_sequence(n)
            for i in range(n + 1):
                cert = comb_certificate(spec, outer_modes(spec, n, i))
                assert cert.ok, f"state comb failed at d1={d1} d2={d2} n={n} i={i}"
                comb_res = max(comb_res, cert.max_chain_residual, -cert.min_eig)

                g = gamma_twirl_weingarten(spec, n, i)
                cert = certify_comb(LabeledOperator(g, spaces), seq,
                                    psd_tol=1e-7, chain_tol=1e-7)
                assert cert.ok, f"twirl comb failed at d1={d1} d2={d2} n={n} i={i}"
                comb_res = max(comb_res, cert.max_chain_residual, -cert.min_eig)
                if n >= 2:
                    recursion_res = max(recursion_res,
                                        gamma_recursion_residual(spec, n, i))
    assert comb_res <= 1e-7
    assert recursion_res <= 1e-9

    _finish(2, "twirl-family-combs", time.perf_counter() - t0, 120.0,
            comb_residual=comb_res, recursion_residual=recursion_res)


def test_criterion_03_twirl_route_cross_validation():
    t0 = time.perf_counter()
    route_res = 0.0
    compared = 0
    for d1, d2 in GAMMA_CELLS:
        spec = HardInstanceSpec.concrete(d1, d2)
        for n in range(1, 4):
            if (d1 * d2) ** n > COMMUTANT_DIM_CAP:
                continue
            for i in range(n + 1):
                if i > PERMUTATION_ORDER_CAP:
                    continue
                a = gamma_twirl_exact_commutant(spec, n, i, seed=SEED)
                b = gamma_twirl_weingarten(spec, n, i)
                route_res = max(route_res, float(np.linalg.norm(a - b)))
                compared += 1
    assert compared > 0
    assert route_res <= 1e-8

    n_samples = 100_000
    mc_gap_max = 0.0
    for d1, d2, n, i in [(1, 2, 1, 1), (1, 3, 2, 1)]:
        spec = HardInstanceSpec.concrete(d1, d2)
        exact = gamma_twirl_weingarten(spec, n, i)
        est, _ = gamma_twirl_monte_carlo(spec, n, i, samples=n_samples, seed=SEED)
        e = embedding(spec, n, i)
        diff = float(np.linalg.norm(e @ est @ e.conj().T - exact))
        bound = 5.0 * d1**n / sqrt(n_samples)
        assert diff <= bound, f"MC twirl off at ({d1},{d2},{n},{i}): {diff} > {bound}"
        mc_gap_max = max(mc_gap_max, diff / bound)

    _finish(3, "twirl-cross-validation", time.perf_counter() - t0, 180.0,
            compared=compared, route_residual=route_res, mc_gap_fraction=mc_gap_max)


def test_criterion_04_twirl_inverse_trace_bound():
    t0 = time.perf_counter()
    rng = _rng("trace-bound")
    tol = 1e-6

    max_excess = -np.inf
    pure_gap = 0.0
    for d in range(2, 7):
        for _ in range(30):
            x = random_psd(d, rng)
            twirled = np.trace(x).real / d * np.eye(d)
            max_excess = max(max_excess, twirl_trace_bound(x, twirled) - d * (1 + tol))
        for _ in range(5):
            phi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            phi /= np.linalg.norm(phi)
            val = twirl_trace_bound(np.outer(phi, phi.conj()), np.eye(d) / d)
            pure_gap = max(pure_gap, abs(val - d))
    assert max_excess <= 0
    assert pure_gap <= tol

    rotor_excess = -np.inf
    for d1, d2 in [(1, 2), (1, 3)]:
        spec = HardInstanceSpec.concrete(d1, d2)
        for n in (1, 2):
            dim = (d1 * d2) ** n
            proj = commutant_projector(spec, n, seed=SEED)
            for _ in range(30):
                x = random_psd(dim, rng)
                rotor_excess = max(
                    rotor_excess,
                    twirl_trace_bound(x, proj.twirl(x)) - dim * (1 + tol),
                )
    assert rotor_excess <= 0

    _finish(4, "twirl-trace-bound", time.perf_counter() - t0, 60.0,
            full_group_excess=max_excess, pure_gap=pure_gap,
            rotor_excess=rotor_excess)


def test_criterion_05_symmetric_span_dimension():
    t0 = time.perf_counter()
    rng = _rng("span")
    checked = 0
    for d in range(1, 5):
        for m in range(1, 6):
            assert symmetric_span_dim(d, m, rng) == binom(d + m - 1, m), (d, m)
            checked += 1
    _finish(5, "symmetric-span-dim", time.perf_counter() - t0, 60.0, checked=checked)


def test_criterion_06_weighted_twirl_domination():
    t0 = time.perf_counter()
    worst_q = -np.inf
    worst_eig_ratio = np.inf
    worst_lambda_margin = -np.inf
    cells = 0
    for d2 in (2, 3):
        d1 = 1
        spec = HardInstanceSpec.concrete(d1, d2)
        for eps in (0.01, 0.05):
            window = d1 * d2 / (2 * exp(4.0) * eps**2)
            for n in range(1, int(min(3, window)) + 1):
                res = domination_check(spec, n, eps, n_samples=20, seed=SEED + cells)
                assert res.ok, f"domination failed at d2={d2} eps={eps} n={n}"
                worst_q = max(worst_q, res.max_quadratic_form)
                worst_eig_ratio = min(worst_eig_ratio, res.min_eig_ratio)
                lam = res.lambda_total
                analytic = 3 * d1**2 * d2**2 * exp(sqrt(8 * n * eps**2 * d1 * d2))
                worst_lambda_margin = max(worst_lambda_margin, lam - analytic)
                cells += 1
    assert cells == 12
    assert worst_q <= 1 + 1e-9
    assert worst_eig_ratio >= -1e-8
    assert worst_lambda_margin <= 0

    _finish(6, "psd-domination", time.perf_counter() - t0, 300.0,
            cells=cells, max_quadratic_form=worst_q,
            min_eig_ratio=worst_eig_ratio, lambda_margin=worst_lambda_margin)


def test_criterion_07_scalar_fact_grids():
    t0 = time.perf_counter()
    slack = 1e-12

    entropy_violations = 0
    endpoint_gap = 0.0
    for n in (1, 3, 10, 40):
        for p in (0.01, 0.2, 0.5, 0.9):
            for k in range(n + 1):
                lhs = log_binom(n, k) + k * log(p) + (n - k) * log(1 - p)
                rhs = -n * kl_binary(k / n, p)
                if lhs > rhs + slack:
                    entropy_violations += 1
                if k in (0, n):
                    endpoint_gap = max(endpoint_gap, abs(lhs - rhs))
    assert entropy_violations == 0
    assert endpoint_gap <= slack

    rng = _rng("facts")
    for dim in (2, 3, 5):
        m = random_psd(dim, rng) + 0.1 * np.eye(dim)
        root = psd_sqrt(m)
        for target in (0.5, 0.999, 1.001, 2.0):
            raw = root @ (rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
            raw *= sqrt(target) / sqrt(
                float((raw.conj() @ (np.linalg.pinv(m) @ raw)).real)
            )
            wit = psd_domination_equiv(m, raw)
            assert wit.dominates == (target <= 1.0)
            assert abs(wit.quadratic_form - target) <= 1e-8
            assert wit.support_residual <= 1e-8

    xlog_gap = 0.0
    for budget in (0.5, 1.0, 7.3, 100.0):
        xs = np.linspace(budget * 1e-9, budget, 400)
        vals, envelope = xlog_bound_values(budget, xs)
        assert float(np.max(vals - envelope)) <= 0
        peak_val, peak_env = xlog_bound_values(budget, np.array([budget / exp(1)]))
        xlog_gap = max(xlog_gap, abs(float(peak_val[0]) - peak_env))
    assert xlog_gap <= slack

    chain_violations = 0
    assembled_gap = -np.inf
    for d1, d2 in ((1, 2), (1, 3), (2, 4), (2, 5), (3, 6)):
        for eps in (0.005, 0.01, 0.05, 0.2):
            n_max = int(d1 * d2 / (2 * exp(4.0) * eps**2))
            for n in sorted({x for x in (1, 2, 3, 17, n_max) if 1 <= x <= n_max}):
                sched = lambda_schedule(d1, d2, n, eps)
                assert sched.total <= sched.sum_bound
                total = 0.0
                for i in range(n + 1):
                    chain = summand_chain(d1, d2, n, eps, i)
                    if not chain.chain_ok():
                        chain_violations += 1
                    total += exp(chain.t_exact - sched.log_weights[i])
                assembled_gap = max(assembled_gap, total - 1.0)
    assert chain_violations == 0
    assert assembled_gap <= slack

    _finish(7, "scalar-facts", time.perf_counter() - t0, 10.0,
            endpoint_gap=endpoint_gap, xlog_gap=xlog_gap,
            assembled_gap=assembled_gap)


def test_criterion_08_difference_operator_moments_and_lipschitz():
    t0 = time.perf_counter()
    moment_lines = []
    for d1, d2, r in ((4, 3, 3), (6, 3, 4)):
        try:
            p = NetParams(d1, d2, r, 0.005)
        except ValueError as exc:
            moment_lines.append(f"({d1},{d2},{r}) skipped: {exc}")
            continue
        assert p.mode == "odd"
        rng = _rng(f"moments-{d1}-{d2}-{r}")
        blocks = build_block_isometry(p, rng)
        m = moment_audit(blocks, 10_000, rng)
        assert m.ok
        assert abs(m.m2_mean - (d2 - 1) / d1) <= 4 * m.m2_stderr
        assert m.m4_mean <= 288 / r**3
        moment_lines.append(
            f"({d1},{d2},{r}) m2={m.m2_mean:.4f}±{m.m2_stderr:.4f} m4={m.m4_mean:.3f}"
        )

    worst_ratio = 0.0
    for d1, d2, r in ((4, 3, 3), (2, 4, 2)):
        p = NetParams(d1, d2, r, 0.005)
        rng = _rng(f"lipschitz-{d1}-{d2}-{r}")
        blocks = build_block_isometry(p, rng)
        audit = lipschitz_audit(blocks, 500, rng)
        assert audit.violations == 0
        assert audit.lipschitz_constant == sqrt(2 / d1)
        worst_ratio = max(worst_ratio, audit.max_ratio / audit.lipschitz_constant)

    _finish(8, "moments-and-lipschitz", time.perf_counter() - t0, 180.0,
            cells="; ".join(moment_lines), lipschitz_peak_fraction=worst_ratio)


def test_criterion_09_channel_family_separation():
    t0 = time.perf_counter()
    eps = 0.005
    summary = []
    for d1, d2, r, mode in ((4, 3, 3, "odd"), (2, 4, 2, "even")):
        p = NetParams(d1, d2, r, eps)
        assert p.mode == mode
        rng = _rng(f"separation-{d1}-{d2}-{r}")
        blocks = build_block_isometry(p, rng)
        audit = separation_audit(blocks, 100, rng)
        assert audit.pairs == 100
        assert audit.min_choi_distance >= 0.07 * eps
        assert audit.min_overlap_norm >= 0.05
        assert audit.max_kraus_rank <= r
        assert audit.separated and audit.identities_hold
        # declared-space sanity: the builder emits exactly the announced shapes
        u = haar_unitary(p.u_dim, rng)
        v, ch = build_net_isometry(p, u, blocks)
        assert v.shape == (p.out_dim * p.r, p.d1)
        assert all(k.shape == (p.out_dim, p.d1) for k in ch.kraus)
        assert kraus_rank(choi_from_kraus(ch)) <= r
        summary.append(
            f"{mode} min_dist={audit.min_choi_distance:.4f} min_f={audit.min_overlap_norm:.3f}"
        )

    _finish(9, "separation-audit", time.perf_counter() - t0, 180.0,
            cells="; ".join(summary), floor=0.07 * eps)


def test_criterion_10_end_to_end_determinism():
    t0 = time.perf_counter()
    runners = (run_combs_suite, run_hard_suite, run_net_suite)
    first = [run(None, seed=SEED) for run in runners]
    second = [run(None, seed=SEED) for run in runners]
    assert [r.suite for r in first] == ["combs", "hard", "net"]
    for a, b in zip(first, second):
        assert a.overall != "fail", f"{a.suite} suite failed during determinism run"
        body_a = canonical_body(a.to_dict())
        body_b = canonical_body(b.to_dict())
        assert body_a == body_b, f"{a.suite} report bodies differ between identical runs"

    _finish(10, "determinism", time.perf_counter() - t0, 600.0,
            suites=3, records=sum(len(r.records) for r in first))
