"""Verification suites: parameter-grid runners producing check records.

Each suite function sweeps its configured grid, times every check, and
returns a VerificationReport whose records carry stable claim anchors,
measured values, thresholds, and the derived per-cell seed. Grids whose
preconditions fail are recorded as skips with the reason, never silently
dropped. ``ConfigError`` marks configurations that are invalid outright
(the CLI turns it into exit code 2).
"""

from __future__ import annotations

import hashlib
import time
from concurrent.futures import ThreadPoolExecutor
from math import comb as binom
from math import exp, log, sqrt

import numpy as np

from .channels import Channel, choi_from_kraus, choi_operator, kraus_rank, random_channel
from .combs import (
    certify_comb,
    link_product,
    random_tester,
    success_probability,
    validate_tester,
)
from .hard import (
    GammaFamily,
    HardInstanceSpec,
    admissible_window,
    commutant_projector,
    domination_check,
    gamma_recursion_residual,
    gamma_twirl,
    gamma_twirl_exact_commutant,
    gamma_twirl_monte_carlo,
    gamma_twirl_weingarten,
    hard_vector_expansion,
    kl_binary,
    lambda_schedule,
    log_binom,
    psd_domination_equiv,
    summand_chain,
    symmetric_span_dim,
    twirl_trace_bound,
    xlog_bound_values,
)
from .hard.instance import comb_sequence, gamma_state, slot_spaces
from .hard.twirl import COMMUTANT_DIM_CAP, PERMUTATION_ORDER_CAP
from .linalg import LabeledOperator, haar_unitary, psd_sqrt, random_psd
from .net import (
    NetParams,
    build_block_isometry,
    build_net_isometry,
    f_operator,
    lipschitz_audit,
    moment_audit,
    separation_audit,
)
from .report import CheckRecord, VerificationReport, make_report
from .serialize import content_hash, matrix_to_wire

__all__ = [
    "ConfigError",
    "DEFAULT_CONFIG",
    "effective_config",
    "run_all_suites",
    "run_combs_suite",
    "run_hard_suite",
    "run_net_suite",
]


class ConfigError(ValueError):
    """Invalid run configuration (CLI exit code 2)."""


DEFAULT_CONFIG: dict = {
    "combs": {
        "channels": 50,
        "max_dim": 4,
        "pairs": 50,
        "comb_tol": 1e-8,
        "link_tol": 1e-9,
        "contraction_tol": 1e-8,
    },
    "hard": {
        "gamma_cells": [[1, 2], [1, 3], [2, 4], [2, 5]],
        "max_n": 3,
        "comb_tol": 1e-7,
        "recursion_tol": 1e-9,
        "expansion_tol": 1e-10,
        "family_eps": 0.3,
        "cross_tol": 1e-8,
        "mc_cells": [[1, 3, 2, 1]],
        "mc_samples": 100_000,
        "mc_sigma_factor": 5.0,
        "trace_dims": [2, 3, 4, 5, 6],
        "trace_samples": 30,
        "trace_tol": 1e-6,
        "rotor_trace_cells": [[1, 2], [1, 3]],
        "rotor_trace_max_n": 2,
        "span_max_d": 4,
        "span_max_m": 5,
        "domination": {
            "cells": [[1, 2], [1, 3]],
            "eps": [0.01, 0.05],
            "max_n": 3,
            "u_samples": 20,
            "lambda_scale": 1.0,
            "eig_tol": 1e-8,
        },
        "facts": {
            "dim_pairs": [[1, 2], [1, 3], [2, 4], [2, 5], [3, 6]],
            "eps": [0.005, 0.01, 0.05, 0.2],
            "chain_slack": 1e-12,
        },
    },
    "net": {
        "eps": 0.005,
        "cells": [[4, 3, 3], [2, 4, 2]],
        "member_checks": 5,
        "moment_cells": [[4, 3, 3], [6, 3, 4]],
        "moment_samples": 10_000,
        "lipschitz_cells": [[4, 3, 3], [2, 4, 2]],
        "lipschitz_trials": 500,
        "separation_cells": [[4, 3, 3], [2, 4, 2]],
        "separation_pairs": 100,
    },
}


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], val)
        else:
            out[key] = val
    return out


def effective_config(user: dict | None) -> dict:
    if user is None:
        return _merge(DEFAULT_CONFIG, {})
    if not isinstance(user, dict):
        raise ConfigError(f"config must be a JSON object, got {type(user).__name__}")
    unknown = set(user) - set(DEFAULT_CONFIG)
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    return _merge(DEFAULT_CONFIG, user)


def _cell_seed(master: int, *parts) -> int:
    """Stable per-cell seed derived from the master seed and cell indices.

    String parts are reduced with sha256 (never the builtin hash, which is
    process-randomized and would break cross-run determinism)."""
    entropy = [int(master)]
    for p in parts:
        if isinstance(p, str):
            entropy.append(int.from_bytes(hashlib.sha256(p.encode()).digest()[:4], "big"))
        else:
            entropy.append(int(p))
    return int(np.random.SeedSequence(entropy).generate_state(1, dtype=np.uint64)[0])


def _record(check_id, anchor, seed, fn) -> CheckRecord:
    """Run ``fn`` -> dict of record fields, timing it and trapping failures."""
    t0 = time.perf_counter()
    try:
        out = fn()
    except Exception as exc:  # a crashed check is a failed check, not a crashed suite
        out = {"status": "fail", "reason": f"{type(exc).__name__}: {exc}"}
    wall = time.perf_counter() - t0
    return CheckRecord(
        check_id=check_id,
        anchor=anchor,
        status=out["status"],
        values=out.get("values", {}),
        threshold=out.get("threshold"),
        residual=out.get("residual"),
        seed=seed,
        wall_time_s=wall,
        reason=out.get("reason"),
    )


def _run_cells(cells, jobs: int) -> list[CheckRecord]:
    """Execute cell thunks, each returning a record or list of records."""
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as ex:
            produced = list(ex.map(lambda thunk: thunk(), cells))
    else:
        produced = [thunk() for thunk in cells]
    records: list[CheckRecord] = []
    for item in produced:
        records.extend(item if isinstance(item, list) else [item])
    return records


def _status(ok: bool, warn: bool = False) -> str:
    return "pass" if ok and not warn else ("warn" if ok else "fail")


def _stash_matrix(store: dict, mat: np.ndarray, embed: bool) -> str:
    wire = matrix_to_wire(mat)
    digest = content_hash(wire)
    if embed:
        store[digest] = wire
    return digest


# ---------------------------------------------------------------------------
# combs suite


def run_combs_suite(
    config: dict | None = None,
    seed: int = 0,
    jobs: int = 1,
    embed_matrices: bool = False,
) -> VerificationReport:
    cfg = effective_config(config)["combs"]
    started = time.perf_counter()
    matrices: dict = {}

    def choi_comb_cell():
        s = _cell_seed(seed, "choi-comb")
        def fn():
            rng = np.random.default_rng(s)
            tol = float(cfg["comb_tol"])
            worst = 0.0
            ok = True
            first_hash = None
            for _ in range(int(cfg["channels"])):
                d_in = int(rng.integers(2, cfg["max_dim"] + 1))
                d_out = int(rng.integers(2, cfg["max_dim"] + 1))
                rank = int(rng.integers(1, 3))
                ch = random_channel(d_in, d_out, max(rank, -(-d_in // d_out)), rng)
                choi = choi_operator(ch)
                cert = certify_comb(choi, ("A", "B"), psd_tol=tol, chain_tol=tol)
                worst = max(worst, cert.max_chain_residual, -cert.min_eig)
                ok = ok and cert.ok
                if first_hash is None:
                    first_hash = _stash_matrix(matrices, choi.mat, embed_matrices)
            return {
                "status": _status(ok),
                "values": {"channels": int(cfg["channels"]), "sample_choi": first_hash},
                "threshold": tol,
                "residual": worst,
            }
        return _record("choi-one-comb", "channel-representations", s, fn)

    def link_cell():
        s = _cell_seed(seed, "link-vs-kraus")
        def fn():
            rng = np.random.default_rng(s)
            tol = float(cfg["link_tol"])
            worst = 0.0
            for _ in range(int(cfg["pairs"])):
                d_a = int(rng.integers(2, cfg["max_dim"] + 1))
                d_m = int(rng.integers(2, cfg["max_dim"] + 1))
                d_b = int(rng.integers(2, cfg["max_dim"] + 1))
                ch1 = random_channel(d_a, d_m, max(int(rng.integers(1, 3)), -(-d_a // d_m)), rng)
                ch2 = random_channel(d_m, d_b, max(int(rng.integers(1, 3)), -(-d_m // d_b)), rng)
                composed = Channel(tuple(f @ e for e in ch1.kraus for f in ch2.kraus))
                direct = choi_operator(composed, out_label="B", in_label="A")
                linked = link_product(
                    choi_operator(ch1, out_label="M", in_label="A"),
                    choi_operator(ch2, out_label="B", in_label="M"),
                ).reorder(direct.labels)
                worst = max(worst, float(np.abs(linked.mat - direct.mat).max()))
            return {
                "status": _status(worst <= tol),
                "values": {"pairs": int(cfg["pairs"])},
                "threshold": tol,
                "residual": worst,
            }
        return _record("link-vs-kraus", "link-product", s, fn)

    def tester_cells():
        s = _cell_seed(seed, "tester")
        def build(rng):
            n = int(rng.integers(1, 3))
            pair_dims = [
                (int(rng.integers(2, 4)), int(rng.integers(2, 4))) for _ in range(n)
            ]
            tester = random_tester(pair_dims, int(rng.integers(2, 4)), rng)
            chans = [
                random_channel(a, b, max(int(rng.integers(1, 3)), -(-a // b)), rng)
                for a, b in pair_dims
            ]
            return tester, chans

        def validity():
            rng = np.random.default_rng(s)
            ok = True
            worst = 0.0
            for _ in range(int(cfg["pairs"])):
                tester, _ = build(rng)
                cert = validate_tester(tester)
                ok = ok and cert.ok
                worst = max(worst, cert.sum_certificate.max_chain_residual)
            return {
                "status": _status(ok),
                "values": {"testers": int(cfg["pairs"])},
                "threshold": float(cfg["comb_tol"]),
                "residual": worst,
            }

        def contraction():
            rng = np.random.default_rng(s)
            tol = float(cfg["contraction_tol"])
            worst = 0.0
            for _ in range(int(cfg["pairs"])):
                tester, chans = build(rng)
                probs = success_probability(tester, chans)
                worst = max(worst, abs(float(probs.sum()) - 1.0))
            return {
                "status": _status(worst <= tol),
                "values": {"pairs": int(cfg["pairs"])},
                "threshold": tol,
                "residual": worst,
            }

        return [
            _record("tester-validity", "tester-validity", s, validity),
            _record("tester-contraction", "tester-contraction", s, contraction),
        ]

    records = _run_cells([choi_comb_cell, link_cell, tester_cells], jobs)
    return make_report(
        suite="combs",
        config=cfg,
        records=records,
        seed=seed,
        started=started,
        tolerances={k: cfg[k] for k in ("comb_tol", "link_tol", "contraction_tol")},
        matrices=matrices,
    )


# ---------------------------------------------------------------------------
# hard suite


def run_hard_suite(
    config: dict | None = None,
    seed: int = 0,
    jobs: int = 1,
    method: str = "auto",
    samples: int | None = None,
    embed_matrices: bool = False,
) -> VerificationReport:
    cfg = effective_config(config)["hard"]
    if samples is not None:
        cfg = _merge(cfg, {"mc_samples": int(samples)})
    started = time.perf_counter()
    matrices: dict = {}
    cells = []

    gamma_cells = [tuple(map(int, c)) for c in cfg["gamma_cells"]]
    max_n = int(cfg["max_n"])

    def make_family_cell(d1, d2):
        s = _cell_seed(seed, "family", d1, d2)
        def fn():
            rng = np.random.default_rng(s)
            spec = HardInstanceSpec.concrete(d1, d2)
            gram_res = 0.0
            for n in range(1, max_n + 1):
                fam = GammaFamily(spec, n)
                gram_res = max(
                    gram_res,
                    float(np.abs(fam.gram() - d1**n * np.eye(n + 1)).max()),
                )
            exp_res = 0.0
            for _ in range(3):
                u = haar_unitary(spec.rotor_dim, rng)
                chk = hard_vector_expansion(spec, max_n, float(cfg["family_eps"]), u)
                exp_res = max(exp_res, chk.residual)
            tol = float(cfg["expansion_tol"])
            worst = max(gram_res, exp_res)
            return {
                "status": _status(worst <= tol),
                "values": {"d1": d1, "d2": d2, "gram_residual": gram_res,
                           "expansion_residual": exp_res},
                "threshold": tol,
                "residual": worst,
            }
        return lambda: [_record(f"hard-family-{d1}-{d2}", "hard-isometry-family", s, fn)]

    def make_gamma_cell(d1, d2):
        s = _cell_seed(seed, "gamma", d1, d2)
        spec = HardInstanceSpec.concrete(d1, d2)

        def comb_fn():
            tol = float(cfg["comb_tol"])
            worst = 0.0
            ok = True
            for n in range(1, max_n + 1):
                fam = GammaFamily(spec, n)
                for i in range(n + 1):
                    cert = certify_comb(
                        fam.outer(i), fam.comb_sequence, psd_tol=tol, chain_tol=tol
                    )
                    ok = ok and cert.ok
                    worst = max(worst, cert.max_chain_residual, -cert.min_eig)
            return {
                "status": _status(ok),
                "values": {"d1": d1, "d2": d2, "max_n": max_n},
                "threshold": tol,
                "residual": worst,
            }

        def twirl_comb_fn():
            if method == "monte-carlo":
                return {
                    "status": "skip",
                    "reason": "Monte Carlo twirl is statistical; comb certification "
                    "needs an exact route (weingarten or exact-commutant)",
                }
            tol = float(cfg["comb_tol"])
            worst = 0.0
            ok = True
            gamma_hash = None
            for n in range(1, max_n + 1):
                spaces = slot_spaces(spec, n)
                seq = comb_sequence(n)
                for i in range(n + 1):
                    g = gamma_twirl(spec, n, i, method=method, seed=s)
                    cert = certify_comb(
                        LabeledOperator(g, spaces), seq, psd_tol=tol, chain_tol=tol
                    )
                    ok = ok and cert.ok
                    worst = max(worst, cert.max_chain_residual, -cert.min_eig)
                    if gamma_hash is None and i == 1:
                        gamma_hash = _stash_matrix(matrices, g, embed_matrices)
            return {
                "status": _status(ok),
                "values": {"d1": d1, "d2": d2, "max_n": max_n, "sample_twirl": gamma_hash},
                "threshold": tol,
                "residual": worst,
            }

        def recursion_fn():
            tol = float(cfg["recursion_tol"])
            worst = 0.0
            # the two-term trace recursion relates slot counts n and n-1
            for n in range(2, max_n + 1):
                for i in range(n + 1):
                    worst = max(worst, gamma_recursion_residual(spec, n, i))
            return {
                "status": _status(worst <= tol),
                "values": {"d1": d1, "d2": d2, "max_n": max_n},
                "threshold": tol,
                "residual": worst,
            }

        return lambda: [
            _record(f"gamma-comb-{d1}-{d2}", "gamma-comb", s, comb_fn),
            _record(f"gamma-twirl-comb-{d1}-{d2}", "gamma-comb", s, twirl_comb_fn),
            _record(f"gamma-recursion-{d1}-{d2}", "gamma-comb-recursion", s, recursion_fn),
        ]

    def make_cross_cell(d1, d2):
        s = _cell_seed(seed, "cross", d1, d2)
        spec = HardInstanceSpec.concrete(d1, d2)

        def fn():
            tol = float(cfg["cross_tol"])
            worst = 0.0
            compared = 0
            for n in range(1, max_n + 1):
                dim = (d1 * d2) ** n
                if dim > COMMUTANT_DIM_CAP:
                    continue
                proj = commutant_projector(spec, n, seed=s)
                for i in range(n + 1):
                    if i > PERMUTATION_ORDER_CAP:
                        continue
                    a = gamma_twirl_exact_commutant(spec, n, i, projector=proj)
                    b = gamma_twirl_weingarten(spec, n, i)
                    worst = max(worst, float(np.linalg.norm(a - b)))
                    compared += 1
            if compared == 0:
                return {"status": "skip",
                        "reason": "no cell fits both exact twirl routes within caps"}
            return {
                "status": _status(worst <= tol),
                "values": {"d1": d1, "d2": d2, "compared": compared},
                "threshold": tol,
                "residual": worst,
            }
        return lambda: [_record(f"twirl-routes-{d1}-{d2}", "twirl-methods-agree", s, fn)]

    def make_mc_cell(d1, d2, n, i):
        s = _cell_seed(seed, "mc", d1, d2, n, i)
        def fn():
            spec = HardInstanceSpec.concrete(d1, d2)
            n_samp = int(cfg["mc_samples"])
            exact = gamma_twirl(spec, n, i, method="auto", seed=s)
            est, stderr = gamma_twirl_monte_carlo(spec, n, i, samples=n_samp, seed=s)
            diff = float(np.linalg.norm(est - exact))
            factor = float(cfg["mc_sigma_factor"])
            bound = factor * stderr
            warn = diff > (factor - 1.0) * stderr
            return {
                "status": _status(diff <= bound, warn=warn),
                "values": {"d1": d1, "d2": d2, "n": n, "i": i,
                           "samples": n_samp, "stderr": stderr},
                "threshold": bound,
                "residual": diff,
            }
        return lambda: [_record(f"twirl-mc-{d1}-{d2}-{n}-{i}", "twirl-methods-agree", s, fn)]

    def trace_bound_cell():
        s = _cell_seed(seed, "trace-bound")
        def full_group_fn():
            rng = np.random.default_rng(s)
            tol = float(cfg["trace_tol"])
            max_excess = -np.inf
            max_pure_gap = 0.0
            for d in [int(x) for x in cfg["trace_dims"]]:
                for _ in range(int(cfg["trace_samples"])):
                    x = random_psd(d, rng)
                    twirled = np.trace(x).real / d * np.eye(d)
                    val = twirl_trace_bound(x, twirled)
                    max_excess = max(max_excess, val - d * (1 + tol))
                phi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
                phi /= np.linalg.norm(phi)
                pure = np.outer(phi, phi.conj())
                val = twirl_trace_bound(pure, np.eye(d) / d)
                max_pure_gap = max(max_pure_gap, abs(val - d))
            ok = max_excess <= 0 and max_pure_gap <= tol
            return {
                "status": _status(ok),
                "values": {"dims": list(cfg["trace_dims"]),
                           "samples": int(cfg["trace_samples"]),
                           "max_excess": max_excess, "max_pure_gap": max_pure_gap},
                "threshold": tol,
                "residual": max(max_excess, max_pure_gap - tol),
            }

        def rotor_fn():
            rng = np.random.default_rng(s)
            tol = float(cfg["trace_tol"])
            worst = -np.inf
            for d1, d2 in [tuple(map(int, c)) for c in cfg["rotor_trace_cells"]]:
                spec = HardInstanceSpec.concrete(d1, d2)
                for n in range(1, int(cfg["rotor_trace_max_n"]) + 1):
                    dim = (d1 * d2) ** n
                    proj = commutant_projector(spec, n, seed=s)
                    for _ in range(5):
                        x = random_psd(dim, rng)
                        val = twirl_trace_bound(x, proj.twirl(x))
                        worst = max(worst, val - dim * (1 + tol))
            return {
                "status": _status(worst <= 0),
                "values": {"cells": list(cfg["rotor_trace_cells"])},
                "threshold": tol,
                "residual": worst,
            }

        return [
            _record("twirl-trace-bound-unitary", "twirl-trace-bound", s, full_group_fn),
            _record("twirl-trace-bound-rotor", "twirl-trace-bound", s, rotor_fn),
        ]

    def span_cell():
        s = _cell_seed(seed, "span")
        def fn():
            rng = np.random.default_rng(s)
            mismatches = 0
            checked = 0
            for d in range(1, int(cfg["span_max_d"]) + 1):
                for m in range(1, int(cfg["span_max_m"]) + 1):
                    got = symmetric_span_dim(d, m, rng)
                    if got != binom(d + m - 1, m):
                        mismatches += 1
                    checked += 1
            return {
                "status": _status(mismatches == 0),
                "values": {"checked": checked, "mismatches": mismatches},
                "threshold": 0.0,
                "residual": float(mismatches),
            }
        return lambda: [_record("symmetric-span-dim", "symmetric-span-dim", s, fn)]

    dom_cfg = cfg["domination"]

    def make_domination_cell(d1, d2, eps, n):
        s = _cell_seed(seed, "domination", d1, d2, int(eps * 1e6), n)
        lam_scale = float(dom_cfg["lambda_scale"])

        def fn():
            window = admissible_window(d1, d2, eps)
            if not 1 <= n <= window:
                return {
                    "status": "skip",
                    "reason": f"weight-schedule window violated: n={n} outside [1, {window:.2f}]",
                }
            res = domination_check(
                HardInstanceSpec.concrete(d1, d2),
                n,
                eps,
                n_samples=int(dom_cfg["u_samples"]),
                seed=s,
                eig_tol=float(dom_cfg["eig_tol"]),
            )
            q_eff = res.max_quadratic_form / lam_scale
            ok = res.ok and q_eff <= 1 + 1e-9
            values = {
                "d1": d1, "d2": d2, "n": n, "eps": eps,
                "max_quadratic_form": res.max_quadratic_form,
                "q_spread": float(max(res.quadratic_forms) - min(res.quadratic_forms)),
                "min_eig_ratio": res.min_eig_ratio,
                "trace_bound_margin": res.trace_bound_margin,
                "lambda_total": res.details["lambda_total"],
                "lambda_sum_bound": res.details["lambda_sum_bound"],
            }
            if lam_scale != 1.0:
                values["lambda_scale"] = lam_scale
                values["scaled_quadratic_form"] = q_eff
            return {
                "status": _status(ok),
                "values": values,
                "threshold": 1.0 + 1e-9,
                "residual": q_eff - 1.0,
            }
        return lambda: [
            _record(f"domination-{d1}-{d2}-{eps}-{n}", "psd-domination", s, fn)
        ]

    def lambda_cell():
        s = _cell_seed(seed, "lambda")
        def fn():
            worst = -np.inf
            cells_checked = 0
            for d1, d2 in [tuple(map(int, c)) for c in dom_cfg["cells"]]:
                for eps in [float(e) for e in dom_cfg["eps"]]:
                    window = admissible_window(d1, d2, eps)
                    for n in range(1, int(min(dom_cfg["max_n"], window)) + 1):
                        sched = lambda_schedule(d1, d2, n, eps)
                        worst = max(worst, sched.total - sched.sum_bound)
                        cells_checked += 1
            if cells_checked == 0:
                return {"status": "skip",
                        "reason": "no domination cell lies inside the weight-schedule window"}
            return {
                "status": _status(worst <= 0),
                "values": {"cells": cells_checked},
                "threshold": 0.0,
                "residual": worst,
            }
        return lambda: [_record("lambda-sum-bound", "lambda-schedule", s, fn)]

    def skip_probe_cell():
        s = _cell_seed(seed, "skip-probe")
        def fn():
            d1, d2, n, i = 2, 5, 5, 5
            dim = (d1 * d2) ** n
            if dim > COMMUTANT_DIM_CAP and i > PERMUTATION_ORDER_CAP:
                return {
                    "status": "skip",
                    "reason": (
                        f"no exact twirl route: dim {dim} exceeds the commutant cap "
                        f"{COMMUTANT_DIM_CAP} and index {i} exceeds the permutation-frame "
                        f"cap {PERMUTATION_ORDER_CAP}"
                    ),
                }
            return {"status": "pass", "values": {}}
        return lambda: [_record("twirl-oversized-request", "twirl-methods-agree", s, fn)]

    facts_cfg = cfg["facts"]

    def facts_cells():
        s = _cell_seed(seed, "facts")
        slack = float(facts_cfg["chain_slack"])

        def entropy_fn():
            violations = 0
            worst_eq = 0.0
            for n in (1, 3, 10, 40):
                for p in (0.01, 0.2, 0.5, 0.9):
                    for k in range(n + 1):
                        lhs = log_binom(n, k) + k * log(p) + (n - k) * log(1 - p)
                        rhs = -n * kl_binary(k / n, p)
                        if lhs > rhs + slack:
                            violations += 1
                        if k in (0, n):
                            worst_eq = max(worst_eq, abs(lhs - rhs))
            ok = violations == 0 and worst_eq <= slack
            return {
                "status": _status(ok),
                "values": {"violations": violations, "endpoint_gap": worst_eq},
                "threshold": slack,
                "residual": worst_eq,
            }

        def psd_equiv_fn():
            rng = np.random.default_rng(s)
            ok = True
            worst = 0.0
            for dim in (2, 3, 5):
                m = random_psd(dim, rng) + 0.1 * np.eye(dim)
                root = psd_sqrt(m)
                for target in (0.5, 0.999, 1.001, 2.0):
                    raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
                    raw = root @ raw
                    raw *= sqrt(target) / sqrt(
                        float((raw.conj() @ (np.linalg.pinv(m) @ raw)).real)
                    )
                    wit = psd_domination_equiv(m, raw)
                    ok = ok and (wit.dominates == (target <= 1.0))
                    worst = max(worst, abs(wit.quadratic_form - target), wit.support_residual)
            return {
                "status": _status(ok and worst <= 1e-8),
                "values": {},
                "threshold": 1e-8,
                "residual": worst,
            }

        def xlog_fn():
            worst = 0.0
            for budget in (0.5, 1.0, 7.3, 100.0):
                xs = np.linspace(budget * 1e-9, budget, 400)
                vals, envelope = xlog_bound_values(budget, xs)
                worst = max(worst, float(np.max(vals - envelope)))
                peak_val, peak_env = xlog_bound_values(budget, np.array([budget / exp(1)]))
                worst = max(worst, abs(float(peak_val[0]) - peak_env))
            return {
                "status": _status(worst <= 1e-12),
                "values": {},
                "threshold": 1e-12,
                "residual": worst,
            }

        def chain_fn():
            violations = 0
            summands = 0
            worst_assembled = -np.inf
            for d1, d2 in [tuple(map(int, c)) for c in facts_cfg["dim_pairs"]]:
                for eps in [float(e) for e in facts_cfg["eps"]]:
                    n_max = int(admissible_window(d1, d2, eps))
                    ns = sorted({x for x in (1, 2, 3, 17, n_max) if 1 <= x <= n_max})
                    for n in ns:
                        sched = lambda_schedule(d1, d2, n, eps)
                        total = 0.0
                        for i in range(n + 1):
                            chain = summand_chain(d1, d2, n, eps, i)
                            if not chain.chain_ok(slack=slack):
                                violations += 1
                            summands += 1
                            total += exp(chain.t_exact - sched.log_weights[i])
                        worst_assembled = max(worst_assembled, total - 1.0)
            ok = violations == 0 and worst_assembled <= slack
            return {
                "status": _status(ok),
                "values": {"summands": summands, "violations": violations,
                           "max_assembled_minus_1": worst_assembled},
                "threshold": slack,
                "residual": max(0.0, worst_assembled),
            }

        return [
            _record("binomial-entropy-bound", "binomial-entropy-bound", s, entropy_fn),
            _record("psd-inversion-equivalence", "psd-inversion-equivalence", s, psd_equiv_fn),
            _record("xlog-bound", "xlog-bound", s, xlog_fn),
            _record("summand-chain", "domination-summand-chain", s, chain_fn),
        ]

    for d1, d2 in gamma_cells:
        cells.append(make_family_cell(d1, d2))
        cells.append(make_gamma_cell(d1, d2))
        cells.append(make_cross_cell(d1, d2))
    for d1, d2, n, i in [tuple(map(int, c)) for c in cfg["mc_cells"]]:
        cells.append(make_mc_cell(d1, d2, n, i))
    cells.append(trace_bound_cell)
    cells.append(span_cell())
    for d1, d2 in [tuple(map(int, c)) for c in dom_cfg["cells"]]:
        for eps in [float(e) for e in dom_cfg["eps"]]:
            for n in range(1, int(dom_cfg["max_n"]) + 1):
                cells.append(make_domination_cell(d1, d2, eps, n))
    cells.append(lambda_cell())
    cells.append(skip_probe_cell())
    cells.append(facts_cells)

    records = _run_cells(cells, jobs)
    return make_report(
        suite="hard",
        config=cfg,
        records=records,
        seed=seed,
        started=started,
        tolerances={
            "comb_tol": cfg["comb_tol"],
            "recursion_tol": cfg["recursion_tol"],
            "cross_tol": cfg["cross_tol"],
            "trace_tol": cfg["trace_tol"],
            "chain_slack": facts_cfg["chain_slack"],
        },
        matrices=matrices,
    )


# ---------------------------------------------------------------------------
# net suite


def run_net_suite(
    config: dict | None = None,
    seed: int = 0,
    jobs: int = 1,
    samples: int | None = None,
    embed_matrices: bool = False,
) -> VerificationReport:
    cfg = effective_config(config)["net"]
    if samples is not None:
        cfg = _merge(cfg, {"moment_samples": int(samples)})
    started = time.perf_counter()
    matrices: dict = {}
    eps = float(cfg["eps"])

    def params_or_none(cell, use_eps=None):
        """NetParams for a config cell; explicit-mode violations are fatal."""
        d1, d2, r = int(cell[0]), int(cell[1]), int(cell[2])
        mode = cell[3] if len(cell) > 3 else "auto"
        try:
            return NetParams(d1, d2, r, eps if use_eps is None else use_eps, mode=mode), None
        except ValueError as exc:
            if mode != "auto":
                raise ConfigError(f"net cell {cell}: {exc}") from exc
            return None, str(exc)

    def make_build_cell(cell):
        s = _cell_seed(seed, "block", *cell[:3])
        def thunk():
            p, why = params_or_none(cell)
            if p is None:
                return [
                    _record(
                        f"block-isometry-{'-'.join(map(str, cell[:3]))}",
                        "block-isometry", s,
                        lambda: {"status": "skip", "reason": f"parameter window: {why}"},
                    )
                ]
            rng = np.random.default_rng(s)
            blocks = build_block_isometry(p, rng)

            def build_fn():
                g = blocks.gram
                off = float(np.max(np.abs(g - np.diag(np.diag(g)))))
                diag_max = float(np.max(np.diag(g).real))
                values = {
                    "mode": p.mode, "d1": p.d1, "d2": p.d2, "r": p.r,
                    "gram_diag_max": diag_max, "gram_off_max": off,
                    "gram_bound": blocks.gram_bound, "rejections": blocks.rejections,
                }
                if p.mode == "odd":
                    values["subspace_dims"] = dict(blocks.subspace_dims)
                ok = diag_max <= blocks.gram_bound + 1e-9 and off <= 1e-9
                return {
                    "status": _status(ok),
                    "values": values,
                    "threshold": blocks.gram_bound + 1e-9,
                    "residual": max(diag_max - blocks.gram_bound, off),
                }

            def member_fn():
                rng2 = np.random.default_rng(_cell_seed(seed, "member", *cell[:3]))
                iso_res = 0.0
                rank_max = 0
                for _ in range(int(cfg["member_checks"])):
                    u = haar_unitary(p.u_dim, rng2)
                    v, ch = build_net_isometry(p, u, blocks)
                    iso_res = max(
                        iso_res, float(np.linalg.norm(v.conj().T @ v - np.eye(p.d1)))
                    )
                    rank_max = max(rank_max, kraus_rank(choi_from_kraus(ch), rank_tol=1e-8))
                p0 = NetParams(p.d1, p.d2, p.r, 0.0, mode=p.mode)
                b0 = build_block_isometry(p0, np.random.default_rng(s))
                c1 = choi_from_kraus(build_net_isometry(p0, haar_unitary(p0.u_dim, rng2), b0)[1])
                c2 = choi_from_kraus(build_net_isometry(p0, haar_unitary(p0.u_dim, rng2), b0)[1])
                eps0_res = float(np.linalg.norm(c1 - c2))
                ok = iso_res <= 1e-10 and rank_max <= p.r and eps0_res <= 1e-12
                return {
                    "status": _status(ok),
                    "values": {"mode": p.mode, "kraus_rank_max": rank_max,
                               "rank_bound": p.r, "out_dim": p.out_dim,
                               "eps_zero_choi_residual": eps0_res},
                    "threshold": 1e-10,
                    "residual": iso_res,
                }

            def f_fn():
                rng2 = np.random.default_rng(_cell_seed(seed, "fop", *cell[:3]))
                ux, uy = haar_unitary(p.u_dim, rng2), haar_unitary(p.u_dim, rng2)
                f = f_operator(blocks, ux, uy)
                j = blocks.j_embed
                kx = (j @ (ux @ (j.conj().T @ blocks.delta_canon))).reshape(p.r, p.d2, p.d1)
                ky = (j @ (uy @ (j.conj().T @ blocks.delta_canon))).reshape(p.r, p.d2, p.d1)
                k0 = blocks.v0_full.reshape(p.r, p.d2, p.d1)
                f2 = sum(
                    np.outer(k0[i].reshape(-1), (kx[i] - ky[i]).reshape(-1).conj())
                    for i in range(p.r)
                ) / p.d1
                route_res = float(np.linalg.norm(f - f2))
                zero_res = float(np.linalg.norm(f_operator(blocks, ux, ux)))
                f_hash = _stash_matrix(matrices, f, embed_matrices)
                ok = route_res <= 1e-10 and zero_res <= 1e-14
                return {
                    "status": _status(ok),
                    "values": {"mode": p.mode, "sample_f": f_hash,
                               "identical_pair_norm": zero_res},
                    "threshold": 1e-10,
                    "residual": route_res,
                }

            tag = "-".join(map(str, cell[:3]))
            return [
                _record(f"block-isometry-{tag}", "block-isometry", s, build_fn),
                _record(f"net-isometry-{tag}", "net-isometry", s, member_fn),
                _record(f"f-operator-{tag}", "f-operator", s, f_fn),
            ]
        return thunk

    def make_moment_cell(cell):
        s = _cell_seed(seed, "moment", *cell[:3])
        def thunk():
            tag = "-".join(map(str, cell[:3]))
            p, why = params_or_none(cell)
            if p is None:
                return [
                    _record(f"f-moments-{tag}", "f-moments", s,
                            lambda: {"status": "skip", "reason": f"parameter window: {why}"})
                ]
            if p.mode != "odd":
                return [
                    _record(f"f-moments-{tag}", "f-moments", s,
                            lambda: {"status": "skip",
                                     "reason": "moment identities require the odd-mode template"})
                ]
            def fn():
                rng = np.random.default_rng(s)
                blocks = build_block_isometry(p, rng)
                m = moment_audit(blocks, int(cfg["moment_samples"]), rng)
                m2_gap = abs(m.m2_mean - m.m2_expected)
                warn = m2_gap > 3 * m.m2_stderr
                return {
                    "status": _status(m.ok, warn=warn),
                    "values": {"d1": p.d1, "d2": p.d2, "r": p.r,
                               "samples": m.samples,
                               "m2_mean": m.m2_mean, "m2_stderr": m.m2_stderr,
                               "m2_expected": m.m2_expected,
                               "m4_mean": m.m4_mean, "m4_stderr": m.m4_stderr,
                               "m4_bound": m.m4_bound},
                    "threshold": 4 * m.m2_stderr,
                    "residual": m2_gap,
                }
            return [_record(f"f-moments-{tag}", "f-moments", s, fn)]
        return thunk

    def make_lipschitz_cell(cell):
        s = _cell_seed(seed, "lipschitz", *cell[:3])
        def thunk():
            tag = "-".join(map(str, cell[:3]))
            p, why = params_or_none(cell)
            if p is None:
                return [
                    _record(f"f-lipschitz-{tag}", "f-lipschitz", s,
                            lambda: {"status": "skip", "reason": f"parameter window: {why}"})
                ]
            def fn():
                rng = np.random.default_rng(s)
                blocks = build_block_isometry(p, rng)
                a = lipschitz_audit(blocks, int(cfg["lipschitz_trials"]), rng)
                return {
                    "status": _status(a.ok),
                    "values": {"mode": p.mode, "trials": a.trials,
                               "lipschitz_constant": a.lipschitz_constant,
                               "max_ratio": a.max_ratio, "violations": a.violations},
                    "threshold": a.lipschitz_constant,
                    "residual": a.max_ratio - a.lipschitz_constant,
                }
            return [_record(f"f-lipschitz-{tag}", "f-lipschitz", s, fn)]
        return thunk

    def make_separation_cell(cell):
        s = _cell_seed(seed, "separation", *cell[:3])
        def thunk():
            tag = "-".join(map(str, cell[:3]))
            p, why = params_or_none(cell)
            if p is None:
                return [
                    _record(f"separation-{tag}", "separation-audit", s,
                            lambda: {"status": "skip", "reason": f"parameter window: {why}"})
                ]
            rng = np.random.default_rng(s)
            blocks = build_block_isometry(p, rng)
            audit = separation_audit(blocks, int(cfg["separation_pairs"]), rng)

            def sep_fn():
                margin_ok = audit.min_choi_distance >= audit.choi_threshold
                thin = audit.min_choi_distance < 1.05 * audit.choi_threshold
                ok = (
                    margin_ok
                    and audit.min_overlap_norm >= audit.overlap_threshold
                    and audit.max_kraus_rank <= audit.rank_bound
                )
                return {
                    "status": _status(ok, warn=thin),
                    "values": {"mode": p.mode, "eps": audit.eps, "pairs": audit.pairs,
                               "min_choi_distance": audit.min_choi_distance,
                               "choi_threshold": audit.choi_threshold,
                               "min_overlap_norm": audit.min_overlap_norm,
                               "overlap_threshold": audit.overlap_threshold,
                               "max_kraus_rank": audit.max_kraus_rank,
                               "rank_bound": audit.rank_bound,
                               "derived_choi_floor": audit.derived_choi_floor,
                               "tight_eps_regime": audit.tight_eps_regime},
                    "threshold": audit.choi_threshold,
                    "residual": audit.choi_threshold - audit.min_choi_distance,
                }

            def identities_fn():
                worst = max(
                    audit.branch_trace_residual,
                    audit.symmetrized_norm_residual,
                    audit.cross_route_residual,
                    audit.choi_floor_violation,
                )
                ok = worst <= 1e-8 and audit.nilpotency_residual <= 1e-10
                return {
                    "status": _status(ok),
                    "values": {"mode": p.mode,
                               "branch_trace_residual": audit.branch_trace_residual,
                               "nilpotency_residual": audit.nilpotency_residual,
                               "symmetrized_norm_residual": audit.symmetrized_norm_residual,
                               "cross_route_residual": audit.cross_route_residual,
                               "choi_floor_violation": audit.choi_floor_violation},
                    "threshold": 1e-8,
                    "residual": worst,
                }

            return [
                _record(f"separation-{tag}", "separation-audit", s, sep_fn),
                _record(f"trace-norm-identities-{tag}", "trace-norm-identities", s, identities_fn),
            ]
        return thunk

    cells = []
    for cell in cfg["cells"]:
        cells.append(make_build_cell(cell))
    for cell in cfg["moment_cells"]:
        cells.append(make_moment_cell(cell))
    for cell in cfg["lipschitz_cells"]:
        cells.append(make_lipschitz_cell(cell))
    for cell in cfg["separation_cells"]:
        cells.append(make_separation_cell(cell))

    records = _run_cells(cells, jobs)
    return make_report(
        suite="net",
        config=cfg,
        records=records,
        seed=seed,
        started=started,
        tolerances={"iso_tol": 1e-10, "f_route_tol": 1e-10, "identity_tol": 1e-8},
        matrices=matrices,
    )


def run_all_suites(
    config: dict | None = None,
    seed: int = 0,
    jobs: int = 1,
    method: str = "auto",
    samples: int | None = None,
    embed_matrices: bool = False,
) -> list[VerificationReport]:
    return [
        run_combs_suite(config, seed=seed, jobs=jobs, embed_matrices=embed_matrices),
        run_hard_suite(
            config, seed=seed, jobs=jobs, method=method, samples=samples,
            embed_matrices=embed_matrices,
        ),
        run_net_suite(
            config, seed=seed, jobs=jobs, samples=samples, embed_matrices=embed_matrices
        ),
    ]
