"""Tests for the check tables and the runner behind the three suites: the
table's record ids, config validation, lazily built cell state, and how a
crashing or slow shared computation shows up in the records."""

import json
import time
from pathlib import Path

import numpy as np
import pytest

import combcert.suites as suites
from combcert import net
from combcert.hard import domination, modes
from combcert.linalg import trace_norm

EXPECTED_IDS = Path(__file__).resolve().parents[1] / "perfbench" / "expected_ids.json"

# one separation cell ([4, 3, 3]) distinct from the other groups' cells
NET = {
    "net": {
        "cells": [[2, 4, 2]],
        "member_checks": 2,
        "moment_cells": [],
        "lipschitz_cells": [[2, 4, 2]],
        "lipschitz_trials": 120,
        "separation_cells": [[4, 3, 3]],
        "separation_pairs": 50,
    }
}


def test_default_tables_list_the_expected_ids_without_running_a_body():
    expected = json.loads(EXPECTED_IDS.read_text())
    for suite, ids in expected.items():
        table = suites.check_table(suite, suites.Run(suites.effective_config(None)[suite]))
        assert [check.check_id for _, checks in table for check in checks] == ids
        for cell, _ in table:
            assert not {"seed", "spec", "rng", "blocks", "audit"} & set(vars(cell))


def test_effective_config_types_and_samples():
    # a tolerance is a constant beside its check, not a setting
    with pytest.raises(suites.ConfigError, match=r"unknown config keys in combs: \['comb_tol'\]$"):
        suites.effective_config({"combs": {"comb_tol": suites.COMB_TOL}})
    # an int is stored as a float where the default is a float; no integer is
    # a valid eps, which lies in (0, 1), so the messages show the value (a
    # setting, then a list entry) already stored as a float
    with pytest.raises(suites.ConfigError, match=r"family_eps must be below 1, got 1\.0$"):
        suites.effective_config({"hard": {"family_eps": 1}})
    with pytest.raises(suites.ConfigError, match=r"domination\.eps\[0\] must be below 1, got 1\.0$"):
        suites.effective_config({"hard": {"domination": {"eps": [1]}}})
    cfg = suites.effective_config(None)
    assert cfg["hard"]["gamma_cells"] == suites.DEFAULT_CONFIG["hard"]["gamma_cells"]
    cfg = suites.effective_config({"hard": {"mc_samples": 7}}, samples=1009)
    assert cfg["hard"]["mc_samples"] == cfg["net"]["moment_samples"] == 1009
    with pytest.raises(suites.ConfigError, match="mc_samples"):
        suites.effective_config(None, samples=0)
    with pytest.raises(suites.ConfigError, match="must be an object"):
        suites.effective_config({"hard": 3}, samples=5)


class _Recorded(dict):
    """A config section that records the path of every key read from it."""

    def __init__(self, data=(), path="", reads=None):
        super().__init__(data)
        self.path, self.reads = path, set() if reads is None else reads

    def __getitem__(self, key):
        path = self.path + key
        self.reads.add(path)
        value = super().__getitem__(key)
        return _Recorded(value, path + ".", self.reads) if isinstance(value, dict) else value


def _leaves(cfg, path=""):
    for key, value in cfg.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{path}{key}.")
        else:
            yield path + key


def test_every_config_value_is_read_by_a_check(monkeypatch):
    reads = set()
    real = suites.effective_config
    monkeypatch.setattr(suites, "effective_config", lambda *args: _Recorded(real(*args), "", reads))
    for run_suite in (suites.run_combs_suite, suites.run_hard_suite, suites.run_net_suite):
        run_suite(seed=7)
    leaves = list(_leaves(suites.DEFAULT_CONFIG))
    assert [path for path in leaves if path not in reads] == []
    assert len(leaves) == 29


def test_every_suite_runs_at_its_defaults_without_np_linalg_norm(monkeypatch):
    # every norm is linalg.frobenius, summed in numpy's own loops; the BLAS
    # dot in np.linalg.norm splits its sum by OpenBLAS kernel and thread count
    def blas_norm(*args, **kwargs):
        raise AssertionError("np.linalg.norm was called")

    monkeypatch.setattr(np.linalg, "norm", blas_norm)
    records = [r for run_suite in (suites.run_combs_suite, suites.run_hard_suite, suites.run_net_suite)
               for r in run_suite(seed=7).records]
    assert len(records) == 60
    assert {(r.check_id, r.status, r.reason) for r in records if r.status != "pass"} == {
        ("twirl-oversized-request", "skip", "no exact twirl route: dim 100000 exceeds the commutant "
         "cap 48 and index 5 exceeds the permutation-frame cap 4")
    }


def _net_statuses(payload):
    report = suites.run_net_suite(payload, seed=5)
    return {r.check_id: (r.status, r.reason) for r in report.records}


def test_crashing_shared_state_fails_only_its_group(monkeypatch):
    real_build = suites.build_block_isometry

    def build(params, rng):
        if (params.d1, params.d2, params.r) == (4, 3, 3):
            raise RuntimeError("block construction failed")
        return real_build(params, rng)

    sep_ids = {"separation-4-3-3", "trace-norm-identities-4-3-3"}
    monkeypatch.setattr(suites, "build_block_isometry", build)
    statuses = _net_statuses(NET)
    assert {cid for cid, (status, _) in statuses.items() if status == "fail"} == sep_ids
    assert all(statuses[cid][1] == "RuntimeError: block construction failed" for cid in sep_ids)
    assert all(status == "pass" for cid, (status, _) in statuses.items() if cid not in sep_ids)

    def audit(blocks, pairs, rng):
        raise RuntimeError("audit failed")

    monkeypatch.setattr(suites, "build_block_isometry", real_build)
    monkeypatch.setattr(suites, "separation_audit", audit)
    statuses = _net_statuses(NET)
    assert {cid for cid, (status, _) in statuses.items() if status == "fail"} == sep_ids
    assert all(statuses[cid][1] == "RuntimeError: audit failed" for cid in sep_ids)


def test_shared_state_time_is_charged_to_the_check_that_builds_it(monkeypatch):
    real_audit = suites.separation_audit

    def slow_audit(blocks, pairs, rng):
        time.sleep(0.2)
        return real_audit(blocks, pairs, rng)

    monkeypatch.setattr(suites, "separation_audit", slow_audit)
    payload = {"net": {**NET["net"], "cells": [], "lipschitz_cells": []}}
    report = suites.run_net_suite(payload, seed=5)
    walls = {r.check_id: r.wall_time_s for r in report.records}
    assert walls["separation-4-3-3"] >= 0.2
    assert walls["trace-norm-identities-4-3-3"] < 0.2
    assert report.total_wall_time_s - sum(walls.values()) < 0.02


def test_oversized_twirl_request_fails_when_the_auto_route_returns(monkeypatch):
    payload = {"hard": {"gamma_cells": [], "mc_cells": [], "trace_dims": [2],
                        "rotor_trace_cells": [], "span_max_d": 1, "span_max_m": 1,
                        "domination": {"cells": []}, "facts": {"dim_pairs": []}}}

    def oversized():
        records = suites.run_hard_suite(payload, seed=3).records
        return next(r for r in records if r.check_id == "twirl-oversized-request")

    rec = oversized()
    assert rec.status == "skip"
    assert rec.reason == (
        "no exact twirl route: dim 100000 exceeds the commutant cap 48 and index 5 "
        "exceeds the permutation-frame cap 4"
    )
    monkeypatch.setattr(suites, "gamma_twirl_modes", lambda *args, **kwargs: np.eye(2))
    assert oversized().status == "fail"


def test_close_domination_eps_values_get_distinct_seeds():
    grid = {"cells": [[1, 2]], "eps": [0.0100001, 0.0100009], "max_n": 1}
    cfg = suites.effective_config({"hard": {"domination": grid}})["hard"]
    seeds = {
        check.check_id: cell.seed
        for cell, checks in suites.check_table("hard", suites.Run(cfg, seed=7))
        for check in checks
        if check.check_id.startswith("domination-")
    }
    assert sorted(seeds) == ["domination-1-2-0.0100001-1", "domination-1-2-0.0100009-1"]
    assert len(set(seeds.values())) == 2


def test_tester_validity_holds_its_testers_to_the_threshold_it_reports(monkeypatch):
    monkeypatch.setattr(suites, "COMB_TOL", 1e-30)
    report = suites.run_combs_suite({"combs": {"channels": 2, "pairs": 3}}, seed=7)
    rec = next(r for r in report.records if r.check_id == "tester-validity")
    assert rec.threshold == 1e-30
    assert rec.status == "fail"


def test_domination_records_show_every_bound_their_verdict_reads():
    grid = {"cells": [[1, 2]], "eps": [0.05], "max_n": 2, "u_samples": 5}
    report = suites.run_hard_suite({"hard": {"domination": grid}}, seed=7)
    tol = report.tolerances
    records = [r for r in report.records if r.check_id.startswith("domination-")]
    assert [r.status for r in records] == ["pass", "pass"]
    for rec in records:
        values = rec.values
        assert rec.threshold >= values["max_quadratic_form"]
        assert values["max_support_residual"] <= tol["support_tol"]
        assert values["min_eig_ratio"] >= -tol["eig_tol"]
        assert values["support_margin"] >= values["min_eig_ratio"]
        assert values["trace_bound_margin"] <= tol["trace_margin_tol"]
        gap = abs(values["max_quadratic_form"] - values["q_closed_form"])
        assert gap <= tol["q_closed_form_tol"] * values["q_closed_form"]


def test_a_wrongly_normalized_twirl_fails_its_domination_record(monkeypatch):
    # Gamma_1 scaled by 1.5 keeps its support: q stays below its bound and the
    # support and eigenvalue readings pass, so only the closed form catches it
    payload = {"hard": {"gamma_cells": [], "mc_cells": [], "trace_dims": [2],
                        "rotor_trace_cells": [], "span_max_d": 1, "span_max_m": 1,
                        "domination": {"cells": [[2, 4]], "eps": [0.05], "max_n": 2},
                        "facts": {"dim_pairs": []}}}

    def record():
        records = suites.run_hard_suite(payload, seed=7).records
        return next(r for r in records if r.check_id == "domination-2-4-0.05-2")

    good = record()
    assert good.status == "pass"
    exact = domination.gamma_twirl_modes

    def scaled(spec, n, i, seed=0):
        f = exact(spec, n, i, seed=seed)
        return f._replace(vals=(1.5 if i == 1 else 1.0) * f.vals)

    monkeypatch.setattr(domination, "gamma_twirl_modes", scaled)
    bad = record()
    assert bad.status == "fail"
    assert bad.values["max_quadratic_form"] <= bad.threshold
    assert bad.values["q_closed_form"] == good.values["q_closed_form"]


def test_a_wrongly_normalized_twirl_fails_the_monte_carlo_record(monkeypatch):
    # the Haar-sample estimate is independent of the exact route: a Gamma_i
    # scaled by 1.5 is 0.5 * ||Gamma_1||_F = 0.35 off, about 22 thresholds
    payload = {"hard": {"gamma_cells": [], "mc_cells": [[1, 3, 2, 1]], "trace_dims": [2],
                        "rotor_trace_cells": [], "span_max_d": 1, "span_max_m": 1,
                        "domination": {"cells": []}, "facts": {"dim_pairs": []}}}

    def record():
        records = suites.run_hard_suite(payload, seed=7).records
        return next(r for r in records if r.check_id == "twirl-mc-1-3-2-1")

    assert record().status == "pass"
    exact = suites.gamma_twirl_modes

    def scaled(spec, n, i, seed=0):
        f = exact(spec, n, i, seed=seed)
        return f._replace(vals=1.5 * f.vals)

    monkeypatch.setattr(suites, "gamma_twirl_modes", scaled)
    bad = record()
    assert bad.status == "fail"
    assert bad.residual > bad.threshold


def test_a_walk_that_traces_a_in_place_of_b_fails_the_twirl_combs(monkeypatch):
    payload = {"hard": {"gamma_cells": [[2, 4]], "max_n": 2, "mc_cells": [], "trace_dims": [2],
                        "rotor_trace_cells": [], "span_max_d": 1, "span_max_m": 1,
                        "domination": {"cells": []}, "facts": {"dim_pairs": []}}}

    def record():
        records = suites.run_hard_suite(payload, seed=7).records
        return next(r for r in records if r.check_id == "gamma-twirl-comb-2-4")

    assert record().status == "pass"

    real = modes.mode_isometry
    # J read with its B and A axes swapped: each step traces A_j and keeps B_j
    monkeypatch.setattr(modes, "mode_isometry", lambda spec: real(spec).transpose(1, 0, 2))
    bad = record()
    assert bad.status == "fail" and bad.reason is None
    assert bad.residual > bad.threshold


def test_a_wrong_overlap_factor_fails_the_trace_norm_identities(monkeypatch):
    # tr|F| read from the factor without the reference Gram's square root:
    # the dense SVD of X = d1 F no longer matches d1 f
    def record():
        records = suites.run_net_suite(NET, seed=7).records
        return next(r for r in records if r.check_id == "trace-norm-identities-4-3-3")

    assert record().status == "pass"

    def without_gram(blocks, ux, uy):
        p = blocks.params
        w = net._rotor_part(blocks, ux - uy)
        return trace_norm(w.reshape(w.shape[:-2] + (p.r, -1)).conj()) / p.d1

    monkeypatch.setattr(net, "_overlap_norm", without_gram)
    bad = record()
    assert bad.status == "fail"
    assert bad.values["cross_route_residual"] > bad.threshold


def test_hard_suite_takes_no_blas_dot(monkeypatch):
    # |gamma_i|^2 is a Frobenius norm (linalg.frobenius), whose pairwise sum
    # no BLAS kernel or thread count moves, not a zdotc
    def no_vdot(*args, **kwargs):
        raise AssertionError("np.vdot called")

    monkeypatch.setattr(np, "vdot", no_vdot)
    records = suites.run_hard_suite(None, seed=7).records
    statuses = {r.check_id: r.status for r in records if r.status != "pass"}
    assert statuses == {"twirl-oversized-request": "skip"}
