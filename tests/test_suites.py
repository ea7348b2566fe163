"""Tests for the check tables and the runner behind the three suites: the
table's record ids, config validation, lazily built cell state, and how a
crashing or slow shared computation shows up in the records."""

import json
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

import combcert.suites as suites

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
    cfg = suites.effective_config({"combs": {"comb_tol": 1}, "hard": {"domination": {"eps": [1]}}})
    assert cfg["combs"]["comb_tol"] == 1.0 and isinstance(cfg["combs"]["comb_tol"], float)
    assert isinstance(cfg["hard"]["domination"]["eps"][0], float)
    assert cfg["hard"]["gamma_cells"] == suites.DEFAULT_CONFIG["hard"]["gamma_cells"]
    cfg = suites.effective_config({"hard": {"mc_samples": 7}}, samples=9)
    assert cfg["hard"]["mc_samples"] == cfg["net"]["moment_samples"] == 9
    with pytest.raises(suites.ConfigError, match="mc_samples"):
        suites.effective_config(None, samples=0)
    with pytest.raises(suites.ConfigError, match="must be an object"):
        suites.effective_config({"hard": 3}, samples=5)


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
    monkeypatch.setattr(suites, "gamma_twirl", lambda *args, **kwargs: np.eye(2))
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


def test_groups_not_queued_before_the_pool_broke_fail():
    class BrokenPool:
        def submit(self, fn, *args):
            raise BrokenProcessPool("a worker died")

    cell, checks = suites.check_table("combs", suites.Run(suites.effective_config(None)["combs"]))[2]
    records, stashed = suites._worker_result(suites._submit(BrokenPool(), 2), cell, checks)
    assert [r.check_id for r in records] == [c.check_id for c in checks] and stashed == {}
    assert all(r.status == "fail" and "worker process died" in r.reason for r in records)
