"""End-to-end tests for the command-line interface and the suite runners.

Each scenario shrinks the default grids through a config file so the whole
module stays fast while still exercising the real suites."""

import json
import os
import subprocess
import sys
import time
from collections import Counter
from dataclasses import replace
from math import log
from pathlib import Path

import pytest

import combcert.cli as cli
import combcert.hard.domination as domination
import combcert.hard.twirl as twirl
import combcert.suites as suites
from combcert.cli import main
from combcert.report import canonical_body

SMALL_COMBS = {"combs": {"channels": 6, "max_dim": 3, "pairs": 6}}
SMALL_HARD = {
    "hard": {
        "gamma_cells": [[1, 2]],
        "max_n": 2,
        "mc_cells": [[1, 2, 1, 1]],
        "mc_samples": 4000,
        "trace_dims": [2, 3],
        "trace_samples": 5,
        "rotor_trace_cells": [[1, 2]],
        "rotor_trace_max_n": 1,
        "span_max_d": 2,
        "span_max_m": 2,
        "domination": {"cells": [[1, 2]], "eps": [0.05], "max_n": 1, "u_samples": 3},
        "facts": {"dim_pairs": [[1, 2]], "eps": [0.01, 0.2]},
    }
}
SMALL_NET = {
    "net": {
        "cells": [[2, 4, 2]],
        "member_checks": 2,
        "moment_cells": [[4, 3, 3]],
        "moment_samples": 1200,
        "lipschitz_cells": [[2, 4, 2]],
        "lipschitz_trials": 120,
        "separation_cells": [[2, 4, 2]],
        "separation_pairs": 50,
    }
}


def _write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _verify(tmp_path, suite, payload, *extra, seed="11", subdir="out"):
    cfg = _write_config(tmp_path, payload)
    out = tmp_path / subdir
    argv = ["verify", "--suite", suite, "--config", cfg, "--seed", seed, "--out", str(out), *extra]
    return main(argv), out


def _load(out_dir, suite):
    with open(out_dir / f"{suite}_report.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_verify_combs_passes_and_writes_report(tmp_path, capsys):
    code, out = _verify(tmp_path, "combs", SMALL_COMBS)
    assert code == 0
    doc = _load(out, "combs")
    assert doc["overall"] == "pass"
    assert doc["schema"] == 1
    assert {r["status"] for r in doc["records"]} == {"pass"}
    assert "[combs] pass" in capsys.readouterr().out


def test_impossible_tolerance_fails_with_exit_1(tmp_path, monkeypatch):
    monkeypatch.setattr(suites, "COMB_TOL", 1e-30)
    code, out = _verify(tmp_path, "combs", SMALL_COMBS)
    assert code == 1
    doc = _load(out, "combs")
    assert doc["overall"] == "fail"
    assert any(r["status"] == "fail" for r in doc["records"])


def test_malformed_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    code = main(["verify", "--suite", "combs", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_config_section_exits_2(tmp_path):
    code, _ = _verify(tmp_path, "combs", {"mystery": {}})
    assert code == 2


def test_invalid_net_mode_exits_2(tmp_path, capsys):
    payload = {"net": {**SMALL_NET["net"], "cells": [[5, 3, 3, "odd"]]}}
    code, _ = _verify(tmp_path, "net", payload)
    assert code == 2
    assert "odd mode" in capsys.readouterr().err


def test_tampered_weight_schedule_fails(tmp_path, monkeypatch):
    real = domination.lambda_schedule

    def tampered(d1, d2, n, eps):  # every weight scaled by 1e-6
        sched = real(d1, d2, n, eps)
        return replace(sched, log_weights=sched.log_weights + log(1e-6))

    monkeypatch.setattr(domination, "lambda_schedule", tampered)
    code, out = _verify(tmp_path, "hard", SMALL_HARD)
    assert code == 1
    doc = _load(out, "hard")
    failed = [r for r in doc["records"] if r["status"] == "fail"]
    assert failed and all(r["check_id"].startswith("domination") for r in failed)


def test_method_flag_is_rejected(tmp_path):
    with pytest.raises(SystemExit) as exc:
        _verify(tmp_path, "hard", SMALL_HARD, "--method", "mc")
    assert exc.value.code == 2


def test_strict_escalates_warn_records(tmp_path, monkeypatch):
    real = suites.run_combs_suite

    def warned(config, seed, embed_matrices=False):
        rep = real(config, seed, embed_matrices=embed_matrices)
        import dataclasses

        recs = list(rep.records)
        recs[0] = dataclasses.replace(recs[0], status="warn", reason=None)
        return dataclasses.replace(rep, records=tuple(recs))

    monkeypatch.setattr(suites, "run_combs_suite", warned)
    monkeypatch.setattr("combcert.cli.run_combs_suite", warned)
    code, out = _verify(tmp_path, "combs", SMALL_COMBS, "--strict")
    assert code == 1
    doc = _load(out, "combs")
    escalated = [r for r in doc["records"] if r["status"] == "fail"]
    assert escalated and "escalated from warn" in escalated[0]["reason"]


def test_reports_are_deterministic_across_runs_and_jobs(tmp_path):
    code1, out1 = _verify(tmp_path, "hard", SMALL_HARD, subdir="a")
    code2, out2 = _verify(tmp_path, "hard", SMALL_HARD, "--jobs", "3", subdir="b")
    assert code1 == code2 == 0
    body1 = canonical_body(_load(out1, "hard"))
    body2 = canonical_body(_load(out2, "hard"))
    assert body1 == body2
    code3, out3 = _verify(tmp_path, "hard", SMALL_HARD, seed="12", subdir="c")
    assert code3 == 0
    assert canonical_body(_load(out3, "hard")) != body1


def _table_ids(suite, payload):
    run = suites.Run(suites.effective_config(payload)[suite])
    return [check.check_id for _, checks in suites.check_table(suite, run) for check in checks]


def test_every_check_runs_in_the_calling_process_in_table_order(tmp_path, monkeypatch):
    real = suites._run_check

    def tagged(cell, check):
        rec = real(cell, check)
        return replace(rec, values={**rec.values, "pid": os.getpid()})

    monkeypatch.setattr(suites, "_run_check", tagged)
    code, out = _verify(tmp_path, "hard", SMALL_HARD, "--jobs", "2")
    assert code == 0
    records = _load(out, "hard")["records"]
    assert [r["check_id"] for r in records] == _table_ids("hard", SMALL_HARD)
    assert {r["values"]["pid"] for r in records} == {os.getpid()}
    assert {r["status"] for r in records} <= {"pass", "skip"}


def test_embedded_matrices_are_the_same_at_any_jobs_value(tmp_path):
    docs = []
    for jobs in ("1", "2"):
        code, out = _verify(tmp_path, "combs", SMALL_COMBS, "--embed-matrices", "--jobs", jobs,
                            subdir=f"jobs{jobs}")
        assert code == 0
        docs.append(_load(out, "combs"))
    assert docs[0]["matrices"] and docs[0]["matrices"] == docs[1]["matrices"]
    assert docs[0]["body_digest"] == docs[1]["body_digest"]


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas_vars_after_import(**overrides):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = f"import combcert.cli, os; print([os.environ.get(v) for v in {BLAS_VARS!r}])"
    done = subprocess.run([sys.executable, "-c", code], env={**env, **overrides},
                          capture_output=True, text=True, check=True)
    return done.stdout.strip()


def test_cli_pins_blas_threads_unless_the_user_set_them():
    assert _blas_vars_after_import() == "['1', '1', '1']"
    assert _blas_vars_after_import(OPENBLAS_NUM_THREADS="2") == "['2', '1', '1']"


def test_inadmissible_domination_grid_skips_lambda_bound(tmp_path):
    payload = json.loads(json.dumps(SMALL_HARD))
    payload["hard"]["domination"]["eps"] = [0.9]
    code, out = _verify(tmp_path, "hard", payload)
    assert code == 0
    records = {r["check_id"]: r for r in _load(out, "hard")["records"]}
    lam = records["lambda-sum-bound"]
    assert lam["status"] == "skip" and "window" in lam["reason"]
    assert lam["residual"] is None


def test_twirl_routes_build_one_projector_per_spec_and_n(monkeypatch):
    calls = []
    real = twirl.commutant_projector

    def counting(spec, n, seed=0, **kwargs):
        calls.append((spec.d1, spec.d2, n, seed))
        return real(spec, n, seed=seed, **kwargs)

    monkeypatch.setattr(twirl, "commutant_projector", counting)
    monkeypatch.setattr(suites, "commutant_projector", counting)
    cells = [(1, 2), (1, 3)]
    config = json.loads(json.dumps(SMALL_HARD))
    config["hard"]["gamma_cells"] = [list(c) for c in cells]
    report = suites.run_hard_suite(config, seed=11)
    statuses = {r.check_id: r.status for r in report.records}
    assert all(statuses[f"twirl-routes-{d1}-{d2}"] == "pass" for d1, d2 in cells)
    cross = {c: suites._cell_seed(11, "cross", *c) for c in cells}
    route_calls = Counter(c for c in calls if cross.get(c[:2]) == c[3])
    max_n = config["hard"]["max_n"]
    assert route_calls == Counter(
        (d1, d2, n, cross[(d1, d2)]) for d1, d2 in cells for n in range(1, max_n + 1)
    )


def test_verify_all_passes_samples_to_net(tmp_path, capsys):
    payload = {**SMALL_COMBS, **SMALL_HARD, **SMALL_NET}
    # moment_audit needs net.MIN_MOMENT_SAMPLES, so fewer is a config error
    code, out = _verify(tmp_path, "all", payload, "--samples", "300", subdir="few")
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "net.moment_samples" in err
    assert not out.exists() or not any(out.iterdir())

    code_all, out_all = _verify(tmp_path, "all", payload, "--samples", "1100", subdir="all")
    code_net, out_net = _verify(tmp_path, "net", payload, "--samples", "1100", subdir="net")
    assert code_all == code_net == 0
    net_all, net_alone = _load(out_all, "net"), _load(out_net, "net")
    assert net_all["config"]["moment_samples"] == net_alone["config"]["moment_samples"] == 1100
    assert net_all["body_digest"] == net_alone["body_digest"]


def test_verify_all_writes_three_reports(tmp_path):
    payload = {**SMALL_COMBS, **SMALL_HARD, **SMALL_NET}
    code, out = _verify(tmp_path, "all", payload)
    assert code == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["combs_report.json", "hard_report.json", "net_report.json"]


def test_merge_command(tmp_path, capsys, monkeypatch):
    _, out = _verify(tmp_path, "combs", SMALL_COMBS, subdir="a")
    monkeypatch.setattr(suites, "COMB_TOL", 1e-30)
    code, out_bad = _verify(tmp_path, "combs", SMALL_COMBS, subdir="b")
    assert code == 1 and any(r["status"] == "fail" for r in _load(out_bad, "combs")["records"])
    capsys.readouterr()

    merged_path = tmp_path / "merged.json"
    code = main(["merge", str(out / "combs_report.json"), "--out", str(merged_path)])
    assert code == 0
    doc = json.loads(merged_path.read_text())
    assert doc["kind"] == "merged" and doc["overall"] == "pass"
    assert doc["coverage"]

    code = main(
        [
            "merge",
            str(out / "combs_report.json"),
            str(out_bad / "combs_report.json"),
            "--out",
            str(tmp_path / "merged_bad.json"),
        ]
    )
    assert code == 1

    code = main(["merge", str(tmp_path / "missing.json"), "--out", str(tmp_path / "m.json")])
    assert code == 2


def _without(d, key):
    return {k: v for k, v in d.items() if k != key}


@pytest.mark.parametrize(
    "mangle, field",
    [
        (lambda doc: [doc], "list"),
        (lambda doc: {**doc, "records": [_without(doc["records"][0], "status")]}, "status"),
        (lambda doc: {**doc, "records": "abc"}, "records"),
        (lambda doc: _without(doc, "overall"), "overall"),
    ],
    ids=["json-array", "record-without-status", "records-not-a-list", "no-overall"],
)
def test_merge_rejects_a_malformed_report_with_one_line(tmp_path, capsys, mangle, field):
    _, out = _verify(tmp_path, "combs", SMALL_COMBS)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(mangle(_load(out, "combs"))))
    capsys.readouterr()
    merged = tmp_path / "merged.json"
    assert main(["merge", str(bad), "--out", str(merged)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("merge:") and err.count("\n") == 1, err
    assert str(bad) in err and field in err
    assert not merged.exists()


def test_embed_matrices_inlines_referenced_payloads(tmp_path):
    code, out = _verify(tmp_path, "combs", SMALL_COMBS, "--embed-matrices")
    assert code == 0
    doc = _load(out, "combs")
    assert doc["matrices"]
    for digest, wire in doc["matrices"].items():
        assert len(digest) == 64
        assert set(wire) >= {"rows", "cols", "re", "im"}
    plain_code, plain_out = _verify(tmp_path, "combs", SMALL_COMBS, subdir="plain")
    assert plain_code == 0
    assert _load(plain_out, "combs")["matrices"] == {}


def test_bad_flag_values_exit_2(tmp_path):
    out = str(tmp_path / "o")
    assert main(["verify", "--suite", "combs", "--jobs", "0", "--out", out]) == 2
    assert main(["verify", "--suite", "hard", "--samples", "0", "--out", out]) == 2


def test_negative_seed_exits_2_before_any_report(tmp_path, capsys):
    code, out = _verify(tmp_path, "all", {}, seed="-1")
    err = capsys.readouterr().err
    assert code == 2
    assert err == "config error: --seed must be >= 0, got -1\n"
    assert not out.exists()


BAD_CONFIGS = {
    "gamma-cell-d2-below-2d1": {"hard": {"gamma_cells": [[2, 3]]}},
    "facts-cell-below-two-dimensions": {"hard": {"facts": {"dim_pairs": [[1, 1]]}}},
    "too-few-separation-pairs": {"net": {"separation_pairs": 10}},
    "too-few-lipschitz-trials": {"net": {"lipschitz_trials": 50}},
    "short-net-cell": {"net": {"cells": [[3, 3]]}},
    "string-count": {"combs": {"channels": "x"}},
    # the float rule (finite and > 0), on eps values, the only float settings
    "negative-tolerance": {"hard": {"family_eps": -1}},
    "zero-moment-samples": {"net": {"moment_samples": 0}},
    "moment-samples-below-the-audit-floor": {"net": {"moment_samples": 999}},
    "zero-channels": {"combs": {"channels": 0, "pairs": 0}},
    "unknown-key": {"combs": {"chanels": 3}},
    "unknown-net-mode": {"net": {"cells": [[4, 3, 3, "sideways"]]}},
    "explicit-mode-outside-window": {"net": {"cells": [[2, 4, 2, "odd"]]}},
    "bool-count": {"hard": {"max_n": True}},
    "mc-index-above-n": {"hard": {"mc_cells": [[1, 3, 2, 3]]}},
    "non-finite-tolerance": {"hard": {"domination": {"eps": [0.01, float("inf")]}}},
    "net-eps-not-below-1": {"net": {"eps": 1.5}},
    "family-eps-not-below-1": {"hard": {"family_eps": 1.0}},
    "facts-eps-not-below-1": {"hard": {"facts": {"eps": [0.01, 1.5]}}},
    "domination-eps-not-below-1": {"hard": {"domination": {"eps": [1.5]}}},
    "net-eps-above-separation-limit": {"net": {"eps": 0.05}},
    "removed-lambda-scale": {"hard": {"domination": {"lambda_scale": 1.0}}},
    # the tolerances are constants beside their checks; setting one, even to
    # its value, is an unknown key
    "removed-combs-comb-tol": {"combs": {"comb_tol": 1e-8}},
    "removed-link-tol": {"combs": {"link_tol": 1e-9}},
    "removed-contraction-tol": {"combs": {"contraction_tol": 1e-8}},
    "removed-hard-comb-tol": {"hard": {"comb_tol": 1e-7}},
    "removed-recursion-tol": {"hard": {"recursion_tol": 1e-9}},
    "removed-expansion-tol": {"hard": {"expansion_tol": 1e-10}},
    "removed-cross-tol": {"hard": {"cross_tol": 1e-8}},
    "removed-mc-sigma-factor": {"hard": {"mc_sigma_factor": 5.0}},
    "removed-trace-tol": {"hard": {"trace_tol": 1e-6}},
    "removed-eig-tol": {"hard": {"domination": {"eig_tol": 1e-8}}},
    "removed-chain-slack": {"hard": {"facts": {"chain_slack": 1e-12}}},
    # twirls that no exact route takes: i = n = 5 on (1, 3) is above the
    # frame's order cap, and dimension 3^5 above the commutant's cap
    "gamma-twirl-without-a-route": {"hard": {"max_n": 5}},
    "gamma-cell-without-a-route": {
        "hard": {"max_n": 5, "gamma_cells": [[1, 3]], "mc_cells": [], "domination": {"cells": []}}
    },
    "mc-cell-without-a-route": {"hard": {"mc_cells": [[1, 3, 5, 5]]}},
    "domination-cell-without-a-route": {"hard": {"domination": {"cells": [[1, 3]], "max_n": 5}}},
    "rotor-trace-above-the-commutant-cap": {"hard": {"rotor_trace_cells": [[2, 4]]}},
}


@pytest.mark.parametrize("payload", BAD_CONFIGS.values(), ids=BAD_CONFIGS.keys())
def test_bad_config_exits_2_before_any_report(tmp_path, capsys, payload):
    started = time.perf_counter()
    code, out = _verify(tmp_path, "all", payload)
    assert time.perf_counter() - started < 1.0
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:") and err.count("\n") == 1
    assert not out.exists() or not any(out.iterdir())


def test_empty_grids_skip_instead_of_reporting_non_finite(tmp_path):
    payload = json.loads(json.dumps(SMALL_HARD))
    payload["hard"]["rotor_trace_cells"] = []
    payload["hard"]["trace_dims"] = []
    payload["hard"]["facts"]["eps"] = [0.9]
    code, out = _verify(tmp_path, "hard", payload)
    assert code == 0
    records = {r["check_id"]: r for r in _load(out, "hard")["records"]}
    for check_id in ("twirl-trace-bound-unitary", "twirl-trace-bound-rotor", "summand-chain"):
        assert records[check_id]["status"] == "skip" and records[check_id]["reason"]
        assert records[check_id]["residual"] is None


def test_non_finite_output_becomes_a_fail_record(tmp_path, monkeypatch):
    def unbounded(c):  # a passing verdict whose excess never left its -inf start
        return suites._verdict(True, 1e-6, -1e-6, max_excess=-float("inf"), max_pure_gap=0.0)

    monkeypatch.setattr(suites, "_trace_bound_unitary", unbounded)
    code, out = _verify(tmp_path, "hard", SMALL_HARD)
    assert code == 1
    records = {r["check_id"]: r for r in _load(out, "hard")["records"]}
    rec = records["twirl-trace-bound-unitary"]
    assert rec["status"] == "fail"
    assert rec["reason"] == "non-finite numbers: values.max_excess"
    assert "max_excess" not in rec["values"] and rec["values"]["max_pure_gap"] == 0.0
    assert [r for r in records.values() if r["status"] == "fail"] == [rec]


def test_combs_suite_builds_each_tester_once(monkeypatch):
    calls = []
    real = suites.build_testers

    def counting(draws):
        calls.append(len(draws))
        return real(draws)

    monkeypatch.setattr(suites, "build_testers", counting)
    report = suites.run_combs_suite(SMALL_COMBS, seed=11)
    assert calls == [SMALL_COMBS["combs"]["pairs"]] == [6]
    statuses = {r.check_id: r.status for r in report.records}
    assert statuses["tester-validity"] == statuses["tester-contraction"] == "pass"


def test_failed_merge_keeps_previous_merged_file(tmp_path, monkeypatch, capsys):
    _, out = _verify(tmp_path, "combs", SMALL_COMBS)
    merged = tmp_path / "merged.json"
    assert main(["merge", str(out / "combs_report.json"), "--out", str(merged)]) == 0
    before = merged.read_bytes()

    def broken_dump(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", broken_dump)
    with pytest.raises(OSError):
        main(["merge", str(out / "combs_report.json"), "--out", str(merged)])
    assert merged.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")] == []


def _one_error_line(err, path):
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert str(path) in err and "Traceback" not in err


def test_verify_into_a_bad_output_path_exits_2_before_any_suite(tmp_path, monkeypatch, capsys):
    def no_suite(*args, **kwargs):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(cli, "run_combs_suite", no_suite)
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "x"  # like /dev/null/x: a path below a regular file
    assert main(["verify", "--suite", "combs", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    _one_error_line(captured.err, out)


def test_verify_into_an_unwritable_report_path_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "combs_report.json").mkdir(parents=True)  # a directory where the report goes
    cfg = _write_config(tmp_path, SMALL_COMBS)
    assert main(["verify", "--suite", "combs", "--config", cfg, "--out", str(out)]) == 2
    _one_error_line(capsys.readouterr().err, out / "combs_report.json")
    assert [p.name for p in out.iterdir()] == ["combs_report.json"]


def test_merge_into_a_bad_output_path_exits_2(tmp_path, capsys):
    _, out = _verify(tmp_path, "combs", SMALL_COMBS)
    blocker = tmp_path / "file"
    blocker.write_text("")
    capsys.readouterr()
    merged = blocker / "m.json"
    assert main(["merge", str(out / "combs_report.json"), "--out", str(merged)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    _one_error_line(captured.err, merged)
    assert [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")] == []
