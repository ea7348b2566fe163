"""End-to-end tests for the command-line interface and the suite runners.

Each scenario shrinks the default grids through a config file so the whole
module stays fast while still exercising the real suites."""

import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

import combcert.cli as cli
import combcert.hard.twirl as twirl
import combcert.suites as suites
from combcert.cli import main
from combcert.report import canonical_body, report_digest

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


def test_impossible_tolerance_fails_with_exit_1(tmp_path):
    payload = {"combs": {**SMALL_COMBS["combs"], "comb_tol": 1e-30}}
    code, out = _verify(tmp_path, "combs", payload)
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


def test_tampered_weight_schedule_fails(tmp_path):
    payload = json.loads(json.dumps(SMALL_HARD))
    payload["hard"]["domination"]["lambda_scale"] = 1e-6
    code, out = _verify(tmp_path, "hard", payload)
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

    def warned(config, seed, jobs=1, embed_matrices=False):
        rep = real(config, seed, jobs=jobs, embed_matrices=embed_matrices)
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


def test_jobs_run_groups_in_worker_processes_in_table_order(monkeypatch):
    real = suites._run_check

    def tagged(cell, check):
        rec = real(cell, check)
        return replace(rec, values={**rec.values, "pid": os.getpid()})

    monkeypatch.setattr(suites, "_run_check", tagged)
    report = suites.run_hard_suite(SMALL_HARD, seed=11, jobs=2)
    assert [r.check_id for r in report.records] == _table_ids("hard", SMALL_HARD)
    pids = {r.values["pid"] for r in report.records}
    assert os.getpid() not in pids and 1 <= len(pids) <= 2
    assert {r.status for r in report.records} <= {"pass", "skip"}


def test_embedded_matrices_come_back_from_the_workers(tmp_path):
    docs = []
    for jobs in ("1", "2"):
        code, out = _verify(tmp_path, "combs", SMALL_COMBS, "--embed-matrices", "--jobs", jobs,
                            subdir=f"jobs{jobs}")
        assert code == 0
        docs.append(_load(out, "combs"))
    assert docs[0]["matrices"] and docs[0]["matrices"] == docs[1]["matrices"]
    assert docs[0]["body_digest"] == docs[1]["body_digest"]


def test_a_dead_worker_fails_its_checks_and_the_report_is_written(tmp_path, monkeypatch):
    def die(c):
        os._exit(3)

    monkeypatch.setattr(suites, "_gamma_recursion", die)
    code, out = _verify(tmp_path, "hard", SMALL_HARD, "--jobs", "2")
    assert code == 1
    records = {r["check_id"]: r for r in _load(out, "hard")["records"]}
    assert list(records) == _table_ids("hard", SMALL_HARD)
    dead = records["gamma-recursion-1-2"]
    assert dead["status"] == "fail" and "worker process died" in dead["reason"]


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


def test_run_all_suites_passes_samples_to_net():
    payload = {**SMALL_COMBS, **SMALL_HARD, **SMALL_NET}
    net_all = suites.run_all_suites(payload, seed=11, samples=300)[2]
    net_alone = suites.run_net_suite(payload, seed=11, samples=300)
    assert net_all.config["moment_samples"] == net_alone.config["moment_samples"] == 300
    assert report_digest(net_all.to_dict()) == report_digest(net_alone.to_dict())


def test_verify_all_writes_three_reports(tmp_path):
    payload = {**SMALL_COMBS, **SMALL_HARD, **SMALL_NET}
    code, out = _verify(tmp_path, "all", payload)
    assert code == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["combs_report.json", "hard_report.json", "net_report.json"]


def test_merge_command(tmp_path, capsys):
    _, out = _verify(tmp_path, "combs", SMALL_COMBS, subdir="a")
    payload = {"combs": {**SMALL_COMBS["combs"], "comb_tol": 1e-30}}
    _, out_bad = _verify(tmp_path, "combs", payload, subdir="b")
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


BAD_CONFIGS = {
    "gamma-cell-d2-below-2d1": {"hard": {"gamma_cells": [[2, 3]]}},
    "too-few-separation-pairs": {"net": {"separation_pairs": 10}},
    "too-few-lipschitz-trials": {"net": {"lipschitz_trials": 50}},
    "short-net-cell": {"net": {"cells": [[3, 3]]}},
    "string-count": {"combs": {"channels": "x"}},
    "negative-tolerance": {"combs": {"comb_tol": -1}},
    "zero-moment-samples": {"net": {"moment_samples": 0}},
    "zero-channels": {"combs": {"channels": 0, "pairs": 0}},
    "unknown-key": {"combs": {"chanels": 3}},
    "unknown-net-mode": {"net": {"cells": [[4, 3, 3, "sideways"]]}},
    "explicit-mode-outside-window": {"net": {"cells": [[2, 4, 2, "odd"]]}},
    "bool-count": {"hard": {"max_n": True}},
    "mc-index-above-n": {"hard": {"mc_cells": [[1, 3, 2, 3]]}},
    "non-finite-tolerance": {"hard": {"trace_tol": float("inf")}},
    "net-eps-not-below-1": {"net": {"eps": 1.5}},
    "net-eps-above-separation-limit": {"net": {"eps": 0.05}},
}


@pytest.mark.parametrize("payload", BAD_CONFIGS.values(), ids=BAD_CONFIGS.keys())
def test_bad_config_exits_2_before_any_report(tmp_path, capsys, payload):
    code, out = _verify(tmp_path, "all", payload)
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
    real = suites.random_tester

    def counting(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(suites, "random_tester", counting)
    report = suites.run_combs_suite(SMALL_COMBS, seed=11)
    assert len(calls) == SMALL_COMBS["combs"]["pairs"] == 6
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
