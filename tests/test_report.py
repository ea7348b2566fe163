"""Tests for check records, report documents, digests, and merging."""

import dataclasses
import json
import time

import pytest

from combcert.report import (
    CheckRecord,
    canonical_body,
    load_report,
    make_report,
    merge_reports,
    report_digest,
    write_report,
)


def _record(check_id="alpha", status="pass", **kw):
    kw.setdefault("anchor", "channel-representations")
    kw.setdefault("values", {"residual": 1e-12})
    kw.setdefault("wall_time_s", 0.25)
    return CheckRecord(check_id=check_id, status=status, **kw)


def _report(records, seed=7, suite="combs"):
    return make_report(
        suite=suite,
        config={"channels": 3},
        records=records,
        seed=seed,
        started=time.perf_counter(),
        tolerances={"comb_tol": 1e-8},
    )


def test_record_rejects_unknown_status():
    with pytest.raises(ValueError):
        _record(status="maybe")


def test_skip_requires_reason():
    with pytest.raises(ValueError):
        _record(status="skip")
    rec = _record(status="skip", reason="window excludes this cell")
    assert rec.reason.startswith("window")


def test_overall_fails_iff_any_record_fails():
    ok = _report([_record(), _record("beta", "warn"), _record("gamma", "skip", reason="n/a")])
    assert ok.overall == "pass"
    bad = _report([_record(), _record("beta", "fail")])
    assert bad.overall == "fail"


def test_canonical_body_strips_volatile_fields():
    rep = _report([_record()])
    body = canonical_body(rep.to_dict())
    assert "created" not in body
    assert "total_wall_time_s" not in body
    assert all("wall_time_s" not in r for r in body["records"])
    # the stripped copy must not mutate the source document
    doc = rep.to_dict()
    canonical_body(doc)
    assert "created" in doc


def test_digest_ignores_timing_but_sees_content():
    rec = _record()
    slow = _report([dataclasses.replace(rec, wall_time_s=99.0)])
    fast = _report([rec])
    assert report_digest(slow.to_dict()) == report_digest(fast.to_dict())
    other = _report([_record(values={"residual": 1e-3})])
    assert report_digest(other.to_dict()) != report_digest(fast.to_dict())


def test_write_and_load_round_trip(tmp_path):
    rep = _report([_record()])
    path = tmp_path / "combs_report.json"
    write_report(rep, path)
    doc = load_report(path)
    assert doc["suite"] == "combs"
    assert doc["body_digest"] == report_digest(doc)
    raw = json.loads(path.read_text())
    assert raw["schema"] == 1


def test_failed_write_keeps_previous_report(tmp_path, monkeypatch):
    path = tmp_path / "combs_report.json"
    write_report(_report([_record()]), path)
    before = path.read_text()

    def interrupted_dump(obj, fh, **kwargs):
        fh.write("{")
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", interrupted_dump)
    with pytest.raises(OSError):
        write_report(_report([_record(values={"residual": 1e-3})]), path)
    assert path.read_text() == before
    assert [p.name for p in tmp_path.iterdir()] == ["combs_report.json"]


def test_load_rejects_wrong_schema(tmp_path):
    rep = _report([_record()])
    path = tmp_path / "r.json"
    write_report(rep, path)
    doc = json.loads(path.read_text())
    doc["schema"] = 2
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        load_report(path)


def test_merge_builds_coverage_and_overall():
    a = _report([_record("alpha"), _record("beta", anchor="link-product")]).to_dict()
    b = _report([_record("gamma", "fail", anchor="link-product")], suite="hard").to_dict()
    merged = merge_reports([a, b])
    assert merged["overall"] == "fail"
    assert merged["kind"] == "merged"
    assert [s["suite"] for s in merged["suites"]] == ["combs", "hard"]
    cov = merged["coverage"]
    assert cov["channel-representations"] == ["alpha"]
    assert cov["link-product"] == ["beta", "gamma"]
    # a merged doc's digest must also ignore per-record timings
    body = canonical_body(merged)
    for entry in body.get("suites", []):
        assert "total_wall_time_s" not in entry


def test_merge_rejects_empty_input():
    with pytest.raises(ValueError):
        merge_reports([])
