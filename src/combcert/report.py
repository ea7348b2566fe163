"""Machine-readable verification reports.

A report is a JSON document (schema 1) with a suite name, the effective run
configuration, per-check records, and an overall status. Records carry a
stable claim anchor naming what is verified, the measured values, the
threshold they were held to, the seed that drove them, and wall time.

Determinism contract: ``canonical_body`` strips the volatile fields
(timestamps and wall times); two runs with identical configuration and seeds
produce byte-identical canonical bodies, compared via ``report_digest``.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field

from . import __version__
from .serialize import content_hash

__all__ = [
    "CheckRecord",
    "VerificationReport",
    "canonical_body",
    "load_report",
    "make_report",
    "merge_reports",
    "report_digest",
    "write_json",
    "write_report",
]

_STATUSES = ("pass", "warn", "fail", "skip")


@dataclass(frozen=True)
class CheckRecord:
    """One verified claim instance: id, anchor, measurements, verdict."""

    check_id: str
    anchor: str
    status: str
    values: dict = field(default_factory=dict)
    threshold: float | None = None
    residual: float | None = None
    seed: int | None = None
    wall_time_s: float = 0.0
    reason: str | None = None

    def __post_init__(self) -> None:
        if self.status not in _STATUSES:
            raise ValueError(f"status must be one of {_STATUSES}, got {self.status!r}")
        if self.status == "skip" and not self.reason:
            raise ValueError("skipped checks must record a reason")


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    config: dict
    records: tuple[CheckRecord, ...]
    seed: int
    created: str
    total_wall_time_s: float
    tolerances: dict = field(default_factory=dict)
    matrices: dict = field(default_factory=dict)
    schema: int = 1
    version: str = __version__

    @property
    def overall(self) -> str:
        return "fail" if any(r.status == "fail" for r in self.records) else "pass"

    def to_dict(self) -> dict:
        d = asdict(self)
        d["overall"] = self.overall
        return d


def make_report(
    suite: str,
    config: dict,
    records: list[CheckRecord],
    seed: int,
    started: float,
    tolerances: dict | None = None,
    matrices: dict | None = None,
) -> VerificationReport:
    return VerificationReport(
        suite=suite,
        config=config,
        records=tuple(records),
        seed=seed,
        created=time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        total_wall_time_s=time.perf_counter() - started,
        tolerances=dict(tolerances or {}),
        matrices=dict(matrices or {}),
    )


def canonical_body(report: dict) -> dict:
    """Report content with the volatile fields removed.

    Drops the creation timestamp and every wall-time field; everything else
    (values, residuals, seeds, hashes, statuses) must reproduce exactly."""
    body = json.loads(json.dumps(report))
    body.pop("created", None)
    body.pop("total_wall_time_s", None)
    # the digest is derived from the body, so it can never be part of it;
    # stripping it here lets a reader re-verify a loaded file directly
    body.pop("body_digest", None)
    for rec in body.get("records", []):
        rec.pop("wall_time_s", None)
    return body


def report_digest(report: dict) -> str:
    """sha256 of the canonical JSON of the canonical body."""
    return content_hash(canonical_body(report))


def write_json(doc: dict, path) -> None:
    """Write ``doc`` as JSON to ``path``, atomically.

    The JSON goes to a temporary file beside ``path`` that is renamed over
    it, so a failed write leaves any previous file at ``path`` intact."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_report(report: VerificationReport, path) -> dict:
    """Write the report with its ``body_digest`` to ``path`` (``write_json``)."""
    d = report.to_dict()
    d["body_digest"] = report_digest(d)
    write_json(d, path)
    return d


def load_report(path) -> dict:
    """Read a suite report. A document ``merge_reports`` could not read
    raises ValueError naming the path and the field."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"not a verification report: {path} holds a JSON {type(doc).__name__}")
    if doc.get("schema") != 1:
        raise ValueError(f"unsupported report schema {doc.get('schema')!r} in {path}")
    for key in ("suite", "records", "overall"):
        if key not in doc:
            raise ValueError(f"not a verification report: {path} has no {key!r}")
    if not isinstance(doc["records"], list):
        raise ValueError(f"{path}: 'records' must be a list, got {type(doc['records']).__name__}")
    for i, rec in enumerate(doc["records"]):
        if not isinstance(rec, dict) or rec.get("status") not in _STATUSES:
            raise ValueError(f"{path}: records[{i}].status must be one of {_STATUSES}")
        for key in ("check_id", "anchor"):
            if not isinstance(rec.get(key), str):
                raise ValueError(f"{path}: records[{i}].{key} must be a string")
    return doc


def merge_reports(reports: list[dict]) -> dict:
    """Consolidate suite reports: summaries plus an anchor coverage table."""
    if not reports:
        raise ValueError("need at least one report to merge")
    coverage: dict[str, list[str]] = {}
    suites = []
    for doc in reports:
        counts = {"pass": 0, "warn": 0, "fail": 0, "skip": 0}
        for rec in doc["records"]:
            counts[rec["status"]] += 1
            coverage.setdefault(rec["anchor"], [])
            if rec["check_id"] not in coverage[rec["anchor"]]:
                coverage[rec["anchor"]].append(rec["check_id"])
        suites.append(
            {
                "suite": doc["suite"],
                "overall": doc["overall"],
                "counts": counts,
                "seed": doc.get("seed"),
                "body_digest": doc.get("body_digest"),
            }
        )
    overall = "fail" if any(s["overall"] == "fail" for s in suites) else "pass"
    return {
        "schema": 1,
        "version": __version__,
        "kind": "merged",
        "suites": suites,
        "coverage": {a: sorted(ids) for a, ids in sorted(coverage.items())},
        "overall": overall,
    }
