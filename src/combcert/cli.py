"""Command-line entry point.

    combcert verify [--suite combs|hard|net|all] [--config FILE] [--seed N]
                    [--out DIR] [--samples N] [--strict] [--jobs K]
                    [--embed-matrices]
    combcert merge REPORT [REPORT ...] --out FILE

Exit codes: 0 all checks passed, 1 at least one check failed, 2 the
configuration or inputs were invalid. ``--strict`` escalates warnings to
failures before the exit code is computed. A report depends only on the
configuration and the seed: the hard suite's twirl route is chosen from
each input by ``gamma_twirl``, not by a flag. ``--jobs K`` forks K workers
for the check groups, each with one BLAS thread unless the user set a count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from dataclasses import replace

# one BLAS thread per --jobs worker unless set; numpy reads these once, on import
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .report import load_report, merge_reports, write_json, write_report  # noqa: E402
from .suites import (  # noqa: E402
    ConfigError,
    effective_config,
    run_combs_suite,
    run_hard_suite,
    run_net_suite,
)

__all__ = ["main"]

# a bad output path is invalid input (exit 2); other OSErrors, such as a
# full disk, are not and propagate
_PATH_ERRORS = (
    FileExistsError,
    FileNotFoundError,
    IsADirectoryError,
    NotADirectoryError,
    PermissionError,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="combcert",
        description="Numerical certification suites for comb calculus, "
        "twirled-operator domination, and channel-family separation audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run verification suites")
    verify.add_argument(
        "--suite",
        choices=["combs", "hard", "net", "all"],
        default="all",
        help="which suite to run (default: all)",
    )
    verify.add_argument("--config", help="JSON config file overriding the defaults")
    verify.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    verify.add_argument("--out", default=".", help="output directory for report files")
    verify.add_argument(
        "--samples", type=int, help="override Monte Carlo sample counts"
    )
    verify.add_argument(
        "--strict", action="store_true", help="escalate warnings to failures"
    )
    verify.add_argument(
        "--jobs", type=int, default=1, help="worker processes for the check groups (default 1)"
    )
    verify.add_argument(
        "--embed-matrices",
        action="store_true",
        help="inline matrix wire forms instead of hash references only",
    )

    merge = sub.add_parser("merge", help="consolidate suite reports")
    merge.add_argument("inputs", nargs="*", help="report JSON files")
    merge.add_argument("--out", required=True, help="merged report path")
    return parser


def _load_config(path: str | None) -> dict | None:
    if path is None:
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def _escalate(report):
    records = tuple(
        replace(rec, status="fail", reason=(rec.reason or "") or "escalated from warn by --strict")
        if rec.status == "warn"
        else rec
        for rec in report.records
    )
    return replace(report, records=records)


def _cmd_verify(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    if args.samples is not None and args.samples < 1:
        raise ConfigError(f"--samples must be >= 1, got {args.samples}")
    # the whole config is validated, and --samples applied, before any suite runs
    config = effective_config(_load_config(args.config), args.samples)
    # looked up per call, so a wrapped or patched module binding is the one run
    runners = {"combs": run_combs_suite, "hard": run_hard_suite, "net": run_net_suite}
    names = ["combs", "hard", "net"] if args.suite == "all" else [args.suite]

    try:
        os.makedirs(args.out, exist_ok=True)
    except _PATH_ERRORS as exc:
        print(f"error: cannot create output directory {args.out}: {exc.strerror}", file=sys.stderr)
        return 2
    exit_code = 0
    for name in names:
        report = runners[name](
            config, seed=args.seed, jobs=args.jobs, embed_matrices=args.embed_matrices
        )
        if args.strict:
            report = _escalate(report)
        path = os.path.join(args.out, f"{name}_report.json")
        try:
            doc = write_report(report, path)
        except _PATH_ERRORS as exc:
            print(f"error: cannot write {path}: {exc.strerror}", file=sys.stderr)
            return 2
        counts = Counter(rec["status"] for rec in doc["records"])
        summary = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
        print(f"[{name}] {doc['overall']} ({summary}) -> {path}")
        if doc["overall"] == "fail":
            exit_code = 1
    return exit_code


def _cmd_merge(args) -> int:
    if not args.inputs:
        print("merge: no input reports given", file=sys.stderr)
        return 2
    try:
        docs = [load_report(p) for p in args.inputs]
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"merge: {exc}", file=sys.stderr)
        return 2
    merged = merge_reports(docs)
    try:
        write_json(merged, args.out)
    except _PATH_ERRORS as exc:
        print(f"error: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
        return 2
    print(f"[merge] {merged['overall']} ({len(merged['suites'])} suites) -> {args.out}")
    return 0 if merged["overall"] == "pass" else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_merge(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
