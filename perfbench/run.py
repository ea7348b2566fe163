"""combcert benchmark: `combcert verify` as a user runs it, one fresh process per run.

    python3 perfbench/run.py --workload hard-j1 --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --write-benchmark-json

With ``--trace 0`` it repeats the workload's verify commands until
``--seconds`` have passed and reports the end-to-end metrics (medians over
the repeats; peak memory is the largest). With ``--trace 1`` it alternates
untraced runs with runs that record spans around combcert's public
functions (``perfbench/spans.py``), at least two of each, then runs the
layer microbenchmarks (``perfbench/micro.py``), and reports the per-layer
metrics. The last line of standard output is one JSON object: correct,
attempted, failed, metrics.

BLAS thread variables are recorded, never set: pinning them is itself an
optimisation that ``hard-jn`` must be able to show.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import layer_totals  # noqa: E402  (no numpy, no combcert)

WORK_DIR = ROOT / ".bench_build" / "perfbench"
EXPECTED_IDS = json.loads((HERE / "expected_ids.json").read_text())
# set-up probes before each verify run, so that they sample the same stretch
# of time as the runs do (machine speed here drifts over tens of seconds)
SETUP_PROBES_PER_RUN = 2
MIN_TRACED_RUNS = 2
RUN_SECONDS = 30
CHILD_TIMEOUT_S = 150
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# name -> (why, [(suite, jobs), ...] given nproc)
WORKLOADS = {
    "hard-j1": (
        "hard suite at --jobs 1: large dense eigensolves and the twirl routes, "
        "the hot path; an eigensolve or twirl optimisation shows here",
        lambda cpus: [("hard", 1)],
    ),
    "hard-jn": (
        "hard suite at --jobs nproc: the same inputs through the thread pool; "
        "scheduling and BLAS-thread changes show here and not on hard-j1",
        lambda cpus: [("hard", cpus)],
    ),
    "combs-net": (
        "combs then net suite at --jobs 1: thousands of tiny eigensolves and small "
        "calls; per-call overhead shows here, large-matrix work does not",
        lambda cpus: [("combs", 1), ("net", 1)],
    ),
}

# name, unit, better, bound (share of the parent's median). On a 2-CPU VM the
# machine's speed drifts by up to half over tens of seconds, whatever the
# workload, so a run-to-run spread of 10-17% in wall time is the floor here.
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
)

_SPAN_METRICS = (
    ("linalg.herm_eig.calls", "count"),
    ("linalg.herm_eig.self_s", "s"),
    ("linalg.herm_eig.dim3_sum", "dim3_computed"),
    ("linalg.psd_check.calls", "count"),
    ("linalg.partial_trace.calls", "count"),
    ("linalg.partial_trace.self_s", "s"),
    ("linalg.haar_sampling.calls", "count"),
    ("linalg.haar_sampling.self_s", "s"),
    ("linalg.trace_norm.self_s", "s"),
    ("combs.certify_comb.calls", "count"),
    ("combs.certify_comb.self_s", "s"),
    ("combs.link_product.self_s", "s"),
    ("combs.tester.self_s", "s"),
    ("channels.self_s", "s"),
    ("hard.twirl.commutant_projector.calls", "count"),
    ("hard.twirl.commutant_projector.unique_keys", "count"),
    ("hard.twirl.commutant_projector.self_s", "s"),
    ("hard.twirl.weingarten.self_s", "s"),
    ("hard.twirl.monte_carlo.self_s", "s"),
    ("hard.facts.summand_chain.calls", "count"),
    ("hard.facts.summand_chain.self_s", "s"),
    ("hard.domination.domination_check.self_s", "s"),
    ("hard.instance.self_s", "s"),
    ("net.moment_audit.self_s", "s"),
    ("net.lipschitz_audit.self_s", "s"),
    ("net.separation_audit.self_s", "s"),
    ("net.f_operator.calls", "count"),
)
_RUN_METRICS = (
    ("suites.record_sum_s", "s", "lower"),
    ("suites.unattributed_s", "s", "lower"),
    ("suites.critical_record_s", "s", "lower"),
    ("suites.busy_share", "share", "higher"),
    ("suites.failed_share", "share", "lower"),
    ("report.write_s", "s", "lower"),
    ("report.bytes", "bytes", "lower"),
    ("cli.cpu_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)
_MICRO_METRICS = (
    "micro.herm_eig.d27_s",
    "micro.herm_eig.d100_s",
    "micro.herm_eig.d1000_s",
    "micro.psd_check.d27_s",
    "micro.psd_check.d100_s",
    "micro.psd_check.d1000_s",
    "micro.partial_trace.d1000_s",
    "micro.link_product.d4_s",
    "micro.commutant_projector.1-3.n3_s",
    "micro.gamma_twirl_weingarten.2-5.n3_s",
    "micro.certify_comb.d1000_s",
    "micro.moment_audit.batch2000_s",
    "micro.separation_audit.per_pair_s",
)
# name, unit, better
PER_LAYER = (
    tuple((name, unit, "lower") for name, unit in _SPAN_METRICS)
    + _RUN_METRICS
    + tuple((name, "s", "lower") for name in _MICRO_METRICS)
)

ENV_PROBE = """
import json, platform, numpy
blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "blas_name": blas.get("name"), "blas_version": blas.get("version")}))
"""
SETUP_PROBE = (
    "import combcert.cli, combcert.suites; combcert.suites.effective_config(None)"
)


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, (why, _) in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


# ---------------------------------------------------------------------------
# child processes


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(cmd, log_path):
    """Run ``cmd`` from the checkout root; return (wall s, exit code, rusage)."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage


def probe(*args: str) -> str:
    """Run ``python3 ARGS`` to completion and return its standard output."""
    done = subprocess.run([sys.executable, *args], cwd=ROOT, env=_child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"probe failed (exit {done.returncode}): {done.stderr.strip()}")
    return done.stdout


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_revision():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return done.stdout.strip() if done.returncode == 0 else None


def environment(seed: int) -> dict:
    env = json.loads(probe("-c", ENV_PROBE))
    env.update({
        "nproc": nproc(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "seed": seed,
    })
    return env


# ---------------------------------------------------------------------------
# verify runs


def verify(steps, seed, out_dir: Path, spans_dir: Path | None = None) -> dict:
    """One run of the workload: each (suite, jobs) step as a fresh process."""
    out_dir.mkdir(parents=True, exist_ok=True)
    run = {"wall_s": 0.0, "rss_mb": 0.0, "cpu_s": 0.0, "steps": []}
    for suite, jobs in steps:
        args = ["verify", "--suite", suite, "--jobs", str(jobs), "--seed", str(seed),
                "--out", str(out_dir)]
        spans_path = None
        if spans_dir is None:
            cmd = [sys.executable, "-m", "combcert.cli", *args]
        else:
            spans_path = spans_dir / f"{suite}.json"
            cmd = [sys.executable, str(HERE / "spans.py"), str(spans_path), *args]
        report_path = out_dir / f"{suite}_report.json"
        report_path.unlink(missing_ok=True)
        wall, code, usage = spawn(cmd, out_dir / f"{suite}.log")
        run["wall_s"] += wall
        run["rss_mb"] = max(run["rss_mb"], usage.ru_maxrss / 1024.0)
        run["cpu_s"] += usage.ru_utime + usage.ru_stime
        doc = None
        if code in (0, 1) and report_path.exists():
            doc = json.loads(report_path.read_text())
        step = {"suite": suite, "jobs": jobs, "exit": code, "report": doc,
                "report_bytes": report_path.stat().st_size if doc else 0}
        if spans_path is not None and code in (0, 1):
            step["layers"], step["counters"] = layer_totals(
                json.loads(spans_path.read_text())["spans"])
        if code not in (0, 1):
            log = (out_dir / f"{suite}.log").read_text(errors="replace")
            print(f"verify --suite {suite} exited {code}:\n{log[-2000:]}", file=sys.stderr)
        run["steps"].append(step)
    return run


class Gate:
    """Output correctness: expected record ids, fail records and digests."""

    def __init__(self, store_path: Path, key_prefix: str):
        self.store_path = store_path
        self.key_prefix = key_prefix
        self.store = json.loads(store_path.read_text()) if store_path.exists() else {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, set] = {}

    def score(self, run: dict) -> None:
        for step in run["steps"]:
            suite, doc = step["suite"], step["report"]
            expected = EXPECTED_IDS[suite]
            self.attempted += len(expected)
            if doc is None:
                self.failed += len(expected)
                self.problems.append(f"{suite}: exit {step['exit']} without a report")
                continue
            ids = [rec["check_id"] for rec in doc["records"]]
            missing = set(expected) - set(ids)
            extra = sorted(set(ids) - set(expected))
            if missing or extra or len(ids) != len(set(ids)):
                self.problems.append(
                    f"{suite}: record ids differ (missing {sorted(missing)}, extra {extra})")
            failed = len(missing) + sum(
                1 for rec in doc["records"]
                if rec["status"] == "fail" and rec["check_id"] in expected)
            # the first digest seen at this code and seed, by any workload, is
            # the reference: hard-j1 and hard-jn must agree on it
            digest = doc.get("body_digest")
            self.digests.setdefault(suite, set()).add(digest)
            reference = self.store.setdefault(f"{self.key_prefix}:{suite}", digest)
            if digest != reference:
                failed = len(expected)
                self.problems.append(f"{suite}: digest {digest} differs from {reference}")
            self.failed += failed

    def save(self) -> None:
        tmp = self.store_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.store, indent=1, sort_keys=True))
        os.replace(tmp, self.store_path)


def setup_probe(work: Path) -> float:
    wall, code, _ = spawn([sys.executable, "-c", SETUP_PROBE], work / "setup.log")
    if code != 0:
        raise RuntimeError(f"setup probe exited {code}")
    return wall


def repeat_verify(steps, seed, seconds, work: Path, gate: Gate):
    """Verify runs until ``seconds`` have passed, with set-up probes before each.

    Returns the runs and the probe times."""
    runs, setup = [], []
    deadline = time.perf_counter() + seconds
    while not runs or time.perf_counter() < deadline:
        setup.extend(setup_probe(work) for _ in range(SETUP_PROBES_PER_RUN))
        run = verify(steps, seed, work / "reports")
        gate.score(run)
        runs.append(run)
    return runs, setup


def traced_pairs(steps, seed, seconds, work: Path, gate: Gate):
    """Untraced and traced runs in alternation until ``seconds`` have passed.

    Each traced run follows an untraced one, so the machine's drifting
    speed falls on both alike and their difference is the tracing cost."""
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_TRACED_RUNS or time.perf_counter() < deadline:
        untraced.append(verify(steps, seed, work / "reports"))
        spans_dir = work / f"spans{len(traced)}"
        spans_dir.mkdir()
        traced.append(verify(steps, seed, work / "reports", spans_dir))
        gate.score(untraced[-1])
        gate.score(traced[-1])
    return untraced, traced


def _median(values):
    return statistics.median(values) if values else 0.0


def suites_metrics(run: dict) -> dict:
    """Where the suites' time went, from the records' own wall times."""
    records = [rec for step in run["steps"] if step["report"]
               for rec in step["report"]["records"]]
    total = sum(step["report"]["total_wall_time_s"] for step in run["steps"] if step["report"])
    capacity = sum(step["jobs"] * step["report"]["total_wall_time_s"]
                   for step in run["steps"] if step["report"])
    record_sum = sum(rec["wall_time_s"] for rec in records)
    return {
        "suites.record_sum_s": record_sum,
        "suites.unattributed_s": total - record_sum,
        "suites.critical_record_s": max((rec["wall_time_s"] for rec in records), default=0.0),
        "suites.busy_share": record_sum / capacity if capacity else 0.0,
        "report.bytes": sum(step["report_bytes"] for step in run["steps"]),
        "cli.cpu_s": run["cpu_s"],
    }


def traced_metrics(traced: list[dict], untraced: list[dict], gate: Gate) -> dict:
    values = {}
    per_run = []
    for run in traced:
        layers, counters = {}, {}
        for step in run["steps"]:
            for layer, entry in step.get("layers", {}).items():
                acc = layers.setdefault(layer, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
                for k in acc:
                    acc[k] += entry[k]
            for k, count in step.get("counters", {}).items():
                counters[k] = counters.get(k, 0) + count
        per_run.append((layers, counters))
    counters = per_run[0][1]
    for layers, other in per_run[1:]:
        if other != counters:
            gate.problems.append(f"exact counters differ between traced runs: "
                                 f"{counters} != {other}")
    for name, _ in _SPAN_METRICS:
        if name in counters:
            values[name] = counters[name]
            continue
        layer, _, field = name.rpartition(".")
        observed = [layers.get(layer, {}).get(field, 0) for layers, _ in per_run]
        values[name] = observed[0] if field == "calls" else _median(observed)
    values["report.write_s"] = _median([layers.get("report.write", {}).get("busy_s", 0.0)
                                        for layers, _ in per_run])
    per_untraced = [suites_metrics(run) for run in untraced]
    for name in per_untraced[0]:
        values[name] = _median([m[name] for m in per_untraced])
    values["trace.overhead_s"] = _median([t["wall_s"] - u["wall_s"]
                                          for u, t in zip(untraced, traced)])
    values["suites.failed_share"] = gate.failed / gate.attempted
    return values


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-benchmark-json", action="store_true",
                        help="regenerate BENCHMARK.json from the tables in this file")
    args = parser.parse_args(argv)

    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(benchmark_json(), indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "combcert" / "cli.py").is_file():
        print(f"no combcert sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    WORK_DIR.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work: Path) -> int:
    steps = WORKLOADS[args.workload][1](nproc())
    probe("-c", SETUP_PROBE)  # warm-up: byte-compiles the sources, fails if they are broken
    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload}: " + ", ".join(
        f"verify --suite {s} --jobs {j} --seed {args.seed}" for s, j in steps))

    gate = Gate(WORK_DIR / "digests.json", f"{env['source_sha256']}:{args.seed}")
    metrics = {}
    if args.trace == 0:
        runs, setup = repeat_verify(steps, args.seed, args.seconds, work, gate)
        values = {
            "wall_s": _median([r["wall_s"] for r in runs]),
            "setup_s": _median(setup),
            "peak_rss_mb": max(r["rss_mb"] for r in runs),
        }
        for name, unit, _, _ in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}
        print(f"runs {len(runs)} verify, {len(setup)} setup probes; wall_s "
              + " ".join(f"{r['wall_s']:.3f}" for r in runs))
    else:
        untraced, traced = traced_pairs(steps, args.seed, args.seconds, work, gate)
        keep = WORK_DIR / "spans" / f"{args.workload}-seed{args.seed}"
        shutil.rmtree(keep, ignore_errors=True)
        shutil.copytree(work / "spans0", keep)  # one run's spans, for inspection
        micro = json.loads(probe(str(HERE / "micro.py"), "--seed", str(args.seed)))
        values = traced_metrics(traced, untraced, gate)
        values.update(micro)
        for name, unit, _ in PER_LAYER:
            metrics[name] = {"value": values[name], "unit": unit}
        print(f"runs {len(untraced)} untraced, {len(traced)} traced verify")
    gate.save()

    for suite, digests in sorted(gate.digests.items()):
        print(f"digest {suite} {' '.join(sorted(map(str, digests)))}")
    for problem in gate.problems:
        print(f"problem {problem}")
    print(f"failed_share {gate.failed / gate.attempted:.6g} share "
          f"({gate.failed} of {gate.attempted} expected records)")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not gate.problems,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
