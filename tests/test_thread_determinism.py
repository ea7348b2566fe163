"""The hard and net suites' canonical bodies must not depend on the BLAS
thread count or on ``--jobs``: one (config, seed) gives one digest on any
machine. The net suite's audits run stacked LAPACK and matmul calls.

Each combination runs ``combcert verify --suite <suite>`` in a fresh process,
since OpenBLAS reads its thread count once, when numpy loads. The thread
count is set in the child's environment only. With it unset the CLI pins
BLAS to one thread, so "unset" means the CLI's default of 1; "2" still
covers a multithreaded BLAS."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")
THREADS = (None, "1", "2")  # None: OPENBLAS_NUM_THREADS unset, the CLI's default of 1
JOBS = ("1", "2")


def _digest(tmp_path: Path, suite: str, seed: int, threads: str | None, jobs: str) -> str:
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    out = tmp_path / f"{suite}-seed{seed}-threads{threads}-jobs{jobs}"
    subprocess.run(
        [sys.executable, "-m", "combcert.cli", "verify", "--suite", suite,
         "--seed", str(seed), "--jobs", jobs, "--out", str(out)],
        env=env, check=True, stdout=subprocess.DEVNULL,
    )
    return json.loads((out / f"{suite}_report.json").read_text())["body_digest"]


def _digests(tmp_path: Path, suite: str, seed: int) -> dict:
    return {
        (threads, jobs): _digest(tmp_path, suite, seed, threads, jobs)
        for threads in THREADS
        for jobs in JOBS
    }


@pytest.mark.parametrize("seed", [7, 23])
def test_hard_digest_is_independent_of_blas_threads_and_jobs(tmp_path, seed):
    digests = _digests(tmp_path, "hard", seed)
    assert len(set(digests.values())) == 1, digests


@pytest.mark.parametrize("seed", [7, 23])
def test_net_digest_is_independent_of_blas_threads_and_jobs(tmp_path, seed):
    digests = _digests(tmp_path, "net", seed)
    assert len(set(digests.values())) == 1, digests
